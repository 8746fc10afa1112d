//! A simulated DNS server.
//!
//! One [`DnsServer`] instance plays the role of "the resolver the client
//! uses" (or an authoritative server — in the testbed the distinction does
//! not matter, since the censor sits on the path either way). It answers
//! from a static zone database, follows CNAME chains within its own data,
//! and returns NXDOMAIN for unknown names.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use underradar_netsim::host::{UdpApi, UdpService};

use super::message::{DnsMessage, QType, Rcode, Record, RecordData};
use super::name::DnsName;

/// Statistics the server keeps for experiment assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct DnsServerStats {
    /// Queries received.
    pub queries: u64,
    /// Responses with at least one answer.
    pub answered: u64,
    /// NXDOMAIN responses.
    pub nxdomain: u64,
}

/// Builder for a zone database.
#[derive(Debug, Default)]
pub struct ZoneBuilder {
    records: Vec<Record>,
}

impl ZoneBuilder {
    /// Empty zone.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an A record.
    pub fn a(mut self, name: &DnsName, addr: Ipv4Addr) -> Self {
        self.records.push(Record {
            name: name.clone(),
            ttl: 300,
            data: RecordData::A(addr),
        });
        self
    }

    /// Add an MX record.
    pub fn mx(mut self, name: &DnsName, preference: u16, exchange: &DnsName) -> Self {
        self.records.push(Record {
            name: name.clone(),
            ttl: 3600,
            data: RecordData::Mx {
                preference,
                exchange: exchange.clone(),
            },
        });
        self
    }

    /// Add a CNAME record.
    pub fn cname(mut self, name: &DnsName, target: &DnsName) -> Self {
        self.records.push(Record {
            name: name.clone(),
            ttl: 300,
            data: RecordData::Cname(target.clone()),
        });
        self
    }

    /// Add an NS record.
    pub fn ns(mut self, name: &DnsName, target: &DnsName) -> Self {
        self.records.push(Record {
            name: name.clone(),
            ttl: 86400,
            data: RecordData::Ns(target.clone()),
        });
        self
    }

    /// Finish into the record list.
    pub fn build(self) -> Vec<Record> {
        self.records
    }
}

/// A zone database indexed by owner name, ready to answer queries.
///
/// Immutable once built: index a zone once and share it by [`Arc`]
/// across every server that answers from it ([`DnsServer::with_zone`]).
#[derive(Debug)]
pub struct DnsZone {
    records: HashMap<DnsName, Vec<Record>>,
}

impl DnsZone {
    /// Index `records` by owner name (record order within a name kept).
    pub fn new(records: Vec<Record>) -> DnsZone {
        let mut index: HashMap<DnsName, Vec<Record>> = HashMap::new();
        for r in records {
            index.entry(r.name.clone()).or_default().push(r);
        }
        DnsZone { records: index }
    }
}

/// A zone-backed DNS server, attachable to a host as a UDP service on
/// port 53.
pub struct DnsServer {
    zone: Arc<DnsZone>,
    stats: DnsServerStats,
}

impl DnsServer {
    /// Build a server over `records`.
    pub fn new(records: Vec<Record>) -> DnsServer {
        Self::with_zone(Arc::new(DnsZone::new(records)))
    }

    /// Build a server answering from an already indexed, shared zone.
    pub fn with_zone(zone: Arc<DnsZone>) -> DnsServer {
        DnsServer {
            zone,
            stats: DnsServerStats::default(),
        }
    }

    /// Server statistics.
    pub fn stats(&self) -> DnsServerStats {
        self.stats
    }

    /// Mirror server totals into `tel` under `<prefix>.*` (e.g.
    /// `protocols.dns.resolver`). Idempotent.
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        tel.set_counter(&format!("{prefix}.queries"), self.stats.queries);
        tel.set_counter(&format!("{prefix}.answered"), self.stats.answered);
        tel.set_counter(&format!("{prefix}.nxdomain"), self.stats.nxdomain);
    }

    /// Resolve a question against the zone, following CNAMEs (bounded).
    /// Returns the answer records and rcode.
    pub fn resolve(&self, name: &DnsName, qtype: QType) -> (Vec<Record>, Rcode) {
        let mut answers = Vec::new();
        let mut current = name.clone();
        for _ in 0..8 {
            match self.zone.records.get(&current) {
                Some(records) => {
                    let matching: Vec<&Record> =
                        records.iter().filter(|r| r.data.qtype() == qtype).collect();
                    if !matching.is_empty() {
                        answers.extend(matching.into_iter().cloned());
                        return (answers, Rcode::NoError);
                    }
                    // Follow a CNAME if present (and we were not asking for
                    // the CNAME itself).
                    if qtype != QType::Cname {
                        if let Some(cname) = records.iter().find_map(|r| match &r.data {
                            RecordData::Cname(t) => Some((r.clone(), t.clone())),
                            _ => None,
                        }) {
                            answers.push(cname.0);
                            current = cname.1;
                            continue;
                        }
                    }
                    // Name exists, no data of this type.
                    return (answers, Rcode::NoError);
                }
                None => return (answers, Rcode::NxDomain),
            }
        }
        (answers, Rcode::ServFail) // CNAME chain too deep
    }

    /// Produce the full response message for a query.
    pub fn answer(&mut self, query: &DnsMessage) -> DnsMessage {
        self.stats.queries += 1;
        let Some(q) = query.question() else {
            return DnsMessage::response_to(query, Rcode::FormErr);
        };
        let (answers, rcode) = self.resolve(&q.name, q.qtype);
        let mut resp = DnsMessage::response_to(query, rcode);
        resp.answers = answers;
        match rcode {
            Rcode::NxDomain => self.stats.nxdomain += 1,
            _ if !resp.answers.is_empty() => self.stats.answered += 1,
            _ => {}
        }
        resp
    }
}

impl UdpService for DnsServer {
    fn on_datagram(
        &mut self,
        api: &mut UdpApi<'_, '_>,
        src: Ipv4Addr,
        src_port: u16,
        payload: &[u8],
    ) {
        let Ok(query) = DnsMessage::decode(payload) else {
            return; // malformed queries are dropped
        };
        if query.is_response {
            return;
        }
        let resp = self.answer(&query);
        api.send(src, src_port, resp.encode());
    }

    fn reset(&mut self) {
        self.stats = DnsServerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).expect("name")
    }

    fn test_server() -> DnsServer {
        let zone = ZoneBuilder::new()
            .a(&name("bbc.com"), Ipv4Addr::new(151, 101, 0, 81))
            .a(&name("www.bbc.com"), Ipv4Addr::new(151, 101, 0, 82))
            .mx(&name("twitter.com"), 10, &name("mx1.twitter.com"))
            .mx(&name("twitter.com"), 20, &name("mx2.twitter.com"))
            .a(&name("mx1.twitter.com"), Ipv4Addr::new(199, 59, 150, 10))
            .a(&name("mx2.twitter.com"), Ipv4Addr::new(199, 59, 150, 11))
            .cname(&name("alias.bbc.com"), &name("www.bbc.com"))
            .ns(&name("bbc.com"), &name("ns1.bbc.com"))
            .build();
        DnsServer::new(zone)
    }

    #[test]
    fn a_lookup() {
        let srv = test_server();
        let (answers, rcode) = srv.resolve(&name("bbc.com"), QType::A);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 1);
        assert_eq!(
            answers[0].data,
            RecordData::A(Ipv4Addr::new(151, 101, 0, 81))
        );
    }

    #[test]
    fn mx_lookup_returns_both_exchangers() {
        let srv = test_server();
        let (answers, rcode) = srv.resolve(&name("twitter.com"), QType::Mx);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn cname_chain_followed() {
        let srv = test_server();
        let (answers, rcode) = srv.resolve(&name("alias.bbc.com"), QType::A);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 2, "CNAME + target A");
        assert!(matches!(answers[0].data, RecordData::Cname(_)));
        assert!(matches!(answers[1].data, RecordData::A(_)));
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let srv = test_server();
        let (answers, rcode) = srv.resolve(&name("no.such.name"), QType::A);
        assert!(answers.is_empty());
        assert_eq!(rcode, Rcode::NxDomain);
    }

    #[test]
    fn existing_name_with_no_matching_type_is_noerror_empty() {
        let srv = test_server();
        // twitter.com has MX but no A.
        let (answers, rcode) = srv.resolve(&name("twitter.com"), QType::A);
        assert!(answers.is_empty());
        assert_eq!(rcode, Rcode::NoError);
    }

    #[test]
    fn answer_builds_full_response_and_counts() {
        let mut srv = test_server();
        let q = DnsMessage::query(0xbeef, name("bbc.com"), QType::A);
        let resp = srv.answer(&q);
        assert_eq!(resp.id, 0xbeef);
        assert!(resp.is_response);
        assert_eq!(resp.a_records(), vec![Ipv4Addr::new(151, 101, 0, 81)]);
        let q2 = DnsMessage::query(2, name("missing.example"), QType::A);
        let resp2 = srv.answer(&q2);
        assert_eq!(resp2.rcode, Rcode::NxDomain);
        let stats = srv.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.nxdomain, 1);
    }

    #[test]
    fn cname_loop_ends_in_servfail() {
        let zone = ZoneBuilder::new()
            .cname(&name("a.test"), &name("b.test"))
            .cname(&name("b.test"), &name("a.test"))
            .build();
        let srv = DnsServer::new(zone);
        let (_, rcode) = srv.resolve(&name("a.test"), QType::A);
        assert_eq!(rcode, Rcode::ServFail);
    }

    #[test]
    fn end_to_end_over_the_simulator() {
        use underradar_netsim::{
            Host, HostApi, HostTask, LinkConfig, SimDuration, SimTime, Simulator, HOST_IFACE,
        };

        struct Lookup {
            resolver: Ipv4Addr,
            result: Option<Vec<Ipv4Addr>>,
        }
        impl HostTask for Lookup {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                let port = api.udp_bind(0).expect("bind");
                let q = DnsMessage::query(42, DnsName::parse("bbc.com").expect("n"), QType::A);
                api.udp_send(port, self.resolver, 53, q.encode());
            }
            fn on_udp(
                &mut self,
                _api: &mut HostApi<'_, '_>,
                _local: u16,
                _src: Ipv4Addr,
                _sport: u16,
                payload: &[u8],
            ) {
                let resp = DnsMessage::decode(payload).expect("response parses");
                assert_eq!(resp.id, 42);
                self.result = Some(resp.a_records());
            }
        }

        let client_ip = Ipv4Addr::new(10, 0, 1, 2);
        let resolver_ip = Ipv4Addr::new(10, 0, 2, 53);
        let mut sim = Simulator::new(4);
        let client = sim.add_node(Box::new(Host::new("client", client_ip)));
        let mut resolver_host = Host::new("resolver", resolver_ip);
        resolver_host.add_udp_service(53, Box::new(test_server()));
        let resolver = sim.add_node(Box::new(resolver_host));
        sim.wire(
            client,
            HOST_IFACE,
            resolver,
            HOST_IFACE,
            LinkConfig::default(),
        )
        .expect("wire");
        sim.node_mut::<Host>(client).expect("client").spawn_task_at(
            SimTime::ZERO,
            Box::new(Lookup {
                resolver: resolver_ip,
                result: None,
            }),
        );
        sim.run_for(SimDuration::from_secs(2)).expect("run");
        let task = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<Lookup>(0)
            .expect("t");
        assert_eq!(
            task.result.as_deref(),
            Some(&[Ipv4Addr::new(151, 101, 0, 81)][..])
        );
    }
}
