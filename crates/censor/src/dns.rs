//! DNS injection.
//!
//! The GFC observes DNS queries and injects forged responses that race the
//! legitimate answer. Two properties from the literature (and validated by
//! the paper, §3.2.3) are modeled precisely:
//!
//! 1. Injection triggers on the *query name*, for **A and MX queries
//!    alike** — and the forged answer always carries an **A record**, even
//!    when the question was MX. This mismatch is the fingerprint the
//!    paper's spam measurement detects.
//! 2. The injected response arrives before the real one (the injector is
//!    topologically closer), so the client's resolver accepts the forgery.

use std::net::Ipv4Addr;

use underradar_netsim::packet::Packet;
use underradar_protocols::dns::{DnsMessage, DnsName, QType, Rcode, Record, RecordData};

use crate::policy::CensorPolicy;

/// The DNS-injection component of a censor.
#[derive(Debug)]
pub struct DnsInjector {
    poison_ip: Ipv4Addr,
    nxdomain: bool,
    /// Number of forged responses injected.
    pub injections: u64,
}

impl DnsInjector {
    /// Build from the policy's poison address and forgery style.
    pub fn new(policy: &CensorPolicy) -> DnsInjector {
        DnsInjector {
            poison_ip: policy.dns_poison_ip,
            nxdomain: policy.dns_nxdomain,
            injections: 0,
        }
    }

    /// Inspect an observed packet. If it is a DNS query (UDP/53) for a
    /// blocked name with qtype A or MX, forge the injected response packet
    /// (addressed from the queried server back to the client).
    ///
    /// Returns the forged packet and the (name, qtype) that triggered it.
    pub fn inspect(
        &mut self,
        policy: &CensorPolicy,
        pkt: &Packet,
    ) -> Option<(Packet, DnsName, QType)> {
        let udp = pkt.as_udp()?;
        if udp.dst_port != 53 {
            return None;
        }
        let query = DnsMessage::decode(&udp.payload).ok()?;
        if query.is_response {
            return None;
        }
        let q = query.question()?;
        if !matches!(q.qtype, QType::A | QType::Mx) {
            return None;
        }
        if !policy.is_domain_blocked(&q.name) {
            return None;
        }
        // Forge: correct id, the question echoed, and either a bogus A
        // record (GFC style — regardless of whether the question was A or
        // MX) or a bare NXDOMAIN (ISP-filter style).
        let forged = if self.nxdomain {
            DnsMessage::response_to(&query, Rcode::NxDomain)
        } else {
            let mut resp = DnsMessage::response_to(&query, Rcode::NoError);
            resp.answers = vec![Record {
                name: q.name.clone(),
                ttl: 300,
                data: RecordData::A(self.poison_ip),
            }];
            resp
        };
        let reply = Packet::udp(pkt.dst, pkt.src, 53, udp.src_port, forged.encode());
        self.injections += 1;
        Some((reply, q.name.clone(), q.qtype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).expect("name")
    }

    fn setup() -> (CensorPolicy, DnsInjector) {
        let policy = CensorPolicy::new()
            .block_domain(&name("twitter.com"))
            .block_domain(&name("youtube.com"));
        let injector = DnsInjector::new(&policy);
        (policy, injector)
    }

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 53);

    fn query_packet(qname: &str, qtype: QType) -> Packet {
        let q = DnsMessage::query(0x4242, name(qname), qtype);
        Packet::udp(CLIENT, RESOLVER, 5555, 53, q.encode())
    }

    #[test]
    fn injects_for_blocked_a_query() {
        let (policy, mut inj) = setup();
        let pkt = query_packet("twitter.com", QType::A);
        let (reply, qname, qtype) = inj.inspect(&policy, &pkt).expect("injection");
        assert_eq!(qname, name("twitter.com"));
        assert_eq!(qtype, QType::A);
        assert_eq!(reply.src, RESOLVER, "forged from the queried server");
        assert_eq!(reply.dst, CLIENT);
        let msg = DnsMessage::decode(&reply.as_udp().expect("udp").payload).expect("dns");
        assert_eq!(msg.id, 0x4242, "transaction id copied");
        assert_eq!(msg.a_records(), vec![policy.dns_poison_ip]);
    }

    #[test]
    fn injects_bad_a_for_mx_query_the_papers_observation() {
        let (policy, mut inj) = setup();
        let pkt = query_packet("youtube.com", QType::Mx);
        let (reply, _, qtype) = inj.inspect(&policy, &pkt).expect("injection");
        assert_eq!(qtype, QType::Mx);
        let msg = DnsMessage::decode(&reply.as_udp().expect("udp").payload).expect("dns");
        assert!(msg.mx_records().is_empty(), "no MX in the forgery");
        assert_eq!(
            msg.a_records(),
            vec![policy.dns_poison_ip],
            "bad A injected for MX query"
        );
    }

    #[test]
    fn subdomains_of_blocked_zone_trigger() {
        let (policy, mut inj) = setup();
        let pkt = query_packet("api.twitter.com", QType::A);
        assert!(inj.inspect(&policy, &pkt).is_some());
        assert_eq!(inj.injections, 1);
    }

    #[test]
    fn unblocked_names_pass() {
        let (policy, mut inj) = setup();
        let pkt = query_packet("bbc.com", QType::A);
        assert!(inj.inspect(&policy, &pkt).is_none());
        assert_eq!(inj.injections, 0);
    }

    #[test]
    fn non_a_mx_queries_pass() {
        let (policy, mut inj) = setup();
        let pkt = query_packet("twitter.com", QType::Txt);
        assert!(inj.inspect(&policy, &pkt).is_none());
        let pkt = query_packet("twitter.com", QType::Ns);
        assert!(inj.inspect(&policy, &pkt).is_none());
    }

    #[test]
    fn responses_and_non_dns_traffic_pass() {
        let (policy, mut inj) = setup();
        // A response (even for a blocked name) is not re-injected.
        let q = DnsMessage::query(1, name("twitter.com"), QType::A);
        let mut resp = DnsMessage::response_to(&q, Rcode::NoError);
        resp.answers = vec![];
        let pkt = Packet::udp(RESOLVER, CLIENT, 53, 5555, resp.encode());
        assert!(inj.inspect(&policy, &pkt).is_none());
        // Non-53 UDP is ignored.
        let other = Packet::udp(CLIENT, RESOLVER, 5555, 5353, q.encode());
        assert!(inj.inspect(&policy, &other).is_none());
        // Garbage payload is ignored.
        let garbage = Packet::udp(CLIENT, RESOLVER, 5555, 53, vec![0xff; 7]);
        assert!(inj.inspect(&policy, &garbage).is_none());
    }

    #[test]
    fn nxdomain_mode_forges_denials() {
        let policy = CensorPolicy::new()
            .block_domain(&name("twitter.com"))
            .with_dns_nxdomain();
        let mut inj = DnsInjector::new(&policy);
        let pkt = query_packet("twitter.com", QType::A);
        let (reply, _, _) = inj.inspect(&policy, &pkt).expect("injection");
        let msg = DnsMessage::decode(&reply.as_udp().expect("udp").payload).expect("dns");
        assert_eq!(msg.rcode, underradar_protocols::dns::Rcode::NxDomain);
        assert!(msg.answers.is_empty());
        assert_eq!(msg.id, 0x4242);
    }
}
