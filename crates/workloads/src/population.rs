//! Background population traffic.
//!
//! Generates timestamped packets for an access network's ordinary
//! behaviour — web, DNS, mail, P2P — plus the Internet-wide scanning noise
//! that arrives from outside. Streams are fed to the surveillance system
//! (to exercise MVR volume accounting) and mixed with measurement traffic
//! (to check evasion against a realistic baseline, not silence).

use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;
use underradar_netsim::packet::{Packet, PacketBody};
use underradar_netsim::rng::SimRng;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::wire::tcp::TcpFlags;

use crate::zipf::Zipf;

/// A packet with its generation time.
#[derive(Debug, Clone)]
pub struct TimedPacket {
    /// When the packet crosses the monitored link.
    pub time: SimTime,
    /// The packet.
    pub packet: Packet,
}

/// Rates and shape of the population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of client hosts.
    pub clients: usize,
    /// The access network prefix the clients live in.
    pub client_prefix: Cidr,
    /// Length of the generated window.
    pub duration: SimDuration,
    /// Aggregate web requests per second across the population.
    pub web_rps: f64,
    /// Aggregate DNS queries per second.
    pub dns_rps: f64,
    /// Aggregate mail deliveries per second.
    pub email_rps: f64,
    /// Aggregate P2P packets per second.
    pub p2p_pps: f64,
    /// Background scan SYNs per second arriving from the Internet
    /// (Durumeric-style noise; sources are external).
    pub scan_pps: f64,
    /// Number of distinct web domains (Zipf popularity).
    pub domains: usize,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            clients: 200,
            client_prefix: Cidr::slash16(Ipv4Addr::new(10, 20, 0, 0)),
            duration: SimDuration::from_secs(60),
            web_rps: 40.0,
            dns_rps: 30.0,
            email_rps: 2.0,
            p2p_pps: 25.0,
            scan_pps: 10.0,
            domains: 500,
        }
    }
}

/// The generator.
pub struct PopulationTraffic;

impl PopulationTraffic {
    /// The server address for a domain rank (stable mapping into
    /// TEST-NET-3-adjacent space).
    pub fn domain_ip(rank: usize) -> Ipv4Addr {
        Ipv4Addr::new(93, 184, (rank / 250) as u8, (rank % 250) as u8 + 1)
    }

    /// The domain name string for a rank.
    pub fn domain_name(rank: usize) -> String {
        format!("site{rank}.example")
    }

    /// Mirror a generated stream into `tel` under
    /// `workloads.population.*`: packet/byte totals, a wire-size
    /// histogram, and a span over the generation window. Idempotent for
    /// the counters and the histogram; call once per stream (the span
    /// appends).
    pub fn export_telemetry(stream: &[TimedPacket], tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let bytes: u64 = stream.iter().map(|t| t.packet.wire_len() as u64).sum();
        tel.set_counter("workloads.population.packets", stream.len() as u64);
        tel.set_counter("workloads.population.bytes", bytes);
        let mut hist = underradar_telemetry::Histogram::new();
        for t in stream {
            hist.observe(t.packet.wire_len() as u64);
        }
        tel.set_histogram("workloads.population.pkt_bytes", &hist);
        if let (Some(first), Some(last)) = (stream.first(), stream.last()) {
            tel.record_span(
                "workloads.population",
                first.time.as_nanos(),
                last.time.as_nanos(),
            );
        }
        // Provenance: when the flight recorder is live, one workload-stage
        // record names the traffic that fed the pipeline, so a trial's
        // causal chain starts from what was generated, not mid-stream.
        let tracer = tel.tracer();
        if tracer.is_live() {
            tracer.record(underradar_telemetry::TraceRecord {
                t_ns: stream.first().map(|t| t.time.as_nanos()).unwrap_or(0),
                seq: 0,
                stage: "workload",
                kind: "population_generated",
                flow: None,
                fields: vec![
                    ("packets", (stream.len() as u64).into()),
                    ("bytes", bytes.into()),
                ],
            });
        }
    }

    /// Generate the population's packet stream, sorted by time.
    pub fn generate(config: &PopulationConfig, rng: &mut SimRng) -> Vec<TimedPacket> {
        let mut out = Vec::new();
        let zipf = Zipf::new(config.domains.max(1), 1.0);
        let horizon = config.duration.as_secs_f64();
        let client_at = |i: u64, cfg: &PopulationConfig| {
            cfg.client_prefix.nth(1 + i % cfg.clients.max(1) as u64)
        };

        // Web: request + response pair per event.
        Self::poisson_events(
            config.web_rps,
            horizon,
            rng,
            |t, rng| {
                let client = client_at(rng.next_u64(), config);
                let rank = zipf.sample(rng);
                let server = Self::domain_ip(rank);
                let sport = 32768 + (rng.next_u32() % 28000) as u16;
                let req = format!(
                    "GET /page{} HTTP/1.0\r\nHost: {}\r\n\r\n",
                    rng.next_u32() % 50,
                    Self::domain_name(rank)
                );
                vec![
                    TimedPacket {
                        time: t,
                        packet: Packet::tcp(
                            client,
                            server,
                            sport,
                            80,
                            1,
                            1,
                            TcpFlags::psh_ack(),
                            req.into_bytes(),
                        ),
                    },
                    TimedPacket {
                        time: t + SimDuration::from_millis(30),
                        packet: Packet::tcp(
                            server,
                            client,
                            80,
                            sport,
                            1,
                            1,
                            TcpFlags::psh_ack(),
                            vec![b'x'; 400 + (rng.next_u32() % 1000) as usize],
                        ),
                    },
                ]
            },
            &mut out,
        );

        // DNS: query + response.
        Self::poisson_events(
            config.dns_rps,
            horizon,
            rng,
            |t, rng| {
                let client = client_at(rng.next_u64(), config);
                let rank = zipf.sample(rng);
                let resolver = Ipv4Addr::new(10, 20, 0, 53);
                let sport = 32768 + (rng.next_u32() % 28000) as u16;
                // A compact fake DNS payload (name in wire form) is enough for
                // classification and rule matching.
                let name = Self::domain_name(rank);
                let mut payload = vec![0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
                for label in name.split('.') {
                    payload.push(label.len() as u8);
                    payload.extend_from_slice(label.as_bytes());
                }
                payload.extend_from_slice(&[0, 0, 1, 0, 1]);
                vec![
                    TimedPacket {
                        time: t,
                        packet: Packet::udp(client, resolver, sport, 53, payload.clone()),
                    },
                    TimedPacket {
                        time: t + SimDuration::from_millis(10),
                        packet: Packet::udp(resolver, client, 53, sport, payload),
                    },
                ]
            },
            &mut out,
        );

        // Email: a couple of SMTP data packets to the local MX.
        Self::poisson_events(
            config.email_rps,
            horizon,
            rng,
            |t, rng| {
                let client = client_at(rng.next_u64(), config);
                let mx = Ipv4Addr::new(10, 20, 0, 25);
                let sport = 32768 + (rng.next_u32() % 28000) as u16;
                vec![TimedPacket {
                    time: t,
                    packet: Packet::tcp(
                        client,
                        mx,
                        sport,
                        25,
                        1,
                        1,
                        TcpFlags::psh_ack(),
                        b"MAIL FROM:<user@campus.example>\r\n".to_vec(),
                    ),
                }]
            },
            &mut out,
        );

        // P2P: raw bulk packets between a stable subset of clients and the
        // outside world.
        Self::poisson_events(
            config.p2p_pps,
            horizon,
            rng,
            |t, rng| {
                let client = client_at(rng.next_u64() % 16, config); // a few heavy hitters
                let peer = Ipv4Addr::new(
                    100 + (rng.next_u32() % 100) as u8,
                    rng.next_u32() as u8,
                    rng.next_u32() as u8,
                    1 + (rng.next_u32() % 250) as u8,
                );
                vec![TimedPacket {
                    time: t,
                    packet: Packet {
                        src: client,
                        dst: peer,
                        ttl: 64,
                        ident: 0,
                        body: PacketBody::Raw {
                            protocol: 99,
                            payload: vec![0u8; 700 + (rng.next_u32() % 600) as usize],
                        },
                    },
                }]
            },
            &mut out,
        );

        // Background scanning from outside (high source fanout, SYNs).
        Self::poisson_events(
            config.scan_pps,
            horizon,
            rng,
            |t, rng| {
                // Scanner sources come from public space well outside the
                // access prefix (first octet 120..209).
                let scanner = Ipv4Addr::new(
                    120 + (rng.next_u32() % 90) as u8,
                    rng.next_u32() as u8,
                    rng.next_u32() as u8,
                    1 + (rng.next_u32() % 250) as u8,
                );
                let victim = config.client_prefix.nth(rng.next_u64() % 65_000);
                let port = [22u16, 23, 80, 443, 445, 3389][(rng.next_u32() % 6) as usize];
                vec![TimedPacket {
                    time: t,
                    packet: Packet::tcp(
                        scanner,
                        victim,
                        54321,
                        port,
                        0,
                        0,
                        TcpFlags::syn(),
                        vec![],
                    ),
                }]
            },
            &mut out,
        );

        out.sort_by_key(|tp| tp.time);
        out
    }

    fn poisson_events<F>(
        rate: f64,
        horizon_secs: f64,
        rng: &mut SimRng,
        mut make: F,
        out: &mut Vec<TimedPacket>,
    ) where
        F: FnMut(SimTime, &mut SimRng) -> Vec<TimedPacket>,
    {
        if rate <= 0.0 {
            return;
        }
        let mut t = 0.0f64;
        loop {
            t += rng.exp(1.0 / rate);
            if t >= horizon_secs {
                break;
            }
            let at = SimTime::from_nanos((t * 1e9) as u64);
            out.extend(make(at, rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(seed: u64) -> Vec<TimedPacket> {
        let mut rng = SimRng::seed_from_u64(seed);
        PopulationTraffic::generate(&PopulationConfig::default(), &mut rng)
    }

    #[test]
    fn stream_is_time_sorted_and_bounded() {
        let stream = generate(1);
        assert!(!stream.is_empty());
        for w in stream.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        let horizon = PopulationConfig::default().duration + SimDuration::from_millis(40);
        assert!(stream.iter().all(|tp| tp.time < SimTime::ZERO + horizon));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let stream = generate(2);
        let cfg = PopulationConfig::default();
        let web = stream
            .iter()
            .filter(|tp| tp.packet.dst_port() == Some(80))
            .count() as f64;
        let expected = cfg.web_rps * cfg.duration.as_secs_f64();
        assert!(
            (web - expected).abs() < expected * 0.35,
            "web {web} vs {expected}"
        );
        let dns_q = stream
            .iter()
            .filter(|tp| tp.packet.dst_port() == Some(53))
            .count();
        assert!(dns_q > 0);
    }

    #[test]
    fn traffic_mix_has_all_classes() {
        let stream = generate(3);
        assert!(
            stream.iter().any(|tp| tp.packet.dst_port() == Some(80)),
            "web"
        );
        assert!(
            stream.iter().any(|tp| tp.packet.dst_port() == Some(53)),
            "dns"
        );
        assert!(
            stream.iter().any(|tp| tp.packet.dst_port() == Some(25)),
            "email"
        );
        assert!(
            stream
                .iter()
                .any(|tp| matches!(tp.packet.body, PacketBody::Raw { .. })),
            "p2p"
        );
        assert!(
            stream.iter().any(|tp| tp
                .packet
                .as_tcp()
                .map(|t| t.flags.has_syn() && !t.flags.has_ack())
                .unwrap_or(false)),
            "scanning"
        );
    }

    #[test]
    fn clients_live_in_prefix_and_scanners_outside() {
        let stream = generate(4);
        let cfg = PopulationConfig::default();
        for tp in &stream {
            // Web *requests* (scanner SYNs to port 80 carry no payload).
            if tp.packet.dst_port() == Some(80)
                && tp
                    .packet
                    .as_tcp()
                    .map(|t| !t.payload.is_empty())
                    .unwrap_or(false)
            {
                assert!(
                    cfg.client_prefix.contains(tp.packet.src),
                    "web client in prefix"
                );
            }
            if let Some(t) = tp.packet.as_tcp() {
                if t.flags.has_syn() && !t.flags.has_ack() && t.src_port == 54321 {
                    assert!(
                        !cfg.client_prefix.contains(tp.packet.src),
                        "scanner outside"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(9);
        let b = generate(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.packet, y.packet);
        }
    }

    #[test]
    fn export_telemetry_records_workload_provenance_when_traced() {
        let stream = generate(5);
        let tel = underradar_telemetry::Telemetry::with_trace(16);
        PopulationTraffic::export_telemetry(&stream, &tel);
        let records = tel.tracer().records();
        assert_eq!(records.len(), 1, "one provenance record per stream");
        let r = &records[0];
        assert_eq!((r.stage, r.kind), ("workload", "population_generated"));
        assert_eq!(r.field_u64("packets"), Some(stream.len() as u64));
        assert_eq!(r.t_ns, stream[0].time.as_nanos());
        // Untraced telemetry records nothing and costs one branch.
        let plain = underradar_telemetry::Telemetry::enabled();
        PopulationTraffic::export_telemetry(&stream, &plain);
        assert!(plain.tracer().records().is_empty());
    }

    #[test]
    fn zero_rates_generate_nothing() {
        let cfg = PopulationConfig {
            web_rps: 0.0,
            dns_rps: 0.0,
            email_rps: 0.0,
            p2p_pps: 0.0,
            scan_pps: 0.0,
            ..PopulationConfig::default()
        };
        let mut rng = SimRng::seed_from_u64(1);
        assert!(PopulationTraffic::generate(&cfg, &mut rng).is_empty());
    }

    #[test]
    fn domain_mapping_is_stable() {
        assert_eq!(
            PopulationTraffic::domain_ip(0),
            PopulationTraffic::domain_ip(0)
        );
        assert_ne!(
            PopulationTraffic::domain_ip(0),
            PopulationTraffic::domain_ip(1)
        );
        assert_eq!(PopulationTraffic::domain_name(7), "site7.example");
    }

    #[test]
    fn empty_stream_still_exports_its_size_histogram() {
        let tel = underradar_telemetry::Telemetry::enabled();
        PopulationTraffic::export_telemetry(&[], &tel);
        let snap = tel.snapshot();
        let sizes = snap.histogram("workloads.population.pkt_bytes");
        assert_eq!(sizes.map(|h| h.count()), Some(0));
        assert!(snap.spans.is_empty(), "no window, no span");
    }
}
