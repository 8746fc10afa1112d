//! Behavioural traffic classification for the MVR stage.
//!
//! The classifier is deliberately *population-level*: it asks "what kind of
//! sender behaves like this?" using per-source sliding windows, exactly the
//! cheap first-pass filtering a volume-constrained collector must do. It is
//! not a ground-truth oracle — the interesting cases are the measurements
//! that get classified as malware traffic *on purpose*.

use std::fmt;
use std::net::Ipv4Addr;
use underradar_netsim::hash::{FxHashMap, FxHashSet};

use underradar_netsim::packet::{Packet, PacketBody};
use underradar_netsim::time::{SimDuration, SimTime};

/// The classes the MVR sorts traffic into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Port/host scanning (nmap-style SYN probing).
    Scan,
    /// Bulk unsolicited email behaviour.
    Spam,
    /// One source of a (distributed) denial-of-service flood.
    DdosSource,
    /// Peer-to-peer bulk transfer.
    P2p,
    /// DNS lookups.
    Dns,
    /// Ordinary web browsing.
    Web,
    /// Ordinary mail delivery (low volume).
    Email,
    /// ICMP (ping/traceroute noise).
    Icmp,
    /// Anything else.
    Other,
}

impl TrafficClass {
    /// Number of classes (array-accounting dimension).
    pub const COUNT: usize = 9;

    /// Every class, in discriminant order ([`TrafficClass::index`] order).
    pub const ALL: [TrafficClass; TrafficClass::COUNT] = [
        TrafficClass::Scan,
        TrafficClass::Spam,
        TrafficClass::DdosSource,
        TrafficClass::P2p,
        TrafficClass::Dns,
        TrafficClass::Web,
        TrafficClass::Email,
        TrafficClass::Icmp,
        TrafficClass::Other,
    ];

    /// Dense discriminant index in `0..COUNT`, for direct array accounting
    /// instead of linear scans over a class list.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Scan => "scan",
            TrafficClass::Spam => "spam",
            TrafficClass::DdosSource => "ddos",
            TrafficClass::P2p => "p2p",
            TrafficClass::Dns => "dns",
            TrafficClass::Web => "web",
            TrafficClass::Email => "email",
            TrafficClass::Icmp => "icmp",
            TrafficClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// Sliding window length of the behavioural detectors.
const WINDOW: SimDuration = SimDuration::from_secs(60);
/// Distinct (dst, port) SYN targets within the window that make a source a
/// scanner.
const SCAN_TARGETS: usize = 15;
/// Distinct SMTP destinations within the window that make a source a
/// spammer.
const SPAM_FANOUT: usize = 3;
/// Requests to one (dst, port) within the window that make a source a
/// DDoS participant.
const DDOS_RATE: usize = 50;

#[derive(Debug, Default)]
struct SourceState {
    window_start: SimTime,
    syn_targets: FxHashSet<(Ipv4Addr, u16)>,
    smtp_dsts: FxHashSet<Ipv4Addr>,
    per_target_hits: FxHashMap<(Ipv4Addr, u16), usize>,
    /// Sticky labels: once a sender crosses a behavioural threshold it
    /// stays in that class for the rest of the window.
    is_scanner: bool,
    is_spammer: bool,
    is_ddos: bool,
}

impl SourceState {
    /// Roll the sliding window: clear behavioural state in place so the
    /// sets keep their allocations across window resets (a chatty source
    /// re-fills them every window).
    fn reset(&mut self, now: SimTime) {
        self.window_start = now;
        self.syn_targets.clear();
        self.smtp_dsts.clear();
        self.per_target_hits.clear();
        self.is_scanner = false;
        self.is_spammer = false;
        self.is_ddos = false;
    }
}

/// The stateful classifier.
///
/// Per-source state follows the arena design used for flow bookkeeping:
/// the hash table maps a source to a dense `u32` slot and the heavy
/// window state lives in a `Vec` arena — table growth rehashes 4-byte
/// indices instead of moving three hash sets per source, and slots stay
/// stable for the classifier's lifetime.
#[derive(Debug, Default)]
pub struct Classifier {
    index: FxHashMap<Ipv4Addr, u32>,
    sources: Vec<SourceState>,
}

impl Classifier {
    /// An empty classifier (no source seen yet).
    pub fn new() -> Classifier {
        Classifier::default()
    }

    /// Forget every source, as a new classifier.
    pub fn clear(&mut self) {
        self.index.clear();
        self.sources.clear();
    }

    /// Classify one packet (updates per-source behavioural state).
    pub fn classify(&mut self, now: SimTime, pkt: &Packet) -> TrafficClass {
        let slot = match self.index.get(&pkt.src) {
            Some(&i) => i as usize,
            None => {
                let i = self.sources.len();
                self.index.insert(pkt.src, i as u32);
                self.sources.push(SourceState::default());
                i
            }
        };
        let state = &mut self.sources[slot];
        if now.saturating_since(state.window_start) > WINDOW {
            state.reset(now);
        }

        match &pkt.body {
            PacketBody::Raw { .. } => TrafficClass::P2p,
            PacketBody::Icmp(_) => TrafficClass::Icmp,
            PacketBody::Udp(u) => {
                if u.dst_port == 53 || u.src_port == 53 {
                    // A spam-labeled source's lookups are part of the
                    // campaign: "if spammers send traffic to every domain
                    // in the .com zone, then they are bound to send traffic
                    // to censored domains; ... the MVR will discard the
                    // traffic" (§3.1).
                    if state.is_spammer {
                        return TrafficClass::Spam;
                    }
                    return TrafficClass::Dns;
                }
                TrafficClass::Other
            }
            PacketBody::Tcp(t) => {
                // Behavioural updates.
                if t.flags.has_syn() && !t.flags.has_ack() {
                    state.syn_targets.insert((pkt.dst, t.dst_port));
                    if state.syn_targets.len() >= SCAN_TARGETS {
                        state.is_scanner = true;
                    }
                }
                if t.dst_port == 25 {
                    state.smtp_dsts.insert(pkt.dst);
                    if state.smtp_dsts.len() >= SPAM_FANOUT {
                        state.is_spammer = true;
                    }
                }
                if !t.payload.is_empty() {
                    let hits = state
                        .per_target_hits
                        .entry((pkt.dst, t.dst_port))
                        .or_insert(0);
                    *hits += 1;
                    if *hits >= DDOS_RATE {
                        state.is_ddos = true;
                    }
                }

                // Sticky behavioural classes first (most specific wins).
                if state.is_scanner && t.flags.has_syn() && !t.flags.has_ack() {
                    return TrafficClass::Scan;
                }
                if state.is_ddos
                    && state
                        .per_target_hits
                        .get(&(pkt.dst, t.dst_port))
                        .map(|h| *h >= DDOS_RATE)
                        .unwrap_or(false)
                {
                    return TrafficClass::DdosSource;
                }
                if t.dst_port == 25 || t.src_port == 25 {
                    return if state.is_spammer {
                        TrafficClass::Spam
                    } else {
                        TrafficClass::Email
                    };
                }
                if t.dst_port == 80 || t.dst_port == 443 || t.src_port == 80 || t.src_port == 443 {
                    return TrafficClass::Web;
                }
                // High-port to high-port bulk flows look like P2P.
                if t.src_port >= 1024 && t.dst_port >= 1024 && t.payload.len() >= 512 {
                    return TrafficClass::P2p;
                }
                TrafficClass::Other
            }
        }
    }

    /// Whether a source currently carries a behavioural (malware-ish)
    /// label.
    pub fn source_labels(&self, src: Ipv4Addr) -> (bool, bool, bool) {
        self.index
            .get(&src)
            .map(|&i| &self.sources[i as usize])
            .map(|s| (s.is_scanner, s.is_spammer, s.is_ddos))
            .unwrap_or((false, false, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::wire::tcp::TcpFlags;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 9);
    const DST: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn classifier() -> Classifier {
        Classifier::new()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn web_email_dns_icmp_basics() {
        let mut c = classifier();
        let web = Packet::tcp(
            SRC,
            DST,
            40000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET /".to_vec(),
        );
        assert_eq!(c.classify(t(0), &web), TrafficClass::Web);
        let mail = Packet::tcp(
            SRC,
            DST,
            40000,
            25,
            0,
            0,
            TcpFlags::psh_ack(),
            b"HELO".to_vec(),
        );
        assert_eq!(c.classify(t(0), &mail), TrafficClass::Email);
        let dns = Packet::udp(SRC, DST, 5353, 53, b"q".to_vec());
        assert_eq!(c.classify(t(0), &dns), TrafficClass::Dns);
        let ping = Packet::icmp(
            SRC,
            DST,
            underradar_netsim::wire::icmp::IcmpKind::EchoRequest { ident: 0, seq: 0 },
            vec![],
        );
        assert_eq!(c.classify(t(0), &ping), TrafficClass::Icmp);
    }

    #[test]
    fn syn_fanout_becomes_scan() {
        let mut c = classifier();
        let mut classes = Vec::new();
        for port in 0..30u16 {
            let syn = Packet::tcp(SRC, DST, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            classes.push(c.classify(t(0), &syn));
        }
        assert!(
            classes[..10].iter().all(|&cl| cl != TrafficClass::Scan),
            "warm-up not scan yet"
        );
        assert!(
            classes[20..].iter().all(|&cl| cl == TrafficClass::Scan),
            "sticky scan label"
        );
        assert!(c.source_labels(SRC).0);
    }

    #[test]
    fn smtp_fanout_becomes_spam() {
        let mut c = classifier();
        for i in 0..3u8 {
            let mx = Ipv4Addr::new(198, 51, 100, i);
            let pkt = Packet::tcp(
                SRC,
                mx,
                44000,
                25,
                0,
                0,
                TcpFlags::psh_ack(),
                b"MAIL".to_vec(),
            );
            c.classify(t(0), &pkt);
        }
        let pkt = Packet::tcp(
            SRC,
            Ipv4Addr::new(198, 51, 100, 9),
            44000,
            25,
            0,
            0,
            TcpFlags::psh_ack(),
            b"MAIL".to_vec(),
        );
        assert_eq!(c.classify(t(0), &pkt), TrafficClass::Spam);
        assert!(c.source_labels(SRC).1);
    }

    #[test]
    fn repeated_requests_become_ddos() {
        let mut c = classifier();
        let mut last = TrafficClass::Other;
        for _ in 0..60 {
            let pkt = Packet::tcp(
                SRC,
                DST,
                44000,
                80,
                0,
                0,
                TcpFlags::psh_ack(),
                b"GET /victim".to_vec(),
            );
            last = c.classify(t(1), &pkt);
        }
        assert_eq!(last, TrafficClass::DdosSource);
        assert!(c.source_labels(SRC).2);
    }

    #[test]
    fn window_expiry_resets_labels() {
        let mut c = classifier();
        for port in 0..20u16 {
            let syn = Packet::tcp(SRC, DST, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            c.classify(t(0), &syn);
        }
        assert!(c.source_labels(SRC).0);
        // Two minutes later the window rolled.
        let syn = Packet::tcp(SRC, DST, 44000, 5000, 0, 0, TcpFlags::syn(), vec![]);
        assert_ne!(c.classify(t(180), &syn), TrafficClass::Scan);
        assert!(!c.source_labels(SRC).0);
    }

    #[test]
    fn p2p_heuristics() {
        let mut c = classifier();
        let raw = Packet {
            src: SRC,
            dst: DST,
            ttl: 64,
            ident: 0,
            body: underradar_netsim::packet::PacketBody::Raw {
                protocol: 99,
                payload: vec![0; 900],
            },
        };
        assert_eq!(c.classify(t(0), &raw), TrafficClass::P2p);
        let bulk = Packet::tcp(
            SRC,
            DST,
            51413,
            51413,
            0,
            0,
            TcpFlags::psh_ack(),
            vec![0; 1200],
        );
        assert_eq!(c.classify(t(0), &bulk), TrafficClass::P2p);
        let small = Packet::tcp(
            SRC,
            DST,
            51413,
            51413,
            0,
            0,
            TcpFlags::psh_ack(),
            vec![0; 10],
        );
        assert_eq!(c.classify(t(0), &small), TrafficClass::Other);
    }

    #[test]
    fn sources_tracked_independently() {
        let mut c = classifier();
        let other_src = Ipv4Addr::new(10, 0, 1, 77);
        for port in 0..20u16 {
            let syn = Packet::tcp(SRC, DST, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            c.classify(t(0), &syn);
        }
        let innocent = Packet::tcp(other_src, DST, 44000, 6000, 0, 0, TcpFlags::syn(), vec![]);
        assert_ne!(c.classify(t(0), &innocent), TrafficClass::Scan);
    }
}
