//! Massive Volume Reduction — the surveillance system's first stage.
//!
//! Models the constraint at the heart of the paper's §2.1 argument: the
//! NSA could store only 7.5 % of the traffic it received and reduced
//! volume by ~30 % up front, "in part by throwing away all peer-to-peer
//! traffic". The MVR therefore:
//!
//! 1. classifies each packet behaviourally ([`crate::classify`]),
//! 2. discards whole classes as valueless (P2P, scan, spam, DDoS —
//!    high-volume, non-user-attributable noise),
//! 3. tracks how much of the remaining volume fits in the retention budget.
//!
//! The measurement techniques of §3 aim to be discarded at step 2.

use std::fmt::Write as _;

use underradar_netsim::flow::FlowTuple;
use underradar_netsim::hash::FxHashSet;
use underradar_netsim::packet::Packet;
use underradar_netsim::telemetry::{TraceRecord, Tracer};
use underradar_netsim::time::SimTime;

use crate::classify::{Classifier, TrafficClass};

/// What the MVR decided about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvrDecision {
    /// Discarded at stage 1; the analysis stage never sees it.
    Discard(TrafficClass),
    /// Retained for analysis.
    Retain(TrafficClass),
}

impl MvrDecision {
    /// The class assigned, either way.
    pub fn class(self) -> TrafficClass {
        match self {
            MvrDecision::Discard(c) | MvrDecision::Retain(c) => c,
        }
    }

    /// Whether the packet survived to analysis.
    pub fn retained(self) -> bool {
        matches!(self, MvrDecision::Retain(_))
    }
}

/// Fraction of observed bytes the collector can afford to retain (the
/// NSA's 2009 figure).
const RETENTION_BUDGET: f64 = 0.075;

/// Whether the MVR discards `class` wholesale.
fn discarded(class: TrafficClass) -> bool {
    matches!(
        class,
        TrafficClass::P2p | TrafficClass::Scan | TrafficClass::Spam | TrafficClass::DdosSource
    )
}

/// Per-class byte/packet accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassVolume {
    /// Packets seen.
    pub packets: u64,
    /// Bytes seen.
    pub bytes: u64,
    /// Packets retained.
    pub retained_packets: u64,
    /// Bytes retained.
    pub retained_bytes: u64,
}

/// The MVR stage.
///
/// Per-class accounting is indexed by [`TrafficClass::index`] — the
/// per-packet hot path is one array access, not a scan over the class
/// list.
#[derive(Debug, Default)]
pub struct Mvr {
    classifier: Classifier,
    volumes: [ClassVolume; TrafficClass::COUNT],
    tracer: Tracer,
    /// Dedup sets for trace records, one per class (indexed by
    /// [`TrafficClass::index`], like `volumes`): one record per
    /// (flow, class, verdict). Bounds trace volume under floods — a
    /// 10k-packet P2P burst is one decision, not 10k — while still
    /// recording the moment a flow's classification (and hence its
    /// retention fate) changes. Keying the set by (flow, verdict) and the
    /// array by class keeps the class out of the hashed key.
    traced: [FxHashSet<(FlowTuple, bool)>; TrafficClass::COUNT],
}

impl Mvr {
    /// Build an MVR stage.
    pub fn new() -> Mvr {
        Mvr::default()
    }

    /// Attach a flight-recorder trace (stage `mvr`): one retain/discard
    /// record per (flow, class, verdict), carrying the classifying traffic
    /// class.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Forget every source, volume and traced decision, and detach the
    /// tracer, as a new MVR.
    pub fn reset(&mut self) {
        self.classifier.clear();
        self.volumes = Default::default();
        self.tracer = Tracer::disabled();
        for traced in &mut self.traced {
            traced.clear();
        }
    }

    /// Process a packet through stage 1.
    pub fn process(&mut self, now: SimTime, pkt: &Packet) -> MvrDecision {
        let class = self.classifier.classify(now, pkt);
        let bytes = pkt.wire_len() as u64;
        let vol = &mut self.volumes[class.index()];
        vol.packets += 1;
        vol.bytes += bytes;
        let decision = if discarded(class) {
            MvrDecision::Discard(class)
        } else {
            vol.retained_packets += 1;
            vol.retained_bytes += bytes;
            MvrDecision::Retain(class)
        };
        if self.tracer.is_live() {
            self.trace_decision(now, pkt, decision);
        }
        decision
    }

    fn trace_decision(&mut self, now: SimTime, pkt: &Packet, decision: MvrDecision) {
        let flow = pkt.trace_flow();
        let class = decision.class();
        let key = (FlowTuple::of_packet(pkt), decision.retained());
        if !self.traced[class.index()].insert(key) {
            return;
        }
        self.tracer.record(TraceRecord {
            t_ns: now.as_nanos(),
            seq: 0,
            stage: "mvr",
            kind: if decision.retained() {
                "retain"
            } else {
                "discard"
            },
            flow: Some(flow),
            fields: vec![("class", class.to_string().into())],
        });
    }

    /// Per-class accounting, in [`TrafficClass::ALL`] order.
    pub fn volumes(&self) -> Vec<(TrafficClass, ClassVolume)> {
        TrafficClass::ALL
            .iter()
            .map(|&c| (c, self.volumes[c.index()]))
            .collect()
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> u64 {
        self.volumes.iter().map(|v| v.bytes).sum()
    }

    /// Total bytes retained.
    pub fn retained_bytes(&self) -> u64 {
        self.volumes.iter().map(|v| v.retained_bytes).sum()
    }

    /// The achieved retention fraction (retained / observed).
    pub fn retention_rate(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.retained_bytes() as f64 / total as f64
        }
    }

    /// Whether the achieved retention fits the 7.5 % budget — the
    /// check the storage-constraint experiment (E9) reports.
    pub fn within_budget(&self) -> bool {
        self.retention_rate() <= RETENTION_BUDGET
    }

    /// Access the classifier (e.g. for label queries).
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Mirror per-class MVR accounting into `tel` under
    /// `surveil.mvr.<class>.*`, plus overall retained/observed totals and
    /// the retention rate in parts-per-million (integer, deterministic).
    /// Idempotent; classes with no traffic are skipped.
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let mut name = underradar_telemetry::MetricName::default();
        for (class, v) in self.volumes() {
            if v.packets == 0 {
                continue;
            }
            name.stem(|s| {
                let _ = write!(s, "surveil.mvr.{class}");
            });
            tel.set_counter(name.leaf("packets"), v.packets);
            tel.set_counter(name.leaf("bytes"), v.bytes);
            tel.set_counter(name.leaf("retained_packets"), v.retained_packets);
            tel.set_counter(name.leaf("retained_bytes"), v.retained_bytes);
        }
        tel.set_counter("surveil.mvr.total_bytes", self.total_bytes());
        tel.set_counter("surveil.mvr.retained_bytes", self.retained_bytes());
        tel.set_gauge(
            "surveil.mvr.retention_ppm",
            (self.retention_rate() * 1e6).round() as i64,
        );
        tel.set_gauge("surveil.mvr.within_budget", i64::from(self.within_budget()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use underradar_netsim::wire::tcp::TcpFlags;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 9);
    const DST: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    #[test]
    fn scan_traffic_discarded_web_retained() {
        let mut mvr = Mvr::new();
        // Make the source a scanner.
        let mut scan_decisions = Vec::new();
        for port in 0..30u16 {
            let syn = Packet::tcp(SRC, DST, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            scan_decisions.push(mvr.process(SimTime::ZERO, &syn));
        }
        assert!(
            scan_decisions
                .iter()
                .skip(20)
                .all(|d| matches!(d, MvrDecision::Discard(TrafficClass::Scan))),
            "sticky scanners discarded"
        );
        let web = Packet::tcp(
            Ipv4Addr::new(10, 0, 1, 50),
            DST,
            40000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET /".to_vec(),
        );
        assert!(mvr.process(SimTime::ZERO, &web).retained());
    }

    #[test]
    fn p2p_always_discarded() {
        let mut mvr = Mvr::new();
        let raw = Packet {
            src: SRC,
            dst: DST,
            ttl: 64,
            ident: 0,
            body: underradar_netsim::packet::PacketBody::Raw {
                protocol: 99,
                payload: vec![0; 1400],
            },
        };
        let d = mvr.process(SimTime::ZERO, &raw);
        assert_eq!(d, MvrDecision::Discard(TrafficClass::P2p));
        assert_eq!(d.class(), TrafficClass::P2p);
        assert!(!d.retained());
    }

    #[test]
    fn accounting_sums() {
        let mut mvr = Mvr::new();
        let web = Packet::tcp(SRC, DST, 40000, 80, 0, 0, TcpFlags::psh_ack(), vec![0; 100]);
        let raw = Packet {
            src: SRC,
            dst: DST,
            ttl: 64,
            ident: 0,
            body: underradar_netsim::packet::PacketBody::Raw {
                protocol: 99,
                payload: vec![0; 300],
            },
        };
        mvr.process(SimTime::ZERO, &web);
        mvr.process(SimTime::ZERO, &raw);
        assert_eq!(
            mvr.total_bytes(),
            web.wire_len() as u64 + raw.wire_len() as u64
        );
        assert_eq!(mvr.retained_bytes(), web.wire_len() as u64);
        let rate = mvr.retention_rate();
        assert!(rate > 0.0 && rate < 1.0);
    }

    #[test]
    fn empty_mvr_rates() {
        let mvr = Mvr::new();
        assert_eq!(mvr.retention_rate(), 0.0);
        assert!(mvr.within_budget());
        assert_eq!(mvr.total_bytes(), 0);
    }
}
