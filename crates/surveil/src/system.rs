//! The composed two-stage surveillance system and its simulator node.
//!
//! Pipeline per observed packet (the §2.1 ordering):
//!
//! 1. Flow **metadata** is recorded for everything (the NSA kept 30 days of
//!    connection metadata regardless of content decisions).
//! 2. The **MVR** classifies and discards valueless classes.
//! 3. Retained packets are stored as **content** (3 days) and run through
//!    the **signature engine**; alerts land in the 1-year alert store.
//! 4. The **analyst** triages alerts into investigations under capacity.
//!
//! The `alert_first` ablation swaps steps 2 and 3: the engine sees
//! everything before volume reduction. The paper's techniques evade the
//! default ordering; the ablation shows what a storage-unconstrained
//! adversary would catch.

use std::any::Any;
use std::net::Ipv4Addr;
use std::sync::Arc;

use underradar_ids::alert::Alert;
use underradar_ids::engine::{CompiledRuleset, DetectionEngine};
use underradar_ids::parser::{parse_ruleset, VarTable};
use underradar_ids::rule::Rule;
use underradar_ids::stream::ReassemblyConfig;
use underradar_netsim::addr::Cidr;
use underradar_netsim::node::{IfaceId, Node, NodeCtx};
use underradar_netsim::packet::Packet;
use underradar_netsim::telemetry::Tracer;
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::DnsName;

use crate::analyst::{Analyst, AnalystConfig, Investigation};
use crate::mvr::{Mvr, MvrDecision};
use crate::store::{ContentRecord, FlowRecord, StoreSet};

/// Configuration for the whole surveillance system.
#[derive(Debug)]
pub struct SurveillanceConfig {
    /// The compiled signature ruleset run over retained traffic, shared
    /// with every other system built from the same ruleset.
    pub rules: Arc<CompiledRuleset>,
    /// Ablation: run signatures before the MVR discards (default false —
    /// the storage-constrained ordering the paper exploits).
    pub alert_first: bool,
    /// Reassembly limits for the signature engine (flow-table capacity
    /// and per-direction buffering caps).
    pub reassembly: ReassemblyConfig,
}

impl SurveillanceConfig {
    /// A config with the given ruleset and paper-default stages.
    pub fn with_rules(rules: Vec<Rule>) -> SurveillanceConfig {
        Self::with_compiled(Arc::new(CompiledRuleset::new(rules)))
    }

    /// A config over an already compiled, shared ruleset and
    /// paper-default stages.
    pub fn with_compiled(rules: Arc<CompiledRuleset>) -> SurveillanceConfig {
        SurveillanceConfig {
            rules,
            alert_first: false,
            reassembly: ReassemblyConfig::default(),
        }
    }
}

/// Build the subscription-style surveillance ruleset used by the
/// experiments: user-focused rules that catch *overt* censorship
/// measurement behaviour.
///
/// `home_net` scopes "our users"; `watched_domains` and `keywords` mirror
/// the censor's policy (the surveillance side knows what is censored and
/// watches for citizens touching it); `collector` is a known measurement
/// platform endpoint (an OONI-style collector).
pub fn default_surveillance_rules(
    home_net: Cidr,
    watched_domains: &[DnsName],
    keywords: &[String],
    collector: Option<Ipv4Addr>,
) -> Vec<Rule> {
    let mut text = String::from("# surveillance ruleset: catch users probing censored content\n");
    let mut sid = 9_000_000u32;
    for name in watched_domains {
        sid += 1;
        let mut pattern = String::new();
        for label in name.labels() {
            pattern.push_str(&format!("|{:02x}|", label.len()));
            pattern.push_str(&String::from_utf8_lossy(label));
        }
        text.push_str(&format!(
            "alert udp $HOME any -> any 53 (msg:\"user queried censored domain {name}\"; content:\"{pattern}\"; nocase; sid:{sid}; classtype:censored-lookup;)\n"
        ));
    }
    for kw in keywords {
        sid += 1;
        text.push_str(&format!(
            "alert tcp $HOME any -> any any (msg:\"user sent censored keyword {kw}\"; flow:to_server; content:\"{kw}\"; nocase; sid:{sid}; classtype:censored-keyword;)\n"
        ));
    }
    if let Some(c) = collector {
        sid += 1;
        text.push_str(&format!(
            "alert tcp $HOME any -> {c}/32 any (msg:\"user contacted measurement collector\"; flags:S; sid:{sid}; classtype:measurement-platform;)\n"
        ));
    }
    // Generic reconnaissance visibility (fires only when scan traffic is
    // not already discarded by the MVR, i.e. in the alert-first ablation).
    sid += 1;
    text.push_str(&format!(
        "alert tcp $HOME any -> any any (msg:\"rapid SYN fanout\"; flags:S; threshold: type both, track by_src, count 100, seconds 60; sid:{sid}; classtype:recon;)\n"
    ));
    let mut vars = VarTable::new();
    vars.insert(
        "HOME".to_string(),
        underradar_ids::rule::AddrSpec::Net(home_net),
    );
    parse_ruleset(&text, &vars).expect("generated surveillance ruleset parses")
}

/// Running counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SurveillanceStats {
    /// Packets observed.
    pub observed: u64,
    /// Packets retained past the MVR.
    pub retained: u64,
    /// Packets discarded by the MVR.
    pub discarded: u64,
    /// Alerts raised.
    pub alerts: u64,
}

/// The two-stage surveillance system (pure; drive it with packets).
pub struct SurveillanceSystem {
    mvr: Mvr,
    engine: DetectionEngine,
    stores: StoreSet,
    analyst: Analyst,
    alert_first: bool,
    stats: SurveillanceStats,
}

impl SurveillanceSystem {
    /// Build from a config with the paper's NSA-style retention stores
    /// (3 d content / 30 d metadata / 1 y alerts) and the default analyst.
    pub fn new(config: SurveillanceConfig) -> SurveillanceSystem {
        SurveillanceSystem {
            mvr: Mvr::new(),
            engine: DetectionEngine::from_compiled(config.rules, config.reassembly),
            stores: StoreSet::paper_defaults(),
            analyst: Analyst::new(AnalystConfig::default()),
            alert_first: config.alert_first,
            stats: SurveillanceStats::default(),
        }
    }

    /// Attach a flight-recorder trace to the pipeline stages: MVR
    /// retain/discard decisions (stage `mvr`) and signature-engine rule
    /// matches (stage `engine`, including its reassembler's stream
    /// decisions).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mvr.set_tracer(tracer.clone());
        self.engine.set_tracer(tracer);
    }

    /// Forget everything observed — MVR state, the engine's flows and
    /// alert log, the stores and the counters — and detach the tracers,
    /// as a new system with the same config. The analyst keeps no state
    /// of its own: it triages the alert log.
    pub fn reset(&mut self) {
        self.mvr.reset();
        self.engine.reset();
        self.stores.clear();
        self.stats = SurveillanceStats::default();
    }

    /// Process one observed packet through the pipeline.
    pub fn process(&mut self, now: SimTime, pkt: &Packet) -> (MvrDecision, Vec<Alert>) {
        self.stats.observed += 1;

        // Metadata for everything (CDR-style).
        self.stores.metadata.insert(
            now,
            FlowRecord {
                src: pkt.src,
                dst: pkt.dst,
                src_port: pkt.src_port().unwrap_or(0),
                dst_port: pkt.dst_port().unwrap_or(0),
                protocol: pkt.body.protocol().number(),
                bytes: pkt.wire_len() as u64,
                packets: 1,
            },
            pkt.wire_len() as u64,
        );

        let mut alerts = Vec::new();
        if self.alert_first {
            alerts = self.engine.process(now, pkt);
        }

        let decision = self.mvr.process(now, pkt);
        if decision.retained() {
            self.stats.retained += 1;
            self.stores.content.insert(
                now,
                ContentRecord {
                    src: pkt.src,
                    dst: pkt.dst,
                    bytes: pkt.wire_len(),
                },
                pkt.wire_len() as u64,
            );
            if !self.alert_first {
                alerts = self.engine.process(now, pkt);
            }
        } else {
            self.stats.discarded += 1;
        }

        for a in &alerts {
            self.stores.alerts.insert(now, a.to_string(), 0);
        }
        self.stats.alerts += alerts.len() as u64;
        (decision, alerts)
    }

    /// Counters.
    pub fn stats(&self) -> SurveillanceStats {
        self.stats
    }

    /// The MVR stage (for volume accounting).
    pub fn mvr(&self) -> &Mvr {
        &self.mvr
    }

    /// The detection engine (for its alert log).
    pub fn engine(&self) -> &DetectionEngine {
        &self.engine
    }

    /// The retention stores.
    pub fn stores(&self) -> &StoreSet {
        &self.stores
    }

    /// Analyst triage over all alerts raised so far.
    pub fn triage(&self) -> Vec<Investigation> {
        self.analyst.triage(self.engine.log().all())
    }

    /// Number of alerts attributed to `src` — the evasion metric: a
    /// measurement evades if this stays zero (§3.2.1: "successful if it can
    /// detect blocking without triggering the MVR to log its traffic").
    pub fn alerts_for(&self, src: Ipv4Addr) -> usize {
        self.engine.log().by_src(src).count()
    }

    /// Whether the analyst would pursue `src`.
    pub fn is_pursued(&self, src: Ipv4Addr) -> bool {
        self.analyst.is_pursued(self.engine.log().all(), src)
    }

    /// Whether `src` is attributed at all.
    pub fn is_attributed(&self, src: Ipv4Addr) -> bool {
        self.analyst.is_attributed(self.engine.log().all(), src)
    }

    /// Mirror the whole pipeline's state into `tel`: pipeline counters
    /// (`surveil.*`), per-class MVR volumes, per-tier store accounting,
    /// the retained-traffic IDS engine (`ids.engine.*`), and analyst
    /// triage (investigations, pursuits, pursuit cost in alerts reviewed).
    /// Idempotent; call at the end of a run.
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let s = self.stats;
        tel.set_counter("surveil.observed", s.observed);
        tel.set_counter("surveil.retained", s.retained);
        tel.set_counter("surveil.discarded", s.discarded);
        tel.set_counter("surveil.alerts", s.alerts);
        self.mvr.export_telemetry(tel);
        self.stores.export_telemetry(tel);
        self.engine.export_telemetry(tel, "ids.engine");
        let triage = self.triage();
        let pursued = triage.iter().filter(|i| i.pursued).count();
        // Pursuit cost: alerts an analyst must review to work the pursued
        // investigations (the §2.1 "expensive to trigger" quantity).
        let pursuit_cost: u64 = triage
            .iter()
            .filter(|i| i.pursued)
            .map(|i| i.alert_count)
            .sum();
        tel.set_gauge("surveil.analyst.investigations", triage.len() as i64);
        tel.set_gauge("surveil.analyst.pursued", pursued as i64);
        tel.set_gauge("surveil.analyst.pursuit_cost_alerts", pursuit_cost as i64);
    }
}

/// Passive simulator node wrapping a [`SurveillanceSystem`]; attach its
/// interface 0 to a switch tap.
pub struct SurveillanceNode {
    name: String,
    system: SurveillanceSystem,
}

impl SurveillanceNode {
    /// Build from a config.
    pub fn new(name: &str, config: SurveillanceConfig) -> SurveillanceNode {
        SurveillanceNode {
            name: name.to_string(),
            system: SurveillanceSystem::new(config),
        }
    }

    /// The inner system.
    pub fn system(&self) -> &SurveillanceSystem {
        &self.system
    }

    /// Attach a flight-recorder trace to the inner system's stages.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.system.set_tracer(tracer);
    }
}

impl Node for SurveillanceNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {
        self.system.reset();
    }

    fn receive(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, packet: Packet) {
        let _ = self.system.process(ctx.now(), &packet);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::wire::tcp::TcpFlags;
    use underradar_protocols::dns::{DnsMessage, QType};

    const HOME: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const OUT: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn home_net() -> Cidr {
        Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)
    }

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).expect("name")
    }

    fn system(alert_first: bool) -> SurveillanceSystem {
        let rules = default_surveillance_rules(
            home_net(),
            &[name("twitter.com"), name("youtube.com")],
            &["falun".to_string()],
            Some(Ipv4Addr::new(198, 51, 100, 99)),
        );
        let mut cfg = SurveillanceConfig::with_rules(rules);
        cfg.alert_first = alert_first;
        SurveillanceSystem::new(cfg)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + underradar_netsim::time::SimDuration::from_secs(secs)
    }

    #[test]
    fn overt_dns_lookup_is_caught_and_attributed() {
        let mut s = system(false);
        let q = DnsMessage::query(1, name("twitter.com"), QType::A);
        let pkt = Packet::udp(HOME, OUT, 5555, 53, q.encode());
        let (decision, alerts) = s.process(t(0), &pkt);
        assert!(
            decision.retained(),
            "a lone DNS query is ordinary traffic — retained"
        );
        assert_eq!(alerts.len(), 1, "and it trips the censored-lookup rule");
        assert_eq!(s.alerts_for(HOME), 1);
        // Second offense makes the user attributable (min_alerts = 2).
        let q2 = DnsMessage::query(2, name("youtube.com"), QType::A);
        let pkt2 = Packet::udp(HOME, OUT, 5556, 53, q2.encode());
        s.process(t(1), &pkt2);
        assert!(s.is_attributed(HOME));
        assert!(s.is_pursued(HOME), "only suspect, so within capacity");
    }

    #[test]
    fn overt_keyword_request_is_caught() {
        let mut s = system(false);
        let pkt = Packet::tcp(
            HOME,
            OUT,
            40000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET /falun".to_vec(),
        );
        let (_, alerts) = s.process(t(0), &pkt);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].classtype.as_deref(), Some("censored-keyword"));
    }

    #[test]
    fn scan_traffic_discarded_before_rules_default_ordering() {
        let mut s = system(false);
        // 120 SYNs: enough for both the classifier (scan at 15 targets) and
        // the surveillance recon rule (100 SYNs) — but the MVR discards the
        // class first, so the rule never sees packets 15..
        let mut alert_count = 0;
        for port in 0..120u16 {
            let syn = Packet::tcp(HOME, OUT, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            let (_, alerts) = s.process(t(0), &syn);
            alert_count += alerts.len();
        }
        assert_eq!(alert_count, 0, "scan evades: discarded before signatures");
        assert!(s.stats().discarded > 100);
        assert_eq!(s.alerts_for(HOME), 0);
    }

    #[test]
    fn alert_first_ablation_catches_the_scan() {
        let mut s = system(true);
        let mut alert_count = 0;
        for port in 0..120u16 {
            let syn = Packet::tcp(HOME, OUT, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            let (_, alerts) = s.process(t(0), &syn);
            alert_count += alerts.len();
        }
        assert_eq!(
            alert_count, 1,
            "recon threshold fires when rules run before MVR"
        );
    }

    #[test]
    fn collector_contact_is_flagged() {
        let mut s = system(false);
        let syn = Packet::tcp(
            HOME,
            Ipv4Addr::new(198, 51, 100, 99),
            40000,
            443,
            0,
            0,
            TcpFlags::syn(),
            vec![],
        );
        let (_, alerts) = s.process(t(0), &syn);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].classtype.as_deref(), Some("measurement-platform"));
    }

    #[test]
    fn metadata_recorded_even_for_discarded_traffic() {
        let mut s = system(false);
        for port in 0..30u16 {
            let syn = Packet::tcp(HOME, OUT, 44000, 1000 + port, 0, 0, TcpFlags::syn(), vec![]);
            s.process(t(0), &syn);
        }
        let meta = s.stores().metadata.total_inserted();
        assert_eq!(meta, 30, "CDR-style metadata for everything");
        let content = s.stores().content.total_inserted();
        assert!(content < 30, "content only for retained packets");
    }

    #[test]
    fn outside_home_net_is_not_alerted() {
        let mut s = system(false);
        let foreign = Ipv4Addr::new(172, 16, 0, 9);
        let q = DnsMessage::query(1, name("twitter.com"), QType::A);
        let pkt = Packet::udp(foreign, OUT, 5555, 53, q.encode());
        let (_, alerts) = s.process(t(0), &pkt);
        assert!(alerts.is_empty(), "surveillance tracks its own users");
    }

    #[test]
    fn telemetry_export_covers_pipeline_and_is_idempotent() {
        use underradar_telemetry::Telemetry;
        let mut s = system(false);
        let q = DnsMessage::query(1, name("twitter.com"), QType::A);
        let pkt = Packet::udp(HOME, OUT, 5555, 53, q.encode());
        s.process(t(0), &pkt);
        let q2 = DnsMessage::query(2, name("youtube.com"), QType::A);
        let pkt2 = Packet::udp(HOME, OUT, 5556, 53, q2.encode());
        s.process(t(1), &pkt2);
        let tel = Telemetry::enabled();
        s.export_telemetry(&tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("surveil.observed"), 2);
        assert_eq!(snap.counter("surveil.mvr.dns.packets"), 2);
        assert_eq!(snap.counter("surveil.store.metadata.inserted"), 2);
        assert_eq!(snap.counter("ids.engine.packets"), 2);
        assert_eq!(snap.gauge("surveil.analyst.investigations"), 1);
        assert_eq!(snap.gauge("surveil.analyst.pursued"), 1);
        assert_eq!(snap.gauge("surveil.analyst.pursuit_cost_alerts"), 2);
        // Re-export changes nothing (absolute totals).
        s.export_telemetry(&tel);
        assert_eq!(tel.snapshot(), snap);
    }

    #[test]
    fn node_wrapper_feeds_system() {
        use underradar_netsim::{LinkConfig, Simulator, HOST_IFACE};
        let mut sim = Simulator::new(77);
        let node = sim.add_node(Box::new(SurveillanceNode::new(
            "mvr",
            SurveillanceConfig::with_rules(vec![]),
        )));
        let src_node = sim.add_node(Box::new(underradar_netsim::Host::new("h", HOME)));
        sim.wire(
            src_node,
            HOST_IFACE,
            node,
            IfaceId(0),
            LinkConfig::default(),
        )
        .expect("wire");
        let pkt = Packet::tcp(HOME, OUT, 1, 80, 0, 0, TcpFlags::syn(), vec![]);
        sim.send_from(src_node, HOST_IFACE, pkt, SimTime::ZERO)
            .expect("send");
        sim.run_for(underradar_netsim::SimDuration::from_secs(1))
            .expect("run");
        assert_eq!(
            sim.node_ref::<SurveillanceNode>(node)
                .expect("n")
                .system()
                .stats()
                .observed,
            1
        );
    }
}
