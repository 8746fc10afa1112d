//! Method #1 — scanning traffic (§3.1).
//!
//! "We can stealthily measure TCP/IP censorship by sending scanning and
//! exploit traffic to potentially censored services ... we start an nmap
//! SYN scan to the most commonly open 1,000 TCP ports ... We conclude that
//! censorship occurs if either (1) the sender does not receive a SYN/ACK;
//! or (2) the sender receives a RST."
//!
//! Implementation: raw SYNs paced across the port list; replies observed
//! through the raw hook. A SYN/ACK marks the port open (the host stack's
//! kernel-style RST then tears the half-open connection down, exactly as
//! nmap relies on); a RST marks it closed; silence marks it filtered.

use std::net::Ipv4Addr;

use underradar_netsim::hash::FxHashMap;
use underradar_netsim::host::{HostApi, HostTask, RawVerdict};
use underradar_netsim::packet::Packet;
use underradar_netsim::time::SimDuration;
use underradar_netsim::wire::tcp::TcpFlags;

use crate::probe::{Evidence, Probe};
use crate::verdict::{Mechanism, Verdict};

const TIMER_NEXT_PROBE: u64 = 1;
const TIMER_GRACE: u64 = 2;
/// Gap between successive SYNs.
const PACE: SimDuration = SimDuration::from_millis(20);

/// What the scan observed for one port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortState {
    /// SYN/ACK received.
    Open,
    /// RST received.
    Closed,
    /// No answer (dropped somewhere).
    Filtered,
}

/// A SYN scan of one target.
pub struct SynScanProbe {
    target: Ipv4Addr,
    ports: Vec<u16>,
    /// Ports that must be open for the service to function (e.g. 80 for a
    /// web site); censorship is inferred from their state.
    expected_open: Vec<u16>,
    next_index: usize,
    base_sport: u16,
    /// Observed state per port (absent = still filtered/unanswered).
    pub results: FxHashMap<u16, PortState>,
    finished: bool,
    /// Extra rounds re-probing unanswered ports.
    retries: u32,
    round: u32,
}

impl SynScanProbe {
    /// Scan `target` over `ports`, expecting `expected_open` to answer.
    pub fn new(target: Ipv4Addr, ports: Vec<u16>, expected_open: Vec<u16>) -> SynScanProbe {
        SynScanProbe {
            target,
            ports,
            expected_open,
            next_index: 0,
            base_sport: 40000,
            results: FxHashMap::default(),
            finished: false,
            retries: 1,
            round: 0,
        }
    }

    /// Extra probe rounds for unanswered ports (builder style; nmap
    /// retries probes too — this is what keeps random loss from reading as
    /// censorship). Default 1.
    pub fn with_retries(mut self, retries: u32) -> SynScanProbe {
        self.retries = retries;
        self
    }

    /// Final state of one port (filtered if never answered).
    pub fn port_state(&self, port: u16) -> PortState {
        self.results
            .get(&port)
            .copied()
            .unwrap_or(PortState::Filtered)
    }

    fn send_next(&mut self, api: &mut HostApi<'_, '_>) {
        // Skip ports already answered in an earlier round.
        while self.next_index < self.ports.len()
            && self.round > 0
            && self.results.contains_key(&self.ports[self.next_index])
        {
            self.next_index += 1;
        }
        if self.next_index >= self.ports.len() {
            api.set_timer(SimDuration::from_secs(2), TIMER_GRACE);
            return;
        }
        let port = self.ports[self.next_index];
        let sport = self.base_sport.wrapping_add(self.next_index as u16);
        self.next_index += 1;
        let iss = api.rng().next_u32();
        let syn = Packet::tcp(
            api.ip(),
            self.target,
            sport,
            port,
            iss,
            0,
            TcpFlags::syn(),
            vec![],
        );
        api.raw_send(syn);
        api.set_timer(PACE, TIMER_NEXT_PROBE);
    }

    fn sport_to_port(&self, sport: u16) -> Option<u16> {
        let idx = sport.wrapping_sub(self.base_sport) as usize;
        self.ports.get(idx).copied()
    }
}

impl Probe for SynScanProbe {
    fn label(&self) -> &'static str {
        "scan"
    }

    /// Whether the scan has sent all probes and the grace period elapsed.
    fn is_finished(&self) -> bool {
        self.finished
    }

    /// The measurement's conclusion, per §3.1's rule: an expected-open port
    /// that is closed or filtered means censorship.
    fn verdict(&self) -> Verdict {
        if !self.finished {
            return Verdict::Inconclusive("scan still in progress".to_string());
        }
        if self.expected_open.is_empty() {
            return Verdict::Inconclusive("no expected-open ports configured".to_string());
        }
        let mut any_open = false;
        let mut any_filtered = false;
        let mut any_closed = false;
        for &p in &self.expected_open {
            match self.port_state(p) {
                PortState::Open => any_open = true,
                PortState::Filtered => any_filtered = true,
                PortState::Closed => any_closed = true,
            }
        }
        if any_open && !any_filtered && !any_closed {
            Verdict::Reachable
        } else if any_filtered && !any_open {
            // Everything expected is silent: packets are being dropped.
            Verdict::Censored(Mechanism::Blackhole)
        } else if any_closed && !any_open {
            // RST where a service must exist: injected or forced closed.
            Verdict::Censored(Mechanism::RstInjection)
        } else {
            // Some expected ports open, others blocked: port-level blocking.
            Verdict::Censored(Mechanism::PortBlocked)
        }
    }

    fn evidence(&self) -> Evidence {
        let (mut open, mut closed, mut filtered) = (0usize, 0usize, 0usize);
        for &p in &self.ports {
            match self.port_state(p) {
                PortState::Open => open += 1,
                PortState::Closed => closed += 1,
                PortState::Filtered => filtered += 1,
            }
        }
        vec![
            ("ports_probed", self.ports.len().to_string()),
            ("open", open.to_string()),
            ("closed", closed.to_string()),
            ("filtered", filtered.to_string()),
        ]
    }
}

impl HostTask for SynScanProbe {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        self.send_next(api);
    }

    fn on_raw(&mut self, _api: &mut HostApi<'_, '_>, packet: &Packet) -> RawVerdict {
        if packet.src != self.target {
            return RawVerdict::Continue;
        }
        let Some(seg) = packet.as_tcp() else {
            return RawVerdict::Continue;
        };
        let Some(port) = self.sport_to_port(seg.dst_port) else {
            return RawVerdict::Continue;
        };
        if seg.src_port != port {
            return RawVerdict::Continue;
        }
        if seg.flags.has_syn() && seg.flags.has_ack() {
            self.results.insert(port, PortState::Open);
            // Let the stack see it so the kernel-style RST completes the
            // half-open scan.
            return RawVerdict::Continue;
        }
        if seg.flags.has_rst() {
            self.results.entry(port).or_insert(PortState::Closed);
            return RawVerdict::Consume;
        }
        RawVerdict::Continue
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, token: u64) {
        match token {
            TIMER_NEXT_PROBE => self.send_next(api),
            TIMER_GRACE => {
                let unanswered = self.ports.iter().any(|p| !self.results.contains_key(p));
                if self.round < self.retries && unanswered {
                    // nmap-style retry round over the silent ports.
                    self.round += 1;
                    self.next_index = 0;
                    self.send_next(api);
                } else {
                    self.finished = true;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::top_ports;
    use crate::risk::RiskReport;
    use crate::testbed::{Testbed, TestbedConfig};
    use underradar_censor::CensorPolicy;
    use underradar_netsim::addr::Cidr;
    use underradar_netsim::time::SimTime;

    fn run_scan(policy: CensorPolicy, ports: Vec<u16>) -> (Testbed, usize) {
        let mut tb = Testbed::build(TestbedConfig {
            policy,
            ..TestbedConfig::default()
        });
        let target = tb.target("twitter.com").expect("t").web_ip;
        let probe = SynScanProbe::new(target, ports, vec![80]);
        let idx = tb.spawn_on_client(SimTime::ZERO, Box::new(probe));
        tb.run_secs(30);
        (tb, idx)
    }

    #[test]
    fn open_port_detected_on_uncensored_target() {
        let (tb, idx) = run_scan(CensorPolicy::new(), vec![80, 443, 22]);
        let scan = tb.client_task::<SynScanProbe>(idx).expect("scan");
        assert!(scan.is_finished());
        assert_eq!(scan.port_state(80), PortState::Open);
        assert_eq!(
            scan.port_state(443),
            PortState::Closed,
            "no listener: host RSTs"
        );
        assert_eq!(scan.port_state(22), PortState::Closed);
        assert_eq!(scan.verdict(), Verdict::Reachable);
    }

    #[test]
    fn blackholed_target_shows_filtered_ports() {
        let target = crate::testbed::TargetSite::numbered("twitter.com", 0).web_ip;
        let policy = CensorPolicy::new().block_ip(Cidr::host(target));
        let (tb, idx) = run_scan(policy, vec![80, 443]);
        let scan = tb.client_task::<SynScanProbe>(idx).expect("scan");
        assert_eq!(scan.port_state(80), PortState::Filtered);
        assert_eq!(scan.verdict(), Verdict::Censored(Mechanism::Blackhole));
    }

    #[test]
    fn port_blocking_detected() {
        let any = Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        let policy = CensorPolicy::new().block_port(any, 80);
        let (tb, idx) = run_scan(policy, vec![80, 443]);
        let scan = tb.client_task::<SynScanProbe>(idx).expect("scan");
        assert_eq!(scan.port_state(80), PortState::Filtered);
        assert_eq!(scan.verdict(), Verdict::Censored(Mechanism::Blackhole));
    }

    #[test]
    fn scan_evades_surveillance_via_mvr_discard() {
        // Walk enough ports that the classifier labels us a scanner; the
        // MVR then discards the probe traffic before signatures run.
        let ports = top_ports(60);
        let (tb, idx) = run_scan(CensorPolicy::new(), ports);
        let scan = tb.client_task::<SynScanProbe>(idx).expect("scan");
        let report = RiskReport::evaluate(&tb, &scan.verdict());
        assert!(
            report.evades(),
            "scan traffic must not alert: {}",
            report.summary()
        );
        assert!(!report.attributed);
        // And the MVR really did discard scan-class packets.
        let discarded = tb.surveillance().stats().discarded;
        assert!(discarded > 20, "MVR discarded {} packets", discarded);
    }

    #[test]
    fn scan_accuracy_under_censorship_with_evasion() {
        // The paper's two criteria at once: detect blocking AND evade.
        let target = crate::testbed::TargetSite::numbered("twitter.com", 0).web_ip;
        let policy = CensorPolicy::new().block_ip(Cidr::host(target));
        let (tb, idx) = run_scan(policy, top_ports(60));
        let scan = tb.client_task::<SynScanProbe>(idx).expect("scan");
        let verdict = scan.verdict();
        assert!(verdict.is_censored(), "{verdict}");
        let report = RiskReport::evaluate(&tb, &verdict);
        assert!(report.verdict_correct);
        assert!(report.evades());
    }

    #[test]
    fn unstarted_scan_reads_in_progress() {
        let probe = SynScanProbe::new(Ipv4Addr::new(1, 2, 3, 4), vec![80], vec![80]);
        assert_eq!(
            probe.verdict(),
            Verdict::Inconclusive("scan still in progress".to_string())
        );
    }
}
