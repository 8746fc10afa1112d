//! Method #3 — (part of) a DDoS attack (§3.1).
//!
//! "DDoS attacks consume a small amount of resources from a large number
//! of hosts ... Repeated requests are also advantageous because we can
//! treat each request as a measurement sample and better determine how
//! content is being censored."
//!
//! The probe issues a burst of HTTP GETs to the target — enough volume
//! that the MVR's rate classifier files the source under DDoS and discards
//! it — and each request's fate (200 / RST / timeout) is one measurement
//! sample. Aggregating samples separates transient loss from systematic
//! interference.

use std::net::Ipv4Addr;

use underradar_netsim::host::{ConnId, HostApi, HostTask};
use underradar_netsim::stack::tcp::TcpEvent;
use underradar_netsim::time::SimDuration;
use underradar_protocols::http::{HttpRequest, HttpResponse};

use crate::probe::{Evidence, Probe};
use crate::verdict::{Mechanism, Verdict};

const TIMER_NEXT_SAMPLE: u64 = 1;
/// Gap between one sample's end and the next request.
const PACE: SimDuration = SimDuration::from_millis(50);

/// The fate of one request sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// Got an HTTP response with this status.
    Status(u16),
    /// Connection reset.
    Reset,
    /// Connection refused.
    Refused,
    /// Timed out.
    TimedOut,
}

/// Sample counts by outcome class (named replacement for the old
/// `(ok, reset, refused, timeout)` tuple).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdosTally {
    /// The server answered with any HTTP status (not network censorship).
    pub ok: usize,
    /// Connection reset.
    pub reset: usize,
    /// Connection refused.
    pub refused: usize,
    /// Timed out.
    pub timed_out: usize,
}

impl DdosTally {
    /// Total samples counted.
    pub fn total(&self) -> usize {
        self.ok + self.reset + self.refused + self.timed_out
    }
}

/// An HTTP-flood measurement of one target.
pub struct DdosProbe {
    target: Ipv4Addr,
    /// The GET every sample sends, rendered once.
    request: Vec<u8>,
    samples_wanted: usize,
    current: Option<ConnId>,
    buf: Vec<u8>,
    /// Outcome of each sample, in order.
    pub samples: Vec<SampleOutcome>,
}

impl DdosProbe {
    /// Fire `samples` GETs for `path` at `target`.
    pub fn new(target: Ipv4Addr, host_header: &str, path: &str, samples: usize) -> DdosProbe {
        DdosProbe {
            target,
            request: HttpRequest::render_get(host_header, path, &[("User-Agent", "Mozilla/5.0")]),
            samples_wanted: samples,
            current: None,
            buf: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Sample counts by outcome class.
    pub fn tally(&self) -> DdosTally {
        let mut t = DdosTally::default();
        for s in &self.samples {
            match s {
                // Any HTTP status means the server answered; an error page
                // is not network censorship.
                SampleOutcome::Status(_) => t.ok += 1,
                SampleOutcome::Reset => t.reset += 1,
                SampleOutcome::Refused => t.refused += 1,
                SampleOutcome::TimedOut => t.timed_out += 1,
            }
        }
        t
    }

    fn fire(&mut self, api: &mut HostApi<'_, '_>) {
        if Probe::is_finished(self) {
            return;
        }
        self.buf.clear();
        self.current = Some(api.tcp_connect(self.target, 80));
    }

    fn record(&mut self, api: &mut HostApi<'_, '_>, outcome: SampleOutcome) {
        self.current = None;
        self.samples.push(outcome);
        if !Probe::is_finished(self) {
            api.set_timer(PACE, TIMER_NEXT_SAMPLE);
        }
    }
}

impl Probe for DdosProbe {
    fn label(&self) -> &'static str {
        "ddos"
    }

    /// Whether all samples completed.
    fn is_finished(&self) -> bool {
        self.samples.len() >= self.samples_wanted
    }

    /// Aggregate verdict over the samples: systematic interference must
    /// dominate the sample set, not appear once.
    fn verdict(&self) -> Verdict {
        if self.samples.is_empty() {
            return Verdict::Inconclusive("no samples completed".to_string());
        }
        let n = self.samples.len() as f64;
        let t = self.tally();
        if t.ok as f64 / n >= 0.8 {
            return Verdict::Reachable;
        }
        if t.reset as f64 / n >= 0.5 {
            return Verdict::Censored(Mechanism::RstInjection);
        }
        if t.timed_out as f64 / n >= 0.5 {
            return Verdict::Censored(Mechanism::Blackhole);
        }
        if t.refused as f64 / n >= 0.5 {
            return Verdict::Censored(Mechanism::PortBlocked);
        }
        Verdict::Inconclusive(format!(
            "mixed outcomes: {} ok / {} reset / {} refused / {} timeout",
            t.ok, t.reset, t.refused, t.timed_out
        ))
    }

    fn evidence(&self) -> Evidence {
        let t = self.tally();
        vec![
            ("samples", self.samples.len().to_string()),
            ("ok", t.ok.to_string()),
            ("reset", t.reset.to_string()),
            ("refused", t.refused.to_string()),
            ("timed_out", t.timed_out.to_string()),
            // The probe never retries; the entry keeps rows and journals
            // byte-stable.
            ("retries_used", "0".to_string()),
        ]
    }
}

impl HostTask for DdosProbe {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        self.fire(api);
    }

    fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, event: TcpEvent) {
        if Some(conn) != self.current {
            return;
        }
        match event {
            TcpEvent::Connected => api.tcp_send(conn, &self.request),
            TcpEvent::Data(d) => {
                self.buf.extend_from_slice(&d);
                if let Ok(resp) = HttpResponse::parse(&self.buf) {
                    api.tcp_abort(conn); // floods don't linger
                    self.record(api, SampleOutcome::Status(resp.status));
                }
            }
            TcpEvent::Reset => self.record(api, SampleOutcome::Reset),
            TcpEvent::Refused => self.record(api, SampleOutcome::Refused),
            TcpEvent::TimedOut => self.record(api, SampleOutcome::TimedOut),
            _ => {}
        }
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, token: u64) {
        if token == TIMER_NEXT_SAMPLE {
            self.fire(api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::risk::RiskReport;
    use crate::testbed::{Testbed, TestbedConfig};
    use underradar_censor::CensorPolicy;
    use underradar_netsim::addr::Cidr;
    use underradar_netsim::time::SimTime;

    fn run_ddos(policy: CensorPolicy, path: &str, samples: usize) -> (Testbed, usize) {
        let mut tb = Testbed::build(TestbedConfig {
            policy,
            ..TestbedConfig::default()
        });
        let target = tb.target("youtube.com").expect("t").web_ip;
        let probe = DdosProbe::new(target, "youtube.com", path, samples);
        let idx = tb.spawn_on_client(SimTime::ZERO, Box::new(probe));
        tb.run_secs(120);
        (tb, idx)
    }

    #[test]
    fn clean_target_all_samples_ok() {
        let (tb, idx) = run_ddos(CensorPolicy::new(), "/watch", 20);
        let probe = tb.client_task::<DdosProbe>(idx).expect("probe");
        assert!(probe.is_finished());
        assert_eq!(
            probe.tally(),
            DdosTally {
                ok: 20,
                reset: 0,
                refused: 0,
                timed_out: 0
            }
        );
        assert_eq!(probe.tally().total(), 20);
        assert_eq!(probe.verdict(), Verdict::Reachable);
    }

    #[test]
    fn keyword_censored_path_resets_every_sample() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let (tb, idx) = run_ddos(policy, "/falun-gong", 10);
        let probe = tb.client_task::<DdosProbe>(idx).expect("probe");
        assert!(probe.tally().reset >= 5, "resets: {:?}", probe.samples);
        assert_eq!(probe.verdict(), Verdict::Censored(Mechanism::RstInjection));
    }

    #[test]
    fn blackholed_target_times_out_consistently() {
        let target = crate::testbed::TargetSite::numbered("youtube.com", 1).web_ip;
        let policy = CensorPolicy::new().block_ip(Cidr::host(target));
        let (tb, idx) = run_ddos(policy, "/", 5);
        let probe = tb.client_task::<DdosProbe>(idx).expect("probe");
        assert_eq!(probe.verdict(), Verdict::Censored(Mechanism::Blackhole));
    }

    #[test]
    fn flood_evades_surveillance_once_classified_ddos() {
        // A large burst: the rate classifier files the source as a DDoS
        // participant, and the class is discarded.
        let (tb, idx) = run_ddos(CensorPolicy::new(), "/watch", 60);
        let probe = tb.client_task::<DdosProbe>(idx).expect("probe");
        let report = RiskReport::evaluate(&tb, &probe.verdict());
        assert!(report.evades(), "{}", report.summary());
        let mvr = tb.surveillance().mvr();
        let ddos_class = mvr
            .volumes()
            .iter()
            .find(|(c, _)| *c == underradar_surveil::TrafficClass::DdosSource)
            .map(|(_, v)| v.packets)
            .unwrap_or(0);
        assert!(ddos_class > 0, "some packets were classified as DDoS");
    }

    #[test]
    fn per_sample_records_kept() {
        let (tb, idx) = run_ddos(CensorPolicy::new(), "/watch", 7);
        let probe = tb.client_task::<DdosProbe>(idx).expect("probe");
        assert_eq!(probe.samples.len(), 7);
        assert!(probe
            .samples
            .iter()
            .all(|s| matches!(s, SampleOutcome::Status(200))));
    }

    #[test]
    fn verdict_logic_on_synthetic_tallies() {
        let mut p = DdosProbe::new(Ipv4Addr::new(1, 2, 3, 4), "h", "/", 10);
        assert!(matches!(p.verdict(), Verdict::Inconclusive(_)));
        p.samples = vec![SampleOutcome::Reset; 6]
            .into_iter()
            .chain(vec![SampleOutcome::Status(200); 4])
            .collect();
        assert_eq!(p.verdict(), Verdict::Censored(Mechanism::RstInjection));
        p.samples = vec![SampleOutcome::TimedOut; 3]
            .into_iter()
            .chain(vec![SampleOutcome::Reset; 3])
            .chain(vec![SampleOutcome::Status(200); 4])
            .collect();
        assert!(
            matches!(p.verdict(), Verdict::Inconclusive(_)),
            "no signal dominates"
        );
    }
}
