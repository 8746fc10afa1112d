//! The overt baseline: an OONI-style direct measurement.
//!
//! This is the state of the art the paper wants to improve on (§1): resolve
//! the target, fetch it, and report the result to a collector. Every step
//! is visible to a user-focused surveillance system — the DNS query names
//! the censored domain, the HTTP request carries it, and the collector
//! upload pins the measurement on the client.

use std::net::Ipv4Addr;

use underradar_netsim::host::{ConnId, HostApi, HostTask};
use underradar_netsim::stack::tcp::TcpEvent;
use underradar_netsim::time::SimDuration;
use underradar_protocols::dns::{DnsMessage, DnsName, QType, Rcode};
use underradar_protocols::http::{HttpRequest, HttpResponse};

use crate::probe::{Evidence, Probe};
use crate::verdict::{Mechanism, Verdict};

const TIMER_DNS_TIMEOUT: u64 = 1;
const TIMER_DONE: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Resolving,
    Fetching,
    Reporting,
    Done,
}

/// An overt (direct) measurement of one target.
pub struct OvertProbe {
    domain: DnsName,
    resolver: Ipv4Addr,
    collector: Ipv4Addr,
    /// The GET for the target's path, rendered once.
    request: Vec<u8>,
    phase: Phase,
    dns_port: Option<u16>,
    /// All DNS responses observed for our query (injection shows up as
    /// conflicting answers).
    pub dns_answers: Vec<Vec<Ipv4Addr>>,
    resolved: Option<Ipv4Addr>,
    http_conn: Option<ConnId>,
    http_buf: Vec<u8>,
    /// HTTP status if a response arrived.
    pub http_status: Option<u16>,
    got_reset: bool,
    timed_out: bool,
    nxdomain: bool,
    /// Whether the report reached the collector.
    pub reported: bool,
    report_conn: Option<ConnId>,
}

impl OvertProbe {
    /// Probe `domain` through `resolver`, reporting to `collector`. The
    /// fetch asks for `path` (include a censored keyword to test keyword
    /// censorship overtly).
    pub fn new(domain: &DnsName, resolver: Ipv4Addr, collector: Ipv4Addr, path: &str) -> Self {
        OvertProbe {
            domain: domain.clone(),
            resolver,
            collector,
            request: HttpRequest::render_get(&domain.to_string(), path, &[]),
            phase: Phase::Resolving,
            dns_port: None,
            dns_answers: Vec::new(),
            resolved: None,
            http_conn: None,
            http_buf: Vec::new(),
            http_status: None,
            got_reset: false,
            timed_out: false,
            nxdomain: false,
            reported: false,
            report_conn: None,
        }
    }

    fn start_fetch(&mut self, api: &mut HostApi<'_, '_>, ip: Ipv4Addr) {
        self.phase = Phase::Fetching;
        self.resolved = Some(ip);
        self.http_conn = Some(api.tcp_connect(ip, 80));
    }

    fn start_report(&mut self, api: &mut HostApi<'_, '_>) {
        self.phase = Phase::Reporting;
        self.report_conn = Some(api.tcp_connect(self.collector, 443));
    }
}

impl Probe for OvertProbe {
    fn label(&self) -> &'static str {
        "overt"
    }

    /// Finished once the collector upload completed (every overt run ends
    /// with a report, whatever the outcome).
    fn is_finished(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The measurement's conclusion.
    fn verdict(&self) -> Verdict {
        // Conflicting DNS answers = injection (first response raced in).
        if self.dns_answers.len() > 1 && self.dns_answers.windows(2).any(|w| w[0] != w[1]) {
            return Verdict::Censored(Mechanism::DnsPoison);
        }
        if self.nxdomain {
            if !self.dns_answers.is_empty() {
                // NXDOMAIN raced a real answer: someone forged the denial.
                return Verdict::Censored(Mechanism::DnsPoison);
            }
            return Verdict::Inconclusive("NXDOMAIN (cannot distinguish censorship)".to_string());
        }
        if self.got_reset {
            return Verdict::Censored(Mechanism::RstInjection);
        }
        if self.http_status.is_some() {
            return Verdict::Reachable;
        }
        if self.timed_out {
            return Verdict::Censored(Mechanism::Blackhole);
        }
        Verdict::Inconclusive("no response collected".to_string())
    }

    fn evidence(&self) -> Evidence {
        vec![
            ("dns_answers", self.dns_answers.len().to_string()),
            (
                "http_status",
                self.http_status.map_or("-".to_string(), |s| s.to_string()),
            ),
            ("nxdomain", self.nxdomain.to_string()),
            ("got_reset", self.got_reset.to_string()),
            ("timed_out", self.timed_out.to_string()),
            ("reported", self.reported.to_string()),
        ]
    }
}

impl HostTask for OvertProbe {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        let port = api.udp_bind(0).unwrap_or(5353);
        self.dns_port = Some(port);
        let query = DnsMessage::query(0x0a11, self.domain.clone(), QType::A);
        api.udp_send(port, self.resolver, 53, query.encode());
        api.set_timer(SimDuration::from_secs(3), TIMER_DNS_TIMEOUT);
    }

    fn on_udp(
        &mut self,
        api: &mut HostApi<'_, '_>,
        local_port: u16,
        _src: Ipv4Addr,
        _src_port: u16,
        payload: &[u8],
    ) {
        if Some(local_port) != self.dns_port {
            return;
        }
        let Ok(resp) = DnsMessage::decode(payload) else {
            return;
        };
        if resp.id != 0x0a11 || !resp.is_response {
            return;
        }
        if resp.rcode == Rcode::NxDomain {
            self.nxdomain = true;
            return;
        }
        let answers = resp.a_records();
        self.dns_answers.push(answers.clone());
        if self.phase == Phase::Resolving {
            if let Some(&ip) = answers.first() {
                self.start_fetch(api, ip);
            }
        }
    }

    fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, event: TcpEvent) {
        if Some(conn) == self.http_conn {
            match event {
                TcpEvent::Connected => api.tcp_send(conn, &self.request),
                TcpEvent::Data(d) => {
                    self.http_buf.extend_from_slice(&d);
                    if let Ok(resp) = HttpResponse::parse(&self.http_buf) {
                        self.http_status = Some(resp.status);
                        api.tcp_close(conn);
                        self.start_report(api);
                    }
                }
                TcpEvent::Reset => {
                    self.got_reset = true;
                    self.start_report(api);
                }
                TcpEvent::TimedOut | TcpEvent::Refused => {
                    self.timed_out = true;
                    self.start_report(api);
                }
                _ => {}
            }
        } else if Some(conn) == self.report_conn {
            match event {
                TcpEvent::Connected => {
                    let body = format!(
                        "POST /report HTTP/1.0\r\nHost: collector\r\n\r\n{{\"target\":\"{}\",\"verdict\":\"{}\"}}",
                        self.domain,
                        self.verdict()
                    );
                    api.tcp_send(conn, body.as_bytes());
                }
                TcpEvent::Data(_) => {
                    self.reported = true;
                    api.tcp_close(conn);
                    self.phase = Phase::Done;
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, token: u64) {
        match token {
            TIMER_DNS_TIMEOUT if self.phase == Phase::Resolving => {
                // DNS never answered: treat as timeout and still report.
                self.timed_out = true;
                self.start_report(api);
            }
            TIMER_DONE => {}
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{Testbed, TestbedConfig};
    use underradar_censor::CensorPolicy;
    use underradar_netsim::addr::Cidr;
    use underradar_netsim::time::SimTime;

    fn probe_in(policy: CensorPolicy, domain: &str, path: &str) -> (Testbed, usize) {
        let mut tb = Testbed::build(TestbedConfig {
            policy,
            ..TestbedConfig::default()
        });
        let d = DnsName::parse(domain).expect("domain");
        let probe = OvertProbe::new(&d, tb.resolver_ip, tb.collector_ip, path);
        let idx = tb.spawn_on_client(SimTime::ZERO, Box::new(probe));
        tb.run_secs(20);
        (tb, idx)
    }

    #[test]
    fn uncensored_target_reachable_and_reported() {
        let (tb, idx) = probe_in(CensorPolicy::new(), "bbc.com", "/news");
        let probe = tb.client_task::<OvertProbe>(idx).expect("probe");
        assert_eq!(probe.verdict(), Verdict::Reachable);
        assert_eq!(probe.http_status, Some(200));
        assert!(probe.reported, "result uploaded to the collector");
    }

    #[test]
    fn dns_injection_detected_via_conflicting_answers() {
        let policy = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n"));
        let (tb, idx) = probe_in(policy, "twitter.com", "/");
        let probe = tb.client_task::<OvertProbe>(idx).expect("probe");
        assert_eq!(probe.verdict(), Verdict::Censored(Mechanism::DnsPoison));
        assert!(
            probe.dns_answers.len() >= 2,
            "injected + real answers observed"
        );
    }

    #[test]
    fn keyword_censorship_detected_as_rst() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let (tb, idx) = probe_in(policy, "bbc.com", "/falun");
        let probe = tb.client_task::<OvertProbe>(idx).expect("probe");
        assert_eq!(probe.verdict(), Verdict::Censored(Mechanism::RstInjection));
    }

    #[test]
    fn blackholed_ip_detected_as_timeout() {
        let web = TargetedWeb::bbc();
        let policy = CensorPolicy::new().block_ip(Cidr::host(web));
        let (tb, idx) = probe_in(policy, "bbc.com", "/");
        let probe = tb.client_task::<OvertProbe>(idx).expect("probe");
        assert_eq!(probe.verdict(), Verdict::Censored(Mechanism::Blackhole));
    }

    /// Helper to keep target addressing in one place for tests.
    struct TargetedWeb;
    impl TargetedWeb {
        fn bbc() -> Ipv4Addr {
            crate::testbed::TargetSite::numbered("bbc.com", 10).web_ip
        }
    }

    #[test]
    fn overt_probe_is_caught_by_surveillance() {
        // The headline risk: the overt baseline alerts the surveillance
        // system and attributes the client.
        let policy = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n"));
        let (tb, _idx) = probe_in(policy, "twitter.com", "/");
        let report = crate::risk::RiskReport::evaluate(
            &tb,
            &tb.client_task::<OvertProbe>(0).expect("p").verdict(),
        );
        assert!(!report.evades(), "overt measurement must not evade");
        assert!(
            report.alerts_on_client >= 2,
            "DNS lookup + collector contact"
        );
        assert!(report.attributed);
        assert_eq!(
            report.anonymity_set,
            Some(1),
            "exactly one suspect: the client"
        );
    }
}
