//! Censorship policy: what is blocked and how.
//!
//! One policy object configures every censor deployment in the testbed.

use std::fmt;
use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::DnsName;

/// What kind of censorship event occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CensorActionKind {
    /// RST pair injected because a keyword matched.
    KeywordRst {
        /// The keyword that matched.
        keyword: String,
        /// The other end of the reset flow: the destination of the
        /// segment that carried the keyword.
        dst: Ipv4Addr,
    },
    /// Forged DNS answer injected.
    DnsInjection {
        /// The blocked name queried.
        name: DnsName,
        /// The query type as a number (1 = A, 15 = MX).
        qtype: u16,
    },
    /// A packet to a blocked address was dropped (inline only).
    IpDrop {
        /// The blocked destination.
        dst: Ipv4Addr,
    },
    /// A packet to a blocked port was dropped (inline only).
    PortDrop {
        /// The blocked destination.
        dst: Ipv4Addr,
        /// The blocked port.
        port: u16,
    },
    /// An HTTP request for a blocked URL was killed (inline only).
    UrlBlock {
        /// The URL substring that matched.
        url_fragment: String,
        /// The server the blocked request was bound for.
        dst: Ipv4Addr,
    },
}

impl CensorActionKind {
    /// Stable machine-readable label, used as the telemetry metric suffix
    /// (`<prefix>.actions.<label>`).
    pub fn label(&self) -> &'static str {
        match self {
            CensorActionKind::KeywordRst { .. } => "keyword_rst",
            CensorActionKind::DnsInjection { .. } => "dns_injection",
            CensorActionKind::IpDrop { .. } => "ip_drop",
            CensorActionKind::PortDrop { .. } => "port_drop",
            CensorActionKind::UrlBlock { .. } => "url_block",
        }
    }
}

/// Export a logged action stream into `tel`: one counter per blocking
/// mechanism under `<prefix>.actions.<label>`, plus one structured event
/// of kind `event_kind` (by convention `<prefix>.action`) per action,
/// keyed to its simulated time. The counters are idempotent; the events
/// append, so call this once per run.
pub fn export_actions(
    tel: &underradar_telemetry::Telemetry,
    prefix: &str,
    event_kind: &'static str,
    actions: &[CensorAction],
) {
    if !tel.is_enabled() {
        return;
    }
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for a in actions {
        *counts.entry(a.kind.label()).or_insert(0) += 1;
    }
    let mut name = underradar_telemetry::MetricName::default();
    name.stem(|s| {
        s.push_str(prefix);
        s.push_str(".actions");
    });
    for (label, n) in counts {
        tel.set_counter(name.leaf(label), n);
    }
    for a in actions {
        tel.event(
            a.time.as_nanos(),
            event_kind,
            &[
                ("kind", a.kind.label().into()),
                ("client", a.client.to_string().into()),
            ],
        );
    }
}

/// A logged censorship action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensorAction {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: CensorActionKind,
    /// The client whose traffic triggered it. The censor records this only
    /// transiently (transaction-focused, §2.1) — the field exists so
    /// *experiments* can check ground truth, not because the censor
    /// attributes users.
    pub client: Ipv4Addr,
}

/// The complete blocking policy.
#[derive(Debug, Clone)]
pub struct CensorPolicy {
    /// Keywords whose appearance in TCP payload triggers RST injection.
    pub keywords: Vec<String>,
    /// Domains whose DNS queries (A and MX) receive forged answers.
    /// Matching is by zone: `twitter.com` also blocks `www.twitter.com`.
    pub dns_blocked: Vec<DnsName>,
    /// The bogus address injected in forged answers (the GFC injects
    /// addresses from a small stable pool; we model one).
    pub dns_poison_ip: Ipv4Addr,
    /// Forge NXDOMAIN answers instead of bogus A records — the style some
    /// ISP-level censors use instead of the GFC's poison addresses.
    pub dns_nxdomain: bool,
    /// Destination prefixes that are blackholed (inline deployments).
    pub ip_blocked: Vec<Cidr>,
    /// `(prefix, port)` pairs that are blackholed (inline deployments).
    pub port_blocked: Vec<(Cidr, u16)>,
    /// URL substrings whose HTTP requests are blocked (inline deployments).
    pub url_blocked: Vec<String>,
}

impl Default for CensorPolicy {
    fn default() -> Self {
        CensorPolicy {
            keywords: Vec::new(),
            dns_blocked: Vec::new(),
            dns_poison_ip: Ipv4Addr::new(203, 0, 113, 113),
            dns_nxdomain: false,
            ip_blocked: Vec::new(),
            port_blocked: Vec::new(),
            url_blocked: Vec::new(),
        }
    }
}

impl CensorPolicy {
    /// An empty policy (censors nothing).
    pub fn new() -> CensorPolicy {
        CensorPolicy::default()
    }

    /// Builder: add a blocked keyword.
    pub fn block_keyword(mut self, kw: &str) -> Self {
        self.keywords.push(kw.to_string());
        self
    }

    /// Builder: add a DNS-blocked zone.
    pub fn block_domain(mut self, name: &DnsName) -> Self {
        self.dns_blocked.push(name.clone());
        self
    }

    /// Builder: switch DNS censorship to forged NXDOMAIN answers.
    pub fn with_dns_nxdomain(mut self) -> Self {
        self.dns_nxdomain = true;
        self
    }

    /// Builder: blackhole a destination prefix.
    pub fn block_ip(mut self, prefix: Cidr) -> Self {
        self.ip_blocked.push(prefix);
        self
    }

    /// Builder: blackhole a (prefix, port) pair.
    pub fn block_port(mut self, prefix: Cidr, port: u16) -> Self {
        self.port_blocked.push((prefix, port));
        self
    }

    /// Builder: block URLs containing a substring.
    pub fn block_url(mut self, fragment: &str) -> Self {
        self.url_blocked.push(fragment.to_string());
        self
    }

    /// Whether a DNS name is blocked (zone match).
    pub fn is_domain_blocked(&self, name: &DnsName) -> bool {
        self.dns_blocked.iter().any(|z| name.is_subdomain_of(z))
    }

    /// Whether a destination address is blackholed.
    pub fn is_ip_blocked(&self, dst: Ipv4Addr) -> bool {
        self.ip_blocked.iter().any(|c| c.contains(dst))
    }

    /// Whether a (destination, port) is blackholed.
    pub fn is_port_blocked(&self, dst: Ipv4Addr, port: u16) -> bool {
        self.port_blocked
            .iter()
            .any(|(c, p)| *p == port && c.contains(dst))
    }

    /// The first blocked URL fragment present in `payload`, if any
    /// (case-insensitive).
    pub fn matching_url(&self, payload: &[u8]) -> Option<&str> {
        let contains_nocase =
            |needle: &[u8]| underradar_ids::rule::find_sub(payload, needle, true, 0).is_some();
        self.url_blocked
            .iter()
            .find_map(|frag| contains_nocase(frag.as_bytes()).then_some(frag.as_str()))
    }
}

impl fmt::Display for CensorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy: {} keywords, {} domains, {} prefixes, {} ports, {} urls",
            self.keywords.len(),
            self.dns_blocked.len(),
            self.ip_blocked.len(),
            self.port_blocked.len(),
            self.url_blocked.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).expect("name")
    }

    fn policy() -> CensorPolicy {
        CensorPolicy::new()
            .block_keyword("falun")
            .block_domain(&name("twitter.com"))
            .block_ip(Cidr::slash24(Ipv4Addr::new(198, 51, 100, 0)))
            .block_port(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), 443)
            .block_url("/banned-page")
    }

    #[test]
    fn domain_zone_matching() {
        let p = policy();
        assert!(p.is_domain_blocked(&name("twitter.com")));
        assert!(p.is_domain_blocked(&name("api.twitter.com")));
        assert!(!p.is_domain_blocked(&name("nottwitter.com")));
        assert!(!p.is_domain_blocked(&name("bbc.com")));
    }

    #[test]
    fn ip_and_port_matching() {
        let p = policy();
        assert!(p.is_ip_blocked(Ipv4Addr::new(198, 51, 100, 77)));
        assert!(!p.is_ip_blocked(Ipv4Addr::new(198, 51, 101, 77)));
        assert!(p.is_port_blocked(Ipv4Addr::new(8, 8, 8, 8), 443));
        assert!(!p.is_port_blocked(Ipv4Addr::new(8, 8, 8, 8), 80));
    }

    #[test]
    fn keyword_and_url_matching() {
        let p = policy();
        assert_eq!(
            p.matching_url(b"GET /banned-page HTTP/1.0"),
            Some("/banned-page")
        );
        assert_eq!(p.matching_url(b"GET /fine HTTP/1.0"), None);
    }

    #[test]
    fn empty_policy_blocks_nothing() {
        let p = CensorPolicy::new();
        assert!(!p.is_domain_blocked(&name("anything.example")));
        assert!(!p.is_ip_blocked(Ipv4Addr::new(1, 2, 3, 4)));
    }
}
