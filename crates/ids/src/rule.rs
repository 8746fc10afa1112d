//! The rule model: what a parsed Snort-dialect rule looks like and how its
//! header predicates evaluate against a packet.

use std::fmt;
use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;
use underradar_netsim::packet::{Packet, PacketBody};

/// What the IDS does when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAction {
    /// Raise an alert (and, for an inline censor, trigger its response).
    Alert,
    /// Log without alerting.
    Log,
    /// Explicitly ignore matching traffic.
    Pass,
    /// Drop (inline deployments).
    Drop,
    /// Drop and answer with RST/ICMP (inline deployments).
    Reject,
}

impl fmt::Display for RuleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleAction::Alert => "alert",
            RuleAction::Log => "log",
            RuleAction::Pass => "pass",
            RuleAction::Drop => "drop",
            RuleAction::Reject => "reject",
        };
        f.write_str(s)
    }
}

/// Protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// TCP only.
    Tcp,
    /// UDP only.
    Udp,
    /// ICMP only.
    Icmp,
    /// Any IP packet.
    Ip,
}

impl Proto {
    /// Whether `packet` is of this protocol.
    pub fn matches(self, packet: &Packet) -> bool {
        matches!(
            (self, &packet.body),
            (Proto::Ip, _)
                | (Proto::Tcp, PacketBody::Tcp(_))
                | (Proto::Udp, PacketBody::Udp(_))
                | (Proto::Icmp, PacketBody::Icmp(_))
        )
    }
}

/// An address predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrSpec {
    /// Matches every address.
    Any,
    /// Matches addresses inside the prefix.
    Net(Cidr),
    /// Matches addresses in any of the prefixes.
    List(Vec<Cidr>),
    /// Negation.
    Not(Box<AddrSpec>),
}

impl AddrSpec {
    /// Evaluate against an address.
    pub fn matches(&self, addr: Ipv4Addr) -> bool {
        match self {
            AddrSpec::Any => true,
            AddrSpec::Net(c) => c.contains(addr),
            AddrSpec::List(cs) => cs.iter().any(|c| c.contains(addr)),
            AddrSpec::Not(inner) => !inner.matches(addr),
        }
    }
}

/// A port predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortSpec {
    /// Matches every port (and packets without ports, for ip/icmp rules).
    Any,
    /// A single port.
    One(u16),
    /// An inclusive range.
    Range(u16, u16),
    /// Any of a list.
    List(Vec<u16>),
    /// Negation.
    Not(Box<PortSpec>),
}

impl PortSpec {
    /// Evaluate against a port (`None` = the packet has no port).
    pub fn matches(&self, port: Option<u16>) -> bool {
        match (self, port) {
            (PortSpec::Any, _) => true,
            (PortSpec::Not(inner), _) => !inner.matches(port),
            (_, None) => false,
            (PortSpec::One(x), Some(p)) => p == *x,
            (PortSpec::Range(lo, hi), Some(p)) => p >= *lo && p <= *hi,
            (PortSpec::List(xs), Some(p)) => xs.contains(&p),
        }
    }
}

/// A `content` option with its modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentMatch {
    /// Bytes to find.
    pub pattern: Vec<u8>,
    /// Case-insensitive matching.
    pub nocase: bool,
    /// Start searching at this payload offset.
    pub offset: usize,
    /// Search only the first `depth` bytes from `offset` (0 = unlimited).
    pub depth: usize,
    /// Negated content (`content:!"..."`): rule matches only if absent.
    pub negated: bool,
}

impl ContentMatch {
    /// Plain case-sensitive content.
    pub fn plain(pattern: &[u8]) -> ContentMatch {
        ContentMatch {
            pattern: pattern.to_vec(),
            nocase: false,
            offset: 0,
            depth: 0,
            negated: false,
        }
    }

    /// Evaluate against a payload.
    pub fn matches(&self, payload: &[u8]) -> bool {
        let window_end = if self.depth == 0 {
            payload.len()
        } else {
            (self.offset + self.depth).min(payload.len())
        };
        let window = payload.get(self.offset..window_end).unwrap_or(&[]);
        let found = find_sub(window, &self.pattern, self.nocase, 0).is_some();
        found != self.negated
    }
}

/// `flow` option values the engine honors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOption {
    /// Only match inside an established TCP connection.
    Established,
    /// Match client-to-server direction (port-based heuristic).
    ToServer,
    /// Match server-to-client direction.
    ToClient,
}

/// `threshold` option kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdKind {
    /// Alert at most `count` times per window.
    Limit,
    /// Alert only once `count` events accumulate in the window.
    Threshold,
    /// Alert on the `count`-th event then at most once per window.
    Both,
}

/// A `threshold` option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdOption {
    /// The kind of rate control.
    pub kind: ThresholdKind,
    /// Track state per source (true) or per destination (false).
    pub track_by_src: bool,
    /// Event count parameter.
    pub count: u32,
    /// Window length in seconds.
    pub seconds: u32,
}

/// TCP flags predicate: all bits in `set` must be set; bits in `clear`
/// must not be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlagsSpec {
    /// Bits required set.
    pub set: u8,
    /// Bits required clear.
    pub clear: u8,
}

/// A complete rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Action on match.
    pub action: RuleAction,
    /// Protocol selector.
    pub proto: Proto,
    /// Source address predicate.
    pub src: AddrSpec,
    /// Source port predicate.
    pub src_port: PortSpec,
    /// Destination address predicate.
    pub dst: AddrSpec,
    /// Destination port predicate.
    pub dst_port: PortSpec,
    /// Bidirectional (`<>`) rather than directional (`->`).
    pub bidirectional: bool,
    /// Human-readable message.
    pub msg: String,
    /// Rule id.
    pub sid: u32,
    /// Content matches (all must hold, in order of appearance).
    pub contents: Vec<ContentMatch>,
    /// TCP flags requirement.
    pub flags: Option<FlagsSpec>,
    /// Payload size constraint `(min, max)`; `max == 0` means unbounded.
    pub dsize: Option<(usize, usize)>,
    /// Flow constraints.
    pub flow: Vec<FlowOption>,
    /// Rate limiting.
    pub threshold: Option<ThresholdOption>,
    /// Free-form classification tag.
    pub classtype: Option<String>,
}

impl Rule {
    /// A minimal alert rule skeleton (used by tests and builders).
    pub fn alert(proto: Proto, sid: u32, msg: &str) -> Rule {
        Rule {
            action: RuleAction::Alert,
            proto,
            src: AddrSpec::Any,
            src_port: PortSpec::Any,
            dst: AddrSpec::Any,
            dst_port: PortSpec::Any,
            bidirectional: false,
            msg: msg.to_string(),
            sid,
            contents: Vec::new(),
            flags: None,
            dsize: None,
            flow: Vec::new(),
            threshold: None,
            classtype: None,
        }
    }

    /// Whether the rule's header (proto/addr/port/direction) matches.
    pub fn header_matches(&self, packet: &Packet) -> bool {
        if !self.proto.matches(packet) {
            return false;
        }
        let forward = self.src.matches(packet.src)
            && self.dst.matches(packet.dst)
            && self.src_port.matches(packet.src_port())
            && self.dst_port.matches(packet.dst_port());
        if forward {
            return true;
        }
        if self.bidirectional {
            return self.src.matches(packet.dst)
                && self.dst.matches(packet.src)
                && self.src_port.matches(packet.dst_port())
                && self.dst_port.matches(packet.src_port());
        }
        false
    }

    /// Whether the rule's payload-level options match `payload` (content,
    /// dsize). Flags are checked separately since they need the TCP header.
    pub fn payload_matches(&self, payload: &[u8]) -> bool {
        if let Some((min, max)) = self.dsize {
            if payload.len() < min {
                return false;
            }
            if max != 0 && payload.len() > max {
                return false;
            }
        }
        self.contents.iter().all(|c| c.matches(payload))
    }

    /// Whether the TCP flags requirement matches.
    pub fn flags_match(&self, packet: &Packet) -> bool {
        match (self.flags, packet.as_tcp()) {
            (None, _) => true,
            (Some(spec), Some(tcp)) => {
                tcp.flags.0 & spec.set == spec.set && tcp.flags.0 & spec.clear == 0
            }
            (Some(_), None) => false,
        }
    }

    /// The first positive content (the "fast pattern" used for
    /// prefiltering), if any.
    pub fn fast_pattern(&self) -> Option<&ContentMatch> {
        self.contents
            .iter()
            .find(|c| !c.negated && !c.pattern.is_empty())
    }
}

/// Naive single-pattern search used for rule verification (with optional
/// case folding). Returns the offset of the first occurrence at or after
/// `from`.
pub fn find_sub(haystack: &[u8], needle: &[u8], nocase: bool, from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from.min(haystack.len()));
    }
    if from >= haystack.len() || haystack.len() - from < needle.len() {
        return None;
    }
    let eq = |a: u8, b: u8| {
        if nocase {
            a.eq_ignore_ascii_case(&b)
        } else {
            a == b
        }
    };
    'outer: for start in from..=haystack.len() - needle.len() {
        for (i, &nb) in needle.iter().enumerate() {
            if !eq(haystack[start + i], nb) {
                continue 'outer;
            }
        }
        return Some(start);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::wire::tcp::TcpFlags;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 5);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 6);

    fn tcp_pkt(payload: &[u8]) -> Packet {
        Packet::tcp(A, B, 4000, 80, 0, 0, TcpFlags::psh_ack(), payload.to_vec())
    }

    #[test]
    fn addr_spec_matching() {
        let spec = AddrSpec::Net(Cidr::slash24(A));
        assert!(spec.matches(A));
        assert!(!spec.matches(B));
        let not = AddrSpec::Not(Box::new(spec));
        assert!(!not.matches(A));
        assert!(not.matches(B));
        let list = AddrSpec::List(vec![Cidr::host(A), Cidr::host(B)]);
        assert!(list.matches(A) && list.matches(B));
        assert!(!list.matches(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn port_spec_matching() {
        assert!(PortSpec::Any.matches(Some(80)));
        assert!(PortSpec::Any.matches(None));
        assert!(PortSpec::One(80).matches(Some(80)));
        assert!(!PortSpec::One(80).matches(Some(81)));
        assert!(!PortSpec::One(80).matches(None));
        assert!(PortSpec::Range(1, 1024).matches(Some(25)));
        assert!(!PortSpec::Range(1, 1024).matches(Some(2000)));
        assert!(PortSpec::List(vec![25, 80, 443]).matches(Some(443)));
        let not = PortSpec::Not(Box::new(PortSpec::One(80)));
        assert!(!not.matches(Some(80)));
        assert!(not.matches(Some(81)));
        assert!(not.matches(None));
    }

    #[test]
    fn content_modifiers() {
        let payload = b"HEADER falun gong BODY";
        let mut c = ContentMatch::plain(b"falun");
        assert!(c.matches(payload));
        c.nocase = true;
        assert!(c.matches(b"FALUN"));
        // Offset past the match position.
        let c = ContentMatch {
            offset: 10,
            ..ContentMatch::plain(b"falun")
        };
        assert!(!c.matches(payload));
        // Depth window too small.
        let c = ContentMatch {
            offset: 0,
            depth: 5,
            ..ContentMatch::plain(b"falun")
        };
        assert!(!c.matches(payload));
        let c = ContentMatch {
            offset: 7,
            depth: 5,
            ..ContentMatch::plain(b"falun")
        };
        assert!(c.matches(payload));
        // Negated.
        let c = ContentMatch {
            negated: true,
            ..ContentMatch::plain(b"tibet")
        };
        assert!(c.matches(payload));
        let c = ContentMatch {
            negated: true,
            ..ContentMatch::plain(b"falun")
        };
        assert!(!c.matches(payload));
    }

    #[test]
    fn header_match_direction() {
        let mut rule = Rule::alert(Proto::Tcp, 1, "t");
        rule.src = AddrSpec::Net(Cidr::slash24(A));
        rule.dst_port = PortSpec::One(80);
        let pkt = tcp_pkt(b"x");
        assert!(rule.header_matches(&pkt));
        // Reverse direction fails without <>.
        let mut rev = pkt.clone();
        std::mem::swap(&mut rev.src, &mut rev.dst);
        if let PacketBody::Tcp(t) = &mut rev.body {
            std::mem::swap(&mut t.src_port, &mut t.dst_port);
        }
        assert!(!rule.header_matches(&rev));
        rule.bidirectional = true;
        assert!(rule.header_matches(&rev));
    }

    #[test]
    fn flags_and_dsize() {
        let mut rule = Rule::alert(Proto::Tcp, 2, "syn only");
        rule.flags = Some(FlagsSpec {
            set: TcpFlags::SYN,
            clear: TcpFlags::ACK,
        });
        let syn = Packet::tcp(A, B, 1, 2, 0, 0, TcpFlags::syn(), vec![]);
        let syn_ack = Packet::tcp(A, B, 1, 2, 0, 0, TcpFlags::syn_ack(), vec![]);
        assert!(rule.flags_match(&syn));
        assert!(!rule.flags_match(&syn_ack));
        let udp = Packet::udp(A, B, 1, 2, vec![]);
        assert!(!rule.flags_match(&udp), "flags on non-TCP never match");

        let mut rule = Rule::alert(Proto::Tcp, 3, "big");
        rule.dsize = Some((10, 0));
        assert!(!rule.payload_matches(b"short"));
        assert!(rule.payload_matches(b"long enough payload"));
        rule.dsize = Some((0, 4));
        assert!(rule.payload_matches(b"ok"));
        assert!(!rule.payload_matches(b"too long"));
    }

    #[test]
    fn fast_pattern_skips_negated() {
        let mut rule = Rule::alert(Proto::Tcp, 4, "t");
        rule.contents = vec![
            ContentMatch {
                negated: true,
                ..ContentMatch::plain(b"absent")
            },
            ContentMatch::plain(b"present"),
        ];
        assert_eq!(
            rule.fast_pattern().map(|c| c.pattern.as_slice()),
            Some(&b"present"[..])
        );
        rule.contents.truncate(1);
        assert!(rule.fast_pattern().is_none());
    }

    #[test]
    fn proto_selector() {
        let tcp = tcp_pkt(b"");
        let udp = Packet::udp(A, B, 1, 2, vec![]);
        assert!(Proto::Tcp.matches(&tcp));
        assert!(!Proto::Tcp.matches(&udp));
        assert!(Proto::Ip.matches(&tcp) && Proto::Ip.matches(&udp));
    }

    #[test]
    fn find_sub_offsets_and_nocase() {
        let hay = b"abcABCabc";
        assert_eq!(find_sub(hay, b"ABC", false, 0), Some(3));
        assert_eq!(find_sub(hay, b"ABC", true, 0), Some(0));
        assert_eq!(find_sub(hay, b"ABC", true, 1), Some(3));
        assert_eq!(find_sub(hay, b"ABC", false, 4), None);
        assert_eq!(find_sub(hay, b"", false, 2), Some(2));
        assert_eq!(find_sub(hay, b"toolongpattern", false, 0), None);
    }
}
