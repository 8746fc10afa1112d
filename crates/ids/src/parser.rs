//! Text parser for the Snort-dialect rule language.
//!
//! Grammar (one rule per line):
//!
//! ```text
//! action proto src_addr src_port (->|<>) dst_addr dst_port ( option; option; ... )
//! ```
//!
//! * addresses: `any`, `a.b.c.d`, `a.b.c.d/nn`, `$VAR`, `!spec`,
//!   `[spec,spec,...]`
//! * ports: `any`, `80`, `1:1024`, `[25,80,443]`, `!spec`
//! * options: `msg:"..."`, `content:"..."` (supports `|de ad|` hex runs and
//!   `!` negation) with `nocase`/`offset:n`/`depth:n` modifiers applying to
//!   the preceding content, `flags:S+A` style, `dsize:min<>max|>n|<n`,
//!   `flow:established,to_server`, `threshold: type limit, track by_src,
//!   count n, seconds s`, `sid:n`, `classtype:name`, `rev:n` (ignored),
//!   `priority:n` (ignored).

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;
use underradar_netsim::wire::tcp::TcpFlags;

use crate::rule::{
    AddrSpec, ContentMatch, FlagsSpec, FlowOption, PortSpec, Proto, Rule, RuleAction,
    ThresholdKind, ThresholdOption,
};

/// A rule-parsing failure, with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// What went wrong.
    pub message: String,
    /// The line (1-based) for ruleset parsing; 0 for single-rule parsing.
    pub line: usize,
}

impl RuleParseError {
    fn new(message: impl Into<String>) -> RuleParseError {
        RuleParseError {
            message: message.into(),
            line: 0,
        }
    }
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "rule parse error at line {}: {}",
                self.line, self.message
            )
        } else {
            write!(f, "rule parse error: {}", self.message)
        }
    }
}

impl std::error::Error for RuleParseError {}

/// Variable bindings for `$VAR` address references.
pub type VarTable = HashMap<String, AddrSpec>;

/// Parse a whole ruleset: one rule per line, `#` comments and blank lines
/// ignored.
pub fn parse_ruleset(text: &str, vars: &VarTable) -> Result<Vec<Rule>, RuleParseError> {
    let mut rules = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule = parse_rule(line, vars).map_err(|mut e| {
            e.line = i + 1;
            e
        })?;
        rules.push(rule);
    }
    Ok(rules)
}

/// Parse a single rule line.
pub fn parse_rule(line: &str, vars: &VarTable) -> Result<Rule, RuleParseError> {
    let (header, options) = match line.find('(') {
        Some(idx) => {
            let opts = line[idx..]
                .strip_prefix('(')
                .and_then(|s| s.trim_end().strip_suffix(')'))
                .ok_or_else(|| RuleParseError::new("unbalanced option parentheses"))?;
            (&line[..idx], Some(opts))
        }
        None => (line, None),
    };

    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() != 7 {
        return Err(RuleParseError::new(format!(
            "expected 7 header tokens (action proto src sport dir dst dport), got {}",
            tokens.len()
        )));
    }

    let action = match tokens[0] {
        "alert" => RuleAction::Alert,
        "log" => RuleAction::Log,
        "pass" => RuleAction::Pass,
        "drop" => RuleAction::Drop,
        "reject" => RuleAction::Reject,
        other => return Err(RuleParseError::new(format!("unknown action '{other}'"))),
    };
    let proto = match tokens[1] {
        "tcp" => Proto::Tcp,
        "udp" => Proto::Udp,
        "icmp" => Proto::Icmp,
        "ip" => Proto::Ip,
        other => return Err(RuleParseError::new(format!("unknown protocol '{other}'"))),
    };
    let src = parse_addr(tokens[2], vars)?;
    let src_port = parse_port(tokens[3])?;
    let bidirectional = match tokens[4] {
        "->" => false,
        "<>" => true,
        other => return Err(RuleParseError::new(format!("unknown direction '{other}'"))),
    };
    let dst = parse_addr(tokens[5], vars)?;
    let dst_port = parse_port(tokens[6])?;

    let mut rule = Rule {
        action,
        proto,
        src,
        src_port,
        dst,
        dst_port,
        bidirectional,
        msg: String::new(),
        sid: 0,
        contents: Vec::new(),
        flags: None,
        dsize: None,
        flow: Vec::new(),
        threshold: None,
        classtype: None,
    };

    if let Some(opts) = options {
        parse_options(opts, &mut rule)?;
    }
    Ok(rule)
}

fn parse_addr(token: &str, vars: &VarTable) -> Result<AddrSpec, RuleParseError> {
    if let Some(rest) = token.strip_prefix('!') {
        return Ok(AddrSpec::Not(Box::new(parse_addr(rest, vars)?)));
    }
    if token == "any" {
        return Ok(AddrSpec::Any);
    }
    if let Some(name) = token.strip_prefix('$') {
        return vars
            .get(name)
            .cloned()
            .ok_or_else(|| RuleParseError::new(format!("undefined variable '${name}'")));
    }
    if let Some(list) = token.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut nets = Vec::new();
        for item in list.split(',') {
            match parse_addr(item.trim(), vars)? {
                AddrSpec::Net(c) => nets.push(c),
                AddrSpec::List(cs) => nets.extend(cs),
                _ => {
                    return Err(RuleParseError::new(
                        "address lists may only contain networks",
                    ))
                }
            }
        }
        return Ok(AddrSpec::List(nets));
    }
    if token.contains('/') {
        let cidr: Cidr = token
            .parse()
            .map_err(|_| RuleParseError::new(format!("bad CIDR '{token}'")))?;
        return Ok(AddrSpec::Net(cidr));
    }
    let ip: Ipv4Addr = token
        .parse()
        .map_err(|_| RuleParseError::new(format!("bad address '{token}'")))?;
    Ok(AddrSpec::Net(Cidr::host(ip)))
}

fn parse_port(token: &str) -> Result<PortSpec, RuleParseError> {
    if let Some(rest) = token.strip_prefix('!') {
        return Ok(PortSpec::Not(Box::new(parse_port(rest)?)));
    }
    if token == "any" {
        return Ok(PortSpec::Any);
    }
    if let Some(list) = token.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let ports = list
            .split(',')
            .map(|p| p.trim().parse::<u16>())
            .collect::<Result<Vec<u16>, _>>()
            .map_err(|_| RuleParseError::new(format!("bad port list '{token}'")))?;
        return Ok(PortSpec::List(ports));
    }
    if let Some((lo, hi)) = token.split_once(':') {
        let lo: u16 = if lo.is_empty() {
            0
        } else {
            lo.parse()
                .map_err(|_| RuleParseError::new(format!("bad port range '{token}'")))?
        };
        let hi: u16 = if hi.is_empty() {
            u16::MAX
        } else {
            hi.parse()
                .map_err(|_| RuleParseError::new(format!("bad port range '{token}'")))?
        };
        return Ok(PortSpec::Range(lo, hi));
    }
    let p: u16 = token
        .parse()
        .map_err(|_| RuleParseError::new(format!("bad port '{token}'")))?;
    Ok(PortSpec::One(p))
}

/// Split option text on `;`, honoring quoted strings.
fn split_options(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escape = false;
    for c in text.chars() {
        if escape {
            current.push(c);
            escape = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                current.push(c);
                escape = true;
            }
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ';' if !in_quotes => {
                parts.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// Decode a quoted content string with `\"` escapes and `|hex|` runs.
fn decode_content(quoted: &str) -> Result<Vec<u8>, RuleParseError> {
    let inner = quoted
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| RuleParseError::new(format!("content must be quoted: {quoted}")))?;
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(mut c) = chars.next() {
        match c {
            // An escaped character stands for itself, UTF-8 encoded like
            // any other literal character.
            '\\' => {
                c = chars
                    .next()
                    .ok_or_else(|| RuleParseError::new("dangling escape in content"))?;
            }
            '|' => {
                let mut hex = String::new();
                for h in chars.by_ref() {
                    if h == '|' {
                        break;
                    }
                    hex.push(h);
                }
                for byte_str in hex.split_whitespace() {
                    let b = u8::from_str_radix(byte_str, 16).map_err(|_| {
                        RuleParseError::new(format!("bad hex byte '{byte_str}' in content"))
                    })?;
                    out.push(b);
                }
                continue;
            }
            _ => {}
        }
        let mut buf = [0u8; 4];
        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    }
    Ok(out)
}

fn parse_flags(value: &str) -> Result<FlagsSpec, RuleParseError> {
    // e.g. "S" (SYN and nothing else required set... Snort semantics: exact
    // match unless '+' suffix). We implement: letters = bits that must be
    // set; '+' = allow extra bits; without '+', all other flag bits must be
    // clear. '!' prefix unsupported.
    let (letters, plus) = match value.strip_suffix('+') {
        Some(l) => (l, true),
        None => (value, false),
    };
    let mut set = 0u8;
    for c in letters.chars() {
        set |= match c.to_ascii_uppercase() {
            'F' => TcpFlags::FIN,
            'S' => TcpFlags::SYN,
            'R' => TcpFlags::RST,
            'P' => TcpFlags::PSH,
            'A' => TcpFlags::ACK,
            'U' => TcpFlags::URG,
            other => {
                return Err(RuleParseError::new(format!("unknown TCP flag '{other}'")));
            }
        };
    }
    let clear = if plus { 0 } else { !set & 0x3f };
    Ok(FlagsSpec { set, clear })
}

fn parse_dsize(value: &str) -> Result<(usize, usize), RuleParseError> {
    let value = value.trim();
    if let Some((lo, hi)) = value.split_once("<>") {
        let lo: usize = lo
            .trim()
            .parse()
            .map_err(|_| RuleParseError::new(format!("bad dsize '{value}'")))?;
        let hi: usize = hi
            .trim()
            .parse()
            .map_err(|_| RuleParseError::new(format!("bad dsize '{value}'")))?;
        return Ok((lo, hi));
    }
    if let Some(n) = value.strip_prefix('>') {
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| RuleParseError::new(format!("bad dsize '{value}'")))?;
        return Ok((n + 1, 0));
    }
    if let Some(n) = value.strip_prefix('<') {
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| RuleParseError::new(format!("bad dsize '{value}'")))?;
        return Ok((0, n.saturating_sub(1)));
    }
    let n: usize = value
        .parse()
        .map_err(|_| RuleParseError::new(format!("bad dsize '{value}'")))?;
    Ok((n, n))
}

fn parse_threshold(value: &str) -> Result<ThresholdOption, RuleParseError> {
    let mut kind = None;
    let mut track_by_src = true;
    let mut count = None;
    let mut seconds = None;
    for part in value.split(',') {
        let part = part.trim();
        let mut words = part.split_whitespace();
        match (words.next(), words.next()) {
            (Some("type"), Some(t)) => {
                kind = Some(match t {
                    "limit" => ThresholdKind::Limit,
                    "threshold" => ThresholdKind::Threshold,
                    "both" => ThresholdKind::Both,
                    other => {
                        return Err(RuleParseError::new(format!(
                            "unknown threshold type '{other}'"
                        )))
                    }
                });
            }
            (Some("track"), Some(t)) => {
                track_by_src = match t {
                    "by_src" => true,
                    "by_dst" => false,
                    other => return Err(RuleParseError::new(format!("unknown track '{other}'"))),
                };
            }
            (Some("count"), Some(n)) => {
                count = Some(
                    n.parse::<u32>()
                        .map_err(|_| RuleParseError::new(format!("bad threshold count '{n}'")))?,
                );
            }
            (Some("seconds"), Some(n)) => {
                seconds =
                    Some(n.parse::<u32>().map_err(|_| {
                        RuleParseError::new(format!("bad threshold seconds '{n}'"))
                    })?);
            }
            _ => {
                return Err(RuleParseError::new(format!(
                    "bad threshold clause '{part}'"
                )))
            }
        }
    }
    Ok(ThresholdOption {
        kind: kind.ok_or_else(|| RuleParseError::new("threshold missing type"))?,
        track_by_src,
        count: count.ok_or_else(|| RuleParseError::new("threshold missing count"))?,
        seconds: seconds.ok_or_else(|| RuleParseError::new("threshold missing seconds"))?,
    })
}

fn parse_options(text: &str, rule: &mut Rule) -> Result<(), RuleParseError> {
    for opt in split_options(text) {
        let (key, value) = match opt.split_once(':') {
            Some((k, v)) => (k.trim(), Some(v.trim().to_string())),
            None => (opt.as_str(), None),
        };
        match key {
            "msg" => {
                let v = value.ok_or_else(|| RuleParseError::new("msg needs a value"))?;
                rule.msg = v.trim_matches('"').to_string();
            }
            "content" => {
                let v = value.ok_or_else(|| RuleParseError::new("content needs a value"))?;
                let (negated, quoted) = match v.strip_prefix('!') {
                    Some(rest) => (true, rest.trim()),
                    None => (false, v.as_str()),
                };
                rule.contents.push(ContentMatch {
                    pattern: decode_content(quoted)?,
                    nocase: false,
                    offset: 0,
                    depth: 0,
                    negated,
                });
            }
            "nocase" => {
                let c = rule
                    .contents
                    .last_mut()
                    .ok_or_else(|| RuleParseError::new("nocase before any content"))?;
                c.nocase = true;
            }
            "offset" => {
                let v = value.ok_or_else(|| RuleParseError::new("offset needs a value"))?;
                let c = rule
                    .contents
                    .last_mut()
                    .ok_or_else(|| RuleParseError::new("offset before any content"))?;
                c.offset = v
                    .parse()
                    .map_err(|_| RuleParseError::new(format!("bad offset '{v}'")))?;
            }
            "depth" => {
                let v = value.ok_or_else(|| RuleParseError::new("depth needs a value"))?;
                let c = rule
                    .contents
                    .last_mut()
                    .ok_or_else(|| RuleParseError::new("depth before any content"))?;
                c.depth = v
                    .parse()
                    .map_err(|_| RuleParseError::new(format!("bad depth '{v}'")))?;
            }
            "flags" => {
                let v = value.ok_or_else(|| RuleParseError::new("flags needs a value"))?;
                rule.flags = Some(parse_flags(&v)?);
            }
            "dsize" => {
                let v = value.ok_or_else(|| RuleParseError::new("dsize needs a value"))?;
                rule.dsize = Some(parse_dsize(&v)?);
            }
            "flow" => {
                let v = value.ok_or_else(|| RuleParseError::new("flow needs a value"))?;
                for f in v.split(',') {
                    rule.flow.push(match f.trim() {
                        "established" => FlowOption::Established,
                        "to_server" => FlowOption::ToServer,
                        "to_client" => FlowOption::ToClient,
                        "stateless" => continue,
                        other => {
                            return Err(RuleParseError::new(format!("unknown flow '{other}'")))
                        }
                    });
                }
            }
            "threshold" => {
                let v = value.ok_or_else(|| RuleParseError::new("threshold needs a value"))?;
                rule.threshold = Some(parse_threshold(&v)?);
            }
            "sid" => {
                let v = value.ok_or_else(|| RuleParseError::new("sid needs a value"))?;
                rule.sid = v
                    .parse()
                    .map_err(|_| RuleParseError::new(format!("bad sid '{v}'")))?;
            }
            "classtype" => {
                rule.classtype = value;
            }
            "rev" | "priority" | "reference" | "metadata" | "gid" => {
                // Accepted and ignored: present in real rulesets.
            }
            other => {
                return Err(RuleParseError::new(format!("unknown option '{other}'")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> VarTable {
        let mut v = VarTable::new();
        v.insert(
            "HOME_NET".to_string(),
            AddrSpec::Net(Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)),
        );
        v.insert(
            "EXTERNAL_NET".to_string(),
            AddrSpec::Not(Box::new(AddrSpec::Net(Cidr::new(
                Ipv4Addr::new(10, 0, 0, 0),
                8,
            )))),
        );
        v
    }

    #[test]
    fn parses_gfw_style_keyword_rule() {
        let rule = parse_rule(
            r#"alert tcp $HOME_NET any -> any 80 (msg:"GFW keyword falun"; content:"falun"; nocase; sid:3000001; rev:2;)"#,
            &vars(),
        )
        .expect("parse");
        assert_eq!(rule.action, RuleAction::Alert);
        assert_eq!(rule.proto, Proto::Tcp);
        assert_eq!(rule.dst_port, PortSpec::One(80));
        assert_eq!(rule.msg, "GFW keyword falun");
        assert_eq!(rule.sid, 3000001);
        assert_eq!(rule.contents.len(), 1);
        assert!(rule.contents[0].nocase);
        assert_eq!(rule.contents[0].pattern, b"falun");
        assert!(rule.src.matches(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(!rule.src.matches(Ipv4Addr::new(11, 1, 2, 3)));
    }

    #[test]
    fn parses_scan_detector_with_threshold_and_flags() {
        let rule = parse_rule(
            r#"alert tcp any any -> $HOME_NET any (msg:"SYN scan"; flags:S; threshold: type threshold, track by_src, count 20, seconds 60; sid:1000010;)"#,
            &vars(),
        )
        .expect("parse");
        let f = rule.flags.expect("flags");
        assert_eq!(f.set, TcpFlags::SYN);
        assert_ne!(f.clear & TcpFlags::ACK, 0, "plain S forbids ACK");
        let t = rule.threshold.expect("threshold");
        assert_eq!(t.kind, ThresholdKind::Threshold);
        assert!(t.track_by_src);
        assert_eq!((t.count, t.seconds), (20, 60));
    }

    #[test]
    fn flags_plus_allows_extra_bits() {
        let rule = parse_rule(
            "alert tcp any any -> any any (msg:\"syn maybe more\"; flags:S+; sid:5;)",
            &VarTable::new(),
        )
        .expect("parse");
        let f = rule.flags.expect("flags");
        assert_eq!(f.set, TcpFlags::SYN);
        assert_eq!(f.clear, 0);
    }

    #[test]
    fn hex_content_and_negated_content() {
        let rule = parse_rule(
            r#"alert udp any any -> any 53 (msg:"dns odd"; content:"|01 00 00 01|"; offset:2; depth:4; content:!"safe"; sid:6;)"#,
            &VarTable::new(),
        )
        .expect("parse");
        assert_eq!(rule.contents.len(), 2);
        assert_eq!(rule.contents[0].pattern, vec![0x01, 0x00, 0x00, 0x01]);
        assert_eq!(rule.contents[0].offset, 2);
        assert_eq!(rule.contents[0].depth, 4);
        assert!(rule.contents[1].negated);
        assert_eq!(rule.contents[1].pattern, b"safe");
    }

    #[test]
    fn escaped_quote_and_semicolon_in_content() {
        let rule = parse_rule(
            r#"alert tcp any any -> any any (msg:"m"; content:"a\"b;c"; sid:7;)"#,
            &VarTable::new(),
        )
        .expect("parse");
        assert_eq!(rule.contents[0].pattern, b"a\"b;c");
    }

    #[test]
    fn escaped_non_ascii_content_keeps_its_utf8_bytes() {
        let rule = parse_rule(
            r#"alert tcp any any -> any any (msg:"m"; content:"x\é\𐍈y"; sid:8;)"#,
            &VarTable::new(),
        )
        .expect("parse");
        assert_eq!(rule.contents[0].pattern, "xé𐍈y".as_bytes());
    }

    #[test]
    fn port_specs() {
        let vt = VarTable::new();
        let r = parse_rule("alert tcp any 1:1024 -> any [25,587] (sid:1;)", &vt).expect("p");
        assert_eq!(r.src_port, PortSpec::Range(1, 1024));
        assert_eq!(r.dst_port, PortSpec::List(vec![25, 587]));
        let r = parse_rule("alert tcp any !80 -> any :1000 (sid:2;)", &vt).expect("p");
        assert!(matches!(r.src_port, PortSpec::Not(_)));
        assert_eq!(r.dst_port, PortSpec::Range(0, 1000));
        let r = parse_rule("alert tcp any 1024: -> any any (sid:3;)", &vt).expect("p");
        assert_eq!(r.src_port, PortSpec::Range(1024, u16::MAX));
    }

    #[test]
    fn address_lists_and_negation() {
        let r = parse_rule(
            "alert ip [192.0.2.0/24,198.51.100.7] any -> !203.0.113.0/24 any (sid:4;)",
            &VarTable::new(),
        )
        .expect("p");
        assert!(r.src.matches(Ipv4Addr::new(192, 0, 2, 77)));
        assert!(r.src.matches(Ipv4Addr::new(198, 51, 100, 7)));
        assert!(!r.src.matches(Ipv4Addr::new(198, 51, 100, 8)));
        assert!(!r.dst.matches(Ipv4Addr::new(203, 0, 113, 5)));
        assert!(r.dst.matches(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn dsize_forms() {
        let vt = VarTable::new();
        let d = |s: &str| {
            parse_rule(
                &format!("alert tcp any any -> any any (dsize:{s}; sid:1;)"),
                &vt,
            )
            .expect("p")
            .dsize
            .expect("dsize")
        };
        assert_eq!(d(">100"), (101, 0));
        assert_eq!(d("<100"), (0, 99));
        assert_eq!(d("300<>400"), (300, 400));
        assert_eq!(d("64"), (64, 64));
    }

    #[test]
    fn ruleset_with_comments_and_line_numbers_in_errors() {
        let text = "\n# censor rules\nalert tcp any any -> any 80 (msg:\"a\"; sid:1;)\n\nbogus rule here\n";
        let err = parse_ruleset(text, &VarTable::new()).expect_err("bad line");
        assert_eq!(err.line, 5);
        let ok = parse_ruleset("# only comments\n\n", &VarTable::new()).expect("empty ok");
        assert!(ok.is_empty());
    }

    #[test]
    fn undefined_variable_is_an_error() {
        let err = parse_rule("alert tcp $NOPE any -> any any (sid:1;)", &VarTable::new())
            .expect_err("undefined");
        assert!(err.message.contains("NOPE"));
    }

    #[test]
    fn rejects_malformed_headers() {
        let vt = VarTable::new();
        assert!(parse_rule("alert tcp any any -> any", &vt).is_err());
        assert!(parse_rule("alarm tcp any any -> any any (sid:1;)", &vt).is_err());
        assert!(parse_rule("alert xtp any any -> any any (sid:1;)", &vt).is_err());
        assert!(parse_rule("alert tcp any any >> any any (sid:1;)", &vt).is_err());
        assert!(parse_rule("alert tcp any any -> any any (sid:1;", &vt).is_err());
    }

    #[test]
    fn bidirectional_rule() {
        let r = parse_rule("alert tcp any any <> any 25 (sid:9;)", &VarTable::new()).expect("p");
        assert!(r.bidirectional);
    }

    #[test]
    fn modifier_before_content_is_an_error() {
        let err = parse_rule(
            "alert tcp any any -> any any (nocase; content:\"x\"; sid:1;)",
            &VarTable::new(),
        )
        .expect_err("nocase first");
        assert!(err.message.contains("nocase"));
    }
}
