//! Property tests for the IDS: substring-search consistency,
//! content-modifier semantics, parser totality, threshold accounting, and
//! reassembly invariants. Inputs come from the in-tree seeded generator
//! ([`underradar_netsim::testprop`]).

use std::net::Ipv4Addr;

use underradar_ids::engine::DetectionEngine;
use underradar_ids::parser::{parse_rule, parse_ruleset, VarTable};
use underradar_ids::rule::AddrSpec;
use underradar_ids::rule::{find_sub, ContentMatch};
use underradar_ids::stream::{
    Direction, FlowId, FlowKey, FlowState, ReassemblyConfig, StreamReassembler,
};
use underradar_netsim::addr::Cidr;
use underradar_netsim::packet::Packet;
use underradar_netsim::testprop::{cases, Gen};
use underradar_netsim::time::SimTime;
use underradar_netsim::wire::tcp::TcpFlags;

/// find_sub with `from` equals searching the suffix.
#[test]
fn find_sub_offset_consistency() {
    cases(256, 0xD003, |g| {
        let haystack = g.bytes(0, 120);
        let needle = g.bytes(1, 6);
        let from = g.usize_in(0, 140);
        let direct = find_sub(&haystack, &needle, false, from);
        let suffix = if from <= haystack.len() {
            find_sub(&haystack[from..], &needle, false, 0).map(|p| p + from)
        } else {
            None
        };
        assert_eq!(direct, suffix);
    });
}

/// ContentMatch window semantics: a match found with offset/depth is
/// always inside the declared window.
#[test]
fn content_window_respected() {
    cases(256, 0xD004, |g| {
        let payload = g.bytes(0, 100);
        let needle = g.bytes(1, 4);
        let offset = g.usize_in(0, 110);
        let depth = g.usize_in(0, 110);
        let c = ContentMatch {
            pattern: needle.clone(),
            nocase: false,
            offset,
            depth,
            negated: false,
        };
        if c.matches(&payload) {
            let end = if depth == 0 {
                payload.len()
            } else {
                (offset + depth).min(payload.len())
            };
            let window = payload.get(offset..end).unwrap_or(&[]);
            assert!(find_sub(window, &needle, false, 0).is_some());
        }
    });
}

/// Negation is an exact complement.
#[test]
fn negated_content_is_complement() {
    cases(256, 0xD005, |g| {
        let payload = g.bytes(0, 60);
        let needle = g.bytes(1, 4);
        let plain = ContentMatch::plain(&needle);
        let negated = ContentMatch {
            negated: true,
            ..ContentMatch::plain(&needle)
        };
        assert_ne!(plain.matches(&payload), negated.matches(&payload));
    });
}

/// The rule parser is total over arbitrary printable lines.
#[test]
fn parser_never_panics() {
    cases(512, 0xD006, |g| {
        let line = g.printable(0, 120);
        let _ = parse_rule(&line, &VarTable::new());
    });
}

/// Valid rule lines that together reach every option arm, every header
/// form (variables, negation, lists, ranges, bidirectional) and every
/// content encoding (escapes, hex runs, non-ASCII text).
const SEED_RULES: &[&str] = &[
    r#"alert tcp $HOME_NET any -> any 80 (msg:"GFW keyword falun"; content:"falun"; nocase; sid:3000001; rev:2;)"#,
    r#"alert tcp any any -> $HOME_NET any (msg:"SYN scan"; flags:S; threshold: type threshold, track by_src, count 20, seconds 60; sid:1000010;)"#,
    r#"alert udp any any -> any 53 (msg:"dns odd"; content:"|01 00 00 01|"; offset:2; depth:4; content:!"safe"; sid:6;)"#,
    r#"alert tcp any 1:1024 -> [192.0.2.0/24,198.51.100.7] [25,587] (msg:"m"; content:"a\"b;c"; flow:to_server,established; dsize:>100; classtype:policy-violation; priority:2; sid:7;)"#,
    r#"pass ip !203.0.113.0/24 !80 <> any :1000 (msg:"x\é"; content:"x\é\𐍈y"; reference:url,example.org; metadata:k v; gid:1; sid:8;)"#,
    r#"log icmp any any -> any any (flags:S+; dsize:10<>20; threshold: type limit, track by_dst, count 1, seconds 5; sid:9;)"#,
];

/// Non-ASCII text and rule punctuation spliced into seed rules.
const SPLICES: &[&str] = &[
    "é",
    "𐍈",
    "日本語",
    "\u{FFFD}",
    "\0",
    ";",
    "(",
    ")",
    "\"",
    "\\",
    "|",
    ":",
    ",",
    "!",
    "[",
    "]",
    "$",
    "<>",
    "->",
    " ",
    "|zz|",
    "|0",
    "content:",
    "dsize:",
    "threshold:",
    "flow:",
    "sid:",
    "18446744073709551616",
    "-1",
    ">",
    "<",
];

/// A seed rule after one to three byte flips, truncations or splices.
fn mutated_rule(g: &mut Gen) -> String {
    let mut bytes = g.choose(SEED_RULES).as_bytes().to_vec();
    for _ in 0..g.usize_in(1, 4) {
        match g.usize_in(0, 3) {
            0 if !bytes.is_empty() => {
                let at = g.usize_in(0, bytes.len());
                bytes[at] ^= g.u8_in(1, 255);
            }
            1 => bytes.truncate(g.usize_in(0, bytes.len() + 1)),
            _ => {
                let at = g.usize_in(0, bytes.len() + 1);
                let splice = g.choose(SPLICES).as_bytes();
                bytes.splice(at..at, splice.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The rule parser is total over mutated valid rules: near-valid input,
/// which reaches deep into the option arms, returns an error or a rule
/// and never panics, one line at a time or as a ruleset.
#[test]
fn parser_never_panics_on_mutated_rules() {
    let mut vars = VarTable::new();
    vars.insert(
        "HOME_NET".to_string(),
        AddrSpec::Net(Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)),
    );
    for seed in SEED_RULES {
        assert!(
            parse_rule(seed, &vars).is_ok(),
            "seed rule must parse: {seed}"
        );
    }
    cases(16384, 0xD00A, |g| {
        let lines: Vec<String> = (0..g.usize_in(1, 4)).map(|_| mutated_rule(g)).collect();
        for line in &lines {
            let _ = parse_rule(line, &vars);
        }
        let _ = parse_ruleset(&lines.join("\n"), &vars);
    });
}

/// Engine thresholds: a `limit N` rule alerts at most N times per window
/// per source, for any event count.
#[test]
fn threshold_limit_bound() {
    cases(48, 0xD007, |g| {
        let events = g.usize_in(1, 60);
        let count = g.u32_in(1, 10);
        let rules = underradar_ids::parser::parse_ruleset(
            &format!(
                "alert icmp any any -> any any (msg:\"t\"; threshold: type limit, track by_src, count {count}, seconds 600; sid:1;)"
            ),
            &VarTable::new(),
        ).expect("rule parses");
        let mut engine = DetectionEngine::new(rules);
        let a = Ipv4Addr::new(1, 1, 1, 1);
        let b = Ipv4Addr::new(2, 2, 2, 2);
        let mut fired = 0usize;
        for i in 0..events {
            let pkt = Packet::icmp(
                a,
                b,
                underradar_netsim::wire::icmp::IcmpKind::EchoRequest {
                    ident: 0,
                    seq: i as u16,
                },
                vec![],
            );
            fired += engine.process(SimTime::from_nanos(i as u64), &pkt).len();
        }
        assert_eq!(fired, events.min(count as usize));
    });
}

/// Reassembly: feeding a stream in order always yields the full
/// concatenation in the buffered window (within the buffer cap).
#[test]
fn reassembly_accumulates_in_order() {
    cases(128, 0xD008, |g| {
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let s = Ipv4Addr::new(10, 0, 0, 2);
        let n_chunks = g.usize_in(1, 10);
        let chunks: Vec<Vec<u8>> = (0..n_chunks).map(|_| g.bytes(1, 50)).collect();
        let mut r = StreamReassembler::new();
        let mut expected = Vec::new();
        let mut seq = 1000u32;
        let mut key = None;
        for chunk in &chunks {
            let pkt = Packet::tcp(c, s, 4000, 80, seq, 0, TcpFlags::psh_ack(), chunk.clone());
            let ctx = r.process(&pkt).expect("tcp");
            assert!(ctx.appended);
            assert_eq!(ctx.new_bytes, chunk.len());
            expected.extend_from_slice(chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
            key = Some((ctx.key, ctx.direction));
        }
        let (key, dir) = key.expect("at least one chunk");
        assert_eq!(r.stream_of(&key, dir), &expected[..]);
    });
}

/// Random segments never panic the reassembler; flow count stays bounded
/// by the number of distinct four-tuples; and the eviction-order
/// bookkeeping always matches the live flow table exactly (the seed leaked
/// an order entry per flow ever created).
#[test]
fn reassembler_total_and_bounded() {
    cases(192, 0xD009, |g| {
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let s = Ipv4Addr::new(10, 0, 0, 2);
        let mut r = StreamReassembler::new();
        let mut tuples = std::collections::HashSet::new();
        let n = g.usize_in(0, 60);
        for _ in 0..n {
            let sport = 1 + (g.u16() % 8); // few distinct flows
            let seq = g.u32();
            let flags = g.u8_in(0, 64);
            let payload = g.bytes(0, 20);
            tuples.insert(sport);
            let pkt = Packet::tcp(c, s, sport, 80, seq, 0, TcpFlags(flags), payload);
            let ctx = r.process(&pkt);
            // Occasionally tear a flow down explicitly, like the engine may.
            if let Some(ctx) = ctx {
                if g.usize_in(0, 8) == 0 {
                    r.remove(&ctx.key);
                }
            }
            assert_eq!(r.order_len(), r.flow_count());
        }
        assert!(r.flow_count() <= tuples.len());
    });
}

/// `stream_of` on an unknown flow is empty, and direction views are
/// independent.
#[test]
fn stream_of_unknown_flow_is_empty() {
    let r = StreamReassembler::new();
    let key = FlowKey {
        lo: (Ipv4Addr::new(1, 1, 1, 1), 1),
        hi: (Ipv4Addr::new(2, 2, 2, 2), 2),
    };
    assert!(r.stream_of(&key, Direction::ToServer).is_empty());
    assert!(r.stream_of(&key, Direction::ToClient).is_empty());
}

/// A consumer state for the lifetime property: the last value written.
#[derive(Debug, Default, PartialEq)]
struct Written(u64);

impl FlowState for Written {
    fn reset(&mut self) {
        self.0 = 0;
    }
}

/// Consumer state lives exactly as long as its flow. Random schedules over
/// a few 4-tuples, in a table small enough to evict, mix SYN, data, RST,
/// FIN/FIN/ACK closes, `remove` and 4-tuple reuse, and write per-flow
/// values as they go. A model flow table, kept apart from the
/// reassembler, decides which flows live; after every packet each live
/// flow reads back the model's value, a dead flow's handle reads `None`
/// and creates nothing, and the touched count is the model's.
#[test]
fn flow_state_lives_exactly_as_long_as_its_flow() {
    let (c, s) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    cases(128, 0xD00F, |g| {
        let max_flows = g.usize_in(1, 4);
        let mut r: StreamReassembler<Written> = StreamReassembler::with_config(ReassemblyConfig {
            max_flows,
            ..ReassemblyConfig::default()
        });
        // Live flows, oldest (next evicted) first: source port, handle,
        // FIN seen from [client, server], value written.
        let mut live: Vec<(u16, FlowId, [bool; 2], Option<u64>)> = Vec::new();
        let mut dead: Vec<FlowId> = Vec::new();
        for _ in 0..g.usize_in(1, 60) {
            let sport = 1000 + g.u16() % 4;
            let key = FlowKey::from_endpoints((c, sport), (s, 80));
            let fwd = |flags, payload| Some(Packet::tcp(c, s, sport, 80, 7, 0, flags, payload));
            let rev = |flags| Some(Packet::tcp(s, c, 80, sport, 9, 0, flags, vec![]));
            let steps = match g.usize_in(0, 6) {
                0 => vec![fwd(TcpFlags::syn(), vec![])],
                1 => vec![fwd(TcpFlags::psh_ack(), g.bytes(1, 8))],
                2 => vec![fwd(TcpFlags::rst(), vec![])],
                3 => vec![
                    fwd(TcpFlags::fin_ack(), vec![]),
                    rev(TcpFlags::fin_ack()),
                    fwd(TcpFlags::ack(), vec![]),
                ],
                4 => vec![rev(TcpFlags::fin_ack())],
                _ => vec![None], // an explicit `remove`
            };
            for step in steps {
                let pos = live.iter().position(|f| f.0 == sport);
                let died = match &step {
                    None => {
                        r.remove(&key);
                        pos.is_some()
                    }
                    Some(p) => {
                        let ctx = r.process(p).expect("tcp");
                        let seg = p.as_tcp().expect("tcp");
                        let (flags, side) = (seg.flags, usize::from(p.src == s));
                        match pos {
                            Some(_) if flags.has_rst() => true,
                            Some(i) => {
                                let fins = &mut live[i].2;
                                fins[side] |= flags.has_fin();
                                fins[0]
                                    && fins[1]
                                    && flags.has_ack()
                                    && !flags.has_fin()
                                    && !flags.has_syn()
                                    && seg.payload.is_empty()
                            }
                            None if flags.has_rst() => false,
                            None => {
                                if live.len() == max_flows {
                                    dead.push(live.remove(0).1);
                                }
                                let mut fins = [false; 2];
                                fins[side] = flags.has_fin();
                                live.push((sport, ctx.id.expect("a new flow"), fins, None));
                                false
                            }
                        }
                    }
                };
                if died {
                    dead.push(live.remove(pos.expect("a live flow died")).1);
                }
                // Write a value on this flow now and then, through either
                // creating accessor.
                if let Some(f) = live.iter_mut().find(|f| f.0 == sport) {
                    if g.bool() {
                        let state = if g.bool() {
                            r.state_mut(f.1)
                        } else {
                            r.stream_and_state(f.1, Direction::ToServer)
                                .map(|(_, st)| st)
                        };
                        let v = g.u64();
                        state.expect("live flow").0 = v;
                        f.3 = Some(v);
                    }
                }
                for &(sport, id, _, value) in &live {
                    let key = FlowKey::from_endpoints((c, sport), (s, 80));
                    assert_eq!(r.flow_id(&key), Some(id), "model and table agree");
                    assert_eq!(r.state(id), value.map(Written).as_ref());
                }
                for &id in &dead {
                    assert_eq!(r.state(id), None, "a dead flow's state is gone");
                    assert_eq!(r.state_mut(id), None, "a dead handle creates nothing");
                }
                let touched = live.iter().filter(|f| f.3.is_some()).count();
                assert_eq!(r.state_count(), touched);
            }
        }
    });
}
