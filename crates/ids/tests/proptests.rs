//! Property tests for the IDS: substring-search consistency,
//! content-modifier semantics, parser totality, threshold accounting, and
//! reassembly invariants. Inputs come from the in-tree seeded generator
//! ([`underradar_netsim::testprop`]).

use std::net::Ipv4Addr;

use underradar_ids::engine::DetectionEngine;
use underradar_ids::parser::{parse_rule, VarTable};
use underradar_ids::rule::{find_sub, ContentMatch};
use underradar_ids::stream::{Direction, FlowKey, StreamReassembler};
use underradar_netsim::packet::Packet;
use underradar_netsim::testprop::cases;
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
