//! Ablation tests for the design decisions DESIGN.md §5 calls out:
//! RST-teardown semantics, MVR/alert ordering, attribution granularity,
//! and the flow state a censor keeps when it ignores RSTs. The first two
//! read the claims experiment A1 checks in its own worlds (the
//! `RoutedMimicryNet` with seed 71 and the scan testbed with seed 72), so
//! each ablation has one implementation.

use std::sync::OnceLock;

use underradar::spoof::anonymity_set;
use underradar_bench::experiments::{a1_ablations, Outcome};
use underradar_telemetry::Telemetry;

/// A1's outcome, run once for every test in this file.
fn a1() -> &'static Outcome {
    static A1: OnceLock<Outcome> = OnceLock::new();
    A1.get_or_init(|| a1_ablations::run_with(&Telemetry::disabled()))
}

/// Assert that A1 checked each claim in `names` and that it held.
fn assert_a1_claims(names: &[&str]) {
    let outcome = a1();
    for &name in names {
        let claim = outcome
            .claims
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("A1 lacks the claim '{name}'"));
        assert!(claim.pass, "A1 claim '{name}' failed\n{}", outcome.report);
    }
}

#[test]
fn rst_teardown_breaks_split_keyword_matching() {
    // Default censor (tears down on RST): the neighbor's RST lands between
    // the two keyword halves, the censor's reassembler forgets the flow,
    // and the split keyword is never assembled.
    assert_a1_claims(&[
        "neighbour RSTs past the teardown censor",
        "teardown censor misses the split keyword",
    ]);
}

#[test]
fn rst_ignoring_censor_still_catches_split_keyword() {
    // Ablation: a censor that ignores RSTs keeps its buffer and catches
    // the keyword despite the replay RST.
    assert_a1_claims(&[
        "neighbour RSTs past the RST-ignoring censor",
        "RST-ignoring censor catches the keyword",
    ]);
}

#[test]
fn mvr_ordering_is_what_protects_the_scan() {
    // Accuracy is unaffected by the ordering; only alert-first lets the
    // SYN-fanout rule re-identify the scan.
    assert_a1_claims(&[
        "scan censored under discard-first",
        "scan censored under alert-first",
        "discard-first: no client alerts",
        "alert-first: client alerts",
    ]);
}

#[test]
fn attribution_granularity_collapses_anonymity_sets() {
    // 32 observed sources spread over two /24s.
    let sources: Vec<std::net::Ipv4Addr> = (0..32u8)
        .map(|i| std::net::Ipv4Addr::new(10, 0, if i < 20 { 1 } else { 2 }, 10 + i))
        .collect();
    assert_eq!(anonymity_set(&sources, 32), 32);
    assert_eq!(anonymity_set(&sources, 24), 2);
    assert_eq!(anonymity_set(&sources, 16), 1);
    // The lesson: cover traffic confined to one /24 is only as good as the
    // adversary's attribution granularity is fine.
}

#[test]
fn censor_without_teardown_tracks_more_flows() {
    use underradar::ids::stream::StreamReassembler;
    use underradar::netsim::packet::Packet;
    use underradar::netsim::wire::tcp::TcpFlags;
    let c = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let s = std::net::Ipv4Addr::new(10, 0, 0, 2);
    let run = |teardown: bool| -> usize {
        let mut r = StreamReassembler::new();
        r.rst_teardown = teardown;
        for i in 0..50u16 {
            let syn = Packet::tcp(c, s, 4000 + i, 80, 0, 0, TcpFlags::syn(), vec![]);
            r.process(&syn);
            let rst = Packet::tcp(c, s, 4000 + i, 80, 1, 0, TcpFlags::rst(), vec![]);
            r.process(&rst);
        }
        r.flow_count()
    };
    assert_eq!(run(true), 0, "teardown frees state");
    assert_eq!(run(false), 50, "the ablation pays with 50 lingering flows");
}
