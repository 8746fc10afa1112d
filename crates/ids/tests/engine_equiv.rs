//! Old-vs-new engine equivalence: the rebuilt hot path (dense-DFA
//! prefilter, proto/port rule groups, epoch-stamped candidate set,
//! dedup-before-evaluation, seen-retirement) must produce *byte-identical*
//! alert output to the pre-rebuild engine.
//!
//! The oracle here is a [`ReferenceEngine`] that replicates the old
//! engine's observable semantics with no shortlisting at all: every pass
//! rule is evaluated against every packet, every alert rule is a candidate
//! for every packet, and per-flow dedup runs *after* `rule_matches` — the
//! literal pre-rebuild behaviour. (The old prefilter only ever removed
//! rules that provably could not match, so the naive engine and the old
//! engine emit the same alerts; any divergence between the naive engine
//! and the new one is therefore a real behaviour change.)
//!
//! Random rulesets mix alert/pass, flow constraints, nocase and
//! case-sensitive contents, negated contents, dsize, thresholds, port
//! shapes and bidirectional headers; random schedules mix handshakes,
//! in-order and reordered segments, duplicates, RST teardowns with flow
//! reuse, UDP and ICMP traffic.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use underradar_ids::alert::Alert;
use underradar_ids::engine::{CompiledRuleset, DetectionEngine};
use underradar_ids::rule::{
    ContentMatch, FlowOption, PortSpec, Proto, Rule, RuleAction, ThresholdKind, ThresholdOption,
};
use underradar_ids::stream::{
    Direction, FlowContext, FlowId, FlowKey, ReassemblyConfig, StreamReassembler,
};
use underradar_netsim::packet::Packet;
use underradar_netsim::testprop::{cases, Gen};
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::wire::icmp::IcmpKind;
use underradar_netsim::wire::tcp::TcpFlags;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const CLIENT2: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 9);
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// The pre-rebuild engine, naively: no prefilter, no grouping, dedup after
/// evaluation. Shares `rule_matches` semantics by re-deriving them from
/// the public rule predicates.
struct ReferenceEngine {
    rules: Vec<Rule>,
    reassembler: StreamReassembler,
    thresholds: HashMap<(u32, Ipv4Addr), (SimTime, u32)>,
    /// Stream-rule dedup per 4-tuple, tagged with the handle of the flow
    /// it was recorded for. Kept here, not in the reassembler's consumer
    /// state, so the oracle does not share the mechanism it checks.
    flow_alerted: HashMap<FlowKey, (Option<FlowId>, Vec<u32>)>,
    passed: u64,
}

impl ReferenceEngine {
    fn new(rules: Vec<Rule>) -> ReferenceEngine {
        ReferenceEngine {
            rules,
            reassembler: StreamReassembler::new(),
            thresholds: HashMap::new(),
            flow_alerted: HashMap::new(),
            passed: 0,
        }
    }

    fn rule_matches(
        rule: &Rule,
        packet: &Packet,
        flow: Option<&FlowContext>,
        stream: &[u8],
    ) -> bool {
        if !rule.header_matches(packet) || !rule.flags_match(packet) {
            return false;
        }
        if !rule.flow.is_empty() {
            let Some(ctx) = flow else { return false };
            for f in &rule.flow {
                let ok = match f {
                    FlowOption::Established => ctx.established,
                    FlowOption::ToServer => ctx.direction == Direction::ToServer,
                    FlowOption::ToClient => ctx.direction == Direction::ToClient,
                };
                if !ok {
                    return false;
                }
            }
            return rule.payload_matches(stream);
        }
        rule.payload_matches(packet.body.payload())
    }

    fn process(&mut self, now: SimTime, packet: &Packet) -> Vec<Alert> {
        let flow_ctx = self.reassembler.process(packet);
        // A dedup entry dies with its flow: drop it once the packet's flow
        // was torn down or is a different flow than the entry's (the old
        // one was torn down or evicted in between).
        if let Some(ctx) = &flow_ctx {
            if self
                .flow_alerted
                .get(&ctx.key)
                .is_some_and(|(id, _)| ctx.torn_down || *id != ctx.id)
            {
                self.flow_alerted.remove(&ctx.key);
            }
        }
        let stream: &[u8] = match &flow_ctx {
            Some(ctx) => self.reassembler.stream_of(&ctx.key, ctx.direction),
            None => &[],
        };
        // Pass rules: every one, every packet (the old cost model).
        for rule in self.rules.iter().filter(|r| r.action == RuleAction::Pass) {
            if Self::rule_matches(rule, packet, flow_ctx.as_ref(), stream) {
                self.passed += 1;
                return Vec::new();
            }
        }
        let mut fired = Vec::new();
        for rule in self.rules.iter().filter(|r| r.action != RuleAction::Pass) {
            if !Self::rule_matches(rule, packet, flow_ctx.as_ref(), stream) {
                continue;
            }
            // Old ordering: dedup checked only after a successful match.
            // One deliberate divergence from the literal pre-rebuild code:
            // an alert with no live flow behind it (the teardown segment
            // itself, or an RST on an untracked 4-tuple) records no dedup
            // entry. The old engine pushed the sid under the dead flow's
            // key, leaking a suppression onto the *next* flow reusing that
            // 4-tuple — contradicting its own fresh-flow invariant. The
            // generational flow table fixes this by construction, so the
            // oracle models the fixed semantics.
            if !rule.flow.is_empty() {
                if let Some(ctx) = &flow_ctx {
                    let (_, sids) = self
                        .flow_alerted
                        .entry(ctx.key)
                        .or_insert_with(|| (ctx.id, Vec::new()));
                    if sids.contains(&rule.sid) {
                        continue;
                    }
                    if ctx.id.is_some() && !ctx.torn_down {
                        sids.push(rule.sid);
                    }
                }
            }
            if let Some(t) = rule.threshold {
                let track = if t.track_by_src {
                    packet.src
                } else {
                    packet.dst
                };
                let state = self.thresholds.entry((rule.sid, track)).or_insert((now, 0));
                if now.saturating_since(state.0) > SimDuration::from_secs(u64::from(t.seconds)) {
                    *state = (now, 0);
                }
                state.1 += 1;
                let fire = match t.kind {
                    ThresholdKind::Limit => state.1 <= t.count,
                    ThresholdKind::Threshold => t.count > 0 && state.1.is_multiple_of(t.count),
                    ThresholdKind::Both => state.1 == t.count,
                };
                if !fire {
                    continue;
                }
            }
            fired.push(Alert {
                time: now,
                sid: rule.sid,
                msg: rule.msg.clone(),
                action: rule.action,
                src: packet.src,
                src_port: packet.src_port(),
                dst: packet.dst,
                dst_port: packet.dst_port(),
                classtype: rule.classtype.clone(),
            });
        }
        fired
    }
}

const PATTERNS: &[&str] = &["falun", "Falun", "tibet", "FAL", "prox", "et", "GET "];
const FRAGMENTS: &[&str] = &[
    "falun", "FALUN", "fal", "un", "tibet", "TIB", "et ", "proxy", " x ", "GET /", "Falun",
];

fn arb_content(g: &mut Gen, negated_ok: bool) -> ContentMatch {
    let pat = g.choose(PATTERNS).as_bytes().to_vec();
    ContentMatch {
        pattern: pat,
        nocase: g.bool(),
        offset: if g.u8().is_multiple_of(5) {
            g.usize_in(0, 4)
        } else {
            0
        },
        depth: if g.u8().is_multiple_of(6) {
            g.usize_in(4, 30)
        } else {
            0
        },
        negated: negated_ok && g.u8().is_multiple_of(4),
    }
}

fn arb_rule(g: &mut Gen, i: usize) -> Rule {
    let proto = *g.choose(&[
        Proto::Tcp,
        Proto::Tcp,
        Proto::Tcp,
        Proto::Udp,
        Proto::Icmp,
        Proto::Ip,
    ]);
    let mut rule = Rule::alert(proto, 0, &format!("r{i}"));
    // Occasional duplicate sid exercises sid-keyed dedup and thresholds.
    rule.sid = if g.u8().is_multiple_of(8) && i > 0 {
        100 + (i as u32 - 1)
    } else {
        100 + i as u32
    };
    if g.u8().is_multiple_of(5) {
        rule.action = RuleAction::Pass;
    }
    rule.dst_port = match g.u8() % 5 {
        0 => PortSpec::One(80),
        1 => PortSpec::Any,
        2 => PortSpec::Range(50, 100),
        3 => PortSpec::List(vec![80, 53]),
        _ => PortSpec::Not(Box::new(PortSpec::One(53))),
    };
    if g.u8().is_multiple_of(6) {
        rule.src_port = PortSpec::Range(1000, 5000);
    }
    rule.bidirectional = g.u8().is_multiple_of(6);
    let ncontents = g.usize_in(0, 3);
    for c in 0..ncontents {
        rule.contents.push(arb_content(g, c > 0));
    }
    if proto == Proto::Tcp && g.bool() {
        let mut flow = Vec::new();
        if g.bool() {
            flow.push(FlowOption::Established);
        }
        if g.bool() {
            flow.push(*g.choose(&[FlowOption::ToServer, FlowOption::ToClient]));
        }
        rule.flow = flow;
    }
    if g.u8().is_multiple_of(5) {
        rule.threshold = Some(ThresholdOption {
            kind: *g.choose(&[
                ThresholdKind::Limit,
                ThresholdKind::Threshold,
                ThresholdKind::Both,
            ]),
            track_by_src: g.bool(),
            count: g.u32_in(1, 4),
            seconds: 60,
        });
    }
    if g.u8().is_multiple_of(7) {
        rule.dsize = Some((g.usize_in(0, 4), if g.bool() { 0 } else { 40 }));
    }
    rule
}

fn arb_payload(g: &mut Gen) -> Vec<u8> {
    let mut p = Vec::new();
    for _ in 0..g.usize_in(1, 4) {
        p.extend_from_slice(g.choose(FRAGMENTS).as_bytes());
    }
    p
}

/// One TCP flow's scripted packets (handshake plus data), with seqs laid
/// out so segments can be emitted in order, reordered, or duplicated.
struct FlowScript {
    packets: Vec<Packet>,
}

fn arb_flow_script(g: &mut Gen, client: Ipv4Addr, cport: u16) -> FlowScript {
    let mut packets = Vec::new();
    let with_handshake = !g.u8().is_multiple_of(4);
    if with_handshake {
        packets.push(Packet::tcp(
            client,
            SERVER,
            cport,
            80,
            100,
            0,
            TcpFlags::syn(),
            vec![],
        ));
        packets.push(Packet::tcp(
            SERVER,
            client,
            80,
            cport,
            500,
            101,
            TcpFlags::syn_ack(),
            vec![],
        ));
        packets.push(Packet::tcp(
            client,
            SERVER,
            cport,
            80,
            101,
            501,
            TcpFlags::ack(),
            vec![],
        ));
    }
    let mut seq = 101u32;
    for _ in 0..g.usize_in(2, 7) {
        let payload = arb_payload(g);
        let next = seq.wrapping_add(payload.len() as u32);
        packets.push(Packet::tcp(
            client,
            SERVER,
            cport,
            80,
            seq,
            501,
            TcpFlags::psh_ack(),
            payload,
        ));
        seq = next;
    }
    FlowScript { packets }
}

/// Emit the scripts as one interleaved schedule with adversarial twists:
/// adjacent-segment reorders (within hold-back reach), duplicates, RSTs
/// mid-flow, and cross-traffic (UDP/ICMP) — timestamps non-decreasing.
fn arb_schedule(g: &mut Gen) -> Vec<(SimTime, Packet)> {
    let mut scripts = vec![
        arb_flow_script(g, CLIENT, 4000),
        arb_flow_script(g, CLIENT2, 4001),
    ];
    // Occasionally reorder a pair of adjacent data segments.
    for s in &mut scripts {
        if s.packets.len() >= 5 && g.u8().is_multiple_of(3) {
            let i = g.usize_in(3, s.packets.len() - 1);
            s.packets.swap(i, i - 1);
        }
    }
    let mut cursors = vec![0usize; scripts.len()];
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let mut last: Option<Packet> = None;
    loop {
        let open: Vec<usize> = (0..scripts.len())
            .filter(|&i| cursors[i] < scripts[i].packets.len())
            .collect();
        if open.is_empty() {
            break;
        }
        if g.u8().is_multiple_of(4) {
            now += SimDuration::from_secs(u64::from(g.u8() % 40));
        }
        match g.u8() % 12 {
            0 => out.push((now, Packet::udp(CLIENT, SERVER, 5353, 53, arb_payload(g)))),
            1 => out.push((
                now,
                Packet::icmp(
                    CLIENT,
                    SERVER,
                    IcmpKind::EchoRequest { ident: 1, seq: 1 },
                    vec![],
                ),
            )),
            2 => {
                // Duplicate the last emitted packet.
                if let Some(p) = &last {
                    out.push((now, p.clone()));
                }
            }
            3 => {
                // RST the flow mid-script: teardown plus possible reuse.
                let i = *g.choose(&open);
                let cport = 4000 + i as u16;
                let client = if i == 0 { CLIENT } else { CLIENT2 };
                out.push((
                    now,
                    Packet::tcp(client, SERVER, cport, 80, 400, 501, TcpFlags::rst(), vec![]),
                ));
            }
            _ => {
                let i = *g.choose(&open);
                let pkt = scripts[i].packets[cursors[i]].clone();
                cursors[i] += 1;
                last = Some(pkt.clone());
                out.push((now, pkt));
            }
        }
    }
    out
}

/// The rebuilt engine emits byte-identical alerts (and identical pass
/// suppression) to the naive old-semantics reference on random rulesets
/// and adversarial schedules.
#[test]
fn new_engine_matches_old_semantics_byte_for_byte() {
    cases(64, 0xE9_01, |g| {
        let nrules = g.usize_in(3, 14);
        let rules: Vec<Rule> = (0..nrules).map(|i| arb_rule(g, i)).collect();
        let schedule = arb_schedule(g);

        let mut reference = ReferenceEngine::new(rules.clone());
        let mut engine = DetectionEngine::new(rules);
        let mut ref_lines = Vec::new();
        let mut new_lines = Vec::new();
        for (now, pkt) in &schedule {
            for a in reference.process(*now, pkt) {
                ref_lines.push(a.to_string());
            }
            for a in engine.process(*now, pkt) {
                new_lines.push(a.to_string());
            }
        }
        assert_eq!(
            new_lines.join("\n"),
            ref_lines.join("\n"),
            "alert output diverged from old-engine semantics"
        );
        assert_eq!(
            engine.stats().passed,
            reference.passed,
            "pass suppression diverged"
        );
        // The engine's own log carries the same alerts it returned.
        assert_eq!(engine.log().len(), new_lines.len());
    });
}

/// Same equivalence on the quadratic-regression shape: one long flow whose
/// keyword appears in every one of 300 segments. Also bounds the new
/// engine's evaluation count — the old engine re-verified the whole
/// growing window per segment; the new one must stop after the alert.
#[test]
fn long_flow_equivalence_and_bounded_evaluations() {
    let mk_rules = || {
        let mut r = Rule::alert(Proto::Tcp, 7, "kw");
        r.contents.push(ContentMatch::plain(b"falun"));
        r.flow = vec![FlowOption::Established, FlowOption::ToServer];
        vec![r]
    };
    let mut reference = ReferenceEngine::new(mk_rules());
    let mut engine = DetectionEngine::new(mk_rules());
    let t0 = SimTime::ZERO;
    let send = |pkt: &Packet, reference: &mut ReferenceEngine, engine: &mut DetectionEngine| {
        let a = reference.process(t0, pkt);
        let b = engine.process(t0, pkt);
        assert_eq!(
            a.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        b.len()
    };
    let syn = Packet::tcp(CLIENT, SERVER, 4000, 80, 100, 0, TcpFlags::syn(), vec![]);
    let syn_ack = Packet::tcp(
        SERVER,
        CLIENT,
        80,
        4000,
        500,
        101,
        TcpFlags::syn_ack(),
        vec![],
    );
    let ack = Packet::tcp(CLIENT, SERVER, 4000, 80, 101, 501, TcpFlags::ack(), vec![]);
    send(&syn, &mut reference, &mut engine);
    send(&syn_ack, &mut reference, &mut engine);
    send(&ack, &mut reference, &mut engine);
    let mut fired = 0;
    let mut seq = 101u32;
    let mut evals_at_alert = None;
    for _ in 0..300 {
        let payload = b"falun filler".to_vec();
        let next = seq.wrapping_add(payload.len() as u32);
        let d = Packet::tcp(
            CLIENT,
            SERVER,
            4000,
            80,
            seq,
            501,
            TcpFlags::psh_ack(),
            payload,
        );
        seq = next;
        fired += send(&d, &mut reference, &mut engine);
        if fired > 0 && evals_at_alert.is_none() {
            evals_at_alert = Some(engine.stats().evaluations);
        }
    }
    assert_eq!(fired, 1, "per-flow dedup held on both engines");
    assert_eq!(
        engine.stats().evaluations,
        evals_at_alert.expect("alert fired"),
        "no further evaluations after the alert — quadratic path is gone"
    );
}

/// Engines sharing one compiled ruleset behave exactly like engines that
/// each compiled their own: the shared part is immutable, so interleaving
/// two engines' packets (as a campaign's trials do on one policy column)
/// cannot leak matcher, dedup or threshold state between them.
#[test]
fn engines_sharing_a_compiled_ruleset_match_independent_engines() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledRuleset>();

    cases(48, 0xE9_03, |g| {
        let nrules = g.usize_in(3, 14);
        let rules: Vec<Rule> = (0..nrules).map(|i| arb_rule(g, i)).collect();
        let schedules = [arb_schedule(g), arb_schedule(g)];

        let compiled = Arc::new(CompiledRuleset::new(rules.clone()));
        let mut shared = [0, 1]
            .map(|_| DetectionEngine::from_compiled(compiled.clone(), ReassemblyConfig::default()));
        let mut independent = [0, 1].map(|_| DetectionEngine::new(rules.clone()));
        let mut shared_lines = [Vec::new(), Vec::new()];
        let mut independent_lines = [Vec::new(), Vec::new()];
        // Random interleaving: each step advances one engine pair by one
        // packet of its own schedule.
        let mut cursors = [0usize; 2];
        while cursors[0] < schedules[0].len() || cursors[1] < schedules[1].len() {
            let open: Vec<usize> = (0..2)
                .filter(|&i| cursors[i] < schedules[i].len())
                .collect();
            let i = *g.choose(&open);
            let (now, pkt) = &schedules[i][cursors[i]];
            cursors[i] += 1;
            for a in shared[i].process(*now, pkt) {
                shared_lines[i].push(a.to_string());
            }
            for a in independent[i].process(*now, pkt) {
                independent_lines[i].push(a.to_string());
            }
        }
        for i in 0..2 {
            assert_eq!(
                shared_lines[i].join("\n"),
                independent_lines[i].join("\n"),
                "engine {i}: shared-ruleset alerts diverged from an independent engine"
            );
            assert_eq!(shared[i].stats().passed, independent[i].stats().passed);
            assert_eq!(
                shared[i].stats().evaluations,
                independent[i].stats().evaluations
            );
        }

        // The same holds with the engines on different threads, as
        // campaign workers run them.
        let threaded: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let compiled = compiled.clone();
                    scope.spawn(move || {
                        let mut e =
                            DetectionEngine::from_compiled(compiled, ReassemblyConfig::default());
                        schedule
                            .iter()
                            .flat_map(|(now, pkt)| e.process(*now, pkt))
                            .map(|a| a.to_string())
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine thread"))
                .collect()
        });
        assert_eq!(threaded[0], independent_lines[0]);
        assert_eq!(threaded[1], independent_lines[1]);
    });
}
