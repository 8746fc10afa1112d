//! E13 — censor-vs-endpoint divergence under adversarial channel
//! impairments (§4.1 insertion/evasion).
//!
//! The paper's §4.1 tricks work precisely because a monitor in the
//! middle and the real endpoint can disagree about a TCP stream. This
//! experiment replays identical flows past both vantage points — the
//! monitor is the shared tap/IDS [`StreamReassembler`], the endpoint is
//! the *real* simulator TCP stack ([`TcpConn`], the same state machine
//! hosts run) — and sweeps the full divergence matrix: every channel
//! impairment crossed with every evasion class.
//!
//! **Impairments** transform the delivery schedule identically at both
//! vantage points (the tap sits next to the endpoint, so reordering,
//! duplication and loss-then-retransmit look the same from both chairs;
//! checksum corruption is dropped by monitor and endpoint alike, so it
//! degenerates to loss with retransmission). In-bound impairments must
//! therefore never change a verdict — divergence has to come from the
//! evasion class, not the channel.
//!
//! **Evasion classes** (rows of the matrix):
//!
//! * *baseline* — keyword-bearing flow, no trickery: zero divergence
//!   under every impairment.
//! * *retransmit-insertion* — a TTL-limited keyword segment dies after
//!   the tap; the retransmit the endpoint accepts carries innocuous
//!   bytes the monitor discards as a duplicate (keep-first).
//! * *overlap-ambiguity* — two out-of-order copies of the same range
//!   with different payloads: the keep-first monitor reassembles the
//!   first copy, the keep-last endpoint the second.
//! * *ttl-retransmit* — the mirror image, with the monitor configured
//!   keep-last: a TTL-limited *retransmit* overwrites bytes on the
//!   monitor that the endpoint never sees.
//! * *rst-desync* — an out-of-window RST: the monitor tears the flow
//!   down (the paper's exploited behaviour), the endpoint answers with a
//!   challenge ACK and keeps the stream.
//! * *syn-desync* — a stray mid-stream SYN: the monitor resynchronizes
//!   its expected sequence to it, the endpoint ignores it, and a decoy
//!   at the resynced position blinds the monitor to the real bytes.
//! * *window-evasion* — the keyword arrives further out of order than
//!   the endpoint's advertised receive window but inside the monitor's
//!   hold-back bound: the monitor reassembles bytes the endpoint
//!   dropped.
//!
//! For the flips, the monitor's flight recorder narrates causality: a
//! clean replay (the same schedule minus the attack segments) is diffed
//! against the attack replay, and the first divergent decision names the
//! exact mechanism (`dup_ignored` of the real bytes, `ooo_held` of the
//! conflicting copy, `rst_teardown` of the live flow).
//!
//! Finally a campaign cell runs with client-link impairments enabled and
//! checks verdicts match the impairment-free run, and the same spec run
//! on 1 and 4 workers yields byte-identical verdicts.

use std::net::Ipv4Addr;

use underradar_censor::CensorPolicy;
use underradar_ids::stream::{
    Direction, FlowKey, OverlapPolicy, ReassemblyConfig, StreamReassembler,
};
use underradar_netsim::wire::tcp::TcpFlags;
use underradar_netsim::{Packet, SimRng, SimTime, TcpConn, TcpEvent};
use underradar_telemetry::{trace, Tracer};

use crate::experiments::campaign::run_campaign;
use crate::table::{heading, mark, Table};

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 0, 10);
const SPORT: u16 = 4000;
const DPORT: u16 = 80;
const KEYWORD: &[u8] = b"falun";

/// Who observes a scheduled segment: both vantage points, or only the
/// monitor (a TTL-limited packet that dies after the tap).
#[derive(Clone, Copy, PartialEq)]
enum Sees {
    Both,
    MonitorOnly,
}

/// What kind of segment a schedule item is.
#[derive(Clone, Copy, PartialEq)]
enum ItemKind {
    Data,
    Rst,
    Syn,
}

/// One scheduled segment. `pinned` items are attack scaffolding whose
/// relative order the impairment transforms must not disturb; unpinned
/// items are benign carrier data fair game for the channel.
#[derive(Clone)]
struct Item {
    seq: u32,
    payload: Vec<u8>,
    kind: ItemKind,
    sees: Sees,
    pinned: bool,
}

impl Item {
    fn data(seq: u32, payload: &[u8], sees: Sees, pinned: bool) -> Item {
        Item {
            seq,
            payload: payload.to_vec(),
            kind: ItemKind::Data,
            sees,
            pinned,
        }
    }
}

/// Channel impairments, applied identically at both vantage points.
#[derive(Clone, Copy, PartialEq)]
enum Impairment {
    None,
    Reorder,
    Duplicate,
    Loss,
    Corrupt,
}

const IMPAIRMENTS: [Impairment; 5] = [
    Impairment::None,
    Impairment::Reorder,
    Impairment::Duplicate,
    Impairment::Loss,
    Impairment::Corrupt,
];

/// Apply one impairment to the unpinned carrier items of a schedule.
/// Loss and corruption both resolve to "the copy is discarded and a
/// retransmit arrives later" — a checksum-invalid segment is dropped by
/// monitor and endpoint alike, so the two are indistinguishable here.
fn impair(schedule: &[Item], imp: Impairment, rng: &mut SimRng) -> Vec<Item> {
    let mut items = schedule.to_vec();
    let unpinned: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| !it.pinned)
        .map(|(i, _)| i)
        .collect();
    if unpinned.len() < 2 {
        return items;
    }
    match imp {
        Impairment::None => {}
        Impairment::Reorder => {
            // Swap two neighbouring carrier slots.
            let k = rng.index(unpinned.len() - 1);
            items.swap(unpinned[k], unpinned[k + 1]);
        }
        Impairment::Duplicate => {
            let k = unpinned[rng.index(unpinned.len())];
            let copy = items[k].clone();
            items.insert(k + 1, copy);
        }
        Impairment::Loss | Impairment::Corrupt => {
            // First transmission gone (lost, or corrupted and dropped on
            // checksum at both vantage points); the retransmit shows up a
            // couple of slots later.
            let k = unpinned[rng.index(unpinned.len())];
            let it = items.remove(k);
            let dst = (k + 2).min(items.len());
            items.insert(dst, it);
        }
    }
    items
}

/// Per-replay configuration: the monitor's overlap policy and the
/// endpoint's advertised receive window.
#[derive(Clone, Copy)]
struct ReplayCfg {
    monitor_overlap: OverlapPolicy,
    endpoint_rcv_wnd: Option<u32>,
}

impl Default for ReplayCfg {
    fn default() -> Self {
        ReplayCfg {
            monitor_overlap: OverlapPolicy::KeepFirst,
            endpoint_rcv_wnd: None,
        }
    }
}

struct Divergence {
    monitor_only: usize,
    endpoint_only: usize,
    monitor_hit: bool,
    endpoint_hit: bool,
    ooo_dropped: u64,
}

impl Divergence {
    fn diverged(&self) -> bool {
        self.monitor_only > 0 || self.endpoint_only > 0
    }

    fn verdict_flip(&self) -> bool {
        self.monitor_hit != self.endpoint_hit
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Replay one schedule past a fresh monitor (the shared tap/IDS
/// reassembler) and a fresh endpoint (the real simulator TCP stack,
/// accepting the connection like any simulated server), and score the
/// divergence between the monitor's reconstructed stream and the bytes
/// the endpoint actually delivered to its application.
fn replay(isn: u32, schedule: &[Item], cfg: ReplayCfg) -> Divergence {
    replay_traced(isn, schedule, cfg, Tracer::disabled())
}

/// [`replay`] with the monitor's flight recorder attached. There is no
/// simulator clock in this replay, so the trace's sim-time is the
/// schedule position of the segment that triggered the decision.
fn replay_traced(isn: u32, schedule: &[Item], cfg: ReplayCfg, tracer: Tracer) -> Divergence {
    let traced = tracer.is_live();
    let mut monitor = StreamReassembler::with_config(ReassemblyConfig {
        overlap: cfg.monitor_overlap,
        ..ReassemblyConfig::default()
    });
    monitor.set_tracer(tracer);
    let t0 = SimTime::ZERO;
    let syn_seq = isn.wrapping_sub(1);

    // The endpoint under observation: a real accepting TCP connection
    // (keep-last overlap resolution, like mainstream stacks).
    let (mut endpoint, _syn_ack) =
        TcpConn::accept((SERVER, DPORT), (CLIENT, SPORT), syn_seq, 900, t0);
    if let Some(wnd) = cfg.endpoint_rcv_wnd {
        endpoint.set_rcv_wnd(wnd);
    }

    // Handshake past both vantage points.
    let syn = Packet::tcp(
        CLIENT,
        SERVER,
        SPORT,
        DPORT,
        syn_seq,
        0,
        TcpFlags::syn(),
        vec![],
    );
    monitor.process(&syn).expect("syn tracked");
    let syn_ack = Packet::tcp(
        SERVER,
        CLIENT,
        DPORT,
        SPORT,
        900,
        isn,
        TcpFlags::syn_ack(),
        vec![],
    );
    monitor.process(&syn_ack).expect("syn-ack tracked");
    let ack = Packet::tcp(
        CLIENT,
        SERVER,
        SPORT,
        DPORT,
        isn,
        901,
        TcpFlags::ack(),
        vec![],
    );
    let ctx = monitor.process(&ack).expect("ack tracked");
    let key: FlowKey = ctx.key;
    let ack_seg = ack.as_tcp().expect("ack is tcp");
    let _ = endpoint.on_segment(ack_seg, t0);

    let mut endpoint_stream: Vec<u8> = Vec::new();
    for (i, item) in schedule.iter().enumerate() {
        if traced {
            monitor.set_now(i as u64);
        }
        let flags = match item.kind {
            ItemKind::Data => TcpFlags::psh_ack(),
            ItemKind::Rst => TcpFlags::rst(),
            ItemKind::Syn => TcpFlags::syn(),
        };
        let pkt = Packet::tcp(
            CLIENT,
            SERVER,
            SPORT,
            DPORT,
            item.seq,
            if item.kind == ItemKind::Syn { 0 } else { 901 },
            flags,
            item.payload.clone(),
        );
        monitor.process(&pkt);
        if item.sees == Sees::Both {
            let seg = pkt.as_tcp().expect("scheduled items are tcp");
            let (_acks, events) = endpoint.on_segment(seg, t0);
            for ev in events {
                if let TcpEvent::Data(d) = ev {
                    endpoint_stream.extend_from_slice(&d);
                }
            }
        }
    }

    let monitor_stream = monitor.stream_of(&key, Direction::ToServer).to_vec();
    let lcp = monitor_stream
        .iter()
        .zip(endpoint_stream.iter())
        .take_while(|(a, b)| a == b)
        .count();
    Divergence {
        monitor_only: monitor_stream.len() - lcp,
        endpoint_only: endpoint_stream.len() - lcp,
        monitor_hit: contains(&monitor_stream, KEYWORD),
        endpoint_hit: contains(&endpoint_stream, KEYWORD),
        ooo_dropped: monitor.stats().ooo_dropped,
    }
}

/// One row of the divergence matrix.
struct EvasionClass {
    name: &'static str,
    isn: u32,
    cfg: ReplayCfg,
    /// Expected flip direction under attack: `Some(true)` = monitor sees
    /// the keyword and the endpoint doesn't (insertion), `Some(false)` =
    /// the endpoint sees it and the monitor doesn't (evasion), `None` =
    /// no flip expected (baseline).
    expect_monitor_hit: Option<bool>,
    schedule: Vec<Item>,
}

fn baseline_class(isn: u32) -> EvasionClass {
    let stream = b"GET /falun HTTP/1.0 host: x";
    let mut schedule = Vec::new();
    for (i, chunk) in stream.chunks(6).enumerate() {
        schedule.push(Item::data(
            isn.wrapping_add((i * 6) as u32),
            chunk,
            Sees::Both,
            false,
        ));
    }
    EvasionClass {
        name: "baseline (no evasion)",
        isn,
        cfg: ReplayCfg::default(),
        expect_monitor_hit: None,
        schedule,
    }
}

/// §4.1 insertion: a TTL-limited keyword segment dies after the tap; the
/// "retransmit" the endpoint accepts carries innocuous bytes the
/// keep-first monitor discards as a duplicate.
fn insertion_class(isn: u32) -> EvasionClass {
    EvasionClass {
        name: "retransmit-insertion",
        isn,
        cfg: ReplayCfg::default(),
        expect_monitor_hit: Some(true),
        schedule: vec![
            Item::data(isn, b"GET /", Sees::Both, false),
            Item::data(isn.wrapping_add(5), KEYWORD, Sees::MonitorOnly, true),
            Item::data(isn.wrapping_add(5), b"files", Sees::Both, true),
            Item::data(isn.wrapping_add(10), b" HTTP", Sees::Both, false),
            Item::data(isn.wrapping_add(15), b"/1.0x", Sees::Both, false),
        ],
    }
}

/// Overlapping out-of-order retransmits with different payloads: the
/// keep-first monitor keeps the first copy, the keep-last endpoint the
/// second. Both copies arrive ahead of a gap that fills last.
fn overlap_class(isn: u32) -> EvasionClass {
    EvasionClass {
        name: "overlap-ambiguity",
        isn,
        cfg: ReplayCfg::default(),
        expect_monitor_hit: Some(true),
        schedule: vec![
            Item::data(isn.wrapping_add(5), KEYWORD, Sees::Both, true),
            Item::data(isn.wrapping_add(5), b"files", Sees::Both, true),
            Item::data(isn.wrapping_add(10), b" HTTP", Sees::Both, false),
            Item::data(isn.wrapping_add(15), b"/1.0x", Sees::Both, false),
            Item::data(isn, b"GET /", Sees::Both, true),
        ],
    }
}

/// TTL-limited retransmit against a keep-last monitor: the legitimate
/// bytes arrive first, then a TTL-limited copy with the keyword rewrites
/// them on the monitor alone.
fn ttl_retransmit_class(isn: u32) -> EvasionClass {
    EvasionClass {
        name: "ttl-retransmit (monitor keep-last)",
        isn,
        cfg: ReplayCfg {
            monitor_overlap: OverlapPolicy::KeepLast,
            endpoint_rcv_wnd: None,
        },
        expect_monitor_hit: Some(true),
        schedule: vec![
            Item::data(isn, b"GET /", Sees::Both, false),
            Item::data(isn.wrapping_add(5), b"files", Sees::Both, true),
            Item::data(isn.wrapping_add(5), KEYWORD, Sees::MonitorOnly, true),
            Item::data(isn.wrapping_add(10), b" HTTP", Sees::Both, false),
            Item::data(isn.wrapping_add(15), b"/1.0x", Sees::Both, false),
        ],
    }
}

/// TCB desync by out-of-window RST: the monitor tears the flow down on
/// any RST (the paper's exploited behaviour); the endpoint validates the
/// sequence, answers with a challenge ACK, and keeps the stream. The
/// keyword straddles the RST so the monitor's post-teardown pickup never
/// reassembles it.
fn rst_desync_class(isn: u32) -> EvasionClass {
    EvasionClass {
        name: "rst-desync",
        isn,
        cfg: ReplayCfg::default(),
        expect_monitor_hit: Some(false),
        schedule: vec![
            Item::data(isn, b"GET /fa", Sees::Both, true),
            Item {
                seq: isn.wrapping_add(200_000),
                payload: vec![],
                kind: ItemKind::Rst,
                sees: Sees::Both,
                pinned: true,
            },
            Item::data(isn.wrapping_add(7), b"lun", Sees::Both, true),
            Item::data(isn.wrapping_add(10), b" HTT", Sees::Both, false),
            Item::data(isn.wrapping_add(14), b"P/1.0", Sees::Both, false),
        ],
    }
}

/// TCB desync by stray mid-stream SYN: the monitor resynchronizes its
/// expected sequence to the SYN; the endpoint ignores it. A decoy at the
/// resynced position feeds the monitor innocuous bytes while the real
/// continuation (stale from the monitor's new viewpoint) carries the
/// keyword to the endpoint.
fn syn_desync_class(isn: u32) -> EvasionClass {
    EvasionClass {
        name: "syn-desync",
        isn,
        cfg: ReplayCfg::default(),
        expect_monitor_hit: Some(false),
        schedule: vec![
            Item::data(isn, b"GET /fal", Sees::Both, true),
            Item {
                seq: isn.wrapping_add(4999),
                payload: vec![],
                kind: ItemKind::Syn,
                sees: Sees::Both,
                pinned: true,
            },
            Item::data(isn.wrapping_add(5000), b"XXXXX", Sees::Both, true),
            Item::data(isn.wrapping_add(8), b"un ", Sees::Both, true),
            Item::data(isn.wrapping_add(11), b"HTT", Sees::Both, false),
            Item::data(isn.wrapping_add(14), b"P/1.0", Sees::Both, false),
        ],
    }
}

/// Window evasion: the keyword arrives displaced beyond the endpoint's
/// advertised receive window (it drops the segment) but inside the
/// monitor's hold-back bound (it buffers and later reassembles it).
fn window_evasion_class(isn: u32) -> EvasionClass {
    let mut schedule = vec![
        Item::data(isn, b"GET /", Sees::Both, true),
        Item::data(isn.wrapping_add(6000), KEYWORD, Sees::Both, true),
    ];
    let mut off = 5usize;
    while off < 6000 {
        let take = 1024.min(6000 - off);
        schedule.push(Item::data(
            isn.wrapping_add(off as u32),
            &vec![b'x'; take],
            Sees::Both,
            false,
        ));
        off += take;
    }
    EvasionClass {
        name: "window-evasion",
        isn,
        cfg: ReplayCfg {
            monitor_overlap: OverlapPolicy::KeepFirst,
            endpoint_rcv_wnd: Some(4096),
        },
        expect_monitor_hit: Some(true),
        schedule,
    }
}

/// A random keyword-bearing flow scheduled with in-bound impairments:
/// bounded reordering, duplicates, and same-byte overlapping
/// retransmits.
fn impaired_schedule(rng: &mut SimRng, isn: u32) -> Vec<Item> {
    let len = 256 + rng.index(768);
    let mut stream: Vec<u8> = (0..len).map(|i| b'a' + ((i * 7 + 3) % 23) as u8).collect();
    let at = rng.index(len - KEYWORD.len());
    stream[at..at + KEYWORD.len()].copy_from_slice(KEYWORD);

    // Segment, then shuffle by bounded rank displacement (well inside
    // the monitor's hold-back budget) with occasional duplicates and
    // overlapping re-sends.
    let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut off = 0usize;
    while off < stream.len() {
        let take = (1 + rng.index(128)).min(stream.len() - off);
        segs.push((
            isn.wrapping_add(off as u32),
            stream[off..off + take].to_vec(),
        ));
        off += take;
    }
    let mut ranked: Vec<(usize, u32, Vec<u8>)> = Vec::new();
    for (i, (seq, payload)) in segs.iter().enumerate() {
        ranked.push((i * 4 + rng.index(8), *seq, payload.clone()));
        if rng.chance(0.15) {
            ranked.push((i * 4 + rng.index(8), *seq, payload.clone()));
        }
        if i > 0 && rng.chance(0.15) {
            // Overlapping retransmit reaching back into delivered bytes.
            let start = seq.wrapping_sub(isn) as usize;
            let back = 1 + rng.index(start.min(24));
            let take = (back + 1 + rng.index(16)).min(stream.len() - (start - back));
            ranked.push((
                i * 4 + rng.index(8),
                isn.wrapping_add((start - back) as u32),
                stream[start - back..start - back + take].to_vec(),
            ));
        }
    }
    ranked.sort_by_key(|(rank, _, _)| *rank);
    // Lead with the first in-order byte so the monitor anchors its
    // expected sequence at the ISN rather than mid-stream.
    let mut schedule = vec![Item::data(isn, &stream[0..1], Sees::Both, true)];
    schedule.extend(
        ranked
            .into_iter()
            .map(|(_, seq, payload)| Item::data(seq, &payload, Sees::Both, true)),
    );
    schedule
}

/// The clean twin of an attack schedule: the same carrier bytes without
/// the attack segments (TTL-limited copies, injected RST/SYN, and for
/// the overlap class the conflicting second copy).
fn clean_twin(class: &EvasionClass) -> Vec<Item> {
    class
        .schedule
        .iter()
        .filter(|it| it.sees == Sees::Both && it.kind == ItemKind::Data)
        .filter(|it| !(class.name == "overlap-ambiguity" && it.payload == b"files"))
        .cloned()
        .collect()
}

/// Run E13 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> String {
    let mut out = heading(
        "E13",
        "§4.1 insertion/evasion",
        "monitor and endpoint agree under in-bound impairments; every \
         evasion class flips the keyword verdict under every impairment",
    );

    // Part 1: in-bound impairment schedules must not diverge — the
    // monitor's stream equals what the real endpoint stack delivered.
    let trials = 32usize;
    let mut rng = SimRng::seed_from_u64(0xE13_0001);
    let mut divergent = 0usize;
    let mut flips = 0usize;
    let mut dropped = 0u64;
    for i in 0..trials {
        let isn = 0x4000_0000u32.wrapping_mul(i as u32).wrapping_add(101);
        let d = replay(isn, &impaired_schedule(&mut rng, isn), ReplayCfg::default());
        if d.diverged() {
            divergent += 1;
        }
        if d.verdict_flip() {
            flips += 1;
        }
        dropped += d.ooo_dropped;
        if !d.endpoint_hit {
            // The keyword is always embedded; the endpoint must see it.
            flips += 1;
        }
    }
    out.push_str("in-bound impairments (reorder/duplicate/overlap within hold-back):\n");
    let mut t1 = Table::new(&[
        "trials",
        "divergent streams",
        "verdict flips",
        "monitor drops",
    ]);
    t1.row(&[
        trials.to_string(),
        divergent.to_string(),
        flips.to_string(),
        dropped.to_string(),
    ]);
    out.push_str(&t1.render());
    let in_bound_ok = divergent == 0 && flips == 0 && dropped == 0;

    // Part 2: the divergence matrix — every impairment × every evasion
    // class. The baseline row must never flip; every attack row must
    // flip in its expected direction under every impairment.
    let classes = [
        baseline_class(0x1000_0065),
        insertion_class(0x7fff_ff00),
        overlap_class(0x2000_0065),
        ttl_retransmit_class(0x3000_0065),
        rst_desync_class(0x4000_0065),
        syn_desync_class(0x5000_0065),
        window_evasion_class(0x0000_0065),
    ];
    out.push_str("\ndivergence matrix (verdict flip per impairment; kw = none-impaired):\n");
    let mut t2 = Table::new(&[
        "evasion class",
        "none",
        "reorder",
        "duplicate",
        "loss",
        "corrupt",
        "mon kw",
        "ep kw",
    ]);
    let mut cells = 0usize;
    let mut total_flips = 0usize;
    let mut matrix_ok = true;
    for class in classes.iter() {
        let mut row = vec![class.name.to_string()];
        let mut none_hits = (false, false);
        for (j, imp) in IMPAIRMENTS.iter().enumerate() {
            let mut imp_rng = SimRng::seed_from_u64(0xE13_2000 + (cells as u64) * 31 + j as u64);
            let schedule = impair(&class.schedule, *imp, &mut imp_rng);
            let d = replay(class.isn, &schedule, class.cfg);
            cells += 1;
            if d.verdict_flip() {
                total_flips += 1;
            }
            let cell_ok = match class.expect_monitor_hit {
                None => !d.diverged() && !d.verdict_flip() && d.monitor_hit && d.endpoint_hit,
                Some(mon_hit) => d.verdict_flip() && d.diverged() && d.monitor_hit == mon_hit,
            };
            matrix_ok &= cell_ok;
            row.push(mark(d.verdict_flip()).to_string());
            if *imp == Impairment::None {
                none_hits = (d.monitor_hit, d.endpoint_hit);
            }
        }
        row.push(mark(none_hits.0).to_string());
        row.push(mark(none_hits.1).to_string());
        t2.row(&row);
    }
    out.push_str(&t2.render());
    out.push_str(&format!(
        "divergence matrix: {cells} cells, {total_flips} verdict flips\n"
    ));
    let count_ok = cells == 35 && total_flips == 30;

    // Part 3: the overlap knob closes the overlap-ambiguity gap — a
    // keep-last monitor agrees with the keep-last endpoint.
    let aligned = replay(
        0x2000_0065,
        &overlap_class(0x2000_0065).schedule,
        ReplayCfg {
            monitor_overlap: OverlapPolicy::KeepLast,
            endpoint_rcv_wnd: None,
        },
    );
    let knob_ok = !aligned.verdict_flip() && !aligned.diverged();
    out.push_str(&format!(
        "\nkeep-last monitor vs keep-last endpoint on the overlap schedule: \
         divergence {} flip {} (knob closes the gap: {})\n",
        aligned.monitor_only + aligned.endpoint_only,
        mark(aligned.verdict_flip()),
        mark(knob_ok)
    ));

    // Part 4: flight-recorder narration. For three flip mechanisms, diff
    // the monitor's decision stream between the clean twin and the attack
    // replay: the first divergent decision names the mechanism.
    let mut narration_ok = true;
    out.push_str("\nfirst divergent monitor decision, clean twin (a) vs attack (b):\n");
    for (class, want_kind, offset) in [
        (&classes[1], "dup_ignored", Some(5u32)),
        (&classes[2], "ooo_held", Some(5u32)),
        (&classes[4], "rst_teardown", None),
    ] {
        let want_seq_lo = offset.map(|o| class.isn.wrapping_add(o));
        let clean_tracer = Tracer::with_capacity(256);
        let _ = replay_traced(
            class.isn,
            &clean_twin(class),
            class.cfg,
            clean_tracer.clone(),
        );
        let attack_tracer = Tracer::with_capacity(256);
        let _ = replay_traced(class.isn, &class.schedule, class.cfg, attack_tracer.clone());
        let divergence = trace::diff(&clean_tracer.records(), &attack_tracer.records());
        out.push_str(&format!("\n[{}]\n", class.name));
        out.push_str(&trace::render_diff(divergence.as_ref()));
        let ok = divergence
            .as_ref()
            .and_then(|d| d.right.as_ref())
            .is_some_and(|r| {
                r.stage == "stream"
                    && r.kind == want_kind
                    && want_seq_lo
                        .map(|lo| r.field_u64("seq_lo") == Some(u64::from(lo)))
                        .unwrap_or(true)
            });
        narration_ok &= ok;
    }

    // Part 5: campaign verdicts are impairment-invariant in bound, and
    // shard count does not change them.
    let spec = |name: &str| {
        underradar_campaign::CampaignSpec::new(name, 29)
            .target("twitter.com")
            .methods([
                underradar_campaign::MethodKind::Overt,
                underradar_campaign::MethodKind::Scan,
            ])
            .policy(underradar_campaign::NamedPolicy::new(
                "control",
                CensorPolicy::new(),
            ))
            .policy(
                underradar_campaign::NamedPolicy::new(
                    "keyword-rst",
                    CensorPolicy::new().block_keyword("falun"),
                )
                .with_probe_path("/falun"),
            )
            .trials_per_cell(2)
            .run_secs(30)
    };
    let (_, clean) = run_campaign(&spec("e13-clean"), 1, tel);
    let impaired_spec = spec("e13-impaired")
        .client_link_reorder(0.2)
        .client_link_duplicate(0.1);
    let (_, impaired) = run_campaign(&impaired_spec, 1, tel);
    let mut verdicts_match = clean.len() == impaired.len();
    let mut matched = 0usize;
    for (a, b) in clean.iter().zip(impaired.iter()) {
        if format!("{:?}", a.verdict) == format!("{:?}", b.verdict) {
            matched += 1;
        } else {
            verdicts_match = false;
        }
    }
    out.push_str("\ncampaign cell with client-link reorder=0.2 duplicate=0.1 vs clean:\n");
    let mut t3 = Table::new(&["trials", "verdicts unchanged", "all correct (clean)"]);
    t3.row(&[
        clean.len().to_string(),
        format!("{matched}/{}", clean.len()),
        mark(clean.iter().all(|t| t.verdict_correct)).to_string(),
    ]);
    out.push_str(&t3.render());

    let (_, sharded) = run_campaign(&spec("e13-clean"), 4, tel);
    let shard_identical = clean.len() == sharded.len()
        && clean
            .iter()
            .zip(sharded.iter())
            .all(|(a, b)| format!("{:?}", a.verdict) == format!("{:?}", b.verdict));
    out.push_str(&format!(
        "1-vs-4-shard verdicts: {}\n",
        if shard_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    ));

    let pass = in_bound_ok
        && matrix_ok
        && count_ok
        && knob_ok
        && narration_ok
        && verdicts_match
        && shard_identical;
    out.push_str(&format!(
        "\nresult: divergence is zero in bound and the full evasion matrix \
         flips verdicts with narrated causes: {}\n\n",
        if pass { "PASSED" } else { "FAILED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn e13_passes() {
        let report = super::run_with(&underradar_telemetry::Telemetry::disabled());
        assert!(report.contains("PASSED"), "{report}");
    }
}
