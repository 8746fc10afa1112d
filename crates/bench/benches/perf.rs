//! Performance benches over the substrate: the engine and simulator costs
//! that determine how large a reproduction run can get.
//!
//! Hand-rolled `Instant` harness (no external bench framework). Run with
//! `cargo bench --bench perf`; pass section names to run a subset (e.g.
//! `cargo bench --bench perf -- telemetry` for the CI smoke). Besides
//! timing, the reassembly section *checks* that bytes copied stay ≤ 2×
//! payload (no per-segment O(window) clone). The telemetry section checks
//! the observability acceptance bounds: disabled telemetry handles *and* a
//! disabled flight-recorder tracer each keep the 8 KB reassembly hot path
//! within 3% of the uninstrumented throughput. Unfiltered runs also
//! snapshot every result row to `BENCH_perf.json` at the workspace root;
//! the committed copy pins the bench schema (`scripts/ci.sh` regenerates
//! and diffs it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use underradar_ids::dfa::PrefilterDfa;
use underradar_ids::engine::DetectionEngine;
use underradar_ids::parser::{parse_ruleset, VarTable};
use underradar_ids::rule::find_sub;
use underradar_ids::stream::{
    DirBuffer, DirLimits, OverlapPolicy, ReassemblyStats, StreamReassembler,
};
use underradar_netsim::packet::Packet;
use underradar_netsim::rng::SimRng;
use underradar_netsim::time::SimTime;
use underradar_netsim::wire::tcp::TcpFlags;
use underradar_protocols::dns::{DnsMessage, DnsName, QType};
use underradar_surveil::mvr::Mvr;
use underradar_workloads::population::{PopulationConfig, PopulationTraffic};

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const DST: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// Heap-allocation counter wrapped around the system allocator, so the
/// scale section can *assert* (not merely time) that the steady-state
/// packet path performs zero allocations, the mvr section that a retained
/// packet through the surveillance pipeline allocates nothing amortized,
/// and the campaign section that trial setup stays small. Only `alloc`/`realloc` count (calls and
/// requested bytes) — frees are irrelevant to the bounds — and forwarding
/// keeps behaviour identical to the default allocator for every other
/// bench.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Median ns/iteration over 5 timed batches of `iters` calls (plus warmup).
fn measure<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..(iters / 4).max(1) {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Result rows collected for `BENCH_perf.json` (written by `main` when
/// the run is unfiltered, so the snapshot always covers every section).
static RESULTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Pairs per [`paired_gate`].
const GATE_PAIRS: usize = 5;

/// A live-vs-live gate that a shared, noisy machine can resolve: time
/// `base` and `cand` as [`GATE_PAIRS`] pairs, alternating which side runs
/// first so drift and warm-up fall on both alike, print every pair's
/// `cand / base` ratio, and return each side's best time and the median
/// ratio, which is what the gate bounds.
fn paired_gate(
    label: &str,
    mut base: impl FnMut() -> f64,
    mut cand: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let mut best = (f64::MAX, f64::MAX);
    let mut ratios = Vec::with_capacity(GATE_PAIRS);
    for pair in 0..GATE_PAIRS {
        let (b, c) = if pair % 2 == 0 {
            let b = base();
            (b, cand())
        } else {
            let c = cand();
            (base(), c)
        };
        best = (best.0.min(b), best.1.min(c));
        ratios.push(c / b);
        println!(
            "  {label} pair {pair}: {b:.1} vs {c:.1} ns, ratio {:.4}",
            c / b
        );
    }
    ratios.sort_by(f64::total_cmp);
    (best.0, best.1, ratios[GATE_PAIRS / 2])
}

/// Print one result line; `bytes` adds a MB/s column. Every row also
/// lands in the [`RESULTS`] collector as a JSON object with sorted keys
/// (`mb_per_s` only for byte-rated benches), so the committed
/// `BENCH_perf.json` schema — the set of quoted strings — is stable
/// across runs even though the timings drift.
fn report(name: &str, ns: f64, bytes: Option<u64>) {
    let tput = bytes
        .map(|b| format!("  {:>9.1} MB/s", b as f64 / ns * 1e9 / 1e6))
        .unwrap_or_default();
    println!("  {name:<44} {:>12.0} ns/iter{tput}", ns);
    let mbs = bytes
        .map(|b| format!("\"mb_per_s\":{:.1},", b as f64 / ns * 1e9 / 1e6))
        .unwrap_or_default();
    RESULTS
        .lock()
        .expect("perf result collector")
        .push(format!("{{{mbs}\"name\":\"{name}\",\"ns\":{ns:.1}}}"));
}

fn sample_payload(len: usize) -> Vec<u8> {
    // Realistic-ish HTTP filler without any rule keyword.
    let base =
        b"GET /articles/weather-report HTTP/1.0\r\nHost: news.example\r\nAccept: text/html\r\n\r\n";
    base.iter().copied().cycle().take(len).collect()
}

fn ruleset(n: usize) -> Vec<underradar_ids::rule::Rule> {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!(
            "alert tcp any any -> any any (msg:\"kw{i}\"; content:\"pattern-{i}-zzz\"; nocase; sid:{};)\n",
            1000 + i
        ));
    }
    parse_ruleset(&text, &VarTable::new()).expect("bench ruleset parses")
}

/// `alerts` content alert rules plus `passes` content pass rules — the
/// mixed shape real policies carry. Pass patterns share no bytes with
/// [`sample_payload`], so on innocuous traffic they cost only prefilter
/// table size, never per-packet evaluations.
fn mixed_ruleset(alerts: usize, passes: usize) -> Vec<underradar_ids::rule::Rule> {
    let mut text = String::new();
    for i in 0..alerts {
        text.push_str(&format!(
            "alert tcp any any -> any any (msg:\"kw{i}\"; content:\"pattern-{i}-zzz\"; nocase; sid:{};)\n",
            1000 + i
        ));
    }
    for i in 0..passes {
        text.push_str(&format!(
            "pass tcp any any -> any any (msg:\"ok{i}\"; content:\"allow-{i}-qqq\"; nocase; sid:{};)\n",
            9000 + i
        ));
    }
    parse_ruleset(&text, &VarTable::new()).expect("bench ruleset parses")
}

fn bench_engine() {
    println!("ids_engine");
    let mut gate_ns = f64::MAX;
    for rules in [10usize, 100, 500] {
        let payload = sample_payload(512);
        let mut engine = DetectionEngine::new(ruleset(rules));
        let pkt = Packet::tcp(SRC, DST, 40000, 80, 1, 1, TcpFlags::psh_ack(), payload);
        // Best of 3 medians for the gated row, so a scheduler hiccup in
        // one batch can't fail the acceptance bound below.
        let mut ns = measure(2_000, || engine.process(SimTime::ZERO, black_box(&pkt)));
        if rules == 500 {
            for _ in 0..2 {
                ns = ns.min(measure(2_000, || {
                    engine.process(SimTime::ZERO, black_box(&pkt))
                }));
            }
            gate_ns = ns;
        }
        report(&format!("process_512B_{rules}rules"), ns, Some(512));
    }
    // The headline acceptance bound of the dense-DFA rewrite: 500 content
    // rules at ≥ 1 GB/s of packet payload (the seed's Aho–Corasick walk
    // managed ~290 MB/s here).
    let gbps = 512.0 / gate_ns;
    println!(
        "  {:<44} {gbps:>11.2} GB/s (≥ 1.0 bound)",
        "process_512B_500rules throughput"
    );
    assert!(
        gbps >= 1.0,
        "acceptance: the engine must sustain ≥ 1 GB/s over 500 content \
         rules on 512 B packets (got {gbps:.2} GB/s)"
    );

    // Pass-rule scaling: 50 content pass rules ride the same prefilter
    // scan, so on innocuous traffic they must not scale per-packet cost.
    let payload = sample_payload(512);
    let pkt = Packet::tcp(SRC, DST, 40000, 80, 1, 1, TcpFlags::psh_ack(), payload);
    let mut alerts_only = DetectionEngine::new(mixed_ruleset(500, 0));
    let mut with_passes = DetectionEngine::new(mixed_ruleset(500, 50));
    let (base_ns, pass_ns, ratio) = paired_gate(
        "500 alert rules vs +50 pass rules",
        || {
            measure(2_000, || {
                alerts_only.process(SimTime::ZERO, black_box(&pkt))
            })
        },
        || {
            measure(2_000, || {
                with_passes.process(SimTime::ZERO, black_box(&pkt))
            })
        },
    );
    report("process_512B_500alert_0pass", base_ns, Some(512));
    report("process_512B_500alert_50pass", pass_ns, Some(512));
    let overhead = ratio - 1.0;
    println!(
        "  {:<44} {:>11.2}%",
        "50-pass-rule overhead (innocuous traffic, median)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.15,
        "acceptance: 50 prefiltered pass rules must not scale per-packet \
         cost on innocuous traffic (got {:.2}% over alert-only)",
        overhead * 100.0
    );
    assert_eq!(
        with_passes.stats().pass_evaluations,
        0,
        "no pass rule may reach evaluation without a prefilter hit"
    );
}

fn bench_dfa_vs_naive() {
    println!("multipattern");
    let patterns: Vec<Vec<u8>> = (0..200)
        .map(|i| format!("needle-{i}-xyz").into_bytes())
        .collect();
    let hay = sample_payload(4096);
    // The dense byte-classed DFA the engine runs: flattened rows plus a
    // root-row skip loop instead of fail-link chasing.
    let dfa = PrefilterDfa::new(&patterns);
    let ns = measure(2_000, || {
        let mut hits = 0usize;
        dfa.scan(black_box(&hay), |_, _| hits += 1);
        hits
    });
    report("dense_dfa_200pat_4KB", ns, Some(hay.len() as u64));
    let ns = measure(20, || {
        let mut hits = 0usize;
        for p in &patterns {
            if find_sub(black_box(&hay), p, false, 0).is_some() {
                hits += 1;
            }
        }
        hits
    });
    report("naive_200pat_4KB", ns, Some(hay.len() as u64));
}

/// A prebuilt in-order packet trace for one flow: handshake + `segs`
/// 64-byte data segments. Built outside the timed region so the benches
/// below measure reassembly, not packet construction.
fn flow_trace(segs: usize) -> Vec<Packet> {
    let mut trace = vec![
        Packet::tcp(SRC, DST, 4000, 80, 100, 0, TcpFlags::syn(), vec![]),
        Packet::tcp(DST, SRC, 80, 4000, 500, 101, TcpFlags::syn_ack(), vec![]),
        Packet::tcp(SRC, DST, 4000, 80, 101, 501, TcpFlags::ack(), vec![]),
    ];
    let mut seq = 101u32;
    for _ in 0..segs {
        trace.push(Packet::tcp(
            SRC,
            DST,
            4000,
            80,
            seq,
            501,
            TcpFlags::psh_ack(),
            vec![0x61; 64],
        ));
        seq = seq.wrapping_add(64);
    }
    trace
}

/// Run a trace through a fresh reassembler and return it.
fn drive_flow(trace: &[Packet]) -> StreamReassembler {
    let mut r = StreamReassembler::new();
    for pkt in trace {
        let _ = r.process(pkt);
    }
    r
}

fn bench_reassembly() {
    println!("stream_reassembly");
    let short = flow_trace(100);
    let ns = measure(2_000, || drive_flow(&short));
    report("stream_reassembly_100seg", ns, Some(100 * 64));

    // Near-full 8 KB flow: 512 × 64 B = 32 KB through the 8 KB window, so
    // most segments land on a full window — the steady state for long
    // flows.
    const SEGS: usize = 512;
    let payload = (SEGS * 64) as u64;
    let trace = flow_trace(SEGS);
    let incr_ns = measure(500, || drive_flow(&trace));
    report("reassembly_8KB_flow_incremental", incr_ns, Some(payload));

    // The reassembler never copies more than 2× the payload (append + one
    // compaction per byte): no per-segment O(window) clone.
    let copied = drive_flow(&trace).stats().bytes_copied();
    println!(
        "  {:<44} {copied:>12} B (≤ {} B bound)",
        "bytes copied for 32 KB payload",
        2 * payload
    );
    assert!(
        copied <= 2 * payload,
        "no per-segment O(window) clone: {copied} > {}",
        2 * payload
    );
}

/// The hold-back `DirBuffer` on in-order flows of MSS-sized and 64 B
/// segments, and on a reordered schedule, which it must reconstruct
/// completely without dropping a byte.
fn bench_reassembly_holdback() {
    println!("reassembly_holdback");
    const SEGS: usize = 512;
    const MSS: usize = 1448;
    let best = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::MAX, f64::min);
    let schedule = |seg_len: usize| -> Vec<(u32, Vec<u8>)> {
        (0..SEGS)
            .map(|i| {
                (
                    101u32.wrapping_add((i * seg_len) as u32),
                    vec![0x61; seg_len],
                )
            })
            .collect()
    };
    let in_order_ns = |segs: &[(u32, Vec<u8>)], iters: u32| {
        best(&mut || {
            measure(iters, || {
                let mut buf = DirBuffer::default();
                let mut stats = ReassemblyStats::default();
                for (seq, p) in segs {
                    buf.push(
                        *seq,
                        p,
                        DirLimits::default(),
                        OverlapPolicy::KeepFirst,
                        &mut stats,
                    );
                }
                buf.view().len()
            })
        })
    };

    let in_order_mss = schedule(MSS);
    report(
        "in_order_mss_holdback_buffer",
        in_order_ns(&in_order_mss, 1_000),
        Some((SEGS * MSS) as u64),
    );
    let in_order = schedule(64);
    let small_payload = (SEGS * 64) as u64;
    report(
        "in_order_64B_holdback_buffer",
        in_order_ns(&in_order, 2_000),
        Some(small_payload),
    );

    // Adjacent-pair swapped schedule (first segment kept in place so the
    // buffer anchors at the stream start): every later segment is one
    // slot out of order, the worst sustained load for the hold-back scan.
    let mut swapped = in_order.clone();
    for pair in swapped[1..].chunks_mut(2) {
        if pair.len() == 2 {
            pair.swap(0, 1);
        }
    }
    let swapped_ns = measure(2_000, || {
        let mut buf = DirBuffer::default();
        let mut stats = ReassemblyStats::default();
        let mut total = 0usize;
        for (seq, p) in &swapped {
            total += buf.push(
                *seq,
                p,
                DirLimits::default(),
                OverlapPolicy::KeepFirst,
                &mut stats,
            );
        }
        total
    });
    report(
        "swapped_pairs_32KB_holdback_buffer",
        swapped_ns,
        Some(small_payload),
    );
    let mut stats = ReassemblyStats::default();
    let mut buf = DirBuffer::default();
    let mut total = 0usize;
    for (seq, p) in &swapped {
        total += buf.push(
            *seq,
            p,
            DirLimits::default(),
            OverlapPolicy::KeepFirst,
            &mut stats,
        );
    }
    assert_eq!(
        total,
        SEGS * 64,
        "hold-back reassembles the swapped schedule completely"
    );
    assert_eq!(stats.ooo_dropped, 0, "no drops within the hold-back bound");
}

/// The endpoint-model upgrade threaded an overlap policy through the
/// monitor's `DirBuffer::push` so monitor variants can mirror endpoint
/// reassembly semantics (E13's divergence matrix). The knob must be free
/// where it is not exercised: on in-order traffic the policy is never
/// consulted, so keep-last must price identically to keep-first on both
/// hot paths E13/E14 lean on — the in-order 8 KB reassembly path and the
/// batched steady-state engine path. Median paired ratios, 5% bound.
fn bench_overlap_policy_guard() {
    use underradar_ids::stream::ReassemblyConfig;
    println!("overlap_policy_guard");
    const SEGS: usize = 512;
    const MSS: usize = 1448;
    let in_order: Vec<(u32, Vec<u8>)> = (0..SEGS)
        .map(|i| (101u32.wrapping_add((i * MSS) as u32), vec![0x61; MSS]))
        .collect();
    let mss_payload = (SEGS * MSS) as u64;
    let buffer_side = |policy: OverlapPolicy| {
        measure(1_000, || {
            let mut buf = DirBuffer::default();
            let mut stats = ReassemblyStats::default();
            for (seq, p) in &in_order {
                buf.push(*seq, p, DirLimits::default(), policy, &mut stats);
            }
            buf.view().len()
        })
    };
    let (first_ns, last_ns, ratio) = paired_gate(
        "in-order keep-first vs keep-last",
        || buffer_side(OverlapPolicy::KeepFirst),
        || buffer_side(OverlapPolicy::KeepLast),
    );
    report("in_order_mss_keep_first", first_ns, Some(mss_payload));
    report("in_order_mss_keep_last", last_ns, Some(mss_payload));
    let overhead = ratio - 1.0;
    println!(
        "  {:<44} {:>11.2}%",
        "keep-last overhead (in-order 8 KB path, median)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "acceptance: the overlap-policy knob must stay within 5% of \
         keep-first on the in-order reassembly path (got {:.2}%)",
        overhead * 100.0
    );

    // The batched steady-state engine path (the E14 shape): same fleet,
    // same rules, only the monitor's overlap policy differs. Fresh
    // engines per sample so the hot rounds are true appends — re-running
    // a trace would measure the retransmit path, where keep-last pays an
    // inherent (intended) rewrite memcpy rather than a regression.
    const FLOWS: usize = 512;
    const WARM: usize = 4;
    const HOT: usize = 16;
    let rounds = fleet_rounds(FLOWS, WARM + HOT, &sample_payload(64));
    let hot_packets = (FLOWS * HOT) as f64;
    let engine_side = |overlap: OverlapPolicy| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..3 {
            let mut engine = DetectionEngine::with_reassembly(
                ruleset(10),
                ReassemblyConfig {
                    overlap,
                    ..ReassemblyConfig::default()
                },
            );
            let mut out = Vec::with_capacity(64);
            let now = SimTime::ZERO;
            for round in &rounds[..3 + WARM] {
                engine.process_batch(now, round, &mut out);
                out.clear();
            }
            let t0 = Instant::now();
            for round in &rounds[3 + WARM..] {
                engine.process_batch(now, round, &mut out);
                out.clear();
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / hot_packets);
        }
        best
    };
    let (first_ns, last_ns, ratio) = paired_gate(
        "batched keep-first vs keep-last",
        || engine_side(OverlapPolicy::KeepFirst),
        || engine_side(OverlapPolicy::KeepLast),
    );
    report("batched_64B_keep_first", first_ns, Some(64));
    report("batched_64B_keep_last", last_ns, Some(64));
    let overhead = ratio - 1.0;
    println!(
        "  {:<44} {:>11.2}%",
        "keep-last overhead (batched engine path, median)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "acceptance: the overlap-policy knob must stay within 5% of \
         keep-first on the batched steady-state path (got {:.2}%)",
        overhead * 100.0
    );
}

fn bench_wire_codec() {
    println!("codec");
    let pkt = Packet::tcp(
        SRC,
        DST,
        40000,
        80,
        7,
        9,
        TcpFlags::psh_ack(),
        sample_payload(512),
    );
    let wire = pkt.to_wire();
    let ns = measure(2_000, || black_box(&pkt).to_wire());
    report("packet_encode_552B", ns, Some(wire.len() as u64));
    let ns = measure(2_000, || {
        Packet::from_wire(black_box(&wire)).expect("decode")
    });
    report("packet_decode_552B", ns, Some(wire.len() as u64));
    let query = DnsMessage::query(7, DnsName::parse("mail.example.com").expect("n"), QType::Mx);
    let qwire = query.encode();
    let ns = measure(2_000, || black_box(&query).encode());
    report("dns_encode", ns, None);
    let ns = measure(2_000, || {
        DnsMessage::decode(black_box(&qwire)).expect("decode")
    });
    report("dns_decode", ns, None);
}

fn bench_mvr() {
    println!("mvr");
    let mut rng = SimRng::seed_from_u64(1);
    let stream = PopulationTraffic::generate(&PopulationConfig::default(), &mut rng);
    let bytes: u64 = stream.iter().map(|tp| tp.packet.wire_len() as u64).sum();
    let ns = measure(20, || {
        let mut mvr = Mvr::new();
        for tp in &stream {
            mvr.process(tp.time, &tp.packet);
        }
        mvr
    });
    report(
        &format!("mvr_classify_population_{}pkts", stream.len()),
        ns,
        Some(bytes),
    );
    println!(
        "  {:<44} {:>12.2} Mpkt/s",
        "mvr packet rate",
        stream.len() as f64 / ns * 1e9 / 1e6
    );

    // The whole surveillance pipeline on traffic the MVR retains and no
    // signature matches — the path every stealthy trial's packets take.
    // Retention stores only endpoints and sizes, so past the stores'
    // amortized growth a packet costs no allocation.
    use underradar_surveil::system::{
        default_surveillance_rules, SurveillanceConfig, SurveillanceSystem,
    };
    const PACKETS: u32 = 20_000;
    let rules = default_surveillance_rules(
        underradar_netsim::addr::Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8),
        &[],
        &["falun".to_string()],
        None,
    );
    let mut system = SurveillanceSystem::new(SurveillanceConfig::with_rules(rules));
    let acks: Vec<Packet> = (0..PACKETS)
        .map(|i| Packet::tcp(SRC, DST, 40000, 80, 1 + i, 1, TcpFlags::ack(), vec![]))
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for (i, pkt) in acks.iter().enumerate() {
        let now = SimTime::from_nanos(i as u64 * 1_000);
        let (decision, alerts) = system.process(now, pkt);
        assert!(
            decision.retained() && alerts.is_empty(),
            "retained, alert-free"
        );
    }
    let per_packet = t0.elapsed().as_nanos() as f64 / f64::from(PACKETS);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    report("surveil_process_retained_ack", per_packet, None);
    let per_packet_allocs = allocs as f64 / f64::from(PACKETS);
    println!(
        "  {:<44} {per_packet_allocs:>12.4} allocs/pkt ({allocs} over {PACKETS})",
        "surveillance retained-packet allocations"
    );
    assert!(
        per_packet_allocs < 0.01,
        "acceptance: a retained, alert-free packet through the surveillance \
         pipeline must cost < 0.01 heap allocations amortized (got \
         {per_packet_allocs:.4})"
    );
}

fn bench_generators() {
    println!("generators");
    let ns = measure(50, || {
        use underradar_spam::{measurement_spam, spam_score};
        let mut total = 0.0;
        for i in 0..100u64 {
            total += spam_score(black_box(&measurement_spam(i, "twitter.com")));
        }
        total
    });
    report("spam_score_100_messages", ns, None);
    let ns = measure(10, || {
        use underradar_workloads::syria::SyriaLog;
        let mut rng = SimRng::seed_from_u64(1);
        SyriaLog::generate(black_box(2_000), &mut rng).total_requests()
    });
    report("syria_log_2000_users", ns, None);
}

fn bench_simulator() {
    use underradar_core::methods::ddos::DdosProbe;
    use underradar_core::testbed::{Testbed, TestbedConfig};
    println!("simulator");
    let mut events = 0;
    let ns = measure(5, || {
        let mut tb = Testbed::build(TestbedConfig::default());
        let target = tb.target("youtube.com").expect("t").web_ip;
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(DdosProbe::new(target, "youtube.com", "/", 20)),
        );
        tb.run_secs(30);
        events = tb.sim.events_processed();
        events
    });
    report("testbed_ddos_20_samples_end_to_end", ns, None);
    // The same run per simulated event: build, schedule and every node
    // handler, divided by the (deterministic) event count.
    report("testbed_ddos_ns_per_event", ns / events as f64, None);
}

/// Campaign engine substrate: the per-policy `TestbedTemplate` cache and
/// the run service's pooled worlds. The engine prepares each policy
/// column once (zone build + IDS rule parse) and, on the column's first
/// trial, compiles the monitors' immutable parts (surveillance ruleset
/// and prefilter DFA, tap keyword DFA, indexed zone), which every later
/// trial shares; the naive alternative re-prepares and recompiles for
/// every trial. A run-service worker goes further and resets the world
/// its last trial ran in rather than building and dropping one. The
/// assertions pin the caching win the campaign engine's throughput rests
/// on, that a warm instantiation compiles nothing: it must allocate
/// under 64 KiB, less than one DFA's 64 KB pair table; that resetting a
/// world after a trial allocates nothing at all; and that a paper-matrix
/// trial makes at most 470 allocations, and at most 300 more with
/// telemetry on. The reset gate counts bytes, not time, so it cannot
/// flake.
fn bench_campaign() {
    use underradar_bench::experiments::campaign::paper_campaign;
    use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
    use underradar_censor::CensorPolicy;
    use underradar_core::methods::scan::SynScanProbe;
    use underradar_core::ports::top_ports;
    use underradar_core::probe::ProbeHandle;
    use underradar_core::testbed::{TargetSite, TestbedConfig, TestbedTemplate};
    use underradar_runner::{run_service, NullSink, RunConfig};
    println!("campaign");

    let targets: Vec<TargetSite> = ["twitter.com", "youtube.com", "bbc.com", "facebook.com"]
        .iter()
        .enumerate()
        .map(|(i, d)| TargetSite::numbered(d, i as u8))
        .collect();
    // Paper-scale policy: every target blocked plus a keyword list, so
    // the prepared ruleset has the size a real campaign column carries.
    let mut policy = CensorPolicy::new();
    for t in &targets {
        policy = policy.block_domain(&t.domain);
    }
    for kw in ["falun", "tibet", "vpn", "proxy", "tunnel", "circumvent"] {
        policy = policy.block_keyword(kw);
    }
    let config = || TestbedConfig {
        seed: 0,
        policy: policy.clone(),
        targets: targets.clone(),
        ..TestbedConfig::default()
    };
    let template = TestbedTemplate::prepare(config());
    drop(template.instantiate(0));
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let testbed = template.instantiate(1);
    let setup_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    drop(testbed);
    println!(
        "  {:<44} {setup_bytes:>12} bytes allocated",
        "trial_setup_warm_template"
    );
    assert!(
        setup_bytes < 64 * 1024,
        "acceptance: a warm template instantiation must share the compiled \
         monitors and allocate under 64 KiB (got {setup_bytes} bytes)"
    );
    let mut seed = 0u64;
    let cached_ns = measure(200, || {
        seed = seed.wrapping_add(1);
        black_box(template.instantiate(seed))
    });
    report("trial_setup_cached_template", cached_ns, None);

    // The pooled alternative: reset the world the last trial ran in. A
    // reset after a real trial (a 20-port SYN scan) must allocate
    // nothing; the timed row resets an idle world, the set-up a pooled
    // attempt pays in place of an instantiation and a drop.
    let mut tb = template.instantiate(0);
    let scan = |tb: &mut underradar_core::testbed::Testbed| {
        let web = tb.targets[0].web_ip;
        let probe = SynScanProbe::new(web, top_ports(20), vec![80]);
        ProbeHandle::spawn(&mut tb.sim, tb.client, SimTime::ZERO, probe);
        tb.run_secs(10);
    };
    scan(&mut tb);
    template.reset(&mut tb, 1);
    scan(&mut tb);
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    template.reset(&mut tb, 2);
    let reset_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    println!(
        "  {:<44} {reset_bytes:>12} bytes allocated",
        "trial_setup_warm_reset"
    );
    assert_eq!(
        reset_bytes, 0,
        "acceptance: resetting a warm world after a trial must allocate nothing"
    );
    let pooled_ns = measure(200, || {
        seed = seed.wrapping_add(1);
        template.reset(&mut tb, seed);
    });
    report("trial_setup_pooled_reset", pooled_ns, None);
    println!(
        "  {:<44} {:>11.1}x",
        "pooled reset vs instantiate-and-drop",
        cached_ns / pooled_ns
    );
    let naive_ns = measure(50, || {
        seed = seed.wrapping_add(1);
        black_box(TestbedTemplate::prepare(config()).instantiate(seed))
    });
    report("trial_setup_prepare_per_trial", naive_ns, None);
    let speedup = naive_ns / cached_ns;
    println!("  {:<44} {speedup:>11.1}x", "cached vs prepare-per-trial");
    assert!(
        speedup >= 1.1,
        "acceptance: per-policy template caching must make trial setup \
         measurably (≥1.1x) faster than re-preparing per trial (got {speedup:.2}x)"
    );

    // End-to-end campaign throughput through the run service, for the
    // record: a 16-trial scan campaign over two policies, 1 vs 4 workers.
    // The row names predate the service and stay for schema stability.
    let spec = CampaignSpec::new("bench", 1)
        .targets(["twitter.com", "bbc.com"])
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new("keyword", policy.clone()))
        .trials_per_cell(4)
        .run_secs(30);
    let tel = underradar_telemetry::Telemetry::disabled();
    let run = |workers| {
        run_service(&spec, &RunConfig::new(workers), &tel, &mut NullSink).expect("in-memory run")
    };
    let ns = measure(3, || black_box(run(1)));
    report("engine_16_scan_trials_sequential", ns, None);
    let ns = measure(3, || black_box(run(4)));
    report("engine_16_scan_trials_4_workers", ns, None);

    // Allocations per trial over the 512-trial paper matrix, telemetry
    // off, one worker: world set-up, simulation, scoring and commit. The
    // scheduler's event arena keeps the wheel's share near zero; wheel
    // slots that allocate per world again put a trial near 2,000. The host
    // stack's reused TCP buffers and the pre-rendered, borrowed-parse HTTP
    // path keep it near 620 with a world built per trial; per-call output
    // vectors and owned HTTP messages put it near 1,000. Pooled worlds,
    // reset in place, take it near 430.
    let spec = paper_campaign(4);
    let trials = spec.expand().len() as u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    run_service(&spec, &RunConfig::new(1), &tel, &mut NullSink).expect("in-memory run");
    let per_trial = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / trials as f64;
    println!(
        "  {:<44} {per_trial:>12.0} allocs/trial",
        "paper_matrix_512_trials"
    );
    assert!(
        per_trial <= 470.0,
        "acceptance: a paper-matrix trial must stay within 470 allocations \
         (got {per_trial:.0})"
    );

    // The same matrix with telemetry on: each trial also exports its
    // monitors and its exposure into a scope and hands the scope's
    // registry to the committer. Value slots, the by-move hand-off and
    // names built in one buffer keep that within 300 allocations per
    // trial; per-name cells, snapshot-and-merge and `format!` names put
    // it near 600.
    let on = underradar_telemetry::Telemetry::enabled();
    let before = ALLOCS.load(Ordering::Relaxed);
    run_service(&spec, &RunConfig::new(1), &on, &mut NullSink).expect("in-memory run");
    let on_per_trial = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / trials as f64;
    println!(
        "  {:<44} {on_per_trial:>12.0} allocs/trial",
        "paper_matrix_512_trials_telemetry"
    );
    let telemetry_allocs = on_per_trial - per_trial;
    assert!(
        telemetry_allocs <= 300.0,
        "acceptance: telemetry may add at most 300 allocations to a \
         paper-matrix trial (got {telemetry_allocs:.0})"
    );
}

/// Static contiguous partitioning: each of `workers` threads runs exactly
/// its own block of `0..n`, however long its neighbours take. This is the
/// straggler-prone baseline `sched::run_chunked`'s shared cursor replaces,
/// kept here only so [`bench_runner`] can gate the cursor's speedup.
fn run_static(n: usize, workers: usize, run: impl Fn(usize) + Sync) {
    let per = n.div_ceil(workers.clamp(1, n.max(1))).max(1);
    std::thread::scope(|scope| {
        for start in (0..n).step_by(per) {
            let run = &run;
            scope.spawn(move || (start..(start + per).min(n)).for_each(run));
        }
    });
}

/// The durable run service: the shared chunk cursor must beat static
/// partitioning on a skewed matrix (heavy ddos cells pinned to the first
/// workers by contiguous blocks, cheap scan cells everywhere else), and
/// the checkpoint journal must be near-free on the 512-trial paper matrix.
fn bench_runner() {
    use underradar_bench::experiments::campaign::paper_campaign;
    use underradar_campaign::{engine, sched, CampaignSpec, MethodKind, NamedPolicy};
    use underradar_censor::CensorPolicy;
    use underradar_runner::{run_service, NullSink, RunConfig};
    use underradar_telemetry::Telemetry;
    println!("runner");

    // Skewed matrix: trial order is method-major, so with 4 static
    // workers the 8 ddos trials land entirely on workers 0–1 while 2–3
    // finish their cheap scans and idle. The cursor levels it: with 16
    // trials and 4 workers its chunks are single trials, so a worker
    // holding a ddos trial takes no more work until it is done. Warm-up is
    // on, as in the paper campaign: each ddos trial carries its 60-sample
    // classification flood, which is exactly the heavy-cell shape the
    // scheduler has to absorb.
    //
    // The metric is **makespan** — the maximum per-worker sum of trial
    // costs under the assignment each scheduler actually produced — not
    // raw wall clock. On a box with >= `workers` cores the two coincide,
    // but CI containers often pin one core, where threads timeshare and
    // wall clock degenerates to total-work for *any* partitioning. The
    // assignment is recorded live from real scheduler runs (thread id per
    // trial); each trial is priced by a sequentially measured cost model
    // so timesharing noise cannot leak into the accounting.
    let spec = CampaignSpec::new("skewed", 3)
        .target("twitter.com")
        .methods([MethodKind::Ddos, MethodKind::Scan])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(8)
        .warmup(true)
        .run_secs(30);
    let preps = engine::prepare(&spec);
    let trials = spec.expand();
    let tel = Telemetry::disabled();
    let cfg = engine::ScopeConfig::of(&tel);
    let trial = |i: usize| {
        let t = &trials[i];
        engine::run_trial(&spec, &preps[t.policy_idx], t, cfg)
    };
    let workers = 4;
    // Per-trial cost model: best-of-3 sequential timing per index.
    let costs: Vec<f64> = (0..trials.len())
        .map(|i| {
            (0..3)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(trial(i));
                    t0.elapsed().as_nanos() as f64
                })
                .fold(f64::MAX, f64::min)
        })
        .collect();
    let makespan = |assignment: &[(std::thread::ThreadId, usize)]| -> f64 {
        let mut per: std::collections::HashMap<std::thread::ThreadId, f64> =
            std::collections::HashMap::new();
        for &(tid, i) in assignment {
            *per.entry(tid).or_insert(0.0) += costs[i];
        }
        per.values().copied().fold(0.0, f64::max)
    };
    let attributed = |cursor: bool| -> f64 {
        let log: std::sync::Mutex<Vec<(std::thread::ThreadId, usize)>> =
            std::sync::Mutex::new(Vec::with_capacity(trials.len()));
        let run = |i: usize| {
            log.lock()
                .expect("assignment log")
                .push((std::thread::current().id(), i));
            std::hint::black_box(trial(i));
        };
        if cursor {
            sched::run_chunked(trials.len(), workers, run);
        } else {
            run_static(trials.len(), workers, run);
        }
        makespan(&log.into_inner().expect("assignment log"))
    };
    // Paired best-of-3 ratio: the static makespan is fixed by
    // construction, while the cursor's depends on which worker took which
    // trial. On a loaded 2-vCPU machine a worker thread may start only
    // after the others have taken most of the trials, so the best of three
    // pairs gates on the scheduler rather than on thread start-up latency.
    // The second row keeps its name because the snapshot schema pins it.
    let mut static_ns = f64::MAX;
    let mut cursor_ns = f64::MAX;
    let mut speedup = 0.0f64;
    for _ in 0..3 {
        let s = attributed(false);
        let c = attributed(true);
        static_ns = static_ns.min(s);
        cursor_ns = cursor_ns.min(c);
        speedup = speedup.max(s / c);
    }
    report("skewed_16_static_makespan_4_workers", static_ns, None);
    report("skewed_16_stealing_makespan_4_workers", cursor_ns, None);
    println!(
        "  {:<44} {speedup:>11.2}x",
        "cursor vs static makespan (skewed)"
    );
    assert!(
        speedup >= 1.2,
        "acceptance: the shared cursor must beat static partitioning by ≥1.2x \
         on a skewed matrix (got {speedup:.2}x)"
    );

    // Checkpointing overhead on the full 512-trial paper matrix: the
    // journaled service run must stay within 5% of the unjournaled one.
    let spec = paper_campaign(4);
    let path = std::env::temp_dir().join(format!("underradar-perf-journal-{}", std::process::id()));
    let plain_cfg = RunConfig::new(4);
    let _ = std::fs::remove_file(&path);
    let (plain_ns, ckpt_ns, ratio) = paired_gate(
        "unjournaled vs journaled service run",
        || {
            measure(1, || {
                run_service(&spec, &plain_cfg, &tel, &mut NullSink).expect("service run")
            })
        },
        || {
            measure(1, || {
                // A fresh journal per run: reopening a finished journal
                // would resume (and execute nothing).
                let _ = std::fs::remove_file(&path);
                let cfg = RunConfig::new(4).checkpoint(path.clone());
                run_service(&spec, &cfg, &tel, &mut NullSink).expect("service run")
            })
        },
    );
    let _ = std::fs::remove_file(&path);
    report("service_512_trials_no_journal", plain_ns, None);
    report("service_512_trials_journaled", ckpt_ns, None);
    let overhead = ratio - 1.0;
    println!(
        "  {:<44} {:>11.2}%",
        "checkpoint overhead (512-trial matrix, median)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "acceptance: checkpointing must stay within 5% of the unjournaled \
         service run on the 512-trial matrix (got {:.2}%)",
        overhead * 100.0
    );

    // Progress-snapshot overhead on a 30k-trial synthetic service run:
    // the `--progress` emitter (committer-side recv_timeout poll, stderr
    // JSONL, worker busy accounting) must stay within 3% of the silent
    // run. One run per side of each pair — each is a full 30k-trial
    // campaign, so `measure`'s batch repetition would cost minutes for no
    // extra signal.
    use underradar_bench::experiments::campaign::synthetic_campaign;
    use underradar_runner::ProgressConfig;
    let spec = synthetic_campaign(30_000);
    let once = |progress: bool| -> (f64, u64) {
        let mut cfg = RunConfig::new(4);
        if progress {
            cfg = cfg.progress(ProgressConfig {
                every_trials: 10_000,
                every_ms: 5_000,
            });
        }
        let t0 = Instant::now();
        let outcome = run_service(&spec, &cfg, &tel, &mut NullSink).expect("service run");
        (t0.elapsed().as_nanos() as f64, outcome.profile.snapshots)
    };
    let _ = once(false); // warmup
    let mut snapshots = 0u64;
    let (silent_ns, progress_ns, ratio) = paired_gate(
        "silent vs progress service run",
        || once(false).0,
        || {
            let (ns, snaps) = once(true);
            snapshots = snapshots.max(snaps);
            ns
        },
    );
    report("service_30k_synthetic_silent", silent_ns, None);
    report("service_30k_synthetic_progress", progress_ns, None);
    let overhead = ratio - 1.0;
    println!(
        "  {:<44} {:>11.2}%",
        "progress overhead (30k-trial service run, median)",
        overhead * 100.0
    );
    assert!(
        snapshots >= 3,
        "acceptance: progress snapshots must stream during the run (got {snapshots})"
    );
    assert!(
        overhead <= 0.03,
        "acceptance: progress snapshots must stay within 3% of the silent \
         service run on the 30k-trial synthetic matrix (got {:.2}%)",
        overhead * 100.0
    );
}

/// The reassembly hot loop instrumented the way every component is:
/// its stats stay plain locals on the per-segment path and are written
/// by name once, at the end.
fn drive_flow_telemetry(trace: &[Packet], tel: &underradar_telemetry::Telemetry) -> u64 {
    let mut r = StreamReassembler::new();
    let (mut segments, mut bytes) = (0u64, 0u64);
    for pkt in trace {
        if let Some(ctx) = r.process(pkt) {
            if ctx.appended {
                segments += 1;
                bytes += pkt.body.payload().len() as u64;
            }
        }
    }
    tel.set_counter("bench.reassembly.segments", segments);
    tel.set_counter("bench.reassembly.bytes", bytes);
    segments
}

/// The 8 KB reassembly loop with a flight-recorder handle attached — the
/// shape every pipeline stage runs in under `--trace`. With a dead handle
/// the only added work is one branch per segment; a live handle also pays
/// the per-packet clock push and the stats-delta salience check.
fn drive_flow_traced(trace: &[Packet], tracer: &underradar_telemetry::Tracer) -> u64 {
    let mut r = StreamReassembler::new();
    r.set_tracer(tracer.clone());
    let live = tracer.is_live();
    let mut appended = 0u64;
    let mut now = 0u64;
    for pkt in trace {
        // Clock bookkeeping only when live — the disabled steady state
        // pays exactly one predicted branch per packet, like real hosts.
        if live {
            r.set_now(now);
            now += 1;
        }
        if let Some(ctx) = r.process(pkt) {
            if ctx.appended {
                appended += 1;
            }
        }
    }
    appended
}

fn bench_telemetry() {
    use underradar_telemetry::Telemetry;
    println!("telemetry");

    // Raw per-op cost of a by-name write on a live and a disabled handle.
    let live = Telemetry::enabled();
    let ns = measure(1_000_000, || live.count("bench.ops", 1));
    report("counter_incr_enabled", ns, None);
    let dead = Telemetry::disabled();
    let ns = measure(1_000_000, || dead.count("bench.ops", 1));
    report("counter_incr_disabled", ns, None);

    bench_registry_sharing();

    // The headline bound: instrumented with plain stats exported to a
    // *disabled* handle, 8 KB flow reassembly stays within 3% of the
    // uninstrumented loop. The flight recorder holds the same bound: a
    // reassembler carrying a dead tracer — what every run outside
    // `--trace` resolves, the attached-handle steady state — stays within
    // 3% of the bare loop too. Each bound is its own paired gate against
    // the bare loop.
    const SEGS: usize = 512;
    let trace = flow_trace(SEGS);
    let disabled = Telemetry::disabled();
    let dead_tracer = Telemetry::enabled().tracer();
    assert!(
        !dead_tracer.is_live(),
        "telemetry without with_trace must resolve a dead tracer"
    );
    let plain = || measure(500, || drive_flow(&trace));
    let (plain_ns, instr_ns, tel_ratio) = paired_gate("plain vs disabled telemetry", plain, || {
        measure(500, || drive_flow_telemetry(&trace, &disabled))
    });
    let (plain_trace_ns, dead_trace_ns, trace_ratio) =
        paired_gate("plain vs disabled trace", plain, || {
            measure(500, || drive_flow_traced(&trace, &dead_tracer))
        });
    let plain_ns = plain_ns.min(plain_trace_ns);
    let overhead = tel_ratio - 1.0;
    report("reassembly_8KB_plain", plain_ns, Some((SEGS * 64) as u64));
    report(
        "reassembly_8KB_disabled_telemetry",
        instr_ns,
        Some((SEGS * 64) as u64),
    );
    println!(
        "  {:<44} {:>11.2}%",
        "disabled-telemetry overhead (median)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.03,
        "acceptance: disabled telemetry must stay within 3% of the \
         uninstrumented 8 KB reassembly throughput (got {:.2}%)",
        overhead * 100.0
    );

    // Live telemetry on the same path, for the record (no bound — enabled
    // cost is allowed, it just must be opt-in).
    let live_tel = Telemetry::enabled();
    let live_ns = measure(500, || drive_flow_telemetry(&trace, &live_tel));
    report(
        "reassembly_8KB_enabled_telemetry",
        live_ns,
        Some((SEGS * 64) as u64),
    );

    let trace_overhead = trace_ratio - 1.0;
    report(
        "reassembly_8KB_disabled_trace",
        dead_trace_ns,
        Some((SEGS * 64) as u64),
    );
    println!(
        "  {:<44} {:>11.2}%",
        "disabled-trace overhead (median)",
        trace_overhead * 100.0
    );
    assert!(
        trace_overhead <= 0.03,
        "acceptance: a disabled flight-recorder handle must stay within 3% \
         of the uninstrumented 8 KB reassembly throughput (got {:.2}%)",
        trace_overhead * 100.0
    );

    // Live recorder on the same in-order (record-free) flow, for the
    // record: the salience filter pays a stats-delta check per segment
    // but appends nothing, so the ring stays empty.
    let live_tracer = Telemetry::with_trace(underradar_telemetry::DEFAULT_TRACE_CAPACITY).tracer();
    let live_trace_ns = measure(500, || drive_flow_traced(&trace, &live_tracer));
    report(
        "reassembly_8KB_live_trace_quiet_flow",
        live_trace_ns,
        Some((SEGS * 64) as u64),
    );
}

/// Per-trial deltas travel scope → snapshot → merge → stream merger →
/// handle, so what one hop allocates is paid on every trial. Two gates
/// on the counting allocator: an event is one shared payload, so cloning
/// a registry that holds 1,000 of them allocates nothing per event; and
/// the merger looks a key up before cloning it, so absorbing a delta
/// whose keys it already holds allocates nothing per key.
fn bench_registry_sharing() {
    use std::sync::Arc;
    use underradar_telemetry::{Event, FieldValue, Histogram, Registry, StreamMerger};

    const EVENTS: usize = 1_000;
    let mut held = Registry::new();
    for i in 0..EVENTS {
        held.events.push(Event {
            t_ns: i as u64,
            kind: "censor.inline.action",
            fields: Arc::new([
                ("kind", FieldValue::from("ip_drop")),
                ("client", FieldValue::from("10.0.1.2")),
            ]),
        });
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let copy = black_box(held.clone());
    let clone_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(copy, held);
    let ns = measure(1_000, || held.clone());
    report("registry_clone_1000_events", ns, None);
    let per_event = clone_allocs as f64 / EVENTS as f64;
    println!(
        "  {:<44} {per_event:>12.4} allocs/event ({clone_allocs} over {EVENTS})",
        "registry clone allocations"
    );
    assert!(
        per_event < 0.01,
        "acceptance: cloning a registry must share its events, not copy \
         them (< 0.01 allocations per event; got {per_event:.4})"
    );

    // A delta shaped like a trial's: counters, gauges and histograms, all
    // of whose names the merger has seen from earlier trials.
    const KEYS: usize = 64;
    let mut delta = Registry::new();
    let mut h = Histogram::new();
    h.observe(1_460);
    for i in 0..KEYS {
        delta.counters.insert(format!("bench.counter.{i}"), 1);
        delta.gauges.insert(format!("bench.gauge.{i}"), 2);
        delta
            .histograms
            .insert(format!("bench.hist.{i}"), h.clone());
    }
    let mut merger = StreamMerger::new();
    merger.absorb(0, &delta);
    let mut src = 0u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    let ns = measure(2_000, || {
        src += 1;
        merger.absorb(src, &delta);
    });
    let absorb_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    report("merger_absorb_192_present_keys", ns, None);
    let per_key = absorb_allocs as f64 / (src as f64 * (3 * KEYS) as f64);
    println!(
        "  {:<44} {per_key:>12.4} allocs/key ({absorb_allocs} over {src} absorbs)",
        "merger absorb allocations (keys present)"
    );
    assert!(
        per_key < 0.01,
        "acceptance: absorbing a delta whose keys are all present must not \
         clone them (< 0.01 allocations per key; got {per_key:.4})"
    );
}

/// A passive monitor node carrying a [`DetectionEngine`]. Mirrors the
/// tap/surveillance nodes: pure observer, no randomness, no injected
/// traffic.
struct EngineMonitor {
    name: String,
    engine: DetectionEngine,
    alerts: Vec<underradar_ids::alert::Alert>,
}

impl underradar_netsim::node::Node for EngineMonitor {
    fn name(&self) -> &str {
        &self.name
    }
    fn receive(
        &mut self,
        ctx: &mut underradar_netsim::node::NodeCtx<'_>,
        _iface: underradar_netsim::node::IfaceId,
        packet: Packet,
    ) {
        let mut fired = self.engine.process(ctx.now(), &packet);
        self.alerts.append(&mut fired);
    }
    fn reset(&mut self) {
        self.engine.reset();
        self.alerts.clear();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Round-major flow fleet: `flows` concurrent TCP sessions advancing in
/// lockstep (SYN round, SYN-ACK round, ACK round, `data_rounds` payload
/// rounds), every round at one shared instant: maximal same-instant runs
/// to one node, the shape `DetectionEngine::process_batch` takes.
fn fleet_rounds(flows: usize, data_rounds: usize, payload: &[u8]) -> Vec<Vec<Packet>> {
    // Three address octets so fleets past 65k flows stay distinct.
    let client = |f: usize| Ipv4Addr::new(10, (f >> 16) as u8, (f >> 8) as u8, f as u8);
    let mut rounds = Vec::with_capacity(3 + data_rounds);
    rounds.push(
        (0..flows)
            .map(|f| Packet::tcp(client(f), DST, 4000, 80, 100, 0, TcpFlags::syn(), vec![]))
            .collect(),
    );
    rounds.push(
        (0..flows)
            .map(|f| {
                Packet::tcp(
                    DST,
                    client(f),
                    80,
                    4000,
                    500,
                    101,
                    TcpFlags::syn_ack(),
                    vec![],
                )
            })
            .collect(),
    );
    rounds.push(
        (0..flows)
            .map(|f| Packet::tcp(client(f), DST, 4000, 80, 101, 501, TcpFlags::ack(), vec![]))
            .collect(),
    );
    let mut seq = 101u32;
    for _ in 0..data_rounds {
        rounds.push(
            (0..flows)
                .map(|f| {
                    Packet::tcp(
                        client(f),
                        DST,
                        4000,
                        80,
                        seq,
                        501,
                        TcpFlags::psh_ack(),
                        payload.to_vec(),
                    )
                })
                .collect(),
        );
        seq = seq.wrapping_add(payload.len() as u32);
    }
    rounds
}

/// The population-scale core of the arena / wheel / batch redesign.
/// (1) timer-wheel insertion+drain on a 100k-timer storm; (2) delivery
/// through the simulator→engine pipeline is timed, and batched arena
/// processing is timed on steady-state segments; (3) the steady-state
/// packet path performs zero heap allocations (counted, not sampled);
/// (4) 100k concurrent flows fit the per-flow byte budget the e14
/// experiment runs under.
fn bench_scale() {
    use underradar_ids::stream::ReassemblyConfig;
    use underradar_netsim::event::{EventKind, EventQueue, TimerToken};
    use underradar_netsim::node::{IfaceId, NodeId};
    use underradar_netsim::sim::Simulator;
    use underradar_netsim::time::SimDuration;
    println!("scale");

    // -- (1) 100k-timer storm through the wheel, push-all then pop-all.
    // The times are a seeded uniform spray over 30 simulated seconds — a
    // representative cascade load for the wheel's six levels.
    const TIMERS: u64 = 100_000;
    let mut rng = SimRng::seed_from_u64(14);
    let times: Vec<SimTime> = (0..TIMERS)
        .map(|_| SimTime::from_nanos(rng.next_u64() % 30_000_000_000))
        .collect();
    let storm = |q: &mut EventQueue, shift: SimDuration| {
        for (i, t) in times.iter().enumerate() {
            q.push(
                *t + shift,
                EventKind::Timer {
                    node: NodeId(0),
                    token: TimerToken(i as u64),
                },
            );
        }
        let mut popped = 0u64;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    };
    let wheel_ns = (0..3)
        .map(|_| measure(5, || storm(&mut EventQueue::new(), SimDuration::ZERO)))
        .fold(f64::MAX, f64::min);
    report("timer_storm_100k_wheel", wheel_ns, None);

    // -- (1b) A drained queue keeps its arena, its free list and its ready
    // buffer, so the same storm again allocates nothing. The second storm
    // is shifted by one level-5 slot span (2^30 ticks of 1024 ns), so it
    // files and cascades through the wheel exactly as the first did.
    let mut q = EventQueue::new();
    storm(&mut q, SimDuration::ZERO);
    let before = ALLOCS.load(Ordering::Relaxed);
    let popped = storm(&mut q, SimDuration::from_nanos(1 << 40));
    let second_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(popped, TIMERS, "the second storm pops every timer");
    println!(
        "  {:<44} {second_allocs:>12} allocs",
        "timer_storm_100k_second_pass"
    );
    assert_eq!(
        second_allocs, 0,
        "acceptance: a drained event queue must reuse its cells and ready \
         buffer, so a second 100k-timer storm allocates nothing"
    );

    // -- (2a) full-pipeline TCP fleet, for the record: one simulator, one
    // engine-carrying monitor, round-major traffic. Injection, queue and
    // engine costs are all inside the clock; the measurement below
    // isolates the dispatch term.
    const FLOWS: usize = 512;
    let rounds = fleet_rounds(FLOWS, 4, &sample_payload(64));
    let n_packets: usize = rounds.iter().map(Vec::len).sum();
    let fleet_ns = {
        let mut sim = Simulator::new(7);
        sim.set_event_budget(u64::MAX);
        let node = sim.add_node(Box::new(EngineMonitor {
            name: "mon".into(),
            engine: DetectionEngine::with_reassembly(ruleset(10), ReassemblyConfig::default()),
            alerts: Vec::new(),
        }));
        let mut base = 0u64;
        measure(30, || {
            for (r, round) in rounds.iter().enumerate() {
                let t = SimTime::from_nanos(base + (r as u64 + 1) * 1_000);
                for pkt in round {
                    sim.inject_at(node, IfaceId(0), pkt.clone(), t)
                        .expect("inject");
                }
            }
            base += 1_000_000;
            sim.run_to_completion().expect("drain");
            sim.events_processed()
        })
    };
    report(&format!("fleet_{n_packets}pkts_per_packet"), fleet_ns, None);

    // -- (2b) the dispatch measurement: the queue is pre-filled *outside*
    // the timed region, so the clock covers exactly the drain loop — pop,
    // dispatch, engine entry. The workload is empty UDP datagrams, which
    // the engine rejects in constant time (no flow, no payload, no TCP
    // rule group), so per-packet work is a floor and the row measures the
    // per-delivery cost of the simulator's one delivery path.
    const DISPATCH_INSTANTS: u64 = 64;
    const PER_INSTANT: u64 = 2_048;
    let dispatch_ns = || -> f64 {
        let mut sim = Simulator::new(7);
        sim.set_event_budget(u64::MAX);
        let node = sim.add_node(Box::new(EngineMonitor {
            name: "mon".into(),
            engine: DetectionEngine::with_reassembly(ruleset(10), ReassemblyConfig::default()),
            alerts: Vec::new(),
        }));
        let pkt = Packet::udp(SRC, DST, 4000, 53, vec![]);
        let mut base = 1_000_000u64;
        let mut best = f64::MAX;
        for _ in 0..3 {
            for i in 0..DISPATCH_INSTANTS {
                let t = SimTime::from_nanos(base + (i + 1) * 1_000_000);
                for _ in 0..PER_INSTANT {
                    sim.inject_at(node, IfaceId(0), pkt.clone(), t)
                        .expect("inject");
                }
            }
            base += DISPATCH_INSTANTS * 2_000_000;
            let t0 = Instant::now();
            sim.run_to_completion().expect("drain");
            best =
                best.min(t0.elapsed().as_nanos() as f64 / (DISPATCH_INSTANTS * PER_INSTANT) as f64);
        }
        best
    };
    let per_packet_ns = (0..3).map(|_| dispatch_ns()).fold(f64::MAX, f64::min);
    report("dispatch_udp_flood_per_packet", per_packet_ns, None);

    // -- (2c) batched arena processing on steady-state 16 B data
    // segments. Population scale is the point: with tens of thousands of
    // concurrent flows the arena walks dense state in flow order, paying
    // one hash at flow lookup and index dereferences after.
    {
        let now = SimTime::ZERO;
        const GATE_FLOWS: usize = 32_768;
        const GATE_WARM: usize = 8;
        const GATE_HOT: usize = 16;
        let rounds = fleet_rounds(GATE_FLOWS, GATE_WARM + GATE_HOT, &sample_payload(16));
        let warm = 0..3 + GATE_WARM;
        let hot = 3 + GATE_WARM..rounds.len();
        let hot_packets = (GATE_FLOWS * GATE_HOT) as f64;
        // Fresh engine per repetition so every timed segment is a true
        // append (re-running a trace would measure the retransmit
        // short-circuit); best-of-3 as elsewhere.
        let mut arena_ns = f64::MAX;
        let mut out = Vec::with_capacity(64);
        for _ in 0..3 {
            let mut engine =
                DetectionEngine::with_reassembly(ruleset(10), ReassemblyConfig::default());
            for r in warm.clone() {
                engine.process_batch(now, &rounds[r], &mut out);
                out.clear();
            }
            let t0 = Instant::now();
            for r in hot.clone() {
                engine.process_batch(now, black_box(&rounds[r]), &mut out);
                out.clear();
            }
            arena_ns = arena_ns.min(t0.elapsed().as_nanos() as f64 / hot_packets);
        }
        report("steady_16B_batched_arena", arena_ns, Some(16));
    }

    // -- (3) zero-allocation steady state: established flows with full
    // windows, in-order data, no rule hits — the population steady state.
    // One counted pass both times the per-packet cost and asserts the
    // allocator was never called. (Window 8 KB / 64 B segments → 140
    // warm-up rounds overfill every window, so the hot rounds run wholly
    // in the append-compact regime with stable capacities.)
    const SS_FLOWS: usize = 128;
    const WARM_ROUNDS: usize = 140;
    const HOT_ROUNDS: usize = 256;
    let rounds = fleet_rounds(SS_FLOWS, WARM_ROUNDS + HOT_ROUNDS, &sample_payload(64));
    let mut engine = DetectionEngine::with_reassembly(ruleset(100), ReassemblyConfig::default());
    let mut out = Vec::with_capacity(64);
    let now = SimTime::ZERO;
    for round in &rounds[..3 + WARM_ROUNDS] {
        engine.process_batch(now, round, &mut out);
    }
    let hot = &rounds[3 + WARM_ROUNDS..];
    let hot_packets = (SS_FLOWS * HOT_ROUNDS) as u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for round in hot {
        engine.process_batch(now, round, &mut out);
    }
    let per_packet = t0.elapsed().as_nanos() as f64 / hot_packets as f64;
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(out.is_empty(), "steady-state traffic must raise no alerts");
    report("steady_state_batched_packet", per_packet, Some(64));
    println!(
        "  {:<44} {allocs:>12} allocs / {hot_packets} packets",
        "steady-state heap allocations"
    );
    assert_eq!(
        allocs, 0,
        "acceptance: the steady-state packet path must perform zero heap \
         allocations (counted {allocs} over {hot_packets} packets)"
    );

    // -- (4) 100k concurrent flows: handshake cost per flow, and the
    // arena + per-flow state budget the e14 experiment asserts end to end.
    const BIG: usize = 100_000;
    let mut engine = DetectionEngine::with_reassembly(
        ruleset(10),
        ReassemblyConfig {
            max_flows: BIG + 4_096,
            ..ReassemblyConfig::default()
        },
    );
    let rounds = fleet_rounds(BIG, 0, &[]);
    let t0 = Instant::now();
    for round in &rounds {
        engine.process_batch(now, round, &mut out);
    }
    let per_flow_ns = t0.elapsed().as_nanos() as f64 / BIG as f64;
    report("flow_setup_100k_handshakes", per_flow_ns, None);
    assert!(
        engine.live_flows() >= BIG,
        "all {BIG} flows must be resident (got {})",
        engine.live_flows()
    );
    let per_flow_bytes = engine.flow_memory_bytes() / engine.live_flows();
    println!(
        "  {:<44} {per_flow_bytes:>12} B/flow (≤ 1024 B bound, {} flows)",
        "resident per-flow memory",
        engine.live_flows()
    );
    assert!(
        per_flow_bytes <= 1024,
        "acceptance: 100k resident flows must fit the 1 KiB per-flow \
         budget (got {per_flow_bytes} B/flow)"
    );
}

fn main() {
    println!("perf benches (median of 5 batches; hand-rolled harness)");
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let sections: [(&str, fn()); 13] = [
        ("ids_engine", bench_engine),
        ("multipattern", bench_dfa_vs_naive),
        ("stream_reassembly", bench_reassembly),
        ("reassembly_holdback", bench_reassembly_holdback),
        ("overlap_policy_guard", bench_overlap_policy_guard),
        ("codec", bench_wire_codec),
        ("mvr", bench_mvr),
        ("generators", bench_generators),
        ("simulator", bench_simulator),
        ("campaign", bench_campaign),
        ("runner", bench_runner),
        ("telemetry", bench_telemetry),
        ("scale", bench_scale),
    ];
    for (name, run) in sections {
        if filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())) {
            run();
        }
    }
    println!("done: all acceptance assertions held");
    // Unfiltered runs snapshot every result row to `BENCH_perf.json`
    // (workspace root). The committed
    // copy pins the bench *schema* — names and keys — not the timings;
    // `scripts/ci.sh` regenerates it and fails on schema drift.
    if filters.is_empty() {
        let rows = RESULTS.lock().expect("perf result collector");
        let json = format!("{{\"benches\":[{}]}}\n", rows.join(","));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("perf snapshot written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
