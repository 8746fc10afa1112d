//! The monitor workload: the population replayed through
//! `ids::DetectionEngine::process_batch`, each pass on a fresh engine.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use underradar_ids::alert::Alert;
use underradar_ids::engine::DetectionEngine;

use crate::alloc;
use crate::report::{digest, median, peak_rss_mb, quantile, Report};
use crate::workloads::{monitor_engine, BatchClass, MonitorLoad};

/// Passes in a run, at least (more while time remains).
const MIN_PASSES: usize = 3;
/// Passes in the traced run, at least (more while time remains).
const MIN_TRACED_PASSES: usize = 8;

/// Checks every pass against the first: nothing evicted, the alerts name
/// exactly the measurement hosts, and the alerts are the same each time.
struct PassCheck<'a> {
    load: &'a MonitorLoad,
    first: Option<String>,
}

impl PassCheck<'_> {
    fn check(&mut self, engine: &DetectionEngine, alerts: &[Alert]) -> Result<(), String> {
        let evicted = engine.reassembly_stats().evicted;
        if evicted > 0 {
            return Err(format!("{evicted} flows evicted"));
        }
        let sources: BTreeSet<Ipv4Addr> = alerts.iter().map(|a| a.src).collect();
        let expected: BTreeSet<Ipv4Addr> = self.load.measurement_ips.iter().copied().collect();
        if sources != expected {
            return Err(format!(
                "alert sources {sources:?}, expected the measurement hosts {expected:?}"
            ));
        }
        let mut lines: Vec<String> = alerts
            .iter()
            .map(|a| {
                format!(
                    "t={} sid={} src={} sport={}",
                    a.time.as_nanos(),
                    a.sid,
                    a.src,
                    a.src_port.map(i64::from).unwrap_or(-1)
                )
            })
            .collect();
        lines.sort();
        let this = format!("{}:{}", digest(&lines.join("\n")), alerts.len());
        match &self.first {
            None => self.first = Some(this),
            Some(d) if *d != this => {
                return Err(format!("alerts {this} differ from the first pass's {d}"))
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn digests(self) -> Vec<(&'static str, String)> {
        vec![("alerts", self.first.unwrap_or_default())]
    }
}

fn replay(load: &MonitorLoad, engine: &mut DetectionEngine) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for b in &load.batches {
        engine.process_batch(b.time, &b.packets, &mut alerts);
    }
    alerts
}

/// An untraced run: set up `SETUP_REPS` times, then pass over the load
/// while another pass fits in `seconds` (at least `MIN_PASSES` times). A trial
/// here is one pass: a fresh engine and the whole replay.
pub fn run(load: &MonitorLoad, seconds: f64, report: &mut Report) {
    let setup: Vec<f64> = (0..crate::SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let engine = monitor_engine(load.flows);
            let secs = t.elapsed().as_secs_f64();
            black_box(engine);
            secs
        })
        .collect();
    let mut check = PassCheck { load, first: None };
    let start = Instant::now();
    let mut passes_per_s = Vec::new();
    let mut pkts_per_s = Vec::new();
    let mut last = 0.0;
    let mut rss = 0.0;
    while crate::another_round(start, seconds, passes_per_s.len(), MIN_PASSES, last) {
        let t = Instant::now();
        let mut engine = monitor_engine(load.flows);
        let built = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let alerts = replay(load, &mut engine);
        let processed = t.elapsed().as_secs_f64();
        last = built + processed;
        passes_per_s.push(1.0 / last);
        pkts_per_s.push(load.packets as f64 / processed);
        report.attempted += 1;
        if let Err(e) = check.check(&engine, &alerts) {
            report.fail(1, e);
        }
        if passes_per_s.len() == MIN_PASSES {
            // After a fixed number of passes, so the peak does not
            // depend on how many passes the machine's speed allowed.
            rss = peak_rss_mb();
        }
    }
    report.digests = check.digests();
    report.median_of("trials_per_s", "trials/s", &passes_per_s);
    report.median_of("setup_s", "s", &setup);
    report.value("peak_rss_mb", "MB", rss, 1);
    eprintln!(
        "underbench: monitor_population: {} passes of {} packets, median {:.0} packets/s, setup {:.3} ms",
        passes_per_s.len(),
        load.packets,
        median(&pkts_per_s),
        median(&setup) * 1e3
    );
}

/// The traced run: each pass times the handshake, data and population
/// segments of the replay apart; one more pass counts allocations.
pub fn traced(load: &MonitorLoad, seconds: f64, report: &mut Report) {
    let mut check = PassCheck { load, first: None };

    // The untraced reference, for the tracing overhead.
    let mut reference = monitor_engine(load.flows);
    let t = Instant::now();
    let alerts = replay(load, &mut reference);
    let reference_secs = t.elapsed().as_secs_f64();
    report.attempted += 1;
    if let Err(e) = check.check(&reference, &alerts) {
        report.fail(1, e);
    }

    let class_idx = |c: BatchClass| match c {
        BatchClass::Handshake => 0,
        BatchClass::Data => 1,
        BatchClass::Population => 2,
    };
    let mut build_ms = Vec::new();
    let mut class_ns = [0f64; 3];
    let mut class_pkts = [0usize; 3];
    let mut process_secs = 0.0;
    let start = Instant::now();
    let mut last = 0.0;
    while crate::another_round(start, seconds, build_ms.len(), MIN_TRACED_PASSES, last) {
        let pass_start = Instant::now();
        let t = Instant::now();
        let mut engine = monitor_engine(load.flows);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut alerts = Vec::new();
        // One clock read per maximal run of same-class batches, so the
        // one-packet population batches don't each pay for one.
        let mut i = 0;
        while i < load.batches.len() {
            let class = load.batches[i].class;
            let mut j = i;
            let t = Instant::now();
            while j < load.batches.len() && load.batches[j].class == class {
                let b = &load.batches[j];
                engine.process_batch(b.time, &b.packets, &mut alerts);
                j += 1;
            }
            let secs = t.elapsed().as_secs_f64();
            process_secs += secs;
            class_ns[class_idx(class)] += secs * 1e9;
            class_pkts[class_idx(class)] += load.batches[i..j]
                .iter()
                .map(|b| b.packets.len())
                .sum::<usize>();
            i = j;
        }
        last = pass_start.elapsed().as_secs_f64();
        report.attempted += 1;
        if let Err(e) = check.check(&engine, &alerts) {
            report.fail(1, e);
        }
    }
    let passes = build_ms.len();

    let mut engine = monitor_engine(load.flows);
    let (alerts, allocs) = alloc::counted(|| replay(load, &mut engine));
    black_box(alerts);
    drop(engine);
    report.digests = check.digests();

    let per_pkt = |i: usize| class_ns[i] / class_pkts[i].max(1) as f64;
    let batch_lens: Vec<f64> = load
        .batches
        .iter()
        .map(|b| b.packets.len() as f64)
        .collect();
    let stats = reference.stats();
    let flows = reference.live_flows();
    let traced_pkts = load.packets * passes;
    report.value(
        "ids.engine_build_ms",
        "ms",
        median(&build_ms),
        build_ms.len(),
    );
    report.value("ids.handshake_ns_per_pkt", "ns", per_pkt(0), class_pkts[0]);
    report.value("ids.data_ns_per_pkt", "ns", per_pkt(1), class_pkts[1]);
    report.value("ids.population_ns_per_pkt", "ns", per_pkt(2), class_pkts[2]);
    report.value(
        "ids.batch_len_p50",
        "packets",
        quantile(&batch_lens, 0.5),
        batch_lens.len(),
    );
    report.value(
        "ids.evaluations_per_pkt",
        "count",
        stats.evaluations as f64 / stats.packets.max(1) as f64,
        stats.packets as usize,
    );
    report.value(
        "ids.allocs_per_pkt",
        "count",
        allocs.allocs as f64 / load.packets as f64,
        load.packets,
    );
    report.value(
        "ids.bytes_per_flow",
        "bytes",
        reference.flow_memory_bytes() as f64 / flows.max(1) as f64,
        flows,
    );
    report.value(
        "ids.pkts_per_s",
        "packets/s",
        traced_pkts as f64 / process_secs,
        traced_pkts,
    );
    report.value(
        "trace.overhead_frac",
        "fraction",
        process_secs / passes as f64 / reference_secs - 1.0,
        passes,
    );
}
