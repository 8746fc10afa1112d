//! One module per reproduced table/figure. See `DESIGN.md` §4 for the
//! experiment ↔ paper mapping.

use std::time::Instant;

use underradar_campaign::steal;
use underradar_telemetry::{Registry, Telemetry};

use crate::runner::StageClock;

pub mod a1_ablations;
pub mod campaign;
pub mod e01_testbed;
pub mod e02_scan;
pub mod e03_fig2_spam_cdf;
pub mod e04_gfc_dns;
pub mod e05_ddos;
pub mod e06_fig3a_stateless;
pub mod e07_fig3b_stateful;
pub mod e08_syria;
pub mod e09_mvr;
pub mod e10_spoofability;
pub mod e11_ethics_load;
pub mod e12_risk_matrix;
pub mod e13_evasion;
pub mod e14_scale;

/// A named experiment entry point. The function records metrics into the
/// given [`Telemetry`] handle (a disabled handle costs one branch per
/// site, so `run_with(&Telemetry::disabled())` is the plain run).
pub type Experiment = (&'static str, fn(&Telemetry) -> String);

/// Every experiment, in report order: `(name, run_with)`.
pub const ALL: [Experiment; 15] = [
    ("e01_testbed", e01_testbed::run_with),
    ("e02_scan", e02_scan::run_with),
    ("e03_fig2_spam_cdf", e03_fig2_spam_cdf::run_with),
    ("e04_gfc_dns", e04_gfc_dns::run_with),
    ("e05_ddos", e05_ddos::run_with),
    ("e06_fig3a_stateless", e06_fig3a_stateless::run_with),
    ("e07_fig3b_stateful", e07_fig3b_stateful::run_with),
    ("e08_syria", e08_syria::run_with),
    ("e09_mvr", e09_mvr::run_with),
    ("e10_spoofability", e10_spoofability::run_with),
    ("e11_ethics_load", e11_ethics_load::run_with),
    ("e12_risk_matrix", e12_risk_matrix::run_with),
    ("e13_evasion", e13_evasion::run_with),
    ("e14_scale", e14_scale::run_with),
    ("a1_ablations", a1_ablations::run_with),
];

/// Worker threads for the experiment fan-out: one per available core.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Run every experiment, concatenating reports (used by the `cargo bench`
/// harness so one command regenerates all tables and figures).
///
/// The experiments fan out across worker threads via
/// [`steal::run_chunked`]; the concatenation is in [`ALL`] order, and
/// each experiment seeds its own RNGs, so the report is byte-identical
/// to a sequential run.
pub fn run_all() -> String {
    steal::run_chunked(ALL.len(), workers(), |i| (ALL[i].1)(&Telemetry::disabled())).concat()
}

/// One experiment's outcome: name, rendered report, telemetry registry.
pub type ExperimentResult = (&'static str, String, Registry);

/// Run `experiments` with telemetry enabled, fanned out across worker
/// threads. Each experiment records into its own registry, so results are
/// independent of scheduling; the output is in item order and
/// byte-identical to [`collect_sequential`].
pub fn collect(experiments: &[Experiment]) -> Vec<ExperimentResult> {
    collect_profiled(experiments).0
}

/// Run `experiments` with telemetry enabled, one after another on this
/// thread (the reference ordering [`collect`] must match byte-for-byte).
pub fn collect_sequential(experiments: &[Experiment]) -> Vec<ExperimentResult> {
    experiments
        .iter()
        .map(|&(name, run)| {
            let tel = Telemetry::enabled();
            let report = run(&tel);
            (name, report, tel.snapshot())
        })
        .collect()
}

/// [`collect`] with wall-clock profiling: each experiment's prepare
/// (telemetry scope build), run (experiment body), and score (registry
/// snapshot) stages are timed on a [`StageClock`]. Returns the results —
/// byte-identical to [`collect`] — and a `--- profile ---` footer (run
/// wall time and per-stage totals) for stderr.
pub fn collect_profiled(experiments: &[Experiment]) -> (Vec<ExperimentResult>, String) {
    let clock = StageClock::default();
    let start = Instant::now();
    let results = steal::run_chunked(experiments.len(), workers(), |i| {
        let (name, run) = experiments[i];
        let tel = clock.time("prepare", Telemetry::enabled);
        let report = clock.time("run", || run(&tel));
        let registry = clock.time("score", || tel.snapshot());
        (name, report, registry)
    });
    let footer = format!(
        "--- profile ---\nwall {:.3}s across {} workers\n{}",
        start.elapsed().as_secs_f64(),
        workers().min(experiments.len()),
        clock.render()
    );
    (results, footer)
}

/// Render `BENCH_telemetry.json`: every experiment's registry in run
/// order, plus a merged view folding all of them together (counters add,
/// gauges overwrite, histograms bucket-add). Deterministic: same inputs,
/// same bytes.
pub fn telemetry_json(results: &[ExperimentResult]) -> String {
    let mut merged = Registry::default();
    let mut out = String::from("{\"experiments\":{");
    for (i, (name, _, registry)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        underradar_telemetry::json::push_key(&mut out, name);
        out.push_str(&registry.to_json());
        merged.merge(registry);
    }
    out.push_str("},\"merged\":");
    out.push_str(&merged.to_json());
    out.push_str("}\n");
    out
}
