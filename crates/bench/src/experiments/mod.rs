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

/// The rows of [`ALL`] that `id` names: every row for `all`, else the row
/// whose table name (`e02_scan`) or short id (`e2`, see [`short_id`])
/// matches, ignoring ASCII case.
pub fn select(id: &str) -> Option<&'static [Experiment]> {
    let all: &'static [Experiment] = &ALL;
    if id.eq_ignore_ascii_case("all") {
        return Some(all);
    }
    let i = all.iter().position(|&(name, _)| {
        name.eq_ignore_ascii_case(id) || short_id(name).eq_ignore_ascii_case(id)
    })?;
    Some(&all[i..=i])
}

/// A row's short id: its name's first token without leading zeros
/// (`e02_scan` → `e2`, `a1_ablations` → `a1`).
pub fn short_id(name: &str) -> String {
    let token = name.split('_').next().unwrap_or(name);
    let (letter, number) = token.split_at(1);
    format!("{letter}{}", number.trim_start_matches('0'))
}

/// Every accepted id, taken from [`ALL`], for usage and error text:
/// `e1|e2|…|a1|all`.
pub fn id_list() -> String {
    let mut ids: Vec<String> = ALL.iter().map(|&(name, _)| short_id(name)).collect();
    ids.push("all".to_string());
    ids.join("|")
}

/// Worker threads for the experiment fan-out: one per available core.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_has_a_distinct_short_id_that_selects_it() {
        for (i, &(name, _)) in ALL.iter().enumerate() {
            let id = short_id(name);
            assert_eq!(select(&id).map(|rows| rows[0].0), Some(name), "{id}");
            assert!(
                ALL[..i].iter().all(|&(other, _)| short_id(other) != id),
                "{id} is ambiguous"
            );
        }
        assert_eq!(short_id("e02_scan"), "e2");
        assert_eq!(short_id("e14_scale"), "e14");
        assert!(id_list().ends_with("|e14|a1|all"), "{}", id_list());
        assert!(select("e15").is_none());
    }
}
