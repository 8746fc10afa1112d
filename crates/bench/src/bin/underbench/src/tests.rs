//! Every workload at toy size (64 trials; one 2,000-flow monitor pass per
//! run), untraced and traced: every check passes, the re-driven trials
//! equal the engine's, and every metric `BENCHMARK.json` names is emitted,
//! so a renamed or dropped metric fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::workloads::{Size, NAMES};
use crate::{parse_args, run_one, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(bench: &Json, key: &str) -> BTreeSet<(String, String)> {
    bench
        .get(key)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

fn table(metrics: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn test_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/underbench-test");
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

#[test]
fn metric_tables_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(section(&bench, "end_to_end"), table(&END_TO_END));
    assert_eq!(section(&bench, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, NAMES);
}

#[test]
fn every_workload_passes_its_checks_at_toy_size() {
    let dir = test_dir();
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layers: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    for name in NAMES {
        let untraced = run_one(name, 7, 0.0, false, Size::Toy, &dir);
        assert!(untraced.attempted > 0, "{name}: nothing attempted");
        assert_eq!(
            (untraced.failed, &untraced.errors),
            (0, &Vec::new()),
            "{name}: untraced checks"
        );
        assert_eq!(
            untraced.metric_names().into_iter().collect::<BTreeSet<_>>(),
            e2e,
            "{name}: end-to-end metrics"
        );
        for (metric, _) in END_TO_END {
            let v = untraced.metric(metric).unwrap_or(0.0);
            assert!(v > 0.0, "{name}: {metric} = {v}");
        }

        // A re-driven attempt that differs from the engine's fails the
        // traced run, so a clean traced run means every trial matched.
        let traced = run_one(name, 7, 0.0, true, Size::Toy, &dir);
        assert_eq!(
            (traced.failed, &traced.errors),
            (0, &Vec::new()),
            "{name}: traced checks"
        );
        assert_eq!(
            traced.metric_names().into_iter().collect::<BTreeSet<_>>(),
            layers,
            "{name}: per-layer metrics"
        );
        assert_eq!(
            traced.output_digest(),
            untraced.output_digest(),
            "{name}: traced one-worker output equals the untraced output"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arguments_from_outside_are_checked() {
    let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(args(&[
        "--workload",
        "paper_mix",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1"
    ])
    .is_ok());
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--trace", "2"]).is_err());
    assert!(args(&["--seed", "-1"]).is_err());
    assert!(args(&["--seconds", "NaN"]).is_err());
    assert!(args(&["--seconds"]).is_err());
    assert!(args(&["--bogus"]).is_err());
}
