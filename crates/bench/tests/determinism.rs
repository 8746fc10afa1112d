//! Determinism regression: the one experiment runner
//! ([`run_experiments`], what `underradar experiments` prints) must give
//! byte-identical reports and registries run-to-run and at any worker
//! count, and a campaign's report, registry and trace must be
//! byte-identical at 1 and 4 run-service workers.
//!
//! Uses the cheaper experiments so the repeated runs stay fast; the
//! runner is the same code `underradar experiments all` uses for all
//! fifteen.

use underradar_bench::cli::{run_experiments, OutputSpec};
use underradar_bench::experiments::{Experiment, ALL};

/// A representative, fast subset: pure-generator (E3, E8, E10) and
/// pipeline (E9) experiments.
fn subset() -> Vec<Experiment> {
    ALL.iter()
        .copied()
        .filter(|(name, _)| {
            matches!(
                *name,
                "e03_fig2_spam_cdf" | "e08_syria" | "e09_mvr" | "e10_spoofability"
            )
        })
        .collect()
}

#[test]
fn experiments_output_is_identical_across_worker_counts_and_runs() {
    // `--json` carries each row's report and telemetry registry.
    let exps = subset();
    let spec = OutputSpec::new().json(true);
    let one = run_experiments(&exps, spec, 1);
    let four = run_experiments(&exps, spec, 4);
    assert_eq!(one, four, "output differs between 1 and 4 workers");
    assert_eq!(
        four,
        run_experiments(&exps, spec, 4),
        "output differs run-to-run"
    );
    let one = one.0;
    // One envelope per row, in table order.
    assert_eq!(one.lines().count(), exps.len());
    for (line, (name, _)) in one.lines().zip(&exps) {
        let head = format!("{{\"experiment\":\"{name}\",");
        assert!(line.starts_with(&head), "{name} out of place");
    }
}

#[test]
fn campaign_sequential_and_sharded_agree_byte_for_byte() {
    use underradar_bench::experiments::campaign::run_campaign;
    use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
    use underradar_censor::CensorPolicy;
    use underradar_protocols::dns::DnsName;
    use underradar_telemetry::Telemetry;

    // Flat + routed methods across two policies so the sharded path
    // crosses policy-prep and method boundaries, not just trial repeats.
    // The client-link impairment knobs are on: every reorder/duplicate/
    // corrupt draw comes from the per-trial simulator RNG in simulated-
    // time order, so shard scheduling must not change a single byte.
    let blocked = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n"));
    let spec = CampaignSpec::new("determinism", 42)
        .targets(["twitter.com", "bbc.com"])
        .methods([MethodKind::Overt, MethodKind::Scan, MethodKind::Stateful])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new("dns-block", blocked))
        .trials_per_cell(2)
        .client_link_reorder(0.2)
        .client_link_duplicate(0.1)
        .client_link_corrupt(0.05)
        .run_secs(30);
    let sequential_tel = Telemetry::enabled();
    let (seq_report, seq_trials) = run_campaign(&spec, 1, &sequential_tel);
    let sharded_tel = Telemetry::enabled();
    let (report, trials) = run_campaign(&spec, 4, &sharded_tel);
    assert_eq!(
        seq_report.to_json(&seq_trials),
        report.to_json(&trials),
        "campaign report differs under sharding"
    );
    assert_eq!(
        sequential_tel.snapshot().to_json(),
        sharded_tel.snapshot().to_json(),
        "merged campaign telemetry differs under sharding"
    );
}

/// ISSUE satellite: the flight recorder must be as deterministic as the
/// report — a traced campaign run yields byte-identical trace JSONL (and
/// explainer chains) whether it runs sequentially or across 4 workers.
#[test]
fn campaign_trace_is_byte_identical_across_shard_counts() {
    use underradar_bench::experiments::campaign::run_campaign;
    use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
    use underradar_censor::CensorPolicy;
    use underradar_protocols::dns::DnsName;
    use underradar_telemetry::{trace, Telemetry, DEFAULT_TRACE_CAPACITY};

    let blocked = CensorPolicy::new()
        .block_domain(&DnsName::parse("twitter.com").expect("n"))
        .block_keyword("falun");
    let spec = CampaignSpec::new("trace-determinism", 7)
        .targets(["twitter.com", "bbc.com"])
        .methods([MethodKind::Overt, MethodKind::Scan])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new("blocked", blocked))
        .trials_per_cell(2)
        .run_secs(30);
    let run = |shards: usize| {
        let tel = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
        let (report, _) = run_campaign(&spec, shards, &tel);
        let snap = tel.snapshot();
        let chains = trace::render_chains(&trace::explain(&snap.trace));
        (report.render_text(), snap.trace_jsonl(), chains)
    };
    let (report_1, jsonl_1, chains_1) = run(1);
    let (report_4, jsonl_4, chains_4) = run(4);
    assert_eq!(report_1, report_4, "report differs under sharding");
    assert_eq!(jsonl_1, jsonl_4, "trace JSONL differs under sharding");
    assert_eq!(chains_1, chains_4, "explainer chains differ under sharding");
    // And the trace actually recorded the pipeline: stream-stage records
    // exist, the blocked cells produced censor actions, and every line
    // parses as a JSON object with the mandatory keys.
    assert!(!jsonl_1.is_empty(), "traced campaign produced no records");
    assert!(jsonl_1.lines().count() > 16);
    for line in jsonl_1.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad row: {line}"
        );
        for key in ["\"kind\":", "\"stage\":", "\"t_ns\":"] {
            assert!(line.contains(key), "row missing {key}: {line}");
        }
    }
    assert!(jsonl_1.contains("\"stage\":\"campaign\""));
    assert!(jsonl_1.contains("\"kind\":\"verdict\""));
    assert!(jsonl_1.contains("\"stage\":\"censor\""));
}

#[test]
fn e09_registry_covers_the_surveillance_pipeline() {
    use underradar_telemetry::Telemetry;

    let tel = Telemetry::enabled();
    underradar_bench::experiments::e09_mvr::run_with(&tel);
    let registry = tel.snapshot();
    assert!(registry.counter("surveil.observed") > 0);
    assert!(registry.counter("surveil.mvr.total_bytes") > 0);
    assert!(registry.counter("surveil.store.metadata.inserted") > 0);
    assert!(registry.counter("workloads.population.packets") > 0);
    assert!(
        !registry.histograms["workloads.population.pkt_bytes"].is_empty(),
        "packet-size histogram populated"
    );
}
