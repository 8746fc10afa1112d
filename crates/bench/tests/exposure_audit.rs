//! Cross-path determinism and safety-regression tests for the exposure
//! ledger: the audit reconstructed from the merged registry must be
//! byte-identical for any worker count and with or without a checkpoint
//! journal, and hosts with no sensitive traffic must score zero
//! under every censor policy.

use underradar_bench::experiments::campaign::{paper_campaign, run_campaign, safety_audit};
use underradar_campaign::report::CellStat;
use underradar_runner::{run_service, NullSink, RunConfig};
use underradar_surveil::exposure::ExposureLedger;
use underradar_telemetry::{Registry, Telemetry};

/// The audit renders (text + sorted-key JSON) derived from a merged
/// registry and the declared per-cell evasion counts.
fn audit_renders(cells: &[CellStat], reg: &Registry) -> (String, String) {
    let audit = safety_audit(cells, reg);
    (audit.render_text(), audit.render_json())
}

/// A stable dump of the raw ledger, independent of the audit layer.
fn ledger_dump(reg: &Registry) -> String {
    ExposureLedger::from_registry(reg)
        .iter()
        .map(|((cell, host), e)| format!("{cell} {host} {e:?}\n"))
        .collect()
}

#[test]
fn audit_is_byte_identical_across_workers_and_journaling() {
    let spec = paper_campaign(1);

    let tel1 = Telemetry::enabled();
    let (report1, _) = run_campaign(&spec, 1, &tel1);
    let (text1, json1) = audit_renders(&report1.cells(), &tel1.snapshot());
    let dump1 = ledger_dump(&tel1.snapshot());
    assert!(
        !ExposureLedger::from_registry(&tel1.snapshot()).is_empty(),
        "paper campaign must produce exposure entries"
    );

    let tel4 = Telemetry::enabled();
    let (report4, _) = run_campaign(&spec, 4, &tel4);
    let (text4, json4) = audit_renders(&report4.cells(), &tel4.snapshot());
    assert_eq!(dump1, ledger_dump(&tel4.snapshot()), "1 vs 4 shard ledger");
    assert_eq!(text1, text4, "1 vs 4 shard audit text");
    assert_eq!(json1, json4, "1 vs 4 shard audit JSON");

    let journal = std::env::temp_dir().join(format!(
        "underradar-exposure-audit-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let tel_svc = Telemetry::enabled();
    let cfg = RunConfig::new(4).checkpoint(journal.clone());
    let outcome = run_service(&spec, &cfg, &tel_svc, &mut NullSink).expect("journaled run");
    let _ = std::fs::remove_file(&journal);
    let (text_svc, json_svc) = audit_renders(&outcome.report.cells(), &tel_svc.snapshot());
    assert_eq!(dump1, ledger_dump(&tel_svc.snapshot()), "journaled ledger");
    assert_eq!(text1, text_svc, "journaled vs in-memory audit text");
    assert_eq!(json1, json_svc, "journaled vs in-memory audit JSON");
}

#[test]
fn hosts_with_no_sensitive_traffic_score_zero_under_every_policy() {
    let spec = paper_campaign(1);
    let tel = Telemetry::enabled();
    let (report, _) = run_campaign(&spec, 1, &tel);
    let ledger = ExposureLedger::from_registry(&tel.snapshot());

    let policies: Vec<String> = report
        .cells()
        .iter()
        .map(|c| c.policy.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(
        policies.len() >= 4,
        "paper matrix carries all four policies"
    );

    let mut passive_with_bytes = 0u64;
    for policy in &policies {
        let suffix = format!("/{policy}");
        let mut saw_cell = false;
        let mut saw_passive = false;
        for ((cell, host), e) in ledger.iter() {
            if !cell.ends_with(&suffix) {
                continue;
            }
            saw_cell = true;
            if e.attributable_events() == 0 && e.sensitive_flows == 0 {
                saw_passive = true;
                assert_eq!(
                    e.score(),
                    0,
                    "host {host} in {cell} has no sensitive traffic but scores {}",
                    e.score()
                );
                if e.retained_bytes > 0 {
                    passive_with_bytes += 1;
                }
            }
        }
        assert!(saw_cell, "no exposure entries for policy {policy}");
        assert!(
            saw_passive,
            "no passively-retained host to exercise the zero-score gate for {policy}"
        );
    }
    assert!(
        passive_with_bytes > 0,
        "at least one zero-score host must still have retained bytes"
    );
}
