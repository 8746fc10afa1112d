//! The paper-level oracle: every row of `experiments::ALL` runs, and every
//! claim it makes must hold. A failure names the experiment, the claims
//! that failed and prints that experiment's report.

use underradar_bench::experiments::{Outcome, ALL};
use underradar_campaign::steal;
use underradar_telemetry::Telemetry;

/// A1's claims on the RST-teardown and MVR-ordering ablations, checked
/// end to end in A1's own worlds: each must be present, and hold.
const A1_CLAIMS: [&str; 8] = [
    "teardown censor misses the split keyword",
    "neighbour RSTs past the teardown censor",
    "RST-ignoring censor catches the keyword",
    "neighbour RSTs past the RST-ignoring censor",
    "scan censored under discard-first",
    "scan censored under alert-first",
    "discard-first: no client alerts",
    "alert-first: client alerts",
];

#[test]
fn every_experiment_claim_holds() {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let outcomes: Vec<Outcome> =
        steal::run_chunked(ALL.len(), workers, |i| (ALL[i].1)(&Telemetry::disabled()));
    let mut failures = String::new();
    for (&(name, _), outcome) in ALL.iter().zip(&outcomes) {
        assert!(!outcome.claims.is_empty(), "{name} makes no claim");
        if !outcome.passed() {
            failures.push_str(&format!(
                "{name}: failed {:?}\n{}\n",
                outcome.failed(),
                outcome.report
            ));
        }
    }
    assert!(failures.is_empty(), "{failures}");

    let a1 = &outcomes[ALL.len() - 1];
    assert_eq!(ALL[ALL.len() - 1].0, "a1_ablations");
    for want in A1_CLAIMS {
        assert!(
            a1.claims.iter().any(|c| c.name == want),
            "a1_ablations lacks the claim '{want}'"
        );
    }
}
