//! Retry semantics: a seeded lossy-link spam trial whose first attempt
//! is swallowed by packet loss (`Inconclusive`) converges on retry, and
//! the retry count lands in the campaign telemetry.

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy, RetryPolicy, TrialResult};
use underradar_censor::CensorPolicy;
use underradar_core::verdict::Verdict;
use underradar_telemetry::{Registry, Telemetry};

/// Pinned empirically: at 35% client-link loss, master seed 6 loses the
/// first spam attempt's DNS exchange (Inconclusive) and the reseeded
/// retry completes with the correct `Reachable` verdict.
const PINNED_MASTER_SEED: u64 = 6;

fn lossy_spec(master_seed: u64) -> CampaignSpec {
    CampaignSpec::new("retry-probe", master_seed)
        .target("twitter.com")
        .method(MethodKind::Spam)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .client_link_loss(0.35)
        .warmup(false)
        .run_secs(40)
}

/// The spec's single trial, with its telemetry (scopes enabled).
fn run_single(spec: &CampaignSpec) -> (TrialResult, Registry) {
    let preps = engine::prepare(spec);
    let trials = spec.expand();
    assert_eq!(trials.len(), 1, "single-trial spec");
    let cfg = ScopeConfig::of(&Telemetry::enabled());
    engine::run_trial(spec, &preps[0], &trials[0], cfg)
}

#[test]
fn first_attempt_inconclusive_retry_converges() {
    let (trial, snap) = run_single(&lossy_spec(PINNED_MASTER_SEED));

    assert_eq!(trial.retries, 1, "exactly one retry should be needed");
    assert!(
        !matches!(trial.verdict, Verdict::Inconclusive(_)),
        "retry must converge, got {}",
        trial.verdict
    );
    assert!(trial.verdict_correct, "converged verdict must be correct");

    // The retry count is visible in the trial's campaign telemetry.
    assert_eq!(snap.counters.get("campaign.inconclusive_final"), None);
    assert_eq!(snap.counters.get("campaign.retries"), Some(&1));
    assert_eq!(snap.counters.get("campaign.method.spam.retries"), Some(&1));
    assert_eq!(snap.counters.get("campaign.trials"), Some(&1));
}

#[test]
fn retry_budget_is_bounded() {
    // At 50% loss most seeds exhaust the budget: retries never exceed
    // the policy's max and the final verdict is reported as-is.
    let spec = lossy_spec(17)
        .client_link_loss(0.5)
        .retry(RetryPolicy::default());
    let (trial, snap) = run_single(&spec);
    assert_eq!(trial.retries, RetryPolicy::default().max_retries);
    assert!(matches!(trial.verdict, Verdict::Inconclusive(_)));
    assert_eq!(snap.counters.get("campaign.inconclusive_final"), Some(&1));
}
