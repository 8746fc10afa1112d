//! What a routed trial (hops, stateful mimicry) exports with telemetry
//! on: its monitors take the spec's reassembly limits, the exposure
//! ledger names the spoofed neighbour rather than the client, and the
//! registry holds the tap censor and the IDS but no inline censor.

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy, TrialResult};
use underradar_censor::CensorPolicy;
use underradar_ids::stream::ReassemblyConfig;
use underradar_surveil::exposure::ExposureLedger;
use underradar_telemetry::{Registry, Telemetry};

fn spec(method: MethodKind, policy: NamedPolicy) -> CampaignSpec {
    CampaignSpec::new("routed", 5)
        .target("twitter.com")
        .method(method)
        .policy(policy)
        .run_secs(20)
}

/// The spec's single trial, with its telemetry (scopes enabled).
fn run_single(spec: &CampaignSpec) -> (TrialResult, Registry) {
    let preps = engine::prepare(spec);
    let trial = &spec.expand()[0];
    let cfg = ScopeConfig::of(&Telemetry::enabled());
    engine::run_trial(spec, &preps[trial.policy_idx], trial, cfg)
}

fn control() -> NamedPolicy {
    NamedPolicy::new("control", CensorPolicy::new())
}

#[test]
fn routed_trials_honour_monitor_reassembly() {
    for method in [MethodKind::Hops, MethodKind::Stateful] {
        let spec = spec(method, control()).monitor_reassembly(ReassemblyConfig {
            max_flows: 7,
            ..ReassemblyConfig::default()
        });
        let (_, registry) = run_single(&spec);
        assert_eq!(registry.gauge("ids.engine.flows.capacity"), 7, "{method:?}");
    }
}

#[test]
fn stateful_trial_exposes_the_spoofed_neighbour_not_the_client() {
    let keyword = NamedPolicy::new("keyword-rst", CensorPolicy::new().block_keyword("falun"))
        .with_probe_path("/falun-page");
    let (result, registry) = run_single(&spec(MethodKind::Stateful, keyword));
    assert_eq!(result.anonymity_set, None);
    let ledger = ExposureLedger::from_registry(&registry);
    let host = |ip: &str| ledger.iter().find(|((_, h), _)| h == ip).map(|(_, e)| e);
    let neighbour = host("10.0.1.77").expect("spoofed neighbour exposed");
    assert!(neighbour.alerts >= 1, "{neighbour:?}");
    assert!(neighbour.injections >= 1, "{neighbour:?}");
    assert_eq!(host("10.0.1.2"), None, "client exposed");
}

#[test]
fn hops_trial_exports_tap_and_ids_but_no_inline_censor() {
    let (_, registry) = run_single(&spec(MethodKind::Hops, control()));
    assert!(registry.counter("censor.tap.observed") > 0);
    assert!(registry.counter("ids.engine.packets") > 0);
    let names: Vec<&str> = registry
        .counters
        .keys()
        .chain(registry.gauges.keys())
        .chain(registry.histograms.keys())
        .map(String::as_str)
        .chain(registry.events.iter().map(|e| e.kind))
        .collect();
    assert!(
        !names.iter().any(|n| n.starts_with("censor.inline.")),
        "{names:?}"
    );
}
