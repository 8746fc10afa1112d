//! The paper-scale campaign behind `exp_campaign`, plus small helpers
//! the campaign-backed experiments (e02, e04–e07, e12) share.
//!
//! The campaign crosses every measurement method with the censor-policy
//! columns the paper evaluates (control, DNS injection, IP blackholing,
//! keyword RST) over a curated target list — ≥500 trials. Output is
//! byte-identical for any `--shards` value.

use underradar_campaign::{
    CampaignSpec, CellStat, MethodKind, NamedPolicy, StreamReport, TrialResult,
};
use underradar_censor::CensorPolicy;
use underradar_core::testbed::TargetSite;
use underradar_netsim::addr::Cidr;
use underradar_protocols::dns::DnsName;
use underradar_runner::{run_service, RunConfig, VecSink};
use underradar_surveil::exposure::{DeclaredCell, ExposureLedger, SafetyAudit};
use underradar_telemetry::{Registry, Telemetry};

/// Run `spec` through the run service on `workers` threads, with no
/// journal, merging its telemetry into `tel`. Returns the report and
/// every trial in index order; both are byte-identical for any `workers`.
pub fn run_campaign(
    spec: &CampaignSpec,
    workers: usize,
    tel: &Telemetry,
) -> (StreamReport, Vec<TrialResult>) {
    let mut sink = VecSink::new();
    let outcome = run_service(spec, &RunConfig::new(workers), tel, &mut sink)
        .expect("a run without a journal does no I/O and cannot fail");
    (outcome.report, sink.into_sorted())
}

/// Look up one evidence value on a trial ("-" when absent).
pub fn evidence(trial: &TrialResult, key: &str) -> String {
    trial
        .evidence
        .iter()
        .find(|(name, _)| *name == key)
        .map(|(_, value)| value.clone())
        .unwrap_or_else(|| "-".to_string())
}

/// The paper-scale campaign: all 8 methods × 4 policies × 4 targets ×
/// `trials_per_cell` seeds (512 trials at the default 4).
pub fn paper_campaign(trials_per_cell: usize) -> CampaignSpec {
    let targets = underradar_workloads::targets::curated(4);
    let mut dns_block = CensorPolicy::new();
    let mut blackhole = CensorPolicy::new();
    for (i, domain) in targets.iter().enumerate() {
        dns_block = dns_block.block_domain(&DnsName::parse(domain).expect("domain"));
        blackhole = blackhole.block_ip(Cidr::host(TargetSite::numbered(domain, i as u8).web_ip));
    }
    CampaignSpec::new("paper-campaign", 2015)
        .targets(targets.iter().copied())
        .methods(MethodKind::ALL)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new("dns-injection", dns_block))
        .policy(NamedPolicy::new("ip-blackhole", blackhole))
        .policy(
            NamedPolicy::new("keyword-rst", CensorPolicy::new().block_keyword("falun"))
                .with_probe_path("/falun-page"),
        )
        .trials_per_cell(trials_per_cell)
        .run_secs(180)
}

/// A synthetic scale matrix for service-mode stress runs: `trials` cheap
/// SYN-scan trials of one policy column against one target. Each trial is
/// a full deterministic testbed simulation, but the cheapest one we have,
/// so million-trial campaigns (`exp_campaign --service --synthetic N`)
/// finish in minutes while exercising the scheduler, journal, and
/// streaming paths at population scale.
pub fn synthetic_campaign(trials: usize) -> CampaignSpec {
    CampaignSpec::new("synthetic-scale", 2015)
        .target("twitter.com")
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(trials)
        .run_secs(20)
}

/// Run the paper campaign on one worker and render the text view (the
/// `experiments::ALL`-style entry point).
pub fn run_with(tel: &Telemetry) -> String {
    run_campaign(&paper_campaign(4), 1, tel).0.render_text()
}

/// The adversary-eye safety audit: the campaign-wide exposure ledger
/// reconstructed from the merged `registry`, folded against each cell's
/// declared evasion counts.
pub fn safety_audit(cells: &[CellStat], registry: &Registry) -> SafetyAudit {
    let declared: Vec<DeclaredCell> = cells
        .iter()
        .map(|c| DeclaredCell {
            cell: format!("{}/{}", c.method, c.policy),
            trials: c.trials as u64,
            evaded: c.evaded as u64,
        })
        .collect();
    SafetyAudit::build(&ExposureLedger::from_registry(registry), &declared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_campaign_scales_linearly_in_trials() {
        assert_eq!(synthetic_campaign(1_000).trial_count(), 1_000);
        assert_eq!(synthetic_campaign(3).trial_count(), 3);
    }

    #[test]
    fn paper_campaign_is_at_least_500_trials_across_all_methods() {
        let spec = paper_campaign(4);
        assert!(spec.trial_count() >= 500, "{}", spec.trial_count());
        assert_eq!(spec.methods.len(), 8);
        assert!(spec.policies.len() >= 3);
    }
}
