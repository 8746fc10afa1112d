//! E2 — §3.1 Method #1 / §3.2.2: the scanning measurement.
//!
//! "Our scanning traffic is evasive because we use nmap for SYN scanning
//! ... Our scanning measurement is accurate because nmap can detect which
//! ports are open, thereby enabling us to infer censorship if a port that
//! should be open is not (e.g., port 80 for BBC.com)."
//!
//! Matrix: censorship scenario × (accuracy, evasion) — expressed as a
//! thin `CampaignSpec` with one policy column per scenario, driven by
//! the campaign engine.

use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
use underradar_censor::CensorPolicy;
use underradar_core::testbed::TargetSite;
use underradar_netsim::addr::Cidr;

use crate::experiments::campaign::run_campaign;
use crate::experiments::{Claims, Outcome};
use crate::table::{heading, mark, Table};

/// Run E2 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E2",
        "§3.2.2 (Method #1: scanning)",
        "SYN scans detect blocking per port AND are discarded by the MVR",
    );
    let target = TargetSite::numbered("twitter.com", 0).web_ip;
    let spec = CampaignSpec::new("e02-scan", 7)
        .target("twitter.com")
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new(
            "open service (control)",
            CensorPolicy::new(),
        ))
        .policy(NamedPolicy::new(
            "IP blackholed",
            CensorPolicy::new().block_ip(Cidr::host(target)),
        ))
        .policy(NamedPolicy::new(
            "port 80 blocked",
            CensorPolicy::new().block_port(Cidr::host(target), 80),
        ))
        .run_secs(30);
    let (_, trials) = run_campaign(&spec, 1, tel);

    let mut table = Table::new(&[
        "scenario",
        "verdict",
        "correct",
        "open/closed/filtered (of 60)",
        "evades",
    ]);
    let mut claims = Claims::default();
    for trial in &trials {
        claims.check("accuracy: every verdict is correct", trial.verdict_correct);
        claims.check("evasion: every scan evades", trial.evaded);
        table.row(&[
            trial.policy.clone(),
            trial.verdict.to_string(),
            mark(trial.verdict_correct).to_string(),
            format!(
                "{}/{}/{}",
                super::campaign::evidence(trial, "open"),
                super::campaign::evidence(trial, "closed"),
                super::campaign::evidence(trial, "filtered"),
            ),
            mark(trial.evaded).to_string(),
        ]);
    }
    out.push_str(&table.render());
    claims.conclude(
        out,
        "scanning satisfies both §3.2 criteria (evasion + accuracy)",
    )
}
