//! E5 — §3.1 Method #3: DDoS mimicry.
//!
//! "Repeated requests are also advantageous because we can treat each
//! request as a measurement sample and better determine how content is
//! being censored. DDoS attacks also significantly differ from typical
//! user traffic, causing the MVR to discard the traffic more
//! aggressively."
//!
//! Sweep the burst size: small bursts look like browsing (retained,
//! alertable); large bursts cross the rate classifier and get discarded.
//! Accuracy is checked per censorship scenario at the large burst size.

use underradar_censor::CensorPolicy;
use underradar_core::methods::ddos::DdosProbe;
use underradar_core::probe::Probe;
use underradar_core::testbed::{Testbed, TestbedConfig};
use underradar_netsim::time::SimTime;

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, mark, Table};

fn run_burst(
    tel: &underradar_telemetry::Telemetry,
    policy: CensorPolicy,
    path: &str,
    samples: usize,
) -> (Testbed, usize) {
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        seed: 11,
        ..TestbedConfig::default()
    });
    let scope = tel.scope();
    tb.set_telemetry(scope.clone());
    let target = tb.target("youtube.com").expect("target").web_ip;
    let probe = DdosProbe::new(target, "youtube.com", path, samples);
    let idx = tb.spawn_on_client(SimTime::ZERO, Box::new(probe));
    tb.run_secs(180);
    tb.export_telemetry(&scope);
    tel.absorb(&scope);
    (tb, idx)
}

/// Run E5 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E5",
        "§3.1 Method #3 (DDoS mimicry)",
        "per-request samples measure censorship; large bursts are MVR-discarded",
    );

    out.push_str("burst-size sweep (uncensored target):\n");
    let mut sweep = Table::new(&[
        "samples",
        "classified DDoS",
        "MVR discarded pkts",
        "verdict",
    ]);
    for samples in [5usize, 20, 60] {
        let (tb, idx) = run_burst(tel, CensorPolicy::new(), "/watch", samples);
        let probe = tb.client_task::<DdosProbe>(idx).expect("probe");
        let ddos_pkts = tb
            .surveillance()
            .mvr()
            .volumes()
            .iter()
            .find(|(c, _)| *c == underradar_surveil::TrafficClass::DdosSource)
            .map(|(_, v)| v.packets)
            .unwrap_or(0);
        sweep.row(&[
            samples.to_string(),
            mark(ddos_pkts > 0).to_string(),
            tb.surveillance().stats().discarded.to_string(),
            probe.verdict().to_string(),
        ]);
    }
    out.push_str(&sweep.render());

    out.push_str("\naccuracy matrix (keyword samples ride on an already-classified flood):\n");
    let mut acc = Table::new(&[
        "scenario",
        "ok/reset/refused/timeout",
        "verdict",
        "correct",
        "evades",
    ]);
    let mut claims = Claims::default();
    // One campaign cell per scenario; the engine's ddos driver runs the
    // warm-up flood ("causing the MVR to discard the traffic more
    // aggressively") before the measured samples.
    use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
    let spec = CampaignSpec::new("e05-ddos", 11)
        .target("youtube.com")
        .method(MethodKind::Ddos)
        .policy(NamedPolicy::new("uncensored", CensorPolicy::new()).with_probe_path("/watch"))
        .policy(
            NamedPolicy::new(
                "keyword censored",
                CensorPolicy::new().block_keyword("falun"),
            )
            .with_probe_path("/falun-video"),
        )
        .run_secs(180);
    let (_, trials) = crate::experiments::campaign::run_campaign(&spec, 1, tel);
    for trial in &trials {
        claims.check("accuracy: every verdict is correct", trial.verdict_correct);
        claims.check("evasion: every DDoS trial evades", trial.evaded);
        let ev = |k| crate::experiments::campaign::evidence(trial, k);
        acc.row(&[
            trial.policy.clone(),
            format!(
                "{}/{}/{}/{}",
                ev("ok"),
                ev("reset"),
                ev("refused"),
                ev("timed_out")
            ),
            trial.verdict.to_string(),
            mark(trial.verdict_correct).to_string(),
            mark(trial.evaded).to_string(),
        ]);
    }
    out.push_str(&acc.render());
    claims.conclude(out, "DDoS mimicry accuracy + evasion")
}
