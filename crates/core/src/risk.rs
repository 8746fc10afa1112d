//! Risk evaluation: the safety half of every experiment.
//!
//! §3.2's success criterion: a measurement succeeds if it "can detect
//! blocking ... without triggering the MVR to log its traffic". The
//! [`RiskReport`] captures that plus the user-focused escalation chain of
//! §2.1 (alert → attribution → pursuit) and §4's anonymity-set framing.

use std::net::Ipv4Addr;

use underradar_netsim::sim::Simulator;
use underradar_surveil::SurveillanceSystem;

use crate::monitors::MonitorSet;
use crate::testbed::{TargetSite, Testbed};
use crate::verdict::Verdict;

/// The outcome of one measurement run, on both axes the paper evaluates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiskReport {
    /// Ground truth: the censor acted during the run.
    pub censor_triggered: bool,
    /// Accuracy: the verdict matches ground truth.
    pub verdict_correct: bool,
    /// Alerts the surveillance system attributed to the client's address.
    pub alerts_on_client: usize,
    /// The client appears in the analyst's triage queue.
    pub attributed: bool,
    /// The client falls within analyst pursuit capacity.
    pub pursued: bool,
    /// Distinct in-home sources the surveillance system would have to
    /// suspect (None when nothing was alerted on). Overt measurement
    /// yields `Some(1)`; cover traffic inflates this.
    pub anonymity_set: Option<usize>,
}

impl RiskReport {
    /// Evaluate a verdict against the testbed's ground truth and
    /// surveillance state, anonymity set included.
    pub fn evaluate(tb: &Testbed, verdict: &Verdict) -> RiskReport {
        RiskReport::score(&tb.sim, tb.monitors(), tb.client_ip, verdict)
            .with_anonymity_set(tb.surveillance())
    }

    /// Evaluate a survey: one verdict per target site, each scored
    /// against the censor's actions on that site alone
    /// ([`TargetSite::concerns`]). The report is correct only if every
    /// verdict is; censor ground truth, alerts, attribution and the
    /// anonymity set cover the whole run.
    pub fn evaluate_survey(tb: &Testbed, verdicts: &[(&TargetSite, Verdict)]) -> RiskReport {
        let monitors = tb.monitors();
        let verdict_correct = verdicts.iter().all(|(site, verdict)| {
            let censored = monitors
                .censor_actions(&tb.sim)
                .any(|action| site.concerns(action));
            verdict.correct_against(censored)
        });
        // Every other field is independent of the verdict.
        RiskReport {
            verdict_correct,
            ..RiskReport::evaluate(tb, &Verdict::Reachable)
        }
    }

    /// Add the anonymity set: the distinct in-home sources `surveillance`
    /// alerted on, if any. Only a world with a cover population (the flat
    /// testbed) has one to measure.
    pub fn with_anonymity_set(mut self, surveillance: &SurveillanceSystem) -> RiskReport {
        let home = Testbed::home_net();
        let alert_sources: Vec<Ipv4Addr> = surveillance
            .engine()
            .log()
            .all()
            .iter()
            .map(|a| a.src)
            .filter(|s| home.contains(*s))
            .collect();
        if !alert_sources.is_empty() {
            self.anonymity_set = Some(underradar_spoof::anonymity_set(&alert_sources, 32));
        }
        self
    }

    /// Score a verdict for `client` against any world's monitors: censor
    /// ground truth, alerts, attribution and pursuit. The anonymity set
    /// stays `None` ([`RiskReport::with_anonymity_set`] adds it).
    pub fn score(
        sim: &Simulator,
        monitors: MonitorSet,
        client: Ipv4Addr,
        verdict: &Verdict,
    ) -> RiskReport {
        let censor_triggered = monitors.censor_acted(sim);
        let surveillance = monitors.surveillance(sim);
        RiskReport {
            censor_triggered,
            verdict_correct: verdict.correct_against(censor_triggered),
            alerts_on_client: surveillance.alerts_for(client),
            attributed: surveillance.is_attributed(client),
            pursued: surveillance.is_pursued(client),
            anonymity_set: None,
        }
    }

    /// The paper's evasion criterion: nothing alerted on the client.
    pub fn evades(&self) -> bool {
        self.alerts_on_client == 0
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "censor={} correct={} evades={} alerts={} attributed={} pursued={} anonset={}",
            self.censor_triggered,
            self.verdict_correct,
            self.evades(),
            self.alerts_on_client,
            self.attributed,
            self.pursued,
            self.anonymity_set
                .map_or("-".to_string(), |n| n.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedConfig;
    use crate::verdict::Mechanism;

    #[test]
    fn quiet_run_evades_trivially() {
        let tb = Testbed::build(TestbedConfig::default());
        let report = RiskReport::evaluate(&tb, &Verdict::Reachable);
        assert!(!report.censor_triggered);
        assert!(report.verdict_correct);
        assert!(report.evades());
        assert!(!report.attributed);
        assert_eq!(report.anonymity_set, None);
        assert!(report.summary().contains("evades=true"));
    }

    #[test]
    fn wrong_verdict_scored_incorrect() {
        let tb = Testbed::build(TestbedConfig::default());
        let report = RiskReport::evaluate(&tb, &Verdict::Censored(Mechanism::Blackhole));
        assert!(
            !report.verdict_correct,
            "claimed censorship where none happened"
        );
    }
}
