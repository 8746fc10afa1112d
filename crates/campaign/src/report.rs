//! Campaign results: per-trial records, per-cell accuracy/risk matrices,
//! and deterministic JSON/text rendering (no external serializer).

use std::collections::BTreeMap;

use underradar_core::probe::Evidence;
use underradar_core::verdict::Verdict;
use underradar_telemetry::json::escape;

use crate::spec::MethodKind;

/// The outcome of one trial (after any retries).
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Trial index in the expanded matrix.
    pub index: usize,
    /// The method that ran.
    pub method: MethodKind,
    /// Policy column name.
    pub policy: String,
    /// Target domain.
    pub target: String,
    /// The attempt-0 seed.
    pub seed: u64,
    /// Final verdict (after retries).
    pub verdict: Verdict,
    /// Whether the verdict matched the censor's observed behaviour.
    pub verdict_correct: bool,
    /// Whether the run raised zero surveillance alerts on the client.
    pub evaded: bool,
    /// Alert count attributed to the client address.
    pub alerts_on_client: usize,
    /// Whether surveillance attributed the activity to the client.
    pub attributed: bool,
    /// Whether surveillance opened a pursuit on the client.
    pub pursued: bool,
    /// Spoofed-source anonymity-set size, when alerts fired at all.
    pub anonymity_set: Option<usize>,
    /// Retries consumed (0 = first attempt sufficed).
    pub retries: u32,
    /// The probe's evidence key/value pairs from the final attempt.
    pub evidence: Evidence,
}

impl TrialResult {
    /// Render this trial as one deterministic JSON object — the exact
    /// per-trial element of [`StreamReport::to_json`]'s `trials` array,
    /// also emitted standalone as a JSONL row by streaming sinks.
    pub fn to_json_row(&self) -> String {
        format!(
            "{{\"index\":{},\"method\":\"{}\",\"policy\":\"{}\",\"target\":\"{}\",\"seed\":{},\"verdict\":\"{}\",\"correct\":{},\"evaded\":{},\"alerts\":{},\"attributed\":{},\"pursued\":{},\"anonymity_set\":{},\"retries\":{}}}",
            self.index,
            self.method.label(),
            escape(&self.policy),
            escape(&self.target),
            self.seed,
            escape(&self.verdict.to_string()),
            self.verdict_correct,
            self.evaded,
            self.alerts_on_client,
            self.attributed,
            self.pursued,
            self.anonymity_set
                .map_or("null".to_string(), |n| n.to_string()),
            self.retries
        )
    }
}

/// Aggregates for one (method, policy) cell of the campaign matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStat {
    /// Probe label of the method.
    pub method: &'static str,
    /// Policy column name.
    pub policy: String,
    /// Trials in the cell.
    pub trials: usize,
    /// Trials whose verdict matched ground truth.
    pub correct: usize,
    /// Trials that raised zero alerts on the client.
    pub evaded: usize,
    /// Trials still `Inconclusive` after all retries.
    pub inconclusive: usize,
    /// Total retries consumed across the cell.
    pub retries: u64,
}

/// A campaign's report, aggregated incrementally: the per-(method,
/// policy) cell matrix and campaign totals, built by absorbing one
/// [`TrialResult`] at a time in *any* order (the run service's
/// completion order included) without retaining the trials themselves.
///
/// Every aggregate is commutative, so for the same set of trials the
/// rendered report is byte-identical whatever order they were absorbed
/// in — the invariant that makes run-service output independent of the
/// worker count.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Campaign name from the spec.
    pub name: String,
    trials: usize,
    retries: u64,
    inconclusive: usize,
    cells: BTreeMap<(&'static str, String), CellStat>,
}

impl StreamReport {
    /// An empty aggregator for the named campaign.
    pub fn new(name: &str) -> StreamReport {
        StreamReport {
            name: name.to_string(),
            trials: 0,
            retries: 0,
            inconclusive: 0,
            cells: BTreeMap::new(),
        }
    }

    /// Fold one completed trial into the totals and its (method, policy)
    /// cell. Safe to call in any order; every statistic is commutative.
    pub fn absorb(&mut self, t: &TrialResult) {
        self.trials += 1;
        self.retries += t.retries as u64;
        let inconclusive = matches!(t.verdict, Verdict::Inconclusive(_));
        self.inconclusive += inconclusive as usize;
        let cell = self
            .cells
            .entry((t.method.label(), t.policy.clone()))
            .or_insert_with(|| CellStat {
                method: t.method.label(),
                policy: t.policy.clone(),
                trials: 0,
                correct: 0,
                evaded: 0,
                inconclusive: 0,
                retries: 0,
            });
        cell.trials += 1;
        cell.correct += t.verdict_correct as usize;
        cell.evaded += t.evaded as usize;
        cell.inconclusive += inconclusive as usize;
        cell.retries += t.retries as u64;
    }

    /// Trials absorbed so far.
    pub fn trial_count(&self) -> usize {
        self.trials
    }

    /// Per-(method, policy) aggregates, sorted by method label then
    /// policy name — a deterministic accuracy/risk matrix.
    pub fn cells(&self) -> Vec<CellStat> {
        self.cells.values().cloned().collect()
    }

    /// Deterministic JSON rendering: stable key order, stable cell order,
    /// then `trials` — the absorbed trials, which the caller passes in
    /// index order — as [`TrialResult::to_json_row`] objects.
    /// Byte-identical across worker counts.
    pub fn to_json(&self, trials: &[TrialResult]) -> String {
        let mut out = String::with_capacity(256 + trials.len() * 192);
        out.push_str(&format!(
            "{{\"campaign\":\"{}\",\"trial_count\":{},\"retries\":{},\"inconclusive_final\":{},",
            escape(&self.name),
            self.trials,
            self.retries,
            self.inconclusive
        ));
        out.push_str("\"cells\":[");
        for (i, c) in self.cells.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"method\":\"{}\",\"policy\":\"{}\",\"trials\":{},\"correct\":{},\"evaded\":{},\"inconclusive\":{},\"retries\":{}}}",
                c.method,
                escape(&c.policy),
                c.trials,
                c.correct,
                c.evaded,
                c.inconclusive,
                c.retries
            ));
        }
        out.push_str("],\"trials\":[");
        for (i, t) in trials.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json_row());
        }
        out.push_str("]}");
        out
    }

    /// Human-readable matrix summary for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "campaign '{}': {} trials, {} retries, {} inconclusive after retry\n",
            self.name, self.trials, self.retries, self.inconclusive
        );
        out.push_str(&format!(
            "{:<14} {:<14} {:>6} {:>8} {:>7} {:>13} {:>8}\n",
            "method", "policy", "trials", "correct", "evades", "inconclusive", "retries"
        ));
        for c in self.cells.values() {
            out.push_str(&format!(
                "{:<14} {:<14} {:>6} {:>8} {:>7} {:>13} {:>8}\n",
                c.method, c.policy, c.trials, c.correct, c.evaded, c.inconclusive, c.retries
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(method: MethodKind, policy: &str, verdict: Verdict, retries: u32) -> TrialResult {
        TrialResult {
            index: 0,
            method,
            policy: policy.to_string(),
            target: "a.com".to_string(),
            seed: 1,
            verdict_correct: verdict.is_reachable(),
            evaded: true,
            alerts_on_client: 0,
            attributed: false,
            pursued: false,
            anonymity_set: None,
            retries,
            evidence: Vec::new(),
            verdict,
        }
    }

    fn report(name: &str, trials: &[TrialResult]) -> StreamReport {
        let mut report = StreamReport::new(name);
        for t in trials {
            report.absorb(t);
        }
        report
    }

    #[test]
    fn cells_aggregate_and_sort_deterministically() {
        let trials = [
            trial(MethodKind::Scan, "control", Verdict::Reachable, 0),
            trial(
                MethodKind::Scan,
                "control",
                Verdict::Inconclusive("x".into()),
                2,
            ),
            trial(MethodKind::Ddos, "control", Verdict::Reachable, 1),
        ];
        let report = report("t", &trials);
        let cells = report.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].method, "ddos", "sorted by label");
        assert_eq!(cells[1].trials, 2);
        assert_eq!(cells[1].inconclusive, 1);
        assert_eq!(cells[1].retries, 2);
        let json = report.to_json(&trials);
        assert!(json.contains("\"trial_count\":3,\"retries\":3,\"inconclusive_final\":1,"));
    }

    #[test]
    fn absorb_order_never_changes_the_report() {
        let trials = vec![
            trial(MethodKind::Scan, "control", Verdict::Reachable, 0),
            trial(
                MethodKind::Scan,
                "kw",
                Verdict::Inconclusive("timeout".into()),
                2,
            ),
            trial(MethodKind::Ddos, "control", Verdict::Reachable, 1),
            trial(MethodKind::Spam, "kw", Verdict::Reachable, 0),
        ];
        let forward = report("s", &trials);
        // Absorb in reverse (a completion order two workers could produce).
        let reversed: Vec<TrialResult> = trials.iter().rev().cloned().collect();
        let backward = report("s", &reversed);
        assert_eq!(backward.render_text(), forward.render_text());
        assert_eq!(backward.cells(), forward.cells());
        assert_eq!(backward.to_json(&trials), forward.to_json(&trials));
        assert_eq!(backward.trial_count(), 4);
    }

    #[test]
    fn json_row_is_exactly_the_envelope_trial_element() {
        let t = trial(MethodKind::Scan, "control", Verdict::Reachable, 0);
        let trials = [t.clone()];
        let json = report("r", &trials).to_json(&trials);
        assert!(json.ends_with(&format!("\"trials\":[{}]}}", t.to_json_row())));
    }

    #[test]
    fn json_is_stable_and_escapes_strings() {
        let trials = [trial(MethodKind::Scan, "control", Verdict::Reachable, 0)];
        let report = report("q\"uote", &trials);
        let a = report.to_json(&trials);
        let b = report.to_json(&trials);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"campaign\":\"q\\\"uote\","));
        assert!(a.contains("\"anonymity_set\":null"));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }
}
