//! One module per reproduced table/figure. See `DESIGN.md` §4 for the
//! experiment ↔ paper mapping.
//!
//! Each experiment is a `run_with(&Telemetry) -> Outcome`: its report
//! plus the named [`Claim`]s it checked. The claims are the verdict: the
//! report's `result:` line, the `underradar experiments` exit status and
//! the root `experiment_claims` test all read them.

use underradar_telemetry::Telemetry;

pub mod a1_ablations;
pub mod campaign;
pub mod e01_testbed;
pub mod e02_scan;
pub mod e03_fig2_spam_cdf;
pub mod e04_gfc_dns;
pub mod e05_ddos;
pub mod e06_fig3a_stateless;
pub mod e07_fig3b_stateful;
pub mod e08_syria;
pub mod e09_mvr;
pub mod e10_spoofability;
pub mod e11_ethics_load;
pub mod e12_risk_matrix;
pub mod e13_evasion;
pub mod e14_scale;

/// One statement an experiment makes about its run, under a fixed name.
/// A claim carries no number of its own: the report's tables print the
/// numbers that decide it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// What the experiment asserts, e.g. `"evasion: every DDoS trial evades"`.
    pub name: &'static str,
    /// Whether it held on this run.
    pub pass: bool,
}

/// What an experiment returns: its rendered report and its claims, in
/// the order it checked them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The plain-text report, ending in its `result:` line.
    pub report: String,
    /// Every claim the experiment checked.
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// Whether every claim held.
    pub fn passed(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }

    /// The names of the claims that did not hold.
    pub fn failed(&self) -> Vec<&'static str> {
        self.claims
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.name)
            .collect()
    }
}

/// An experiment's claims as it checks them, in order.
#[derive(Debug, Default)]
pub struct Claims(Vec<Claim>);

impl Claims {
    /// Record claim `name` as holding or not; returns `pass`, so a table
    /// row can mark it. A claim checked again (once per table row, say)
    /// holds only if every check held.
    pub fn check(&mut self, name: &'static str, pass: bool) -> bool {
        match self.0.iter_mut().find(|c| c.name == name) {
            Some(claim) => claim.pass &= pass,
            None => self.0.push(Claim { name, pass }),
        }
        pass
    }

    /// The verdict word of a `result:` line: `PASSED` if every claim
    /// holds, else `FAILED`. The only place that word is decided.
    pub fn verdict(&self) -> &'static str {
        if self.0.iter().all(|c| c.pass) {
            "PASSED"
        } else {
            "FAILED"
        }
    }

    /// Close `report` with its `result:` line, `sentence: <verdict>`, and
    /// return the outcome.
    pub fn conclude(self, mut report: String, sentence: &str) -> Outcome {
        report.push_str(&format!("\nresult: {sentence}: {}\n\n", self.verdict()));
        self.finish(report)
    }

    /// The outcome of a `report` that already ends in its `result:` line.
    pub fn finish(self, report: String) -> Outcome {
        Outcome {
            report,
            claims: self.0,
        }
    }
}

/// A named experiment entry point. The function records metrics into the
/// given [`Telemetry`] handle (a disabled handle costs one branch per
/// site, so `run_with(&Telemetry::disabled())` is the plain run) and
/// returns its report and claims.
pub type Experiment = (&'static str, fn(&Telemetry) -> Outcome);

/// Every experiment, in report order: `(name, run_with)`.
pub const ALL: [Experiment; 15] = [
    ("e01_testbed", e01_testbed::run_with),
    ("e02_scan", e02_scan::run_with),
    ("e03_fig2_spam_cdf", e03_fig2_spam_cdf::run_with),
    ("e04_gfc_dns", e04_gfc_dns::run_with),
    ("e05_ddos", e05_ddos::run_with),
    ("e06_fig3a_stateless", e06_fig3a_stateless::run_with),
    ("e07_fig3b_stateful", e07_fig3b_stateful::run_with),
    ("e08_syria", e08_syria::run_with),
    ("e09_mvr", e09_mvr::run_with),
    ("e10_spoofability", e10_spoofability::run_with),
    ("e11_ethics_load", e11_ethics_load::run_with),
    ("e12_risk_matrix", e12_risk_matrix::run_with),
    ("e13_evasion", e13_evasion::run_with),
    ("e14_scale", e14_scale::run_with),
    ("a1_ablations", a1_ablations::run_with),
];

/// The rows of [`ALL`] that `id` names: every row for `all`, else the row
/// whose table name (`e02_scan`) or short id (`e2`, see [`short_id`])
/// matches, ignoring ASCII case.
pub fn select(id: &str) -> Option<&'static [Experiment]> {
    let all: &'static [Experiment] = &ALL;
    if id.eq_ignore_ascii_case("all") {
        return Some(all);
    }
    let i = all.iter().position(|&(name, _)| {
        name.eq_ignore_ascii_case(id) || short_id(name).eq_ignore_ascii_case(id)
    })?;
    Some(&all[i..=i])
}

/// A row's short id: its name's first token without leading zeros
/// (`e02_scan` → `e2`, `a1_ablations` → `a1`).
pub fn short_id(name: &str) -> String {
    let token = name.split('_').next().unwrap_or(name);
    let (letter, number) = token.split_at(1);
    format!("{letter}{}", number.trim_start_matches('0'))
}

/// Every accepted id, taken from [`ALL`], for usage and error text:
/// `e1|e2|…|a1|all`.
pub fn id_list() -> String {
    let mut ids: Vec<String> = ALL.iter().map(|&(name, _)| short_id(name)).collect();
    ids.push("all".to_string());
    ids.join("|")
}

/// Worker threads for the experiment fan-out: one per available core.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_has_a_distinct_short_id_that_selects_it() {
        for (i, &(name, _)) in ALL.iter().enumerate() {
            let id = short_id(name);
            assert_eq!(select(&id).map(|rows| rows[0].0), Some(name), "{id}");
            assert!(
                ALL[..i].iter().all(|&(other, _)| short_id(other) != id),
                "{id} is ambiguous"
            );
        }
        assert_eq!(short_id("e02_scan"), "e2");
        assert_eq!(short_id("e14_scale"), "e14");
        assert!(id_list().ends_with("|e14|a1|all"), "{}", id_list());
        assert!(select("e15").is_none());
    }
}
