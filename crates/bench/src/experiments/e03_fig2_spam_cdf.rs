//! E3 — **Figure 2**: CDF of spam-filter scores for measurement emails.
//!
//! "This CDF shows Proofpoint's (our university spam detection service)
//! spam scores for n=100 measurements. Possible scores range from 0 (not
//! spam) to 100 (spam)." In the paper, every measurement message lands in
//! the spam range (scores ≈40–100), validating evasion-as-spam.
//!
//! We push n=100 measurement messages through the heuristic scorer and
//! plot the same CDF, with a ham baseline for contrast.

use underradar_spam::{empirical_cdf, ham_message, measurement_spam, spam_score, SPAM_THRESHOLD};

use crate::table::heading;

/// Number of measurement emails, matching the paper's n.
pub const N: u64 = 100;

/// Collect the measurement-spam score sample.
pub fn measurement_scores() -> Vec<f64> {
    (0..N)
        .map(|i| spam_score(&measurement_spam(i, "twitter.com")))
        .collect()
}

/// Run E3 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> String {
    let mut out = heading(
        "E3",
        "Figure 2 (§3.2.3, spam evasion)",
        "all n=100 measurement emails score in the spam range (~40-100)",
    );
    let scores = measurement_scores();
    underradar_spam::score::export_score_telemetry(tel, &scores);
    let cdf = empirical_cdf(&scores);
    out.push_str("CDF of spam scores for n=100 measurement emails:\n\n");
    out.push_str(&underradar_spam::cdf::render_ascii(
        &cdf,
        "Proofpoint-like Spam Score",
        60,
        16,
    ));

    let min = scores.iter().cloned().fold(f64::MAX, f64::min);
    let max = scores.iter().cloned().fold(f64::MIN, f64::max);
    let classified = scores.iter().filter(|&&s| s >= SPAM_THRESHOLD).count();
    let ham_scores: Vec<f64> = (0..N)
        .map(|i| spam_score(&ham_message(i, "campus.example")))
        .collect();
    let ham_max = ham_scores.iter().cloned().fold(f64::MIN, f64::max);

    out.push_str(&format!(
        "\nmeasurement emails: min score {min:.1}, max {max:.1}; {classified}/{N} \
         classified as spam (threshold {SPAM_THRESHOLD})\n"
    ));
    out.push_str(&format!(
        "ham baseline:       max score {ham_max:.1}; 0/{N} classified as spam\n"
    ));
    let pass = classified == N as usize && min >= 40.0 && ham_max < SPAM_THRESHOLD;
    out.push_str(&format!(
        "\nresult: Figure 2 shape reproduced (all measurements in spam range): {}\n\n",
        if pass { "PASSED" } else { "FAILED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_passes() {
        let report = super::run_with(&underradar_telemetry::Telemetry::disabled());
        assert!(report.contains("PASSED"), "{report}");
        assert!(report.contains("100/100"), "{report}");
    }

    #[test]
    fn scores_match_figure2_support() {
        let scores = measurement_scores();
        assert_eq!(scores.len(), 100);
        assert!(scores.iter().all(|&s| (40.0..=100.0).contains(&s)));
    }
}
