//! Synthetic censorship logs calibrated to the Syria statistic.
//!
//! §2.2 cites Chaabane et al.'s analysis of two days of leaked Syrian
//! proxy logs: **1.57 % of the population accessed at least one censored
//! site** — too many users for alert-on-every-censored-request targeting
//! to be actionable. The real logs are not available (and should not be),
//! so this module generates a synthetic log with the same aggregate shape:
//!
//! * per-user request counts are Poisson with mean λ = 100 over two days;
//! * each request independently hits censored content with probability
//!   `p`;
//! * hence the fraction of users with ≥1 censored access is
//!   `1 − E[(1−p)^N] = 1 − exp(−λ·p)` — and `p` is solved from the target
//!   fraction.

use underradar_netsim::rng::SimRng;
use underradar_netsim::time::{SimDuration, SimTime};

use crate::zipf::Zipf;

/// One log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyriaLogEntry {
    /// Anonymous user id.
    pub user: u32,
    /// Request time within the log window.
    pub time: SimTime,
    /// Requested domain (rank into the popularity table, or a censored
    /// site name).
    pub domain: String,
    /// Whether the proxy censored the request.
    pub censored: bool,
}

/// Log window (the leak covered two days).
const WINDOW: SimDuration = SimDuration::from_days(2);
/// Mean requests per user over the window (Poisson λ).
const MEAN_REQUESTS: f64 = 100.0;
/// The paper's fraction of users with ≥1 censored access.
const TARGET_FRACTION: f64 = 0.0157;
/// Number of ordinary domains (Zipf popularity).
const DOMAINS: usize = 2000;
/// Names of censored sites requests may hit.
const CENSORED_SITES: [&str; 5] = [
    "facebook.com",
    "youtube.com",
    "twitter.com",
    "aljazeera.net",
    "wikileaks.org",
];

/// Per-request probability of touching censored content, calibrated so
/// the expected fraction of users with ≥1 censored access equals
/// [`TARGET_FRACTION`]: `1 − exp(−λ p) = target  ⇒  p = −ln(1 − target) / λ`.
fn p_censored() -> f64 {
    -(1.0 - TARGET_FRACTION).ln() / MEAN_REQUESTS
}

/// A generated log.
#[derive(Debug)]
pub struct SyriaLog {
    /// All entries, time-ordered per user (not globally sorted; sort if
    /// needed).
    pub entries: Vec<SyriaLogEntry>,
    /// Population size the log was generated for.
    pub users: u32,
}

impl SyriaLog {
    /// Generate a log for a population of `users`, calibrated to the
    /// paper's 1.57 %.
    pub fn generate(users: u32, rng: &mut SimRng) -> SyriaLog {
        let zipf = Zipf::new(DOMAINS, 1.0);
        let p_censored = p_censored();
        let mut entries = Vec::new();
        for user in 0..users {
            let n = poisson(MEAN_REQUESTS, rng);
            for _ in 0..n {
                let censored = rng.chance(p_censored);
                let domain = if censored {
                    CENSORED_SITES[rng.index(CENSORED_SITES.len())].to_string()
                } else {
                    format!("site{}.example", zipf.sample(rng))
                };
                entries.push(SyriaLogEntry {
                    user,
                    time: SimTime::from_nanos(rng.range_u64(0, WINDOW.as_nanos())),
                    domain,
                    censored,
                });
            }
        }
        SyriaLog { entries, users }
    }

    /// Total requests.
    pub fn total_requests(&self) -> usize {
        self.entries.len()
    }

    /// Censored requests.
    pub fn censored_requests(&self) -> usize {
        self.entries.iter().filter(|e| e.censored).count()
    }

    /// Distinct users with at least one censored access.
    pub fn users_with_censored_access(&self) -> usize {
        let mut seen = vec![false; self.users as usize];
        for e in &self.entries {
            if e.censored {
                seen[e.user as usize] = true;
            }
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Mirror log-level totals into `tel` under `workloads.syria.*`,
    /// including the headline users-touching-censored-content fraction in
    /// parts-per-million. Idempotent.
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.set_counter("workloads.syria.requests", self.total_requests() as u64);
        tel.set_counter(
            "workloads.syria.censored_requests",
            self.censored_requests() as u64,
        );
        tel.set_gauge("workloads.syria.users", i64::from(self.users));
        tel.set_gauge(
            "workloads.syria.users_censored",
            self.users_with_censored_access() as i64,
        );
        tel.set_gauge(
            "workloads.syria.users_censored_ppm",
            (self.fraction_users_censored() * 1e6).round() as i64,
        );
    }

    /// The headline statistic: fraction of the population that touched
    /// censored content at least once.
    pub fn fraction_users_censored(&self) -> f64 {
        if self.users == 0 {
            return 0.0;
        }
        self.users_with_censored_access() as f64 / self.users as f64
    }
}

/// Knuth's Poisson sampler (fine for λ ≤ a few hundred).
fn poisson(lambda: f64, rng: &mut SimRng) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.unit().max(f64::MIN_POSITIVE);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 100_000 {
            return k; // guard against pathological λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_the_paper_fraction() {
        let expected = 1.0 - (-MEAN_REQUESTS * p_censored()).exp();
        assert!((expected - 0.0157).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(42);
        let log = SyriaLog::generate(30_000, &mut rng);
        let frac = log.fraction_users_censored();
        assert!(
            (frac - 0.0157).abs() < 0.003,
            "measured {frac}, expected ≈0.0157"
        );
    }

    #[test]
    fn request_volume_matches_lambda() {
        let mut rng = SimRng::seed_from_u64(7);
        let log = SyriaLog::generate(2_000, &mut rng);
        let per_user = log.total_requests() as f64 / 2_000.0;
        assert!((per_user - 100.0).abs() < 3.0, "mean requests {per_user}");
    }

    #[test]
    fn censored_entries_use_censored_sites() {
        let mut rng = SimRng::seed_from_u64(9);
        let log = SyriaLog::generate(500, &mut rng);
        for e in log.entries.iter().filter(|e| e.censored) {
            assert!(CENSORED_SITES.contains(&e.domain.as_str()), "{}", e.domain);
        }
        for e in log.entries.iter().filter(|e| !e.censored).take(100) {
            assert!(e.domain.starts_with("site"));
        }
    }

    #[test]
    fn times_inside_window() {
        let mut rng = SimRng::seed_from_u64(3);
        let log = SyriaLog::generate(100, &mut rng);
        let end = SimTime::ZERO + WINDOW;
        assert!(log.entries.iter().all(|e| e.time < end));
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| u64::from(poisson(30.0, &mut rng))).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 30.0).abs() < 0.5, "poisson mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn empty_population() {
        let mut rng = SimRng::seed_from_u64(1);
        let log = SyriaLog::generate(0, &mut rng);
        assert_eq!(log.total_requests(), 0);
        assert_eq!(log.fraction_users_censored(), 0.0);
    }
}
