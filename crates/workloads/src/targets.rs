//! Campaign-scale target lists.
//!
//! Real measurement campaigns probe hundreds to thousands of URLs drawn
//! from curated test lists (the Citizen Lab lists OONI uses) plus
//! country-specific additions. This module provides deterministic target
//! lists at those scales without any network access: a small curated
//! sample of globally interesting domains, and a synthetic generator for
//! stress-scale campaigns. Plain domain strings only — mapping to
//! simulated addresses is the campaign engine's job.

/// A curated sample of measurement-list domains: global news, social
/// media, circumvention, and control sites — the categories §2 of the
/// paper calls out as commonly censored (and commonly measured).
pub fn curated_sample() -> Vec<&'static str> {
    vec![
        "twitter.com",
        "youtube.com",
        "bbc.com",
        "facebook.com",
        "wikipedia.org",
        "torproject.org",
        "psiphon.ca",
        "rferl.org",
        "aljazeera.com",
        "example.org",
    ]
}

/// The first `n` domains of the curated sample (clamped to its length).
pub fn curated(n: usize) -> Vec<&'static str> {
    let mut sample = curated_sample();
    sample.truncate(n);
    sample
}

/// A deterministic synthetic list of `n` distinct domains for
/// stress-scale campaigns ("site-007.example.net", ...). Same `n` always
/// yields the same list.
pub fn synthetic(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("site-{i:03}.example.net")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_deterministic_and_distinct() {
        assert_eq!(curated(3), vec!["twitter.com", "youtube.com", "bbc.com"]);
        assert_eq!(synthetic(2), synthetic(2));
        let list = synthetic(25);
        let mut uniq = list.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 25, "no duplicate domains");
    }

    #[test]
    fn curated_clamps() {
        assert_eq!(curated(999).len(), curated_sample().len());
    }
}
