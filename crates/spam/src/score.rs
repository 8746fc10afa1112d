//! The heuristic spam scorer.
//!
//! Produces a 0–100 score like Proofpoint's. The score is a weighted sum
//! of content features, clamped; [`SPAM_THRESHOLD`] marks the
//! quarantine-as-spam decision. The exact weights are not Proofpoint's
//! (those are proprietary) — what matters for the reproduction is the
//! *separation*: bulk-mail-shaped messages score high, ordinary
//! correspondence scores low, and the measurement templates land firmly in
//! the spam range like the paper's Figure 2 shows.

use underradar_protocols::email::EmailMessage;

/// Score at or above which a message is classified as spam.
pub const SPAM_THRESHOLD: f64 = 50.0;

/// Phrases that bulk mail leans on, with weights.
const SPAM_PHRASES: &[(&str, f64)] = &[
    ("free", 6.0),
    ("winner", 8.0),
    ("won", 5.0),
    ("prize", 8.0),
    ("click here", 10.0),
    ("act now", 9.0),
    ("limited time", 8.0),
    ("no obligation", 9.0),
    ("risk-free", 9.0),
    ("viagra", 14.0),
    ("pharmacy", 10.0),
    ("casino", 10.0),
    ("earn money", 10.0),
    ("work from home", 9.0),
    ("cheap", 5.0),
    ("discount", 5.0),
    ("offer expires", 9.0),
    ("guarantee", 6.0),
    ("million dollars", 12.0),
    ("dear friend", 8.0),
    ("unsubscribe", 4.0),
    ("this is not spam", 15.0),
];

/// Per-feature contributions, for explainability and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreBreakdown {
    /// Weighted spam-phrase hits.
    pub phrases: f64,
    /// URL density and raw-IP URL contributions.
    pub urls: f64,
    /// Subject-line features (caps, punctuation).
    pub subject: f64,
    /// Header anomalies (missing Message-ID/Date, bulk mailers).
    pub headers: f64,
    /// Sender/link domain mismatch.
    pub mismatch: f64,
    /// Final clamped score.
    pub total: f64,
}

fn phrase_score(msg: &EmailMessage) -> f64 {
    let haystack = format!("{} {}", msg.subject, msg.body).to_ascii_lowercase();
    SPAM_PHRASES
        .iter()
        .filter(|(phrase, _)| haystack.contains(phrase))
        .map(|(_, w)| w)
        .sum()
}

fn url_score(msg: &EmailMessage) -> f64 {
    let urls = msg.url_count() as f64;
    let words = msg.body.split_whitespace().count().max(1) as f64;
    let density = urls / words;
    let mut score = (urls * 3.0).min(12.0) + (density * 60.0).min(12.0);
    // Raw-IP URLs are a strong tell.
    if body_has_raw_ip_url(&msg.body) {
        score += 10.0;
    }
    score
}

fn body_has_raw_ip_url(body: &str) -> bool {
    for prefix in ["http://", "https://"] {
        let mut rest = body;
        while let Some(pos) = rest.find(prefix) {
            let after = &rest[pos + prefix.len()..];
            let host: String = after
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            if host.split('.').count() == 4
                && host
                    .split('.')
                    .all(|o| !o.is_empty() && o.parse::<u8>().is_ok())
            {
                return true;
            }
            rest = &rest[pos + prefix.len()..];
        }
    }
    false
}

fn subject_score(msg: &EmailMessage) -> f64 {
    let mut score = 0.0;
    let letters: Vec<char> = msg
        .subject
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .collect();
    if !letters.is_empty() {
        let caps = letters.iter().filter(|c| c.is_ascii_uppercase()).count() as f64;
        let ratio = caps / letters.len() as f64;
        if ratio > 0.6 && letters.len() > 3 {
            score += 10.0;
        }
    }
    let bangs = msg.subject.matches('!').count() as f64;
    score += (bangs * 4.0).min(8.0);
    if msg.subject.contains('$') {
        score += 6.0;
    }
    score
}

fn header_score(msg: &EmailMessage) -> f64 {
    let mut score = 0.0;
    let has = |name: &str| {
        msg.extra_headers
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case(name))
    };
    if !has("Message-ID") {
        score += 5.0;
    }
    if !has("Date") {
        score += 4.0;
    }
    if msg
        .extra_headers
        .iter()
        .any(|(n, v)| n.eq_ignore_ascii_case("X-Mailer") && v.to_ascii_lowercase().contains("bulk"))
    {
        score += 8.0;
    }
    if has("Precedence") {
        score += 4.0;
    }
    score
}

fn mismatch_score(msg: &EmailMessage) -> f64 {
    let Some(from_domain) = msg.from_domain() else {
        return 6.0;
    };
    let from_domain = from_domain.to_ascii_lowercase();
    let body = msg.body.to_ascii_lowercase();
    if msg.url_count() > 0 && !body.contains(&from_domain) {
        8.0
    } else {
        0.0
    }
}

/// Score a message with a full per-feature breakdown.
pub fn score_breakdown(msg: &EmailMessage) -> ScoreBreakdown {
    let mut b = ScoreBreakdown {
        phrases: phrase_score(msg),
        urls: url_score(msg),
        subject: subject_score(msg),
        headers: header_score(msg),
        mismatch: mismatch_score(msg),
        total: 0.0,
    };
    b.total = (b.phrases + b.urls + b.subject + b.headers + b.mismatch).clamp(0.0, 100.0);
    b
}

/// The 0–100 spam score of a message.
pub fn spam_score(msg: &EmailMessage) -> f64 {
    score_breakdown(msg).total
}

/// Whether the filter classifies the message as spam.
pub fn is_spam(msg: &EmailMessage) -> bool {
    spam_score(msg) >= SPAM_THRESHOLD
}

/// Mirror a batch of scored messages into `tel` under `spam.*`: message
/// and over-threshold counts (counters) plus a histogram of rounded
/// scores, all absolute totals of this batch, so re-exporting it is
/// harmless. An empty batch still writes every name.
pub fn export_score_telemetry(tel: &underradar_telemetry::Telemetry, scores: &[f64]) {
    if !tel.is_enabled() {
        return;
    }
    tel.set_counter("spam.messages", scores.len() as u64);
    tel.set_counter(
        "spam.flagged",
        scores.iter().filter(|&&s| s >= SPAM_THRESHOLD).count() as u64,
    );
    let mut hist = underradar_telemetry::Histogram::new();
    for &s in scores {
        hist.observe(s.round().max(0.0) as u64);
    }
    tel.set_histogram("spam.score", &hist);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ham() -> EmailMessage {
        EmailMessage::new(
            "alice@university.example",
            "bob@university.example",
            "Meeting notes from Thursday",
            "Hi Bob,\n\nAttached are the notes from Thursday's seminar. The key \
             action item is to re-run the measurement with the larger topology \
             before the deadline.\n\nBest,\nAlice",
        )
        .with_header("Message-ID", "<abc@university.example>")
        .with_header("Date", "Thu, 02 Jul 2015 10:00:00 -0400")
    }

    fn blatant_spam() -> EmailMessage {
        EmailMessage::new(
            "winner@prizes.example",
            "user@twitter.com",
            "YOU ARE A WINNER!!! CLAIM YOUR PRIZE $$$",
            "Dear friend, you have WON a prize! Act now, this limited time \
             offer expires soon. Click here: http://192.0.2.55/claim and \
             http://prizes-4u.example/win — risk-free, no obligation, \
             guarantee! This is not spam.",
        )
        .with_header("X-Mailer", "bulk-blaster-3000")
    }

    #[test]
    fn ham_scores_low() {
        let s = spam_score(&ham());
        assert!(s < 25.0, "ham scored {s}");
        assert!(!is_spam(&ham()));
    }

    #[test]
    fn blatant_spam_scores_high() {
        let s = spam_score(&blatant_spam());
        assert!(s > 80.0, "spam scored {s}");
        assert!(is_spam(&blatant_spam()));
    }

    #[test]
    fn breakdown_components_nonzero_for_spam() {
        let b = score_breakdown(&blatant_spam());
        assert!(b.phrases > 20.0, "{b:?}");
        assert!(b.urls > 10.0, "{b:?}");
        assert!(b.subject > 10.0, "{b:?}");
        assert!(b.headers > 5.0, "{b:?}");
        assert!(b.mismatch > 0.0, "{b:?}");
        assert!(b.total <= 100.0);
    }

    #[test]
    fn score_is_clamped() {
        let mut over = blatant_spam();
        over.body
            .push_str(&" viagra pharmacy casino earn money million dollars".repeat(5));
        assert_eq!(spam_score(&over), 100.0);
    }

    #[test]
    fn raw_ip_url_detection() {
        assert!(body_has_raw_ip_url("go to http://10.1.2.3/x now"));
        assert!(body_has_raw_ip_url("https://192.0.2.1"));
        assert!(!body_has_raw_ip_url("go to http://example.com/x now"));
        assert!(!body_has_raw_ip_url("no urls at all"));
        assert!(!body_has_raw_ip_url("http://999.1.2.3/ is not an ip"));
    }

    #[test]
    fn missing_headers_raise_score() {
        let with = ham();
        let mut without = ham();
        without.extra_headers.clear();
        assert!(spam_score(&without) > spam_score(&with));
    }

    #[test]
    fn shouting_subject_raises_score() {
        let calm = EmailMessage::new("a@b.c", "d@e.f", "quarterly report", "see attached");
        let shouting = EmailMessage::new("a@b.c", "d@e.f", "QUARTERLY REPORT", "see attached");
        assert!(spam_score(&shouting) > spam_score(&calm));
    }

    #[test]
    fn empty_batch_still_exports_its_score_histogram() {
        let tel = underradar_telemetry::Telemetry::enabled();
        export_score_telemetry(&tel, &[]);
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("spam.score").map(|h| h.count()), Some(0));
        assert_eq!(snap.counters.get("spam.messages"), Some(&0));
    }
}
