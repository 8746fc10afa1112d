//! What one run prints: a JSON line per metric (with the samples' median,
//! quartiles and count), a digest line, and last the result line
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::json::{num, quote};

/// The `q` quantile of `samples` (0 ≤ q ≤ 1), interpolating linearly
/// between the two nearest ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The metrics and checks of one run.
pub struct Report {
    pub workload: &'static str,
    /// Per-metric JSON lines, in the order recorded.
    lines: Vec<String>,
    /// `(name, unit, value)` for the result line.
    metrics: Vec<(String, &'static str, f64)>,
    /// Every raw sample behind the metrics, for `--out`.
    raw: Vec<(String, Vec<f64>)>,
    pub digests: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed, by description (empty on a clean run).
    pub errors: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            lines: Vec::new(),
            metrics: Vec::new(),
            raw: Vec::new(),
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn line(&mut self, name: &str, unit: &str, samples: &[f64], p99: bool, n: usize) {
        let mut line = format!(
            "{{\"workload\":{},\"metric\":{},\"unit\":{},\"median\":{},\"p25\":{},\"p75\":{}",
            quote(self.workload),
            quote(name),
            quote(unit),
            num(median(samples)),
            num(quantile(samples, 0.25)),
            num(quantile(samples, 0.75)),
        );
        if p99 {
            let _ = write!(line, ",\"p99\":{}", num(quantile(samples, 0.99)));
        }
        let _ = write!(line, ",\"n\":{n}}}");
        self.lines.push(line);
        self.raw.push((name.to_string(), samples.to_vec()));
    }

    /// A metric reported as the median of its samples.
    pub fn median_of(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.line(name, unit, samples, false, samples.len());
        self.metrics.push((name.to_string(), unit, median(samples)));
    }

    /// A timing distribution, reported as `<name>.p50` and `<name>.p99`.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.line(name, unit, samples, true, samples.len());
        self.metrics
            .push((format!("{name}.p50"), unit, quantile(samples, 0.5)));
        self.metrics
            .push((format!("{name}.p99"), unit, quantile(samples, 0.99)));
    }

    /// A single value (a count, a ratio or a one-shot timing) resting on
    /// `n` underlying samples.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.line(name, unit, &[value], false, n);
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Report 0 (over n = 0 samples) for every metric of `all` this run
    /// did not measure: the layers its workload bypasses.
    pub fn fill_bypassed(&mut self, all: &[(&str, &'static str)]) {
        for (name, unit) in all {
            if self.metric(name).is_none() {
                self.value(name, unit, 0.0, 0);
            }
        }
    }

    /// Record a failed check: `trials` attempted units fail with it.
    pub fn fail(&mut self, trials: u64, what: String) {
        self.failed += trials;
        self.errors.push(what);
    }

    /// The names of every metric on the result line.
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// The digest line: every output digest of the run, combined into
    /// one `output_digest` plus the parts.
    pub fn digest_line(&self) -> String {
        let mut parts = String::new();
        for (i, (k, v)) in self.digests.iter().enumerate() {
            let _ = write!(
                parts,
                "{}{}:{}",
                if i > 0 { "," } else { "" },
                quote(k),
                quote(v)
            );
        }
        format!(
            "{{\"workload\":{},\"output_digest\":{},\"parts\":{{{parts}}}}}",
            quote(self.workload),
            quote(&self.output_digest()),
        )
    }

    pub fn output_digest(&self) -> String {
        let joined: String = self
            .digests
            .iter()
            .map(|(k, v)| format!("{k}={v};"))
            .collect();
        digest(&joined)
    }

    /// The result line: whether every check passed, the units attempted
    /// and failed, and every metric with its unit.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                metrics,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                quote(name),
                num(*value),
                quote(unit)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
        )
    }

    /// One `--out` record: every raw sample and digest of this run.
    pub fn raw_line(&self, seed: u64, trace: bool) -> String {
        let mut samples = String::new();
        for (i, (name, values)) in self.raw.iter().enumerate() {
            let vals: Vec<String> = values.iter().map(|v| num(*v)).collect();
            let _ = write!(
                samples,
                "{}{}:[{}]",
                if i > 0 { "," } else { "" },
                quote(name),
                vals.join(",")
            );
        }
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{},\"attempted\":{},\"failed\":{},\"errors\":[{}],\"samples\":{{{samples}}},\"digest\":{}}}",
            quote(self.workload),
            u8::from(trace),
            self.attempted,
            self.failed,
            self.errors.iter().map(|e| quote(e)).collect::<Vec<_>>().join(","),
            self.digest_line(),
        )
    }

    /// Print every line, the result line last.
    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for e in &self.errors {
            eprintln!("underbench: {}: check failed: {e}", self.workload);
        }
        let _ = writeln!(out, "{}", self.digest_line());
        let _ = writeln!(out, "{}", self.result_line());
        let _ = out.flush();
    }
}

/// The digest of an output text: FNV-1a, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }
}
