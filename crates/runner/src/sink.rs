//! Streaming row output: verdict rows emitted the moment a trial
//! completes, instead of an end-of-run report dump.
//!
//! A [`RowSink`] receives each [`TrialResult`] in **completion order** —
//! with several workers that order varies with the worker count and
//! scheduling, so the live row stream is an observability surface, not a
//! determinism surface. Rows are self-describing (each carries its trial
//! `index`), so consumers needing canonical order sort or key by index;
//! the byte-identity guarantees live in the final report and merged
//! telemetry, which the service builds order-independently.

use std::io::{self, Write};

use underradar_campaign::TrialResult;

/// A consumer of completed trial rows.
pub trait RowSink {
    /// Accept one completed trial. Called once per trial, in completion
    /// order.
    fn row(&mut self, result: &TrialResult) -> io::Result<()>;

    /// Accept one trial restored from the checkpoint journal instead of
    /// run, in index order, before any [`RowSink::row`]. Its row already
    /// reached a sink in the run that journaled it, so by default it is
    /// not re-emitted.
    fn restored(&mut self, _result: &TrialResult) -> io::Result<()> {
        Ok(())
    }

    /// Flush any buffered rows to the underlying medium.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every row (service mode without `--jsonl`).
pub struct NullSink;

impl RowSink for NullSink {
    fn row(&mut self, _result: &TrialResult) -> io::Result<()> {
        Ok(())
    }
}

/// Writes each row as one JSON line (the `TrialResult::to_json_row`
/// object) to any [`Write`] — a file, stdout, or a pipe.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSON lines to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }

    /// Unwrap the inner writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RowSink for JsonlSink<W> {
    fn row(&mut self, result: &TrialResult) -> io::Result<()> {
        self.out.write_all(result.to_json_row().as_bytes())?;
        self.out.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Collects completed trials in memory, for callers that need every
/// trial after the run (a report's JSON envelope, index-order rows).
/// Trials a resumed run restores from its journal are collected too, so
/// an artifact rendered from the sink is byte-identical to an
/// uninterrupted run's.
#[derive(Default)]
pub struct VecSink {
    /// Completed and restored trials, restored ones first.
    pub trials: Vec<TrialResult>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The collected trials sorted by trial index: the canonical order,
    /// identical for any worker count.
    pub fn into_sorted(mut self) -> Vec<TrialResult> {
        self.trials.sort_by_key(|t| t.index);
        self.trials
    }
}

impl RowSink for VecSink {
    fn row(&mut self, result: &TrialResult) -> io::Result<()> {
        self.trials.push(result.clone());
        Ok(())
    }

    fn restored(&mut self, result: &TrialResult) -> io::Result<()> {
        self.row(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_campaign::MethodKind;
    use underradar_core::verdict::Verdict;

    fn result() -> TrialResult {
        TrialResult {
            index: 3,
            method: MethodKind::Scan,
            policy: "control".into(),
            target: "a.com".into(),
            seed: 9,
            verdict: Verdict::Reachable,
            verdict_correct: true,
            evaded: true,
            alerts_on_client: 0,
            attributed: false,
            pursued: false,
            anonymity_set: None,
            retries: 0,
            evidence: Vec::new(),
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_row() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.row(&result()).expect("writes");
        sink.row(&result()).expect("writes");
        sink.flush().expect("flushes");
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"index\":3,\"method\":\"scan\""));
    }

    #[test]
    fn vec_sink_collects_and_null_sink_discards() {
        let mut v = VecSink::new();
        v.row(&result()).expect("collects");
        let mut first = result();
        first.index = 1;
        v.row(&first).expect("collects");
        let sorted = v.into_sorted();
        assert_eq!(
            sorted.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(sorted[1].to_json_row(), result().to_json_row());
        NullSink.row(&result()).expect("discards");
    }
}
