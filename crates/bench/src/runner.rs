//! Wall-clock stage timing for the experiment and campaign binaries.
//!
//! Experiments fan out with `underradar_campaign::steal::run_chunked` and
//! campaigns run through `underradar_runner::run_service`; both keep their
//! output independent of scheduling. [`StageClock`] only measures where
//! the wall time went, so its numbers belong on stderr or in a side file,
//! never in deterministic output.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall-clock accumulator for named work stages (`prepare`, `run`,
/// `score`, …). Shared across workers; lock contention is per stage
/// completion, not per sample, so it does not perturb what it measures.
#[derive(Debug, Default)]
pub struct StageClock {
    stages: Mutex<BTreeMap<&'static str, (Duration, u64)>>,
}

impl StageClock {
    /// Time `f` under `stage`, accumulating elapsed wall time and a call
    /// count.
    pub fn time<R>(&self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let mut stages = self.stages.lock().expect("stage clock poisoned");
        let entry = stages.entry(stage).or_insert((Duration::ZERO, 0));
        entry.0 += elapsed;
        entry.1 += 1;
        out
    }

    /// Accumulated `(stage, total, calls)` rows in stage-name order.
    pub fn rows(&self) -> Vec<(&'static str, Duration, u64)> {
        self.stages
            .lock()
            .expect("stage clock poisoned")
            .iter()
            .map(|(&stage, &(total, calls))| (stage, total, calls))
            .collect()
    }

    /// One `stage NAME: S.SSSs over N calls` line per stage, in
    /// stage-name order (the body of a `--- profile ---` footer).
    pub fn render(&self) -> String {
        self.rows()
            .into_iter()
            .map(|(stage, total, calls)| {
                format!(
                    "stage {stage}: {:.3}s over {calls} calls\n",
                    total.as_secs_f64()
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_accumulate_time_and_calls_in_name_order() {
        let clock = StageClock::default();
        for i in 0..3u64 {
            assert_eq!(clock.time("run", || i * 2), i * 2);
        }
        clock.time("prepare", || ());
        let rows = clock.rows();
        let names: Vec<(&str, u64)> = rows.iter().map(|&(s, _, c)| (s, c)).collect();
        assert_eq!(names, vec![("prepare", 1), ("run", 3)]);
        let text = clock.render();
        assert!(text.starts_with("stage prepare: "), "{text}");
        assert!(text.ends_with("s over 3 calls\n"), "{text}");
    }
}
