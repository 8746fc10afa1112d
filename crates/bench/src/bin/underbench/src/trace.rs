//! The traced campaign run: one worker on this thread, every trial run by
//! the engine under a `campaign.attempt` span, then re-driven through the
//! layers' public calls (see [`crate::redrive`]) and committed through
//! timed committer calls in the service's order. Spans stay in memory and
//! are written as JSON lines when the run ends.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use underradar_campaign::engine::{self, AttemptOutcome, ScopeConfig};
use underradar_campaign::StreamReport;
use underradar_runner::{Journal, RowSink};
use underradar_telemetry::codec::encode_registry;
use underradar_telemetry::{Registry, StreamMerger, Telemetry};

use crate::alloc;
use crate::campaign::{self, render_audit, CheckedSink, Scratch};
use crate::json::quote;
use crate::redrive;
use crate::report::Report;
use crate::workloads::{CampaignLoad, WORKERS};

/// Trials in the telemetry-on counting sample (taken at a fixed stride).
const COUNT_SAMPLE: usize = 1024;

struct SpanRecord {
    trial: u32,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log. [`Spans::push`] records under the trial and
/// parent last set with [`Spans::within`].
pub struct Spans {
    base: Instant,
    trial: u32,
    parent: Option<&'static str>,
    records: Vec<SpanRecord>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            trial: 0,
            parent: None,
            records: Vec::new(),
        }
    }

    /// Nanoseconds since the log began.
    pub fn mark(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn within(&mut self, trial: usize, parent: Option<&'static str>) {
        self.trial = trial as u32;
        self.parent = parent;
    }

    /// Record span `name` from `start_ns` to now.
    pub fn push(&mut self, name: &'static str, start_ns: u64) {
        let end_ns = self.mark();
        self.records.push(SpanRecord {
            trial: self.trial,
            name,
            parent: self.parent,
            start_ns,
            end_ns,
        });
    }

    /// Every span's duration in microseconds, by name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &self.records {
            out.entry(r.name)
                .or_default()
                .push((r.end_ns - r.start_ns) as f64 / 1e3);
        }
        out
    }

    /// Write one JSON line per attempt: the trial, the attempt's start
    /// `t0_ns`, and its spans as `[name, parent, start, end, self]` with
    /// times in nanoseconds from `t0_ns`. A span's self time is its
    /// duration minus its children's.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for attempt in self
            .records
            .chunk_by(|_, next| next.name != "campaign.attempt")
        {
            let t0 = attempt[0].start_ns;
            let spans: Vec<String> = attempt
                .iter()
                .map(|r| {
                    let children: u64 = attempt
                        .iter()
                        .filter(|c| c.parent == Some(r.name))
                        .map(|c| c.end_ns - c.start_ns)
                        .sum();
                    format!(
                        "[{},{},{},{},{}]",
                        quote(r.name),
                        r.parent.map_or("null".to_string(), quote),
                        r.start_ns - t0,
                        r.end_ns - t0,
                        (r.end_ns - r.start_ns).saturating_sub(children)
                    )
                })
                .collect();
            writeln!(
                out,
                "{{\"trial\":{},\"t0_ns\":{t0},\"spans\":[{}]}}",
                attempt[0].trial,
                spans.join(",")
            )?;
        }
        out.flush()
    }
}

/// The re-driven parts of an attempt, whose sum the attempt's own span
/// should account for.
const PARTS: [&str; 8] = [
    "core.instantiate",
    "probe.spawn",
    "netsim.run",
    "core.score",
    "telemetry.export",
    "core.teardown",
    "telemetry.scope_merge",
    "campaign.bookkeeping",
];

/// Run the traced campaign pass and report every per-layer metric.
pub fn run(load: &CampaignLoad, dir: &Path, trace_path: &Path, report: &mut Report) {
    let spec = &load.spec;
    let n = spec.trial_count();
    report.attempted += n as u64;

    // The untraced reference: the same pass the untraced runs time.
    let scratch = Scratch::new(dir, "traced");
    let untraced = campaign::round(load, &scratch, WORKERS);
    if untraced.miscommitted > 0 || !untraced.errors.is_empty() {
        report.fail(n as u64, format!("untraced pass: {:?}", untraced.errors));
    }
    scratch.clear();

    let tel = if load.audit {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let scope_cfg = ScopeConfig::of(&tel).with_trace_capacity(spec.trace_capacity);
    let mut spans = Spans::new();

    let t = Instant::now();
    let trials = spec.expand();
    let preps = engine::prepare(spec);
    let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
    let mirror = redrive::prepare(spec);

    let mut journal = load.durable.then(|| {
        let (mut j, _) = Journal::open_or_create(&scratch.journal, spec.fingerprint(), n as u64)
            .expect("open the traced journal");
        j.set_fsync_every(64);
        j
    });
    let mut sink = CheckedSink::new(n, campaign::row_sink(load, &scratch));
    let mut stream_report = StreamReport::new(&spec.name);
    let mut merger = StreamMerger::new();

    // The service's order on one worker: the matrix front to back, then
    // the retry tail.
    let mut queue: VecDeque<(usize, u32, Registry)> =
        (0..n).map(|i| (i, 0, Registry::new())).collect();
    let mut attempts = 0usize;
    let mut mismatched = 0u64;
    while let Some((index, attempt, mut acc)) = queue.pop_front() {
        let trial = &trials[index];
        let before = acc.clone();
        spans.within(index, None);
        let t = spans.mark();
        let outcome = engine::run_trial_attempt(
            spec,
            &preps[trial.policy_idx],
            trial,
            attempt,
            &mut acc,
            scope_cfg,
        );
        spans.push("campaign.attempt", t);
        attempts += 1;

        let mut re_acc = before;
        let t = spans.mark();
        spans.within(index, Some("redrive"));
        let redriven = redrive::attempt(
            spec,
            &mirror[trial.policy_idx],
            trial,
            attempt,
            &mut re_acc,
            tel.is_enabled(),
            &mut spans,
        );
        spans.within(index, None);
        spans.push("redrive", t);
        let same = re_acc == acc
            && match (&outcome, &redriven) {
                (AttemptOutcome::Done(a), Some(b)) => format!("{a:?}") == format!("{b:?}"),
                (AttemptOutcome::Retry { .. }, None) => true,
                _ => false,
            };
        if !same {
            mismatched += 1;
        }

        let t = spans.mark();
        spans.within(index, Some("commit"));
        match outcome {
            AttemptOutcome::Done(result) => {
                if let Some(j) = journal.as_mut() {
                    let t = spans.mark();
                    j.append_complete(index as u64, &result, &acc)
                        .expect("journal append");
                    spans.push("runner.journal_append", t);
                }
                let t = spans.mark();
                sink.row(&result).expect("row sink");
                spans.push("runner.row", t);
                let t = spans.mark();
                stream_report.absorb(&result);
                spans.push("campaign.report_absorb", t);
                let t = spans.mark();
                merger.absorb(index as u64, &acc);
                spans.push("telemetry.merger_absorb", t);
            }
            AttemptOutcome::Retry { next_attempt } => {
                if let Some(j) = journal.as_mut() {
                    let t = spans.mark();
                    j.append_retry(index as u64, next_attempt, &acc)
                        .expect("journal append");
                    spans.push("runner.journal_append", t);
                }
                queue.push_back((index, next_attempt, acc));
            }
        }
        spans.within(index, None);
        spans.push("commit", t);
    }
    if let Some(j) = journal.as_mut() {
        j.sync().expect("journal sync");
    }
    sink.flush().expect("row sink flush");
    drop(journal);
    let journal_bytes = if load.durable {
        std::fs::metadata(&scratch.journal).map_or(0, |m| m.len())
    } else {
        0
    };

    let t = Instant::now();
    let merged = merger.finish();
    let merger_finish_ms = t.elapsed().as_secs_f64() * 1e3;
    tel.merge_registry(&merged);
    let report_text = stream_report.render_text();
    let registry = tel.snapshot();
    let registry_json = registry.to_json();
    let (audit_text, audit_ms) = if load.audit {
        let t = Instant::now();
        let audit = render_audit(&stream_report.cells(), &registry);
        (audit, t.elapsed().as_secs_f64() * 1e3)
    } else {
        (String::new(), 0.0)
    };
    let digests = campaign::digests(&report_text, &sink, &registry_json, &audit_text);

    if mismatched > 0 {
        report.fail(
            mismatched,
            format!("{mismatched} re-driven attempts differ from the engine's"),
        );
    }
    if sink.miscommitted() > 0 {
        report.fail(
            sink.miscommitted(),
            "traced pass: trials lack exactly one committed row".to_string(),
        );
    }
    if load.durable {
        if let Err(e) = campaign::check_row_file(&scratch.rows, n) {
            report.fail(n as u64, format!("traced pass: {e}"));
        }
    }
    if digests != untraced.digests {
        report.fail(
            n as u64,
            format!(
                "traced digests {digests:?} differ from the untraced {:?}",
                untraced.digests
            ),
        );
    }
    scratch.clear();
    report.digests = digests;

    // Per-layer timings.
    let d = spans.durations_us();
    let get = |name: &str| d.get(name).cloned().unwrap_or_default();
    let sum = |name: &str| get(name).iter().sum::<f64>();
    let attempt_total = sum("campaign.attempt");
    report.value("campaign.prepare_ms", "ms", prepare_ms, 1);
    report.timing("campaign.attempt_us", "us", &get("campaign.attempt"));
    report.value(
        "campaign.attempts_per_trial",
        "count",
        attempts as f64 / n as f64,
        n,
    );
    report.timing("core.instantiate_us", "us", &get("core.instantiate"));
    report.value(
        "core.instantiate_share",
        "fraction",
        sum("core.instantiate") / attempt_total,
        attempts,
    );
    report.timing("core.score_us", "us", &get("core.score"));
    report.timing("core.teardown_us", "us", &get("core.teardown"));
    report.timing("netsim.run_us", "us", &get("netsim.run"));
    report.value(
        "netsim.run_share",
        "fraction",
        sum("netsim.run") / attempt_total,
        attempts,
    );
    report.timing("telemetry.export_us", "us", &get("telemetry.export"));
    report.timing(
        "telemetry.scope_merge_us",
        "us",
        &get("telemetry.scope_merge"),
    );
    report.timing(
        "telemetry.merger_absorb_us",
        "us",
        &get("telemetry.merger_absorb"),
    );
    report.value("telemetry.merger_finish_ms", "ms", merger_finish_ms, 1);
    report.value("surveil.audit_ms", "ms", audit_ms, usize::from(load.audit));
    report.timing(
        "runner.journal_append_us",
        "us",
        &get("runner.journal_append"),
    );
    report.timing("runner.row_us", "us", &get("runner.row"));
    report.timing(
        "campaign.report_absorb_us",
        "us",
        &get("campaign.report_absorb"),
    );
    report.value(
        "runner.journal_bytes_per_trial",
        "bytes",
        journal_bytes as f64 / n as f64,
        n,
    );

    // The scheduler, from the untraced pass.
    let busy_ns: u64 = untraced.profile.worker_busy_ns.iter().sum();
    let workers = untraced.profile.worker_busy_ns.len().max(1);
    report.value(
        "runner.busy_frac",
        "fraction",
        busy_ns as f64 / 1e9 / (untraced.secs * workers as f64),
        workers,
    );
    report.value("runner.steals", "count", untraced.profile.steals as f64, 1);
    report.value(
        "runner.speedup",
        "x",
        attempt_total / 1e6 / untraced.secs,
        attempts,
    );

    // Coverage: what the re-driven parts leave unexplained, and what the
    // traced engine path costs over the untraced workers' busy time.
    let parts: f64 = PARTS.iter().map(|p| sum(p)).sum();
    report.value(
        "campaign.unattributed_frac",
        "fraction",
        1.0 - parts / attempt_total,
        attempts,
    );
    report.value(
        "trace.overhead_frac",
        "fraction",
        attempt_total * 1e3 / busy_ns as f64 - 1.0,
        attempts,
    );

    counts(load, &trials, &preps, scope_cfg, report);

    if let Err(e) = spans.write(trace_path) {
        eprintln!("underbench: cannot write {}: {e}", trace_path.display());
    }
}

/// Allocations and layer counts over a fixed-stride sample of trials:
/// allocations with the workload's own telemetry setting, layer counters
/// from a telemetry-on re-run. Both are deterministic.
fn counts(
    load: &CampaignLoad,
    trials: &[underradar_campaign::Trial],
    preps: &[engine::PolicyPrep<'_>],
    scope_cfg: ScopeConfig,
    report: &mut Report,
) {
    let spec = &load.spec;
    let stride = (trials.len() / COUNT_SAMPLE).max(1);
    let sample: Vec<_> = trials.iter().step_by(stride).take(COUNT_SAMPLE).collect();
    let on = ScopeConfig::of(&Telemetry::enabled());
    let mut allocs = 0u64;
    let mut alloc_bytes = 0u64;
    let mut delta_keys = 0usize;
    let mut delta_bytes = 0usize;
    let mut totals = Registry::new();
    for trial in &sample {
        let prep = &preps[trial.policy_idx];
        let ((_, delta), c) = alloc::counted(|| engine::run_trial(spec, prep, trial, scope_cfg));
        allocs += c.allocs;
        alloc_bytes += c.bytes;
        delta_keys += delta.counters.len() + delta.gauges.len() + delta.histograms.len();
        delta_bytes += encode_registry(&delta).len();
        let (_, reg) = engine::run_trial(spec, prep, trial, on);
        for (name, v) in reg.counters {
            *totals.counters.entry(name).or_insert(0) += v;
        }
    }
    let k = sample.len().max(1) as f64;
    let per = |v: u64| v as f64 / k;
    let c = |name: &str| totals.counter(name);
    let sum_prefix = |prefix: &str, infix: &str| -> u64 {
        totals
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.contains(infix))
            .map(|(_, v)| *v)
            .sum()
    };
    let n = sample.len();
    report.value("alloc.allocs_per_trial", "count", per(allocs), n);
    report.value("alloc.bytes_per_trial", "bytes", per(alloc_bytes), n);
    report.value(
        "netsim.events_per_trial",
        "count",
        per(c("netsim.events_processed")),
        n,
    );
    report.value(
        "ids.packets_per_trial",
        "count",
        per(c("ids.engine.packets")),
        n,
    );
    report.value(
        "ids.evaluations_per_trial",
        "count",
        per(c("ids.engine.evaluations")),
        n,
    );
    let censor_observed = c("censor.tap.observed")
        + c("censor.inline.forwarded")
        + c("censor.inline.ip_drops")
        + c("censor.inline.port_drops")
        + c("censor.inline.url_blocks");
    report.value(
        "censor.observed_per_trial",
        "count",
        per(censor_observed),
        n,
    );
    report.value(
        "censor.actions_per_trial",
        "count",
        per(sum_prefix("censor.", ".actions.")),
        n,
    );
    report.value(
        "surveil.observed_per_trial",
        "count",
        per(c("surveil.observed")),
        n,
    );
    report.value(
        "surveil.retained_frac",
        "fraction",
        c("surveil.retained") as f64 / c("surveil.observed").max(1) as f64,
        n,
    );
    report.value(
        "telemetry.delta_keys_per_trial",
        "count",
        delta_keys as f64 / k,
        n,
    );
    report.value(
        "telemetry.delta_bytes_per_trial",
        "bytes",
        delta_bytes as f64 / k,
        n,
    );
}
