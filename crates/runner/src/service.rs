//! The durable run service — the one executor for multi-trial campaigns:
//! workers sharing one chunk cursor, a completion-order committer, and an
//! optional checkpoint journal — composed so the final report and merged
//! telemetry are **byte-identical** to a sequential run of every trial in
//! index order, at any worker count, interrupted or not.
//!
//! ## Architecture
//!
//! ```text
//!  workers (scope threads)            committer (calling thread)
//!  ┌─────────────────────┐  Msg  ┌──────────────────────────────┐
//!  │ take chunk (cursor) │ ────▶ │ journal.append_{complete,     │
//!  │  └ per trial: run   │ chan  │                retry}         │
//!  │    attempts until   │       │ sink.row (completion order)   │
//!  │    a final verdict  │       │ StreamReport / StreamMerger   │
//!  └─────────────────────┘       └──────────────────────────────┘
//! ```
//!
//! The work list is every trial without a complete journal record, in
//! index order. Workers take chunks of it from one shared [`Cursor`] and
//! run each trial's attempts back to back in their pooled world: an
//! `Inconclusive` attempt with budget left sends a retry message (its
//! journal record) and the next attempt runs at once, so a trial's
//! records reach the journal in attempt order. A worker exits when the
//! cursor is empty.
//!
//! The committer runs on the calling thread (so a [`RowSink`] need not be
//! `Send`): it journals each decision, streams the verdict row, and folds
//! the result into a [`StreamReport`] and the telemetry delta into a
//! [`StreamMerger`] keyed by trial index — both order-independent, which
//! is where completion-order scheduling and index-order determinism meet.
//!
//! It commits in groups: after each blocking receive it drains whatever
//! else is ready (up to `fsync_every` messages), journals the whole group,
//! flushes the journal once, and only then streams the group's rows — so
//! a row never reaches the sink before its record is in the file. The
//! channel holds `workers * 4 + fsync_every` messages (at most
//! `MAX_IN_FLIGHT`), enough that workers keep running through a journal
//! fsync instead of blocking on a full channel.
//!
//! A sink or journal error ends the run with that error: the committer
//! returns it and drops the receiver, so every pending and later send
//! fails, and each worker stops after its current attempt.
//!
//! ## Resume
//!
//! With a checkpoint path, completed trials replayed from the journal are
//! absorbed directly (their journaled rows are **not** re-emitted to the
//! sink — they streamed before the interruption), and only the remaining
//! trials are scheduled. A trial with a journaled retry resumes at its
//! journaled attempt with its journaled registry. Memory stays bounded by
//! the in-flight channel, never by campaign size.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use underradar_campaign::engine::{self, AttemptOutcome, PolicyPrep, ScopeConfig, Worlds};
use underradar_campaign::sched::Cursor;
use underradar_campaign::{CampaignSpec, StreamReport, Trial, TrialResult};
use underradar_telemetry::{Delta, Registry, StreamMerger, Telemetry};

use crate::journal::{Journal, JournalError, Replay};
use crate::sink::RowSink;

/// Upper bound on results in flight between workers and the committer:
/// caps the channel (and so its memory) however large `fsync_every` is.
const MAX_IN_FLIGHT: usize = 256;

/// Cadence of live progress snapshots: a snapshot is emitted when either
/// threshold is reached since the previous one, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct ProgressConfig {
    /// Committed trials between snapshots.
    pub every_trials: u64,
    /// Wall milliseconds between snapshots (also the committer's poll
    /// interval while workers are busy).
    pub every_ms: u64,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            every_trials: 1000,
            every_ms: 500,
        }
    }
}

/// Tuning for one service run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads (1 = sequential; still exercises the full
    /// journal/stream path).
    pub workers: usize,
    /// Checkpoint journal path; `None` runs without durability.
    pub checkpoint: Option<PathBuf>,
    /// Journal fsync cadence in records (see [`Journal::set_fsync_every`]).
    /// Also the committer's largest commit group, which the result
    /// channel's capacity makes room for.
    pub fsync_every: u64,
    /// Stream interval snapshots as JSONL on **stderr** (stdout bytes are
    /// untouched, so row/report determinism survives). `None` = silent.
    pub progress: Option<ProgressConfig>,
}

impl RunConfig {
    /// A config with `workers` threads and no checkpointing.
    pub fn new(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            checkpoint: None,
            fsync_every: 64,
            progress: None,
        }
    }

    /// Enable the checkpoint journal at `path`.
    pub fn checkpoint(mut self, path: PathBuf) -> RunConfig {
        self.checkpoint = Some(path);
        self
    }

    /// Set the journal fsync cadence in records.
    pub fn fsync_every(mut self, n: u64) -> RunConfig {
        self.fsync_every = n;
        self
    }

    /// Enable progress snapshots with cadence `progress`.
    pub fn progress(mut self, progress: ProgressConfig) -> RunConfig {
        self.progress = Some(progress);
        self
    }
}

/// Wall-clock accounting for one service run. Every field is measured
/// host time, so none of it may feed deterministic output paths — it is
/// surfaced only through `--profile-json` and `--progress`.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Wall milliseconds for the whole run (prepare + execute + commit).
    pub wall_ms: u64,
    /// Wall milliseconds spent building policy preps.
    pub prepare_ms: u64,
    /// Per-worker busy nanoseconds: time inside trial attempts, not
    /// counting the hand-off to the committer.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker nanoseconds blocked handing results to the committer
    /// (back-pressure from a full channel).
    pub worker_wait_ns: Vec<u64>,
    /// Per-worker attempt counts.
    pub worker_attempts: Vec<u64>,
    /// Always 0: workers share one chunk cursor, so no work is stolen.
    /// Kept because the benchmark's `runner.steals` metric reads it.
    pub steals: u64,
    /// Retry handoffs the committer observed.
    pub retries_seen: u64,
    /// Progress snapshots emitted (0 when progress is disabled).
    pub snapshots: u64,
}

/// What a service run did, beyond its report.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The campaign report, built incrementally (renders byte-identically
    /// for any worker count and absorb order).
    pub report: StreamReport,
    /// Trials completed by *this* process.
    pub executed: usize,
    /// Trials restored from the journal instead of re-run.
    pub restored: usize,
    /// Trials that resumed at a journaled retry's attempt and registry.
    pub resumed_retries: usize,
    /// Bytes of damaged journal tail discarded during recovery.
    pub journal_truncated: u64,
    /// Wall-clock profile of this run (never feeds deterministic output).
    pub profile: RunProfile,
}

/// Shared worker accounting, updated with relaxed atomics on the hot path
/// (a few fetch_adds per attempt — negligible against a simulated trial).
struct WorkerStats {
    busy_ns: Vec<AtomicU64>,
    wait_ns: Vec<AtomicU64>,
    attempts: Vec<AtomicU64>,
}

impl WorkerStats {
    fn new(workers: usize) -> WorkerStats {
        let zeros = || (0..workers).map(|_| AtomicU64::new(0)).collect();
        WorkerStats {
            busy_ns: zeros(),
            wait_ns: zeros(),
            attempts: zeros(),
        }
    }
}

/// The committer's progress bookkeeping: when to emit, what changed.
struct ProgressState {
    cfg: ProgressConfig,
    start: Instant,
    last_emit: Instant,
    last_done: u64,
    snapshots: u64,
}

impl ProgressState {
    fn new(cfg: ProgressConfig, start: Instant) -> ProgressState {
        ProgressState {
            cfg,
            start,
            last_emit: start,
            last_done: 0,
            snapshots: 0,
        }
    }

    fn due(&self, done: u64) -> bool {
        done.saturating_sub(self.last_done) >= self.cfg.every_trials.max(1)
            || self.last_emit.elapsed() >= Duration::from_millis(self.cfg.every_ms)
    }

    /// Emit one snapshot line to stderr. Wall-clock values are
    /// nondeterministic by nature, so they go to stderr only and never
    /// into the run's registry: stdout and telemetry are the same bytes
    /// with progress on or off.
    fn emit(
        &mut self,
        stats: &WorkerStats,
        done: u64,
        total: u64,
        restored: u64,
        retries: u64,
        journal_lag: u64,
    ) {
        let elapsed_ms = (self.start.elapsed().as_millis() as u64).max(1);
        let committed = done.saturating_sub(restored);
        let rows_per_sec = committed.saturating_mul(1000) / elapsed_ms;
        let eta_ms = total
            .saturating_sub(done)
            .saturating_mul(elapsed_ms)
            .checked_div(committed)
            .unwrap_or(0);
        let elapsed_ns = (self.start.elapsed().as_nanos() as u64).max(1);
        let busy: Vec<String> = stats
            .busy_ns
            .iter()
            .map(|b| {
                (b.load(Ordering::Relaxed).saturating_mul(1000) / elapsed_ns)
                    .min(1000)
                    .to_string()
            })
            .collect();
        let line = format!(
            "{{\"done\":{done},\"elapsed_ms\":{elapsed_ms},\"eta_ms\":{eta_ms},\
             \"journal_lag\":{journal_lag},\"restored\":{restored},\"retries\":{retries},\
             \"rows_per_sec\":{rows_per_sec},\"total\":{total},\
             \"worker_busy_permille\":[{}]}}",
            busy.join(",")
        );
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
        self.last_emit = Instant::now();
        self.last_done = done;
        self.snapshots += 1;
    }
}

/// What a worker tells the committer. Telemetry travels as an id-keyed
/// [`Delta`]: the committer merges it by id and encodes it with names.
enum Msg {
    /// Trial `index` reached a final verdict; `acc` is its complete
    /// telemetry delta (all attempts).
    Done {
        index: usize,
        result: Box<TrialResult>,
        acc: Box<Delta>,
    },
    /// Trial `index` runs `next_attempt` next; `acc` snapshots the
    /// delta accumulated so far, for the journal.
    Retry {
        index: usize,
        next_attempt: u32,
        acc: Box<Delta>,
    },
}

/// Run `spec` as a durable service: schedule from one chunk cursor, stream
/// rows into `sink` as trials complete, journal to `cfg.checkpoint`, and
/// merge telemetry into `tel`. Resumes automatically when the journal
/// already holds progress for this spec. A spec that overruns the
/// testbed's address plan, or names a target no testbed can build, is
/// rejected with [`JournalError::AddressPlan`] or
/// [`JournalError::InvalidTarget`] before any journal is opened or world
/// built.
pub fn run_service(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    tel: &Telemetry,
    sink: &mut dyn RowSink,
) -> Result<ServiceOutcome, JournalError> {
    let run_start = Instant::now();
    // The spec's one check: every column prepares, or nothing runs.
    let preps = engine::try_prepare(spec)?;
    let prepare_ms = run_start.elapsed().as_millis() as u64;
    let trials = spec.expand();
    let (mut journal, replay) = match &cfg.checkpoint {
        Some(path) => {
            let (mut j, replay) =
                Journal::open_or_create(path, spec.fingerprint(), trials.len() as u64)?;
            j.set_fsync_every(cfg.fsync_every);
            (Some(j), replay)
        }
        None => (None, Replay::default()),
    };

    let mut report = StreamReport::new(&spec.name);
    let mut merger = StreamMerger::new();
    for (index, (result, delta)) in &replay.completed {
        report.absorb(result);
        merger.absorb(*index, delta);
        sink.restored(result).map_err(JournalError::Sink)?;
    }

    // The work list: every trial with no complete record, in index order.
    let remaining: Vec<usize> = (0..trials.len())
        .filter(|&index| !replay.completed.contains_key(&(index as u64)))
        .collect();
    let expected = remaining.len();
    let restored = replay.completed.len();
    let resumed_retries = remaining
        .iter()
        .filter(|&&index| replay.retries.contains_key(&(index as u64)))
        .count();

    let mut progress = cfg.progress.map(|p| ProgressState::new(p, run_start));
    let mut retries_seen = 0u64;
    let mut stats = WorkerStats::new(cfg.workers.clamp(1, expected.max(1)));

    if expected > 0 {
        let scope_cfg = ScopeConfig::of(tel).with_trace_capacity(spec.trace_capacity);
        let workers = cfg.workers.clamp(1, expected);
        let cursor = Cursor::new(expected, workers);
        // One commit group drains at most `fsync_every` messages, and the
        // channel holds a group on top of the workers' own slack.
        let group_max = cfg.fsync_every.clamp(1, MAX_IN_FLIGHT as u64) as usize;
        let (tx, rx) = mpsc::sync_channel::<Msg>((workers * 4 + group_max).min(MAX_IN_FLIGHT));

        std::thread::scope(|scope| -> Result<(), JournalError> {
            for id in 0..workers {
                let worker = Worker {
                    id,
                    spec,
                    trials: &trials,
                    preps: &preps,
                    retries: &replay.retries,
                    scope_cfg,
                    tx: tx.clone(),
                    stats: &stats,
                };
                let (cursor, remaining) = (&cursor, &remaining);
                scope.spawn(move || worker.run(cursor, remaining));
            }
            drop(tx);
            // The committer owns the receiver, so an early `?` return drops
            // it before the scope joins: every worker's send then fails and
            // the worker stops, instead of blocking on a full channel.
            let rx = rx;
            // Committer: the calling thread absorbs completions until
            // every remaining trial has a final verdict. With progress
            // enabled it polls on the snapshot cadence so a long-running
            // trial can't silence the stream.
            let mut done = 0usize;
            let mut group: Vec<Msg> = Vec::with_capacity(group_max);
            while done < expected {
                let first = match &progress {
                    Some(p) => {
                        match rx.recv_timeout(Duration::from_millis(p.cfg.every_ms.max(1))) {
                            Ok(m) => Some(m),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                panic!("workers ended with trials outstanding")
                            }
                        }
                    }
                    None => Some(rx.recv().expect("workers ended with trials outstanding")),
                };
                let ready = std::iter::from_fn(|| rx.try_recv().ok());
                group.extend(first.into_iter().chain(ready).take(group_max));
                if let Some(j) = journal.as_mut() {
                    for msg in &group {
                        match msg {
                            Msg::Done { index, result, acc } => {
                                j.append_complete(*index as u64, result, &**acc)?
                            }
                            Msg::Retry {
                                index,
                                next_attempt,
                                acc,
                            } => j.append_retry(*index as u64, *next_attempt, &**acc)?,
                        }
                    }
                    j.flush()?;
                }
                for msg in group.drain(..) {
                    match msg {
                        Msg::Done { index, result, acc } => {
                            sink.row(&result).map_err(JournalError::Sink)?;
                            report.absorb(&result);
                            merger.absorb_delta(index as u64, *acc);
                            done += 1;
                        }
                        Msg::Retry { .. } => retries_seen += 1,
                    }
                }
                let total_done = (restored + done) as u64;
                if let Some(p) = progress.as_mut() {
                    if p.due(total_done) {
                        let lag = journal.as_ref().map(|j| j.unsynced()).unwrap_or(0);
                        p.emit(
                            &stats,
                            total_done,
                            trials.len() as u64,
                            restored as u64,
                            retries_seen,
                            lag,
                        );
                    }
                }
            }
            Ok(())
        })?;
    }

    if let Some(j) = journal.as_mut() {
        j.sync()?;
    }
    sink.flush().map_err(JournalError::Sink)?;
    // Names are built once, here; the registry then moves into `tel`.
    tel.accumulate(merger.finish());
    if let Some(p) = progress.as_mut() {
        // Always close the stream with a final snapshot: done == total,
        // journal fully synced.
        p.emit(
            &stats,
            (restored + expected) as u64,
            trials.len() as u64,
            restored as u64,
            retries_seen,
            0,
        );
    }
    let profile = RunProfile {
        wall_ms: run_start.elapsed().as_millis() as u64,
        prepare_ms,
        worker_busy_ns: stats.busy_ns.iter_mut().map(|b| *b.get_mut()).collect(),
        worker_wait_ns: stats.wait_ns.iter_mut().map(|b| *b.get_mut()).collect(),
        worker_attempts: stats.attempts.iter_mut().map(|a| *a.get_mut()).collect(),
        steals: 0,
        retries_seen,
        snapshots: progress.as_ref().map(|p| p.snapshots).unwrap_or(0),
    };
    Ok(ServiceOutcome {
        report,
        executed: expected,
        restored,
        resumed_retries,
        journal_truncated: replay.truncated_bytes,
        profile,
    })
}

/// One worker's view of the run: what it needs to execute attempts and
/// hand them to the committer.
struct Worker<'a> {
    id: usize,
    spec: &'a CampaignSpec,
    trials: &'a [Trial],
    preps: &'a [PolicyPrep<'a>],
    /// Journaled retries: index → (next attempt, accumulated registry).
    retries: &'a BTreeMap<u64, (u32, Registry)>,
    scope_cfg: ScopeConfig,
    tx: mpsc::SyncSender<Msg>,
    stats: &'a WorkerStats,
}

impl<'a> Worker<'a> {
    /// Take chunks of the work list until the cursor is empty, running
    /// each trial to its final verdict. Attempts run in the worker's own
    /// world pool, built lazily on this thread: consecutive attempts of
    /// one column and topology reset one world instead of building one
    /// each. Returns early once the committer has gone.
    fn run(&self, cursor: &Cursor, remaining: &[usize]) {
        let mut worlds = Worlds::new();
        while let Some(chunk) = cursor.take() {
            for &index in &remaining[chunk] {
                if !self.trial(&mut worlds, index) {
                    return;
                }
            }
        }
    }

    /// Run trial `index` from its journaled attempt (attempt 0 if none),
    /// attempt after attempt, handing each outcome to the committer. Busy
    /// time covers the attempts alone; time blocked on a full channel is
    /// accounted as waiting. Returns `false` if the committer has gone.
    fn trial(&self, worlds: &mut Worlds<'a>, index: usize) -> bool {
        let trial = &self.trials[index];
        let prep = &self.preps[trial.policy_idx];
        let (mut attempt, mut acc) = match self.retries.get(&(index as u64)) {
            Some((attempt, acc)) => (*attempt, Delta::from(acc.clone())),
            None => (0, Delta::new()),
        };
        loop {
            let t0 = Instant::now();
            let outcome = engine::run_trial_attempt_in(
                worlds,
                self.spec,
                prep,
                trial,
                attempt,
                &mut acc,
                self.scope_cfg,
            );
            self.stats.busy_ns[self.id]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.stats.attempts[self.id].fetch_add(1, Ordering::Relaxed);
            match outcome {
                AttemptOutcome::Done(result) => {
                    return self.send(Msg::Done {
                        index,
                        result,
                        acc: Box::new(acc),
                    })
                }
                AttemptOutcome::Retry { next_attempt } => {
                    let msg = Msg::Retry {
                        index,
                        next_attempt,
                        acc: Box::new(acc.clone()),
                    };
                    if !self.send(msg) {
                        return false;
                    }
                    attempt = next_attempt;
                }
            }
        }
    }

    /// Hand `msg` to the committer; `false` if the committer has gone.
    fn send(&self, msg: Msg) -> bool {
        let t0 = Instant::now();
        let sent = self.tx.send(msg).is_ok();
        self.stats.wait_ns[self.id].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        sent
    }
}
