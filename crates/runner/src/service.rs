//! The durable run service — the one executor for multi-trial campaigns:
//! work-stealing workers, a completion-order committer, and an optional
//! checkpoint journal — composed so the final report and merged telemetry
//! are **byte-identical** to a sequential run of every trial in index
//! order, at any worker count, interrupted or not.
//!
//! ## Architecture
//!
//! ```text
//!  workers (scope threads)            committer (calling thread)
//!  ┌─────────────────────┐  Msg  ┌──────────────────────────────┐
//!  │ pop own deque       │ ────▶ │ journal.append_{complete,     │
//!  │  └ steal half       │ chan  │                retry}         │
//!  │   └ retry tail      │       │ sink.row (completion order)   │
//!  │    └ exit           │       │ StreamReport / StreamMerger   │
//!  └─────────────────────┘       └──────────────────────────────┘
//! ```
//!
//! Workers drain their own deque front-first, steal half of the richest
//! victim's deque when empty, then service the global **retry tail**:
//! trials whose attempt came back `Inconclusive` are not retried inline
//! (that would pin a straggler to one worker) but re-enqueued at the tail
//! with their accumulated registry and next attempt number, so conclusive
//! work finishes first and backoff budgets survive both stealing and
//! resume. A worker exits only after deques *and* retry tail are empty at
//! its own check — and every retry enqueue precedes the enqueuer's next
//! check, so no retry is ever stranded.
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
//! ## Resume
//!
//! With a checkpoint path, completed trials replayed from the journal are
//! absorbed directly (their journaled rows are **not** re-emitted to the
//! sink — they streamed before the interruption), journaled retries seed
//! the retry tail, and only the remaining frontier is scheduled. Memory
//! stays bounded by the in-flight channel, never by campaign size.

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use underradar_campaign::engine::{self, AttemptOutcome, PolicyPrep, ScopeConfig, Worlds};
use underradar_campaign::{CampaignSpec, StreamReport, Trial, TrialResult};
use underradar_telemetry::{Registry, StreamMerger, Telemetry};

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
    /// Successful steal-half operations across all workers.
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
    /// Journaled retries whose accumulated state seeded the retry tail.
    pub resumed_retries: usize,
    /// Bytes of damaged journal tail discarded during recovery.
    pub journal_truncated: u64,
    /// Wall-clock profile of this run (never feeds deterministic output).
    pub profile: RunProfile,
}

/// A trial waiting on the retry tail: its next attempt and the registry
/// its finished attempts accumulated.
struct RetryTask {
    index: usize,
    attempt: u32,
    acc: Registry,
}

/// Shared worker accounting, updated with relaxed atomics on the hot path
/// (a few fetch_adds per attempt — negligible against a simulated trial).
struct WorkerStats {
    busy_ns: Vec<AtomicU64>,
    wait_ns: Vec<AtomicU64>,
    attempts: Vec<AtomicU64>,
    steals: AtomicU64,
}

impl WorkerStats {
    fn new(workers: usize) -> WorkerStats {
        let zeros = || (0..workers).map(|_| AtomicU64::new(0)).collect();
        WorkerStats {
            busy_ns: zeros(),
            wait_ns: zeros(),
            attempts: zeros(),
            steals: AtomicU64::new(0),
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
        let steals = stats.steals.load(Ordering::Relaxed);
        let line = format!(
            "{{\"done\":{done},\"elapsed_ms\":{elapsed_ms},\"eta_ms\":{eta_ms},\
             \"journal_lag\":{journal_lag},\"restored\":{restored},\"retries\":{retries},\
             \"rows_per_sec\":{rows_per_sec},\"steals\":{steals},\"total\":{total},\
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

/// What a worker tells the committer.
enum Msg {
    /// Trial `index` reached a final verdict; `acc` is its complete
    /// telemetry delta (all attempts).
    Done {
        index: usize,
        result: Box<TrialResult>,
        acc: Box<Registry>,
    },
    /// Trial `index` will run `next_attempt` later; `acc` snapshots the
    /// registry accumulated so far, for the journal.
    Retry {
        index: usize,
        next_attempt: u32,
        acc: Box<Registry>,
    },
}

/// Run `spec` as a durable service: schedule with work stealing, stream
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
        sink.restored(result)?;
    }

    // The remaining frontier: every trial with no complete record. Trials
    // with a journaled retry resume mid-attempt via the retry tail; the
    // rest start from attempt 0.
    let mut remaining: Vec<usize> = Vec::new();
    let mut seeded: VecDeque<RetryTask> = VecDeque::new();
    for trial in &trials {
        let index = trial.index;
        if replay.completed.contains_key(&(index as u64)) {
            continue;
        }
        if let Some((attempt, acc)) = replay.retries.get(&(index as u64)) {
            seeded.push_back(RetryTask {
                index,
                attempt: *attempt,
                acc: acc.clone(),
            });
        } else {
            remaining.push(index);
        }
    }
    let expected = remaining.len() + seeded.len();
    let restored = replay.completed.len();
    let resumed_retries = seeded.len();

    let mut progress = cfg.progress.map(|p| ProgressState::new(p, run_start));
    let mut retries_seen = 0u64;
    let mut stats = WorkerStats::new(cfg.workers.clamp(1, expected.max(1)));

    if expected > 0 {
        let scope_cfg = ScopeConfig::of(tel).with_trace_capacity(spec.trace_capacity);
        let workers = cfg.workers.clamp(1, expected);
        let deques = underradar_campaign::steal::Deques::split(remaining.len(), workers, 0);
        let retry_tail = Mutex::new(seeded);
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
                    scope_cfg,
                    retry_tail: &retry_tail,
                    tx: tx.clone(),
                    stats: &stats,
                };
                let deques = &deques;
                let remaining = &remaining;
                scope.spawn(move || worker.run(deques, remaining));
            }
            drop(tx);
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
                                j.append_complete(*index as u64, result, acc)?
                            }
                            Msg::Retry {
                                index,
                                next_attempt,
                                acc,
                            } => j.append_retry(*index as u64, *next_attempt, acc)?,
                        }
                    }
                    j.flush()?;
                }
                for msg in group.drain(..) {
                    match msg {
                        Msg::Done { index, result, acc } => {
                            sink.row(&result)?;
                            report.absorb(&result);
                            merger.absorb(index as u64, &acc);
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
    sink.flush()?;
    tel.merge_registry(&merger.finish());
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
        steals: *stats.steals.get_mut(),
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
    scope_cfg: ScopeConfig,
    retry_tail: &'a Mutex<VecDeque<RetryTask>>,
    tx: mpsc::SyncSender<Msg>,
    stats: &'a WorkerStats,
}

impl<'a> Worker<'a> {
    /// Drain own deque, steal, then service the retry tail. Each unit of
    /// work is a *single attempt*; inconclusive attempts re-enqueue at
    /// the tail rather than looping inline. Attempts run in the worker's
    /// own world pool, built lazily on this thread: consecutive attempts
    /// of one column and topology reset one world instead of building one
    /// each.
    fn run(&self, deques: &underradar_campaign::steal::Deques, remaining: &[usize]) {
        let mut worlds = Worlds::new();
        loop {
            let popped = deques.pop(self.id).or_else(|| {
                let stolen = deques.steal(self.id);
                if stolen.is_some() {
                    self.stats.steals.fetch_add(1, Ordering::Relaxed);
                }
                stolen
            });
            if let Some(chunk) = popped {
                for &index in &remaining[chunk.start..chunk.end] {
                    self.attempt(&mut worlds, index, 0, Registry::new());
                }
                continue;
            }
            let task = self
                .retry_tail
                .lock()
                .expect("retry tail poisoned")
                .pop_front();
            match task {
                Some(t) => self.attempt(&mut worlds, t.index, t.attempt, t.acc),
                // Deques and retry tail both empty at this check: any retry
                // enqueued concurrently is followed by its enqueuer's own
                // check, so exiting here strands nothing.
                None => return,
            }
        }
    }

    /// Run one attempt of trial `index` and hand the outcome to the
    /// committer. Busy time covers the attempt alone; time blocked on a
    /// full channel is accounted as waiting.
    fn attempt(&self, worlds: &mut Worlds<'a>, index: usize, attempt: u32, mut acc: Registry) {
        let trial = &self.trials[index];
        let prep = &self.preps[trial.policy_idx];
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
        self.stats.busy_ns[self.id].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.attempts[self.id].fetch_add(1, Ordering::Relaxed);
        match outcome {
            AttemptOutcome::Done(result) => self.send(Msg::Done {
                index,
                result,
                acc: Box::new(acc),
            }),
            AttemptOutcome::Retry { next_attempt } => {
                self.send(Msg::Retry {
                    index,
                    next_attempt,
                    acc: Box::new(acc.clone()),
                });
                self.retry_tail
                    .lock()
                    .expect("retry tail poisoned")
                    .push_back(RetryTask {
                        index,
                        attempt: next_attempt,
                        acc,
                    });
            }
        }
    }

    fn send(&self, msg: Msg) {
        let t0 = Instant::now();
        let _ = self.tx.send(msg);
        self.stats.wait_ns[self.id].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}
