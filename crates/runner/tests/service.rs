//! End-to-end determinism and durability tests for the run service.
//!
//! The contract under test: service output (final report text and JSON,
//! cell stats, merged telemetry JSON, trace JSONL, rows) is byte-identical
//! to a sequential run of every trial in index order, at any worker
//! count, with or without checkpointing, and across a resume at **every**
//! checkpoint boundary.

use std::path::PathBuf;

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{
    CampaignSpec, MethodKind, NamedPolicy, RetryPolicy, StreamReport, TrialResult,
};
use underradar_censor::CensorPolicy;
use underradar_core::TargetSite;
use underradar_netsim::addr::Cidr;
use underradar_runner::{
    run_service, Journal, JournalError, JsonlSink, ProgressConfig, RowSink, RunConfig, VecSink,
};
use underradar_telemetry::Telemetry;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("underradar-service-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A small matrix mixing flat and routed methods across two policies.
fn spec() -> CampaignSpec {
    CampaignSpec::new("service-e2e", 2015)
        .targets(["twitter.com", "bbc.com"])
        .methods([MethodKind::Scan, MethodKind::Overt, MethodKind::Hops])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new(
            "dns-blocking",
            CensorPolicy::new().block_keyword("twitter"),
        ))
        .trials_per_cell(2)
        .run_secs(30)
}

/// A lossy matrix that actually exercises the retry tail: heavy client
/// link loss drives `Inconclusive` verdicts into the backoff path.
fn lossy_spec() -> CampaignSpec {
    CampaignSpec::new("service-lossy", 6)
        .targets(["twitter.com"])
        .method(MethodKind::Spam)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(6)
        .retry(RetryPolicy {
            max_retries: 2,
            backoff_secs: 30,
        })
        .client_link_loss(0.4)
        .warmup(false)
        .run_secs(40)
}

/// The differential oracle: every trial run on this thread, in index
/// order, through `engine::run_trial`, with each trial's registry merged
/// into `tel` in the same order. No scheduling, no journal, no channel.
fn oracle(spec: &CampaignSpec, tel: &Telemetry) -> (StreamReport, Vec<TrialResult>) {
    let preps = engine::prepare(spec);
    let cfg = ScopeConfig::of(tel).with_trace_capacity(spec.trace_capacity);
    let mut report = StreamReport::new(&spec.name);
    let trials = spec
        .expand()
        .iter()
        .map(|trial| {
            let (result, registry) = engine::run_trial(spec, &preps[trial.policy_idx], trial, cfg);
            tel.merge_registry(&registry);
            report.absorb(&result);
            result
        })
        .collect();
    (report, trials)
}

fn rows(trials: &[TrialResult]) -> Vec<String> {
    trials.iter().map(TrialResult::to_json_row).collect()
}

/// Everything the determinism contract covers, as comparable strings;
/// rows in index order.
fn fingerprint_run(spec: &CampaignSpec, cfg: &RunConfig) -> (String, String, String, Vec<String>) {
    let tel = Telemetry::with_trace(4096);
    let mut sink = VecSink::new();
    let outcome = run_service(spec, cfg, &tel, &mut sink).expect("service run");
    let snap = tel.snapshot();
    (
        outcome.report.render_text(),
        snap.to_json(),
        snap.trace_jsonl(),
        rows(&sink.into_sorted()),
    )
}

#[test]
fn service_matches_the_sequential_oracle_byte_for_byte() {
    let spec = spec();
    let tel = Telemetry::with_trace(4096);
    let (report, trials) = oracle(&spec, &tel);
    let snap = tel.snapshot();

    let tel_svc = Telemetry::with_trace(4096);
    let mut sink = VecSink::new();
    let outcome = run_service(&spec, &RunConfig::new(3), &tel_svc, &mut sink).expect("run");
    let svc_trials = sink.into_sorted();
    let svc_snap = tel_svc.snapshot();
    assert_eq!(outcome.report.render_text(), report.render_text());
    assert_eq!(outcome.report.to_json(&svc_trials), report.to_json(&trials));
    assert_eq!(svc_snap.to_json(), snap.to_json());
    assert_eq!(svc_snap.trace_jsonl(), snap.trace_jsonl());
    // Rows sorted by index are exactly the envelope's trial rows.
    assert_eq!(rows(&svc_trials), rows(&trials));
}

#[test]
fn one_and_many_workers_agree_with_and_without_checkpointing() {
    let spec = spec();
    let baseline = fingerprint_run(&spec, &RunConfig::new(1));
    for workers in [2, 8] {
        assert_eq!(
            fingerprint_run(&spec, &RunConfig::new(workers)),
            baseline,
            "{workers} workers"
        );
    }
    let path = tmp("workers");
    assert_eq!(
        fingerprint_run(&spec, &RunConfig::new(4).checkpoint(path.clone())),
        baseline,
        "checkpointed run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retries_survive_the_tail_queue_and_match_the_oracle() {
    let spec = lossy_spec();
    let tel = Telemetry::enabled();
    let (report, trials) = oracle(&spec, &tel);
    let retried: u64 = trials.iter().map(|t| u64::from(t.retries)).sum();
    assert!(retried > 0, "lossy spec must exercise retries");

    let tel2 = Telemetry::enabled();
    let mut sink = VecSink::new();
    let outcome = run_service(&spec, &RunConfig::new(4), &tel2, &mut sink).expect("service run");
    assert_eq!(outcome.report.render_text(), report.render_text());
    assert_eq!(tel2.snapshot().to_json(), tel.snapshot().to_json());
}

/// Retried trials complete late and out of order on the retry tail; a
/// `VecSink` sorted by index still yields exactly the oracle's rows.
#[test]
fn vec_sink_rows_sorted_by_index_match_the_oracle_under_retries() {
    let spec = lossy_spec();
    let (_, trials) = oracle(&spec, &Telemetry::disabled());
    assert!(trials.iter().any(|t| t.retries > 0), "lossy spec retries");

    let mut sink = VecSink::new();
    run_service(&spec, &RunConfig::new(4), &Telemetry::disabled(), &mut sink).expect("run");
    let sorted = sink.into_sorted();
    assert_eq!(
        sorted.iter().map(|t| t.index).collect::<Vec<_>>(),
        (0..spec.trial_count()).collect::<Vec<_>>()
    );
    assert_eq!(rows(&sorted), rows(&trials));
}

/// Interrupt a journaled run after every record boundary and resume;
/// assert each resumed run's report, telemetry, trace, and rows (restored
/// plus executed) are byte-identical to the uninterrupted baseline.
/// Returns the boundary count so callers can assert coverage.
fn assert_resume_at_every_boundary(name: &str, spec: &CampaignSpec) -> usize {
    let baseline = fingerprint_run(spec, &RunConfig::new(1));
    let trials = spec.trial_count();

    // Run once to completion with fsync after every record, then replay
    // prefixes of the finished journal as kill points.
    let path = tmp(name);
    let tel = Telemetry::with_trace(4096);
    let mut sink = VecSink::new();
    let cfg = RunConfig::new(2).checkpoint(path.clone()).fsync_every(1);
    run_service(spec, &cfg, &tel, &mut sink).expect("full run");
    let full = std::fs::read(&path).expect("journal bytes");

    // Every record boundary in the journal is a legal kill point. Walk
    // the framing to enumerate them.
    let mut boundaries = vec![underradar_runner::journal::HEADER_LEN as usize];
    let mut pos = underradar_runner::journal::HEADER_LEN as usize;
    while pos + 8 <= full.len() {
        let len =
            u32::from_le_bytes([full[pos], full[pos + 1], full[pos + 2], full[pos + 3]]) as usize;
        pos += 8 + len;
        boundaries.push(pos);
    }
    assert_eq!(*boundaries.last().expect("nonempty"), full.len());
    assert!(boundaries.len() > trials, "journal holds every completion");

    for (i, &cut) in boundaries.iter().enumerate() {
        std::fs::write(&path, &full[..cut]).expect("truncate to boundary");
        let tel = Telemetry::with_trace(4096);
        let mut sink = VecSink::new();
        let outcome = run_service(spec, &cfg, &tel, &mut sink).expect("resumed run");
        assert_eq!(outcome.restored + outcome.executed, trials, "boundary {i}");
        let snap = tel.snapshot();
        assert_eq!(outcome.report.render_text(), baseline.0, "boundary {i}");
        assert_eq!(snap.to_json(), baseline.1, "boundary {i}");
        assert_eq!(snap.trace_jsonl(), baseline.2, "boundary {i}");
        assert_eq!(rows(&sink.into_sorted()), baseline.3, "boundary {i}");
    }
    let _ = std::fs::remove_file(&path);
    boundaries.len()
}

/// The resume property test (satellite 4): every checkpoint boundary of a
/// small campaign is a safe kill point.
#[test]
fn resume_at_every_checkpoint_boundary_is_byte_identical() {
    let spec = CampaignSpec::new("service-resume", 11)
        .targets(["twitter.com"])
        .methods([MethodKind::Scan, MethodKind::StatelessSyn])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(3)
        .run_secs(20);
    assert_resume_at_every_boundary("boundaries", &spec);
}

/// The same property over an ip-blackhole column: the inline censor's
/// drops export one `censor.inline.action` event each (most of the events
/// a paper-scale audit carries), so every journaled delta here holds
/// events that must decode back to identical bytes.
#[test]
fn resume_with_inline_censor_events_is_byte_identical() {
    let target = TargetSite::numbered("twitter.com", 0).web_ip;
    let spec = CampaignSpec::new("service-blackhole", 17)
        .targets(["twitter.com"])
        .methods([MethodKind::Scan, MethodKind::StatelessSyn])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new(
            "ip-blackhole",
            CensorPolicy::new().block_ip(Cidr::host(target)),
        ))
        .trials_per_cell(2)
        .run_secs(20);
    let (_, registry_json, _, _) = fingerprint_run(&spec, &RunConfig::new(1));
    assert!(
        registry_json.contains("\"kind\":\"censor.inline.action\""),
        "the blackhole column must export inline censor events"
    );
    assert_resume_at_every_boundary("blackhole", &spec);
}

/// The same property over a campaign with retry records in the journal:
/// killing between a retry handoff and its completion must resume the
/// trial mid-attempt with its backoff budget and accumulated telemetry
/// intact, not restart it from attempt 0.
#[test]
fn resume_mid_retry_preserves_backoff_budgets() {
    let spec = lossy_spec();
    let trials = spec.trial_count();
    let boundaries = assert_resume_at_every_boundary("midretry", &spec);
    // completions + header + at least one retry handoff record.
    assert!(
        boundaries > trials + 1,
        "journal must contain retry records ({boundaries} boundaries, {trials} trials)"
    );
}

/// Mid-record kills (satellite 3, end to end): cut the journal at
/// arbitrary *non*-boundary offsets — recovery truncates to the last
/// valid frontier, never panics, never double-counts a trial.
#[test]
fn mid_record_kill_recovers_without_double_counting() {
    let spec = CampaignSpec::new("service-kill", 23)
        .targets(["twitter.com"])
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(4)
        .run_secs(20);
    let baseline = fingerprint_run(&spec, &RunConfig::new(1));
    let trials = spec.trial_count();

    let path = tmp("midrecord");
    let cfg = RunConfig::new(2).checkpoint(path.clone()).fsync_every(1);
    let tel = Telemetry::with_trace(4096);
    run_service(&spec, &cfg, &tel, &mut VecSink::new()).expect("full run");
    let full = std::fs::read(&path).expect("journal bytes");

    let header = underradar_runner::journal::HEADER_LEN as usize;
    let step = ((full.len() - header) / 13).max(1);
    for cut in (header..full.len()).step_by(step) {
        std::fs::write(&path, &full[..cut]).expect("mid-record cut");
        let tel = Telemetry::with_trace(4096);
        let outcome = run_service(&spec, &cfg, &tel, &mut VecSink::new()).expect("recovered run");
        assert_eq!(outcome.restored + outcome.executed, trials, "cut {cut}");
        assert_eq!(
            outcome.report.trial_count(),
            trials,
            "cut {cut}: no loss, no double-count"
        );
        assert_eq!(outcome.report.render_text(), baseline.0, "cut {cut}");
        assert_eq!(tel.snapshot().to_json(), baseline.1, "cut {cut}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Progress snapshots ride stderr and the run profile only: the report,
/// the rows and the whole registry are byte-identical to a silent run.
#[test]
fn progress_snapshots_leave_rows_report_and_registry_unchanged() {
    let spec = spec();
    let baseline = fingerprint_run(&spec, &RunConfig::new(2));

    let tel = Telemetry::with_trace(4096);
    let mut sink = VecSink::new();
    let cfg = RunConfig::new(2).progress(ProgressConfig {
        every_trials: 1,
        every_ms: 10_000,
    });
    let outcome = run_service(&spec, &cfg, &tel, &mut sink).expect("progress run");
    assert_eq!(outcome.report.render_text(), baseline.0);
    assert_eq!(rows(&sink.into_sorted()), baseline.3);

    // At least the final snapshot always fires, and it is counted in the
    // profile, not the registry.
    assert!(outcome.profile.snapshots >= 1);
    let snap = tel.snapshot();
    assert_eq!(snap.to_json(), baseline.1);
    assert_eq!(snap.trace_jsonl(), baseline.2);
}

/// The run profile accounts for every attempt and every worker.
#[test]
fn service_outcome_carries_a_populated_profile() {
    let spec = spec();
    let tel = Telemetry::disabled();
    let mut sink = VecSink::new();
    let outcome = run_service(&spec, &RunConfig::new(3), &tel, &mut sink).expect("service run");
    let p = &outcome.profile;
    assert_eq!(p.worker_busy_ns.len(), 3);
    assert_eq!(p.worker_wait_ns.len(), 3, "one wait entry per worker");
    assert_eq!(p.worker_attempts.len(), 3);
    let attempts: u64 = p.worker_attempts.iter().sum();
    assert!(
        attempts >= outcome.executed as u64,
        "attempts {attempts} cover every executed trial"
    );
    assert!(p.worker_busy_ns.iter().sum::<u64>() > 0);
    assert!(p.wall_ms >= p.prepare_ms);
    assert_eq!(p.snapshots, 0, "no progress requested");
}

/// A sink that, for every row it is handed, re-reads the journal and
/// checks that the row's complete record is already in the file.
struct JournalCheckingSink {
    journal: PathBuf,
    copy: PathBuf,
    fingerprint: u64,
    trials: u64,
    rows: usize,
}

impl RowSink for JournalCheckingSink {
    fn row(&mut self, result: &TrialResult) -> std::io::Result<()> {
        // Replay a copy: opening the live journal would share its append
        // position with the committer.
        std::fs::copy(&self.journal, &self.copy)?;
        let (_, replay) = Journal::open_or_create(&self.copy, self.fingerprint, self.trials)
            .expect("journal copy opens");
        assert!(
            replay.completed.contains_key(&(result.index as u64)),
            "row {} reached the sink before its journal record",
            result.index
        );
        self.rows += 1;
        Ok(())
    }
}

/// The committer's ordering contract: a row never reaches the sink
/// before its complete record is in the journal file, whatever the worker
/// count and fsync cadence.
#[test]
fn rows_reach_the_sink_only_after_their_journal_record() {
    let spec = spec();
    for workers in [1, 4] {
        for fsync_every in [1, 64] {
            let name = format!("row-after-record-{workers}-{fsync_every}");
            let journal = tmp(&name);
            let mut sink = JournalCheckingSink {
                journal: journal.clone(),
                copy: tmp(&format!("{name}-copy")),
                fingerprint: spec.fingerprint(),
                trials: spec.trial_count() as u64,
                rows: 0,
            };
            let cfg = RunConfig::new(workers)
                .checkpoint(journal.clone())
                .fsync_every(fsync_every);
            run_service(&spec, &cfg, &Telemetry::disabled(), &mut sink).expect("service run");
            assert_eq!(sink.rows, spec.trial_count());
            let _ = std::fs::remove_file(&journal);
            let _ = std::fs::remove_file(&sink.copy);
        }
    }
}

#[test]
fn resuming_a_finished_run_executes_nothing() {
    let spec = spec();
    let path = tmp("finished");
    let cfg = RunConfig::new(2).checkpoint(path.clone());
    let tel = Telemetry::with_trace(4096);
    let mut first = VecSink::new();
    run_service(&spec, &cfg, &tel, &mut first).expect("full run");

    let tel2 = Telemetry::with_trace(4096);
    let mut sink = VecSink::new();
    let outcome = run_service(&spec, &cfg, &tel2, &mut sink).expect("no-op resume");
    assert_eq!(outcome.executed, 0);
    assert_eq!(outcome.restored, spec.trial_count());
    assert_eq!(
        rows(&sink.into_sorted()),
        rows(&first.into_sorted()),
        "a VecSink collects restored trials"
    );
    assert_eq!(tel2.snapshot().to_json(), tel.snapshot().to_json());
    let mut stream = JsonlSink::new(Vec::new());
    run_service(&spec, &cfg, &Telemetry::disabled(), &mut stream).expect("streaming resume");
    assert!(
        stream.into_inner().is_empty(),
        "restored rows are not re-streamed"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_from_a_different_spec_is_refused() {
    let path = tmp("wrongspec");
    let cfg = RunConfig::new(1).checkpoint(path.clone());
    let tel = Telemetry::disabled();
    run_service(&spec(), &cfg, &tel, &mut VecSink::new()).expect("first spec");
    let other = spec().run_secs(31);
    match run_service(&other, &cfg, &tel, &mut VecSink::new()) {
        Err(JournalError::SpecMismatch { .. }) => {}
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Target site `i` lives at `93.184.0.(10 + i)`, cover host `i` at
/// `10.0.1.(10 + i)` and spoofed cover address `i` at `10.0.1.(30 + i)`.
/// One past any of these limits the last octet would wrap and trials
/// would share addresses (target 256 would get target 0's web server), so
/// such a spec is refused before any world is built; a spec at every
/// limit runs.
#[test]
fn specs_past_the_address_plan_are_refused_before_any_world_is_built() {
    use underradar_campaign::engine::MAX_SPOOFED_COVER;
    use underradar_campaign::AddressPlanOverrun;
    use underradar_core::testbed::{MAX_COVER_HOSTS, MAX_TARGET_SITES};

    assert_eq!(
        (MAX_TARGET_SITES, MAX_COVER_HOSTS, MAX_SPOOFED_COVER),
        (246, 246, 226)
    );
    let domains: Vec<String> = (0..=MAX_TARGET_SITES)
        .map(|i| format!("site{i}.example"))
        .collect();
    let names = |n: usize| domains[..n].iter().map(String::as_str);
    let base = || {
        CampaignSpec::new("address-plan", 3)
            .method(MethodKind::StatelessSyn)
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .warmup(false)
            .run_secs(5)
    };
    let run = |spec: &CampaignSpec| {
        let mut sink = VecSink::new();
        run_service(spec, &RunConfig::new(2), &Telemetry::disabled(), &mut sink)
            .map(|outcome| (outcome.executed, sink.into_sorted()))
    };

    let at_limit = [
        base().targets(names(MAX_TARGET_SITES)),
        base().target("twitter.com").cover_hosts(MAX_COVER_HOSTS),
        base()
            .target("twitter.com")
            .spoofed_cover(MAX_SPOOFED_COVER),
    ];
    for spec in &at_limit {
        let (executed, trials) = run(spec).expect("a spec at the limit runs");
        assert_eq!(executed, spec.trial_count());
        assert_eq!(trials.len(), spec.trial_count());
    }

    let past = [
        (base().targets(names(MAX_TARGET_SITES + 1)), "targets", 246),
        (
            base()
                .target("twitter.com")
                .cover_hosts(MAX_COVER_HOSTS + 1),
            "cover_hosts",
            246,
        ),
        (
            base()
                .target("twitter.com")
                .spoofed_cover(MAX_SPOOFED_COVER + 1),
            "spoofed_cover",
            226,
        ),
    ];
    for (spec, field, max) in past {
        let expected = AddressPlanOverrun {
            field,
            got: max + 1,
            max,
        };
        match run(&spec) {
            Err(JournalError::AddressPlan(overrun)) => assert_eq!(overrun, expected),
            other => panic!("expected an address-plan overrun on {field}, got {other:?}"),
        }
    }
}

/// A target no testbed can name — one that does not parse, or one whose
/// mail exchanger `mx1.<target>` would pass the 255-byte DNS name limit —
/// is refused with an error before any journal is opened or world built,
/// never run or panicked on.
#[test]
fn specs_with_unbuildable_targets_are_refused_before_any_world_is_built() {
    // 252 characters: a valid domain whose `mx1.` name is 256.
    let longest = [63, 63, 63, 60].map(|n| "a".repeat(n)).join(".");
    let cases = [
        ("a..b".to_string(), "empty label"),
        (longest, "name too long"),
    ];
    for (domain, why) in cases {
        let spec = CampaignSpec::new("bad-target", 3)
            .targets(["twitter.com", domain.as_str()])
            .method(MethodKind::StatelessSyn)
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .run_secs(5);
        let path = tmp("bad-target");
        let cfg = RunConfig::new(2).checkpoint(path.clone());
        match run_service(&spec, &cfg, &Telemetry::disabled(), &mut VecSink::new()) {
            Err(JournalError::InvalidTarget(got)) => {
                assert_eq!(got.domain, domain);
                assert!(got.to_string().contains(why), "{got}");
            }
            other => panic!("expected an invalid-target refusal, got {other:?}"),
        }
        assert!(!path.exists(), "no journal opened for {domain}");
    }
}
