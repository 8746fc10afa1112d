//! Untraced campaign runs: the closed loop through
//! `underradar_runner::run_service`, the durable service path, and the
//! checks on what it committed.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

use underradar_campaign::engine;
use underradar_campaign::{CellStat, TrialResult};
use underradar_runner::{
    run_service, Journal, JsonlSink, NullSink, RowSink, RunConfig, RunProfile,
};
use underradar_surveil::exposure::{DeclaredCell, ExposureLedger, SafetyAudit};
use underradar_telemetry::{Registry, Telemetry};

use crate::report::{digest, median, peak_rss_mb, Report};
use crate::workloads::{CampaignLoad, WORKERS};

/// Forwards rows to the workload's sink and notes, per trial index, how
/// many rows were committed, plus an order-independent digest of the
/// rows' fields. Costs a few nanoseconds per row on the committer.
pub struct CheckedSink {
    inner: Box<dyn RowSink>,
    rows: Vec<u8>,
    digest: u64,
}

impl CheckedSink {
    pub fn new(trials: usize, inner: Box<dyn RowSink>) -> CheckedSink {
        CheckedSink {
            inner,
            rows: vec![0; trials],
            digest: 0,
        }
    }

    /// Trials that lack exactly one committed row.
    pub fn miscommitted(&self) -> u64 {
        self.rows.iter().filter(|&&n| n != 1).count() as u64
    }

    pub fn digest(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

impl RowSink for CheckedSink {
    fn row(&mut self, result: &TrialResult) -> std::io::Result<()> {
        if let Some(n) = self.rows.get_mut(result.index) {
            *n = n.saturating_add(1);
        }
        self.digest = self.digest.wrapping_add(row_hash(result));
        self.inner.row(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn row_hash(r: &TrialResult) -> u64 {
    let fields = [
        r.index as u64,
        r.seed,
        u64::from(r.verdict_correct),
        u64::from(r.evaded),
        r.alerts_on_client as u64,
        u64::from(r.attributed),
        u64::from(r.pursued),
        r.anonymity_set.map_or(u64::MAX, |n| n as u64),
        u64::from(r.retries),
    ];
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for f in fields {
        h = underradar_netsim::rng::splitmix64_mix(h ^ f);
    }
    h
}

/// The safety audit `exp_campaign --audit` prints, from the merged
/// registry and the report's cells.
pub fn render_audit(cells: &[CellStat], registry: &Registry) -> String {
    let ledger = ExposureLedger::from_registry(registry);
    let declared: Vec<DeclaredCell> = cells
        .iter()
        .map(|c| DeclaredCell {
            cell: format!("{}/{}", c.method, c.policy),
            trials: c.trials as u64,
            evaded: c.evaded as u64,
        })
        .collect();
    SafetyAudit::build(&ledger, &declared).render_text()
}

/// Files one run of a durable workload writes.
pub struct Scratch {
    pub journal: PathBuf,
    pub rows: PathBuf,
}

impl Scratch {
    pub fn new(dir: &Path, tag: &str) -> Scratch {
        Scratch {
            journal: dir.join(format!("{tag}.journal")),
            rows: dir.join(format!("{tag}.rows.jsonl")),
        }
    }

    pub fn clear(&self) {
        let _ = std::fs::remove_file(&self.journal);
        let _ = std::fs::remove_file(&self.rows);
    }
}

/// Time one set-up: expand the spec, prepare every policy column, and
/// open the journal, as `run_service` does before its first dispatch.
pub fn setup_once(load: &CampaignLoad, scratch: &Scratch) -> f64 {
    scratch.clear();
    let start = Instant::now();
    let trials = load.spec.expand();
    let preps = engine::prepare(&load.spec);
    let journal = load.durable.then(|| {
        Journal::open_or_create(
            &scratch.journal,
            load.spec.fingerprint(),
            trials.len() as u64,
        )
        .expect("open the checkpoint journal")
    });
    let secs = start.elapsed().as_secs_f64();
    black_box((trials, preps, journal));
    scratch.clear();
    secs
}

/// What one pass over the matrix produced.
pub struct Round {
    /// From first dispatch to the final output rendered.
    pub secs: f64,
    pub profile: RunProfile,
    /// Trials lacking exactly one committed row.
    pub miscommitted: u64,
    pub digests: Vec<(&'static str, String)>,
    pub errors: Vec<String>,
}

/// The workload's own row sink: a JSONL file for the durable workload,
/// rows dropped otherwise.
pub fn row_sink(load: &CampaignLoad, scratch: &Scratch) -> Box<dyn RowSink> {
    if load.durable {
        let file = File::create(&scratch.rows).expect("create the row file");
        Box::new(JsonlSink::new(BufWriter::new(file)))
    } else {
        Box::new(NullSink)
    }
}

/// One closed-loop pass over the workload's matrix on `workers` threads:
/// a worker takes its next trial only when its current one finishes.
pub fn round(load: &CampaignLoad, scratch: &Scratch, workers: usize) -> Round {
    scratch.clear();
    let spec = &load.spec;
    let n = spec.trial_count();
    let tel = if load.audit {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut cfg = RunConfig::new(workers);
    if load.durable {
        cfg = cfg.checkpoint(scratch.journal.clone()).fsync_every(64);
    }

    let mut sink = CheckedSink::new(n, row_sink(load, scratch));
    let start = Instant::now();
    let outcome = run_service(spec, &cfg, &tel, &mut sink).expect("service run");
    let report_text = outcome.report.render_text();
    let audited = load.audit.then(|| {
        let registry = tel.snapshot();
        let audit = render_audit(&outcome.report.cells(), &registry);
        (registry.to_json(), audit)
    });
    let secs = start.elapsed().as_secs_f64();
    let (registry_json, audit_text) =
        audited.unwrap_or_else(|| (tel.snapshot().to_json(), String::new()));

    let mut errors = Vec::new();
    if outcome.executed != n || outcome.restored != 0 || outcome.report.trial_count() != n {
        errors.push(format!(
            "{} executed, {} restored, {} reported of {n} trials",
            outcome.executed,
            outcome.restored,
            outcome.report.trial_count()
        ));
    }
    if load.durable {
        if let Err(e) = check_row_file(&scratch.rows, n) {
            errors.push(e);
        }
    }
    Round {
        secs,
        profile: outcome.profile,
        miscommitted: sink.miscommitted(),
        digests: digests(&report_text, &sink, &registry_json, &audit_text),
        errors,
    }
}

/// A pass's output digests: report text, committed rows, merged registry
/// and audit text.
pub fn digests(
    report: &str,
    rows: &CheckedSink,
    registry_json: &str,
    audit: &str,
) -> Vec<(&'static str, String)> {
    vec![
        ("report", digest(report)),
        ("rows", rows.digest()),
        ("registry", digest(registry_json)),
        ("audit", digest(audit)),
    ]
}

/// The JSONL row file holds one row per trial index.
pub fn check_row_file(path: &Path, trials: usize) -> Result<(), String> {
    let file = File::open(path).map_err(|e| format!("row file: {e}"))?;
    let mut seen = vec![0u8; trials];
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("row file: {e}"))?;
        let index = line
            .strip_prefix("{\"index\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < trials)
            .ok_or_else(|| format!("row file: malformed row {line:?}"))?;
        seen[index] = seen[index].saturating_add(1);
    }
    let bad = seen.iter().filter(|&&n| n != 1).count();
    if bad > 0 {
        return Err(format!("row file: {bad} trials lack exactly one row"));
    }
    Ok(())
}

/// The finished journal resumes as a no-op: every trial restored, none
/// executed, and the same report.
pub fn check_resume(
    load: &CampaignLoad,
    scratch: &Scratch,
    report_digest: &str,
) -> Result<(), String> {
    let n = load.spec.trial_count();
    let cfg = RunConfig::new(WORKERS).checkpoint(scratch.journal.clone());
    let outcome = run_service(&load.spec, &cfg, &Telemetry::disabled(), &mut NullSink)
        .map_err(|e| format!("resume: {e}"))?;
    let resumed = digest(&outcome.report.render_text());
    if outcome.restored != n || outcome.executed != 0 || resumed != report_digest {
        return Err(format!(
            "resume: {} restored, {} executed of {n}; report {}",
            outcome.restored,
            outcome.executed,
            if resumed == report_digest {
                "equal"
            } else {
                "differs"
            }
        ));
    }
    Ok(())
}

/// An untraced run: set up `SETUP_REPS` times, then pass over the matrix
/// while another pass fits in `seconds` (at least once), checking every
/// pass.
pub fn run(load: &CampaignLoad, seconds: f64, dir: &Path, report: &mut Report) {
    let n = load.spec.trial_count() as u64;
    let scratch = Scratch::new(dir, "run");
    let setup: Vec<f64> = (0..crate::SETUP_REPS)
        .map(|_| setup_once(load, &scratch))
        .collect();

    let start = Instant::now();
    let mut rates = Vec::new();
    let mut first: Option<Vec<(&'static str, String)>> = None;
    let mut last = 0.0;
    let mut rss = 0.0;
    while crate::another_round(start, seconds, rates.len(), 1, last) {
        let r = round(load, &scratch, WORKERS);
        last = r.secs;
        report.attempted += n;
        rates.push(n as f64 / r.secs);
        if rates.len() == 1 {
            // The peak of one campaign: later rounds (and the resume
            // check's replay, which holds the whole journal) add only
            // allocator fragmentation that depends on how many rounds
            // the machine's speed allowed.
            rss = peak_rss_mb();
        }
        let mut failed = r.miscommitted;
        let mut errors = r.errors;
        match &first {
            None => first = Some(r.digests),
            Some(d) if *d != r.digests => errors.push(format!(
                "round {} digests {:?} differ from the first round's {d:?}",
                rates.len(),
                r.digests
            )),
            Some(_) => {}
        }
        if !errors.is_empty() {
            failed = n;
        }
        report.failed += failed;
        report.errors.extend(errors);
    }
    if load.durable {
        let report_digest = first
            .as_ref()
            .and_then(|d| d.iter().find(|(k, _)| *k == "report"))
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        if let Err(e) = check_resume(load, &scratch, &report_digest) {
            report.fail(n, e);
        }
    }
    scratch.clear();
    report.digests = first.unwrap_or_default();
    report.median_of("trials_per_s", "trials/s", &rates);
    report.median_of("setup_s", "s", &setup);
    report.value("peak_rss_mb", "MB", rss, 1);
    eprintln!(
        "underbench: {}: {} rounds of {n} trials, median {:.1} trials/s, setup {:.3} ms",
        load.name,
        rates.len(),
        median(&rates),
        median(&setup) * 1e3
    );
}
