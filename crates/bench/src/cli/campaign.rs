//! `underradar campaign`: the paper-scale measurement campaign (all 8
//! methods × 4 censor policies × 4 targets × 4 seeds = 512 trials)
//! through the run service (`underradar-runner`), the one campaign
//! executor.
//!
//! Flags, beyond the output flags every subcommand shares (`--json`,
//! `--jsonl`, `--telemetry`, `--trace`, `--trace-capacity N`; see
//! [`crate::cli`]):
//!
//! * `--shards N` — worker threads (default 1). Output is byte-identical
//!   for every `N`, which `scripts/ci.sh` checks (1 vs 4).
//! * `--impair` — enable the adversarial client-link impairment knobs
//!   (reorder 0.2 with 2 ms displacement, duplicate 0.1). Deterministic:
//!   every impairment draw comes from the per-trial simulator RNG in
//!   simulated-time order, so the 1-vs-4-shard byte identity must hold
//!   here too (`scripts/ci.sh` checks both). The knobs reach the flat
//!   testbed's client link only: `hops` and `stateful` trials run on the
//!   routed chain, whose links stay clean, so their rows are those of an
//!   unimpaired run.
//! * `--json` — one JSON object `{"experiment", "report", "telemetry"}`
//!   where `report` is the structured campaign report (cells + trials).
//! * `--jsonl` — one JSON row per trial, in index order.
//! * `--trace` — text report plus the flight recorder: every stage
//!   decision as JSON lines (sorted keys, byte-identical for any shard
//!   count) and the explainer's per-trial causal chains.
//! * `--trace-diff A B` — run with the flight recorder and print the
//!   first divergent stage decision between trial `A`'s and trial `B`'s
//!   trace segments (campaign markers excluded — they name the trials and
//!   would differ trivially).
//! * `--profile-json PATH` — write the run's wall-clock profile
//!   (`RunProfile`: wall and prepare time, per-worker busy, wait and
//!   attempt counts, steal/retry totals) to `PATH` as sorted-key JSON;
//!   stdout stays deterministic.
//! * `--audit` (or `--audit=json`) — the report, then the adversary-eye
//!   **safety audit**: per-host attributability scores rebuilt from the
//!   merged `exposure.*` registry entries, with every cell that declared
//!   itself fully evaded while the adversary holds attributable events
//!   surfaced as a divergence.
//! * `--progress` (or `--progress=N`, snapshot every `N` trials) — stream
//!   interval snapshots (done/total, rows/sec, ETA, per-worker busy
//!   fractions, steal/retry counts, journal lag) as JSONL on **stderr**;
//!   stdout bytes are untouched.
//! * `--service` — under `--jsonl`, stream each row the moment its trial
//!   completes (completion order; each row carries its `index`) instead
//!   of printing every row in index order after the run. Also reports the
//!   executed/restored counts on stderr. Every other output is unchanged.
//! * `--checkpoint PATH` — journal every completed trial to `PATH`
//!   (implies `--service`). A killed run resumed with the same flags
//!   skips journaled trials and produces byte-identical final output.
//! * `--synthetic N` — replace the paper matrix with an `N`-trial
//!   synthetic scale matrix (cheap scan trials; for million-trial runs).

use std::path::PathBuf;
use std::process::{exit, ExitCode};

use underradar_campaign::spec::CampaignSpec;
use underradar_runner::{
    run_service, JsonlSink, NullSink, ProgressConfig, RowSink, RunConfig, RunProfile,
    ServiceOutcome, VecSink,
};
use underradar_telemetry::{trace, Telemetry, TraceRecord};

use super::{Arg, ArgParser, OutputMode, OutputSpec};
use crate::experiments::campaign::{paper_campaign, safety_audit, synthetic_campaign};

/// Everything the command line asks for.
#[derive(Default)]
struct Args {
    output: OutputSpec,
    shards: usize,
    service: bool,
    checkpoint: Option<PathBuf>,
    progress: Option<ProgressConfig>,
    synthetic: Option<usize>,
    impair: bool,
    /// `Some(json)` under `--audit` / `--audit=json`.
    audit: Option<bool>,
    trace_diff: Option<(u64, u64)>,
    profile_json: Option<String>,
}

/// Parse every argument; later occurrences of a flag win. Total: any
/// malformed value, missing value or unknown flag is an `Err` naming it.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = ArgParser::new(argv);
    while let Some(arg) = it.next() {
        let flag = match arg {
            Arg::Flag(flag) => flag,
            Arg::Positional(v) => return Err(format!("unknown argument '{v}'")),
        };
        if args.output.take(&flag, &mut it)? {
            continue;
        }
        match (flag.name, flag.inline) {
            ("--impair", _) => args.impair = flag.switch()?,
            ("--service", _) => args.service = flag.switch()?,
            ("--shards", _) => args.shards = it.number(&flag)?,
            ("--synthetic", _) => args.synthetic = Some(it.number(&flag)?),
            ("--checkpoint", _) => args.checkpoint = Some(PathBuf::from(it.value(&flag)?)),
            ("--profile-json", _) => args.profile_json = Some(it.value(&flag)?.to_string()),
            ("--audit", None) => args.audit = Some(false),
            ("--audit", Some("json")) => args.audit = Some(true),
            ("--audit", Some(other)) => {
                return Err(format!("--audit takes only =json, got '{other}'"));
            }
            ("--progress", inline) => {
                let mut progress = ProgressConfig::default();
                if inline.is_some() {
                    progress.every_trials = it.number(&flag)?;
                }
                args.progress = Some(progress);
            }
            ("--trace-diff", None) => {
                args.trace_diff = Some((it.number(&flag)?, it.number(&flag)?))
            }
            _ => return Err(flag.unknown()),
        }
    }
    args.shards = args.shards.max(1);
    args.service |= args.checkpoint.is_some();
    Ok(args)
}

/// Trial `index`'s stage decisions: its trace segment minus the campaign
/// markers (which carry the trial identity and would differ trivially).
fn trial_decisions(records: &[TraceRecord], index: u64) -> Option<Vec<TraceRecord>> {
    trace::split_trials(records)
        .into_iter()
        .find(|seg| {
            seg.first()
                .is_some_and(|r| r.kind == "trial_start" && r.field_u64("trial") == Some(index))
        })
        .map(|seg| {
            seg.iter()
                .filter(|r| r.stage != "campaign")
                .cloned()
                .collect()
        })
}

/// `--profile-json PATH`: the run profile as sorted-key JSON.
fn write_profile_json(path: &str, p: &RunProfile) {
    let join = |v: &[u64]| {
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let out = format!(
        "{{\"prepare_ms\":{},\"retries_seen\":{},\"snapshots\":{},\"steals\":{},\
         \"wall_ms\":{},\"worker_attempts\":[{}],\"worker_busy_ns\":[{}],\
         \"worker_wait_ns\":[{}]}}\n",
        p.prepare_ms,
        p.retries_seen,
        p.snapshots,
        p.steals,
        p.wall_ms,
        join(&p.worker_attempts),
        join(&p.worker_busy_ns),
        join(&p.worker_wait_ns)
    );
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("--profile-json {path}: {e}");
        exit(1);
    }
}

/// One campaign run: the spec and the service config.
struct Campaign {
    spec: CampaignSpec,
    cfg: RunConfig,
    service: bool,
}

impl Campaign {
    /// Run the campaign under `tel`, handing each completed trial to
    /// `sink`. A journal failure exits with status 1.
    fn run(&self, tel: &Telemetry, sink: &mut dyn RowSink) -> ServiceOutcome {
        let outcome = run_service(&self.spec, &self.cfg, tel, sink).unwrap_or_else(|e| {
            eprintln!("campaign run failed: {e}");
            exit(1);
        });
        if self.service {
            eprintln!(
                "service: {} executed, {} restored, {} resumed retries, {} journal bytes truncated",
                outcome.executed,
                outcome.restored,
                outcome.resumed_retries,
                outcome.journal_truncated
            );
        }
        outcome
    }

    /// Print the output `spec` asks for; returns the run profile.
    fn print(&self, spec: OutputSpec) -> RunProfile {
        match spec.mode() {
            OutputMode::Json => {
                let tel = Telemetry::enabled();
                let mut sink = VecSink::new();
                let outcome = self.run(&tel, &mut sink);
                println!(
                    "{{\"experiment\":\"campaign\",\"report\":{},\"telemetry\":{}}}",
                    outcome.report.to_json(&sink.into_sorted()),
                    tel.snapshot().to_json()
                );
                outcome.profile
            }
            OutputMode::Jsonl if self.service => {
                let stdout = std::io::stdout();
                let mut sink = JsonlSink::new(std::io::BufWriter::new(stdout.lock()));
                self.run(&Telemetry::disabled(), &mut sink).profile
            }
            OutputMode::Jsonl => {
                let mut sink = VecSink::new();
                let outcome = self.run(&Telemetry::disabled(), &mut sink);
                let out: String = sink
                    .into_sorted()
                    .iter()
                    .map(|t| t.to_json_row() + "\n")
                    .collect();
                print!("{out}");
                outcome.profile
            }
            // Text, text with telemetry, and trace: the text report through
            // the renderer `experiments` uses.
            OutputMode::Text | OutputMode::TextWithTelemetry | OutputMode::Trace => {
                let tel = spec.telemetry_handle();
                let outcome = self.run(&tel, &mut NullSink);
                let out = spec.render("campaign", &outcome.report.render_text(), &tel.snapshot());
                print!("{out}");
                outcome.profile
            }
        }
    }

    /// `--audit`: run with telemetry forced on, print the report, then the
    /// safety audit reconstructed from the merged registry.
    fn audit(&self, json: bool) -> RunProfile {
        let tel = Telemetry::enabled();
        let outcome = self.run(&tel, &mut NullSink);
        print!("{}", outcome.report.render_text());
        println!("--- audit ---");
        let audit = safety_audit(&outcome.report.cells(), &tel.snapshot());
        match json {
            true => println!("{}", audit.render_json()),
            false => print!("{}", audit.render_text()),
        }
        outcome.profile
    }

    /// `--trace-diff A B`: print the first divergent stage decision
    /// between two trials' trace segments. An index with no segment is an
    /// `Err`, reported before anything is printed.
    fn trace_diff(&self, a: u64, b: u64, trace_capacity: usize) -> Result<RunProfile, String> {
        let tel = Telemetry::with_trace(trace_capacity);
        let outcome = self.run(&tel, &mut NullSink);
        let snap = tel.snapshot();
        let decisions = |index| {
            trial_decisions(&snap.trace, index).ok_or_else(|| {
                format!("--trace-diff: trial {index} not found in the campaign trace")
            })
        };
        let (left, right) = (decisions(a)?, decisions(b)?);
        println!("trace diff: trial {a} (a) vs trial {b} (b)");
        print!(
            "{}",
            trace::render_diff(trace::diff(&left, &right).as_ref())
        );
        Ok(outcome.profile)
    }
}

/// `underradar campaign [flags]`: run the paper campaign (or a synthetic
/// one) and print what the flags ask for. `Err` is a usage error,
/// reported before anything is printed.
pub fn campaign(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let mut spec = match args.synthetic {
        Some(n) => synthetic_campaign(n),
        None => paper_campaign(4),
    };
    spec = spec.trace_capacity(args.output.trace_capacity_value());
    if args.impair {
        spec = spec.client_link_reorder(0.2).client_link_duplicate(0.1);
    }
    let mut cfg = RunConfig::new(args.shards);
    if let Some(path) = args.checkpoint {
        cfg = cfg.checkpoint(path);
    }
    if let Some(p) = args.progress {
        cfg = cfg.progress(p);
    }
    let campaign = Campaign {
        spec,
        cfg,
        service: args.service,
    };
    let profile = match (args.trace_diff, args.audit) {
        (Some((a, b)), _) => campaign.trace_diff(a, b, args.output.ring_capacity())?,
        (None, Some(json)) => campaign.audit(json),
        (None, None) => campaign.print(args.output),
    };
    if let Some(path) = args.profile_json {
        write_profile_json(&path, &profile);
    }
    Ok(ExitCode::SUCCESS)
}
