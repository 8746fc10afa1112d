//! Runs the paper-scale measurement campaign (all 8 methods × 4 censor
//! policies × 4 targets × 4 seeds = 512 trials) through the run service
//! (`underradar-runner`), the one campaign executor.
//!
//! Flags:
//!
//! * `--shards N` — worker threads (default 1). Output is byte-identical
//!   for every `N`, which `scripts/ci.sh` checks (1 vs 4).
//! * `--impair` — enable the adversarial client-link impairment knobs
//!   (reorder 0.2 with 2 ms displacement, duplicate 0.1). Deterministic:
//!   every impairment draw comes from the per-trial simulator RNG in
//!   simulated-time order, so the 1-vs-4-shard byte identity must hold
//!   here too (`scripts/ci.sh` checks both).
//! * `--json` — one JSON object `{"experiment", "report", "telemetry"}`
//!   where `report` is the structured campaign report (cells + trials).
//! * `--telemetry` (or `UNDERRADAR_TELEMETRY=1`) — text report plus the
//!   merged registry's text rendering.
//! * `--trace` (or `UNDERRADAR_TRACE=1`) — text report plus the flight
//!   recorder: every stage decision as JSON lines (sorted keys,
//!   byte-identical for any shard count) and the explainer's per-trial
//!   causal chains.
//! * `--trace-diff A B` — run with the flight recorder and print the
//!   first divergent stage decision between trial `A`'s and trial `B`'s
//!   trace segments (campaign markers excluded — they name the trials and
//!   would differ trivially).
//! * `--profile` — print a wall-clock profile footer (prepare/run/score
//!   stage timings) to stderr; stdout stays deterministic.
//! * `--profile-json PATH` — write the run profile (per-worker busy and
//!   attempt counts, steal/retry totals) and the stage timings to `PATH`
//!   as sorted-key JSON.
//! * `--audit` (or `--audit=json`) — the report, then the adversary-eye
//!   **safety audit**: per-host attributability scores rebuilt from the
//!   merged `exposure.*` registry entries, with every cell that declared
//!   itself fully evaded while the adversary holds attributable events
//!   surfaced as a divergence.
//! * `--progress` (or `--progress=N`, snapshot every `N` trials) — stream
//!   interval snapshots (done/total, rows/sec, ETA, per-worker busy
//!   fractions, steal/retry counts, journal lag) as JSONL on **stderr**;
//!   stdout bytes are untouched.
//! * `--trace-capacity N` (or `UNDERRADAR_TRACE_CAPACITY=N`) — size the
//!   flight-recorder ring for `--trace` / `--trace-diff` runs.
//! * `--service` — under `--jsonl`, stream each row the moment its trial
//!   completes (completion order; each row carries its `index`) instead
//!   of printing every row in index order after the run. Also reports the
//!   executed/restored counts on stderr. Every other output is unchanged.
//! * `--checkpoint PATH` — journal every completed trial to `PATH`
//!   (implies `--service`). A killed run resumed with the same flags
//!   skips journaled trials and produces byte-identical final output.
//! * `--synthetic N` — replace the paper matrix with an `N`-trial
//!   synthetic scale matrix (cheap scan trials; for million-trial runs).
//! * `--jsonl` — one JSON row per trial, in index order.
//!
//! A malformed or unknown flag exits with status 2 and a one-line error
//! on stderr, before anything runs.

use std::path::PathBuf;
use std::process::exit;

use underradar_bench::cli::{render_trace, OutputMode, OutputSpec};
use underradar_bench::experiments::campaign::{paper_campaign, safety_audit, synthetic_campaign};
use underradar_bench::runner::StageClock;
use underradar_campaign::spec::CampaignSpec;
use underradar_runner::{
    run_service, JsonlSink, NullSink, ProgressConfig, RowSink, RunConfig, RunProfile,
    ServiceOutcome, VecSink,
};
use underradar_telemetry::{trace, Telemetry, TraceRecord, DEFAULT_TRACE_CAPACITY};

/// Everything the command line asks for beyond the output mode (which
/// [`OutputSpec`] resolves from the same arguments).
#[derive(Default)]
struct Args {
    shards: usize,
    service: bool,
    checkpoint: Option<PathBuf>,
    progress: Option<ProgressConfig>,
    synthetic: Option<usize>,
    impair: bool,
    /// `Some(json)` under `--audit` / `--audit=json`.
    audit: Option<bool>,
    trace_diff: Option<(u64, u64)>,
    profile: bool,
    profile_json: Option<String>,
}

/// Parse `raw` as a number, naming `flag` in the error.
fn number<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got '{raw}'"))
}

/// Parse every argument; later occurrences of a flag win. Total: any
/// malformed value, missing value or unknown flag is an `Err` naming it.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        // The flag's value: inline `--flag=value`, else the next argument
        // unless that is itself a flag.
        let value = |it: &mut std::slice::Iter<String>| {
            inline.clone().or_else(|| {
                if it.as_slice().first()?.starts_with("--") {
                    return None;
                }
                it.next().cloned()
            })
        };
        match flag {
            "--json" | "--jsonl" | "--telemetry" | "--trace" | "--impair" | "--service"
            | "--profile"
                if inline.is_some() =>
            {
                return Err(format!("{flag} takes no value"));
            }
            "--json" | "--jsonl" | "--telemetry" | "--trace" => {}
            "--impair" => args.impair = true,
            "--service" => args.service = true,
            "--profile" => args.profile = true,
            "--shards" => args.shards = number(flag, value(&mut it).as_ref())?,
            "--synthetic" => args.synthetic = Some(number(flag, value(&mut it).as_ref())?),
            "--trace-capacity" => {
                let raw = value(&mut it);
                if trace::capacity_from_env(raw.clone()).is_none() {
                    return Err(format!(
                        "--trace-capacity needs a positive integer, got '{}'",
                        raw.unwrap_or_default()
                    ));
                }
            }
            "--checkpoint" => {
                let path = value(&mut it).ok_or("--checkpoint needs a path")?;
                args.checkpoint = Some(PathBuf::from(path));
            }
            "--profile-json" => {
                args.profile_json = Some(value(&mut it).ok_or("--profile-json needs a path")?);
            }
            "--audit" => {
                args.audit = match inline.as_deref() {
                    None => Some(false),
                    Some("json") => Some(true),
                    Some(other) => return Err(format!("--audit takes only =json, got '{other}'")),
                }
            }
            "--progress" => {
                let mut progress = ProgressConfig::default();
                if inline.is_some() {
                    progress.every_trials = number("--progress", inline.as_ref())?;
                }
                args.progress = Some(progress);
            }
            "--trace-diff" if inline.is_none() => {
                let a = number("--trace-diff A", it.next())?;
                let b = number("--trace-diff B", it.next())?;
                args.trace_diff = Some((a, b));
            }
            _ => return Err(format!("unknown argument '{arg}'")),
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

/// `--profile-json PATH`: the run profile and stage timings as sorted-key
/// JSON.
fn write_profile_json(path: &str, clock: &StageClock, p: &RunProfile) {
    let join = |v: &[u64]| {
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = format!(
        "{{\"service\":{{\"prepare_ms\":{},\"retries_seen\":{},\"snapshots\":{},\"steals\":{},\
         \"wall_ms\":{},\"worker_attempts\":[{}],\"worker_busy_ns\":[{}],\
         \"worker_wait_ns\":[{}]}}",
        p.prepare_ms,
        p.retries_seen,
        p.snapshots,
        p.steals,
        p.wall_ms,
        join(&p.worker_attempts),
        join(&p.worker_busy_ns),
        join(&p.worker_wait_ns)
    );
    out.push_str(",\"stages\":{");
    for (i, (stage, total, calls)) in clock.rows().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{stage}\":{{\"calls\":{calls},\"ns\":{}}}",
            total.as_nanos()
        ));
    }
    out.push_str("}}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("--profile-json {path}: {e}");
        exit(1);
    }
}

/// One campaign run: the spec, the service config, and the clock every
/// mode times its stages on.
struct Campaign {
    spec: CampaignSpec,
    cfg: RunConfig,
    service: bool,
    clock: StageClock,
}

impl Campaign {
    /// Run the campaign under `tel`, handing each completed trial to
    /// `sink`. A journal failure exits with status 1.
    fn run(&self, tel: &Telemetry, sink: &mut dyn RowSink) -> ServiceOutcome {
        let outcome = self
            .clock
            .time("run", || run_service(&self.spec, &self.cfg, tel, sink))
            .unwrap_or_else(|e| {
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

    /// Print the output `mode` asks for; returns the run profile.
    fn print(&self, mode: OutputMode, trace_capacity: usize) -> RunProfile {
        let clock = &self.clock;
        match mode {
            OutputMode::Text => {
                let outcome = self.run(&Telemetry::disabled(), &mut NullSink);
                print!("{}", clock.time("score", || outcome.report.render_text()));
                outcome.profile
            }
            OutputMode::TextWithTelemetry => {
                let tel = Telemetry::enabled();
                let outcome = self.run(&tel, &mut NullSink);
                print!("{}", outcome.report.render_text());
                println!("--- telemetry ---");
                print!("{}", clock.time("score", || tel.snapshot().render_text()));
                outcome.profile
            }
            OutputMode::Json => {
                let tel = Telemetry::enabled();
                let mut sink = VecSink::new();
                let outcome = self.run(&tel, &mut sink);
                println!(
                    "{{\"experiment\":\"campaign\",\"report\":{},\"telemetry\":{}}}",
                    outcome.report.to_json(&sink.into_sorted()),
                    clock.time("score", || tel.snapshot().to_json())
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
                let out = clock.time("score", || {
                    sink.into_sorted()
                        .iter()
                        .map(|t| t.to_json_row() + "\n")
                        .collect::<String>()
                });
                print!("{out}");
                outcome.profile
            }
            OutputMode::Trace => {
                let tel = Telemetry::with_trace(trace_capacity);
                let outcome = self.run(&tel, &mut NullSink);
                let out = clock.time("score", || {
                    render_trace(&outcome.report.render_text(), &tel.snapshot())
                });
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
        let audit = self.clock.time("score", || {
            let audit = safety_audit(&outcome.report.cells(), &tel.snapshot());
            match json {
                true => audit.render_json() + "\n",
                false => audit.render_text(),
            }
        });
        print!("{audit}");
        outcome.profile
    }

    /// `--trace-diff A B`: print the first divergent stage decision
    /// between two trials' trace segments. An index with no segment exits
    /// with status 2.
    fn trace_diff(&self, a: u64, b: u64, trace_capacity: usize) -> RunProfile {
        let tel = Telemetry::with_trace(trace_capacity);
        let outcome = self.run(&tel, &mut NullSink);
        let snap = tel.snapshot();
        let decisions = |index| {
            trial_decisions(&snap.trace, index).unwrap_or_else(|| {
                eprintln!(
                    "exp_campaign: --trace-diff: trial {index} not found in the campaign trace"
                );
                exit(2);
            })
        };
        let (left, right) = (decisions(a), decisions(b));
        println!("trace diff: trial {a} (a) vs trial {b} (b)");
        print!(
            "{}",
            trace::render_diff(trace::diff(&left, &right).as_ref())
        );
        outcome.profile
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("exp_campaign: {e}");
        exit(2);
    });
    let out_spec = OutputSpec::from_cli(argv);
    let trace_capacity = out_spec
        .trace_capacity_value()
        .unwrap_or(DEFAULT_TRACE_CAPACITY);
    let clock = StageClock::default();
    let mut spec = clock.time("prepare", || match args.synthetic {
        Some(n) => synthetic_campaign(n),
        None => paper_campaign(4),
    });
    spec = spec.trace_capacity(out_spec.trace_capacity_value());
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
        clock,
    };
    let profile = match (args.trace_diff, args.audit) {
        (Some((a, b)), _) => campaign.trace_diff(a, b, trace_capacity),
        (None, Some(json)) => campaign.audit(json),
        (None, None) => campaign.print(out_spec.mode(), trace_capacity),
    };
    if let Some(path) = args.profile_json {
        write_profile_json(&path, &campaign.clock, &profile);
    }
    if args.profile {
        eprint!("--- profile ---\n{}", campaign.clock.render());
    }
}
