//! `underbench`: end-to-end throughput of the underradar campaign service
//! and population-scale monitor, with a per-layer trial cost ledger.
//!
//! One run of one workload:
//!
//! ```text
//! underbench --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]
//! ```
//!
//! prints a JSON line per metric, an `output_digest` line, and last the
//! result line `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, from one traced pass.
//!
//! The suite, every workload in fresh child processes of this binary:
//!
//! ```text
//! underbench [--seed N] [--seconds S] [--out PATH]
//! ```
//!
//! runs each workload `RUNS` times untraced and once traced, and prints
//! each end-to-end metric's median and quartiles over the runs.
//!
//! `--out PATH` appends every raw sample and digest of each run to
//! `PATH` as JSON lines, so runs of two commits can be paired later.
//! See README.md for the workloads, the metrics and the layers.

mod alloc;
mod campaign;
mod json;
mod monitor;
mod redrive;
mod report;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use report::{median, quantile, Report};
use workloads::{Size, NAMES, WORKERS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed a bare `underbench` uses.
const DEFAULT_SEED: u64 = 2015;
/// Untraced runs per workload in the suite.
const RUNS: usize = 5;
/// Seconds each suite run measures: one pass over each workload's matrix.
const SUITE_SECONDS: f64 = 1.0;

/// Set-ups timed per untraced run; `setup_s` is their median. The first
/// few run cold (fresh pages, empty caches), the rest warm.
pub const SETUP_REPS: usize = 21;

/// Whether a run starts another round: always until `min` rounds are
/// done, then only if a round as long as the `last` one would still end
/// within `seconds` of `start`.
pub fn another_round(start: Instant, seconds: f64, done: usize, min: usize, last: f64) -> bool {
    done < min || start.elapsed().as_secs_f64() + last <= seconds
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, &str); 3] = [
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A workload that
/// bypasses a layer reports 0 for that layer's metrics, with n = 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.prepare_ms", "ms"),
    ("campaign.attempt_us.p50", "us"),
    ("campaign.attempt_us.p99", "us"),
    ("campaign.attempts_per_trial", "count"),
    ("core.instantiate_us.p50", "us"),
    ("core.instantiate_us.p99", "us"),
    ("core.instantiate_share", "fraction"),
    ("core.score_us.p50", "us"),
    ("core.score_us.p99", "us"),
    ("core.teardown_us.p50", "us"),
    ("core.teardown_us.p99", "us"),
    ("netsim.run_us.p50", "us"),
    ("netsim.run_us.p99", "us"),
    ("netsim.run_share", "fraction"),
    ("telemetry.export_us.p50", "us"),
    ("telemetry.export_us.p99", "us"),
    ("telemetry.scope_merge_us.p50", "us"),
    ("telemetry.scope_merge_us.p99", "us"),
    ("telemetry.merger_absorb_us.p50", "us"),
    ("telemetry.merger_absorb_us.p99", "us"),
    ("telemetry.merger_finish_ms", "ms"),
    ("surveil.audit_ms", "ms"),
    ("runner.journal_append_us.p50", "us"),
    ("runner.journal_append_us.p99", "us"),
    ("runner.row_us.p50", "us"),
    ("runner.row_us.p99", "us"),
    ("campaign.report_absorb_us.p50", "us"),
    ("campaign.report_absorb_us.p99", "us"),
    ("runner.journal_bytes_per_trial", "bytes"),
    ("runner.busy_frac", "fraction"),
    ("runner.steals", "count"),
    ("runner.speedup", "x"),
    ("alloc.allocs_per_trial", "count"),
    ("alloc.bytes_per_trial", "bytes"),
    ("netsim.events_per_trial", "count"),
    ("ids.packets_per_trial", "count"),
    ("ids.evaluations_per_trial", "count"),
    ("censor.observed_per_trial", "count"),
    ("censor.actions_per_trial", "count"),
    ("surveil.observed_per_trial", "count"),
    ("surveil.retained_frac", "fraction"),
    ("telemetry.delta_keys_per_trial", "count"),
    ("telemetry.delta_bytes_per_trial", "bytes"),
    ("ids.engine_build_ms", "ms"),
    ("ids.handshake_ns_per_pkt", "ns"),
    ("ids.data_ns_per_pkt", "ns"),
    ("ids.population_ns_per_pkt", "ns"),
    ("ids.batch_len_p50", "packets"),
    ("ids.evaluations_per_pkt", "count"),
    ("ids.allocs_per_pkt", "count"),
    ("ids.bytes_per_flow", "bytes"),
    ("ids.pkts_per_s", "packets/s"),
    ("campaign.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {NAMES:?}"));
                }
                parsed.workload = Some(w);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Scratch space inside the working directory: journals, row files and
/// span logs never leave it.
fn work_dir() -> PathBuf {
    Path::new("target").join("underbench")
}

/// Run one workload once and return its report.
pub fn run_one(name: &str, seed: u64, seconds: f64, trace: bool, size: Size, dir: &Path) -> Report {
    let tmp = dir.join(format!("tmp-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the scratch directory");
    let mut report = Report::new(
        NAMES
            .iter()
            .copied()
            .find(|n| *n == name)
            .expect("a known workload"),
    );
    match workloads::campaign(name, seed, size) {
        Some(load) if trace => {
            let trace_path = dir.join(format!("{name}-{seed}.trace.jsonl"));
            trace::run(&load, &tmp, &trace_path, &mut report);
        }
        Some(load) => campaign::run(&load, seconds, &tmp, &mut report),
        None => {
            let load = workloads::monitor(seed, size);
            if trace {
                monitor::traced(&load, seconds, &mut report);
            } else {
                monitor::run(&load, seconds, &mut report);
            }
        }
    }
    if trace {
        report.fill_bypassed(PER_LAYER);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    report
}

fn append_out(path: &Path, line: &str) {
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!("underbench: --out {}: {e}", path.display());
    }
}

/// What a child run printed: its digest line and its result line.
struct ChildRun {
    lines: Vec<String>,
    digest: String,
    result: Json,
}

fn child(
    exe: &Path,
    name: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = lines.pop().ok_or("no output")?;
    let digest_line = lines.pop().ok_or("no digest line")?;
    let digest = json::parse(&digest_line)?
        .get("output_digest")
        .and_then(Json::as_str)
        .ok_or("no output_digest")?
        .to_string();
    Ok(ChildRun {
        lines,
        digest,
        result: json::parse(&result)?,
    })
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Every workload `RUNS` times untraced and once traced, each run in a
/// fresh child process. Returns whether every check passed.
fn suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(SUITE_SECONDS);
    println!(
        "{{\"suite\":\"underbench\",\"seed\":{},\"runs\":{RUNS},\"workers\":{WORKERS},\"available_parallelism\":{}}}",
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut all_ok = true;
    for name in NAMES {
        let mut runs = Vec::new();
        for _ in 0..RUNS {
            runs.push(child(&exe, name, args, seconds, false).map_err(|e| format!("{name}: {e}"))?);
        }
        let traced = child(&exe, name, args, seconds, true).map_err(|e| format!("{name}: {e}"))?;

        let mut attempted = 0;
        let mut failed = 0;
        for r in runs.iter().chain(std::iter::once(&traced)) {
            attempted += count(&r.result, "attempted");
            failed += count(&r.result, "failed");
        }
        for (metric, unit) in END_TO_END {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.result.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .collect();
            print_line(name, metric, unit, &samples);
        }
        // Report, rows and registry agree across the untraced runs and
        // with the traced one-worker run.
        let digests_agree = runs.iter().all(|r| r.digest == traced.digest);
        if !digests_agree {
            eprintln!("underbench: {name}: output digests differ across runs");
            failed = attempted;
        }
        print_line(
            name,
            "failed_frac",
            "fraction",
            &[failed as f64 / attempted.max(1) as f64],
        );
        println!(
            "{{\"workload\":{},\"output_digest\":{},\"runs_agree\":{digests_agree}}}",
            json::quote(name),
            json::quote(&traced.digest)
        );
        for line in &traced.lines {
            println!("{line}");
        }
        all_ok &= failed == 0;
    }
    Ok(all_ok)
}

fn print_line(workload: &str, metric: &str, unit: &str, samples: &[f64]) {
    println!(
        "{{\"workload\":{},\"metric\":{},\"unit\":{},\"median\":{},\"p25\":{},\"p75\":{},\"n\":{}}}",
        json::quote(workload),
        json::quote(metric),
        json::quote(unit),
        json::num(median(samples)),
        json::num(quantile(samples, 0.25)),
        json::num(quantile(samples, 0.75)),
        samples.len()
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("underbench: {e}");
            eprintln!(
                "usage: underbench [--workload NAME --seconds S --trace 0|1] [--seed N] [--out PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return match suite(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("underbench: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let dir = work_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("underbench: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let report = run_one(
        name,
        args.seed,
        args.seconds.unwrap_or(SUITE_SECONDS),
        args.trace,
        Size::Full,
        &dir,
    );
    if let Some(out) = &args.out {
        append_out(out, &report.raw_line(args.seed, args.trace));
    }
    report.print();
    ExitCode::SUCCESS
}
