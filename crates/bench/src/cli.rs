//! The `underradar` command line: one total argv parser shared by every
//! subcommand, the output modes, and the `experiments` and `campaign`
//! subcommands.
//!
//! [`ArgParser`] is the only argv parser. It is total: a malformed value,
//! a missing value or an unknown flag is an `Err` naming the flag, which
//! the binary prints as one stderr line before exiting with status 2,
//! with nothing on stdout and nothing run.
//!
//! `underradar experiments <id|all>` runs rows of [`experiments::ALL`],
//! named by table name (`e02_scan`) or short id (`e2`). Output modes,
//! shared with `campaign`:
//!
//! * default — print the plain-text report;
//! * `--json` — run with telemetry enabled and print one JSON object
//!   `{"experiment": .., "report": .., "telemetry": <registry>}` suitable
//!   for piping into analysis tooling;
//! * `--jsonl` — stream one JSON object per row: generic experiments emit
//!   a row per report line plus a trailing telemetry row; `campaign`
//!   emits true per-trial verdict rows;
//! * `--telemetry` — print the report followed by the registry's text
//!   rendering;
//! * `--trace` — run with the flight recorder live and print the report,
//!   then the trace as JSON lines, then the explainer's causal chains. The
//!   report section is byte-identical to the default mode's output;
//! * `--trace-capacity N` — size the flight-recorder ring for traced runs
//!   (default 4096 records; `N` must be a positive integer). The knob only
//!   tunes the ring: it never turns tracing on by itself.
//!
//! The flags are the only input: no environment variable changes what a
//! subcommand prints.
//!
//! `all` runs every row, fanned across threads, and prints each row's
//! output in table order. Every report is printed first; the command then
//! exits 1 if any experiment's claim failed, and 0 if all held.

use std::process::ExitCode;
use std::str::FromStr;

use underradar_campaign::steal;
use underradar_telemetry::{json, trace, Telemetry, DEFAULT_TRACE_CAPACITY};

use crate::experiments::{self, Experiment};

mod campaign;

pub use campaign::campaign;

/// A `--name` or `--name=value` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag<'a> {
    /// The flag, dashes included.
    pub name: &'a str,
    /// The value given inline with `=`, if any.
    pub inline: Option<&'a str>,
}

impl Flag<'_> {
    /// Accept a flag that takes no value: `Ok(true)`, or an `Err` if it
    /// was given one inline.
    pub fn switch(&self) -> Result<bool, String> {
        match self.inline {
            None => Ok(true),
            Some(_) => Err(format!("{} takes no value", self.name)),
        }
    }

    /// The error for a flag the subcommand does not know.
    pub fn unknown(&self) -> String {
        match self.inline {
            None => format!("unknown argument '{}'", self.name),
            Some(v) => format!("unknown argument '{}={v}'", self.name),
        }
    }
}

/// One command-line argument as [`ArgParser`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg<'a> {
    /// Anything starting with `--`.
    Flag(Flag<'a>),
    /// Anything else.
    Positional(&'a str),
}

/// The argv parser every subcommand uses. Iterate it for the arguments;
/// when a flag takes a value, [`ArgParser::value`] (or
/// [`ArgParser::number`]) consumes it: the inline `--flag=value`, else
/// the next argument unless that is itself a flag.
pub struct ArgParser<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> ArgParser<'a> {
    /// A parser over `argv` (the subcommand's arguments).
    pub fn new(argv: &'a [String]) -> ArgParser<'a> {
        ArgParser { rest: argv.iter() }
    }

    /// `flag`'s value; an `Err` naming the flag if it has none.
    pub fn value(&mut self, flag: &Flag<'a>) -> Result<&'a str, String> {
        flag.inline
            .or_else(|| {
                if self.rest.as_slice().first()?.starts_with("--") {
                    return None;
                }
                self.rest.next().map(String::as_str)
            })
            .ok_or_else(|| format!("{} needs a value", flag.name))
    }

    /// `flag`'s value as a non-negative integer.
    pub fn number<T: FromStr>(&mut self, flag: &Flag<'a>) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{} needs a non-negative integer, got '{raw}'", flag.name))
    }
}

impl<'a> Iterator for ArgParser<'a> {
    type Item = Arg<'a>;

    fn next(&mut self) -> Option<Arg<'a>> {
        let arg = self.rest.next()?;
        if !arg.starts_with("--") {
            return Some(Arg::Positional(arg));
        }
        Some(Arg::Flag(match arg.split_once('=') {
            Some((name, value)) => Flag {
                name,
                inline: Some(value),
            },
            None => Flag {
                name: arg,
                inline: None,
            },
        }))
    }
}

/// How a subcommand was asked to present its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Plain-text report only.
    Text,
    /// Report plus a text rendering of the telemetry registry.
    TextWithTelemetry,
    /// One JSON object carrying the report and the registry.
    Json,
    /// One JSON object per row, streamed as rows complete. `campaign`
    /// emits true per-trial rows (`campaign --service --jsonl` streams
    /// them the moment each trial finishes); generic experiments emit one
    /// row per report line plus a trailing telemetry row.
    Jsonl,
    /// Report plus the flight-recorder trace (JSON lines) and the
    /// explainer's per-trial causal chains.
    Trace,
}

/// Typed accumulation of the output flags. Each `--json` / `--jsonl` /
/// `--telemetry` / `--trace` occurrence sets an independent bit;
/// [`OutputSpec::mode`] resolves any combination with one precedence
/// order — trace ≻ jsonl ≻ json ≻ telemetry ≻ text — so flag order never
/// matters and every combination is defined. A trace
/// subsumes the registry, and the JSON envelopes deliberately exclude
/// trace records, which is why trace outranks everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutputSpec {
    json: bool,
    jsonl: bool,
    telemetry: bool,
    trace: bool,
    trace_capacity: Option<usize>,
}

impl OutputSpec {
    /// A spec with no flags set (plain-text report).
    pub fn new() -> OutputSpec {
        OutputSpec::default()
    }

    /// Request the `--json` envelope.
    pub fn json(mut self, on: bool) -> OutputSpec {
        self.json = on;
        self
    }

    /// Request the `--jsonl` row stream.
    pub fn jsonl(mut self, on: bool) -> OutputSpec {
        self.jsonl = on;
        self
    }

    /// Request the `--telemetry` text appendix.
    pub fn telemetry(mut self, on: bool) -> OutputSpec {
        self.telemetry = on;
        self
    }

    /// Request the `--trace` flight-recorder dump.
    pub fn trace(mut self, on: bool) -> OutputSpec {
        self.trace = on;
        self
    }

    /// The configured ring capacity override, if any.
    pub fn trace_capacity_value(self) -> Option<usize> {
        self.trace_capacity
    }

    /// Apply `flag` if it is an output flag, consuming its value from
    /// `args`. `Ok(false)` means `flag` is not an output flag; a malformed
    /// output flag is an `Err` naming it.
    pub fn take<'a>(&mut self, flag: &Flag<'a>, args: &mut ArgParser<'a>) -> Result<bool, String> {
        match flag.name {
            "--json" => self.json = flag.switch()?,
            "--jsonl" => self.jsonl = flag.switch()?,
            "--telemetry" => self.telemetry = flag.switch()?,
            "--trace" => self.trace = flag.switch()?,
            "--trace-capacity" => {
                let raw = args.value(flag)?;
                let capacity = raw.trim().parse::<usize>().ok().filter(|&c| c > 0);
                self.trace_capacity = Some(capacity.ok_or_else(|| {
                    format!("--trace-capacity needs a positive integer, got '{raw}'")
                })?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve the accumulated flags into one output mode.
    pub fn mode(self) -> OutputMode {
        if self.trace {
            OutputMode::Trace
        } else if self.jsonl {
            OutputMode::Jsonl
        } else if self.json {
            OutputMode::Json
        } else if self.telemetry {
            OutputMode::TextWithTelemetry
        } else {
            OutputMode::Text
        }
    }

    /// The flight-recorder ring capacity for traced runs.
    pub fn ring_capacity(self) -> usize {
        self.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY)
    }

    /// The telemetry handle an experiment should run under: disabled for
    /// plain text, trace-carrying for `--trace`, enabled otherwise.
    pub fn telemetry_handle(self) -> Telemetry {
        match self.mode() {
            OutputMode::Text => Telemetry::disabled(),
            OutputMode::Trace => Telemetry::with_trace(self.ring_capacity()),
            _ => Telemetry::enabled(),
        }
    }

    /// Render the complete stdout for this spec — the single place the
    /// mode-to-bytes mapping lives (pinned by the CLI golden test).
    pub fn render(
        self,
        name: &str,
        report: &str,
        registry: &underradar_telemetry::Registry,
    ) -> String {
        match self.mode() {
            OutputMode::Text => report.to_string(),
            OutputMode::TextWithTelemetry => {
                format!("{report}--- telemetry ---\n{}", registry.render_text())
            }
            OutputMode::Json => {
                let mut out = render_json(name, report, registry);
                out.push('\n');
                out
            }
            OutputMode::Jsonl => render_jsonl(name, report, registry),
            OutputMode::Trace => render_trace(report, registry),
        }
    }
}

/// Render the `--json` envelope for one experiment.
pub fn render_json(name: &str, report: &str, registry: &underradar_telemetry::Registry) -> String {
    let mut out = String::from("{");
    json::push_key(&mut out, "experiment");
    json::push_str_value(&mut out, name);
    out.push(',');
    json::push_key(&mut out, "report");
    json::push_str_value(&mut out, report);
    out.push(',');
    json::push_key(&mut out, "telemetry");
    out.push_str(&registry.to_json());
    out.push('}');
    out
}

/// Render the `--jsonl` stream for a generic experiment: one JSON object
/// per report line (self-describing, pipeline-friendly) followed by one
/// telemetry object. `campaign` emits true per-trial rows instead.
pub fn render_jsonl(name: &str, report: &str, registry: &underradar_telemetry::Registry) -> String {
    let mut out = String::new();
    for (i, line) in report.lines().enumerate() {
        out.push('{');
        json::push_key(&mut out, "experiment");
        json::push_str_value(&mut out, name);
        out.push(',');
        json::push_key(&mut out, "line");
        out.push_str(&i.to_string());
        out.push(',');
        json::push_key(&mut out, "text");
        json::push_str_value(&mut out, line);
        out.push_str("}\n");
    }
    out.push('{');
    json::push_key(&mut out, "experiment");
    json::push_str_value(&mut out, name);
    out.push(',');
    json::push_key(&mut out, "telemetry");
    out.push_str(&registry.to_json());
    out.push_str("}\n");
    out
}

/// Render the `--trace` output: the unchanged report, the trace as JSON
/// lines, then the explainer's causal chains.
pub fn render_trace(report: &str, registry: &underradar_telemetry::Registry) -> String {
    let mut out = String::from(report);
    out.push_str("--- trace ---\n");
    out.push_str(&registry.trace_jsonl());
    out.push_str("--- explain ---\n");
    out.push_str(&trace::render_chains(&trace::explain(&registry.trace)));
    out
}

/// Parse `experiments`' arguments: the rows the id names (`all` when no
/// id is given) and the output spec.
fn parse_experiments(argv: &[String]) -> Result<(&'static [Experiment], OutputSpec), String> {
    let mut spec = OutputSpec::new();
    let mut id = None;
    let mut args = ArgParser::new(argv);
    while let Some(arg) = args.next() {
        match arg {
            Arg::Flag(flag) => {
                if !spec.take(&flag, &mut args)? {
                    return Err(flag.unknown());
                }
            }
            Arg::Positional(v) if id.is_none() => id = Some(v),
            Arg::Positional(v) => return Err(format!("unexpected argument '{v}'")),
        }
    }
    let id = id.unwrap_or("all");
    let rows = experiments::select(id).ok_or_else(|| {
        format!(
            "unknown experiment '{id}' (expected {})",
            experiments::id_list()
        )
    })?;
    Ok((rows, spec))
}

/// `underradar experiments <id|all> [output flags]`: run the named rows
/// of [`experiments::ALL`] across one worker per core, print their
/// output, and exit 1 if any claim failed. `Err` is a usage error,
/// reported before anything runs.
pub fn experiments(argv: &[String]) -> Result<ExitCode, String> {
    let (rows, spec) = parse_experiments(argv)?;
    let (stdout, passed) = run_experiments(rows, spec, experiments::workers());
    print!("{stdout}");
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The one experiment runner: run `rows` fanned across `workers` threads,
/// each under its own telemetry handle, and return the stdout `spec` asks
/// for, every row's output in table order, and whether every row's claims
/// all held. Each experiment seeds its own RNGs, so the bytes are the
/// same for any worker count.
pub fn run_experiments(rows: &[Experiment], spec: OutputSpec, workers: usize) -> (String, bool) {
    let (outputs, verdicts): (Vec<String>, Vec<bool>) =
        steal::run_chunked(rows.len(), workers, |i| {
            let (name, run) = rows[i];
            let tel = spec.telemetry_handle();
            let outcome = run(&tel);
            let stdout = spec.render(name, &outcome.report, &tel.snapshot());
            (stdout, outcome.passed())
        })
        .into_iter()
        .unzip();
    (outputs.concat(), verdicts.into_iter().all(|passed| passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<OutputSpec, String> {
        parse_experiments(&args(list)).map(|(_, spec)| spec)
    }

    fn mode_from(list: &[&str]) -> OutputMode {
        parse(list).unwrap().mode()
    }

    #[test]
    fn json_flag_wins() {
        assert_eq!(mode_from(&[]), OutputMode::Text);
        assert_eq!(mode_from(&["--json"]), OutputMode::Json);
        assert_eq!(mode_from(&["--telemetry"]), OutputMode::TextWithTelemetry);
        assert_eq!(mode_from(&["--telemetry", "--json"]), OutputMode::Json);
    }

    #[test]
    fn jsonl_flag_outranks_json_but_not_trace() {
        assert_eq!(mode_from(&["--jsonl"]), OutputMode::Jsonl);
        assert_eq!(mode_from(&["--json", "--jsonl"]), OutputMode::Jsonl);
        assert_eq!(mode_from(&["--jsonl", "--json"]), OutputMode::Jsonl);
        assert_eq!(mode_from(&["--jsonl", "--trace"]), OutputMode::Trace);
        assert_eq!(mode_from(&["--trace", "--jsonl"]), OutputMode::Trace);
    }

    #[test]
    fn trace_capacity_flag_tunes_the_ring() {
        let spec = parse(&["--trace", "--trace-capacity", "128"]).unwrap();
        assert_eq!(spec.trace_capacity_value(), Some(128));
        assert_eq!(spec.mode(), OutputMode::Trace);
        let eq = parse(&["--trace", "--trace-capacity=64"]).unwrap();
        assert_eq!(eq.trace_capacity_value(), Some(64));
        // Capacity alone never turns tracing on.
        let plain = parse(&["--trace-capacity", "64"]).unwrap();
        assert_eq!(plain.mode(), OutputMode::Text);
        assert_eq!(plain.trace_capacity_value(), Some(64));
        // The last occurrence wins; surrounding blanks are trimmed.
        let twice = parse(&["--trace-capacity", "32", "--trace-capacity= 16 "]).unwrap();
        assert_eq!(twice.trace_capacity_value(), Some(16));
        // Anything but a positive integer is an error naming the flag.
        for bad in ["0", "abc", "", "-1"] {
            let err = parse(&[&format!("--trace-capacity={bad}")]).unwrap_err();
            assert!(err.starts_with("--trace-capacity"), "{err}");
        }
    }

    #[test]
    fn no_id_means_every_row() {
        let (rows, _) = parse_experiments(&args(&["--json"])).unwrap();
        assert_eq!(rows.len(), experiments::ALL.len());
    }

    #[test]
    fn jsonl_rendering_is_one_object_per_line_plus_telemetry() {
        let tel = Telemetry::enabled();
        tel.count("x", 2);
        let out = render_jsonl("e00", "alpha\nbeta \"q\"\n", &tel.snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"experiment\":\"e00\",\"line\":0,\"text\":\"alpha\"}"
        );
        assert_eq!(
            lines[1],
            "{\"experiment\":\"e00\",\"line\":1,\"text\":\"beta \\\"q\\\"\"}"
        );
        assert!(lines[2].starts_with("{\"experiment\":\"e00\",\"telemetry\":{"));
        assert!(lines[2].contains("\"counters\":{\"x\":2}"));
    }

    #[test]
    fn trace_flag_outranks_other_modes() {
        assert_eq!(mode_from(&["--trace"]), OutputMode::Trace);
        assert_eq!(mode_from(&["--trace", "--json"]), OutputMode::Trace);
        assert_eq!(mode_from(&["--json", "--trace"]), OutputMode::Trace);
    }

    #[test]
    fn trace_rendering_starts_with_the_unchanged_report() {
        let tel = Telemetry::with_trace(8);
        tel.tracer().record(underradar_telemetry::TraceRecord {
            t_ns: 5,
            seq: 0,
            stage: "stream",
            kind: "ooo_held",
            flow: None,
            fields: vec![],
        });
        let out = render_trace("report line\n", &tel.snapshot());
        assert!(out.starts_with("report line\n--- trace ---\n"));
        assert!(out.contains("{\"kind\":\"ooo_held\""));
        assert!(out.contains("--- explain ---\n"));
        assert!(out.contains("because=stream.ooo_held@t=5ns"));
    }

    fn stub(tel: &Telemetry, second_holds: bool) -> experiments::Outcome {
        tel.count("stub.runs", 1);
        let mut claims = experiments::Claims::default();
        claims.check("first", true);
        claims.check("second", second_holds);
        claims.conclude("stub report\nsecond line\n".to_string(), "stub")
    }

    fn holding_stub(tel: &Telemetry) -> experiments::Outcome {
        stub(tel, true)
    }

    fn failing_stub(tel: &Telemetry) -> experiments::Outcome {
        stub(tel, false)
    }

    #[test]
    fn a_failing_claim_fails_the_run_and_its_report_still_renders_in_every_mode() {
        let holding: Experiment = ("e00_holds", holding_stub);
        let failing: Experiment = ("e00_fails", failing_stub);
        let modes = [
            OutputSpec::new(),
            OutputSpec::new().telemetry(true),
            OutputSpec::new().json(true),
            OutputSpec::new().jsonl(true),
            OutputSpec::new().trace(true),
        ];
        for spec in modes {
            assert!(run_experiments(&[holding], spec, 1).1, "{:?}", spec.mode());
            let (stdout, passed) = run_experiments(&[holding, failing], spec, 2);
            assert!(!passed, "{:?}", spec.mode());
            let tel = spec.telemetry_handle();
            let outcome = failing_stub(&tel);
            assert_eq!(outcome.failed(), ["second"]);
            let report = outcome.report;
            assert!(report.ends_with("\nresult: stub: FAILED\n\n"), "{report}");
            let want = spec.render("e00_fails", &report, &tel.snapshot());
            assert!(stdout.ends_with(&want), "{:?}: {stdout}", spec.mode());
        }
    }

    #[test]
    fn json_envelope_escapes_the_report() {
        let tel = Telemetry::enabled();
        tel.count("x", 1);
        let out = render_json("e00", "line1\nline2\t\"q\"", &tel.snapshot());
        assert!(out.starts_with("{\"experiment\":\"e00\",\"report\":\"line1\\nline2"));
        assert!(out.contains("\\\"q\\\""));
        assert!(out.contains("\"telemetry\":{\"counters\":{\"x\":1}"));
        assert!(out.ends_with('}'));
    }
}
