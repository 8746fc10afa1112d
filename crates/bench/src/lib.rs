#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation, plus hand-rolled performance benches over the
//! substrate (`benches/perf.rs`; no external bench framework).
//!
//! Each experiment is a pure function `run_with(&Telemetry) -> Outcome`
//! (deterministic in its internal seeds), listed once in
//! [`experiments::ALL`]. An [`experiments::Outcome`] is the report plus
//! the experiment's named claims; the report's `result:` line, the exit
//! status of `underradar experiments` and the root `experiment_claims`
//! test all read those claims. The `underradar` binary is the only entry point:
//! [`cli`] holds its one total argv parser and the `experiments` and
//! `campaign` subcommands. `experiments` dispatches only through that
//! table, and [`cli::run_experiments`] fans rows across threads with
//! `underradar_campaign::steal::run_chunked`; determinism is preserved
//! because each experiment seeds its own RNGs. Campaign-backed
//! experiments run their matrices through the one campaign executor,
//! `underradar_runner::run_service`
//! ([`experiments::campaign::run_campaign`]), and its `RunProfile` is the
//! run timer that `campaign --profile-json` writes. The experiment ↔
//! paper mapping lives in `DESIGN.md` §4 and `EXPERIMENTS.md`.

pub mod cli;
pub mod experiments;
pub mod table;

pub use table::Table;
