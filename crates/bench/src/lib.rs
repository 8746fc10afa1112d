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
//! Each experiment is a pure function `run() -> String` (deterministic in
//! its internal seeds) with a thin binary wrapper in `src/bin/` and a
//! consolidated `cargo bench` harness (`benches/experiments.rs`) that
//! prints all of them. [`experiments::run_all`] fans the experiments
//! across threads with `underradar_campaign::steal::run_chunked`;
//! determinism is preserved because each experiment seeds its own RNGs.
//! Campaign-backed experiments run their matrices through the one
//! campaign executor, `underradar_runner::run_service`
//! ([`experiments::campaign::run_campaign`]); [`runner::StageClock`]
//! times stages for the stderr profile footers. The experiment ↔ paper
//! mapping lives in `DESIGN.md` §4 and `EXPERIMENTS.md`.

pub mod cli;
pub mod experiments;
pub mod runner;
pub mod table;
pub mod telemetry;

pub use table::Table;
