#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-runner
//!
//! The one executor for multi-trial campaigns: a durable run service
//! wrapping the campaign engine ([`underradar_campaign::engine`]) with
//! shared-cursor scheduling, streaming verdict rows, and a checksummed
//! checkpoint journal with crash recovery and exact resume.
//!
//! The engine makes each trial a pure function of the spec and its index;
//! this crate schedules them and adds **durability** without giving up
//! the resulting determinism. A campaign run through
//! [`service::run_service`]:
//!
//! - hands out the trials in chunks from one shared cursor
//!   ([`underradar_campaign::sched::Cursor`]), so a worker that drew a
//!   straggler cell simply takes fewer chunks;
//! - streams each verdict row to a [`sink::RowSink`] (e.g. JSONL) the
//!   moment its trial completes, with telemetry folded incrementally
//!   through an order-independent [`underradar_telemetry::StreamMerger`],
//!   keeping memory bounded by in-flight work, not campaign size;
//! - appends every decision — completed trial or retry handoff — to a
//!   length-prefixed, CRC-checked [`journal::Journal`], fsync'd on a
//!   configurable cadence; a `kill -9` at any point costs at most the
//!   unsynced tail, and reopening the journal resumes from the exact work
//!   frontier (mid-retry, with backoff budgets intact);
//! - returns a sink or journal error at once: the workers stop instead
//!   of blocking on a full channel.
//!
//! The contract, tested in this crate: the final report and merged
//! telemetry of a resumed run are **byte-identical** to an uninterrupted
//! run — which is itself byte-identical to running every trial in index
//! order on one thread — at any worker count and any interruption point.
//! Without a checkpoint path a run touches no file, so
//! `run_service(spec, &RunConfig::new(workers), tel, sink)` is also the
//! plain in-memory way to run a campaign; a [`VecSink`] keeps the trials.
//!
//! ```
//! use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
//! use underradar_censor::CensorPolicy;
//! # use underradar_runner::{RunConfig, run_service, VecSink};
//!
//! let spec = CampaignSpec::new("doc", 7)
//!     .target("twitter.com")
//!     .method(MethodKind::Scan)
//!     .policy(NamedPolicy::new("control", CensorPolicy::new()))
//!     .run_secs(30);
//! let tel = underradar_telemetry::Telemetry::disabled();
//! let mut sink = VecSink::new();
//! let outcome = run_service(&spec, &RunConfig::new(2), &tel, &mut sink).unwrap();
//! assert_eq!(outcome.report.trial_count(), 1);
//! assert_eq!(sink.into_sorted()[0].index, 0);
//! ```

pub mod codec;
pub mod journal;
pub mod service;
pub mod sink;

pub use journal::{Journal, JournalError, Replay};
pub use service::{run_service, ProgressConfig, RunConfig, RunProfile, ServiceOutcome};
pub use sink::{JsonlSink, NullSink, RowSink, VecSink};
