#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-campaign
//!
//! The **campaign engine** for running measurement studies at scale: a
//! declarative [`CampaignSpec`] (targets × methods × censor policies ×
//! trial seeds) expands into a work matrix; [`engine`] caches built
//! testbed templates per policy and runs each trial, retrying
//! `Inconclusive` trials with bounded backoff in *simulated* time;
//! [`StreamReport`] aggregates per-method accuracy/risk matrices in any
//! absorb order; [`steal`] is the work-stealing scheduler. Multi-trial
//! campaigns run through one executor, `underradar_runner::run_service`,
//! which adds streaming rows, merged telemetry and a checkpoint journal.
//!
//! Every measurement method from the paper ("Can Censorship Measurements
//! Be Safe(r)?", Jones & Feamster, HotNets 2015) is driven through the
//! unified [`underradar_core::probe::Probe`] trait, so the engine never
//! needs method-specific verdict plumbing — only method-specific setup.
//!
//! Determinism contract: a trial's result and telemetry are a pure
//! function of the spec and the trial index. Trial seeds are derived from
//! `(master_seed, trial index)` alone, never from scheduling order, so a
//! report is byte-identical regardless of the worker count.
//!
//! ```
//! use underradar_campaign::engine::{self, ScopeConfig};
//! use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy, StreamReport};
//! use underradar_censor::CensorPolicy;
//!
//! let spec = CampaignSpec::new("doc", 7)
//!     .target("twitter.com")
//!     .method(MethodKind::Scan)
//!     .policy(NamedPolicy::new("control", CensorPolicy::new()))
//!     .run_secs(30);
//! let preps = engine::prepare(&spec);
//! let cfg = ScopeConfig::of(&underradar_telemetry::Telemetry::disabled());
//! let mut report = StreamReport::new(&spec.name);
//! for trial in spec.expand() {
//!     let (result, _registry) = engine::run_trial(&spec, &preps[trial.policy_idx], &trial, cfg);
//!     report.absorb(&result);
//! }
//! assert_eq!(report.trial_count(), 1);
//! ```

pub mod engine;
pub mod report;
pub mod seed;
pub mod spec;
pub mod steal;

pub use report::{CellStat, StreamReport, TrialResult};
pub use spec::{
    AddressPlanOverrun, CampaignSpec, InvalidTarget, MethodKind, NamedPolicy, RetryPolicy,
    SpecError, Trial,
};
