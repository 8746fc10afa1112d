#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-surveil
//!
//! The surveillance-system model from §2 of the paper: a **user-focused**,
//! storage-constrained, two-stage pipeline, in contrast to the
//! transaction-focused censor.
//!
//! Stage 1 — [`mvr::Mvr`], *Massive Volume Reduction*: traffic classifiers
//! ([`classify`]) sort packets into behavioural classes (scan, spam, DDoS
//! source, P2P, web, ...), and whole classes that "do not stand out from
//! the population" or have no intelligence value are discarded before
//! analysis — the NSA threw away all peer-to-peer traffic and could retain
//! only 7.5 % of what it saw (§2.1). The measurement techniques of §3 are
//! designed to land in exactly the discarded classes.
//!
//! Stage 2 — a signature engine over *retained* traffic feeding an
//! [`analyst::Analyst`]: alerts are stored (1 year, like the campus IDS),
//! flow metadata is stored (30 days), content briefly (3 days),
//! and a capacity-limited analyst attributes and pursues the most
//! suspicious users. Attribution of the measurement client is the "risk"
//! every experiment measures.

pub mod analyst;
pub mod classify;
pub mod exposure;
pub mod mvr;
pub mod store;
pub mod system;

pub use analyst::{Analyst, AnalystConfig, Investigation};
pub use classify::{Classifier, TrafficClass};
pub use exposure::{DeclaredCell, ExposureEventKind, ExposureLedger, HostExposure, SafetyAudit};
pub use mvr::{Mvr, MvrDecision};
pub use store::{ContentRecord, FlowRecord, RetentionStore};
pub use system::{SurveillanceConfig, SurveillanceNode, SurveillanceSystem};
