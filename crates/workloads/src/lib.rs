#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-workloads
//!
//! Synthetic traffic and log generators that stand in for the real-world
//! data sources the paper leans on:
//!
//! * [`zipf`] — a Zipf rank sampler (domain popularity is Zipfian; the
//!   blocked domains live in the unpopular tail).
//! * [`population`] — background "population" traffic for an access
//!   network: web browsing, DNS lookups, mail, P2P bulk transfer, and the
//!   constant Internet-wide scanning noise Durumeric et al. measured
//!   (10.8 M scans from 1.76 M hosts against a 5.5 M-address darknet in
//!   one month). The MVR's job is to cut this down; the measurements hide
//!   in it.
//! * [`syria`] — a synthetic censorship-log generator calibrated to the
//!   Chaabane et al. Syria statistic the paper's §2.2 argument uses:
//!   ≈1.57 % of the population accessed at least one censored site over
//!   two days — "far too many people for the surveillance system to
//!   pursue".

pub mod population;
pub mod syria;
pub mod targets;
pub mod zipf;

pub use population::{PopulationConfig, PopulationTraffic, TimedPacket};
pub use syria::{SyriaLog, SyriaLogEntry};
pub use zipf::Zipf;
