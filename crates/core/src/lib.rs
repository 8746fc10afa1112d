#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-core
//!
//! The paper's contribution: censorship-measurement techniques designed to
//! be hard for a surveillance system to distinguish from innocuous (or
//! already-discarded) traffic, evaluated against reference censorship and
//! surveillance systems in a controlled testbed.
//!
//! ## Measurement methods ([`methods`])
//!
//! | Method | Paper section | Measures | Cover story |
//! |---|---|---|---|
//! | [`methods::overt::OvertProbe`] | baseline (OONI-style) | DNS + HTTP | none — this is what surveillance catches |
//! | [`methods::scan::SynScanProbe`] | §3.1 Method #1 | TCP/IP reachability per port | botnet scanning |
//! | [`methods::spam::SpamProbe`] | §3.1 Method #2 | DNS (MX/A) + IP/SMTP | spam campaign |
//! | [`methods::ddos::DdosProbe`] | §3.1 Method #3 | DNS + IP + HTTP, many samples | one source of a DDoS |
//! | [`methods::stateless::StatelessDnsMimicry`] | §4.1 Fig 3a | DNS / SYN reachability to any destination | every host in the AS |
//! | [`methods::stateful::StatefulMimicry`] | §4.1 Fig 3b | full TCP (keyword censorship) to controlled servers | spoofed flows with TTL-limited replies |
//!
//! ## Supporting pieces
//!
//! * [`probe`] — the unified [`probe::Probe`] trait every method implements:
//!   `label` / `is_finished` / `verdict` / `evidence`, so engines drive all
//!   techniques through one trait-object surface, and
//!   [`probe::ProbeHandle`], which reads a spawned probe back.
//! * [`testbed`] — the Figure-1 reference environment: client, switch with
//!   censor and MVR taps, target services (web/MX/DNS), all on the
//!   deterministic simulator; its template also builds the Fig 3b routed
//!   chain.
//! * [`monitors`] — the monitor set both worlds delegate to: attaching
//!   telemetry and tracers, exporting, and reading the censors' actions.
//! * [`verdict`] — what a measurement concludes (censored / reachable /
//!   inconclusive, with mechanism).
//! * [`risk`] — the safety side: did the surveillance system log, attribute
//!   or pursue the measurement client, and how large is its anonymity set?
//! * [`ports`] — the top-1000 TCP port list the scan method walks.

pub mod methods;
pub mod monitors;
pub mod ports;
pub mod probe;
pub mod risk;
pub mod testbed;
pub mod verdict;

pub use probe::{Evidence, Probe};
pub use risk::RiskReport;
pub use testbed::{TargetSite, Testbed, TestbedConfig, TestbedTemplate};
pub use verdict::{Mechanism, Verdict};
