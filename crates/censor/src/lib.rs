#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-censor
//!
//! Censorship-system models, built on the Snort-like engine in
//! `underradar-ids` exactly as §3.2.1 of the paper describes ("we created
//! Snort rules to mimic known censorship mechanisms").
//!
//! The crate provides the blocking mechanisms the paper measures:
//!
//! * **Keyword RST injection** ([`tap::TapCensor`]) — the Great Firewall's
//!   signature move: an off-path observer that injects RSTs at both
//!   endpoints when a blocked keyword crosses the wire (Clayton et al.,
//!   cited as \[10\] in the paper).
//! * **DNS injection** ([`dns::DnsInjector`], wired into the tap censor) —
//!   forged A answers for blocked names, for **both A and MX queries**
//!   (the paper validated exactly this against twitter.com and youtube.com
//!   from a vantage point in China, §3.2.3).
//! * **IP/port blackholing and HTTP URL filtering**
//!   ([`inline::InlineCensor`]) — an in-path filtering element that drops
//!   traffic to blocked addresses/ports and kills requests for blocked
//!   URLs.
//!
//! All mechanisms are configured through one [`policy::CensorPolicy`] —
//! the "transaction-focused" censor the measurement techniques must
//! trigger.

pub mod dns;
pub mod inline;
pub mod policy;
pub mod tap;

pub use dns::DnsInjector;
pub use inline::InlineCensor;
pub use policy::{CensorAction, CensorActionKind, CensorPolicy};
pub use tap::{CompiledPolicy, TapCensor};
