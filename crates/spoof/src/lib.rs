#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-spoof
//!
//! The IP-spoofing feasibility model behind §4 of the paper.
//!
//! §4.2 rests on Beverly et al.'s measurement: **77 % of clients can spoof
//! other addresses within their own /24, and 11 % within their own /16**,
//! consistently across regions. This crate models:
//!
//! * [`filter`] — ingress source-address validation at configurable
//!   granularity, as a pure predicate on claimed sources.
//! * [`population`] — client populations sampled to match the Beverly
//!   deployment fractions, with spoofability queries.
//! * [`cover`] — cover-source selection (which neighbor addresses a
//!   mimicking client can borrow) and anonymity-set arithmetic: how many
//!   candidate hosts the surveillance system must consider once cover
//!   traffic makes probes "appear to originate from every host on the
//!   network" (§4).

pub mod cover;
pub mod filter;
pub mod population;

pub use cover::{anonymity_set, cover_sources};
pub use filter::FilterGranularity;
pub use population::{BeverlyFractions, ClientProfile, SpoofPopulation};
