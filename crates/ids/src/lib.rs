#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-ids
//!
//! A Snort-like signature-based intrusion detection engine.
//!
//! The paper models *both* reference systems as off-path signature IDSes
//! ("we know from leaked documents that the NSA surveillance system and GFC
//! are functionally off-path, signature-based IDS systems, like Snort",
//! §3.2.1). This crate supplies that engine:
//!
//! * [`rule`]/[`parser`] — a Snort-dialect rule language: actions, protocol
//!   and address/port predicates with `$VAR` substitution and negation,
//!   `content` matches with `nocase`/`offset`/`depth`, TCP `flags`,
//!   `dsize`, `flow` state, and `threshold` rate limiting; [`rule::find_sub`]
//!   is the substring search that confirms a content match.
//! * [`dfa`] — an Aho–Corasick automaton built from scratch and flattened
//!   into a dense byte-classed DFA with a root-row skip loop: the
//!   fast-pattern prefilter used by the engine and the tap censor (Snort's
//!   architecture, at GB/s).
//! * [`stream`] — TCP stream reassembly with the RST-teardown semantics the
//!   paper's stateful mimicry exploits (§4.1): a RST makes the reassembler
//!   stop looking at the flow.
//! * [`engine`] — rule evaluation over packets and reassembled streams,
//!   producing [`alert::Alert`]s. A ruleset compiles once into an
//!   immutable [`CompiledRuleset`] that any number of engines share.

pub mod alert;
pub mod dfa;
pub mod engine;
pub mod parser;
pub mod rule;
pub mod stream;

pub use alert::{Alert, AlertLog};
pub use dfa::PrefilterDfa;
pub use engine::{CompiledRuleset, DetectionEngine};
pub use parser::{parse_rule, parse_ruleset, RuleParseError};
pub use rule::{
    AddrSpec, ContentMatch, FlowOption, PortSpec, Proto, Rule, RuleAction, ThresholdKind,
    ThresholdOption,
};
pub use stream::{FlowKey, StreamReassembler};
