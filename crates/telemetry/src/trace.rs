//! The flight recorder: a bounded, deterministic per-trial trace of every
//! pipeline decision, so a verdict is explainable after the fact.
//!
//! Counters say *how many* alerts fired; the trace says *why this trial*
//! flipped. Every stage appends typed [`TraceRecord`]s through a cheap
//! [`Tracer`] handle (one null check when tracing is off, the same
//! discipline as a disabled [`crate::Telemetry`]):
//!
//! * `netsim` link impairment draws that fired (drop / reorder / corrupt /
//!   duplicate), carrying the transmit sequence id that correlates with
//!   the pcap capture index;
//! * `ids::stream` reassembly decisions (hold, drop, overlap trim,
//!   duplicate discard, eviction) with the byte range involved;
//! * `ids::engine` rule matches with the rule id and stream byte offset;
//! * `censor` tap and inline actions (RST pairs, DNS injection, IP/port
//!   drops, URL blocks);
//! * `surveil` MVR retain/discard with the classifying traffic class;
//! * `campaign` trial markers, retry/backoff decisions and final verdicts.
//!
//! Records live in a per-trial ring buffer ([`TraceBuf`]): when the
//! capacity is reached the oldest record is evicted deterministically and
//! counted, surfacing as the `telemetry.trace.dropped` counter. Merging
//! per-trial registries in trial order (the campaign engine's discipline)
//! keeps the merged trace byte-identical across shard counts.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::rc::Rc;

use crate::json;
use crate::registry::FieldValue;

/// Default per-trial ring capacity (records).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The flow a record belongs to (client-to-server orientation of the
/// packet that triggered the decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFlow {
    /// Source address.
    pub src: Ipv4Addr,
    /// Source port (0 when the packet has none).
    pub src_port: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port (0 when the packet has none).
    pub dst_port: u16,
}

impl TraceFlow {
    /// Render as `src:sport->dst:dport`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}->{}:{}",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// One typed decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the decision in nanoseconds.
    pub t_ns: u64,
    /// Packet transmit sequence id (0 = not tied to a transmitted
    /// packet). For link-stage records this equals the scheduler's
    /// running transmit counter, which also indexes the pcap capture.
    pub seq: u64,
    /// Pipeline stage: `link`, `stream`, `engine`, `censor`, `mvr`,
    /// `campaign`.
    pub stage: &'static str,
    /// Decision kind within the stage, e.g. `ooo_dropped`, `rst_pair`.
    pub kind: &'static str,
    /// The flow the decision concerns, when there is one.
    pub flow: Option<TraceFlow>,
    /// Additional typed payload, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceRecord {
    /// Serialize as one JSON object with keys in sorted order
    /// (deterministic; byte-identical across shard counts when the
    /// records are).
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(&str, String)> = Vec::with_capacity(5 + self.fields.len());
        pairs.push(("kind", json_str(self.kind)));
        pairs.push(("seq", self.seq.to_string()));
        pairs.push(("stage", json_str(self.stage)));
        pairs.push(("t_ns", self.t_ns.to_string()));
        if let Some(flow) = &self.flow {
            pairs.push(("flow", json_str(&flow.render())));
        }
        for (k, v) in &self.fields {
            let rendered = match v {
                FieldValue::U64(n) => n.to_string(),
                FieldValue::I64(n) => n.to_string(),
                FieldValue::Str(s) => json_str(s),
            };
            pairs.push((k, rendered));
        }
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = String::with_capacity(96);
        out.push('{');
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, k);
            out.push_str(v);
        }
        out.push('}');
        out
    }

    /// Render one human-readable line (`t=…ns [stage] kind flow=… k=v`).
    pub fn render(&self) -> String {
        let mut out = format!("t={}ns [{}] {}", self.t_ns, self.stage, self.kind);
        if self.seq != 0 {
            out.push_str(&format!(" seq#{}", self.seq));
        }
        if let Some(flow) = &self.flow {
            out.push_str(&format!(" flow={}", flow.render()));
        }
        for (k, v) in &self.fields {
            match v {
                FieldValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                FieldValue::I64(n) => out.push_str(&format!(" {k}={n}")),
                FieldValue::Str(s) => out.push_str(&format!(" {k}={s}")),
            }
        }
        out
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A string field by key (None when absent or non-string).
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// An unsigned field by key (None when absent or non-integer).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(FieldValue::U64(n)) => Some(*n),
            Some(FieldValue::I64(n)) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::push_str_value(&mut out, s);
    out
}

/// The per-trial ring buffer behind a live [`Tracer`].
#[derive(Debug)]
pub struct TraceBuf {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuf {
    /// A ring holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> TraceBuf {
        TraceBuf {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Append merged records without the ring bound (the bound disciplines
    /// live per-trial recording; post-hoc archive merges keep everything).
    pub fn extend_unbounded<'a>(&mut self, records: impl IntoIterator<Item = &'a TraceRecord>) {
        self.records.extend(records.into_iter().cloned());
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// The records held, oldest first, by move.
    pub(crate) fn into_records(self) -> Vec<TraceRecord> {
        self.records.into()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Pre-resolved recording handle; a disabled tracer costs one null check
/// per decision site (same discipline as a disabled [`crate::Telemetry`]).
#[derive(Clone, Default)]
pub struct Tracer(pub(crate) Option<Rc<RefCell<TraceBuf>>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("live", &self.is_live())
            .finish()
    }
}

impl Tracer {
    /// A handle that records nothing.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// A standalone live tracer over a fresh ring (for direct use outside
    /// a [`crate::Telemetry`] handle, e.g. replay harnesses).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(TraceBuf::new(capacity)))))
    }

    /// Whether records are kept. Decision sites gate any string building
    /// or field assembly behind this so the disabled path is one branch.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Append a record (no-op when disabled).
    #[inline]
    pub fn record(&self, record: TraceRecord) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().push(record);
        }
    }

    /// Snapshot the held records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.0 {
            Some(buf) => buf.borrow().records().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Records evicted so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map(|b| b.borrow().dropped()).unwrap_or(0)
    }
}

/// Render records as JSON lines (one sorted-key object per line).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// The first divergence between two record sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDivergence {
    /// Index of the first record that differs.
    pub index: usize,
    /// The left sequence's record at `index` (None when exhausted).
    pub left: Option<TraceRecord>,
    /// The right sequence's record at `index` (None when exhausted).
    pub right: Option<TraceRecord>,
}

/// Align two traces record-by-record and return the first divergent
/// decision, or None when they are identical.
pub fn diff(left: &[TraceRecord], right: &[TraceRecord]) -> Option<TraceDivergence> {
    for i in 0..left.len().max(right.len()) {
        if left.get(i) != right.get(i) {
            return Some(TraceDivergence {
                index: i,
                left: left.get(i).cloned(),
                right: right.get(i).cloned(),
            });
        }
    }
    None
}

/// Render a divergence (or its absence) as human-readable lines.
pub fn render_diff(d: Option<&TraceDivergence>) -> String {
    match d {
        None => "traces identical\n".to_string(),
        Some(d) => {
            let mut out = format!("first divergent decision at record #{}:\n", d.index);
            match &d.left {
                Some(r) => out.push_str(&format!("  a: {}\n", r.render())),
                None => out.push_str("  a: (no record — trace ended)\n"),
            }
            match &d.right {
                Some(r) => out.push_str(&format!("  b: {}\n", r.render())),
                None => out.push_str("  b: (no record — trace ended)\n"),
            }
            out
        }
    }
}

/// Split a merged campaign trace into per-trial segments at
/// `campaign`/`trial_start` markers. Records before the first marker (if
/// any) form no segment of their own; each returned slice starts at its
/// marker.
pub fn split_trials(records: &[TraceRecord]) -> Vec<&[TraceRecord]> {
    let mut starts: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.stage == "campaign" && r.kind == "trial_start")
        .map(|(i, _)| i)
        .collect();
    if starts.is_empty() {
        if records.is_empty() {
            return Vec::new();
        }
        return vec![records];
    }
    starts.push(records.len());
    starts.windows(2).map(|w| &records[w[0]..w[1]]).collect()
}

/// One trial's reconstructed causal chain.
#[derive(Debug, Clone)]
pub struct TrialChain {
    /// One-line summary: trial identity, verdict, step count, and the
    /// proximate cause.
    pub header: String,
    /// The final verdict string (None when the trial recorded none).
    pub verdict: Option<String>,
    /// Rendered salient decisions, in decision order.
    pub steps: Vec<String>,
}

/// Maximum steps rendered per chain before eliding.
const MAX_CHAIN_STEPS: usize = 16;

/// Reconstruct a causal chain per trial from a (merged) trace. Trials are
/// delimited by `campaign`/`trial_start` markers; a trace without markers
/// yields one chain. The header names the proximate cause: the last
/// censor action if any, else the last engine rule match, else the last
/// MVR decision.
pub fn explain(records: &[TraceRecord]) -> Vec<TrialChain> {
    split_trials(records)
        .into_iter()
        .map(explain_segment)
        .collect()
}

fn explain_segment(segment: &[TraceRecord]) -> TrialChain {
    let marker = segment
        .first()
        .filter(|r| r.stage == "campaign" && r.kind == "trial_start");
    let verdict_rec = segment
        .iter()
        .rev()
        .find(|r| r.stage == "campaign" && r.kind == "verdict");
    let verdict = verdict_rec
        .and_then(|r| r.field_str("verdict"))
        .map(str::to_string);
    let steps: Vec<&TraceRecord> = segment
        .iter()
        .filter(|r| !(r.stage == "campaign" && matches!(r.kind, "trial_start" | "verdict")))
        .collect();
    let cause = steps
        .iter()
        .rev()
        .find(|r| r.stage == "censor")
        .or_else(|| steps.iter().rev().find(|r| r.stage == "engine"))
        .or_else(|| steps.iter().rev().find(|r| r.stage == "mvr"))
        .or_else(|| steps.last());

    let mut header = String::new();
    match marker {
        Some(m) => {
            header.push_str(&format!("trial={}", m.field_u64("trial").unwrap_or(0)));
            for key in ["method", "policy", "target"] {
                if let Some(v) = m.field_str(key) {
                    header.push_str(&format!(" {key}={v}"));
                }
            }
        }
        None => header.push_str("trace"),
    }
    header.push_str(&format!(
        " verdict={}",
        verdict.as_deref().unwrap_or("(none)")
    ));
    header.push_str(&format!(" steps={}", steps.len()));
    match cause {
        Some(c) => header.push_str(&format!(" because={}.{}@t={}ns", c.stage, c.kind, c.t_ns)),
        None => header.push_str(" because=no-recorded-decisions"),
    }

    let mut rendered: Vec<String> = steps
        .iter()
        .take(MAX_CHAIN_STEPS)
        .map(|r| r.render())
        .collect();
    if steps.len() > MAX_CHAIN_STEPS {
        rendered.push(format!("… (+{} more)", steps.len() - MAX_CHAIN_STEPS));
    }
    TrialChain {
        header,
        verdict,
        steps: rendered,
    }
}

/// Render chains as text: one header line per trial, steps indented.
pub fn render_chains(chains: &[TrialChain]) -> String {
    let mut out = String::new();
    for chain in chains {
        out.push_str(&chain.header);
        out.push('\n');
        for step in &chain.steps {
            out.push_str("  ");
            out.push_str(step);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, stage: &'static str, kind: &'static str) -> TraceRecord {
        TraceRecord {
            t_ns: t,
            seq: 0,
            stage,
            kind,
            flow: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut buf = TraceBuf::new(2);
        buf.push(rec(1, "link", "drop"));
        buf.push(rec(2, "link", "drop"));
        buf.push(rec(3, "link", "drop"));
        assert_eq!(buf.dropped(), 1);
        let times: Vec<u64> = buf.records().map(|r| r.t_ns).collect();
        assert_eq!(times, vec![2, 3]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_live());
        t.record(rec(1, "link", "drop"));
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn json_keys_are_sorted() {
        let mut r = rec(7, "stream", "ooo_held");
        r.seq = 3;
        r.flow = Some(TraceFlow {
            src: Ipv4Addr::new(10, 0, 1, 2),
            src_port: 4000,
            dst: Ipv4Addr::new(93, 184, 0, 10),
            dst_port: 80,
        });
        r.fields.push(("bytes", 5u64.into()));
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"bytes\":5,\"flow\":\"10.0.1.2:4000->93.184.0.10:80\",\
             \"kind\":\"ooo_held\",\"seq\":3,\"stage\":\"stream\",\"t_ns\":7}"
        );
    }

    #[test]
    fn diff_finds_first_divergence() {
        let a = vec![rec(1, "link", "drop"), rec(2, "stream", "ooo_held")];
        let b = vec![rec(1, "link", "drop"), rec(2, "stream", "ooo_dropped")];
        let d = diff(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.left.as_ref().map(|r| r.kind), Some("ooo_held"));
        assert_eq!(d.right.as_ref().map(|r| r.kind), Some("ooo_dropped"));
        assert!(diff(&a, &a).is_none());
        let shorter = diff(&a[..1], &a).expect("length divergence");
        assert_eq!(shorter.index, 1);
        assert!(shorter.left.is_none());
    }

    #[test]
    fn explain_groups_by_trial_marker() {
        let mut records = Vec::new();
        let mut marker = rec(0, "campaign", "trial_start");
        marker.fields.push(("trial", 0u64.into()));
        marker.fields.push(("method", "overt".into()));
        records.push(marker);
        records.push(rec(5, "mvr", "retain"));
        records.push(rec(9, "censor", "rst_pair"));
        let mut verdict = rec(10, "campaign", "verdict");
        verdict.fields.push(("verdict", "Blocked".into()));
        records.push(verdict);
        let mut marker2 = rec(20, "campaign", "trial_start");
        marker2.fields.push(("trial", 1u64.into()));
        records.push(marker2);
        records.push(rec(25, "mvr", "discard"));

        let chains = explain(&records);
        assert_eq!(chains.len(), 2);
        assert!(chains[0].header.contains("trial=0"));
        assert!(chains[0].header.contains("verdict=Blocked"));
        assert!(chains[0].header.contains("because=censor.rst_pair@t=9ns"));
        assert_eq!(chains[0].steps.len(), 2);
        assert!(chains[1].header.contains("verdict=(none)"));
        assert!(chains[1].header.contains("because=mvr.discard"));
    }

    #[test]
    fn jsonl_is_one_line_per_record() {
        let records = vec![rec(1, "link", "drop"), rec(2, "mvr", "retain")];
        let out = to_jsonl(&records);
        assert_eq!(out.lines().count(), 2);
        assert!(out.starts_with("{\"kind\":\"drop\""));
    }
}
