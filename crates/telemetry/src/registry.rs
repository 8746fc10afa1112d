//! The registry snapshot: an owned, mergeable, serializable view of every
//! metric, span and event a [`crate::Telemetry`] handle recorded.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use crate::hist::Histogram;
use crate::json;
use crate::trace::TraceRecord;

/// A structured event captured at a simulated-time instant.
///
/// Names are static and the payload is one shared allocation, so every
/// copy an event makes on its way from a trial scope to the merged
/// registry (snapshot, delta merge, stream merge) is a pointer copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Simulated time of the event in nanoseconds.
    pub t_ns: u64,
    /// Event kind, e.g. `censor.tap.action`.
    pub kind: &'static str,
    /// Ordered key/value payload, shared by every copy of the event.
    pub fields: Arc<[(&'static str, FieldValue)]>,
}

/// An event field value (integers and strings only — deterministic output).
///
/// [`FieldValue::Static`] and [`FieldValue::Addr`] carry a label and an
/// address without a `String` of their own. Each renders exactly as the
/// [`FieldValue::Str`] of its text, and compares equal to it, so which
/// variant recorded a field changes no output byte and no equality; the
/// codec writes all three as the text, and decodes them as `Str`.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String.
    Str(String),
    /// A static string, e.g. an action kind's label.
    Static(&'static str),
    /// An IPv4 address, rendered dotted-quad.
    Addr(Ipv4Addr),
}

impl FieldValue {
    /// The value as text, when it is a string, a static string or an
    /// address (an address renders into a fresh `String`).
    fn text(&self) -> Option<Cow<'_, str>> {
        match self {
            FieldValue::U64(_) | FieldValue::I64(_) => None,
            FieldValue::Str(s) => Some(Cow::Borrowed(s)),
            FieldValue::Static(s) => Some(Cow::Borrowed(s)),
            FieldValue::Addr(a) => Some(Cow::Owned(a.to_string())),
        }
    }
}

impl PartialEq for FieldValue {
    fn eq(&self, other: &FieldValue) -> bool {
        match (self, other) {
            (FieldValue::U64(a), FieldValue::U64(b)) => a == b,
            (FieldValue::I64(a), FieldValue::I64(b)) => a == b,
            (FieldValue::Addr(a), FieldValue::Addr(b)) => a == b,
            _ => matches!((self.text(), other.text()), (Some(a), Some(b)) if a == b),
        }
    }
}

impl Eq for FieldValue {}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A completed scoped span keyed to simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `experiment.e09_mvr`.
    pub name: String,
    /// Simulated start in nanoseconds.
    pub start_ns: u64,
    /// Simulated end in nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (saturating).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An owned snapshot of a telemetry registry.
///
/// Snapshots merge deterministically: counters add, gauges take the merged
/// snapshot's value (last write wins, in merge order), histograms add
/// bucket-wise, spans and events append and then re-sort by
/// (sim-time, name) so the result is independent of merge call order, and
/// flight-recorder trace records append in merge order (the campaign
/// engine merges per-trial registries in trial-index order, which keeps
/// trial segments contiguous and shard-invariant).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Log-bucketed histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Completed spans, sorted by (start time, name) after merges.
    pub spans: Vec<SpanRecord>,
    /// Structured events, sorted by (time, kind) after merges.
    pub events: Vec<Event>,
    /// Flight-recorder decision records in recording/merge order.
    /// Deliberately excluded from [`Registry::to_json`] so non-trace
    /// output stays byte-identical whether or not tracing ran; render
    /// with [`Registry::trace_jsonl`].
    pub trace: Vec<TraceRecord>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Fold `other` into `self` (see type docs for per-kind semantics).
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            with_slot(&mut self.counters, name, |c| *c = c.wrapping_add(*v));
        }
        for (name, v) in &other.gauges {
            with_slot(&mut self.gauges, name, |g| *g = *v);
        }
        for (name, h) in &other.histograms {
            with_slot(&mut self.histograms, name, |mine| mine.merge(h));
        }
        self.spans.extend(other.spans.iter().cloned());
        self.events.extend(other.events.iter().cloned());
        self.sort_records();
        self.trace.extend(other.trace.iter().cloned());
    }

    /// The accumulator rule for an owned delta: exactly
    /// `self.merge(&delta)`, but an empty `self` takes the delta whole —
    /// its maps by move, its spans and events sorted as the merge would
    /// sort them — instead of cloning every name into fresh maps.
    pub fn accumulate(&mut self, delta: Registry) {
        if self.is_empty() {
            *self = delta;
            self.sort_records();
        } else {
            self.merge(&delta);
        }
    }

    /// Stable-sort spans by (start time, name) and events by (time, kind),
    /// the canonical order every merge leaves them in.
    fn sort_records(&mut self) {
        sort_records(&mut self.spans, &mut self.events);
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
            && self.trace.is_empty()
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Deterministic single-line JSON: keys in `BTreeMap` order, integer
    /// values only, non-zero histogram buckets as `[low_bound, count]`
    /// pairs. Byte-identical for equal registries on every platform.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 96 * self.events.len());
        out.push('{');
        json::push_key(&mut out, "counters");
        out.push('{');
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            json::push_num(&mut out, v);
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "gauges");
        out.push('{');
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            json::push_num(&mut out, v);
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push('{');
            let stats = [
                ("count", h.count()),
                ("sum", h.sum()),
                ("min", h.min()),
                ("max", h.max()),
                ("p50", h.quantile(50)),
                ("p90", h.quantile(90)),
                ("p99", h.quantile(99)),
            ];
            for (key, v) in stats {
                json::push_key(&mut out, key);
                json::push_num(&mut out, v);
                out.push(',');
            }
            json::push_key(&mut out, "buckets");
            out.push('[');
            let mut first = true;
            for (bi, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let (lo, _) = Histogram::bucket_bounds(bi);
                out.push('[');
                json::push_num(&mut out, lo);
                out.push(',');
                json::push_num(&mut out, n);
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "spans");
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json::push_key(&mut out, "name");
            json::push_str_value(&mut out, &s.name);
            out.push(',');
            json::push_key(&mut out, "start_ns");
            json::push_num(&mut out, s.start_ns);
            out.push(',');
            json::push_key(&mut out, "end_ns");
            json::push_num(&mut out, s.end_ns);
            out.push('}');
        }
        out.push(']');
        out.push(',');
        json::push_key(&mut out, "events");
        out.push('[');
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_event(&mut out, e);
        }
        out.push_str("]}");
        out
    }

    /// The flight-recorder trace as JSON lines, one sorted-key object per
    /// decision record, in recording/merge order.
    pub fn trace_jsonl(&self) -> String {
        crate::trace::to_jsonl(&self.trace)
    }

    /// Human-readable text summary: one metric per line, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge   {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist    {name}: count={} sum={} min={} max={} mean={} p50={} p90={} p99={}\n",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(50),
                h.quantile(90),
                h.quantile(99),
            ));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "span    {}: [{} ns .. {} ns] ({} ns)\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.duration_ns()
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!("events  {} recorded\n", self.events.len()));
        }
        if !self.trace.is_empty() {
            out.push_str(&format!("trace   {} records\n", self.trace.len()));
        }
        out
    }
}

/// Stable-sort spans by (start time, name) and events by (time, kind): the
/// canonical order every merge leaves them in, whichever form holds them.
pub(crate) fn sort_records(spans: &mut [SpanRecord], events: &mut [Event]) {
    spans.sort_by(|a, b| (a.start_ns, &a.name).cmp(&(b.start_ns, &b.name)));
    events.sort_by(|a, b| (a.t_ns, a.kind).cmp(&(b.t_ns, b.kind)));
}

/// Append `e` to `out` as a deterministic JSON object.
fn push_event(out: &mut String, e: &Event) {
    out.push('{');
    json::push_key(out, "t_ns");
    json::push_num(out, e.t_ns);
    out.push(',');
    json::push_key(out, "kind");
    json::push_str_value(out, e.kind);
    for (k, v) in e.fields.iter() {
        out.push(',');
        json::push_key(out, k);
        json::push_field_value(out, v);
    }
    out.push('}');
}

/// Apply `f` to `map[name]`, inserting a default first when the key is
/// absent. The lookup comes before the clone, so a key already present —
/// the common case when per-trial deltas fold into a running total —
/// costs no allocation.
pub(crate) fn with_slot<T: Default, R>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    match map.get_mut(name) {
        Some(slot) => f(slot),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counters.insert("b.count".into(), 2);
        r.counters.insert("a.count".into(), 1);
        r.gauges.insert("depth".into(), -3);
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(5);
        r.histograms.insert("sizes".into(), h);
        r.spans.push(SpanRecord {
            name: "run".into(),
            start_ns: 10,
            end_ns: 30,
        });
        r.events.push(Event {
            t_ns: 7,
            kind: "rst",
            fields: Arc::new([("flow", FieldValue::Str("a\"b".into()))]),
        });
        r
    }

    #[test]
    fn json_is_sorted_and_escaped() {
        let j = sample().to_json();
        assert!(j.find("\"a.count\":1").unwrap() < j.find("\"b.count\":2").unwrap());
        assert!(j.contains("\"gauges\":{\"depth\":-3}"));
        assert!(j.contains("\"buckets\":[[0,1],[4,1]]"));
        // Quantiles render between max and buckets, from the fixed buckets:
        // {0, 5} → p50 is the zero bucket, p90/p99 the [4,7] bucket clamped
        // to the observed max.
        assert!(
            j.contains("\"p50\":0,\"p90\":5,\"p99\":5,\"buckets\""),
            "{j}"
        );
        assert!(j.contains("\"flow\":\"a\\\"b\""));
        assert!(j.contains("\"spans\":[{\"name\":\"run\",\"start_ns\":10,\"end_ns\":30}]"));
    }

    #[test]
    fn merge_semantics() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("a.count"), 2, "counters add");
        assert_eq!(a.gauge("depth"), -3, "gauges overwrite");
        assert_eq!(a.histogram("sizes").unwrap().count(), 4);
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.events.len(), 2);
    }

    #[test]
    fn equal_registries_serialize_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn merge_order_of_spans_and_events_is_canonical() {
        // Two registries with interleaved sim-times: whichever is merged
        // first, the result sorts to the same (time, name) order.
        let mk = |name: &'static str, t: u64| {
            let mut r = Registry::new();
            r.spans.push(SpanRecord {
                name: name.into(),
                start_ns: t,
                end_ns: t + 1,
            });
            r.events.push(Event {
                t_ns: t,
                kind: name,
                fields: Arc::new([]),
            });
            r
        };
        let a = mk("alpha", 20);
        let b = mk("beta", 10);
        let mut ab = Registry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Registry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json(), "merge order must not matter");
        assert_eq!(ab.spans[0].name, "beta", "sorted by (start_ns, name)");
        assert_eq!(ab.events[0].kind, "beta", "sorted by (t_ns, kind)");
    }

    #[test]
    fn trace_records_merge_in_order_and_stay_out_of_json() {
        use crate::trace::TraceRecord;
        let mut a = Registry::new();
        a.trace.push(TraceRecord {
            t_ns: 1,
            seq: 0,
            stage: "mvr",
            kind: "retain",
            flow: None,
            fields: vec![],
        });
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.trace.len(), 2);
        assert!(!a.to_json().contains("retain"), "trace excluded from JSON");
        assert_eq!(a.trace_jsonl().lines().count(), 2);
    }

    #[test]
    fn render_text_lists_everything() {
        let t = sample().render_text();
        assert!(t.contains("counter a.count = 1"));
        assert!(t.contains("gauge   depth = -3"));
        assert!(t.contains("hist    sizes: count=2"));
        assert!(t.contains("p50=0 p90=5 p99=5"), "{t}");
        assert!(t.contains("span    run:"));
        assert!(t.contains("events  1 recorded"));
    }
}
