//! Order-independent incremental registry merging for streaming runs.
//!
//! [`Registry::merge`] is order-sensitive in two places: gauges take the
//! value of the *last* merged snapshot, and flight-recorder trace records
//! append in merge order. The campaign engine hides that by merging
//! per-trial registries in trial-index order after all trials finish — an
//! end-of-run barrier a streaming run service cannot afford, because under
//! work stealing trials complete in arbitrary order and a 1M-trial run
//! cannot buffer 1M registries to sort them.
//!
//! [`StreamMerger`] absorbs per-trial deltas in **completion order** while
//! producing the exact registry the sequential index-order discipline
//! would: commutative pieces (counters, histograms) fold immediately into
//! bounded maps; order-sensitive pieces are tagged with their source
//! index — gauges keep the highest-index writer (what "last merge wins"
//! means under index order), spans and events sort by their canonical key
//! with the source index as tie-break (what repeated stable re-sorting
//! produces), and trace records flatten in source-index order at
//! [`StreamMerger::finish`].

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::registry::{with_slot, Event, Registry, SpanRecord};
use crate::trace::TraceRecord;

/// Absorbs per-source [`Registry`] deltas in any order and finishes into
/// the registry that merging those deltas in ascending source order would
/// produce (see module docs for the per-kind argument).
///
/// Each source index must be absorbed at most once.
#[derive(Debug, Default)]
pub struct StreamMerger {
    counters: BTreeMap<String, u64>,
    /// Gauge name → (highest source index that wrote it, its value).
    gauges: BTreeMap<String, (u64, i64)>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<(u64, SpanRecord)>,
    events: Vec<(u64, Event)>,
    trace: BTreeMap<u64, Vec<TraceRecord>>,
}

impl StreamMerger {
    /// An empty merger.
    pub fn new() -> StreamMerger {
        StreamMerger::default()
    }

    /// Fold the delta recorded by source `src` (a trial index) into the
    /// running merge. Call order does not matter; the result depends only
    /// on the set of `(src, delta)` pairs absorbed.
    pub fn absorb(&mut self, src: u64, delta: &Registry) {
        for (name, v) in &delta.counters {
            with_slot(&mut self.counters, name, |c| *c = c.wrapping_add(*v));
        }
        for (name, v) in &delta.gauges {
            // A fresh slot is `(0, 0)`, which every source overwrites.
            with_slot(&mut self.gauges, name, |slot| {
                if src >= slot.0 {
                    *slot = (src, *v);
                }
            });
        }
        for (name, h) in &delta.histograms {
            with_slot(&mut self.histograms, name, |mine| mine.merge(h));
        }
        self.spans
            .extend(delta.spans.iter().map(|s| (src, s.clone())));
        self.events
            .extend(delta.events.iter().map(|e| (src, e.clone())));
        if !delta.trace.is_empty() {
            self.trace
                .entry(src)
                .or_default()
                .extend(delta.trace.iter().cloned());
        }
    }

    /// Resolve the order-sensitive pieces and return the merged registry —
    /// byte-identical (via `to_json`/`trace_jsonl`) to folding the same
    /// deltas into an empty [`Registry`] in ascending source order.
    pub fn finish(self) -> Registry {
        let mut spans = self.spans;
        spans.sort_by(|(sa, a), (sb, b)| (a.start_ns, &a.name, sa).cmp(&(b.start_ns, &b.name, sb)));
        let mut events = self.events;
        events.sort_by(|(sa, a), (sb, b)| (a.t_ns, &a.kind, sa).cmp(&(b.t_ns, &b.kind, sb)));
        Registry {
            counters: self.counters,
            gauges: self
                .gauges
                .into_iter()
                .map(|(name, (_, v))| (name, v))
                .collect(),
            histograms: self.histograms,
            spans: spans.into_iter().map(|(_, s)| s).collect(),
            events: events.into_iter().map(|(_, e)| e).collect(),
            trace: self.trace.into_values().flatten().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FieldValue;
    use std::sync::Arc;

    /// A per-trial delta with deliberate cross-trial collisions: same
    /// counter names, same gauge names, colliding span/event timestamps.
    fn delta(i: u64) -> Registry {
        let mut r = Registry::new();
        r.counters.insert("campaign.trials".into(), 1);
        r.counters.insert(format!("mod{}.hits", i % 3), i + 1);
        r.gauges.insert("queue.depth".into(), i as i64 - 2);
        if i.is_multiple_of(2) {
            r.gauges.insert("even.only".into(), i as i64);
        }
        let mut h = Histogram::new();
        h.observe(i);
        h.observe(i * 17);
        r.histograms.insert("latency".into(), h);
        r.spans.push(SpanRecord {
            name: "trial".into(),
            start_ns: (i % 4) * 100, // collide start times across trials
            end_ns: (i % 4) * 100 + i,
        });
        r.events.push(Event {
            t_ns: (i % 2) * 50, // collide event times across trials
            kind: "verdict",
            fields: Arc::new([("trial", FieldValue::U64(i))]),
        });
        r.trace.push(TraceRecord {
            t_ns: i,
            seq: i,
            stage: "campaign",
            kind: "trial_start",
            flow: None,
            fields: vec![("trial", FieldValue::U64(i))],
        });
        r
    }

    fn sequential(n: u64) -> Registry {
        let mut merged = Registry::new();
        for i in 0..n {
            merged.merge(&delta(i));
        }
        merged
    }

    #[test]
    fn completion_order_absorb_equals_index_order_merge() {
        let n = 12u64;
        // A scrambled completion order a work-stealing run could produce.
        let mut order: Vec<u64> = (0..n).collect();
        order.reverse();
        order.swap(0, 7);
        order.swap(3, 11);
        let mut merger = StreamMerger::new();
        for &i in &order {
            merger.absorb(i, &delta(i));
        }
        let streamed = merger.finish();
        let reference = sequential(n);
        assert_eq!(streamed, reference, "structural equality");
        assert_eq!(streamed.to_json(), reference.to_json());
        assert_eq!(streamed.trace_jsonl(), reference.trace_jsonl());
    }

    #[test]
    fn gauges_take_the_highest_source_writer() {
        let mut merger = StreamMerger::new();
        merger.absorb(5, &delta(5));
        merger.absorb(2, &delta(2));
        merger.absorb(9, &delta(9));
        let r = merger.finish();
        assert_eq!(r.gauge("queue.depth"), 9 - 2);
        // `even.only` was last written (in index order) by source 2.
        assert_eq!(r.gauge("even.only"), 2);
    }

    #[test]
    fn empty_merger_finishes_empty() {
        let r = StreamMerger::new().finish();
        assert!(r.is_empty());
    }
}
