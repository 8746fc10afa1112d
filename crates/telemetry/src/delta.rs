//! The id-keyed registry: what a live [`crate::Telemetry`] records into,
//! and what the run service hands from a worker to its committer.
//!
//! A [`Delta`] holds the same six sections as a [`Registry`], but keys
//! its counters, gauges and histograms by [`NameId`] in first-write
//! order, so a write to a name seen before costs a hash lookup and no
//! allocation. Names, and the by-name order every output uses, come back
//! only at the boundary: [`Delta::to_registry`] and
//! [`Delta::into_registry`] build the equal [`Registry`], and the codec
//! encodes a delta with names (`codec::put_delta`), byte for byte as that
//! registry. Spans, events and trace records keep the order they had, as
//! a registry's do.

use crate::hash::FxHashMap;
use crate::hist::Histogram;
use crate::names::NameId;
use crate::registry::{sort_records, Event, Registry, SpanRecord};
use crate::trace::TraceRecord;

/// Which map of a [`Delta`] a slot belongs to: a name may be a counter, a
/// gauge and a histogram at once, as in a [`Registry`].
#[derive(Clone, Copy)]
enum Kind {
    Counter = 0,
    Gauge = 1,
    Histogram = 2,
}

/// An id-keyed registry (see the module docs). Folding one into another
/// ([`Delta::accumulate`]) follows [`Registry::merge`]'s rule.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// `(id, kind)` → position in that kind's slot list.
    index: FxHashMap<(NameId, u8), u32>,
    pub(crate) counters: Vec<(NameId, u64)>,
    pub(crate) gauges: Vec<(NameId, i64)>,
    pub(crate) histograms: Vec<(NameId, Histogram)>,
    /// Completed spans, in recording order (sorted after a fold).
    pub spans: Vec<SpanRecord>,
    /// Structured events, in recording order (sorted after a fold).
    pub events: Vec<Event>,
    /// Flight-recorder decision records in recording/merge order.
    pub trace: Vec<TraceRecord>,
}

/// The slot for `id` in `entries`, appended with `fresh` on first write.
fn slot<'a, T>(
    index: &mut FxHashMap<(NameId, u8), u32>,
    entries: &'a mut Vec<(NameId, T)>,
    kind: Kind,
    id: NameId,
    fresh: impl FnOnce() -> T,
) -> &'a mut T {
    let at = *index.entry((id, kind as u8)).or_insert_with(|| {
        entries.push((id, fresh()));
        (entries.len() - 1) as u32
    });
    &mut entries[at as usize].1
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// An empty delta with room for what one audited trial's scope
    /// records (≈60 counters, ≈25 gauges, a few histograms), so a live
    /// scope grows its lists at most once or twice.
    pub(crate) fn for_scope() -> Delta {
        let mut index = FxHashMap::default();
        index.reserve(128);
        Delta {
            index,
            counters: Vec::with_capacity(64),
            gauges: Vec::with_capacity(32),
            histograms: Vec::with_capacity(4),
            ..Delta::default()
        }
    }

    /// Whether nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
            && self.trace.is_empty()
    }

    fn counter(&mut self, id: NameId) -> &mut u64 {
        slot(&mut self.index, &mut self.counters, Kind::Counter, id, || 0)
    }

    fn gauge(&mut self, id: NameId) -> &mut i64 {
        slot(&mut self.index, &mut self.gauges, Kind::Gauge, id, || 0)
    }

    fn histogram(&mut self, id: NameId) -> &mut Histogram {
        slot(
            &mut self.index,
            &mut self.histograms,
            Kind::Histogram,
            id,
            Histogram::new,
        )
    }

    /// Add `n` to counter `id` (a first write creates it, even at 0).
    pub fn count(&mut self, id: NameId, n: u64) {
        let c = self.counter(id);
        *c = c.wrapping_add(n);
    }

    /// Set counter `id` to an absolute total.
    pub(crate) fn set_counter(&mut self, id: NameId, total: u64) {
        *self.counter(id) = total;
    }

    /// Set gauge `id` to `value`.
    pub(crate) fn set_gauge(&mut self, id: NameId, value: i64) {
        *self.gauge(id) = value;
    }

    /// Observe `value` into histogram `id`.
    pub(crate) fn observe(&mut self, id: NameId, value: u64) {
        self.histogram(id).observe(value);
    }

    /// Set histogram `id` to `hist`.
    pub(crate) fn set_histogram(&mut self, id: NameId, hist: &Histogram) {
        self.histogram(id).clone_from(hist);
    }

    /// Fold `other` into `self` by move, by [`Registry::merge`]'s rule:
    /// counters add, gauges take `other`'s value, histograms add
    /// bucket-wise, spans and events append and re-sort by
    /// (sim-time, name), trace records append.
    pub fn accumulate(&mut self, other: Delta) {
        if self.is_empty() {
            // Registry::accumulate's shortcut: an empty delta takes the
            // other whole, as the merge would leave it.
            *self = other;
            sort_records(&mut self.spans, &mut self.events);
            return;
        }
        for (id, v) in other.counters {
            self.count(id, v);
        }
        for (id, v) in other.gauges {
            self.set_gauge(id, v);
        }
        for (id, h) in other.histograms {
            self.histogram(id).merge(&h);
        }
        self.spans.extend(other.spans);
        self.events.extend(other.events);
        sort_records(&mut self.spans, &mut self.events);
        self.trace.extend(other.trace);
    }

    /// Counters as `(name, value)`, ordered by name.
    pub(crate) fn counters_by_name(&self) -> Vec<(&'static str, u64)> {
        by_name(&self.counters, |v| *v)
    }

    /// Gauges as `(name, value)`, ordered by name.
    pub(crate) fn gauges_by_name(&self) -> Vec<(&'static str, i64)> {
        by_name(&self.gauges, |v| *v)
    }

    /// Histograms as `(name, histogram)`, ordered by name.
    pub(crate) fn histograms_by_name(&self) -> Vec<(&'static str, &Histogram)> {
        by_name(&self.histograms, |h| h)
    }

    /// The equal [`Registry`], names built.
    pub fn to_registry(&self) -> Registry {
        Registry {
            counters: named(&self.counters, |v| *v),
            gauges: named(&self.gauges, |v| *v),
            histograms: named(&self.histograms, Histogram::clone),
            spans: self.spans.clone(),
            events: self.events.clone(),
            trace: self.trace.clone(),
        }
    }

    /// [`Delta::to_registry`] by move: values, spans, events and trace
    /// records leave without a copy; only the names are built.
    pub fn into_registry(self) -> Registry {
        Registry {
            counters: into_named(self.counters),
            gauges: into_named(self.gauges),
            histograms: into_named(self.histograms),
            spans: self.spans,
            events: self.events,
            trace: self.trace,
        }
    }
}

impl From<Registry> for Delta {
    /// The delta holding `reg`'s values, by move: values, spans, events
    /// and trace records move in; the names are interned and dropped.
    fn from(reg: Registry) -> Delta {
        let mut delta = Delta::new();
        for (name, v) in reg.counters {
            delta.set_counter(NameId::of(&name), v);
        }
        for (name, v) in reg.gauges {
            delta.set_gauge(NameId::of(&name), v);
        }
        for (name, h) in reg.histograms {
            let id = NameId::of(&name);
            *delta.histogram(id) = h;
        }
        delta.spans = reg.spans;
        delta.events = reg.events;
        delta.trace = reg.trace;
        delta
    }
}

fn by_name<'a, T, V>(
    entries: &'a [(NameId, T)],
    value: impl Fn(&'a T) -> V,
) -> Vec<(&'static str, V)> {
    let mut out: Vec<_> = entries
        .iter()
        .map(|(id, v)| (id.name(), value(v)))
        .collect();
    out.sort_unstable_by(|a, b| a.0.cmp(b.0));
    out
}

fn named<T, V>(
    entries: &[(NameId, T)],
    value: impl Fn(&T) -> V,
) -> std::collections::BTreeMap<String, V> {
    entries
        .iter()
        .map(|(id, v)| (id.name().to_owned(), value(v)))
        .collect()
}

fn into_named<T>(entries: Vec<(NameId, T)>) -> std::collections::BTreeMap<String, T> {
    entries
        .into_iter()
        .map(|(id, v)| (id.name().to_owned(), v))
        .collect()
}
