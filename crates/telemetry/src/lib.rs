//! Deterministic observability for the measurement pipeline.
//!
//! The paper's safety argument is quantitative — what the MVR retains, what
//! each store tier holds, what the analyst queue costs — so every subsystem
//! records into a shared, deterministic metric registry instead of ad-hoc
//! stat structs. Three design rules:
//!
//! 1. **One way to record a metric, free when disabled.** A component
//!    keeps its own stats as plain fields and writes them by name
//!    ([`Telemetry::set_counter`], [`Telemetry::set_gauge`],
//!    [`Telemetry::set_histogram`], or the additive [`Telemetry::count`]
//!    and [`Telemetry::observe`]). A [`Telemetry`] handle is either live or
//!    a null handle, and on a null handle every write is one null check.
//!    The only handle a hot path holds is the flight recorder's [`Tracer`].
//!    The perf bench asserts the bound.
//! 2. **Deterministic output.** Metrics are integers, histogram buckets
//!    have fixed boundaries, snapshots serialize in sorted key order, and
//!    spans/events are keyed to *simulated* time (nanoseconds, as produced
//!    by the netsim clock) — so the same seed yields byte-identical JSON,
//!    sequential or sharded.
//! 3. **No dependencies.** The simulator depends on this crate, not the
//!    other way round; timestamps cross the API as raw `u64` nanoseconds.
//!
//! ```
//! use underradar_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.set_counter("netsim.events", 3);
//! tel.observe("ids.segment_bytes", 1460);
//! tel.record_span("experiment.demo", 0, 2_000_000_000);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("netsim.events"), 3);
//! assert!(snap.to_json().starts_with("{\"counters\""));
//!
//! let off = Telemetry::disabled();
//! off.count("netsim.events", 1); // a null check, nothing else
//! assert!(off.snapshot().is_empty());
//! ```
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codec;
pub mod hist;
pub mod json;
pub mod registry;
pub mod stream;
pub mod trace;

pub use hist::{Histogram, BUCKET_COUNT};
pub use registry::{Event, FieldValue, Registry, SpanRecord};
pub use stream::StreamMerger;
pub use trace::{TraceBuf, TraceFlow, TraceRecord, Tracer, DEFAULT_TRACE_CAPACITY};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use registry::with_slot;

/// A live registry: every value is kept plain in `values`, which the
/// hand-off moves out whole, next to the flight recorder's ring, which
/// the handle's tracers share.
struct Inner {
    values: Registry,
    trace: Option<Rc<RefCell<TraceBuf>>>,
}

impl Inner {
    /// An owned copy of everything recorded (see [`Telemetry::snapshot`]).
    fn snapshot(&self) -> Registry {
        let mut reg = self.values.clone();
        if let Some(buf) = &self.trace {
            let buf = buf.borrow();
            mirror_trace_dropped(&mut reg.counters, buf.dropped());
            reg.trace = buf.records().cloned().collect();
        }
        reg
    }

    /// [`Inner::snapshot`] by move: names, values, spans and events leave
    /// the scope without a copy, as do trace records no tracer still
    /// shares.
    fn into_registry(self) -> Registry {
        let mut reg = self.values;
        match self.trace.map(Rc::try_unwrap) {
            Some(Ok(buf)) => {
                let buf = buf.into_inner();
                mirror_trace_dropped(&mut reg.counters, buf.dropped());
                reg.trace = buf.into_records();
            }
            Some(Err(shared)) => {
                let buf = shared.borrow();
                mirror_trace_dropped(&mut reg.counters, buf.dropped());
                reg.trace = buf.records().cloned().collect();
            }
            None => {}
        }
        reg
    }
}

/// Mirror the flight recorder's eviction count into the
/// `telemetry.trace.dropped` counter.
fn mirror_trace_dropped(counters: &mut BTreeMap<String, u64>, dropped: u64) {
    with_slot(counters, "telemetry.trace.dropped", |c| {
        *c = c.wrapping_add(dropped)
    });
}

/// A cheaply-cloneable recording handle. Either live (shared registry) or
/// disabled (all operations are a null check).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The null handle: every operation is a no-op after one null check.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle with a fresh registry (events are retained in it).
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Inner {
                values: Registry::new(),
                trace: None,
            }))),
        }
    }

    /// A live handle with the flight recorder attached: decision records
    /// go into a per-handle ring of `capacity` records (oldest evicted
    /// deterministically, counted in `telemetry.trace.dropped`).
    pub fn with_trace(capacity: usize) -> Self {
        let tel = Telemetry::enabled();
        if let Some(inner) = &tel.inner {
            inner.borrow_mut().trace = Some(Rc::new(RefCell::new(TraceBuf::new(capacity))));
        }
        tel
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The flight recorder's ring capacity, when tracing is attached.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().trace.as_ref().map(|b| b.borrow().capacity()))
    }

    /// Resolve the flight-recorder handle. Disabled (one branch per
    /// decision site) unless this handle was built with
    /// [`Telemetry::with_trace`]; hot paths resolve once and reuse it.
    pub fn tracer(&self) -> Tracer {
        Tracer(
            self.inner
                .as_ref()
                .and_then(|inner| inner.borrow().trace.clone()),
        )
    }

    /// Add `n` to counter `name`. The first write to a name allocates
    /// it; later ones allocate nothing.
    pub fn count(&self, name: &str, n: u64) {
        self.with_values(|v| with_slot(&mut v.counters, name, |c| *c = c.wrapping_add(n)));
    }

    /// Set counter `name` to an absolute total (idempotent export-style
    /// mirroring of a component's own stats).
    pub fn set_counter(&self, name: &str, total: u64) {
        self.with_values(|v| with_slot(&mut v.counters, name, |c| *c = total));
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.with_values(|v| with_slot(&mut v.gauges, name, |g| *g = value));
    }

    /// Observe `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_values(|v| with_slot(&mut v.histograms, name, |h| h.observe(value)));
    }

    /// Set histogram `name` to `hist` (absolute and idempotent, like
    /// [`Telemetry::set_counter`]); an empty `hist` still writes the name.
    pub fn set_histogram(&self, name: &str, hist: &Histogram) {
        self.with_values(|v| with_slot(&mut v.histograms, name, |h| h.clone_from(hist)));
    }

    /// Apply `f` to the value registry, when this handle records.
    fn with_values(&self, f: impl FnOnce(&mut Registry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.borrow_mut().values);
        }
    }

    /// Record a structured event at simulated time `t_ns`, retained in the
    /// registry.
    pub fn event(&self, t_ns: u64, kind: &'static str, fields: &[(&'static str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().values.events.push(Event {
            t_ns,
            kind,
            fields: fields.into(),
        });
    }

    /// Record a completed span over simulated time and observe its
    /// duration into the `span.<name>.ns` histogram.
    pub fn record_span(&self, name: &str, start_ns: u64, end_ns: u64) {
        let Some(inner) = &self.inner else { return };
        let record = SpanRecord {
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        let duration = record.duration_ns();
        inner.borrow_mut().values.spans.push(record);
        self.observe(&format!("span.{name}.ns"), duration);
    }

    /// A fresh sub-registry, enabled iff this handle is enabled. Scopes
    /// isolate absolute-total exports (`set_counter`-style mirroring) from
    /// one another: record each scenario, shard, or trial into its own
    /// scope and fold finished scopes back with [`Telemetry::absorb`] so
    /// totals accumulate instead of overwriting.
    pub fn scope(&self) -> Telemetry {
        match self.trace_capacity() {
            Some(capacity) => Telemetry::with_trace(capacity),
            None if self.is_enabled() => Telemetry::enabled(),
            None => Telemetry::disabled(),
        }
    }

    /// Fold a finished scope's totals into this handle (counters add,
    /// gauges overwrite, histograms bucket-add, spans/events append).
    /// Absorbing in a fixed order keeps merged registries deterministic
    /// regardless of which worker produced each scope.
    pub fn absorb(&self, sub: &Telemetry) {
        if self.is_enabled() {
            self.merge_registry(&sub.snapshot());
        }
    }

    /// Fold an already-snapshotted registry into this live handle
    /// (deterministic sub-shard merging, e.g. the run service folding a
    /// campaign's per-trial registries). Spans and events are re-sorted by
    /// (sim-time, name) after the append, so the merged order never
    /// depends on absorb call order; trace records append in merge order
    /// (trial grouping is the point) without the live ring bound.
    pub fn merge_registry(&self, other: &Registry) {
        let Some(inner) = &self.inner else { return };
        let inner = &mut *inner.borrow_mut();
        inner.values.merge_metrics(other);
        if !other.trace.is_empty() {
            if let Some(buf) = &inner.trace {
                buf.borrow_mut().extend_unbounded(&other.trace);
            }
        }
    }

    /// An owned snapshot of everything recorded so far. When the flight
    /// recorder is attached, the snapshot carries its records and mirrors
    /// the eviction count into the `telemetry.trace.dropped` counter.
    pub fn snapshot(&self) -> Registry {
        match &self.inner {
            Some(inner) => inner.borrow().snapshot(),
            None => Registry::new(),
        }
    }

    /// Whether no other handle or tracer shares this handle's registry or
    /// trace ring, so that [`Telemetry::into_registry`] moves them out
    /// instead of copying. A disabled handle shares nothing.
    pub fn is_unshared(&self) -> bool {
        self.inner.as_ref().is_none_or(|inner| {
            Rc::strong_count(inner) == 1
                && inner
                    .borrow()
                    .trace
                    .as_ref()
                    .is_none_or(|ring| Rc::strong_count(ring) == 1)
        })
    }

    /// Hand the registry off as a value equal to [`Telemetry::snapshot`].
    /// When this is its last clone — the world that recorded into it has
    /// been dropped — names and values move out instead of being copied;
    /// otherwise this falls back to a snapshot.
    pub fn into_registry(self) -> Registry {
        match self.inner.map(Rc::try_unwrap) {
            Some(Ok(inner)) => inner.into_inner().into_registry(),
            Some(Err(shared)) => shared.borrow().snapshot(),
            None => Registry::new(),
        }
    }
}

/// One reusable buffer for a family of metric names `<stem>.<leaf>`.
/// Exporters that write many names under one stem build each name in
/// place, so a name costs no allocation of its own:
///
/// ```
/// use underradar_telemetry::{MetricName, Telemetry};
///
/// let tel = Telemetry::enabled();
/// let mut name = MetricName::new("ids");
/// tel.set_counter(name.leaf("packets"), 7);
/// name.stem(|s| s.push_str("surveil.store.content"));
/// tel.set_counter(name.leaf("bytes"), 40);
/// let snap = tel.snapshot();
/// assert_eq!(snap.counter("ids.packets"), 7);
/// assert_eq!(snap.counter("surveil.store.content.bytes"), 40);
/// ```
#[derive(Debug, Default)]
pub struct MetricName {
    buf: String,
    stem: usize,
}

impl MetricName {
    /// A buffer whose stem is `stem`.
    pub fn new(stem: &str) -> MetricName {
        let mut name = MetricName::default();
        name.stem(|s| s.push_str(stem));
        name
    }

    /// Replace the stem with what `write` puts into the cleared buffer.
    pub fn stem(&mut self, write: impl FnOnce(&mut String)) {
        self.buf.clear();
        write(&mut self.buf);
        self.buf.push('.');
        self.stem = self.buf.len();
    }

    /// The name `<stem>.<leaf>`.
    pub fn leaf(&mut self, leaf: &str) -> &str {
        self.buf.truncate(self.stem);
        self.buf.push_str(leaf);
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.count("c", 1);
        tel.set_gauge("g", 7);
        tel.set_histogram("h2", &Histogram::new());
        tel.observe("h", 3);
        tel.event(1, "e", &[("k", 1u64.into())]);
        tel.record_span("s", 0, 10);
        assert!(tel.snapshot().is_empty());
    }

    #[test]
    fn a_handle_is_unshared_once_its_clones_and_tracers_are_gone() {
        assert!(Telemetry::disabled().is_unshared());
        let tel = Telemetry::with_trace(8);
        assert!(tel.is_unshared());
        let clone = tel.clone();
        assert!(!tel.is_unshared(), "a clone shares the registry");
        drop(clone);
        let tracer = tel.tracer();
        assert!(!tel.is_unshared(), "a tracer shares the ring");
        drop(tracer);
        assert!(tel.is_unshared());
    }

    #[test]
    fn clone_shares_registry() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.count("shared", 4);
        assert_eq!(tel.snapshot().counter("shared"), 4);
    }

    #[test]
    fn span_records_and_feeds_histogram() {
        let tel = Telemetry::enabled();
        tel.record_span("phase", 100, 350);
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].duration_ns(), 250);
        assert_eq!(snap.histogram("span.phase.ns").unwrap().sum(), 250);
    }

    #[test]
    fn events_are_retained_in_the_registry() {
        let tel = Telemetry::enabled();
        tel.event(1, "k", &[]);
        let events = tel.snapshot().events;
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].t_ns, events[0].kind), (1, "k"));
    }

    #[test]
    fn merge_registry_folds_everything() {
        let src = Telemetry::enabled();
        src.count("c", 2);
        src.set_gauge("g", -1);
        src.observe("h", 9);
        src.record_span("s", 0, 5);
        let snap = src.snapshot();

        let dst = Telemetry::enabled();
        dst.count("c", 1);
        dst.merge_registry(&snap);
        let merged = dst.snapshot();
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.gauge("g"), -1);
        assert_eq!(merged.histogram("h").unwrap().count(), 1);
        assert_eq!(merged.spans.len(), 1);
    }

    #[test]
    fn scope_and_absorb_accumulate_absolute_totals() {
        let parent = Telemetry::enabled();
        for _ in 0..3 {
            let sub = parent.scope();
            assert!(sub.is_enabled());
            sub.set_counter("x.total", 5); // absolute total per scope
            parent.absorb(&sub);
        }
        assert_eq!(parent.snapshot().counter("x.total"), 15);
    }

    #[test]
    fn disabled_parent_yields_disabled_scope() {
        let parent = Telemetry::disabled();
        let sub = parent.scope();
        assert!(!sub.is_enabled());
        parent.absorb(&sub); // no-op, must not panic
        assert!(parent.snapshot().is_empty());
    }

    #[test]
    fn configured_trace_capacity_pins_eviction_counting() {
        // A 2-record ring keeps the newest records, evicts the oldest
        // deterministically, and mirrors the eviction count into the
        // `telemetry.trace.dropped` counter at snapshot time.
        let tel = Telemetry::with_trace(2);
        assert_eq!(tel.trace_capacity(), Some(2));
        let tracer = tel.tracer();
        for t in 1..=5u64 {
            tracer.record(TraceRecord {
                t_ns: t,
                seq: 0,
                stage: "link",
                kind: "drop",
                flow: None,
                fields: vec![],
            });
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("telemetry.trace.dropped"), 3);
        let times: Vec<u64> = snap.trace.iter().map(|r| r.t_ns).collect();
        assert_eq!(times, vec![4, 5], "newest records survive");
        // The default-capacity handle reports the documented default.
        assert_eq!(
            Telemetry::with_trace(DEFAULT_TRACE_CAPACITY).trace_capacity(),
            Some(DEFAULT_TRACE_CAPACITY)
        );
    }

    #[test]
    fn set_counter_is_idempotent() {
        let tel = Telemetry::enabled();
        tel.set_counter("total", 10);
        tel.set_counter("total", 10);
        assert_eq!(tel.snapshot().counter("total"), 10);
    }

    #[test]
    fn set_histogram_is_absolute_and_writes_empty_histograms() {
        let tel = Telemetry::enabled();
        tel.set_histogram("empty", &Histogram::new());
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(9);
        tel.observe("h", 100);
        tel.set_histogram("h", &h);
        tel.set_histogram("h", &h);
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("empty").map(Histogram::count), Some(0));
        assert_eq!(snap.histogram("h"), Some(&h));
    }
}
