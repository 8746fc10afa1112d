//! Deterministic observability for the measurement pipeline.
//!
//! The paper's safety argument is quantitative — what the MVR retains, what
//! each store tier holds, what the analyst queue costs — so every subsystem
//! records into a shared, deterministic metric registry instead of ad-hoc
//! stat structs. Three design rules:
//!
//! 1. **Zero overhead when disabled.** A [`Telemetry`] handle is either
//!    live or a null handle; pre-resolved [`Counter`]/[`Gauge`]/
//!    [`HistogramHandle`]s cost one null check per operation when disabled.
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
//! let pkts = tel.counter("netsim.events");
//! pkts.add(3);
//! tel.observe("ids.segment_bytes", 1460);
//! tel.record_span("experiment.demo", 0, 2_000_000_000);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("netsim.events"), 3);
//! assert!(snap.to_json().starts_with("{\"counters\""));
//!
//! let off = Telemetry::disabled();
//! off.counter("netsim.events").add(1); // a null check, nothing else
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
pub use trace::{
    TraceBuf, TraceFlow, TraceRecord, Tracer, DEFAULT_TRACE_CAPACITY, TRACE_CAPACITY_ENV, TRACE_ENV,
};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use registry::with_slot;

/// Environment variable that turns telemetry on for [`Telemetry::from_env`].
pub const TELEMETRY_ENV: &str = "UNDERRADAR_TELEMETRY";

/// A live registry. Every value is kept plain in `values`, which the
/// hand-off moves out whole. A name gets a shared cell only when a handle
/// is resolved for it; from then on its handles and by-name writes go
/// through that cell, and its entry in `values` is refreshed from the
/// cell when the registry is read.
struct Inner {
    values: Registry,
    counter_cells: BTreeMap<String, Rc<Cell<u64>>>,
    gauge_cells: BTreeMap<String, Rc<Cell<i64>>>,
    histogram_cells: BTreeMap<String, Rc<RefCell<Histogram>>>,
    trace: Option<Rc<RefCell<TraceBuf>>>,
}

impl Inner {
    /// An owned copy of everything recorded (see [`Telemetry::snapshot`]).
    fn snapshot(&self) -> Registry {
        let mut reg = self.values.clone();
        refresh(&mut reg.counters, &self.counter_cells);
        refresh(&mut reg.gauges, &self.gauge_cells);
        for (name, cell) in &self.histogram_cells {
            if let Some(h) = reg.histograms.get_mut(name) {
                h.clone_from(&cell.borrow());
            }
        }
        if let Some(buf) = &self.trace {
            let buf = buf.borrow();
            mirror_trace_dropped(&mut reg.counters, buf.dropped());
            reg.trace = buf.records().cloned().collect();
        }
        reg
    }

    /// [`Inner::snapshot`] by move: names, values, spans and events leave
    /// the scope without a copy, as do histograms and trace records no
    /// handle still shares.
    fn into_registry(self) -> Registry {
        let mut reg = self.values;
        refresh(&mut reg.counters, &self.counter_cells);
        refresh(&mut reg.gauges, &self.gauge_cells);
        for (name, cell) in self.histogram_cells {
            if let Some(h) = reg.histograms.get_mut(&name) {
                *h = Rc::try_unwrap(cell).map_or_else(|c| c.borrow().clone(), RefCell::into_inner);
            }
        }
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

/// Apply `f` to the value named `name`: through its cell when a handle
/// was resolved for it, else in place (the first write allocates the
/// name, later ones nothing).
fn with_value<T: Copy + Default, R>(
    values: &mut BTreeMap<String, T>,
    cells: &BTreeMap<String, Rc<Cell<T>>>,
    name: &str,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    match cells.get(name) {
        Some(cell) => {
            let mut v = cell.get();
            let r = f(&mut v);
            cell.set(v);
            r
        }
        None => with_slot(values, name, f),
    }
}

/// [`with_value`] for histograms.
fn with_histogram<R>(
    values: &mut BTreeMap<String, Histogram>,
    cells: &BTreeMap<String, Rc<RefCell<Histogram>>>,
    name: &str,
    f: impl FnOnce(&mut Histogram) -> R,
) -> R {
    match cells.get(name) {
        Some(cell) => f(&mut cell.borrow_mut()),
        None => with_slot(values, name, f),
    }
}

/// The cell behind `name`, made on first use from its plain value, whose
/// entry stays so the name is read back even if never written.
fn share<T: Copy + Default>(
    values: &mut BTreeMap<String, T>,
    cells: &mut BTreeMap<String, Rc<Cell<T>>>,
    name: &str,
) -> Rc<Cell<T>> {
    if let Some(cell) = cells.get(name) {
        return Rc::clone(cell);
    }
    let cell = Rc::new(Cell::new(with_slot(values, name, |v| *v)));
    cells.insert(name.to_string(), Rc::clone(&cell));
    cell
}

/// Copy each cell's value over its name's plain entry.
fn refresh<T: Copy>(values: &mut BTreeMap<String, T>, cells: &BTreeMap<String, Rc<Cell<T>>>) {
    for (name, cell) in cells {
        if let Some(v) = values.get_mut(name) {
            *v = cell.get();
        }
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
                counter_cells: BTreeMap::new(),
                gauge_cells: BTreeMap::new(),
                histogram_cells: BTreeMap::new(),
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

    /// Enabled iff the `UNDERRADAR_TELEMETRY` environment variable is set
    /// to a non-empty value other than `0`; disabled otherwise. CI runs
    /// the suite both ways. Setting `UNDERRADAR_TRACE` likewise attaches
    /// the flight recorder (and implies telemetry); its ring capacity is
    /// `UNDERRADAR_TRACE_CAPACITY` records when that parses as a positive
    /// integer, [`DEFAULT_TRACE_CAPACITY`] otherwise.
    pub fn from_env() -> Self {
        let env_on = |name: &str| {
            std::env::var_os(name)
                .map(|v| !v.is_empty() && v != *"0")
                .unwrap_or(false)
        };
        if env_on(TRACE_ENV) {
            let capacity = trace::capacity_from_env(std::env::var(TRACE_CAPACITY_ENV).ok())
                .unwrap_or(DEFAULT_TRACE_CAPACITY);
            Telemetry::with_trace(capacity)
        } else if env_on(TELEMETRY_ENV) {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
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

    /// Resolve (creating on first use) a counter handle. Handles for the
    /// same name share one cell with each other and with by-name writes;
    /// resolution is a map lookup, so hot paths should resolve once and
    /// reuse the handle. A resolved name appears in snapshots even if
    /// nothing is ever written to it.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            let inner = &mut *inner.borrow_mut();
            share(&mut inner.values.counters, &mut inner.counter_cells, name)
        }))
    }

    /// Resolve (creating on first use) a gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            let inner = &mut *inner.borrow_mut();
            share(&mut inner.values.gauges, &mut inner.gauge_cells, name)
        }))
    }

    /// Resolve (creating on first use) a histogram handle.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.inner.as_ref().map(|inner| {
            let inner = &mut *inner.borrow_mut();
            if let Some(cell) = inner.histogram_cells.get(name) {
                return Rc::clone(cell);
            }
            let h = with_slot(&mut inner.values.histograms, name, std::mem::take);
            let cell = Rc::new(RefCell::new(h));
            inner
                .histogram_cells
                .insert(name.to_string(), Rc::clone(&cell));
            cell
        }))
    }

    /// Add `n` to counter `name`. By-name writes need no handle: the
    /// first one allocates the name, later ones allocate nothing.
    pub fn count(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let inner = &mut *inner.borrow_mut();
        with_value(
            &mut inner.values.counters,
            &inner.counter_cells,
            name,
            |c| *c = c.wrapping_add(n),
        );
    }

    /// Set counter `name` to an absolute total (idempotent export-style
    /// mirroring of an existing stat struct).
    pub fn set_counter(&self, name: &str, total: u64) {
        let Some(inner) = &self.inner else { return };
        let inner = &mut *inner.borrow_mut();
        with_value(
            &mut inner.values.counters,
            &inner.counter_cells,
            name,
            |c| *c = total,
        );
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: i64) {
        let Some(inner) = &self.inner else { return };
        let inner = &mut *inner.borrow_mut();
        with_value(&mut inner.values.gauges, &inner.gauge_cells, name, |g| {
            *g = value
        });
    }

    /// Observe `value` into histogram `name` (resolves by name).
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let inner = &mut *inner.borrow_mut();
        with_histogram(
            &mut inner.values.histograms,
            &inner.histogram_cells,
            name,
            |h| h.observe(value),
        );
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

    /// Open a scoped span starting at simulated time `start_ns`; finish it
    /// with [`Span::end`].
    pub fn span(&self, name: &str, start_ns: u64) -> Span {
        Span {
            tel: self.clone(),
            name: name.to_string(),
            start_ns,
        }
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
        let values = &mut inner.values;
        for (name, v) in &other.counters {
            with_value(&mut values.counters, &inner.counter_cells, name, |c| {
                *c = c.wrapping_add(*v)
            });
        }
        for (name, v) in &other.gauges {
            with_value(&mut values.gauges, &inner.gauge_cells, name, |g| *g = *v);
        }
        for (name, h) in &other.histograms {
            with_histogram(
                &mut values.histograms,
                &inner.histogram_cells,
                name,
                |mine| mine.merge(h),
            );
        }
        values.spans.extend(other.spans.iter().cloned());
        values.events.extend(other.events.iter().cloned());
        values.sort_records();
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

    /// Hand the registry off as a value equal to [`Telemetry::snapshot`].
    /// When this is its last clone — the world that recorded into it has
    /// been dropped — names and values move out instead of being copied;
    /// otherwise this falls back to a snapshot. Counter and gauge handles
    /// still alive keep their cells but no longer reach the registry.
    pub fn into_registry(self) -> Registry {
        match self.inner.map(Rc::try_unwrap) {
            Some(Ok(inner)) => inner.into_inner().into_registry(),
            Some(Err(shared)) => shared.borrow().snapshot(),
            None => Registry::new(),
        }
    }
}

/// Pre-resolved counter handle; disabled handles cost one null check per op.
#[derive(Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.set(cell.get().wrapping_add(n));
        }
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Overwrite with an absolute total (export-style mirroring).
    #[inline]
    pub fn set(&self, total: u64) {
        if let Some(cell) = &self.0 {
            cell.set(total);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map(|c| c.get()).unwrap_or(0)
    }

    /// Whether this handle records.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

/// Pre-resolved gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Option<Rc<Cell<i64>>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.set(value);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map(|c| c.get()).unwrap_or(0)
    }
}

/// Pre-resolved histogram handle.
#[derive(Clone, Default)]
pub struct HistogramHandle(Option<Rc<RefCell<Histogram>>>);

impl HistogramHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        HistogramHandle(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.borrow_mut().observe(value);
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

/// An open span; call [`Span::end`] with the simulated end time to record.
#[derive(Debug)]
pub struct Span {
    tel: Telemetry,
    name: String,
    start_ns: u64,
}

impl Span {
    /// Close the span at simulated time `end_ns`.
    pub fn end(self, end_ns: u64) {
        self.tel.record_span(&self.name, self.start_ns, end_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("c").incr();
        tel.set_gauge("g", 7);
        tel.observe("h", 3);
        tel.event(1, "e", &[("k", 1u64.into())]);
        tel.record_span("s", 0, 10);
        assert!(tel.snapshot().is_empty());
    }

    #[test]
    fn handles_share_cells_by_name() {
        let tel = Telemetry::enabled();
        let a = tel.counter("x");
        let b = tel.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(tel.snapshot().counter("x"), 5);
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
        let span = tel.span("phase", 100);
        span.end(350);
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].duration_ns(), 250);
        assert_eq!(snap.histogram("span.phase.ns").unwrap().sum(), 250);
    }

    #[test]
    fn events_are_retained_in_the_registry() {
        let tel = Telemetry::enabled();
        tel.event(1, "k", &[]);
        assert_eq!(tel.snapshot().to_jsonl(), "{\"t_ns\":1,\"kind\":\"k\"}\n");
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
}
