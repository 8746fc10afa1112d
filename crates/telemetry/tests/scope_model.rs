//! A scope against a plain model: random operation sequences over a pool
//! of names that share prefixes, run through a live [`Telemetry`] scope
//! and through `BTreeMap`s written out by hand. Whatever a scope stores
//! internally — plain values, cells shared with handles — its snapshot
//! and its by-move hand-off must equal the model, and the accumulator
//! rule must equal [`Registry::merge`]. Inputs come from the in-tree
//! seeded generator ([`underradar_netsim::testprop`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use underradar_netsim::testprop::{cases, Gen};
use underradar_telemetry::codec::encode_registry;
use underradar_telemetry::{
    Counter, Event, FieldValue, Gauge, Histogram, HistogramHandle, Registry, SpanRecord, Telemetry,
    TraceRecord,
};

/// Names that share prefixes, so a map keyed by name must keep them apart.
const NAMES: [&str; 6] = ["a", "a.b", "a.b.c", "ab", "a.c", "b"];
const KINDS: [&str; 3] = ["censor.tap.action", "k", "a"];
/// The flight recorder's ring capacity when tracing is on: small, so
/// evictions happen.
const TRACE_CAPACITY: usize = 3;

enum Handle {
    Counter(Counter, &'static str),
    Gauge(Gauge, &'static str),
    Histogram(HistogramHandle, &'static str),
}

/// What the scope should hold, kept in plain maps.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    events: Vec<Event>,
    trace: VecDeque<TraceRecord>,
    dropped: u64,
}

impl Model {
    fn counter(&mut self, name: &str) -> &mut u64 {
        self.counters.entry(name.to_string()).or_default()
    }

    fn gauge(&mut self, name: &str) -> &mut i64 {
        self.gauges.entry(name.to_string()).or_default()
    }

    fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    fn registry(&self, tracing: bool) -> Registry {
        let mut counters = self.counters.clone();
        if tracing {
            *counters
                .entry("telemetry.trace.dropped".to_string())
                .or_default() += self.dropped;
        }
        Registry {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            spans: self.spans.clone(),
            events: self.events.clone(),
            trace: self.trace.iter().cloned().collect(),
        }
    }
}

fn small(g: &mut Gen) -> u64 {
    if g.bool() {
        u64::from(g.u8())
    } else {
        g.u64()
    }
}

/// Run one random operation against both the scope and the model.
fn step(g: &mut Gen, tel: &Telemetry, handles: &mut Vec<Handle>, model: &mut Model) {
    let name = *g.choose(&NAMES);
    match g.usize_in(0, 9) {
        0 => {
            let handle = match g.usize_in(0, 2) {
                0 => {
                    model.counter(name);
                    Handle::Counter(tel.counter(name), name)
                }
                1 => {
                    model.gauge(name);
                    Handle::Gauge(tel.gauge(name), name)
                }
                _ => {
                    model.histogram(name);
                    Handle::Histogram(tel.histogram(name), name)
                }
            };
            handles.push(handle);
        }
        1 | 2 if !handles.is_empty() => {
            let i = g.usize_in(0, handles.len() - 1);
            let v = small(g);
            match &handles[i] {
                Handle::Counter(c, name) if g.bool() => {
                    c.add(v);
                    let total = model.counter(name);
                    *total = total.wrapping_add(v);
                }
                Handle::Counter(c, name) => {
                    c.set(v);
                    *model.counter(name) = v;
                }
                Handle::Gauge(gauge, name) => {
                    gauge.set(v as i64);
                    *model.gauge(name) = v as i64;
                }
                Handle::Histogram(h, name) => {
                    h.observe(v);
                    model.histogram(name).observe(v);
                }
            }
        }
        3 => {
            let n = small(g);
            tel.count(name, n);
            let total = model.counter(name);
            *total = total.wrapping_add(n);
        }
        4 => {
            let v = small(g);
            tel.set_counter(name, v);
            *model.counter(name) = v;
        }
        5 => {
            let v = small(g) as i64;
            tel.set_gauge(name, v);
            *model.gauge(name) = v;
        }
        6 => {
            let v = small(g);
            tel.observe(name, v);
            model.histogram(name).observe(v);
        }
        7 => {
            let start = u64::from(g.u16());
            let end = u64::from(g.u16());
            tel.record_span(name, start, end);
            let span = SpanRecord {
                name: name.to_string(),
                start_ns: start,
                end_ns: end,
            };
            model
                .histogram(&format!("span.{name}.ns"))
                .observe(span.duration_ns());
            model.spans.push(span);
        }
        8 => {
            let t_ns = u64::from(g.u8());
            let kind = *g.choose(&KINDS);
            let fields = [("n", FieldValue::U64(small(g)))];
            tel.event(t_ns, kind, &fields);
            model.events.push(Event {
                t_ns,
                kind,
                fields: Arc::new(fields),
            });
        }
        _ => {
            let kind = *g.choose(&KINDS);
            let record = TraceRecord {
                t_ns: u64::from(g.u8()),
                seq: 0,
                stage: "mvr",
                kind,
                flow: None,
                fields: vec![],
            };
            if tel.tracer().is_live() {
                if model.trace.len() >= TRACE_CAPACITY {
                    model.trace.pop_front();
                    model.dropped += 1;
                }
                model.trace.push_back(record.clone());
            }
            tel.tracer().record(record);
        }
    }
}

/// An accumulator as a trial's might look: empty at attempt 0 without
/// tracing; with a trial-start marker, retry counters and earlier
/// attempts' records otherwise.
fn accumulator(g: &mut Gen) -> Registry {
    let mut acc = Registry::new();
    if g.bool() {
        return acc;
    }
    acc.trace.push(TraceRecord {
        t_ns: 0,
        seq: 0,
        stage: "campaign",
        kind: "trial_start",
        flow: None,
        fields: vec![("trial", FieldValue::U64(small(g)))],
    });
    if g.bool() {
        acc.counters
            .insert("campaign.retries".to_string(), small(g));
        acc.counters.insert("a.b".to_string(), small(g));
        acc.gauges.insert("ab".to_string(), small(g) as i64);
        let mut h = Histogram::new();
        h.observe(small(g));
        acc.histograms.insert("a".to_string(), h);
        acc.spans.push(SpanRecord {
            name: "b".to_string(),
            start_ns: u64::from(g.u8()),
            end_ns: u64::from(g.u8()),
        });
        acc.events.push(Event {
            t_ns: u64::from(g.u8()),
            kind: "k",
            fields: Arc::new([]),
        });
    }
    acc
}

#[test]
fn snapshot_and_hand_off_equal_a_plain_model() {
    cases(300, 0x5c0_9e01, |g| {
        let tracing = g.bool();
        let tel = if tracing {
            Telemetry::with_trace(TRACE_CAPACITY)
        } else {
            Telemetry::enabled()
        };
        let mut handles = Vec::new();
        let mut model = Model::default();
        for _ in 0..g.usize_in(0, 60) {
            step(g, &tel, &mut handles, &mut model);
        }

        let expected = model.registry(tracing);
        let snap = tel.snapshot();
        assert_eq!(snap, expected, "snapshot must equal the model");

        // The hand-off moves when it holds the last clone and copies
        // otherwise; both must give the snapshot's registry, byte for byte.
        let other_clone = g.bool().then(|| tel.clone());
        let handed = tel.into_registry();
        drop(other_clone);
        assert_eq!(handed, snap, "into_registry must equal the snapshot");
        assert_eq!(handed.to_json(), snap.to_json());
        assert_eq!(encode_registry(&handed), encode_registry(&snap));

        // The engine's accumulator rule is Registry::merge.
        let acc = accumulator(g);
        let mut merged = acc.clone();
        merged.merge(&handed);
        let mut accumulated = acc;
        accumulated.accumulate(handed);
        assert_eq!(accumulated, merged, "accumulate must equal merge");
        assert_eq!(encode_registry(&accumulated), encode_registry(&merged));
    });
}
