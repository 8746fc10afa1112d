//! Property tests for the histogram and the registry codec, driven by the
//! in-tree seeded property harness `netsim::testprop` (a dev-only
//! dependency — the library itself is dependency-free).

use std::sync::Arc;

use underradar_netsim::testprop;
use underradar_telemetry::codec::{decode_registry, encode_registry};
use underradar_telemetry::{
    Event, FieldValue, Histogram, Registry, SpanRecord, StreamMerger, Telemetry, TraceRecord,
    BUCKET_COUNT,
};

fn arbitrary_value(g: &mut testprop::Gen) -> u64 {
    // Mix small values (dense low buckets) with full-range ones.
    if g.bool() {
        u64::from(g.u16())
    } else {
        g.u64()
    }
}

fn arbitrary_hist(g: &mut testprop::Gen, max_obs: usize) -> Histogram {
    let n = g.usize_in(0, max_obs);
    let mut h = Histogram::new();
    for _ in 0..n {
        h.observe(arbitrary_value(g));
    }
    h
}

#[test]
fn merge_is_associative_and_commutative() {
    testprop::cases(200, 0x1e1e_0001, |g| {
        let a = arbitrary_hist(g, 40);
        let b = arbitrary_hist(g, 40);
        let c = arbitrary_hist(g, 40);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
    });
}

#[test]
fn bucket_index_is_monotone_and_bounds_are_consistent() {
    testprop::cases(500, 0x1e1e_0002, |g| {
        let v = arbitrary_value(g);
        let w = arbitrary_value(g);
        let (lo, hi) = (v.min(w), v.max(w));
        assert!(
            Histogram::bucket_index(lo) <= Histogram::bucket_index(hi),
            "bucket index must be monotone: {lo} -> {hi}"
        );
        let i = Histogram::bucket_index(v);
        assert!(i < BUCKET_COUNT);
        let (b_lo, b_hi) = Histogram::bucket_bounds(i);
        assert!(b_lo <= v && v <= b_hi, "v={v} outside bucket {i}");
    });
}

#[test]
fn count_is_conserved_under_sharded_merge() {
    testprop::cases(100, 0x1e1e_0003, |g| {
        // One logical stream of observations, split across 1..8 shards in
        // round-robin order, then merged — totals and every bucket must
        // equal the unsharded histogram.
        let n = g.usize_in(0, 200);
        let values: Vec<u64> = (0..n).map(|_| arbitrary_value(g)).collect();
        let shards = g.usize_in(1, 8);

        let mut whole = Histogram::new();
        for &v in &values {
            whole.observe(v);
        }

        let mut parts = vec![Histogram::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].observe(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }

        assert_eq!(merged, whole, "sharded merge must conserve all buckets");
        assert_eq!(merged.count() as usize, n);
        let bucket_total: u64 = merged.buckets().iter().sum();
        assert_eq!(bucket_total, merged.count(), "buckets must sum to count");
    });
}

/// A registry exercising every codec section, with extreme counter values
/// so that merges reach the overflow edge.
fn arbitrary_registry(g: &mut testprop::Gen) -> Registry {
    const KINDS: [&str; 3] = ["censor.tap.action", "censor.inline.action", "verdict"];
    const KEYS: [&str; 3] = ["kind", "client", "n"];
    let mut r = Registry::new();
    for _ in 0..g.usize_in(0, 4) {
        let v = if g.bool() {
            u64::MAX - u64::from(g.u8())
        } else {
            g.u64()
        };
        r.counters.insert(g.printable(1, 10), v);
    }
    for _ in 0..g.usize_in(0, 3) {
        r.gauges.insert(g.printable(1, 10), g.u64() as i64);
    }
    for _ in 0..g.usize_in(0, 3) {
        r.histograms
            .insert(g.printable(1, 10), arbitrary_hist(g, 6));
    }
    for _ in 0..g.usize_in(0, 3) {
        let start_ns = g.u64();
        r.spans.push(SpanRecord {
            name: g.printable(1, 10),
            start_ns,
            end_ns: start_ns.saturating_add(u64::from(g.u32())),
        });
    }
    for _ in 0..g.usize_in(0, 4) {
        let fields: Vec<(&'static str, FieldValue)> = (0..g.usize_in(0, 3))
            .map(|_| {
                let v = match g.usize_in(0, 3) {
                    0 => FieldValue::U64(g.u64()),
                    1 => FieldValue::I64(g.u64() as i64),
                    _ => FieldValue::Str(g.printable(0, 12)),
                };
                (*g.choose(&KEYS), v)
            })
            .collect();
        r.events.push(Event {
            t_ns: g.u64(),
            kind: KINDS[g.usize_in(0, KINDS.len())],
            fields: fields.into(),
        });
    }
    for _ in 0..g.usize_in(0, 2) {
        r.trace.push(TraceRecord {
            t_ns: g.u64(),
            seq: g.u64(),
            stage: "censor",
            kind: "rst_pair",
            flow: None,
            fields: vec![("rule", FieldValue::U64(g.u64()))],
        });
    }
    r
}

/// Everything a consumer does with a decoded registry; none of it may
/// panic, whatever the decoder accepted.
fn exercise(decoded: &Registry, valid: &Registry) {
    let mut merged = decoded.clone();
    merged.merge(decoded);
    merged.merge(valid);
    let mut other_way = valid.clone();
    other_way.merge(decoded);
    for r in [decoded, &merged, &other_way] {
        let _ = r.to_json();
        let _ = r.to_jsonl();
        let _ = r.render_text();
    }
    let mut merger = StreamMerger::new();
    merger.absorb(1, decoded);
    merger.absorb(0, decoded);
    let _ = merger.finish().to_json();
    let tel = Telemetry::enabled();
    tel.merge_registry(decoded);
    tel.merge_registry(decoded);
    let _ = tel.snapshot().render_text();
}

#[test]
fn registry_codec_round_trips_every_reachable_registry() {
    testprop::cases(200, 0x1e1e_0004, |g| {
        let reg = arbitrary_registry(g);
        let back = decode_registry(&encode_registry(&reg)).expect("valid encoding decodes");
        assert_eq!(back, reg);
        assert_eq!(back.to_json(), reg.to_json());
    });
}

#[test]
fn decode_registry_never_panics_on_arbitrary_bytes() {
    testprop::cases(2_000, 0x1e1e_0005, |g| {
        let bytes = g.bytes(0, 160);
        if let Ok(decoded) = decode_registry(&bytes) {
            exercise(&decoded, &Registry::new());
        }
    });
}

#[test]
fn decode_registry_never_panics_on_mutated_encodings() {
    testprop::cases(2_000, 0x1e1e_0006, |g| {
        let valid = arbitrary_registry(g);
        let mut bytes = encode_registry(&valid);
        if bytes.is_empty() {
            return;
        }
        for _ in 0..g.usize_in(1, 4) {
            let at = g.usize_in(0, bytes.len());
            match g.usize_in(0, 4) {
                // Flip one bit.
                0 => bytes[at] ^= 1 << g.u8_in(0, 8),
                // Overwrite one byte.
                1 => bytes[at] = g.u8(),
                // Saturate a word: huge lengths, counts and extremes.
                2 => {
                    let end = (at + 8).min(bytes.len());
                    bytes[at..end].fill(0xFF);
                }
                // Cut the payload short.
                _ => bytes.truncate(at),
            }
            if bytes.is_empty() {
                break;
            }
        }
        if let Ok(decoded) = decode_registry(&bytes) {
            exercise(&decoded, &valid);
        }
    });
}

#[test]
fn inconsistent_histogram_parts_are_rejected() {
    let mut buckets = [0u64; BUCKET_COUNT];
    buckets[Histogram::bucket_index(5)] = 1;
    assert!(Histogram::from_parts(1, 5, 5, 5, buckets).is_some());
    // min above max: the quantile clamp would panic on this histogram.
    assert!(Histogram::from_parts(1, 5, 6, 5, buckets).is_none());
    // Buckets that do not sum to the count.
    assert!(Histogram::from_parts(2, 5, 5, 5, buckets).is_none());
    // min/max outside the lowest/highest non-empty bucket.
    assert!(Histogram::from_parts(1, 5, 1, 5, buckets).is_none());
    assert!(Histogram::from_parts(1, 5, 5, 900, buckets).is_none());
    // An empty histogram is all zeros.
    let empty = [0u64; BUCKET_COUNT];
    assert_eq!(
        Histogram::from_parts(0, 0, 0, 0, empty),
        Some(Histogram::new())
    );
    assert!(Histogram::from_parts(0, 0, 0, 3, empty).is_none());
    // Buckets whose sum overflows.
    let mut huge = [0u64; BUCKET_COUNT];
    huge[1] = u64::MAX;
    huge[2] = 1;
    assert!(Histogram::from_parts(0, 0, 1, 2, huge).is_none());
}

#[test]
fn merges_wrap_instead_of_panicking() {
    let mut r = Registry::new();
    r.counters.insert("c".into(), u64::MAX);
    let mut h = Histogram::new();
    h.observe(3);
    r.histograms.insert("h".into(), h);
    r.events.push(Event {
        t_ns: 1,
        kind: "k",
        fields: Arc::new([]),
    });
    let copy = r.clone();
    r.merge(&copy);
    assert_eq!(
        r.counter("c"),
        u64::MAX - 1,
        "counters wrap as Telemetry::count does"
    );
    let mut merger = StreamMerger::new();
    merger.absorb(0, &copy);
    merger.absorb(1, &copy);
    assert_eq!(merger.finish().counter("c"), u64::MAX - 1);
    let tel = Telemetry::enabled();
    tel.merge_registry(&copy);
    tel.merge_registry(&copy);
    assert_eq!(tel.snapshot().counter("c"), u64::MAX - 1);
}
