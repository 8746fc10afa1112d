//! Property tests for the histogram, the registry codec, the id-keyed
//! delta and the JSON writer, driven by the in-tree seeded property
//! harness `netsim::testprop` (a dev-only dependency — the library itself
//! is dependency-free).

use std::net::Ipv4Addr;
use std::sync::Arc;

use underradar_netsim::testprop;
use underradar_telemetry::codec::{decode_registry, encode_registry, put_delta};
use underradar_telemetry::{
    json, Delta, Event, FieldValue, Histogram, Registry, SpanRecord, StreamMerger, Telemetry,
    TraceRecord, BUCKET_COUNT,
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
    const LABELS: [&str; 3] = ["ip_drop", "keyword_rst", ""];
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
                let v = match g.usize_in(0, 5) {
                    0 => FieldValue::U64(g.u64()),
                    1 => FieldValue::I64(g.u64() as i64),
                    2 => FieldValue::Static(LABELS[g.usize_in(0, LABELS.len())]),
                    3 => FieldValue::Addr(Ipv4Addr::from(g.u32())),
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

/// An id-keyed delta is its registry in another form: it converts back
/// equal, encodes to the same bytes, folds as [`Registry::merge`] does,
/// and merges in a [`StreamMerger`] as the registry does.
#[test]
fn id_keyed_deltas_equal_their_registries() {
    testprop::cases(300, 0x1e1e_0007, |g| {
        let reg = arbitrary_registry(g);
        let delta = Delta::from(reg.clone());
        assert_eq!(delta.to_registry(), reg);
        let mut bytes = Vec::new();
        put_delta(&mut bytes, &delta);
        assert_eq!(bytes, encode_registry(&reg), "a delta encodes with names");

        // Recorded through a live scope in reverse name order, the delta
        // still encodes in name order.
        let tel = Telemetry::enabled();
        for (name, &v) in reg.counters.iter().rev() {
            tel.set_counter(name, v);
        }
        for (name, &v) in reg.gauges.iter().rev() {
            tel.set_gauge(name, v);
        }
        for (name, h) in reg.histograms.iter().rev() {
            tel.set_histogram(name, h);
        }
        let metrics = Registry {
            counters: reg.counters.clone(),
            gauges: reg.gauges.clone(),
            histograms: reg.histograms.clone(),
            ..Registry::new()
        };
        let mut bytes = Vec::new();
        put_delta(&mut bytes, &tel.into_delta());
        assert_eq!(bytes, encode_registry(&metrics));

        // Half of `reg`'s names recur in `other`, so folds and merges meet
        // names both sides wrote.
        let mut other = arbitrary_registry(g);
        for name in reg.counters.keys() {
            if g.bool() {
                other.counters.insert(name.clone(), g.u64());
            }
        }
        for name in reg.gauges.keys() {
            if g.bool() {
                other.gauges.insert(name.clone(), g.u64() as i64);
            }
        }
        for name in reg.histograms.keys() {
            if g.bool() {
                other.histograms.insert(name.clone(), arbitrary_hist(g, 6));
            }
        }
        let mut by_name = reg.clone();
        by_name.merge(&other);
        let mut by_id = delta.clone();
        by_id.accumulate(Delta::from(other.clone()));
        assert_eq!(by_id.into_registry(), by_name);

        let mut named = StreamMerger::new();
        named.absorb(3, &reg);
        named.absorb(1, &other);
        let mut interned = StreamMerger::new();
        interned.absorb_delta(1, Delta::from(other.clone()));
        interned.absorb_delta(3, delta);
        let (named, interned) = (named.finish(), interned.finish());
        assert_eq!(interned, named);
        assert_eq!(interned.to_json(), named.to_json());
        assert_eq!(encode_registry(&interned), encode_registry(&named));
    });
}

mod oracle {
    /// The escaper `json::escape_into` replaced, one char at a time.
    pub fn escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }
}

#[test]
fn json_escape_matches_the_char_at_a_time_oracle() {
    const PIECES: [&str; 12] = [
        "\"", "\\", "a", "Z", " ", "~", "é", "中", "🦀", "\u{7f}", "\u{2028}", "ab\"cd\\",
    ];
    for c in (0..0x20u8)
        .map(char::from)
        .chain(['"', '\\', '\u{7f}', 'é'])
    {
        let s = c.to_string();
        assert_eq!(json::escape(&s), oracle::escape(&s), "{c:?}");
    }
    assert_eq!(json::escape(""), "");
    testprop::cases(3_000, 0x1e1e_0008, |g| {
        let mut s = String::new();
        for _ in 0..g.usize_in(0, 24) {
            if g.bool() {
                s.push(char::from(g.u8_in(0, 0x20)));
            } else {
                s.push_str(PIECES[g.usize_in(0, PIECES.len())]);
            }
        }
        assert_eq!(json::escape(&s), oracle::escape(&s), "{s:?}");
        let mut quoted = String::from("x");
        json::push_str_value(&mut quoted, &s);
        assert_eq!(quoted, format!("x\"{}\"", oracle::escape(&s)));
    });
}

#[test]
fn push_num_matches_the_formatter() {
    testprop::cases(3_000, 0x1e1e_0009, |g| {
        let (u, i) = (
            g.u64() >> g.u8_in(0, 64),
            (g.u64() >> g.u8_in(0, 64)) as i64,
        );
        let i = if g.bool() { i.wrapping_neg() } else { i };
        let mut out = String::new();
        json::push_num(&mut out, u);
        out.push(',');
        json::push_num(&mut out, i);
        assert_eq!(out, format!("{u},{i}"));
    });
}
