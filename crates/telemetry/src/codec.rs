//! Compact binary serialization of [`Registry`] deltas for the checkpoint
//! journal (and anything else that persists telemetry between processes).
//!
//! The JSON renderings are lossy — `to_json` drops the trace, trace JSONL
//! drops everything else — and neither round-trips. This codec is exact:
//! `decode_registry(&encode_registry(r)) == r` for every registry,
//! including flight-recorder records, so a resumed run replays journaled
//! deltas into precisely the registries the interrupted run produced.
//!
//! Format: little-endian fixed-width integers, length-prefixed UTF-8
//! strings, one section per registry field in declaration order. No
//! self-description — the journal wrapping these bytes carries version and
//! checksum; the codec only needs to fail cleanly ([`CodecError`], never a
//! panic) on truncated or corrupt payloads that slip through.
//!
//! Decoded [`TraceRecord`]s and [`Event`]s need `&'static str` stage, kind
//! and field names; the decoder leaks each **unique** string once into a
//! process-wide intern pool ([`intern_static`]). These names form a small
//! closed set, so the leak is bounded and idempotent across any number of
//! decodes.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

use crate::hist::{Histogram, BUCKET_COUNT};
use crate::registry::{Event, FieldValue, Registry, SpanRecord};
use crate::trace::{TraceFlow, TraceRecord};

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure it promised.
    Truncated,
    /// An enum tag byte had no defined meaning.
    BadTag(u8),
    /// A string section held invalid UTF-8.
    BadUtf8,
    /// A bucket index exceeded [`BUCKET_COUNT`].
    BadBucket(u8),
    /// A histogram's parts contradict each other (see
    /// [`Histogram::from_parts`]).
    BadHistogram,
    /// Bytes remained after the registry was fully decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::BadBucket(i) => write!(f, "histogram bucket index {i} out of range"),
            CodecError::BadHistogram => write!(f, "inconsistent histogram parts"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after registry"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Intern a string into the process-wide `&'static str` pool, leaking it
/// on first sight. Used by the decoder to restore the static names of
/// [`TraceRecord`]s and [`Event`]s; idempotent, so repeated decodes of the
/// same journal never grow the pool.
pub fn intern_static(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(&hit) = pool.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---- primitive writers ----

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` (little-endian two's complement).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked sequential reader over a decode payload.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_string)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a length-prefixed UTF-8 string as an interned
    /// `&'static str` (see [`intern_static`]).
    pub fn static_str(&mut self) -> Result<&'static str, CodecError> {
        self.str_ref().map(intern_static)
    }
}

// ---- field values ----

fn put_field_value(out: &mut Vec<u8>, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            out.push(0);
            put_u64(out, *n);
        }
        FieldValue::I64(n) => {
            out.push(1);
            put_i64(out, *n);
        }
        FieldValue::Str(s) => {
            out.push(2);
            put_str(out, s);
        }
    }
}

fn read_field_value(r: &mut Reader<'_>) -> Result<FieldValue, CodecError> {
    match r.u8()? {
        0 => Ok(FieldValue::U64(r.u64()?)),
        1 => Ok(FieldValue::I64(r.i64()?)),
        2 => Ok(FieldValue::Str(r.str()?)),
        t => Err(CodecError::BadTag(t)),
    }
}

// ---- registry ----

/// Serialize a registry exactly (all six sections, trace included).
pub fn encode_registry(reg: &Registry) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_registry(&mut out, reg);
    out
}

/// Append the [`encode_registry`] bytes of `reg` to `out`, so a caller
/// framing the registry inside a larger record encodes it in place.
pub fn put_registry(out: &mut Vec<u8>, reg: &Registry) {
    put_u32(out, reg.counters.len() as u32);
    for (name, v) in &reg.counters {
        put_str(out, name);
        put_u64(out, *v);
    }
    put_u32(out, reg.gauges.len() as u32);
    for (name, v) in &reg.gauges {
        put_str(out, name);
        put_i64(out, *v);
    }
    put_u32(out, reg.histograms.len() as u32);
    for (name, h) in &reg.histograms {
        put_str(out, name);
        put_u64(out, h.count());
        put_u64(out, h.sum());
        put_u64(out, h.min());
        put_u64(out, h.max());
        let buckets = h.buckets();
        put_u32(out, buckets.iter().filter(|&&n| n != 0).count() as u32);
        for (i, &n) in buckets.iter().enumerate().filter(|(_, &n)| n != 0) {
            out.push(i as u8);
            put_u64(out, n);
        }
    }
    put_u32(out, reg.spans.len() as u32);
    for s in &reg.spans {
        put_str(out, &s.name);
        put_u64(out, s.start_ns);
        put_u64(out, s.end_ns);
    }
    put_u32(out, reg.events.len() as u32);
    for e in &reg.events {
        put_u64(out, e.t_ns);
        put_str(out, e.kind);
        put_u32(out, e.fields.len() as u32);
        for (k, v) in e.fields.iter() {
            put_str(out, k);
            put_field_value(out, v);
        }
    }
    put_u32(out, reg.trace.len() as u32);
    for t in &reg.trace {
        put_u64(out, t.t_ns);
        put_u64(out, t.seq);
        put_str(out, t.stage);
        put_str(out, t.kind);
        match &t.flow {
            None => out.push(0),
            Some(flow) => {
                out.push(1);
                out.extend_from_slice(&flow.src.octets());
                out.extend_from_slice(&flow.src_port.to_le_bytes());
                out.extend_from_slice(&flow.dst.octets());
                out.extend_from_slice(&flow.dst_port.to_le_bytes());
            }
        }
        put_u32(out, t.fields.len() as u32);
        for (k, v) in &t.fields {
            put_str(out, k);
            put_field_value(out, v);
        }
    }
}

/// Decode a registry previously produced by [`encode_registry`]. The
/// payload must contain exactly one registry; trailing bytes are an error
/// (a journal record's length prefix delimits the payload).
pub fn decode_registry(bytes: &[u8]) -> Result<Registry, CodecError> {
    let mut r = Reader::new(bytes);
    let reg = read_registry(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(reg)
}

/// Decode a registry from the reader's current position (for callers
/// embedding a registry inside a larger record).
pub fn read_registry(r: &mut Reader<'_>) -> Result<Registry, CodecError> {
    let mut counters = BTreeMap::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        counters.insert(name, r.u64()?);
    }
    let mut gauges = BTreeMap::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        gauges.insert(name, r.i64()?);
    }
    let mut histograms = BTreeMap::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let mut buckets = [0u64; BUCKET_COUNT];
        for _ in 0..r.u32()? {
            let idx = r.u8()?;
            if idx as usize >= BUCKET_COUNT {
                return Err(CodecError::BadBucket(idx));
            }
            buckets[idx as usize] = r.u64()?;
        }
        let h =
            Histogram::from_parts(count, sum, min, max, buckets).ok_or(CodecError::BadHistogram)?;
        histograms.insert(name, h);
    }
    let mut spans = Vec::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let start_ns = r.u64()?;
        let end_ns = r.u64()?;
        spans.push(SpanRecord {
            name,
            start_ns,
            end_ns,
        });
    }
    let mut events = Vec::new();
    for _ in 0..r.u32()? {
        let t_ns = r.u64()?;
        let kind = r.static_str()?;
        let mut fields = Vec::new();
        for _ in 0..r.u32()? {
            let k = r.static_str()?;
            fields.push((k, read_field_value(r)?));
        }
        events.push(Event {
            t_ns,
            kind,
            fields: fields.into(),
        });
    }
    let mut trace = Vec::new();
    for _ in 0..r.u32()? {
        let t_ns = r.u64()?;
        let seq = r.u64()?;
        let stage = r.static_str()?;
        let kind = r.static_str()?;
        let flow = match r.u8()? {
            0 => None,
            1 => {
                let src = std::net::Ipv4Addr::new(r.u8()?, r.u8()?, r.u8()?, r.u8()?);
                let src_port = r.u16()?;
                let dst = std::net::Ipv4Addr::new(r.u8()?, r.u8()?, r.u8()?, r.u8()?);
                let dst_port = r.u16()?;
                Some(TraceFlow {
                    src,
                    src_port,
                    dst,
                    dst_port,
                })
            }
            t => return Err(CodecError::BadTag(t)),
        };
        let mut fields = Vec::new();
        for _ in 0..r.u32()? {
            let k = r.static_str()?;
            fields.push((k, read_field_value(r)?));
        }
        trace.push(TraceRecord {
            t_ns,
            seq,
            stage,
            kind,
            flow,
            fields,
        });
    }
    Ok(Registry {
        counters,
        gauges,
        histograms,
        spans,
        events,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn full_registry() -> Registry {
        let mut reg = Registry::new();
        reg.counters.insert("a.count".into(), 7);
        reg.counters.insert("b.count".into(), u64::MAX);
        reg.gauges.insert("depth".into(), -42);
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 1 << 40, u64::MAX] {
            h.observe(v);
        }
        reg.histograms.insert("sizes".into(), h);
        reg.histograms.insert("empty".into(), Histogram::new());
        reg.spans.push(SpanRecord {
            name: "trial".into(),
            start_ns: 10,
            end_ns: 30,
        });
        reg.events.push(Event {
            t_ns: 9,
            kind: "rst",
            fields: Arc::new([
                ("n", FieldValue::U64(3)),
                ("d", FieldValue::I64(-1)),
                ("who", FieldValue::Str("a\"b\nc".into())),
            ]),
        });
        reg.trace.push(TraceRecord {
            t_ns: 5,
            seq: 2,
            stage: "censor",
            kind: "rst_pair",
            flow: Some(TraceFlow {
                src: std::net::Ipv4Addr::new(10, 0, 1, 2),
                src_port: 4000,
                dst: std::net::Ipv4Addr::new(93, 184, 0, 10),
                dst_port: 80,
            }),
            fields: vec![("rule", FieldValue::U64(12))],
        });
        reg.trace.push(TraceRecord {
            t_ns: 6,
            seq: 0,
            stage: "campaign",
            kind: "verdict",
            flow: None,
            fields: vec![("verdict", FieldValue::Str("Blocked".into()))],
        });
        reg
    }

    #[test]
    fn round_trip_is_exact() {
        let reg = full_registry();
        let bytes = encode_registry(&reg);
        let back = decode_registry(&bytes).expect("decodes");
        assert_eq!(back, reg);
        assert_eq!(back.to_json(), reg.to_json());
        assert_eq!(back.trace_jsonl(), reg.trace_jsonl());
    }

    #[test]
    fn empty_registry_round_trips() {
        let bytes = encode_registry(&Registry::new());
        assert_eq!(decode_registry(&bytes).expect("decodes"), Registry::new());
    }

    #[test]
    fn every_truncation_point_fails_cleanly() {
        let bytes = encode_registry(&full_registry());
        for cut in 0..bytes.len() {
            match decode_registry(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!(
                    "decode of {cut}/{} bytes unexpectedly succeeded",
                    bytes.len()
                ),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_registry(&full_registry());
        bytes.push(0);
        assert_eq!(decode_registry(&bytes), Err(CodecError::TrailingBytes(1)),);
    }

    #[test]
    fn bad_tags_are_rejected_not_panicked() {
        let mut reg = Registry::new();
        reg.events.push(Event {
            t_ns: 1,
            kind: "k",
            fields: Arc::new([("f", FieldValue::U64(1))]),
        });
        let bytes = encode_registry(&reg);
        // Corrupt the field-value tag byte: the payload ends with
        // tag(1) + u64(8) + empty trace count(4).
        let mut bad = bytes.clone();
        let tag_pos = bad.len() - 13;
        assert_eq!(bad[tag_pos], 0, "tag byte located");
        bad[tag_pos] = 9;
        assert_eq!(decode_registry(&bad), Err(CodecError::BadTag(9)));
    }

    #[test]
    fn interning_is_idempotent_and_pointer_stable() {
        let a = intern_static("codec-test-stage");
        let b = intern_static("codec-test-stage");
        assert!(std::ptr::eq(a, b), "same leak reused");
        // Decoding the same trace twice yields pointer-equal stage strs.
        let reg = full_registry();
        let bytes = encode_registry(&reg);
        let d1 = decode_registry(&bytes).expect("decodes");
        let d2 = decode_registry(&bytes).expect("decodes");
        assert!(std::ptr::eq(d1.trace[0].stage, d2.trace[0].stage));
    }
}
