//! Never-panic properties for checkpoint-journal recovery: a journal of
//! random complete and retry records, written with a random fsync cadence
//! and random flush points, is cut, bit-flipped past the header, or given
//! a garbage tail, and `Journal::open_or_create` must recover the intact
//! record prefix without panicking. Inputs come from the
//! in-tree seeded generator ([`underradar_netsim::testprop`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use underradar_campaign::{MethodKind, TrialResult};
use underradar_core::verdict::{Mechanism, Verdict};
use underradar_netsim::testprop::{cases, Gen};
use underradar_runner::journal::HEADER_LEN;
use underradar_runner::{Journal, JournalError, Replay};
use underradar_telemetry::Registry;

const FINGERPRINT: u64 = 0x5AFE_0015;
const TRIALS: u64 = 16;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "underradar-journal-props-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

enum Record {
    Complete(u64, TrialResult, Registry),
    Retry(u64, u32, Registry),
}

fn arb_registry(g: &mut Gen) -> Registry {
    let mut r = Registry::new();
    for _ in 0..g.usize_in(0, 4) {
        r.counters.insert(g.printable(1, 12), g.u64());
    }
    for _ in 0..g.usize_in(0, 3) {
        r.gauges.insert(g.printable(1, 12), g.u64() as i64);
    }
    r
}

fn arb_result(g: &mut Gen, index: u64) -> TrialResult {
    let verdict = match g.usize_in(0, 3) {
        0 => Verdict::Reachable,
        1 => Verdict::Censored(*g.choose(&[
            Mechanism::RstInjection,
            Mechanism::DnsPoison,
            Mechanism::Blackhole,
            Mechanism::PortBlocked,
            Mechanism::UrlBlocked,
        ])),
        _ => Verdict::Inconclusive(g.printable(0, 20)),
    };
    TrialResult {
        index: index as usize,
        method: *g.choose(&MethodKind::ALL),
        policy: g.printable(1, 10),
        target: g.printable(1, 16),
        seed: g.u64(),
        verdict,
        verdict_correct: g.bool(),
        evaded: g.bool(),
        alerts_on_client: g.usize_in(0, 50),
        attributed: g.bool(),
        pursued: g.bool(),
        anonymity_set: g.bool().then(|| g.usize_in(1, 1000)),
        retries: g.u32_in(0, 4),
        evidence: (0..g.usize_in(0, 3))
            .map(|_| (*g.choose(&["open", "rst", "answer"]), g.printable(0, 12)))
            .collect(),
    }
}

fn arb_records(g: &mut Gen) -> Vec<Record> {
    (0..g.usize_in(1, 12))
        .map(|_| {
            let index = g.u64() % TRIALS;
            if g.bool() {
                Record::Complete(index, arb_result(g, index), arb_registry(g))
            } else {
                Record::Retry(index, g.u32_in(1, 6), arb_registry(g))
            }
        })
        .collect()
}

/// Write `records` to a fresh journal at `path` with a random fsync
/// cadence and random flush points; returns the file bytes and the offset
/// at which each record ends. Along the way it checks the group commit:
/// `unsynced()` stays below the cadence after every append (the
/// power-loss bound), and the file only ever holds whole records — all of
/// those appended so far right after a flush or an fsync.
fn write_journal(g: &mut Gen, path: &Path, records: &[Record]) -> (Vec<u8>, Vec<usize>) {
    let _ = std::fs::remove_file(path);
    let fsync_every = g.usize_in(1, 9) as u64;
    // Per append: the file length afterwards, and whether every record
    // appended so far must already be in the file.
    let mut observed = Vec::with_capacity(records.len());
    {
        let (mut j, _) = Journal::open_or_create(path, FINGERPRINT, TRIALS).expect("create");
        j.set_fsync_every(fsync_every);
        for rec in records {
            match rec {
                Record::Complete(i, res, delta) => j.append_complete(*i, res, delta),
                Record::Retry(i, attempt, acc) => j.append_retry(*i, *attempt, acc),
            }
            .expect("append");
            assert!(
                j.unsynced() < fsync_every,
                "{} unsynced records at cadence {fsync_every}",
                j.unsynced()
            );
            let synced = j.unsynced() == 0;
            let flushed = g.bool();
            if flushed {
                j.flush().expect("flush");
            }
            let len = std::fs::metadata(path).expect("stat").len() as usize;
            observed.push((len, synced || flushed));
        }
        j.sync().expect("sync");
    }
    let bytes = std::fs::read(path).expect("read");
    let ends = record_ends(&bytes);
    assert_eq!(ends.len(), records.len(), "one frame per record");
    for (k, &(len, complete)) in observed.iter().enumerate() {
        assert!(
            len == HEADER_LEN as usize || ends[..=k].contains(&len),
            "after append {k} the file ends mid-record at {len}"
        );
        if complete {
            assert_eq!(
                len, ends[k],
                "append {k} flushed or synced but not in the file"
            );
        }
    }
    (bytes, ends)
}

/// The end offset of each record in a clean journal, walking the `len`
/// prefixes of its frames.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        pos += 8 + len as usize;
        ends.push(pos);
    }
    ends
}

type Completed = BTreeMap<u64, (String, Registry)>;
type Retries = BTreeMap<u64, (u32, Registry)>;

/// The replay semantics applied to `records` directly: first complete
/// record per index wins, a complete record supersedes retries, and the
/// highest retry attempt wins.
fn model(records: &[Record]) -> (Completed, Retries) {
    let mut completed = Completed::new();
    let mut retries = Retries::new();
    for rec in records {
        match rec {
            Record::Complete(i, res, delta) => {
                completed
                    .entry(*i)
                    .or_insert_with(|| (res.to_json_row(), delta.clone()));
                retries.remove(i);
            }
            Record::Retry(i, attempt, acc) => {
                if !completed.contains_key(i) {
                    let entry = retries.entry(*i).or_insert((0, Registry::new()));
                    if *attempt > entry.0 {
                        *entry = (*attempt, acc.clone());
                    }
                }
            }
        }
    }
    (completed, retries)
}

/// Assert `replay` holds exactly the first `k` records.
fn assert_prefix(replay: &Replay, records: &[Record], k: usize) {
    let (completed, retries) = model(&records[..k]);
    assert_eq!(replay.records, k as u64, "records replayed");
    let got: Completed = replay
        .completed
        .iter()
        .map(|(i, (res, delta))| (*i, (res.to_json_row(), delta.clone())))
        .collect();
    assert_eq!(got, completed, "completed trials");
    assert_eq!(replay.retries, retries, "in-flight retries");
}

/// Open the (possibly damaged) journal twice: recovery must not panic,
/// and the truncated file must reopen clean with the same frontier.
fn recover(path: &Path, bytes: &[u8]) -> Result<Replay, JournalError> {
    std::fs::write(path, bytes).expect("write damaged journal");
    let (_, replay) = Journal::open_or_create(path, FINGERPRINT, TRIALS)?;
    let (_, again) = Journal::open_or_create(path, FINGERPRINT, TRIALS).expect("reopen");
    assert_eq!(again.truncated_bytes, 0, "recovery truncated the bad tail");
    assert_eq!(again.records, replay.records, "recovery is idempotent");
    Ok(replay)
}

/// Every corruption a crash or a bad disk can leave past the header — a
/// truncation, flipped bytes, a garbage tail — recovers to exactly the
/// records wholly before the damage; cuts inside the header are refused
/// with `BadHeader`, and an empty file starts fresh.
#[test]
fn damaged_journals_recover_the_intact_prefix_and_never_panic() {
    let path = tmp("damage");
    let header = HEADER_LEN as usize;
    cases(128, 0x10A1, |g| {
        let records = arb_records(g);
        let (clean, ends) = write_journal(g, &path, &records);

        // Truncation: mostly cuts past the header, some inside it.
        let cut = if g.usize_in(0, 8) == 0 {
            g.usize_in(0, header)
        } else {
            g.usize_in(header, clean.len() + 1)
        };
        match recover(&path, &clean[..cut]) {
            Ok(replay) if cut == 0 => assert_eq!(replay.records, 0, "empty file starts fresh"),
            Err(JournalError::BadHeader) if cut < header => {}
            Ok(replay) if cut >= header => {
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                assert_prefix(&replay, &records, whole);
                let boundary = ends[..whole].last().copied().unwrap_or(header);
                assert_eq!(replay.truncated_bytes, (cut - boundary) as u64);
            }
            other => panic!("cut at {cut} of {}: {other:?}", clean.len()),
        }

        // Byte flips past the header.
        let mut bytes = clean.clone();
        for _ in 0..g.usize_in(1, 4) {
            let pos = g.usize_in(header, bytes.len());
            bytes[pos] ^= g.u8_in(1, 255);
        }
        // Two flips of one byte can cancel; the damage starts at the
        // first byte that actually differs.
        if let Some(first) = (0..bytes.len()).find(|&i| bytes[i] != clean[i]) {
            let replay = recover(&path, &bytes).expect("header intact");
            // CRC-32 catches a single damaged byte always and several
            // scattered ones with probability 1 - 2^-32 (the seed is
            // fixed, so no case here is a miss); a flipped length frames
            // a different payload that fails the checksum. Replay stops
            // at the record holding the first damaged byte.
            let damaged = ends.iter().position(|&end| first < end);
            assert_prefix(&replay, &records, damaged.unwrap_or(records.len()));
        }

        // A garbage tail after the last record.
        let mut bytes = clean;
        let tail = g.bytes(1, 200);
        bytes.extend_from_slice(&tail);
        let replay = recover(&path, &bytes).expect("header intact");
        assert_prefix(&replay, &records, records.len());
        assert_eq!(replay.truncated_bytes, tail.len() as u64);
    });
    let _ = std::fs::remove_file(&path);
}
