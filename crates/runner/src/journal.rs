//! The checkpoint journal: an append-only, length-prefixed, checksummed
//! record log that makes a campaign run durable.
//!
//! ## Format
//!
//! ```text
//! header  := magic[8]="URCKPT01" version:u32 fingerprint:u64 trials:u64
//! record  := len:u32 crc32:u32 payload[len]
//! payload := tag:u8 body
//!   tag 1 (complete) := index:u64 trial_result registry_delta
//!   tag 2 (retry)    := index:u64 next_attempt:u32 accumulated_registry
//! ```
//!
//! All integers little-endian; `crc32` is IEEE CRC-32 over the payload.
//! A *complete* record carries everything the run derived from the trial:
//! its result row and its telemetry delta. A *retry* record checkpoints an
//! `Inconclusive` attempt — the attempt number to run next plus the
//! registry accumulated by the attempts already spent — so a resumed run
//! continues the trial mid-retry with its backoff budget and telemetry
//! intact instead of restarting it.
//!
//! ## Recovery
//!
//! [`Journal::open_or_create`] scans an existing file and stops at the
//! first structurally invalid record — truncated length/checksum/payload,
//! checksum mismatch, or undecodable payload — then **truncates** the file
//! there, so a `kill -9` mid-write (or a flipped byte in the tail) costs
//! only the records after the damage. Replay deduplicates: the first
//! *complete* record for an index wins (a trial is never double-counted),
//! a *complete* record supersedes any *retry* records for its index, and
//! among retry records the highest attempt wins.
//!
//! Durability is bounded by the fsync cadence ([`Journal::set_fsync_every`]):
//! records since the last sync may be lost on power failure, which a
//! resume repairs by re-running those trials — determinism makes the
//! re-run byte-identical to what was lost.
//!
//! ## Group commit
//!
//! Appends encode each record straight into one reusable in-memory
//! buffer; the buffered bytes reach the file in a single `write_all` at
//! [`Journal::flush`], at the fsync boundary, and at [`Journal::sync`] or
//! drop. The fsync still happens exactly when the `fsync_every`-th
//! unsynced record is appended, so [`Journal::unsynced`] stays below
//! `fsync_every` after every append and the power-loss bound above is
//! unchanged. A process kill additionally loses the records appended
//! since the last flush; the run service flushes each commit group
//! before it streams that group's rows, so no streamed row outlives its
//! record.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use underradar_campaign::{AddressPlanOverrun, InvalidTarget, SpecError, TrialResult};
use underradar_telemetry::codec::{put_u32, put_u64, CodecError, PutRegistry, Reader};
use underradar_telemetry::Registry;

use crate::codec::{encode_trial_result, read_trial_result};

/// Journal file magic (8 bytes, versioned by the trailing digits).
pub const MAGIC: [u8; 8] = *b"URCKPT01";
/// Format version written into (and required from) the header.
pub const VERSION: u32 = 1;
/// Header length in bytes: magic + version + fingerprint + trial count.
pub const HEADER_LEN: u64 = 8 + 4 + 8 + 8;
/// Upper bound on a single record payload (a registry delta for one
/// trial); anything larger is treated as corruption, not allocated.
const MAX_RECORD_LEN: u32 = 1 << 28;

const TAG_COMPLETE: u8 = 1;
const TAG_RETRY: u8 = 2;

/// Why a journal could not be opened against a spec.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The row sink failed to take a row (e.g. its pipe closed).
    Sink(io::Error),
    /// The file exists but does not start with a valid journal header.
    BadHeader,
    /// The header's format version is not [`VERSION`].
    WrongVersion(u32),
    /// The header was written by a different campaign spec (fingerprint
    /// or trial count mismatch) — resuming would mix incompatible trial
    /// streams.
    SpecMismatch {
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the spec attempting to resume.
        expected: u64,
    },
    /// The spec overruns the testbed's address plan; no trial ran and no
    /// journal was opened.
    AddressPlan(AddressPlanOverrun),
    /// A spec target cannot be a target site; no trial ran and no journal
    /// was opened.
    InvalidTarget(InvalidTarget),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Sink(e) => write!(f, "row sink I/O error: {e}"),
            JournalError::BadHeader => write!(f, "not a checkpoint journal (bad header)"),
            JournalError::WrongVersion(v) => {
                write!(f, "unsupported journal version {v} (want {VERSION})")
            }
            JournalError::SpecMismatch { found, expected } => write!(
                f,
                "journal belongs to a different campaign \
                 (fingerprint {found:#018x}, spec is {expected:#018x})"
            ),
            JournalError::AddressPlan(overrun) => write!(f, "{overrun}"),
            JournalError::InvalidTarget(target) => write!(f, "{target}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<SpecError> for JournalError {
    fn from(e: SpecError) -> Self {
        match e {
            SpecError::AddressPlan(overrun) => JournalError::AddressPlan(overrun),
            SpecError::InvalidTarget(target) => JournalError::InvalidTarget(target),
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The work frontier recovered from a journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Completed trials: index → (result, telemetry delta). First
    /// complete record per index wins.
    pub completed: BTreeMap<u64, (TrialResult, Registry)>,
    /// In-flight retries for trials with no complete record:
    /// index → (next attempt to run, registry accumulated so far).
    /// Highest journaled attempt wins.
    pub retries: BTreeMap<u64, (u32, Registry)>,
    /// Bytes discarded by recovery truncation (0 = clean tail).
    pub truncated_bytes: u64,
    /// Structurally valid records replayed.
    pub records: u64,
}

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = build_crc_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// An open, append-position checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// Encoded frames appended since the last write to `file`.
    buf: Vec<u8>,
    fsync_every: u64,
    unsynced: u64,
}

impl Journal {
    /// Open `path`, recovering its valid prefix, or create it with a
    /// fresh header. Returns the journal positioned for appending plus
    /// the replayed frontier. `fingerprint`/`trials` identify the spec:
    /// an existing journal for a different spec is refused.
    pub fn open_or_create(
        path: &Path,
        fingerprint: u64,
        trials: u64,
    ) -> Result<(Journal, Replay), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&MAGIC);
            put_u32(&mut header, VERSION);
            put_u64(&mut header, fingerprint);
            put_u64(&mut header, trials);
            file.write_all(&header)?;
            file.sync_data()?;
            return Ok((Journal::at_end(file), Replay::default()));
        }
        let mut bytes = Vec::with_capacity(len as usize);
        file.read_to_end(&mut bytes)?;
        let replay = Self::validate_and_replay(&bytes, fingerprint, trials)?;
        let valid_len = len - replay.truncated_bytes;
        if replay.truncated_bytes > 0 {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok((Journal::at_end(file), replay))
    }

    /// A journal appending to `file` at its current position.
    fn at_end(file: File) -> Journal {
        Journal {
            file,
            buf: Vec::new(),
            fsync_every: 64,
            unsynced: 0,
        }
    }

    /// Check the header and replay every structurally valid record;
    /// `truncated_bytes` reports the invalid tail, if any.
    fn validate_and_replay(
        bytes: &[u8],
        fingerprint: u64,
        trials: u64,
    ) -> Result<Replay, JournalError> {
        if bytes.len() < HEADER_LEN as usize || bytes[..8] != MAGIC {
            return Err(JournalError::BadHeader);
        }
        let mut r = Reader::new(&bytes[8..HEADER_LEN as usize]);
        let version = r.u32().map_err(|_| JournalError::BadHeader)?;
        if version != VERSION {
            return Err(JournalError::WrongVersion(version));
        }
        let found = r.u64().map_err(|_| JournalError::BadHeader)?;
        let found_trials = r.u64().map_err(|_| JournalError::BadHeader)?;
        if found != fingerprint || found_trials != trials {
            return Err(JournalError::SpecMismatch {
                found,
                expected: fingerprint,
            });
        }
        let mut replay = Replay::default();
        let mut pos = HEADER_LEN as usize;
        while pos < bytes.len() {
            let Some(consumed) = Self::replay_record(&bytes[pos..], &mut replay) else {
                break;
            };
            pos += consumed;
        }
        replay.truncated_bytes = (bytes.len() - pos) as u64;
        Ok(replay)
    }

    /// Replay one record from `bytes`, returning the bytes consumed, or
    /// `None` when the record is truncated, corrupt, or undecodable (the
    /// recovery stop condition).
    fn replay_record(bytes: &[u8], replay: &mut Replay) -> Option<usize> {
        if bytes.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if len > MAX_RECORD_LEN {
            return None;
        }
        let expected_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let end = 8usize.checked_add(len as usize)?;
        if bytes.len() < end {
            return None;
        }
        let payload = &bytes[8..end];
        if crc32(payload) != expected_crc {
            return None;
        }
        Self::apply_payload(payload, replay).ok()?;
        replay.records += 1;
        Some(end)
    }

    fn apply_payload(payload: &[u8], replay: &mut Replay) -> Result<(), CodecError> {
        let mut r = Reader::new(payload);
        match r.u8()? {
            TAG_COMPLETE => {
                let index = r.u64()?;
                let result = read_trial_result(&mut r)?;
                let delta = decode_registry_rest(&mut r)?;
                // First complete record wins: never double-count a trial.
                replay.completed.entry(index).or_insert((result, delta));
                replay.retries.remove(&index);
            }
            TAG_RETRY => {
                let index = r.u64()?;
                let next_attempt = r.u32()?;
                let acc = decode_registry_rest(&mut r)?;
                if replay.completed.contains_key(&index) {
                    return Ok(());
                }
                let entry = replay.retries.entry(index).or_insert((0, Registry::new()));
                if next_attempt > entry.0 {
                    *entry = (next_attempt, acc);
                }
            }
            t => return Err(CodecError::BadTag(t)),
        }
        Ok(())
    }

    /// Set the fsync cadence: `sync_data` after every `n` appended
    /// records (clamped to ≥ 1; the default is 64). Lower is more durable
    /// and slower.
    pub fn set_fsync_every(&mut self, n: u64) {
        self.fsync_every = n.max(1);
    }

    /// Append a *complete* record for trial `index`. The delta is a
    /// [`Registry`] or an id-keyed `Delta`; either encodes with names, to
    /// the same bytes.
    pub fn append_complete(
        &mut self,
        index: u64,
        result: &TrialResult,
        delta: &impl PutRegistry,
    ) -> io::Result<()> {
        let start = self.begin_frame();
        self.buf.push(TAG_COMPLETE);
        put_u64(&mut self.buf, index);
        encode_trial_result(&mut self.buf, result);
        delta.put(&mut self.buf);
        self.end_frame(start)
    }

    /// Append a *retry* record: trial `index` will run `next_attempt`
    /// next, with `acc` the registry its finished attempts accumulated.
    pub fn append_retry(
        &mut self,
        index: u64,
        next_attempt: u32,
        acc: &impl PutRegistry,
    ) -> io::Result<()> {
        let start = self.begin_frame();
        self.buf.push(TAG_RETRY);
        put_u64(&mut self.buf, index);
        put_u32(&mut self.buf, next_attempt);
        acc.put(&mut self.buf);
        self.end_frame(start)
    }

    /// Reserve the `len`/`crc32` prefix of a new frame in the buffer;
    /// returns the frame's start offset.
    fn begin_frame(&mut self) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        start
    }

    /// Fill in the prefix of the frame at `start` from its payload, and
    /// fsync when this is the `fsync_every`-th unsynced record.
    fn end_frame(&mut self, start: usize) -> io::Result<()> {
        let payload = &self.buf[start + 8..];
        let len = payload.len() as u32;
        let crc = crc32(payload);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Write the buffered records to the file (no fsync). After this
    /// returns, every appended record survives a kill of this process.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Records appended since the last fsync (the journal lag a crash
    /// would cost right now).
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// Write the buffered records and force them to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn decode_registry_rest(r: &mut Reader<'_>) -> Result<Registry, CodecError> {
    underradar_telemetry::codec::read_registry(r).and_then(|reg| {
        if r.remaining() != 0 {
            Err(CodecError::TrailingBytes(r.remaining()))
        } else {
            Ok(reg)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use underradar_campaign::MethodKind;
    use underradar_core::verdict::Verdict;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("underradar-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn result(index: usize) -> TrialResult {
        TrialResult {
            index,
            method: MethodKind::Scan,
            policy: "control".into(),
            target: "a.com".into(),
            seed: index as u64 * 7 + 1,
            verdict: Verdict::Reachable,
            verdict_correct: true,
            evaded: true,
            alerts_on_client: 0,
            attributed: false,
            pursued: false,
            anonymity_set: None,
            retries: 0,
            evidence: vec![("open", "80".into())],
        }
    }

    fn delta(index: usize) -> Registry {
        let mut r = Registry::new();
        r.counters.insert("campaign.trials".into(), 1);
        r.gauges.insert("last".into(), index as i64);
        r
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_then_reopen_replays_the_frontier() {
        let path = tmp("roundtrip");
        {
            let (mut j, replay) = Journal::open_or_create(&path, 42, 10).expect("create");
            assert_eq!(replay.records, 0);
            j.append_complete(0, &result(0), &delta(0)).expect("append");
            j.append_retry(1, 1, &delta(1)).expect("append");
            j.append_complete(2, &result(2), &delta(2)).expect("append");
            j.sync().expect("sync");
        }
        let (_, replay) = Journal::open_or_create(&path, 42, 10).expect("reopen");
        assert_eq!(replay.records, 3);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(
            replay.completed.keys().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(replay.retries.get(&1).map(|(a, _)| *a), Some(1));
        let (res, d) = &replay.completed[&0];
        assert_eq!(res.to_json_row(), result(0).to_json_row());
        assert_eq!(d, &delta(0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spec_mismatch_is_refused() {
        let path = tmp("mismatch");
        drop(Journal::open_or_create(&path, 42, 10).expect("create"));
        match Journal::open_or_create(&path, 43, 10) {
            Err(JournalError::SpecMismatch { found, expected }) => {
                assert_eq!((found, expected), (42, 43));
            }
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        assert!(matches!(
            Journal::open_or_create(&path, 42, 11),
            Err(JournalError::SpecMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_record_recovers_to_last_valid_frontier() {
        let path = tmp("truncated");
        {
            let (mut j, _) = Journal::open_or_create(&path, 7, 4).expect("create");
            j.append_complete(0, &result(0), &delta(0)).expect("append");
            j.append_complete(1, &result(1), &delta(1)).expect("append");
            j.sync().expect("sync");
        }
        // Chop bytes off the tail: a mid-record kill.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 5]).expect("chop");
        let (mut j, replay) = Journal::open_or_create(&path, 7, 4).expect("recover");
        assert_eq!(
            replay.completed.keys().copied().collect::<Vec<_>>(),
            vec![0],
            "only the intact record survives"
        );
        assert!(replay.truncated_bytes > 0);
        // The file was truncated to the valid prefix and appending works.
        j.append_complete(1, &result(1), &delta(1)).expect("append");
        j.sync().expect("sync");
        let (_, replay) = Journal::open_or_create(&path, 7, 4).expect("reopen");
        assert_eq!(replay.completed.len(), 2);
        assert_eq!(replay.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_checksum_byte_stops_replay_without_panic() {
        let path = tmp("flipped");
        {
            let (mut j, _) = Journal::open_or_create(&path, 7, 4).expect("create");
            j.append_complete(0, &result(0), &delta(0)).expect("append");
            j.append_complete(1, &result(1), &delta(1)).expect("append");
            j.sync().expect("sync");
        }
        let full = std::fs::read(&path).expect("read");
        // Flip a byte inside the *second* record's payload.
        let mut bad = full.clone();
        let pos = bad.len() - 3;
        bad[pos] ^= 0xFF;
        std::fs::write(&path, &bad).expect("write");
        let (_, replay) = Journal::open_or_create(&path, 7, 4).expect("recover");
        assert_eq!(
            replay.completed.keys().copied().collect::<Vec<_>>(),
            vec![0]
        );
        assert!(replay.truncated_bytes > 0, "damaged tail discarded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_and_conflicting_records_deduplicate() {
        let path = tmp("dedup");
        {
            let (mut j, _) = Journal::open_or_create(&path, 7, 4).expect("create");
            j.append_retry(3, 1, &delta(1)).expect("append");
            j.append_retry(3, 2, &delta(2)).expect("append");
            j.append_complete(3, &result(3), &delta(3)).expect("append");
            // A duplicate complete record must not double-count.
            j.append_complete(3, &result(3), &delta(3)).expect("append");
            j.sync().expect("sync");
        }
        let (_, replay) = Journal::open_or_create(&path, 7, 4).expect("reopen");
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.retries.is_empty(), "complete supersedes retries");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_is_not_a_journal() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a journal").expect("write");
        assert!(matches!(
            Journal::open_or_create(&path, 7, 4),
            Err(JournalError::BadHeader)
        ));
        let _ = std::fs::remove_file(&path);
    }
}
