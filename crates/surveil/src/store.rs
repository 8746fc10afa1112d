//! Time-windowed retention stores.
//!
//! §2.1's storage numbers: the NSA kept *content* for three days and
//! *connection metadata* for 30; the campus network kept IDS alerts about
//! a year. [`RetentionStore`] is the common mechanism: an append-only log
//! that evicts records older than its window.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use underradar_netsim::time::{SimDuration, SimTime};

/// A stored content record (what survives MVR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentRecord {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Wire length in bytes.
    pub bytes: usize,
}

/// A flow-metadata record ("like call-data records in a phone network").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port (0 if none).
    pub src_port: u16,
    /// Destination port (0 if none).
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
    /// Bytes in this record's direction.
    pub bytes: u64,
    /// Packets in this record's direction.
    pub packets: u64,
}

/// A generic append-only store that evicts records older than `window`.
#[derive(Debug)]
pub struct RetentionStore<T> {
    window: SimDuration,
    records: VecDeque<(SimTime, T)>,
    /// Total records ever inserted (survives eviction).
    inserted: u64,
    /// Total bytes attributed to inserted records (caller-supplied).
    inserted_bytes: u64,
}

impl<T> RetentionStore<T> {
    /// A store keeping records for `window`.
    pub fn new(window: SimDuration) -> RetentionStore<T> {
        RetentionStore {
            window,
            records: VecDeque::new(),
            inserted: 0,
            inserted_bytes: 0,
        }
    }

    /// The retention window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Drop every record and zero the totals, keeping the window.
    pub fn clear(&mut self) {
        self.records.clear();
        self.inserted = 0;
        self.inserted_bytes = 0;
    }

    /// Insert a record at `now`, accounting `bytes` toward volume, then
    /// evict anything that has expired.
    pub fn insert(&mut self, now: SimTime, record: T, bytes: u64) {
        self.inserted += 1;
        self.inserted_bytes += bytes;
        self.records.push_back((now, record));
        self.evict(now);
    }

    /// Drop expired records.
    pub fn evict(&mut self, now: SimTime) {
        while let Some((t, _)) = self.records.front() {
            if now.saturating_since(*t) > self.window {
                self.records.pop_front();
            } else {
                break;
            }
        }
    }

    /// Records currently held (after the last eviction).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over live records.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.records.iter()
    }

    /// Total records ever inserted.
    pub fn total_inserted(&self) -> u64 {
        self.inserted
    }

    /// Total bytes ever inserted.
    pub fn total_bytes(&self) -> u64 {
        self.inserted_bytes
    }
}

/// The standard store set from §2.1.
#[derive(Debug)]
pub struct StoreSet {
    /// Packet content, kept 3 days (NSA figure).
    pub content: RetentionStore<ContentRecord>,
    /// Flow metadata, kept 30 days (NSA figure).
    pub metadata: RetentionStore<FlowRecord>,
    /// Alert summaries, kept 1 year (campus IDS figure). Stored as strings
    /// because alerts already live in the engine's `AlertLog`; this store
    /// models *retention*, not structure.
    pub alerts: RetentionStore<String>,
}

impl StoreSet {
    /// Empty every tier, as new stores with the same windows.
    pub fn clear(&mut self) {
        self.content.clear();
        self.metadata.clear();
        self.alerts.clear();
    }

    /// Mirror per-tier retention accounting into `tel` under
    /// `surveil.store.<tier>.*`: records/bytes ever inserted (counters),
    /// live record count and the retention window (gauges). Idempotent.
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let tiers: [(&str, u64, u64, u64, SimDuration); 3] = [
            (
                "content",
                self.content.len() as u64,
                self.content.total_inserted(),
                self.content.total_bytes(),
                self.content.window(),
            ),
            (
                "metadata",
                self.metadata.len() as u64,
                self.metadata.total_inserted(),
                self.metadata.total_bytes(),
                self.metadata.window(),
            ),
            (
                "alerts",
                self.alerts.len() as u64,
                self.alerts.total_inserted(),
                self.alerts.total_bytes(),
                self.alerts.window(),
            ),
        ];
        let mut name = underradar_telemetry::MetricName::default();
        for (tier, live, inserted, bytes, window) in tiers {
            name.stem(|s| {
                s.push_str("surveil.store.");
                s.push_str(tier);
            });
            tel.set_counter(name.leaf("inserted"), inserted);
            tel.set_counter(name.leaf("bytes"), bytes);
            tel.set_gauge(name.leaf("live"), live as i64);
            tel.set_gauge(name.leaf("window_ns"), window.as_nanos() as i64);
        }
    }

    /// Stores with the paper's windows.
    pub fn paper_defaults() -> StoreSet {
        StoreSet {
            content: RetentionStore::new(SimDuration::from_days(3)),
            metadata: RetentionStore::new(SimDuration::from_days(30)),
            alerts: RetentionStore::new(SimDuration::from_days(365)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn eviction_honors_window() {
        let mut store: RetentionStore<u32> = RetentionStore::new(SimDuration::from_secs(100));
        store.insert(t(0), 1, 10);
        store.insert(t(50), 2, 10);
        store.insert(t(100), 3, 10);
        assert_eq!(store.len(), 3);
        store.insert(t(140), 4, 10);
        // Record from t=0 has aged out (140 > 100), t=50 still inside.
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        store.evict(t(1000));
        assert!(store.is_empty());
        assert_eq!(store.total_inserted(), 4, "history preserved");
        assert_eq!(store.total_bytes(), 40);
    }

    #[test]
    fn zero_window_keeps_nothing_beyond_the_instant() {
        let mut store: RetentionStore<u32> = RetentionStore::new(SimDuration::ZERO);
        store.insert(t(0), 1, 5);
        assert_eq!(store.len(), 1, "same-instant records live");
        store.evict(t(1));
        assert!(store.is_empty());
    }

    #[test]
    fn paper_defaults_windows() {
        let s = StoreSet::paper_defaults();
        assert_eq!(s.content.window(), SimDuration::from_days(3));
        assert_eq!(s.metadata.window(), SimDuration::from_days(30));
        assert_eq!(s.alerts.window(), SimDuration::from_days(365));
    }

    #[test]
    fn content_outlives_eviction_of_older_entries() {
        let mut s = StoreSet::paper_defaults();
        let rec = ContentRecord {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            bytes: 60,
        };
        s.content.insert(SimTime::ZERO, rec.clone(), 60);
        // 2 days later: still there. 4 days later: gone.
        s.content.evict(SimTime::ZERO + SimDuration::from_days(2));
        assert_eq!(s.content.len(), 1);
        s.content.evict(SimTime::ZERO + SimDuration::from_days(4));
        assert!(s.content.is_empty());
    }
}
