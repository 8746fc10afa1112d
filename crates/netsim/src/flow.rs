//! Flow vocabulary types and the arena-backed flow table.
//!
//! Every crate that tracks per-flow state used to define its own
//! (src, dst, sport, dport, proto) struct and its own
//! `HashMap<key, state>`. This module is the one shared vocabulary:
//!
//! * [`FlowKey`] — the canonical *bidirectional* connection identifier
//!   (endpoints ordered, so both directions hash to the same key);
//! * [`FlowTuple`] — the *directional* five-tuple, for records that care
//!   which side spoke (flow metadata, MVR trace dedup);
//! * [`FlowId`] — a copyable generational handle into a [`FlowTable`];
//! * [`FlowTable`] — a slab-arena flow table: one hash lookup at flow
//!   setup, index dereferences afterwards, O(1) oldest-first eviction.
//!
//! ## Handle-invalidation rules
//!
//! A [`FlowId`] is valid from the [`FlowTable::insert`] that issued it
//! until the flow is removed or evicted. After that every copy of the
//! handle goes stale: [`FlowTable::get`] returns `None`, and a removal
//! through it is a no-op. Slot indices are recycled but generations are
//! not, so a stale handle can never read the slot's next occupant.
//! State kept outside the table in a store indexed by [`FlowId::index`]
//! must be reset when the flow goes, as `ids::stream` does for its
//! consumers' per-flow state, and read only through a live handle.

use std::net::Ipv4Addr;

use crate::hash::FxHashMap;
use crate::packet::{Packet, TcpSegment};
use crate::slab::{Slab, SlabKey};

/// Canonical flow identifier: endpoint pair ordered so both directions map
/// to the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Lower endpoint (by (ip, port) ordering).
    pub lo: (Ipv4Addr, u16),
    /// Higher endpoint.
    pub hi: (Ipv4Addr, u16),
}

impl FlowKey {
    /// Build from a packet's endpoints (TCP only).
    pub fn of(pkt: &Packet, seg: &TcpSegment) -> FlowKey {
        FlowKey::from_endpoints((pkt.src, seg.src_port), (pkt.dst, seg.dst_port))
    }

    /// Build from two unordered endpoints.
    pub fn from_endpoints(a: (Ipv4Addr, u16), b: (Ipv4Addr, u16)) -> FlowKey {
        if a <= b {
            FlowKey { lo: a, hi: b }
        } else {
            FlowKey { lo: b, hi: a }
        }
    }
}

/// Directional five-tuple: who spoke to whom, and over what protocol.
///
/// Unlike [`FlowKey`] this is *not* canonicalized — the two directions of
/// one connection are two distinct tuples. Use it for records where the
/// direction is the point (flow metadata, per-direction trace dedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowTuple {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source transport port (0 when the packet has none).
    pub src_port: u16,
    /// Destination transport port (0 when the packet has none).
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

impl FlowTuple {
    /// The packet's directional tuple, portless bodies reading as port 0.
    pub fn of_packet(pkt: &Packet) -> FlowTuple {
        FlowTuple {
            src: pkt.src,
            dst: pkt.dst,
            src_port: pkt.src_port().unwrap_or(0),
            dst_port: pkt.dst_port().unwrap_or(0),
            protocol: pkt.body.protocol().number(),
        }
    }

    /// The canonical (direction-erased) key for this tuple.
    pub fn canonical(&self) -> FlowKey {
        FlowKey::from_endpoints((self.src, self.src_port), (self.dst, self.dst_port))
    }
}

/// Copyable generational handle to a [`FlowTable`] entry: 8 bytes, valid
/// until the flow is removed or evicted, `None`-safe afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    index: u32,
    gen: u32,
}

impl FlowId {
    /// The dense slot index — stable for the flow's lifetime, reused after
    /// removal.
    pub fn index(&self) -> usize {
        self.index as usize
    }

    fn to_key<V>(self) -> SlabKey<FlowSlot<V>> {
        SlabKey::from_parts(self.index, self.gen)
    }

    fn of_key<V>(key: SlabKey<FlowSlot<V>>) -> FlowId {
        FlowId {
            index: key.index() as u32,
            gen: key.generation(),
        }
    }
}

/// One arena slot: the flow's key and value plus intrusive creation-order
/// links (oldest-first, for O(1) eviction).
#[derive(Debug)]
struct FlowSlot<V> {
    key: FlowKey,
    value: V,
    prev: Option<FlowId>,
    next: Option<FlowId>,
}

/// Arena-backed flow table: dense slab storage for per-flow state, one
/// hash map from [`FlowKey`] to [`FlowId`] consulted only at flow setup
/// and teardown, and an intrusive creation-order list so the table evicts
/// its oldest flow in O(1) when full.
///
/// All per-packet operations after setup are index dereferences
/// ([`FlowTable::get_mut`] by handle); nothing on that path allocates once
/// the slab has warmed to its high-water mark.
#[derive(Debug)]
pub struct FlowTable<V> {
    slots: Slab<FlowSlot<V>>,
    index: FxHashMap<FlowKey, FlowId>,
    head: Option<FlowId>,
    tail: Option<FlowId>,
    capacity: usize,
    created: u64,
    evicted: u64,
}

impl<V> FlowTable<V> {
    /// An empty table that evicts its oldest flow once `capacity` flows
    /// are live. A `capacity` of 0 is treated as unbounded.
    pub fn new(capacity: usize) -> FlowTable<V> {
        FlowTable {
            slots: Slab::new(),
            index: FxHashMap::default(),
            head: None,
            tail: None,
            capacity: if capacity == 0 { usize::MAX } else { capacity },
            created: 0,
            evicted: 0,
        }
    }

    /// The eviction threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The handle for `key`, if the flow is live.
    pub fn lookup(&self, key: &FlowKey) -> Option<FlowId> {
        self.index.get(key).copied()
    }

    /// Insert a new flow, returning its handle plus the oldest flow (with
    /// its now-stale handle) if the table was full and had to evict. If
    /// `key` is already live its old entry is replaced (counted as a
    /// removal, not an eviction).
    pub fn insert(&mut self, key: FlowKey, value: V) -> (FlowId, Option<(FlowId, FlowKey, V)>) {
        self.remove_key(&key);
        let mut evicted = None;
        if self.slots.len() >= self.capacity {
            evicted = self.evict_oldest();
        }
        let prev = self.tail;
        let id = FlowId::of_key(self.slots.insert(FlowSlot {
            key,
            value,
            prev,
            next: None,
        }));
        match prev {
            Some(t) => {
                if let Some(slot) = self.slots.get_mut(t.to_key()) {
                    slot.next = Some(id);
                }
            }
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.index.insert(key, id);
        self.created += 1;
        (id, evicted)
    }

    /// Forget every flow and the created/evicted totals, as
    /// [`FlowTable::new`] with the same capacity, keeping the slab's and
    /// the index's storage: the next flows get exactly the handles a new
    /// table would give them.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = None;
        self.tail = None;
        self.created = 0;
        self.evicted = 0;
    }

    /// Shared access to the state behind `id` (`None` if stale).
    pub fn get(&self, id: FlowId) -> Option<&V> {
        self.slots.get(id.to_key()).map(|slot| &slot.value)
    }

    /// Mutable access to the state behind `id` (`None` if stale).
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut V> {
        self.slots.get_mut(id.to_key()).map(|slot| &mut slot.value)
    }

    /// The key behind `id` (`None` if stale).
    pub fn key_of(&self, id: FlowId) -> Option<FlowKey> {
        self.slots.get(id.to_key()).map(|slot| slot.key)
    }

    /// Remove the flow behind `id`. Stale handles are a no-op.
    pub fn remove(&mut self, id: FlowId) -> Option<(FlowKey, V)> {
        let slot = self.slots.remove(id.to_key())?;
        match slot.prev {
            Some(p) => {
                if let Some(prev) = self.slots.get_mut(p.to_key()) {
                    prev.next = slot.next;
                }
            }
            None => self.head = slot.next,
        }
        match slot.next {
            Some(n) => {
                if let Some(next) = self.slots.get_mut(n.to_key()) {
                    next.prev = slot.prev;
                }
            }
            None => self.tail = slot.prev,
        }
        self.index.remove(&slot.key);
        Some((slot.key, slot.value))
    }

    /// Remove the flow for `key`, if live.
    pub fn remove_key(&mut self, key: &FlowKey) -> Option<(FlowKey, V)> {
        let id = self.lookup(key)?;
        self.remove(id)
    }

    /// The oldest live flow — the next eviction candidate.
    pub fn oldest(&self) -> Option<FlowId> {
        self.head
    }

    /// Evict the oldest flow, returning it with its now-stale handle.
    pub fn evict_oldest(&mut self) -> Option<(FlowId, FlowKey, V)> {
        let id = self.head?;
        let (key, value) = self.remove(id)?;
        self.evicted += 1;
        Some((id, key, value))
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no flows are live.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Flows ever inserted.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Flows removed by capacity eviction (a subset of all removals).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total slab slots (live + free): bounded by the live high-water
    /// mark, never by total churn.
    pub fn slab_size(&self) -> usize {
        self.slots.slab_size()
    }

    /// Approximate bytes of backing storage: slab slots plus the setup
    /// hash index. The per-flow memory-budget accounting used by the
    /// scale experiment; excludes heap owned by `V`'s fields.
    pub fn approx_bytes(&self) -> usize {
        self.slots.slot_bytes()
            + self.index.capacity() * std::mem::size_of::<(FlowKey, FlowId, u64)>()
    }

    /// Iterate over live flows in slot order (deterministic, not
    /// creation order).
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowKey, &V)> {
        self.slots
            .iter()
            .map(|(k, slot)| (FlowId::of_key(k), &slot.key, &slot.value))
    }

    /// Walk the creation-order list and count entries — O(n), for tests
    /// asserting the intrusive links agree with the slab.
    pub fn linked_len(&self) -> usize {
        let mut n = 0;
        let mut cursor = self.head;
        while let Some(id) = cursor {
            n += 1;
            cursor = self.slots.get(id.to_key()).and_then(|slot| slot.next);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn key(n: u32) -> FlowKey {
        FlowKey::from_endpoints(
            (Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8), 40_000),
            (Ipv4Addr::new(10, 1, 0, 1), 80),
        )
    }

    #[test]
    fn canonical_key_is_direction_free() {
        let pkt = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            80,
            0,
            0,
            crate::wire::tcp::TcpFlags::syn(),
            vec![],
        );
        let rev = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            4000,
            0,
            0,
            crate::wire::tcp::TcpFlags::syn(),
            vec![],
        );
        let seg = pkt.as_tcp().expect("tcp");
        let seg_rev = rev.as_tcp().expect("tcp");
        assert_eq!(FlowKey::of(&pkt, seg), FlowKey::of(&rev, seg_rev));
        let fwd = FlowTuple::of_packet(&pkt);
        let bwd = FlowTuple::of_packet(&rev);
        assert_ne!(fwd, bwd, "tuples keep direction");
        assert_eq!(fwd.canonical(), bwd.canonical());
        assert_eq!(fwd.protocol, 6);
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t: FlowTable<u64> = FlowTable::new(0);
        let (a, ev) = t.insert(key(1), 11);
        assert!(ev.is_none());
        let (b, _) = t.insert(key(2), 22);
        assert_eq!(t.lookup(&key(1)), Some(a));
        assert_eq!(t.get(a), Some(&11));
        *t.get_mut(b).expect("live") += 1;
        assert_eq!(t.get(b), Some(&23));
        assert_eq!(t.key_of(a), Some(key(1)));
        assert_eq!(t.remove(a), Some((key(1), 11)));
        assert_eq!(t.get(a), None, "handle dies with the flow");
        assert_eq!(t.lookup(&key(1)), None);
        assert_eq!(t.remove(a), None, "stale removal is a no-op");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn eviction_is_oldest_first_and_counted() {
        let mut t: FlowTable<u32> = FlowTable::new(3);
        let (first, _) = t.insert(key(0), 0);
        for n in 1..3 {
            t.insert(key(n), n);
        }
        let (_, evicted) = t.insert(key(3), 3);
        assert_eq!(evicted, Some((first, key(0), 0)), "oldest flow evicted");
        assert_eq!(t.get(first), None, "evicted handle is stale");
        assert_eq!(t.len(), 3);
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.created(), 4);
    }

    #[test]
    fn stale_handles_never_alias_recycled_slots() {
        let mut t: FlowTable<u32> = FlowTable::new(0);
        let (a, _) = t.insert(key(1), 1);
        t.remove(a);
        let (b, _) = t.insert(key(2), 2);
        assert_eq!(b.index(), a.index(), "slot recycled");
        assert_ne!(b, a, "a new generation");
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(b), Some(&2));
    }

    /// The satellite churn test: run 100k flows through a capacity-bounded
    /// table with random removals and check that every piece of
    /// bookkeeping — hash index, intrusive order list, slab occupancy,
    /// created/evicted counters — exactly equals the live-flow ground
    /// truth at the end, and the slab never outgrew the live peak.
    #[test]
    fn hundred_k_churn_bookkeeping_equals_live_flows() {
        const FLOWS: u32 = 100_000;
        const CAPACITY: usize = 8_192;
        let mut t: FlowTable<u32> = FlowTable::new(CAPACITY);
        let mut rng = SimRng::seed_from_u64(0xF10A_2026);
        let mut live: Vec<(FlowKey, FlowId)> = Vec::new();
        let mut removed = 0u64;
        for n in 0..FLOWS {
            let k = key(n);
            let (id, evicted) = t.insert(k, n);
            if let Some((_, ek, _)) = evicted {
                let pos = live
                    .iter()
                    .position(|(lk, _)| *lk == ek)
                    .expect("evicted flow was live");
                live.remove(pos);
            }
            live.push((k, id));
            // Remove a random live flow every third insert.
            if n % 3 == 0 && !live.is_empty() {
                let pos = (rng.next_u64() % live.len() as u64) as usize;
                let (k, id) = live.remove(pos);
                let (gone_k, _) = t.remove(id).expect("live handle removes");
                assert_eq!(gone_k, k);
                removed += 1;
            }
        }
        assert_eq!(t.len(), live.len());
        assert_eq!(t.linked_len(), live.len(), "order list matches slab");
        assert_eq!(t.iter().count(), live.len(), "iteration matches slab");
        assert_eq!(
            t.created(),
            t.evicted() + removed + t.len() as u64,
            "every created flow is evicted, removed, or live"
        );
        assert!(t.len() <= CAPACITY);
        assert!(
            t.slab_size() <= CAPACITY,
            "slab bounded by capacity, got {}",
            t.slab_size()
        );
        for (k, id) in &live {
            assert_eq!(t.lookup(k), Some(*id));
            assert_eq!(t.key_of(*id), Some(*k));
        }
        // Drain through eviction only and re-check the ledger.
        while t.evict_oldest().is_some() {}
        assert!(t.is_empty());
        assert_eq!(t.linked_len(), 0);
        assert_eq!(t.created(), t.evicted() + removed);
    }

    #[test]
    fn duplicate_insert_replaces_without_leaking() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        let (a, _) = t.insert(key(1), 1);
        let (b, _) = t.insert(key(1), 2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.linked_len(), 1);
        assert_eq!(t.get(a), None, "replaced handle goes stale");
        assert_eq!(t.get(b), Some(&2));
        assert_eq!(t.evicted(), 0, "replacement is not an eviction");
    }
}
