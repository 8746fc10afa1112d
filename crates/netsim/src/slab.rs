//! Generational slab arena shared by the hot-state containers.
//!
//! Extracted from the IDS crate's LRU order queue so flow tables,
//! reassembly bookkeeping, and MVR class state share one audited
//! implementation. A [`Slab`] hands out typed generational handles
//! ([`SlabKey`]): slot indices are recycled through a free list, but each
//! recycle bumps the slot's generation, so a stale handle can never alias
//! the slot's next occupant — lookups through it return `None` instead.

use std::marker::PhantomData;

/// A typed generational handle into a [`Slab<T>`].
///
/// `Copy` and 8 bytes: an index plus the generation the slot had when the
/// value was inserted. After the value is removed the slot's generation
/// advances, so this key — and any copy of it — stops resolving.
pub struct SlabKey<T> {
    index: u32,
    gen: u32,
    _ty: PhantomData<fn() -> T>,
}

impl<T> SlabKey<T> {
    /// The raw slot index. Stable for the value's lifetime; useful for
    /// indexing dense side tables (pair it with [`SlabKey::generation`]
    /// to detect reuse).
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// The generation the slot had when this key was issued.
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// Reassemble a key from parts previously read off [`SlabKey::index`]
    /// and [`SlabKey::generation`] (arena composition within the crate).
    pub(crate) fn from_parts(index: u32, gen: u32) -> SlabKey<T> {
        SlabKey {
            index,
            gen,
            _ty: PhantomData,
        }
    }
}

// Manual impls: `derive` would bound them on `T`, but the key is just an
// (index, generation) pair regardless of the slot type.
impl<T> Clone for SlabKey<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlabKey<T> {}
impl<T> PartialEq for SlabKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.gen == other.gen
    }
}
impl<T> Eq for SlabKey<T> {}
impl<T> std::hash::Hash for SlabKey<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.index.hash(state);
        self.gen.hash(state);
    }
}
impl<T> std::fmt::Debug for SlabKey<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlabKey({}@g{})", self.index, self.gen)
    }
}

#[derive(Debug)]
struct Entry<T> {
    /// Bumped on removal; a slot's generation counts how many values have
    /// died in it. (A u32 wraps after 4 billion recycles of one slot —
    /// beyond any simulated population's churn.)
    gen: u32,
    value: Option<T>,
}

/// A generational slab: dense `Vec` storage, free-list slot reuse, and
/// stale-handle detection. All operations are O(1); the only allocations
/// are `Vec` growth when the live count reaches a new high-water mark.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab {
            entries: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Insert a value, returning its handle. Reuses a free slot if one
    /// exists (the handle carries the slot's current generation).
    pub fn insert(&mut self, value: T) -> SlabKey<T> {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let entry = &mut self.entries[index as usize];
            debug_assert!(entry.value.is_none());
            entry.value = Some(value);
            return SlabKey::from_parts(index, entry.gen);
        }
        let index = self.entries.len() as u32;
        self.entries.push(Entry {
            gen: 0,
            value: Some(value),
        });
        SlabKey::from_parts(index, 0)
    }

    /// Drop every value and restart slot numbering and generations as
    /// [`Slab::new`] does, keeping the entries' capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Remove the value behind `key`. Stale keys (slot already recycled or
    /// removed) return `None` — removal is idempotent by construction.
    pub fn remove(&mut self, key: SlabKey<T>) -> Option<T> {
        let entry = self.entries.get_mut(key.index as usize)?;
        if entry.gen != key.gen || entry.value.is_none() {
            return None;
        }
        let value = entry.value.take();
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(key.index);
        self.len -= 1;
        value
    }

    /// Shared access to the value behind `key` (`None` if stale).
    pub fn get(&self, key: SlabKey<T>) -> Option<&T> {
        let entry = self.entries.get(key.index as usize)?;
        if entry.gen != key.gen {
            return None;
        }
        entry.value.as_ref()
    }

    /// Mutable access to the value behind `key` (`None` if stale).
    pub fn get_mut(&mut self, key: SlabKey<T>) -> Option<&mut T> {
        let entry = self.entries.get_mut(key.index as usize)?;
        if entry.gen != key.gen {
            return None;
        }
        entry.value.as_mut()
    }

    /// Whether `key` still resolves to a live value.
    pub fn contains(&self, key: SlabKey<T>) -> bool {
        self.get(key).is_some()
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots allocated (live + free) — the bookkeeping footprint
    /// that leak-regression tests bound against the live count.
    pub fn slab_size(&self) -> usize {
        self.entries.len()
    }

    /// Bytes of backing storage currently reserved for slot entries (the
    /// per-flow memory-budget accounting used by the scale experiment).
    pub fn slot_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry<T>>()
    }

    /// Iterate over live values in slot order (deterministic, but *not*
    /// insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey<T>, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            e.value
                .as_ref()
                .map(|v| (SlabKey::from_parts(i as u32, e.gen), v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<&'static str> = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), None, "removed key stops resolving");
    }

    #[test]
    fn stale_handles_never_alias_recycled_slots() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        assert_eq!(b.index(), a.index(), "slot recycled");
        assert_ne!(b.generation(), a.generation(), "generation advanced");
        assert_eq!(slab.get(a), None, "stale key misses");
        assert_eq!(slab.get(b), Some(&2));
        assert_eq!(slab.remove(a), None, "stale removal is a no-op");
        assert_eq!(slab.get(b), Some(&2), "live value untouched by stale key");
    }

    #[test]
    fn slab_size_is_bounded_by_high_water_mark() {
        let mut slab: Slab<u64> = Slab::new();
        for round in 0..50u64 {
            let keys: Vec<_> = (0..8).map(|i| slab.insert(round * 8 + i)).collect();
            for k in keys {
                slab.remove(k);
            }
        }
        assert_eq!(slab.len(), 0);
        assert!(slab.slab_size() <= 8, "slots recycled, not leaked");
    }

    #[test]
    fn iter_yields_live_values_in_slot_order() {
        let mut slab: Slab<char> = Slab::new();
        let a = slab.insert('a');
        let _b = slab.insert('b');
        let _c = slab.insert('c');
        slab.remove(a);
        let got: Vec<char> = slab.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec!['b', 'c']);
    }
}
