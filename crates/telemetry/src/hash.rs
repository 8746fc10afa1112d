//! A fast, non-cryptographic hasher for hot-path map lookups.
//!
//! The monitors key maps by flow tuple on every segment, and telemetry
//! keys its name pool and metric slots by name and id; `std`'s default
//! SipHash costs more than the work it guards there. This is the rustc-hash
//! / FxHash construction (word-at-a-time multiply-rotate). It is not
//! DoS-resistant — fine in a simulator whose inputs we generate ourselves;
//! do not use it on attacker-controlled keys outside that setting.
//!
//! The multiply leaves the entropy of a key's last word in the hash's
//! high bits, while `hashbrown` picks buckets from the low bits. `finish`
//! therefore rotates the high bits down, as rustc-hash 2 does; without it
//! sequential flow keys (addresses stepping every few ports) share a
//! small fraction of the buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`]. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` using [`FxHasher`]. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one word, folded multiplicatively.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab\0" and "ab" diverge.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}
