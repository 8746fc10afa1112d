//! A fast, non-cryptographic hasher for per-packet map lookups.
//!
//! The monitors key maps by flow tuple on every segment; `std`'s default
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&(1u32, 2u16, "abc")), hash_of(&(1u32, 2u16, "abc")));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&[1u8, 2]), hash_of(&[2u8, 1]));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut map: FxHashMap<(u32, u16), &str> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, (i % 7) as u16), "v");
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(13, 6)), Some(&"v"));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.extend(0..100u64);
        assert!(set.contains(&99) && !set.contains(&100));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Weak but load-bearing: sequential flow tuples must not collapse
        // into a handful of buckets.
        let hashes: FxHashSet<u64> = (0..4096u32).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn sequential_flow_keys_spread_over_the_low_bits() {
        // The churn layout: a source address stepping every 16 flows, ports
        // 40000-40015, one server. Bucket choice reads the low bits, so they
        // must not collapse (8,092 distinct values without the finaliser).
        use crate::flow::FlowKey;
        use std::net::Ipv4Addr;
        let server = (Ipv4Addr::new(10, 0, 2, 2), 80);
        let low: FxHashSet<u64> = (0..100_000u32)
            .map(|i| {
                let src = (
                    Ipv4Addr::from(0x0a00_0000 | (i >> 4)),
                    40_000 + (i & 0xF) as u16,
                );
                hash_of(&FlowKey::from_endpoints(src, server)) & 0x1_FFFF
            })
            .collect();
        assert!(
            low.len() >= 60_000,
            "{} distinct low-17-bit values",
            low.len()
        );
    }
}
