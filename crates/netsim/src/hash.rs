//! The workspace's fast hasher, [`underradar_telemetry::hash`], re-exported
//! where the monitors' per-packet maps use it.

pub use underradar_telemetry::hash::{FxHashMap, FxHashSet, FxHasher};

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

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
