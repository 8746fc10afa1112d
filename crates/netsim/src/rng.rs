//! Seeded randomness for reproducible simulations.
//!
//! Every stochastic decision in the simulator (link loss, workload
//! inter-arrival times) draws from a [`SimRng`] created from an explicit
//! seed, so a run is a pure function of its configuration.
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) seeded via
//! SplitMix64, so the simulator has no external RNG dependency and the
//! stream is stable across toolchains.

/// The SplitMix64 finalizer (Steele, Lea & Flood): adds the golden-ratio
/// increment and scrambles, so seeds differing in few bits decorrelate.
///
/// This is the **single shared definition** for the whole workspace —
/// [`SimRng`] seeds its state with it and `campaign::seed` derives
/// per-trial and per-attempt seeds from it.
#[inline]
pub fn splitmix64_mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 step: used to expand a 64-bit seed into generator state and
/// to derive independent child seeds.
fn splitmix64(state: &mut u64) -> u64 {
    let out = splitmix64_mix(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// A deterministic random number generator for the simulation.
///
/// Thin wrapper over an in-tree xoshiro256++ exposing just the draws the
/// simulator needs; wrapping keeps the RNG choice in one place and lets
/// tests assert stream stability.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator. Used to give each node or
    /// workload its own stream so adding one does not perturb the others.
    pub fn fork(&mut self) -> SimRng {
        let seed = self.next_u64();
        SimRng::seed_from_u64(seed)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A uniform integer in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.bounded(hi - lo)
        }
    }

    /// A uniform integer in `[lo, hi)` as `u32`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        if hi <= lo {
            lo
        } else {
            lo + self.bounded(u64::from(hi - lo)) as u32
        }
    }

    /// A uniform `usize` index in `[0, len)`. Returns 0 when `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.bounded(len as u64) as usize
        }
    }

    /// A raw 32-bit draw (initial sequence numbers, IP identification, ...).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Exponentially distributed draw with the given mean (for Poisson
    /// arrival processes in workload generators). Mean of zero yields zero.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling; guard the log against u == 0.
        let u = self.unit().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Uniform draw in `[0, bound)` via Lemire's widening-multiply method
    /// with a rejection pass to remove bias. `bound` must be non-zero.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_mix_reference_vector() {
        // Known-answer vector for the shared finalizer (the canonical
        // SplitMix64 stream seeded at 0 starts with this value); pins the
        // function every seed-derivation path in the workspace relies on.
        assert_eq!(splitmix64_mix(0), 0xE220_A839_7B1D_CDAF);
        // Avalanche sanity: adjacent inputs produce unrelated outputs.
        let a = splitmix64_mix(1);
        let b = splitmix64_mix(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 16, "{a:#x} vs {b:#x}");
    }

    #[test]
    fn splitmix64_step_matches_the_shared_finalizer() {
        // The stateful stepper must produce exactly the shared finalizer's
        // value for the pre-advance state (the historical behaviour the
        // xoshiro seeding depends on).
        let mut state = 42u64;
        let out = splitmix64(&mut state);
        assert_eq!(out, splitmix64_mix(42));
        assert_eq!(state, 42u64.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_independent_of_later_parent_draws() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut child1 = parent1.fork();
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut child2 = parent2.fork();
        // Draw from one parent only; children must still agree.
        let _ = parent1.next_u64();
        for _ in 0..10 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn range_handles_empty() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.range_u64(5, 5), 5);
        assert_eq!(rng.range_u64(9, 3), 9);
        assert_eq!(rng.index(0), 0);
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 17);
            assert!((10..17).contains(&v));
            let w = rng.range_u32(3, 5);
            assert!((3..5).contains(&w));
            let i = rng.index(9);
            assert!(i < 9);
        }
    }

    #[test]
    fn unit_in_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_is_nonnegative_with_roughly_right_mean() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 20_000;
        let mean = 5.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.exp(mean);
            assert!(x >= 0.0);
            sum += x;
        }
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.25,
            "sample mean {sample_mean}"
        );
        assert_eq!(rng.exp(0.0), 0.0);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
