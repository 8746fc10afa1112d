//! Log-bucketed histogram with **fixed** bucket boundaries.
//!
//! Bucket boundaries never depend on the observed data, so two histograms
//! produced by different shards of the same workload merge by element-wise
//! bucket addition and render byte-identically regardless of worker count
//! or observation order. Bucket `i` holds values whose bit length is `i`:
//! bucket 0 is exactly `{0}`, bucket `i ≥ 1` is `[2^(i-1), 2^i)`, and the
//! last bucket (index 64) is `[2^63, u64::MAX]`.

/// Number of buckets: one for zero plus one per possible bit length (1–64).
pub const BUCKET_COUNT: usize = 65;

/// A fixed-boundary log2 histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKET_COUNT],
        }
    }

    /// The bucket index a value falls into (its bit length).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive `(low, high)` bounds of bucket `i`.
    ///
    /// Defined for `i < BUCKET_COUNT`; callers index with in-range values.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = &mut self.buckets[Self::bucket_index(value)];
        *bucket = bucket.wrapping_add(1);
    }

    /// Fold another histogram into this one (element-wise bucket addition;
    /// associative and commutative, so shard merge order does not matter).
    /// Counts wrap on overflow, as [`crate::Telemetry::count`] does, so a merge
    /// never panics.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.wrapping_add(*o);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKET_COUNT] {
        &self.buckets
    }

    /// Deterministic quantile estimate from the fixed log buckets: the
    /// upper bound of the bucket containing the `pct`-th percentile rank
    /// (`rank = ceil(count * pct / 100)`), clamped into `[min, max]` so
    /// estimates never leave the observed range. Exact when every
    /// observation in the quantile bucket equals its bound; otherwise an
    /// upper estimate within one power of two. 0 when empty.
    pub fn quantile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count.saturating_mul(pct)).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                let (_, hi) = Self::bucket_bounds(i);
                return hi.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Reconstruct a histogram from serialized parts (the journal codec's
    /// decode path). `min` is as reported by [`Histogram::min`] — 0 for an
    /// empty histogram — and is restored to the internal sentinel when
    /// `count == 0`, so decode(encode(h)) == h for every histogram.
    ///
    /// `None` when the parts describe no histogram that observations and
    /// merges can produce: the buckets must sum to `count`, an empty
    /// histogram must be all zeros, and otherwise `min` and `max` must
    /// fall in the lowest and highest non-empty buckets. Accepting only
    /// such parts keeps [`Histogram::quantile`]'s `[min, max]` clamp
    /// well-formed for every decoded histogram.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; BUCKET_COUNT],
    ) -> Option<Histogram> {
        let total = buckets
            .iter()
            .try_fold(0u64, |acc, &n| acc.checked_add(n))?;
        if total != count {
            return None;
        }
        if count == 0 {
            return (sum == 0 && min == 0 && max == 0).then(Histogram::new);
        }
        let lowest = buckets.iter().position(|&n| n != 0)?;
        let highest = buckets.iter().rposition(|&n| n != 0)?;
        let consistent =
            min <= max && Self::bucket_index(min) == lowest && Self::bucket_index(max) == highest;
        consistent.then_some(Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn observe_tracks_extremes_and_count() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        for v in [5u64, 0, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1005);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 335);
    }

    #[test]
    fn merge_equals_combined_observation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..100u64 {
            whole.observe(v * v);
            if v % 2 == 0 {
                a.observe(v * v);
            } else {
                b.observe(v * v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantiles_are_deterministic_and_clamped() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(50), 0);
        let mut one = Histogram::new();
        one.observe(37);
        for pct in [0u64, 50, 90, 99, 100] {
            assert_eq!(one.quantile(pct), 37, "single-value clamp at p{pct}");
        }
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // rank 50 lands in bucket [32,63]; clamped upper bound ≤ max.
        assert_eq!(h.quantile(50), 63);
        assert_eq!(h.quantile(99), 100, "top bucket clamps to max");
        assert!(h.quantile(50) <= h.quantile(90));
        assert!(h.quantile(90) <= h.quantile(99));
    }

    #[test]
    fn quantile_equals_merged_quantile() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..1000u64 {
            whole.observe(v * 3);
            if v % 2 == 0 {
                a.observe(v * 3);
            } else {
                b.observe(v * 3);
            }
        }
        a.merge(&b);
        for pct in [50u64, 90, 99] {
            assert_eq!(a.quantile(pct), whole.quantile(pct), "p{pct}");
        }
    }

    #[test]
    fn bounds_partition_the_domain() {
        // Every bucket's high bound is one less than the next low bound.
        for i in 0..BUCKET_COUNT - 1 {
            let (_, hi) = Histogram::bucket_bounds(i);
            let (lo_next, _) = Histogram::bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "bucket {i}");
        }
        assert_eq!(Histogram::bucket_bounds(BUCKET_COUNT - 1).1, u64::MAX);
    }
}
