//! Log-bucketed streaming histograms: the one histogram type of the
//! workspace, for buffer occupancies and cycle-scale latencies alike.
//!
//! [`LogHistogram`] is HDR-histogram style: unit buckets below 64, then
//! 64 sub-buckets per power-of-two octave, covering the full `u64` range
//! with bounded relative error. The first octave's sub-buckets are one
//! value wide, so every value below 128 is counted exactly. The bucket
//! vector grows only to the highest bucket hit, capped at 3,776 counters
//! (~30 KB): a buffer occupancy (≤ 64) costs at most 65 counters, and a
//! 2 M-cycle latency tail about 1,000, where one bucket per value would
//! take a 16 MB counts vector *per series*.
//!
//! [`LatencySplit`] bundles three of them to carry the per-request
//! queueing-delay vs service-time decomposition used by the open-loop
//! traffic frontend.

/// log2 of the sub-bucket count per octave (and of the linear range).
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave; also the size of the exact linear range.
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range: values with a top bit in
/// `SUB_BITS..=63`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
/// Bucket count covering the whole `u64` range: the cap on a
/// histogram's bucket vector.
const NUM_BUCKETS: usize = SUB + OCTAVES * SUB;

/// A log-bucketed streaming histogram over `u64` samples with bounded
/// memory and bounded relative error.
///
/// Values below 128 are counted exactly (one-value buckets). Above
/// that, each power-of-two octave is split into 64 sub-buckets, so a
/// bucket spanning `[lo, lo + w)` always has `w ≤ lo / 64`. Percentiles
/// report the bucket midpoint, making the worst-case relative error
/// `1 / 128` (< 0.8%) — see [`LogHistogram::REL_ERROR`]. Memory is one
/// counter per bucket up to the highest bucket hit, never more than
/// `NUM_BUCKETS` (= 3776) whatever the stream length.
///
/// Min, max, count and sum are tracked exactly; only percentiles are
/// approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Per-bucket counts up to the highest bucket hit: empty, or ending
    /// in a non-zero count, so derived equality compares content.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Guaranteed worst-case relative error of [`LogHistogram::percentile`]
    /// versus the exact sample percentile: half of one sub-bucket width.
    pub const REL_ERROR: f64 = 1.0 / (2 * SUB) as f64;

    /// Create an empty histogram (allocates nothing).
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `value`.
    fn bucket_of(value: u64) -> usize {
        if value < SUB as u64 {
            value as usize
        } else {
            // Top set bit position; >= SUB_BITS here.
            let top = 63 - value.leading_zeros();
            let shift = top - SUB_BITS;
            let sub = (value >> shift) as usize - SUB;
            SUB + (shift as usize) * SUB + sub
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `b`.
    fn bucket_bounds(b: usize) -> (u64, u64) {
        if b < SUB {
            (b as u64, b as u64)
        } else {
            let k = b - SUB;
            let shift = (k / SUB) as u32;
            let m = (k % SUB) as u64;
            let lo = (SUB as u64 + m) << shift;
            // Parenthesized so the final bucket (hi == u64::MAX) does
            // not overflow on the intermediate `lo + width`.
            let hi = lo + ((1u64 << shift) - 1);
            (lo, hi)
        }
    }

    /// Representative value reported for bucket `b` (its midpoint).
    fn bucket_mid(b: usize) -> u64 {
        let (lo, hi) = Self::bucket_bounds(b);
        lo + (hi - lo) / 2
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = Self::bucket_of(value);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact arithmetic mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0.0..=100.0), or 0 if empty.
    ///
    /// The rank is `ceil(p/100 · count)`, clamped to at least 1, so p0
    /// is the smallest recorded value. The returned value is the
    /// midpoint of the bucket holding the ranked sample, within
    /// [`LogHistogram::REL_ERROR`] of the exact sample (and exact for
    /// samples below 128).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the exact extremes so p0/p100 are honest.
                return Self::bucket_mid(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, &c) in self.counts.iter_mut().zip(&other.counts) {
            *mine += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty `(bucket_index, count)` pairs in ascending index
    /// order — a sparse view for exact serialization (the outcome cache
    /// round-trips histograms through [`LogHistogram::from_parts`]).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
    }

    /// Exact sum of all recorded samples (the numerator of
    /// [`LogHistogram::mean`]).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The raw internal minimum: `u64::MAX` when empty, unlike the
    /// 0-reporting [`LogHistogram::min`]. Paired with
    /// [`LogHistogram::from_parts`] for lossless reconstruction.
    pub fn min_raw(&self) -> u64 {
        self.min
    }

    /// Rebuild a histogram from its sparse serialized form: the
    /// [`LogHistogram::nonzero_buckets`] pairs plus the exact aggregates
    /// (`sum`, the raw minimum, the maximum). Returns `None` when the
    /// parts are not a histogram any record stream could have produced —
    /// a bucket index out of range or not strictly ascending, a zero or
    /// overflowing count, aggregates inconsistent with emptiness, or a
    /// minimum or maximum outside the first or last occupied bucket. The
    /// cache treats that as a miss; the vector it allocates is bounded by
    /// `NUM_BUCKETS` whatever the input.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        sum: u128,
        min_raw: u64,
        max: u64,
    ) -> Option<LogHistogram> {
        let mut h = LogHistogram::new();
        for &(b, c) in buckets {
            if b >= NUM_BUCKETS || b < h.counts.len() || c == 0 {
                return None;
            }
            h.counts.resize(b + 1, 0);
            h.counts[b] = c;
            h.total = h.total.checked_add(c)?;
        }
        let consistent = match (buckets.first(), buckets.last()) {
            (Some(&(first, _)), Some(&(last, _))) => {
                min_raw <= max && Self::bucket_of(min_raw) == first && Self::bucket_of(max) == last
            }
            _ => sum == 0 && min_raw == u64::MAX && max == 0,
        };
        if !consistent {
            return None;
        }
        h.sum = sum;
        h.min = min_raw;
        h.max = max;
        Some(h)
    }
}

/// Per-request latency decomposition: a request's total sojourn time is
/// the queueing delay (arrival → service start) plus the service time
/// (service start → completion). Three [`LogHistogram`]s, one per
/// component, recorded together so the split always sums consistently.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySplit {
    /// Total sojourn time (arrival → completion).
    pub total: LogHistogram,
    /// Queueing delay (arrival → service start).
    pub queueing: LogHistogram,
    /// Service time (service start → completion).
    pub service: LogHistogram,
}

impl LatencySplit {
    /// Create an empty split.
    pub fn new() -> LatencySplit {
        LatencySplit::default()
    }

    /// Record one request that waited `queueing` cycles and was then
    /// served in `service` cycles (total = queueing + service).
    pub fn record(&mut self, queueing: u64, service: u64) {
        self.total.record(queueing + service);
        self.queueing.record(queueing);
        self.service.record(service);
    }

    /// Number of requests recorded.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Merge another split into this one.
    pub fn merge(&mut self, other: &LatencySplit) {
        self.total.merge(&other.total);
        self.queueing.merge(&other.queueing);
        self.service.merge(&other.service);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        assert!(h.counts.is_empty(), "an empty histogram allocates nothing");
        for v in 0..128u64 {
            h.record(v);
            // Below 128 the bucket vector grows only to the largest value.
            assert_eq!(h.counts.len() as u64, v + 1);
        }
        assert_eq!(h.count(), 128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        // Every percentile of a 0..128 uniform set is the exact value.
        for v in 0..128u64 {
            let p = (v + 1) as f64 / 128.0 * 100.0;
            assert_eq!(h.percentile(p), v, "p{p}");
        }

        // Weighted boundary ranks: p90 of 90×0 + 10×10 lands exactly on
        // the last 0-sample; the first rank past it moves to the next
        // occupied bucket.
        let mut w = LogHistogram::new();
        w.record_n(0, 90);
        w.record_n(10, 10);
        assert_eq!(w.percentile(90.0), 0);
        assert_eq!(w.percentile(90.5), 10);
        assert_eq!(w.percentile(100.0), 10);
        assert!((w.mean() - 1.0).abs() < 1e-12);
        assert_eq!(w.counts.len(), 11);
    }

    #[test]
    fn bucket_round_trip() {
        // Every bucket's bounds map back to that bucket, bounds tile the
        // line with no gaps, and the midpoint is inside.
        let mut expect_lo = 0u64;
        for b in 0..NUM_BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(b);
            assert_eq!(lo, expect_lo, "gap before bucket {b}");
            assert!(hi >= lo);
            assert_eq!(LogHistogram::bucket_of(lo), b);
            assert_eq!(LogHistogram::bucket_of(hi), b);
            let mid = LogHistogram::bucket_mid(b);
            assert!((lo..=hi).contains(&mid));
            expect_lo = hi.wrapping_add(1);
        }
        // The last bucket ends at u64::MAX.
        assert_eq!(expect_lo, 0, "buckets must cover the full u64 range");
        assert_eq!(LogHistogram::bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_bound_holds() {
        // A recorded value's reported bucket midpoint is within
        // REL_ERROR of the value, for magnitudes across many octaves.
        for &v in &[
            1u64,
            63,
            64,
            65,
            100,
            1_000,
            4_097,
            65_535,
            1_000_000,
            123_456_789,
            u64::MAX / 3,
        ] {
            let mut h = LogHistogram::new();
            h.record(v);
            let got = h.percentile(50.0);
            let err = got.abs_diff(v) as f64;
            assert!(
                err <= v as f64 * LogHistogram::REL_ERROR + 0.5,
                "v={v} got={got} err={err}"
            );
        }
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        h.record(1_000_003);
        h.record(17);
        h.record_n(99, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 17);
        assert_eq!(h.max(), 1_000_003);
        let exact = (1_000_003u64 + 17 + 99 + 99) as f64 / 4.0;
        assert!((h.mean() - exact).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates_range() {
        LogHistogram::new().percentile(-1.0);
    }

    #[test]
    fn merge_matches_combined_stream() {
        let vals_a = [3u64, 70, 900, 1_000_000];
        let vals_b = [5u64, 70, 44_000];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for &v in &vals_a {
            a.record(v);
            both.record(v);
        }
        for &v in &vals_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = LogHistogram::new();
        h.record_n(123, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn extremes_clamp_to_exact_min_max() {
        let mut h = LogHistogram::new();
        h.record(1_000_000);
        // A single sample answers every percentile within the bound, and
        // p0/p100-style queries never leave the observed range.
        assert!(h.percentile(0.0) >= h.min());
        assert!(h.percentile(100.0) <= h.max());

        // p0 clamps to rank 1: the smallest recorded value, not bucket 0.
        let mut small = LogHistogram::new();
        for v in [3, 5, 9] {
            small.record(v);
        }
        assert_eq!(small.percentile(0.0), 3);
    }

    #[test]
    fn parts_round_trip_exactly() {
        let mut h = LogHistogram::new();
        for &v in &[0u64, 3, 63, 64, 700, 1_000_003, u64::MAX / 5] {
            h.record(v);
        }
        h.record_n(99, 4);
        let parts = |h: &LogHistogram| {
            let buckets: Vec<_> = h.nonzero_buckets().collect();
            LogHistogram::from_parts(&buckets, h.sum(), h.min_raw(), h.max())
        };
        assert_eq!(parts(&h), Some(h), "sparse parts must reconstruct exactly");

        // The empty histogram round-trips too.
        let e = LogHistogram::new();
        assert_eq!(parts(&e), Some(e));
    }

    #[test]
    fn from_parts_rejects_malformed_input() {
        // Bucket index out of range.
        assert!(LogHistogram::from_parts(&[(NUM_BUCKETS, 1)], 0, 0, 0).is_none());
        // Zero count is not produceable by any record stream.
        assert!(LogHistogram::from_parts(&[(3, 0)], 3, 3, 3).is_none());
        // Empty buckets with non-empty aggregates.
        assert!(LogHistogram::from_parts(&[], 7, u64::MAX, 0).is_none());
        assert!(LogHistogram::from_parts(&[], 0, 3, 3).is_none());
        // min > max on a non-empty histogram.
        assert!(LogHistogram::from_parts(&[(3, 1)], 3, 9, 3).is_none());
        // Total overflow.
        assert!(LogHistogram::from_parts(&[(1, u64::MAX), (2, 1)], 0, 1, 2).is_none());
        // Huge indices are rejected before anything is allocated.
        assert!(LogHistogram::from_parts(&[(usize::MAX, 1)], 0, 0, 0).is_none());
        assert!(LogHistogram::from_parts(&[(1 << 40, 1)], 0, 0, 0).is_none());
        // Bucket indices not strictly ascending: repeated, or descending.
        assert!(LogHistogram::from_parts(&[(3, 1), (3, 1)], 6, 3, 3).is_none());
        assert!(LogHistogram::from_parts(&[(5, 1), (3, 1)], 8, 3, 5).is_none());
        // The minimum or maximum outside the first or last occupied bucket.
        assert!(LogHistogram::from_parts(&[(3, 1), (5, 1)], 8, 2, 5).is_none());
        assert!(LogHistogram::from_parts(&[(3, 1), (5, 1)], 8, 4, 5).is_none());
        assert!(LogHistogram::from_parts(&[(3, 1), (5, 1)], 8, 3, 6).is_none());
        assert!(LogHistogram::from_parts(&[(3, 1), (5, 1)], 8, 3, 4).is_none());
        // The same parts with consistent extremes are accepted.
        assert!(LogHistogram::from_parts(&[(3, 1), (5, 1)], 8, 3, 5).is_some());
    }

    #[test]
    fn latency_split_records_consistently() {
        let mut s = LatencySplit::new();
        s.record(100, 250);
        s.record(0, 4_000);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total.max(), 4_000);
        assert_eq!(s.queueing.max(), 100);
        assert_eq!(s.service.max(), 4_000);
        let mut t = LatencySplit::new();
        t.record(7, 7);
        s.merge(&t);
        assert_eq!(s.count(), 3);
    }
}
