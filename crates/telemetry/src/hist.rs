//! Bounded log-linear histograms (HdrHistogram-style).
//!
//! Values are `u64` (nanoseconds, bytes, counts — unit is the caller's
//! business). The value range is divided into buckets whose width grows
//! with magnitude: values below `2^SUB_BUCKET_BITS` are recorded
//! exactly; above that, each power-of-two range is split into
//! `2^(SUB_BUCKET_BITS - 1)` equal sub-buckets, bounding the relative
//! quantization error at `2^-(SUB_BUCKET_BITS - 1)` (< 0.2% here).
//!
//! [`LogLinearHistogram::record`] is branch-light integer math into a
//! fixed, pre-allocated array — no allocation, no floating point —
//! which keeps it in the tens-of-nanoseconds range. Histograms merge
//! exactly (bucket-wise addition), so per-thread or per-node histograms
//! can be combined for a fleet view. [`AtomicHistogram`] is the
//! shared-writer variant: relaxed atomic increments, lock-free,
//! snapshot on read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket precision: values `< 2^10 = 1024` are exact; larger
/// values have at most `2^-9` (~0.2%) relative quantization error.
pub const SUB_BUCKET_BITS: u32 = 10;

const SUB_BUCKET_COUNT: usize = 1 << SUB_BUCKET_BITS; // 1024
const SUB_BUCKET_HALF: usize = SUB_BUCKET_COUNT / 2; // 512
/// Number of power-of-two ranges above the exact range (`2^10 ..
/// 2^64`).
const EXP_RANGES: usize = 64 - SUB_BUCKET_BITS as usize; // 54
/// Total bucket-array length.
pub(crate) const BUCKETS: usize = SUB_BUCKET_COUNT + EXP_RANGES * SUB_BUCKET_HALF;

/// Maps a value to its bucket index. Exact for `v < 1024`; log-linear
/// above.
#[inline]
pub(crate) fn index_of(v: u64) -> usize {
    if v < SUB_BUCKET_COUNT as u64 {
        v as usize
    } else {
        // Highest set bit (>= SUB_BUCKET_BITS here).
        let exp = 63 - v.leading_zeros();
        let shift = exp - (SUB_BUCKET_BITS - 1);
        let sub = (v >> shift) as usize - SUB_BUCKET_HALF;
        SUB_BUCKET_COUNT + (exp - SUB_BUCKET_BITS) as usize * SUB_BUCKET_HALF + sub
    }
}

/// Lowest value mapping to bucket `idx` (the histogram's quantile
/// estimates report this bound, so estimates never exceed the true
/// value).
#[inline]
pub(crate) fn lower_bound_of(idx: usize) -> u64 {
    if idx < SUB_BUCKET_COUNT {
        idx as u64
    } else {
        let rel = idx - SUB_BUCKET_COUNT;
        let exp = SUB_BUCKET_BITS + (rel / SUB_BUCKET_HALF) as u32;
        let sub = (rel % SUB_BUCKET_HALF) as u64 + SUB_BUCKET_HALF as u64;
        sub << (exp - (SUB_BUCKET_BITS - 1))
    }
}

/// A single-writer log-linear histogram with exact count/sum/min/max.
#[derive(Clone)]
pub struct LogLinearHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram::new()
    }
}

impl std::fmt::Debug for LogLinearHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogLinearHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

impl LogLinearHistogram {
    /// Creates an empty histogram (one fixed ~224 KiB allocation; all
    /// subsequent operations are allocation-free).
    pub fn new() -> LogLinearHistogram {
        LogLinearHistogram {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("fixed length"),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value. Allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Records a value `n` times.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Adds every recorded value of `other` into `self` (exact).
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket containing the `ceil(q * count)`-th smallest recording
    /// (so values below 1024 are exact and larger ones under-report by
    /// at most ~0.2%). Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Tighten the outer buckets with the exact extremes.
                return lower_bound_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Count of recordings at or below `v`.
    pub fn count_at_or_below(&self, v: u64) -> u64 {
        let idx = index_of(v);
        self.counts[..=idx].iter().sum()
    }

    /// Upper quantization error bound for a recorded value `v`: the
    /// true value lies in `[reported, reported + equivalent_range(v))`.
    pub fn equivalent_range(v: u64) -> u64 {
        if v < SUB_BUCKET_COUNT as u64 {
            1
        } else {
            let exp = 63 - v.leading_zeros();
            1u64 << (exp - (SUB_BUCKET_BITS - 1))
        }
    }

    /// Clears all recordings.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// The shared-writer variant: every cell is an atomic, all updates are
/// `Relaxed` fetch-adds (lock-free, no writer coordination). Reads take
/// a [`snapshot`](AtomicHistogram::snapshot); a snapshot taken while
/// writers are active is a consistent-enough view for monitoring (the
/// per-field counters may straddle a concurrent record by one sample).
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AtomicHistogram {
    /// Creates an empty atomic histogram.
    pub fn new() -> AtomicHistogram {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        AtomicHistogram {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value; lock-free and allocation-free, callable from
    /// any thread through a shared reference.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a plain histogram for analysis.
    pub fn snapshot(&self) -> LogLinearHistogram {
        let mut h = LogLinearHistogram::new();
        let mut count = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                h.counts[i] = n;
                count += n;
            }
        }
        h.count = count;
        h.sum = u128::from(self.sum.load(Ordering::Relaxed));
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }

    /// Clears all recordings (not atomic with respect to concurrent
    /// writers; intended for tests and controlled resets).
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHistogram::new();
        for v in 0..1024u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1024);
        for v in [0u64, 1, 13, 512, 1023] {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(lower_bound_of(index_of(v)), v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 1023);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1023);
    }

    #[test]
    fn index_and_bound_are_consistent_across_the_range() {
        for v in [
            0u64,
            1,
            1023,
            1024,
            1025,
            4096,
            123_456,
            1_000_000,
            u64::from(u32::MAX),
            1 << 40,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = index_of(v);
            assert!(idx < BUCKETS, "{v} -> {idx}");
            let lo = lower_bound_of(idx);
            assert!(lo <= v, "{lo} > {v}");
            let width = LogLinearHistogram::equivalent_range(v);
            assert!(v - lo < width, "v={v} lo={lo} width={width}");
            // The lower bound maps back to the same bucket.
            assert_eq!(index_of(lo), idx);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [2_000u64, 30_000, 7_777_777, 123_456_789_012] {
            let lo = lower_bound_of(index_of(v));
            let err = (v - lo) as f64 / v as f64;
            assert!(err < 1.0 / 512.0, "v={v} err={err}");
        }
    }

    #[test]
    fn quantiles_track_exact_on_uniform_data() {
        let mut h = LogLinearHistogram::new();
        for v in 1..=100u64 {
            h.record(v * 10); // 10..=1000, all exact
        }
        assert_eq!(h.value_at_quantile(0.5), 500);
        assert_eq!(h.value_at_quantile(0.99), 990);
        assert_eq!(h.value_at_quantile(1.0), 1000);
        assert!((h.mean() - 505.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        let mut whole = LogLinearHistogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..300u64 {
            b.record(v * 7 + 1_000_000);
            whole.record(v * 7 + 1_000_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q));
        }
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        a.record_n(42, 5);
        a.record_n(9_999, 3);
        for _ in 0..5 {
            b.record(42);
        }
        for _ in 0..3 {
            b.record(9_999);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.value_at_quantile(0.5), b.value_at_quantile(0.5));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogLinearHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let ah = AtomicHistogram::new();
        let mut h = LogLinearHistogram::new();
        for v in [5u64, 5, 900, 12_345, 700_000] {
            ah.record(v);
            h.record(v);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.sum(), h.sum());
        assert_eq!(snap.min(), h.min());
        assert_eq!(snap.max(), h.max());
        assert_eq!(snap.value_at_quantile(0.5), h.value_at_quantile(0.5));
    }

    #[test]
    fn atomic_histogram_is_shareable_across_threads() {
        use std::sync::Arc;
        let ah = Arc::new(AtomicHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ah = ah.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    ah.record(t * 1_000 + (i % 997));
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(ah.count(), 40_000);
        assert_eq!(ah.snapshot().count(), 40_000);
    }

    #[test]
    fn count_at_or_below_is_monotone() {
        let mut h = LogLinearHistogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count_at_or_below(0), 0);
        assert_eq!(h.count_at_or_below(1), 1);
        assert_eq!(h.count_at_or_below(150), 3);
        assert_eq!(h.count_at_or_below(u64::MAX / 2), 6);
    }

    /// Budget per `record` call, release mode.
    const RECORD_BUDGET_NS: f64 = 100.0;

    /// `record` sits on every instrumented hot path, so a regression
    /// past the budget fails the build rather than just printing a
    /// slower number. CI runs it as
    /// `cargo test --release -p ar-telemetry --lib record_budget`.
    #[test]
    fn record_budget() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Debug builds miss the budget by an order of magnitude and that is
        // fine; the bar applies to optimized code only.
        if cfg!(debug_assertions) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(7);
        let values: Vec<u64> = (0..1_000_000)
            .map(|_| rng.gen_range(1..100_000_000))
            .collect();
        let mut h = LogLinearHistogram::new();
        let start = std::time::Instant::now();
        for &v in &values {
            h.record(v);
        }
        let per_record = start.elapsed().as_secs_f64() * 1e9 / values.len() as f64;
        assert_eq!(h.count(), values.len() as u64);
        assert!(
            per_record <= RECORD_BUDGET_NS,
            "LogLinearHistogram::record took {per_record:.1} ns, budget {RECORD_BUDGET_NS} ns"
        );
        println!(
            "record budget check: {per_record:.1} ns per record (budget {RECORD_BUDGET_NS} ns)"
        );
    }
}
