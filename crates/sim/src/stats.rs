//! Metric collection for the experiment harnesses.
//!
//! Every experiment harness (ARCHITECTURE.md, "Experiments as scenarios")
//! reports summary statistics (means, percentiles, counts, rates).  The collectors here are deliberately simple
//! and allocation-light so they can be embedded in per-node simulation state.

/// Streaming mean / variance / min / max (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.  Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The raw internal state, for bit-exact persistence (checkpointing).
    ///
    /// The returned fields are the accumulator's *internal* values, not the
    /// saturating views of the public getters: `min`/`max` are ±∞ while the
    /// accumulator is empty, and `mean` is the raw running mean.  Feeding
    /// them back through [`OnlineStats::from_raw_state`] reconstructs an
    /// accumulator that continues the stream bit-identically.
    pub fn raw_state(&self) -> OnlineStatsState {
        OnlineStatsState {
            count: self.count,
            mean: self.mean,
            m2: self.m2,
            min: self.min,
            max: self.max,
        }
    }

    /// Reconstructs an accumulator from persisted [`OnlineStats::raw_state`]
    /// output.  The round-trip is bit-exact: recording or merging into the
    /// reconstruction produces the same bits as into the original.
    pub fn from_raw_state(state: OnlineStatsState) -> Self {
        OnlineStats {
            count: state.count,
            mean: state.mean,
            m2: state.m2,
            min: state.min,
            max: state.max,
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The raw persisted state of an [`OnlineStats`], produced by
/// [`OnlineStats::raw_state`] and consumed by [`OnlineStats::from_raw_state`].
///
/// All fields are the accumulator's internal representation (see
/// [`OnlineStats::raw_state`] for the empty-accumulator conventions); they
/// exist so checkpointing code can serialise the accumulator bit-exactly
/// without this crate prescribing a storage format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStatsState {
    /// Number of finite observations recorded.
    pub count: u64,
    /// Raw running mean (0.0 while empty).
    pub mean: f64,
    /// Raw sum of squared deviations (Welford's M2).
    pub m2: f64,
    /// Raw running minimum (+∞ while empty).
    pub min: f64,
    /// Raw running maximum (−∞ while empty).
    pub max: f64,
}

/// Sample-retaining histogram with percentile queries.
///
/// Retains all samples (the experiments record at most a few hundred thousand
/// values) so exact percentiles can be reported.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { samples: Vec::new(), sorted: true }
    }

    /// Adds one sample.  Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `q`-quantile (q in [0, 1]) using nearest-rank on sorted samples,
    /// or 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[idx]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Maximum sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Minimum sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }
}

/// Fixed-bucket, constant-memory histogram with quantile queries.
///
/// Unlike [`Histogram`], which retains every sample, this collector spreads a
/// configured value range over a fixed number of equal-width buckets, so its
/// memory footprint is independent of the number of samples and two
/// histograms with the same configuration (e.g. built by two worker threads
/// of a campaign) can be [merged](BucketHistogram::merge) exactly by adding
/// bucket counts.  Quantiles are resolved by nearest rank over the buckets
/// and reported as the midpoint of the containing bucket, so their resolution
/// is one bucket width; the minimum and maximum are tracked exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketHistogram {
    lo: f64,
    hi: f64,
    /// `(hi - lo) / counts.len()`, derived from the three and never persisted.
    width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl BucketHistogram {
    /// Creates a histogram covering `[lo, hi]` with `buckets` equal-width
    /// buckets.  Samples below `lo` / above `hi` land in dedicated
    /// underflow/overflow buckets whose quantile representative is the exact
    /// observed minimum/maximum.
    ///
    /// # Panics
    /// Panics if `buckets == 0` or the range is empty or non-finite.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "BucketHistogram needs at least one bucket");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "BucketHistogram range must be finite and non-empty"
        );
        BucketHistogram {
            lo,
            hi,
            width: (hi - lo) / buckets as f64,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.  Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < self.lo {
            self.underflow += 1;
        } else if value > self.hi {
            self.overflow += 1;
        } else {
            let idx = (((value - self.lo) / self.width) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (exact, not bucketed), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (q in [0, 1]) by nearest rank over the buckets, or 0
    /// when empty.  The answer is the midpoint of the bucket containing the
    /// target rank (clamped to the exact observed min/max), so it is accurate
    /// to one bucket width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count - 1) as f64 * q).round() as u64;
        if target == 0 {
            return self.min;
        }
        if target >= self.count - 1 {
            return self.max;
        }
        let mut seen = self.underflow;
        if target < seen {
            return self.min;
        }
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if target < seen {
                let mid = self.lo + (i as f64 + 0.5) * self.width;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The raw internal state, for bit-exact persistence (checkpointing).
    ///
    /// Like [`OnlineStats::raw_state`], the returned `min`/`max` are the raw
    /// running extremes (±∞ while empty), not the saturating public getters.
    pub fn raw_state(&self) -> BucketHistogramState {
        BucketHistogramState {
            lo: self.lo,
            hi: self.hi,
            counts: self.counts.clone(),
            underflow: self.underflow,
            overflow: self.overflow,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Reconstructs a histogram from persisted [`BucketHistogram::raw_state`]
    /// output.  The round-trip is bit-exact: recording or merging into the
    /// reconstruction produces the same bits as into the original.
    ///
    /// # Panics
    /// Panics if the persisted bucket configuration is invalid (no buckets,
    /// or an empty/non-finite range) — corrupted state must not be revived.
    pub fn from_raw_state(state: BucketHistogramState) -> Self {
        assert!(!state.counts.is_empty(), "BucketHistogram needs at least one bucket");
        assert!(
            state.lo.is_finite() && state.hi.is_finite() && state.lo < state.hi,
            "BucketHistogram range must be finite and non-empty"
        );
        BucketHistogram {
            lo: state.lo,
            hi: state.hi,
            width: (state.hi - state.lo) / state.counts.len() as f64,
            counts: state.counts,
            underflow: state.underflow,
            overflow: state.overflow,
            count: state.count,
            sum: state.sum,
            min: state.min,
            max: state.max,
        }
    }

    /// Merges another histogram into this one by adding bucket counts.
    ///
    /// # Panics
    /// Panics if the two histograms were built with different ranges or
    /// bucket counts.
    pub fn merge(&mut self, other: &BucketHistogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "merged BucketHistograms must share their bucket configuration"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The raw persisted state of a [`BucketHistogram`], produced by
/// [`BucketHistogram::raw_state`] and consumed by
/// [`BucketHistogram::from_raw_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct BucketHistogramState {
    /// Lower edge of the bucketed range.
    pub lo: f64,
    /// Upper edge of the bucketed range.
    pub hi: f64,
    /// Per-bucket sample counts (equal-width buckets across `[lo, hi]`).
    pub counts: Vec<u64>,
    /// Samples recorded below `lo`.
    pub underflow: u64,
    /// Samples recorded above `hi`.
    pub overflow: u64,
    /// Total finite samples recorded.
    pub count: u64,
    /// Exact running sum of the samples.
    pub sum: f64,
    /// Raw running minimum (+∞ while empty).
    pub min: f64,
    /// Raw running maximum (−∞ while empty).
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_ignores_non_finite_and_handles_empty() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, v) in values.iter().enumerate() {
            all.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        let mut empty = OnlineStats::new();
        empty.merge(&all);
        assert_eq!(empty.count(), all.count());
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert!((49.0..=51.0).contains(&h.median()));
        assert_eq!(h.p95(), 95.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.min(), 1.0);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn bucket_histogram_quantiles_are_bucket_accurate() {
        let mut h = BucketHistogram::new(0.0, 100.0, 100);
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Bucket width is 1, so every quantile is within one width of the
        // exact nearest-rank answer (51, 95 and 99 respectively).
        assert!((h.p50() - 51.0).abs() <= 1.0, "p50 {}", h.p50());
        assert!((h.p95() - 95.0).abs() <= 1.0, "p95 {}", h.p95());
        assert!((h.p99() - 99.0).abs() <= 1.0, "p99 {}", h.p99());
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn bucket_histogram_underflow_overflow_and_empty() {
        let mut h = BucketHistogram::new(0.0, 10.0, 4);
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0.0);
        h.record(-5.0);
        h.record(25.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 25.0);
        // Out-of-range samples are represented by the exact extremes.
        assert_eq!(h.quantile(0.0), -5.0);
        assert_eq!(h.quantile(1.0), 25.0);
    }

    #[test]
    fn bucket_histogram_merge_matches_single_collector() {
        let mut all = BucketHistogram::new(0.0, 1.0, 32);
        let mut a = BucketHistogram::new(0.0, 1.0, 32);
        let mut b = BucketHistogram::new(0.0, 1.0, 32);
        for i in 0..1_000 {
            let v = (i as f64 * 0.37).fract();
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "quantile {q}");
        }
    }

    #[test]
    #[should_panic(expected = "bucket configuration")]
    fn bucket_histogram_rejects_mismatched_merge() {
        let mut a = BucketHistogram::new(0.0, 1.0, 8);
        let b = BucketHistogram::new(0.0, 2.0, 8);
        a.merge(&b);
    }

    #[test]
    fn online_stats_raw_state_round_trips_bit_exactly() {
        let mut s = OnlineStats::new();
        for v in [0.1, 0.2, 0.7, 123.456, -9.0] {
            s.record(v);
        }
        let mut restored = OnlineStats::from_raw_state(s.raw_state());
        // Continuing both streams produces bit-identical aggregates.
        s.record(0.333);
        restored.record(0.333);
        assert_eq!(s.count(), restored.count());
        assert_eq!(s.mean().to_bits(), restored.mean().to_bits());
        assert_eq!(s.variance().to_bits(), restored.variance().to_bits());
        assert_eq!(s.min().to_bits(), restored.min().to_bits());
        // Empty accumulators round-trip their ±∞ sentinels.
        let empty = OnlineStats::from_raw_state(OnlineStats::new().raw_state());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0.0, "public getter still saturates to 0");
    }

    #[test]
    fn bucket_histogram_raw_state_round_trips_bit_exactly() {
        let mut h = BucketHistogram::new(0.0, 10.0, 8);
        for v in [-1.0, 0.5, 3.3, 9.9, 42.0] {
            h.record(v);
        }
        let mut restored = BucketHistogram::from_raw_state(h.raw_state());
        h.record(7.7);
        restored.record(7.7);
        assert_eq!(h, restored);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q).to_bits(), restored.quantile(q).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn bucket_histogram_rejects_corrupt_raw_state() {
        let mut state = BucketHistogram::new(0.0, 1.0, 4).raw_state();
        state.counts.clear();
        let _ = BucketHistogram::from_raw_state(state);
    }
}
