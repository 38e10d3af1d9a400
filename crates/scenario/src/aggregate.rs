//! Canonical chunked aggregation: the bounded-memory reduction behind
//! [`Campaign::run`](crate::Campaign::run).
//!
//! Floating-point reduction is order-sensitive, so the campaign runner cannot
//! simply merge per-worker partial aggregates in completion order without
//! breaking its bit-identity-across-worker-counts contract.  Instead, the run
//! list is partitioned into **canonical chunks** of a fixed size: each chunk
//! is reduced *sequentially in canonical run order* into per-point
//! [`MetricAccumulator`] partials (a [`ChunkPartial`]), and partials are
//! merged into the campaign totals *in canonical chunk order*.  The resulting
//! sequence of floating-point operations depends only on the run values and
//! the chunk size — never on which worker ran what — so any worker count
//! (and the retained-record replay of
//! [`Campaign::reduce_records`](crate::Campaign::reduce_records)) produces
//! bit-identical reports, while the runner only ever holds the chunks
//! currently in flight.
//!
//! Quantiles are streamed through one of two states:
//!
//! * **pre-agreed range** — a scenario family that declares a metric's range
//!   up front ([`Scenario::metric_range`](crate::Scenario::metric_range))
//!   gets a fixed-bucket [`BucketHistogram`] from the first sample: O(1)
//!   memory, exactly mergeable across chunks;
//! * **exact-until-spill** — without a declared range, up to
//!   [`QUANTILE_EXACT_LIMIT`] samples are retained for exact nearest-rank
//!   quantiles (so small sweeps report only values that actually occurred);
//!   past the limit the retained prefix fixes a derived histogram range at a
//!   canonical moment, keeping memory bounded for arbitrarily long sweeps.

use std::collections::BTreeMap;

use karyon_sim::{BucketHistogram, OnlineStats};

use crate::report::{MetricSummary, QUANTILE_EXACT_LIMIT};
use crate::scenario::RunRecord;

/// Default number of runs per canonical chunk.
///
/// Part of the aggregation contract: reports are bit-identical across worker
/// counts *for a fixed chunk size* (different chunk sizes regroup the
/// floating-point reduction and may differ in the last ulp).
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Number of histogram buckets used for streamed quantiles.
const QUANTILE_BUCKETS: usize = 64;

/// Streaming quantile state of one (parameter point, metric) pair.
///
/// `pub(crate)` so the [checkpoint module](crate::checkpoint) can persist and
/// restore it bit-exactly; everything outside the crate only ever sees the
/// finalised [`MetricSummary`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QuantileAcc {
    /// All finite samples so far, in canonical record order.
    Exact(Vec<f64>),
    /// Fixed-bucket histogram (pre-agreed or derived range).
    Bucketed(BucketHistogram),
}

/// Derives a histogram range from the retained sample prefix when the exact
/// buffer spills: the observed span padded by half on each side, so samples
/// of the not-yet-seen tail usually still land inside.  Outliers beyond the
/// range are still counted exactly (under/overflow buckets with exact
/// min/max representatives).
///
/// Sentinels such as `f64::MAX` (`avionics-rpv` reports it when no encounter
/// happens) overflow the padded span to infinity.  Only then are the
/// extremes clamped to ±`f64::MAX / 4` before padding, which keeps both ends
/// and the width finite; the sentinels land in the overflow bucket.
fn derived_range(values: &[f64]) -> (f64, f64) {
    let padded = |lo: f64, hi: f64| {
        let span = hi - lo;
        let pad = if span > 0.0 { span / 2.0 } else { lo.abs().max(1.0) / 2.0 };
        (lo - pad, hi + pad)
    };
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (plo, phi) = padded(lo, hi);
    if (phi - plo).is_finite() {
        return (plo, phi);
    }
    const LIMIT: f64 = f64::MAX / 4.0;
    padded(lo.clamp(-LIMIT, LIMIT), hi.clamp(-LIMIT, LIMIT))
}

/// The streaming aggregate of one metric at one parameter point: mean /
/// variance / extremes via [`OnlineStats`], the exact canonical-order sum,
/// and a bounded-memory quantile state.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAccumulator {
    stats: OnlineStats,
    sum: f64,
    quantiles: QuantileAcc,
}

impl MetricAccumulator {
    /// Creates an empty accumulator; with a pre-agreed `(lo, hi)` range the
    /// quantile state is a fixed histogram from the first sample.
    pub fn new(range: Option<(f64, f64)>) -> Self {
        MetricAccumulator {
            stats: OnlineStats::new(),
            sum: 0.0,
            quantiles: match range {
                Some((lo, hi)) => {
                    QuantileAcc::Bucketed(BucketHistogram::new(lo, hi, QUANTILE_BUCKETS))
                }
                None => QuantileAcc::Exact(Vec::new()),
            },
        }
    }

    /// Adds one observation in canonical order.  Non-finite values are
    /// skipped, matching [`MetricSummary::from_values`].
    ///
    /// Recording never spills the exact buffer: a chunk-local spill would
    /// derive a histogram range from *that chunk's* samples alone, and two
    /// chunks would derive different — unmergeable — ranges.  The buffer is
    /// bounded by the chunk size here; the spill decision belongs to
    /// [`MetricAccumulator::merge`], where the retained samples are a
    /// canonical prefix shared by every execution.
    pub fn record(&mut self, value: f64) {
        self.stats.record(value);
        if !value.is_finite() {
            return;
        }
        self.sum += value;
        match &mut self.quantiles {
            QuantileAcc::Exact(values) => values.push(value),
            QuantileAcc::Bucketed(hist) => hist.record(value),
        }
    }

    /// Converts the exact buffer into a derived-range histogram.  Only
    /// called during canonical-order merging, so the range depends only on
    /// the canonical sample prefix and the conversion happens at the same
    /// moment — with the same result — for every worker count.
    fn spill(&mut self) {
        let QuantileAcc::Exact(values) = &self.quantiles else {
            unreachable!("spill is only called on the exact state")
        };
        let (lo, hi) = derived_range(values);
        let mut hist = BucketHistogram::new(lo, hi, QUANTILE_BUCKETS);
        for v in values {
            hist.record(*v);
        }
        self.quantiles = QuantileAcc::Bucketed(hist);
    }

    /// Merges the accumulator of a *later* canonical chunk into this one.
    ///
    /// # Panics
    /// Panics if one side carries a pre-agreed histogram range and the other
    /// does not — a scenario family must declare a metric's range
    /// consistently.
    pub fn merge(&mut self, other: MetricAccumulator) {
        self.stats.merge(&other.stats);
        self.sum += other.sum;
        match (&mut self.quantiles, other.quantiles) {
            (QuantileAcc::Exact(values), QuantileAcc::Exact(more)) => {
                values.extend(more);
                if values.len() as u64 > QUANTILE_EXACT_LIMIT {
                    self.spill();
                }
            }
            (QuantileAcc::Bucketed(hist), QuantileAcc::Exact(more)) => {
                // This side spilled (or was pre-agreed and the other side is
                // from `MetricAccumulator::new(None)` — rejected below);
                // replay the later chunk's samples in canonical order.
                for v in more {
                    hist.record(v);
                }
            }
            (QuantileAcc::Bucketed(hist), QuantileAcc::Bucketed(more)) => hist.merge(&more),
            (QuantileAcc::Exact(_), QuantileAcc::Bucketed(_)) => {
                panic!(
                    "inconsistent metric range declaration: a later chunk pre-agreed a \
                     histogram range this chunk did not"
                )
            }
        }
    }

    /// Finalises the accumulator into a [`MetricSummary`].
    pub fn summary(&self) -> MetricSummary {
        let stats = &self.stats;
        let (p50, p95, p99) = if stats.count() == 0 || stats.min() == stats.max() {
            // Degenerate spread: every quantile is the (single) value.
            (stats.mean(), stats.mean(), stats.mean())
        } else {
            match &self.quantiles {
                QuantileAcc::Exact(values) => {
                    let mut sorted = values.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                    let rank = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
                    (rank(0.5), rank(0.95), rank(0.99))
                }
                QuantileAcc::Bucketed(hist) => (hist.p50(), hist.p95(), hist.p99()),
            }
        };
        MetricSummary {
            count: stats.count(),
            sum: self.sum,
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: stats.min(),
            max: stats.max(),
            p50,
            p95,
            p99,
        }
    }

    /// The raw internal state, for bit-exact checkpoint persistence.
    pub(crate) fn parts(&self) -> (&OnlineStats, f64, &QuantileAcc) {
        (&self.stats, self.sum, &self.quantiles)
    }

    /// Reconstructs an accumulator from persisted [`MetricAccumulator::parts`]
    /// output.  The round-trip is bit-exact: recording or merging into the
    /// reconstruction produces the same bits as into the original.
    pub(crate) fn from_parts(stats: OnlineStats, sum: f64, quantiles: QuantileAcc) -> Self {
        MetricAccumulator { stats, sum, quantiles }
    }

    /// Number of retained exact samples (0 once bucketed) — the quantity the
    /// bounded-memory contract is about.
    pub fn resident_samples(&self) -> usize {
        match &self.quantiles {
            QuantileAcc::Exact(values) => values.len(),
            QuantileAcc::Bucketed(_) => 0,
        }
    }
}

/// The streaming aggregate of one parameter point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointAccumulator {
    /// Runs aggregated so far.
    pub runs: u64,
    /// Runs flagged causality-suspect (past-time schedule clamps).
    pub suspect_runs: u64,
    /// Per-metric accumulators in deterministic name order.
    pub metrics: BTreeMap<String, MetricAccumulator>,
}

impl PointAccumulator {
    /// Streams one run's record into the point, in canonical run order.
    /// `range_for` supplies the family's pre-agreed metric ranges.
    pub fn record_run(
        &mut self,
        record: &RunRecord,
        range_for: &dyn Fn(&str) -> Option<(f64, f64)>,
    ) {
        self.runs += 1;
        if record.clamped_schedules > 0 {
            self.suspect_runs += 1;
        }
        for (name, value) in record.metrics() {
            self.metrics
                .entry(name.clone())
                .or_insert_with(|| MetricAccumulator::new(range_for(name)))
                .record(*value);
        }
    }

    /// Merges the accumulator of a *later* canonical chunk into this one.
    pub fn merge(&mut self, other: PointAccumulator) {
        self.runs += other.runs;
        self.suspect_runs += other.suspect_runs;
        for (name, acc) in other.metrics {
            match self.metrics.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut slot) => slot.get_mut().merge(acc),
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(acc);
                }
            }
        }
    }

    /// Finalised per-metric summaries in deterministic name order.
    pub fn summaries(&self) -> BTreeMap<String, MetricSummary> {
        self.metrics.iter().map(|(name, acc)| (name.clone(), acc.summary())).collect()
    }
}

/// One worker's reduction of one canonical chunk: per-point partials for the
/// points the chunk touched.
///
/// A [chunk window](crate::Session::chunks) returns its partials one per
/// chunk, so the shard protocol ([`crate::shard`]) can persist them and a
/// later `merge` can replay the exact canonical chunk-order fold of a
/// single-machine run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ChunkPartial {
    /// Point index → partial aggregate.
    pub points: BTreeMap<usize, PointAccumulator>,
}

impl ChunkPartial {
    /// Creates an empty partial.
    pub fn new() -> Self {
        ChunkPartial::default()
    }

    /// Streams one run (of point `point`) into the partial, in canonical run
    /// order within the chunk.
    pub fn record_run(
        &mut self,
        point: usize,
        record: &RunRecord,
        range_for: &dyn Fn(&str) -> Option<(f64, f64)>,
    ) {
        self.points.entry(point).or_default().record_run(record, range_for);
    }
}

/// The campaign-wide accumulator: one [`PointAccumulator`] per parameter
/// point, fed by chunk partials strictly in canonical chunk order.
#[derive(Debug)]
pub struct CampaignAccumulator {
    points: Vec<PointAccumulator>,
}

impl CampaignAccumulator {
    /// Creates an accumulator for `point_count` parameter points.
    pub fn new(point_count: usize) -> Self {
        CampaignAccumulator {
            points: (0..point_count).map(|_| PointAccumulator::default()).collect(),
        }
    }

    /// Reconstructs an accumulator from per-point partials restored from a
    /// checkpoint manifest (one entry per parameter point, in point order).
    pub(crate) fn from_points(points: Vec<PointAccumulator>) -> Self {
        CampaignAccumulator { points }
    }

    /// Merges the next canonical chunk's partials.  Chunks **must** arrive in
    /// canonical order; the campaign runner's ordered collector guarantees
    /// this.
    pub fn merge_chunk(&mut self, chunk: ChunkPartial) {
        for (point, partial) in chunk.points {
            self.points[point].merge(partial);
        }
    }

    /// The per-point accumulators, in point order.
    pub fn points(&self) -> &[PointAccumulator] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_range(_: &str) -> Option<(f64, f64)> {
        None
    }

    /// Values for a synthetic metric stream.
    fn value(i: u64) -> f64 {
        ((i as f64) * 0.73).sin() * 40.0 + 50.0
    }

    #[test]
    fn chunked_merge_is_chunk_size_deterministic() {
        // The same values through the same chunk size must be bit-identical
        // no matter how the chunks were produced.
        let n = 10_000u64;
        let chunk = 512;
        let reduce = || {
            let mut total = MetricAccumulator::new(None);
            let mut i = 0;
            while i < n {
                let mut partial = MetricAccumulator::new(None);
                for j in i..(i + chunk).min(n) {
                    partial.record(value(j));
                }
                total.merge(partial);
                i += chunk;
            }
            total.summary()
        };
        assert_eq!(reduce(), reduce());
    }

    #[test]
    fn exact_path_matches_from_values_semantics() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 + 1.0).collect();
        let mut acc = MetricAccumulator::new(None);
        for v in &values {
            acc.record(*v);
        }
        let s = acc.summary();
        let reference = MetricSummary::from_values(&values);
        // One sequential pass is exactly the old retained reduction.
        assert_eq!(s, reference);
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p95, 95.0);
    }

    #[test]
    fn derived_range_pads_finite_spans_and_clamps_only_overflow() {
        assert_eq!(derived_range(&[1.0, 3.0]), (0.0, 4.0));
        assert_eq!(derived_range(&[2.0, 2.0]), (1.0, 3.0));
        assert_eq!(derived_range(&[-1e300, 1e300]), (-2e300, 2e300), "finite: unclamped");
        for values in [
            vec![12.5, f64::MAX],
            vec![f64::MAX, f64::MAX],
            vec![f64::MIN, 3.0],
            vec![f64::MIN, f64::MAX],
        ] {
            let (lo, hi) = derived_range(&values);
            assert!(lo.is_finite() && hi.is_finite() && (hi - lo).is_finite(), "{values:?}");
            assert!(lo < hi, "{values:?}: ({lo}, {hi})");
        }
    }

    #[test]
    fn sentinel_samples_past_the_exact_limit_merge_to_finite_quantiles() {
        // `avionics-rpv` reports `f64::MAX` separations when no encounter
        // happens; a point with more runs than the exact limit used to
        // overflow the derived range to infinity and panic the merge.
        let n = 5_000;
        assert!(n > QUANTILE_EXACT_LIMIT);
        let mut total = MetricAccumulator::new(None);
        for chunk in 0..n / 100 {
            let mut partial = MetricAccumulator::new(None);
            for i in chunk * 100..(chunk + 1) * 100 {
                partial.record(if i % 7 == 0 { f64::MAX } else { 100.0 + (i % 50) as f64 });
            }
            total.merge(partial);
        }
        assert_eq!(total.resident_samples(), 0, "the merged prefix spilled");
        let s = total.summary();
        assert_eq!(s.count, n);
        assert_eq!(s.max, f64::MAX);
        for q in [s.p50, s.p95, s.p99] {
            assert!(q.is_finite() && (100.0..=f64::MAX).contains(&q), "{s:?}");
        }
    }

    #[test]
    fn merge_spills_once_the_canonical_prefix_exceeds_the_exact_limit() {
        let n = (QUANTILE_EXACT_LIMIT + 5_000) as usize;
        let chunk = 1_000;
        let mut total = MetricAccumulator::new(None);
        let mut start = 0;
        while start < n {
            let mut partial = MetricAccumulator::new(None);
            for i in start..(start + chunk).min(n) {
                partial.record(i as f64);
            }
            assert!(partial.resident_samples() <= chunk, "chunk partials never spill on their own");
            if start == 0 {
                total = partial;
            } else {
                total.merge(partial);
            }
            start += chunk;
        }
        assert_eq!(total.resident_samples(), 0, "the merged prefix must spill");
        let s = total.summary();
        assert_eq!(s.count, n as u64);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, (n - 1) as f64);
        // The derived range spans at least the retained prefix; quantile
        // resolution is one bucket of that span.
        let exact_p50 = ((n - 1) as f64) * 0.5;
        assert!((s.p50 - exact_p50).abs() < n as f64 * 0.05, "p50 {} vs {exact_p50}", s.p50);
    }

    #[test]
    fn oversized_chunks_merge_without_range_conflicts() {
        // Regression: chunk sizes above the exact limit must not make two
        // chunks derive different histogram ranges (which would panic in
        // BucketHistogram::merge).  The spill decision happens only at
        // canonical merge time.
        let per_chunk = (QUANTILE_EXACT_LIMIT + 100) as usize;
        let mut a = MetricAccumulator::new(None);
        let mut b = MetricAccumulator::new(None);
        for i in 0..per_chunk {
            a.record(i as f64);
            b.record((i * 7) as f64);
        }
        a.merge(b);
        let s = a.summary();
        assert_eq!(s.count, 2 * per_chunk as u64);
        assert_eq!(s.max, ((per_chunk - 1) * 7) as f64);
    }

    #[test]
    fn pre_agreed_range_streams_without_retention() {
        let mut a = MetricAccumulator::new(Some((0.0, 100.0)));
        let mut b = MetricAccumulator::new(Some((0.0, 100.0)));
        let mut whole = MetricAccumulator::new(Some((0.0, 100.0)));
        for i in 0..2_000u64 {
            let v = value(i).clamp(0.0, 100.0);
            whole.record(v);
            if i < 1_000 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        assert_eq!(a.resident_samples(), 0);
        a.merge(b);
        assert_eq!(a.summary().p95, whole.summary().p95);
        assert_eq!(a.summary().count, 2_000);
    }

    #[test]
    fn non_finite_values_are_skipped_everywhere() {
        let mut acc = MetricAccumulator::new(None);
        acc.record(f64::NAN);
        acc.record(f64::INFINITY);
        acc.record(2.0);
        let s = acc.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 2.0);
        assert_eq!(s.p99, 2.0);
    }

    #[test]
    fn point_accumulator_tracks_suspect_runs_and_metric_subsets() {
        let mut point = PointAccumulator::default();
        let mut a = RunRecord::new();
        a.set("x", 1.0);
        a.set("only_sometimes", 5.0);
        let mut b = RunRecord::new();
        b.set("x", 3.0);
        b.clamped_schedules = 2;
        point.record_run(&a, &no_range);
        point.record_run(&b, &no_range);
        assert_eq!(point.runs, 2);
        assert_eq!(point.suspect_runs, 1);
        let summaries = point.summaries();
        assert_eq!(summaries["x"].count, 2);
        assert_eq!(summaries["only_sometimes"].count, 1);
    }

    #[test]
    #[should_panic(expected = "inconsistent metric range")]
    fn mismatched_range_declarations_are_rejected() {
        let mut exact = MetricAccumulator::new(None);
        exact.record(1.0);
        let mut ranged = MetricAccumulator::new(Some((0.0, 1.0)));
        ranged.record(0.5);
        exact.merge(ranged);
    }
}
