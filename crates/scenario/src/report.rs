//! Structured campaign results: per-point aggregates, JSON and text tables.

use std::collections::BTreeMap;

use karyon_sim::table::fmt3;
use karyon_sim::{BucketHistogram, OnlineStats, Table};

use crate::json::{array, ObjectWriter};
use crate::spec::{params_label, ParamValue};

/// Aggregate of one metric over every run of one parameter point.
///
/// Mean / standard deviation / extremes come from a streaming
/// [`OnlineStats`].  Quantiles are exact (nearest rank over the sorted
/// samples) while a point has at most [`QUANTILE_EXACT_LIMIT`] observations —
/// so small sweeps report only values that actually occurred (a 0/1 flag
/// metric yields 0 or 1, never a bucket midpoint) — and switch to the
/// allocation-light fixed-bucket [`BucketHistogram`] beyond that, where the
/// extra sort would dominate and 1/64th-range resolution is ample.  Both
/// paths depend only on the sample multiset, never on execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Number of finite observations aggregated.
    pub count: u64,
    /// Exact sum of the finite observations in canonical run order (for 0/1
    /// flag metrics this is the exact event count — prefer it over
    /// reconstructing counts from `mean`).
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Number of histogram buckets used for large-sweep quantile aggregation.
const QUANTILE_BUCKETS: usize = 64;

/// Largest per-point sample count for which quantiles are computed exactly.
pub const QUANTILE_EXACT_LIMIT: u64 = 4_096;

impl MetricSummary {
    /// Aggregates a slice of observations (non-finite values are skipped).
    pub fn from_values(values: &[f64]) -> Self {
        let mut stats = OnlineStats::new();
        for v in values {
            stats.record(*v);
        }
        let (p50, p95, p99) = if stats.count() == 0 || stats.min() == stats.max() {
            // Degenerate spread: every quantile is the (single) value.
            (stats.mean(), stats.mean(), stats.mean())
        } else if stats.count() <= QUANTILE_EXACT_LIMIT {
            let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            finite.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let rank = |q: f64| finite[((finite.len() - 1) as f64 * q).round() as usize];
            (rank(0.5), rank(0.95), rank(0.99))
        } else {
            let mut hist = BucketHistogram::new(stats.min(), stats.max(), QUANTILE_BUCKETS);
            for v in values {
                hist.record(*v);
            }
            (hist.p50(), hist.p95(), hist.p99())
        };
        MetricSummary {
            count: stats.count(),
            sum: values.iter().filter(|v| v.is_finite()).sum(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: stats.min(),
            max: stats.max(),
            p50,
            p95,
            p99,
        }
    }

    fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.u64("count", self.count)
            .f64("mean", self.mean)
            .f64("sum", self.sum)
            .f64("std_dev", self.std_dev)
            .f64("min", self.min)
            .f64("max", self.max)
            .f64("p50", self.p50)
            .f64("p95", self.p95)
            .f64("p99", self.p99);
        o.finish()
    }
}

/// The aggregate of every Monte-Carlo run at one parameter point of one
/// scenario family.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// The scenario family.
    pub scenario: String,
    /// The parameter point.
    pub params: BTreeMap<String, ParamValue>,
    /// Number of runs aggregated.
    pub runs: u64,
    /// Runs whose record carries a non-zero `clamped_schedules` —
    /// causality-suspect runs whose results deserve scrutiny.  No builtin
    /// family sets that field, so this reads 0 for their runs.
    pub suspect_runs: u64,
    /// Per-metric aggregates, in deterministic metric-name order.
    pub metrics: BTreeMap<String, MetricSummary>,
}

impl PointReport {
    /// A compact `k=v, k=v` label of the parameter point.
    pub fn params_label(&self) -> String {
        params_label(&self.params)
    }

    fn to_json(&self) -> String {
        let mut metrics = ObjectWriter::new();
        for (name, summary) in &self.metrics {
            metrics.raw(name, &summary.to_json());
        }
        let mut o = ObjectWriter::new();
        o.string("scenario", &self.scenario)
            .raw("params", &crate::spec::params_json(&self.params))
            .u64("runs", self.runs)
            .u64("suspect_runs", self.suspect_runs)
            .raw("metrics", &metrics.finish());
        o.finish()
    }
}

/// The full structured result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The campaign name.
    pub name: String,
    /// The campaign seed every per-run seed was derived from.
    pub seed: u64,
    /// Total number of runs executed.
    pub total_runs: u64,
    /// One aggregate per (scenario family, parameter point), in canonical
    /// work-list order.
    pub points: Vec<PointReport>,
}

impl CampaignReport {
    /// Serialises the whole report as a single JSON object.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(PointReport::to_json).collect();
        let mut o = ObjectWriter::new();
        o.string("campaign", &self.name)
            .u64("seed", self.seed)
            .u64("total_runs", self.total_runs)
            .raw("points", &array(&points));
        o.finish()
    }

    /// Total number of causality-suspect runs across all points.
    pub fn suspect_runs(&self) -> u64 {
        self.points.iter().map(|p| p.suspect_runs).sum()
    }

    /// An aligned-text table with one row per (point, metric): the complete
    /// campaign result in one table.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            &format!("campaign {} (seed {}, {} runs)", self.name, self.seed, self.total_runs),
            &[
                "scenario",
                "parameters",
                "runs",
                "suspect",
                "metric",
                "n",
                "mean",
                "std",
                "p50",
                "p95",
                "p99",
            ],
        );
        for point in &self.points {
            for (metric, s) in &point.metrics {
                table.add_row(&[
                    point.scenario.clone(),
                    point.params_label(),
                    point.runs.to_string(),
                    point.suspect_runs.to_string(),
                    metric.clone(),
                    // A metric may be present in only a subset of the runs
                    // (e.g. detection times exist only for detected runs), so
                    // its own sample count is printed next to the run count.
                    s.count.to_string(),
                    fmt3(s.mean),
                    fmt3(s.std_dev),
                    fmt3(s.p50),
                    fmt3(s.p95),
                    fmt3(s.p99),
                ]);
            }
        }
        table
    }

    /// An aligned-text table for one metric across every parameter point.
    pub fn metric_table(&self, metric: &str) -> Table {
        let mut table = Table::new(
            &format!("campaign {} — {metric}", self.name),
            &["scenario", "parameters", "n", "mean", "std", "min", "p50", "p95", "p99", "max"],
        );
        for point in &self.points {
            if let Some(s) = point.metrics.get(metric) {
                table.add_row(&[
                    point.scenario.clone(),
                    point.params_label(),
                    s.count.to_string(),
                    fmt3(s.mean),
                    fmt3(s.std_dev),
                    fmt3(s.min),
                    fmt3(s.p50),
                    fmt3(s.p95),
                    fmt3(s.p99),
                    fmt3(s.max),
                ]);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_summary_degenerate_and_spread() {
        let constant = MetricSummary::from_values(&[2.0, 2.0, 2.0]);
        assert_eq!(constant.count, 3);
        assert_eq!(constant.p50, 2.0);
        assert_eq!(constant.p99, 2.0);
        assert_eq!(constant.std_dev, 0.0);

        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let spread = MetricSummary::from_values(&values);
        assert_eq!(spread.count, 100);
        assert!((spread.mean - 50.5).abs() < 1e-9);
        assert_eq!(spread.min, 1.0);
        assert_eq!(spread.max, 100.0);
        // Below the exact limit, quantiles are exact nearest-rank values.
        assert_eq!(spread.p50, 51.0);
        assert_eq!(spread.p95, 95.0);
        assert_eq!(spread.p99, 99.0);

        let empty = MetricSummary::from_values(&[f64::NAN]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p50, 0.0);
    }

    #[test]
    fn flag_metric_quantiles_are_observed_values() {
        // A 0/1 flag metric must never report a bucket midpoint like 0.008.
        let values: Vec<f64> = (0..30).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let s = MetricSummary::from_values(&values);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p95, 1.0);
        assert!((s.mean - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.sum, 10.0, "the sum of a flag metric is the exact event count");
    }

    #[test]
    fn large_sweeps_fall_back_to_bucketed_quantiles() {
        let n = (QUANTILE_EXACT_LIMIT + 1_000) as usize;
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let s = MetricSummary::from_values(&values);
        assert_eq!(s.count, n as u64);
        let width = (n - 1) as f64 / QUANTILE_BUCKETS as f64;
        let exact_p50 = ((n - 1) as f64 * 0.5).round();
        assert!((s.p50 - exact_p50).abs() <= width, "p50 {} vs {exact_p50}", s.p50);
    }

    #[test]
    fn report_json_is_valid_shape_and_deterministic() {
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), MetricSummary::from_values(&[1.0, 2.0, 3.0]));
        let mut params = BTreeMap::new();
        params.insert("mode".to_string(), ParamValue::Text("kernel".into()));
        params.insert("n".to_string(), ParamValue::Int(6));
        let report = CampaignReport {
            name: "demo".into(),
            seed: 9,
            total_runs: 3,
            points: vec![PointReport {
                scenario: "platoon".into(),
                params,
                runs: 3,
                suspect_runs: 0,
                metrics,
            }],
        };
        let json = report.to_json();
        assert!(json.starts_with(r#"{"campaign":"demo","seed":9,"total_runs":3,"points":[{"#));
        assert!(json.contains(r#""params":{"mode":"kernel","n":6}"#));
        assert!(json.contains(r#""m":{"count":3,"mean":2"#));
        assert_eq!(json, report.to_json(), "serialisation is deterministic");
        assert_eq!(report.suspect_runs(), 0);
    }

    #[test]
    fn tables_render_rows_per_point() {
        let mut metrics = BTreeMap::new();
        metrics.insert("a".to_string(), MetricSummary::from_values(&[1.0]));
        metrics.insert("b".to_string(), MetricSummary::from_values(&[2.0]));
        let report = CampaignReport {
            name: "demo".into(),
            seed: 1,
            total_runs: 1,
            points: vec![PointReport {
                scenario: "s".into(),
                params: BTreeMap::new(),
                runs: 1,
                suspect_runs: 1,
                metrics,
            }],
        };
        assert_eq!(report.summary_table().row_count(), 2, "one row per metric");
        assert_eq!(report.metric_table("a").row_count(), 1);
        assert_eq!(report.metric_table("zzz").row_count(), 0);
    }
}
