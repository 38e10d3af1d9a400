//! The `Scenario` trait and the per-run metric record.

use std::borrow::Cow;

use crate::grid::ParamGrid;
use crate::spec::ScenarioSpec;

/// Metrics a fresh record has room for before it grows.  Most builtin
/// families report at most this many per run; `platoon` reports 10 and
/// `middleware-overload` up to 14.
const METRICS_PRESIZED: usize = 8;

/// The named metrics produced by one scenario run.
///
/// Metrics are flat `name → f64` pairs so the campaign runner can aggregate
/// any scenario family without knowing its result type; booleans are encoded
/// as 0/1 (their mean over a sweep is then a rate).  The pairs are kept
/// sorted by name, so metric enumeration — and therefore report layout and
/// JSON output — is deterministic.  A name given as a `&'static str`
/// literal is borrowed, not copied, so a record of literal names costs one
/// allocation: its pre-sized pair vector.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Name-sorted, with unique names.
    metrics: Vec<(Cow<'static, str>, f64)>,
    /// Past-time schedules clamped during this run.  No builtin family sets
    /// it, so it reads 0 for every run they make; the JSONL reader fills it
    /// from the stream.  A non-zero value marks the run as causality-suspect
    /// in the campaign report.  JSONL lines and reports carry it until their
    /// next format change.
    pub clamped_schedules: u64,
}

impl Default for RunRecord {
    fn default() -> Self {
        RunRecord { metrics: Vec::with_capacity(METRICS_PRESIZED), clamped_schedules: 0 }
    }
}

impl RunRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        RunRecord::default()
    }

    /// Sets one metric, replacing an earlier value of the same name.  A
    /// `&'static str` name is borrowed; a `String` name is kept as is.
    /// Non-finite values are stored as-is and skipped by the aggregators,
    /// which keeps a broken metric visible in a single-run record without
    /// poisoning campaign statistics.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        let name = name.into();
        // Names arriving in order (a JSONL line lists them so) append.
        if self.metrics.last().map_or(true, |(last, _)| **last < *name) {
            self.metrics.push((name, value));
            return;
        }
        match self.metrics.binary_search_by(|(key, _)| (**key).cmp(&*name)) {
            Ok(at) => self.metrics[at].1 = value,
            Err(at) => self.metrics.insert(at, (name, value)),
        }
    }

    /// Sets a boolean metric as 0/1 (its campaign mean is a rate).
    pub fn set_flag(&mut self, name: impl Into<Cow<'static, str>>, value: bool) {
        self.set(name, if value { 1.0 } else { 0.0 });
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        let at = self.metrics.binary_search_by(|(key, _)| (**key).cmp(name)).ok()?;
        Some(self.metrics[at].1)
    }

    /// All metrics in deterministic (sorted-name) order.
    pub fn metrics(&self) -> impl ExactSizeIterator<Item = (&str, f64)> + '_ {
        self.metrics.iter().map(|(name, value)| (&**name, *value))
    }
}

/// A named scenario family: anything that can turn a [`ScenarioSpec`] into a
/// [`RunRecord`].
///
/// Implementations must be deterministic — the same spec (including its seed)
/// must produce the same record — and `Send + Sync`, because the campaign
/// runner executes runs on worker threads.
pub trait Scenario: Send + Sync {
    /// The family name this scenario registers under.
    fn name(&self) -> &str;

    /// Runs one instance described by `spec` and returns its metrics.
    fn run(&self, spec: &ScenarioSpec) -> RunRecord;

    /// The pre-agreed `(lo, hi)` aggregation range of a metric, if the family
    /// declares one.
    ///
    /// With a declared range, campaign quantiles for the metric stream
    /// through a fixed-bucket histogram from the first sample — O(1) memory
    /// per (point, metric) no matter how many runs — at the cost of
    /// one-bucket quantile resolution even for small sweeps.  Without one,
    /// quantiles are exact up to
    /// [`QUANTILE_EXACT_LIMIT`](crate::report::QUANTILE_EXACT_LIMIT) samples
    /// and switch to a range derived from that prefix beyond it.  Declare
    /// ranges for continuous metrics with known scales (latencies, delays,
    /// ratios measured against a bound); leave 0/1 flag metrics undeclared so
    /// small sweeps report only values that actually occurred.
    ///
    /// The declaration must be a pure function of the metric name — the
    /// bounded-memory merge relies on every chunk agreeing on it.
    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        let _ = metric;
        None
    }

    /// The family's parameter domain: one grid axis per recognised parameter,
    /// sweeping a representative set of values with the **first value of each
    /// axis being the parameter's default**.
    ///
    /// This is the machine-readable contract behind
    /// `karyon-campaign list-families --output json`, the registry coverage
    /// tests, and [`Scenario::default_spec`].  A family with no parameters
    /// returns the empty grid.  Like [`Scenario::metric_range`], the
    /// declaration must be pure (constant per family).
    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
    }

    /// Always `false` for the builtin families, and no workspace code reads
    /// it.  Kept for the campaign benchmark, whose family wrapper forwards
    /// it.
    fn engine_driven(&self) -> bool {
        false
    }

    /// A spec exercising this family at its defaults: every
    /// [`Scenario::param_domain`] axis pinned to its first (default) value,
    /// seed and duration as in [`ScenarioSpec::new`].
    fn default_spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.name());
        for (name, values) in self.param_domain().axes() {
            spec = spec.with(name, values[0].clone());
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_encode_as_rates() {
        let mut r = RunRecord::new();
        r.set_flag("collision", true);
        r.set_flag("hazard", false);
        r.set("gap", 1.25);
        assert_eq!(r.get("collision"), Some(1.0));
        assert_eq!(r.get("hazard"), Some(0.0));
        assert_eq!(r.get("gap"), Some(1.25));
        assert_eq!(r.metrics().len(), 3);
        assert_eq!(r.clamped_schedules, 0);
    }
}
