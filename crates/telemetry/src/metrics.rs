//! The unified metrics registry.
//!
//! Everything the stack measures about *its own execution* — chunk wall-clock
//! latency, per-worker busy time, checkpoint-write latency, bus delivery
//! latency — flows into one [`MetricsRegistry`], with one snapshot format
//! ([`MetricsRegistry::to_json`]).  Three instrument kinds cover the stack's
//! needs:
//!
//! * **counters** — monotonically increasing `u64`s (runs executed, chunks
//!   merged, events dropped);
//! * **gauges** — last-written `f64`s (worker count, window size);
//! * **timers** — [`BucketHistogram`]-backed distributions with P50/P95/P99
//!   queries; a subsystem's own histogram folds in exactly
//!   ([`MetricsRegistry::merge_timer`]) because two histograms with the same
//!   bucket configuration add exactly.
//!
//! These numbers are *wall-clock* observations and therefore live strictly
//! outside the deterministic campaign report: a report is bit-identical with
//! or without a registry attached, while the registry itself varies run to
//! run.  (Deterministic per-run observations belong in the
//! [`trace`](crate::trace) layer instead.)

use std::collections::BTreeMap;

use karyon_sim::BucketHistogram;

/// Default timer range: latencies in milliseconds from 0 to 10 s over 256
/// buckets (~39 ms resolution at the top, sub-bucket exact min/max/mean).
/// Callers with tighter ranges configure their timers explicitly via
/// [`MetricsRegistry::configure_timer`].
const DEFAULT_TIMER_RANGE: (f64, f64, usize) = (0.0, 10_000.0, 256);

/// A named collection of counters, gauges and timers with a single snapshot
/// format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, BucketHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of the named counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of the named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Creates (or returns) the named timer with an explicit bucket
    /// configuration.  Configure a timer before its first
    /// [`record_timer`](MetricsRegistry::record_timer) when the default
    /// 0–10 000 ms range does not fit (e.g. window-occupancy counts).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`BucketHistogram::new`]).
    pub fn configure_timer(
        &mut self,
        name: &str,
        lo: f64,
        hi: f64,
        buckets: usize,
    ) -> &mut BucketHistogram {
        self.timers.entry(name.to_string()).or_insert_with(|| BucketHistogram::new(lo, hi, buckets))
    }

    /// Records one sample into the named timer, creating it with the default
    /// 0–10 000 ms range on first use.
    pub fn record_timer(&mut self, name: &str, value: f64) {
        let (lo, hi, buckets) = DEFAULT_TIMER_RANGE;
        self.timers
            .entry(name.to_string())
            .or_insert_with(|| BucketHistogram::new(lo, hi, buckets))
            .record(value);
    }

    /// Merges an externally built histogram into the named timer.  A timer
    /// that does not exist yet adopts the histogram's configuration; one that
    /// does must share it (see [`BucketHistogram::merge`]).
    ///
    /// This is how subsystem-owned histograms — the bus's per-subscription
    /// latency distributions, a worker's chunk timer — flow into the unified
    /// snapshot without re-recording every sample.
    pub fn merge_timer(&mut self, name: &str, histogram: &BucketHistogram) {
        match self.timers.get_mut(name) {
            Some(existing) => existing.merge(histogram),
            None => {
                self.timers.insert(name.to_string(), histogram.clone());
            }
        }
    }

    /// The named timer's backing histogram, if it exists.
    pub fn timer(&self, name: &str) -> Option<&BucketHistogram> {
        self.timers.get(name)
    }

    /// Serializes the registry as one deterministic JSON object:
    ///
    /// ```text
    /// {"counters":{"campaign.runs":1200},
    ///  "gauges":{"campaign.workers":4.0},
    ///  "timers":{"campaign.chunk_ms":{"count":38,"mean":1.8,...,"p99":4.2}}}
    /// ```
    ///
    /// Maps iterate in name order and floats use shortest-round-trip
    /// formatting, so equal registries serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&value.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            push_f64(&mut out, *value);
        }
        out.push_str("},\"timers\":{");
        for (i, (name, histogram)) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&format!("{{\"count\":{}", histogram.count()));
            for (field, value) in [
                ("mean", histogram.mean()),
                ("min", histogram.min()),
                ("max", histogram.max()),
                ("p50", histogram.p50()),
                ("p95", histogram.p95()),
                ("p99", histogram.p99()),
            ] {
                out.push(',');
                push_key(&mut out, field);
                push_f64(&mut out, value);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn push_key(out: &mut String, key: &str) {
    out.push('"');
    for c in key.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\":");
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_timers_round_trip() {
        let mut m = MetricsRegistry::new();
        m.inc("runs");
        m.add("runs", 9);
        m.set_gauge("workers", 4.0);
        m.set_gauge("workers", 8.0);
        for i in 0..100 {
            m.record_timer("chunk_ms", i as f64);
        }
        assert_eq!(m.counter("runs"), 10);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("workers"), Some(8.0));
        assert_eq!(m.gauge("never"), None);
        let timer = m.timer("chunk_ms").unwrap();
        assert_eq!(timer.count(), 100);
        assert_eq!(timer.min(), 0.0);
        assert_eq!(timer.max(), 99.0);
        assert!((timer.mean() - 49.5).abs() < 1e-9);
        assert!(m.timer("never").is_none());
    }

    #[test]
    fn configure_timer_controls_resolution() {
        let mut m = MetricsRegistry::new();
        // Window occupancy is a small-integer distribution: 0..=16.
        m.configure_timer("gate.occupancy", 0.0, 16.0, 16);
        for v in [1.0, 2.0, 2.0, 3.0, 15.0] {
            m.record_timer("gate.occupancy", v);
        }
        let h = m.timer("gate.occupancy").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 15.0);
        // p50 lands within one bucket (width 1) of the exact median.
        assert!((h.p50() - 2.0).abs() <= 1.0);
    }

    #[test]
    fn merge_timer_adopts_foreign_configuration() {
        let mut external = BucketHistogram::new(0.0, 60.0, 32);
        for v in [1.0, 5.0, 30.0] {
            external.record(v);
        }
        let mut m = MetricsRegistry::new();
        m.merge_timer("bus.latency_ms", &external);
        m.merge_timer("bus.latency_ms", &external);
        assert_eq!(m.timer("bus.latency_ms").unwrap().count(), 6);
    }

    #[test]
    fn to_json_is_deterministic_and_ordered() {
        let mut m = MetricsRegistry::new();
        m.add("z.count", 3);
        m.add("a.count", 1);
        m.set_gauge("g", 2.5);
        m.record_timer("t", 1.5);
        let json = m.to_json();
        assert_eq!(json, m.clone().to_json());
        let a = json.find("\"a.count\":1").unwrap();
        let z = json.find("\"z.count\":3").unwrap();
        assert!(a < z, "counters are name-ordered");
        assert!(json.contains("\"gauges\":{\"g\":2.5}"));
        assert!(json.contains("\"timers\":{\"t\":{\"count\":1,\"mean\":1.5"));
        assert_eq!(
            MetricsRegistry::new().to_json(),
            "{\"counters\":{},\"gauges\":{},\"timers\":{}}"
        );
    }
}
