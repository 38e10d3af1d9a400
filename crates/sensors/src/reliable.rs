//! The abstract *reliable* sensor (paper §IV-B).
//!
//! "Redundant information can be derived in three different ways": component
//! redundancy (additional sensors), analytical redundancy (a mathematical
//! model) and temporal redundancy (a series of samples).  The
//! [`ReliableSensor`] combines all three: it fuses several abstract sensors
//! (Marzullo interval fusion tolerating a configured number of faulty
//! replicas), checks the result against a Kalman model prediction and keeps a
//! short temporal window to smooth residual noise.

use karyon_sim::SimTime;

use crate::abstract_sensor::{AbstractSensor, SensorReading};
use crate::fusion::{marzullo_fuse, weighted_fuse, Interval, Kalman1D};
use crate::measurement::Measurement;
use crate::validity::Validity;

/// Configuration of a [`ReliableSensor`].
#[derive(Debug, Clone)]
pub struct ReliableSensorConfig {
    /// Maximum number of replica sensors assumed faulty at any time.
    pub max_faulty: usize,
    /// Half-width multiplier (in standard deviations) of the replica intervals.
    pub sigma: f64,
    /// Residual (against the analytical model) considered fully plausible.
    pub model_tolerance: f64,
    /// Residual at which the model check drives validity to zero.
    pub model_limit: f64,
    /// Length of the temporal-redundancy window (number of fused outputs).
    pub window: usize,
}

impl Default for ReliableSensorConfig {
    fn default() -> Self {
        ReliableSensorConfig {
            max_faulty: 1,
            sigma: 3.0,
            model_tolerance: 2.0,
            model_limit: 10.0,
            window: 4,
        }
    }
}

/// An abstract reliable sensor built from redundant abstract sensors.
pub struct ReliableSensor {
    replicas: Vec<AbstractSensor>,
    config: ReliableSensorConfig,
    model: Kalman1D,
    recent: Vec<f64>,
    outputs: u64,
    unavailable: u64,
}

impl std::fmt::Debug for ReliableSensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableSensor")
            .field("replicas", &self.replicas.len())
            .field("config", &self.config)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl ReliableSensor {
    /// Creates a reliable sensor from replica abstract sensors.
    ///
    /// # Panics
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<AbstractSensor>, config: ReliableSensorConfig) -> Self {
        assert!(!replicas.is_empty(), "ReliableSensor needs at least one replica");
        ReliableSensor {
            replicas,
            config,
            model: Kalman1D::new(1.0),
            recent: Vec::new(),
            outputs: 0,
            unavailable: 0,
        }
    }

    /// Number of replica sensors.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Mutable access to one replica (e.g. to inject faults into it).
    pub fn replica_mut(&mut self, index: usize) -> &mut AbstractSensor {
        &mut self.replicas[index]
    }

    /// Number of outputs produced so far.
    pub fn outputs(&self) -> u64 {
        self.outputs
    }

    /// Number of acquisition cycles in which no valid output could be produced.
    pub fn unavailable(&self) -> u64 {
        self.unavailable
    }

    /// Acquires all replicas against the same ground truth and produces the
    /// fused, model-checked reading.
    pub fn acquire(&mut self, ground_truth: f64, now: SimTime) -> SensorReading {
        self.outputs += 1;
        let readings: Vec<SensorReading> =
            self.replicas.iter_mut().map(|r| r.acquire(ground_truth, now)).collect();

        // Redundancy across components: Marzullo fusion over the valid replicas'
        // k-sigma intervals, tolerating `max_faulty` replicas.
        let valid: Vec<&SensorReading> = readings.iter().filter(|r| !r.is_invalid()).collect();
        let intervals: Vec<Interval> = valid
            .iter()
            .map(|r| {
                // Widen intervals to at least the model tolerance so that
                // noise-free replicas still overlap.
                let mut iv = Interval::from_measurement(&r.measurement, self.config.sigma);
                if iv.width() < 2.0 * self.config.model_tolerance * 0.1 {
                    let pad = self.config.model_tolerance * 0.1;
                    iv = Interval::new(iv.lo - pad, iv.hi + pad);
                }
                iv
            })
            .collect();

        let fused_value = if intervals.is_empty() {
            None
        } else {
            let tolerated = self.config.max_faulty.min(intervals.len().saturating_sub(1));
            marzullo_fuse(&intervals, tolerated).map(|iv| iv.midpoint()).or_else(|| {
                // Fall back to validity-weighted fusion when the interval
                // intersection is empty (e.g. heavy noise).
                weighted_fuse(
                    &valid.iter().map(|r| (r.measurement, r.validity)).collect::<Vec<_>>(),
                )
                .map(|(v, _)| v)
            })
        };

        let Some(mut value) = fused_value else {
            self.unavailable += 1;
            return SensorReading {
                measurement: Measurement::new(f64::NAN, now, f64::INFINITY),
                validity: Validity::INVALID,
            };
        };

        // Analytical redundancy: compare with the model prediction.
        let now_s = now.as_secs_f64();
        let mut validity = {
            let base: f64 =
                valid.iter().map(|r| r.validity.fraction()).sum::<f64>() / valid.len() as f64;
            Validity::new(base)
        };
        if self.model.is_initialized() {
            let predicted = self.model.predict_at(now_s);
            let residual = (value - predicted).abs();
            if residual >= self.config.model_limit {
                // The fused value disagrees wildly with the model: distrust it
                // and coast on the prediction with zero validity.
                validity = Validity::INVALID;
                value = predicted;
            } else if residual > self.config.model_tolerance {
                let span = self.config.model_limit - self.config.model_tolerance;
                let factor = 1.0 - (residual - self.config.model_tolerance) / span;
                validity = validity.combine(Validity::new(factor));
            }
        }
        if !validity.is_invalid() {
            self.model.update(value, now_s, 1.0);
        }

        // Temporal redundancy: smooth over the recent window.
        self.recent.push(value);
        if self.recent.len() > self.config.window.max(1) {
            self.recent.remove(0);
        }
        let smoothed = self.recent.iter().sum::<f64>() / self.recent.len() as f64;

        if validity.is_invalid() {
            self.unavailable += 1;
        }
        SensorReading {
            measurement: Measurement::new(smoothed, now, 1.0 / valid.len().max(1) as f64),
            validity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::{RangeCheckDetector, StuckAtDetector};
    use crate::faults::SensorFault;
    use crate::physical::RangeSensor;
    use karyon_sim::SimTime;

    fn replica(seed: u64) -> AbstractSensor {
        let mut s = AbstractSensor::new(
            "replica",
            Box::new(RangeSensor { noise_std: 0.3, max_range: 500.0, dropout_probability: 0.0 }),
            seed,
        );
        s.add_detector(Box::new(RangeCheckDetector::new(0.0, 500.0)));
        s.add_detector(Box::new(StuckAtDetector::new(1e-9, 5)));
        s
    }

    fn reliable(n: usize) -> ReliableSensor {
        let replicas = (0..n).map(|i| replica(100 + i as u64)).collect();
        ReliableSensor::new(replicas, ReliableSensorConfig::default())
    }

    #[test]
    fn tracks_truth_with_healthy_replicas() {
        let mut rs = reliable(3);
        assert_eq!(rs.replica_count(), 3);
        let mut worst = 0.0f64;
        for i in 0..100u64 {
            let truth = 100.0 + 0.05 * i as f64;
            let r = rs.acquire(truth, SimTime::from_millis(i * 100));
            if i > 10 {
                worst = worst.max((r.measurement.value - truth).abs());
                assert!(!r.is_invalid());
            }
        }
        assert!(worst < 2.0, "worst error {worst}");
        assert_eq!(rs.unavailable(), 0);
    }

    #[test]
    fn masks_one_faulty_replica() {
        let mut rs = reliable(3);
        rs.replica_mut(1)
            .injector_mut()
            .inject_always(SensorFault::PermanentOffset { offset: 80.0 });
        let mut worst = 0.0f64;
        for i in 0..100u64 {
            let truth = 100.0;
            let r = rs.acquire(truth, SimTime::from_millis(i * 100));
            if i > 10 && !r.is_invalid() {
                worst = worst.max((r.measurement.value - truth).abs());
            }
        }
        assert!(worst < 5.0, "offset replica not masked, worst error {worst}");
    }

    #[test]
    fn single_replica_still_works() {
        let mut rs = reliable(1);
        let r = rs.acquire(42.0, SimTime::ZERO);
        assert!((r.measurement.value - 42.0).abs() < 2.0);
        assert!(!r.is_invalid());
        assert_eq!(rs.outputs(), 1);
    }

    #[test]
    fn all_replicas_invalid_means_unavailable() {
        let mut rs = reliable(2);
        for i in 0..2 {
            rs.replica_mut(i)
                .injector_mut()
                .inject_always(SensorFault::StuckAt { stuck_value: Some(7.0) });
        }
        let mut unavailable_seen = false;
        for i in 0..30u64 {
            let r = rs.acquire(50.0 + i as f64, SimTime::from_millis(i * 100));
            if r.is_invalid() {
                unavailable_seen = true;
            }
        }
        assert!(unavailable_seen);
        assert!(rs.unavailable() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn rejects_empty_replica_set() {
        let _ = ReliableSensor::new(Vec::new(), ReliableSensorConfig::default());
    }
}
