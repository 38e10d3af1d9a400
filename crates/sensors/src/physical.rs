//! Simulated physical sensors.
//!
//! A [`PhysicalSensor`] stands in for a transducer of the paper's prototypes
//! and turns a ground-truth quantity into a noisy [`Measurement`]; the fault
//! injector then corrupts it further when faults are scheduled.  The vehicle
//! scenarios use the radar/lidar-style [`RangeSensor`].

use karyon_sim::{Rng, SimTime};

use crate::measurement::Measurement;

/// A simulated transducer that converts a ground-truth value into a noisy
/// measurement.
pub trait PhysicalSensor {
    /// Samples the sensor given the ground truth at `now`.
    fn sample(&mut self, ground_truth: f64, now: SimTime, rng: &mut Rng) -> Measurement;

    /// The nominal measurement-noise variance of this sensor.
    fn nominal_variance(&self) -> f64;
}

/// A range sensor (radar / lidar style): Gaussian noise, bounded range,
/// occasional dropouts reported as the maximum range.
#[derive(Debug, Clone)]
pub struct RangeSensor {
    /// Standard deviation of the measurement noise (metres).
    pub noise_std: f64,
    /// Maximum measurable range (metres); larger truths saturate.
    pub max_range: f64,
    /// Probability that a sample is a dropout (reported as `max_range`).
    pub dropout_probability: f64,
}

impl Default for RangeSensor {
    fn default() -> Self {
        RangeSensor { noise_std: 0.5, max_range: 250.0, dropout_probability: 0.0 }
    }
}

impl PhysicalSensor for RangeSensor {
    fn sample(&mut self, ground_truth: f64, now: SimTime, rng: &mut Rng) -> Measurement {
        if rng.chance(self.dropout_probability) {
            return Measurement::new(self.max_range, now, self.nominal_variance());
        }
        let truth = ground_truth.clamp(0.0, self.max_range);
        let value = (truth + rng.normal(0.0, self.noise_std)).clamp(0.0, self.max_range);
        Measurement::new(value, now, self.nominal_variance())
    }

    fn nominal_variance(&self) -> f64 {
        self.noise_std * self.noise_std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon_sim::SimTime;

    #[test]
    fn range_sensor_noise_and_saturation() {
        let mut s = RangeSensor { noise_std: 0.5, max_range: 100.0, dropout_probability: 0.0 };
        let mut rng = Rng::seed_from(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let m = s.sample(50.0, SimTime::ZERO, &mut rng);
            assert!((0.0..=100.0).contains(&m.value));
            sum += m.value;
        }
        assert!((sum / n as f64 - 50.0).abs() < 0.05);
        // Saturation.
        let m = s.sample(1_000.0, SimTime::ZERO, &mut rng);
        assert!(m.value <= 100.0);
        assert!(s.nominal_variance() > 0.0);
    }

    #[test]
    fn range_sensor_dropouts_report_max_range() {
        let mut s = RangeSensor { noise_std: 0.0, max_range: 80.0, dropout_probability: 1.0 };
        let mut rng = Rng::seed_from(2);
        let m = s.sample(10.0, SimTime::ZERO, &mut rng);
        assert_eq!(m.value, 80.0);
    }
}
