//! The KARYON sensor-fault classes and the deterministic fault injector.
//!
//! The project "performed a failure mode analysis for different sensors and
//! identified several fault modes that were categorized along five main
//! dimensions: delay faults, sporadic offset faults, permanent offset faults,
//! stochastic offset faults and stuck-at faults" (paper §IV-A, citing \[42\]).
//! Each of the five classes is modelled here with explicit parameters so
//! fault-injection campaigns can sweep them individually.

use karyon_sim::{Rng, SimDuration, SimTime};

use crate::measurement::Measurement;

/// One of the five sensor-fault classes of the KARYON failure-mode analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// The reading is delivered late by `delay`; its timestamp reflects the
    /// (stale) acquisition instant.
    Delay {
        /// How much older the delivered reading is than a fresh one.
        delay: SimDuration,
    },
    /// With probability `probability` a reading is offset by `magnitude`
    /// (sign chosen pseudo-randomly per occurrence).
    SporadicOffset {
        /// Probability that any given reading is affected.
        probability: f64,
        /// Absolute offset applied to affected readings.
        magnitude: f64,
    },
    /// Every reading is offset by `offset` (a calibration/bias failure).
    PermanentOffset {
        /// Constant additive offset.
        offset: f64,
    },
    /// Zero-mean noise with standard deviation `std_dev` is added to every
    /// reading (degraded precision).
    StochasticOffset {
        /// Standard deviation of the additional noise.
        std_dev: f64,
    },
    /// The output freezes at the last value observed before the fault became
    /// active (or at `stuck_value` if provided).
    StuckAt {
        /// Optional explicit stuck output; `None` freezes the last good value.
        stuck_value: Option<f64>,
    },
}

impl SensorFault {
    /// A short, stable identifier used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SensorFault::Delay { .. } => "delay",
            SensorFault::SporadicOffset { .. } => "sporadic-offset",
            SensorFault::PermanentOffset { .. } => "permanent-offset",
            SensorFault::StochasticOffset { .. } => "stochastic-offset",
            SensorFault::StuckAt { .. } => "stuck-at",
        }
    }
}

/// When a fault is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    /// The fault becomes active at this instant.
    pub start: SimTime,
    /// The fault stops being active at this instant (`SimTime::MAX` = forever).
    pub end: SimTime,
}

impl FaultSchedule {
    /// A schedule active for the whole simulation.
    pub fn always() -> Self {
        FaultSchedule { start: SimTime::ZERO, end: SimTime::MAX }
    }

    /// A schedule active from `start` (inclusive) to `end` (exclusive).
    pub fn window(start: SimTime, end: SimTime) -> Self {
        FaultSchedule { start, end }
    }

    /// A schedule active from `start` onwards.
    pub fn from(start: SimTime) -> Self {
        FaultSchedule { start, end: SimTime::MAX }
    }

    /// True when the fault is active at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

#[derive(Debug, Clone)]
struct ScheduledFault {
    fault: SensorFault,
    schedule: FaultSchedule,
}

/// Applies scheduled [`SensorFault`]s to the output of a physical sensor.
///
/// The injector owns its own deterministic random stream so that a given seed
/// produces an identical fault pattern regardless of what the rest of the
/// simulation does.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    faults: Vec<ScheduledFault>,
    rng: Rng,
    /// Last value delivered while no stuck-at fault was active; the value a
    /// stuck-at fault freezes on.
    last_good_value: Option<f64>,
    /// Buffer of past readings used to realize delay faults.
    history: Vec<Measurement>,
    /// Maximum number of buffered past readings.
    history_limit: usize,
}

impl FaultInjector {
    /// Creates an injector with no scheduled faults.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            faults: Vec::new(),
            rng: Rng::seed_from(seed),
            last_good_value: None,
            history: Vec::new(),
            history_limit: 256,
        }
    }

    /// Schedules a fault.
    pub fn inject(&mut self, fault: SensorFault, schedule: FaultSchedule) -> &mut Self {
        self.faults.push(ScheduledFault { fault, schedule });
        self
    }

    /// Convenience: schedules a fault active for the entire simulation.
    pub fn inject_always(&mut self, fault: SensorFault) -> &mut Self {
        self.inject(fault, FaultSchedule::always())
    }

    /// Number of scheduled faults (active or not).
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// True if any fault is active at `now`.
    pub fn any_active(&self, now: SimTime) -> bool {
        self.faults.iter().any(|f| f.schedule.is_active(now))
    }

    /// The labels of the faults active at `now`.
    pub fn active_labels(&self, now: SimTime) -> Vec<&'static str> {
        self.faults.iter().filter(|f| f.schedule.is_active(now)).map(|f| f.fault.label()).collect()
    }

    /// Transforms a freshly acquired `reading` according to the faults active
    /// at `now`, returning the (possibly corrupted) reading the application
    /// actually observes.
    pub fn apply(&mut self, reading: Measurement, now: SimTime) -> Measurement {
        // Keep a short history of the *true* sensor outputs for delay faults.
        self.history.push(reading);
        if self.history.len() > self.history_limit {
            self.history.remove(0);
        }

        let mut out = reading;
        let mut stuck = false;

        let faults: Vec<SensorFault> =
            self.faults.iter().filter(|f| f.schedule.is_active(now)).map(|f| f.fault).collect();

        for fault in faults {
            match fault {
                SensorFault::Delay { delay } => {
                    let target = now - delay;
                    // Deliver the newest buffered reading acquired at or
                    // before `target`; if none exists, keep the oldest.
                    let candidate = self
                        .history
                        .iter()
                        .rev()
                        .find(|m| m.timestamp <= target)
                        .or_else(|| self.history.first())
                        .copied();
                    if let Some(old) = candidate {
                        out = Measurement {
                            value: old.value,
                            timestamp: old.timestamp,
                            variance: out.variance,
                        };
                    }
                }
                SensorFault::SporadicOffset { probability, magnitude } => {
                    if self.rng.chance(probability) {
                        let sign = if self.rng.chance(0.5) { 1.0 } else { -1.0 };
                        out.value += sign * magnitude;
                    }
                }
                SensorFault::PermanentOffset { offset } => {
                    out.value += offset;
                }
                SensorFault::StochasticOffset { std_dev } => {
                    out.value += self.rng.normal(0.0, std_dev);
                    out.variance += std_dev * std_dev;
                }
                SensorFault::StuckAt { stuck_value } => {
                    stuck = true;
                    let frozen = stuck_value.or(self.last_good_value).unwrap_or(out.value);
                    out.value = frozen;
                }
            }
        }

        if !stuck {
            self.last_good_value = Some(out.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon_sim::{SimDuration, SimTime};

    fn reading(value: f64, ms: u64) -> Measurement {
        Measurement::new(value, SimTime::from_millis(ms), 0.01)
    }

    #[test]
    fn schedule_windows() {
        let s = FaultSchedule::window(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!s.is_active(SimTime::from_millis(999)));
        assert!(s.is_active(SimTime::from_secs(1)));
        assert!(s.is_active(SimTime::from_millis(1_999)));
        assert!(!s.is_active(SimTime::from_secs(2)));
        assert!(FaultSchedule::always().is_active(SimTime::from_secs(100)));
        assert!(FaultSchedule::from(SimTime::from_secs(5)).is_active(SimTime::from_secs(9)));
    }

    #[test]
    fn no_faults_means_identity() {
        let mut inj = FaultInjector::new(1);
        let m = reading(42.0, 10);
        assert_eq!(inj.apply(m, SimTime::from_millis(10)), m);
        assert!(!inj.any_active(SimTime::from_millis(10)));
        assert_eq!(inj.fault_count(), 0);
    }

    #[test]
    fn permanent_offset_shifts_every_reading() {
        let mut inj = FaultInjector::new(2);
        inj.inject_always(SensorFault::PermanentOffset { offset: 3.0 });
        for i in 0..10 {
            let out = inj.apply(reading(10.0, i * 100), SimTime::from_millis(i * 100));
            assert_eq!(out.value, 13.0);
        }
    }

    #[test]
    fn sporadic_offset_affects_roughly_expected_fraction() {
        let mut inj = FaultInjector::new(3);
        inj.inject_always(SensorFault::SporadicOffset { probability: 0.3, magnitude: 5.0 });
        let mut affected = 0;
        let n = 5_000;
        for i in 0..n {
            let out = inj.apply(reading(0.0, i), SimTime::from_millis(i));
            if out.value != 0.0 {
                affected += 1;
                assert!((out.value.abs() - 5.0).abs() < 1e-12);
            }
        }
        let frac = affected as f64 / n as f64;
        assert!((0.25..0.35).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn stochastic_offset_increases_noise_and_variance() {
        let mut inj = FaultInjector::new(4);
        inj.inject_always(SensorFault::StochasticOffset { std_dev: 2.0 });
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let out = inj.apply(reading(0.0, i), SimTime::from_millis(i));
            sum += out.value;
            sumsq += out.value * out.value;
            assert!(out.variance > 3.9);
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn stuck_at_freezes_last_good_value() {
        let mut inj = FaultInjector::new(5);
        inj.inject(
            SensorFault::StuckAt { stuck_value: None },
            FaultSchedule::from(SimTime::from_millis(500)),
        );
        // Before the fault, readings pass through and update the "last good" value.
        let out = inj.apply(reading(7.0, 400), SimTime::from_millis(400));
        assert_eq!(out.value, 7.0);
        // After activation, the output stays at 7 regardless of the input.
        for (i, v) in [(600u64, 8.0), (700, 9.0), (800, 100.0)] {
            let out = inj.apply(reading(v, i), SimTime::from_millis(i));
            assert_eq!(out.value, 7.0);
        }
    }

    #[test]
    fn stuck_at_explicit_value() {
        let mut inj = FaultInjector::new(6);
        inj.inject_always(SensorFault::StuckAt { stuck_value: Some(-1.0) });
        let out = inj.apply(reading(55.0, 0), SimTime::ZERO);
        assert_eq!(out.value, -1.0);
    }

    #[test]
    fn delay_fault_serves_stale_readings() {
        let mut inj = FaultInjector::new(7);
        inj.inject_always(SensorFault::Delay { delay: SimDuration::from_millis(300) });
        // Feed readings every 100 ms with value == time in ms.
        let mut last = Measurement::exact(0.0, SimTime::ZERO);
        for i in 0..10u64 {
            let t = i * 100;
            last = inj.apply(reading(t as f64, t), SimTime::from_millis(t));
        }
        // At t=900 ms a 300 ms delay should deliver the reading from t<=600 ms.
        assert_eq!(last.value, 600.0);
        assert_eq!(last.timestamp, SimTime::from_millis(600));
    }

    #[test]
    fn active_labels_reports_current_faults() {
        let mut inj = FaultInjector::new(8);
        inj.inject(
            SensorFault::PermanentOffset { offset: 1.0 },
            FaultSchedule::window(SimTime::ZERO, SimTime::from_secs(1)),
        );
        inj.inject(
            SensorFault::StuckAt { stuck_value: None },
            FaultSchedule::from(SimTime::from_secs(2)),
        );
        assert_eq!(inj.active_labels(SimTime::from_millis(500)), vec!["permanent-offset"]);
        assert!(inj.active_labels(SimTime::from_millis(1_500)).is_empty());
        assert_eq!(inj.active_labels(SimTime::from_secs(3)), vec!["stuck-at"]);
        assert_eq!(inj.fault_count(), 2);
    }

    #[test]
    fn fault_labels_are_stable() {
        assert_eq!(SensorFault::Delay { delay: SimDuration::ZERO }.label(), "delay");
        assert_eq!(
            SensorFault::SporadicOffset { probability: 0.0, magnitude: 0.0 }.label(),
            "sporadic-offset"
        );
        assert_eq!(SensorFault::PermanentOffset { offset: 0.0 }.label(), "permanent-offset");
        assert_eq!(SensorFault::StochasticOffset { std_dev: 0.0 }.label(), "stochastic-offset");
        assert_eq!(SensorFault::StuckAt { stuck_value: None }.label(), "stuck-at");
    }
}
