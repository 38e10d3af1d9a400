//! # karyon-sensors — abstract sensors, fault semantics and validity (KARYON §IV)
//!
//! The KARYON paper argues that cooperative vehicular control needs *fault
//! models that abstract from the subtle and diverse behaviours of faulty
//! components* and provide a well-defined failure semantics at the component
//! interface.  This crate implements that abstraction layer:
//!
//! * [`measurement`] — continuous-valued measurements with timestamps,
//! * [`faults`] — the five sensor-fault classes identified by the project
//!   (delay, sporadic offset, permanent offset, stochastic offset, stuck-at)
//!   and a deterministic fault injector,
//! * [`physical`] — simulated physical sensors (the range sensor the
//!   vehicle scenarios use),
//! * [`detectors`] — *dominant* detectors (a detected failure renders the
//!   reading invalid) and *continuous* detectors (contribute a graded
//!   validity estimate), exactly the two classes of Fig. 3,
//! * [`validity`] — the 0–100 % data-validity attribute attached to every
//!   disseminated reading,
//! * [`fusion`] — validity-weighted fusion, Marzullo interval fusion and a
//!   1-D Kalman filter (analytical redundancy),
//! * [`abstract_sensor`] / [`reliable`] — the abstract sensor (physical
//!   sensor + injected faults + detectors ⇒ reading with validity) and the
//!   abstract *reliable* sensor that combines component, analytical and
//!   temporal redundancy.
//!
//! ## Quick tour
//!
//! Every disseminated reading carries a [`Validity`] in `[0, 100] %`;
//! independent evidence combines multiplicatively, and safety rules compare
//! the result against thresholds:
//!
//! ```
//! use karyon_sensors::Validity;
//!
//! let detector_a = Validity::from_percent(75.0);
//! let detector_b = Validity::from_percent(50.0);
//! let combined = detector_a.combine(detector_b);
//! assert_eq!(combined.percent(), 37.5);
//! assert!(combined.meets(0.3), "still good enough for a 30 % rule");
//! assert!(!combined.meets(0.5));
//! assert!(Validity::INVALID.is_invalid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_sensor;
pub mod detectors;
pub mod faults;
pub mod fusion;
pub mod measurement;
pub mod physical;
pub mod reliable;
pub mod validity;

pub use abstract_sensor::{monitored_range_sensor, AbstractSensor, SensorReading};
pub use detectors::{
    DetectionOutcome, DetectorClass, FailureDetector, ModelBasedDetector, RangeCheckDetector,
    RateOfChangeDetector, StuckAtDetector, TimeoutDetector,
};
pub use faults::{FaultInjector, FaultSchedule, SensorFault};
pub use fusion::{marzullo_fuse, weighted_fuse, Interval, Kalman1D};
pub use measurement::Measurement;
pub use physical::{PhysicalSensor, RangeSensor};
pub use reliable::ReliableSensor;
pub use validity::Validity;
