//! # karyon-sim — deterministic simulation substrate
//!
//! The KARYON paper (DSN 2013) evaluates its safety architecture through
//! "computer simulations with fault injection support".  This crate is the
//! substrate those simulations run on: a deterministic notion of time, a
//! seedable pseudo-random number generator, the time-ordered event queue
//! behind the simulated transport fabric, 2-D/3-D geometry used by the
//! vehicular scenarios and statistics collection used by the experiment
//! harnesses.  Models with a fixed cadence — TDMA slots, pulse rounds,
//! publish loops, vehicle control cycles, which the paper treats as periodic
//! tasks below the hybridization line — run as plain loops over their own
//! clock.
//!
//! Everything in this crate is deterministic: given the same seed and the
//! same sequence of API calls, a simulation produces bit-identical results.
//! This is what makes the ISO 26262-style fault-injection campaigns of the
//! reproduction repeatable.
//!
//! ## Quick tour
//!
//! ```
//! use karyon_sim::{EventQueue, Rng, SimDuration, SimTime};
//!
//! // Deterministic randomness.
//! let mut rng = Rng::seed_from(42);
//! let sample = rng.normal(0.0, 1.0);
//! assert!(sample.is_finite());
//!
//! // Simulation time is measured in integer microseconds.
//! let t = SimTime::from_millis(5) + SimDuration::from_micros(250);
//! assert_eq!(t.as_micros(), 5_250);
//!
//! // Events pop earliest first, in schedule order among ties.
//! let mut queue = EventQueue::new();
//! queue.schedule(t, "late");
//! queue.schedule(SimTime::from_millis(1), "early");
//! queue.schedule(t, "tie");
//! assert_eq!(queue.pop(), Some((SimTime::from_millis(1), "early")));
//! assert_eq!(queue.pop(), Some((t, "late")));
//! assert_eq!(queue.pop(), Some((t, "tie")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod geometry;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use events::EventQueue;
pub use geometry::{Vec2, Vec3};
pub use rng::{splitmix64, Rng};
pub use stats::{BucketHistogram, BucketHistogramState, Histogram, OnlineStats, OnlineStatsState};
pub use table::Table;
pub use time::{SimDuration, SimTime};
