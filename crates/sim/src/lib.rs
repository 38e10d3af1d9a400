//! # karyon-sim — deterministic discrete-event simulation substrate
//!
//! The KARYON paper (DSN 2013) evaluates its safety architecture through
//! "computer simulations with fault injection support".  This crate is the
//! substrate those simulations run on: a deterministic notion of time, a
//! seedable pseudo-random number generator, event queues, a small
//! discrete-event engine, 2-D/3-D geometry used by the vehicular scenarios
//! and statistics collection used by the experiment harnesses.
//!
//! Everything in this crate is deterministic: given the same seed and the
//! same sequence of API calls, a simulation produces bit-identical results.
//! This is what makes the ISO 26262-style fault-injection campaigns of the
//! reproduction repeatable.
//!
//! ## Quick tour
//!
//! ```
//! use karyon_sim::prelude::*;
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
//! // A tiny event-driven simulation.
//! let mut engine: Engine<u32, &'static str> = Engine::new(0);
//! engine.schedule_in(SimDuration::from_millis(1), "tick");
//! engine.run(|state, ctx, ev| {
//!     if ev == "tick" {
//!         *state += 1;
//!         if *state < 3 {
//!             ctx.schedule_in(SimDuration::from_millis(1), "tick");
//!         }
//!     }
//! });
//! assert_eq!(*engine.state(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod geometry;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use engine::{Context, Engine, EngineObserver};
pub use events::{EventQueue, HeapEventQueue};
pub use geometry::{Vec2, Vec3};
pub use rng::{splitmix64, Rng};
pub use stats::{
    BucketHistogram, BucketHistogramState, Counter, Histogram, OnlineStats, OnlineStatsState,
    TimeSeries,
};
pub use table::Table;
pub use time::{SimDuration, SimTime};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::engine::{Context, Engine};
    pub use crate::events::EventQueue;
    pub use crate::geometry::{Vec2, Vec3};
    pub use crate::rng::Rng;
    pub use crate::stats::{BucketHistogram, Counter, Histogram, OnlineStats, TimeSeries};
    pub use crate::table::Table;
    pub use crate::time::{SimDuration, SimTime};
}
