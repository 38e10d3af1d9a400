//! The builtin scenario families, grouped by the workspace layer they drive.
//!
//! Every KARYON evaluation experiment (the e01–e15 bench harnesses) is backed
//! by a family here, so each gets grid sweeps, Monte-Carlo replication,
//! parallel chunked execution, checkpoint/resume and the `karyon-campaign`
//! CLI for free.  Each family implements [`Scenario`](crate::Scenario) with:
//!
//! * a [`param_domain`](crate::Scenario::param_domain) declaring every
//!   recognised parameter and its default sweep (first value = default) —
//!   the contract behind `karyon-campaign list-families --output json` and
//!   the registry coverage tests;
//! * [`metric_range`](crate::Scenario::metric_range) declarations for
//!   continuous metrics with known scales, so million-run campaigns stream
//!   their quantiles in O(1) memory per point.
//!
//! [`builtin_registry`](crate::builtin_registry) registers one instance of
//! every family below.

pub mod middleware;
pub mod net;
pub mod safety;
pub mod sensors;
pub mod vehicle;

pub use middleware::{MiddlewareOverloadScenario, MiddlewareQosScenario};
pub use net::{
    EndToEndScenario, InaccessibilityScenario, NetTransportScenario, PulseSyncScenario,
    TdmaScenario,
};
pub use safety::{CooperationScenario, KernelLatencyScenario, TopologyScenario};
pub use sensors::{ReliableSensorScenario, SensorValidityScenario};
pub use vehicle::{
    AvionicsScenario, IntersectionScenario, LaneChangeScenario, PlatoonFaultScenario,
    PlatoonScenario,
};
