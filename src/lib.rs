//! # karyon — umbrella crate for the KARYON reproduction
//!
//! Re-exports the individual crates of the workspace under short module
//! names so examples and integration tests can use a single dependency:
//!
//! * [`sim`] — deterministic discrete-event simulation substrate
//! * [`telemetry`] — deterministic virtual-time tracing and the unified
//!   wall-clock metrics registry (the campaign flight recorder)
//! * [`sensors`] — abstract sensors, fault model, validity, fusion (paper §IV)
//! * [`net`] — wireless medium, R2T-MAC, self-stabilizing TDMA, E2E FIFO (§V-A)
//! * [`transport`] — the seed-deterministic simulated network fabric
//!   [`transport::SimTransport`] behind the `net-transport` family
//! * [`middleware`] — FAMOUSO-style event channels with QoS (§V-B)
//! * [`core`] — the safety kernel: Levels of Service, safety rules, safety
//!   manager, cooperation state (§III, §V-C)
//! * [`vehicles`] — automotive and avionics use cases (§VI)
//! * [`scenario`] — declarative scenario families, parallel campaign
//!   orchestration and crash-safe checkpoint/resume over every layer above
//!
//! The umbrella `prelude` is intentionally omitted: pick the layer you need.
//! `ARCHITECTURE.md` at the repository root maps these crates onto the
//! paper's layer diagram.
//!
//! ## Quick tour
//!
//! A three-line campaign over one of the paper's use cases, through the
//! umbrella re-exports:
//!
//! ```
//! use karyon::scenario::{builtin_registry, Campaign, CampaignEntry, ParamGrid};
//!
//! let campaign = Campaign::new("doc", 1).with_threads(2).entry(
//!     CampaignEntry::new("middleware-qos")
//!         .grid(ParamGrid::new().axis("degrade", [false, true]))
//!         .replications(2)
//!         .duration_secs(10),
//! );
//! let report = campaign.run(&builtin_registry()).expect("builtin family");
//! assert_eq!(report.total_runs, 4);
//! assert_eq!(report.suspect_runs(), 0, "no model schedules into the past");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use karyon_core as core;
pub use karyon_middleware as middleware;
pub use karyon_net as net;
pub use karyon_scenario as scenario;
pub use karyon_sensors as sensors;
pub use karyon_sim as sim;
pub use karyon_telemetry as telemetry;
pub use karyon_transport as transport;
pub use karyon_vehicles as vehicles;
