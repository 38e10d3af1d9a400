//! # karyon-core — the KARYON safety kernel (paper §III, §V-C)
//!
//! KARYON "proposes a safety architecture that exploits the concept of
//! architectural hybridization to define systems in which a small local
//! safety kernel can be built for guaranteeing functional safety along a set
//! of safety rules."  This crate is that kernel:
//!
//! * [`los`] — Levels of Service, ASIL grades and the design-time hazard
//!   analysis,
//! * [`rules`] — safety rules: conditions over validity, freshness, values
//!   and component health, and the compact [`RuleId`] decisions name them by,
//! * [`design_time`] — the Design Time Safety Information: per-LoS rule sets
//!   and the bounded switch time,
//! * [`runtime`] — the interned Run Time Safety Information store and the
//!   lease-based timing failure detector,
//! * [`manager`] — the Safety Manager evaluation cycle (rules compiled once
//!   against the kernel's store; a warm cycle allocates nothing) and the
//!   Safety Kernel (periodic execution, LoS switching, bounded-reaction
//!   accounting),
//! * [`cooperation`] — cooperation-state assessment: bounded-round
//!   manoeuvre agreement,
//! * [`virtual_node`] — virtual stationary automata (region-bound replicated
//!   state machines), the substrate of the virtual traffic light.
//!
//! ## Quick tour
//!
//! Levels of Service order the system's operating modes: level 0 is the
//! always-safe non-cooperative mode the kernel can fall back to without any
//! external component:
//!
//! ```
//! use karyon_core::LevelOfService;
//!
//! let cooperative = LevelOfService(2);
//! assert!(!cooperative.is_non_cooperative());
//! let degraded = cooperative.lower();
//! assert_eq!(degraded, LevelOfService(1));
//! assert_eq!(
//!     LevelOfService::NON_COOPERATIVE.lower(),
//!     LevelOfService::NON_COOPERATIVE,
//!     "level 0 is the floor — degradation saturates there"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cooperation;
pub mod design_time;
pub mod los;
pub mod manager;
pub mod rules;
pub mod runtime;
pub mod virtual_node;

pub use cooperation::{AgreementMessage, AgreementProtocol, ProposalState, VehicleId};
pub use design_time::{DesignTimeSafetyInfo, LosSpec};
pub use los::{Asil, Hazard, HazardAnalysis, LevelOfService};
pub use manager::{LosDecision, SafetyKernel, SafetyManager, SwitchEvent};
pub use rules::{Condition, RuleId, SafetyRule};
pub use runtime::{DataItem, HealthReport, RunTimeSafetyInfo, TimingFailureDetector};
pub use virtual_node::{Region, Replica, ReplicatedMachine, StateSnapshot, VirtualNode};
