//! # karyon-net — communication predictability and resilience (KARYON §V-A)
//!
//! The paper devotes "particular attention to the problems caused by
//! communication uncertainty".  This crate provides the simulated wireless
//! substrate and every communication mechanism the project proposes on top
//! of it:
//!
//! * [`medium`] — a slot-synchronous shared wireless medium with radio range,
//!   collisions, residual loss, multiple channels and external disturbances
//!   (the cause of *network inaccessibility*),
//! * [`inaccessibility`] — accounting of inaccessibility periods (§V-A1),
//! * [`mac`] — the MAC abstraction and concrete protocols: a CSMA baseline,
//!   fixed TDMA and **self-stabilizing TDMA** slot allocation without
//!   external time sources (§V-A2),
//! * [`r2tmac`] — the **R2T-MAC** mediator + channel-control architecture
//!   that surrounds a standard MAC and bounds inaccessibility (Fig. 4),
//! * [`pulse`] — self-stabilizing pulse/slot alignment under clock drift,
//! * [`end_to_end`] — self-stabilizing end-to-end FIFO delivery over an
//!   omitting, duplicating, reordering, bounded-capacity channel,
//! * [`topology`] — topology discovery and the 2f+1 vertex-disjoint-path
//!   analysis needed for Byzantine-resilient dissemination (§V-C).
//!
//! ## Quick tour
//!
//! *Network inaccessibility* — periods in which the network gives no service
//! although it is not considered failed — is the paper's central
//! communication hazard; the tracker turns per-slot observations into the
//! period statistics the experiments report:
//!
//! ```
//! use karyon_net::InaccessibilityTracker;
//! use karyon_sim::SimTime;
//!
//! let mut tracker = InaccessibilityTracker::new();
//! for ms in 0u64..10 {
//!     // Jammed from t = 2 ms to t = 6 ms.
//!     tracker.observe((2..6).contains(&ms), SimTime::from_millis(ms));
//! }
//! tracker.finish(SimTime::from_millis(10));
//! assert_eq!(tracker.count(), 1, "one contiguous inaccessibility period");
//! assert_eq!(tracker.total().as_millis(), 4);
//! assert_eq!(tracker.longest().as_millis(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod end_to_end;
pub mod inaccessibility;
pub mod mac;
pub mod medium;
pub mod packet;
pub mod pulse;
pub mod r2tmac;
pub mod topology;

pub use end_to_end::{
    eventually_fifo, E2EConfig, EndToEndSession, SelfStabReceiver, SelfStabSender,
};
pub use inaccessibility::{InaccessibilityPeriod, InaccessibilityTracker};
pub use mac::csma::{CsmaConfig, CsmaMac};
pub use mac::selfstab_tdma::{SelfStabTdmaMac, SlotStatus};
pub use mac::tdma_fixed::FixedTdmaMac;
pub use mac::{MacContext, MacMetrics, MacProtocol, MacSimConfig, MacSimulation, SlotObservation};
pub use medium::{Disturbance, MediumConfig, WirelessMedium};
pub use packet::{ports, Destination, Frame, NodeId};
pub use pulse::{PulseSyncConfig, PulseSyncSim};
pub use r2tmac::{R2TMac, R2TMacConfig};
pub use topology::{Graph, TopologyDiscovery};
