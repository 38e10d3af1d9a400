#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The seed-deterministic simulated network fabric behind the
//! `net-transport` scenario family.
//!
//! [`SimTransport`] keeps its own virtual clock and delivery queue
//! ([`karyon_sim::EventQueue`]) and draws from seed-derived entropy.  Every
//! link's delay/jitter draws, drops, duplicates and reorderings, and the
//! partition schedules, are functions of the construction seed, so any
//! interleaving observed under faults is replayable bit-for-bit from that
//! seed — the same contract campaign runs already honour.  Nodes send bytes,
//! pump the fabric to a deadline (or drain it) and receive [`Delivery`]s
//! annotated with their fabric timing.
//!
//! # Determinism contract
//!
//! For a fixed seed, link configuration and send sequence, [`SimTransport`]
//! yields the identical delivery sequence (order, times, payloads, duplicate
//! flags) and identical [`TransportStats`] on every run.  This holds because
//! (a) each directed link's entropy stream is derived purely from
//! `(seed, src, dst)` — never from map insertion order or wall clock — and
//! (b) the delivery queue breaks same-time ties by schedule order, so
//! simultaneous deliveries keep a stable order.

use std::fmt;

use karyon_sim::SimTime;

mod sim;

pub use sim::{LinkConfig, PartitionWindow, SimTransport};

/// Logical address of a node on a transport fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One message handed to its destination, annotated with fabric timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Fabric time at which the message was submitted.
    pub sent_at: SimTime,
    /// Fabric time at which it reached the destination.
    pub delivered_at: SimTime,
    /// Message bytes, unmodified.
    pub payload: Vec<u8>,
    /// `true` on the extra copy of a duplicated message.
    pub duplicate: bool,
}

/// Monotonic counters describing everything a transport did since
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages submitted via [`SimTransport::send`].
    pub sent: u64,
    /// Deliveries handed out (duplicates counted individually).
    pub delivered: u64,
    /// Messages dropped by per-link loss.
    pub dropped: u64,
    /// Extra copies injected by per-link duplication.
    pub duplicated: u64,
    /// Deliveries that arrived after a message sent later on the same link.
    pub reordered: u64,
    /// Messages severed by an active partition window.
    pub partition_dropped: u64,
}

impl TransportStats {
    /// Total messages that never reached their destination.
    pub fn lost(&self) -> u64 {
        self.dropped + self.partition_dropped
    }
}

/// Directed link identifier keying the per-link entropy streams and delivery
/// order tracking.
pub(crate) type LinkKey = (u32, u32);

pub(crate) fn link_key(src: NodeId, dst: NodeId) -> LinkKey {
    (src.0, dst.0)
}
