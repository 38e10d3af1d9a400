//! Frames, node identifiers and addressing.

use karyon_sim::SimTime;

/// Identifier of a network node (one per vehicle / roadside unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// All nodes in radio range.
    Broadcast,
    /// A single node (still physically overheard by neighbours, but filtered).
    Unicast(NodeId),
}

impl Destination {
    /// True when `node` should accept a frame with this destination.
    pub fn accepts(&self, node: NodeId) -> bool {
        match self {
            Destination::Broadcast => true,
            Destination::Unicast(target) => *target == node,
        }
    }
}

/// Well-known "ports" multiplexing upper-layer users of the MAC.
pub mod ports {
    /// Application data frames.
    pub const DATA: u16 = 0;
    /// MAC-level beacons (slot occupancy reports, membership heartbeats).
    pub const BEACON: u16 = 1;
}

/// A link-layer frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination (broadcast or unicast).
    pub dst: Destination,
    /// Per-sender sequence number.
    pub seq: u64,
    /// Creation time at the sender (used to measure delivery delay).
    pub created: SimTime,
    /// Upper-layer multiplexing port (see [`ports`]).
    pub port: u16,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a broadcast data frame.
    pub fn broadcast(src: NodeId, seq: u64, created: SimTime, payload: Vec<u8>) -> Self {
        Frame { src, dst: Destination::Broadcast, seq, created, port: ports::DATA, payload }
    }

    /// Creates a unicast data frame.
    pub fn unicast(src: NodeId, dst: NodeId, seq: u64, created: SimTime, payload: Vec<u8>) -> Self {
        Frame { src, dst: Destination::Unicast(dst), seq, created, port: ports::DATA, payload }
    }

    /// Returns a copy of this frame with a different port.
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Delivery delay of this frame if it is received at `now`.
    pub fn delay_at(&self, now: SimTime) -> karyon_sim::SimDuration {
        now.since(self.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_accepts() {
        let a = NodeId(1);
        let b = NodeId(2);
        assert!(Destination::Broadcast.accepts(a));
        assert!(Destination::Broadcast.accepts(b));
        assert!(Destination::Unicast(a).accepts(a));
        assert!(!Destination::Unicast(a).accepts(b));
    }

    #[test]
    fn frame_constructors() {
        let f = Frame::broadcast(NodeId(3), 7, SimTime::from_millis(10), vec![1, 2]);
        assert_eq!(f.dst, Destination::Broadcast);
        assert_eq!(f.port, ports::DATA);
        assert_eq!(f.delay_at(SimTime::from_millis(25)).as_millis(), 15);
        let u =
            Frame::unicast(NodeId(3), NodeId(4), 8, SimTime::ZERO, vec![]).with_port(ports::BEACON);
        assert_eq!(u.dst, Destination::Unicast(NodeId(4)));
        assert_eq!(u.port, ports::BEACON);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(format!("{}", NodeId(12)), "n12");
    }
}
