//! Statically assigned TDMA.
//!
//! Every node owns the slot `node_id % slots_per_frame` and transmits only
//! there.  This models the conventional TDMA approach that "assumes the
//! availability of common (external) sources of time, such as base-stations
//! or GPS time sources" — the assumption the self-stabilizing algorithms of
//! §V-A2 remove.  It is collision-free by construction as long as no two
//! nodes within range share a slot.

use crate::packet::Frame;

use super::{deliver_if_data, MacContext, MacProtocol};

/// Fixed-assignment TDMA: transmit only in the statically owned slot.
#[derive(Debug, Clone, Default)]
pub struct FixedTdmaMac {
    /// Optional explicit slot assignment; `None` uses `node_id % slots_per_frame`.
    pub assigned_slot: Option<u16>,
}

impl FixedTdmaMac {
    /// Creates a TDMA MAC using the default `node_id % slots_per_frame` rule.
    pub fn new() -> Self {
        FixedTdmaMac { assigned_slot: None }
    }

    /// Creates a TDMA MAC with an explicit slot assignment.
    pub fn with_slot(slot: u16) -> Self {
        FixedTdmaMac { assigned_slot: Some(slot) }
    }

    /// The slot this node transmits in, given the frame length.
    pub fn slot_for(&self, node_id: u32, slots_per_frame: u16) -> u16 {
        self.assigned_slot.unwrap_or((node_id % slots_per_frame as u32) as u16)
    }
}

impl MacProtocol for FixedTdmaMac {
    fn name(&self) -> &'static str {
        "tdma-fixed"
    }

    fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
        let my_slot = self.slot_for(ctx.node.0, ctx.slots_per_frame);
        if ctx.slot_in_frame == my_slot {
            ctx.queue.pop_front()
        } else {
            None
        }
    }

    fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
        deliver_if_data(frame, ctx);
    }

    /// Stateless: with an empty queue a slot does nothing.
    fn is_quiescent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacSimConfig, MacSimulation};
    use crate::medium::{MediumConfig, WirelessMedium};
    use crate::packet::NodeId;
    use karyon_sim::Vec2;

    fn sim(nodes: u32, slots: u16) -> MacSimulation<FixedTdmaMac> {
        let medium = WirelessMedium::new(MediumConfig {
            range: 1_000.0,
            loss_probability: 0.0,
            channels: 1,
        });
        let mut s = MacSimulation::new(
            medium,
            MacSimConfig { slots_per_frame: slots, ..MacSimConfig::default() },
            11,
        );
        for i in 0..nodes {
            s.add_node(NodeId(i), FixedTdmaMac::new(), Vec2::new(i as f64 * 5.0, 0.0));
        }
        s
    }

    #[test]
    fn unique_slots_mean_no_collisions() {
        let mut s = sim(8, 16);
        for n in 0..8 {
            s.send_broadcast(NodeId(n), vec![n as u8]);
        }
        s.run_slots(32);
        assert_eq!(s.metrics().collisions, 0);
        assert_eq!(s.metrics().delivered, 8 * 7);
    }

    #[test]
    fn shared_slot_collides() {
        // 8 nodes but only 4 slots: ids 0 and 4 share slot 0, etc.
        let mut s = sim(8, 4);
        for n in 0..8 {
            s.send_broadcast(NodeId(n), vec![n as u8]);
        }
        s.run_slots(8);
        assert!(s.metrics().collisions > 0);
        assert_eq!(s.metrics().delivered, 0);
    }

    #[test]
    fn explicit_assignment_overrides_id_rule() {
        let mac = FixedTdmaMac::with_slot(3);
        assert_eq!(mac.slot_for(10, 16), 3);
        let default_mac = FixedTdmaMac::new();
        assert_eq!(default_mac.slot_for(10, 16), 10);
        assert_eq!(default_mac.slot_for(18, 16), 2);
        assert_eq!(default_mac.name(), "tdma-fixed");
    }
}
