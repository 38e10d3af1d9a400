//! Self-stabilizing TDMA slot allocation (paper §V-A2, after Leone & Schiller).
//!
//! Nodes allocate TDMA slots *without any external time source* (no GPS, no
//! base station): each node claims a slot, beacons its claim together with
//! the slot occupancy it observed during the previous TDMA frame, and
//! re-selects a slot whenever a neighbour's report shows that its own slot
//! collided or is owned by someone else.  Starting from an arbitrary (even
//! adversarial) initial claim configuration, the allocation converges to a
//! collision-free schedule — the self-stabilization property evaluated in
//! experiment E05.

use crate::packet::{ports, Destination, Frame, NodeId};

use super::{MacContext, MacProtocol, SlotObservation};

/// What a node observed in one slot of the previous frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStatus {
    /// Nothing was heard.
    Free,
    /// Exactly one transmission, from the given node.
    Owned(u32),
    /// Two or more interfering transmissions.
    Collision,
}

const MAGIC: u8 = 0xB5;
const SLOT_NONE: u16 = 0xFFFF;
const STATUS_FREE: u16 = 0xFFFF;
const STATUS_COLLISION: u16 = 0xFFFE;

fn encode_beacon(claimed: Option<u16>, report: &[SlotStatus]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + report.len() * 2);
    out.push(MAGIC);
    let c = claimed.unwrap_or(SLOT_NONE);
    out.extend_from_slice(&c.to_le_bytes());
    out.push(report.len() as u8);
    for status in report {
        let v: u16 = match status {
            SlotStatus::Free => STATUS_FREE,
            SlotStatus::Collision => STATUS_COLLISION,
            SlotStatus::Owned(id) => (*id as u16).min(STATUS_COLLISION - 1),
        };
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// A received beacon, validated but decoded only on demand: a receiver
/// needs the sender's claim and the report entry of its own slot, which are
/// read in place from the payload.
struct Beacon<'a> {
    claimed: Option<u16>,
    /// The report's little-endian `u16` entries, one per slot.
    report: &'a [u8],
}

impl<'a> Beacon<'a> {
    fn parse(payload: &'a [u8]) -> Option<Self> {
        if payload.len() < 4 || payload[0] != MAGIC {
            return None;
        }
        let claimed_raw = u16::from_le_bytes([payload[1], payload[2]]);
        let count = payload[3] as usize;
        let report = payload.get(4..4 + count * 2)?;
        Some(Beacon { claimed: (claimed_raw != SLOT_NONE).then_some(claimed_raw), report })
    }

    /// What the sender observed in `slot` during its previous frame, if its
    /// report covers that slot.
    fn entry(&self, slot: u16) -> Option<SlotStatus> {
        let at = slot as usize * 2;
        let bytes = self.report.get(at..at + 2)?;
        Some(match u16::from_le_bytes([bytes[0], bytes[1]]) {
            STATUS_FREE => SlotStatus::Free,
            STATUS_COLLISION => SlotStatus::Collision,
            id => SlotStatus::Owned(id as u32),
        })
    }
}

/// Self-stabilizing TDMA MAC instance.
#[derive(Debug, Clone)]
pub struct SelfStabTdmaMac {
    claimed_slot: Option<u16>,
    /// Observations accumulated during the current frame.
    observed: Vec<SlotStatus>,
    /// The previous frame's observations (beaconed to neighbours).
    last_report: Vec<SlotStatus>,
    conflict: bool,
    stable_frames: u64,
    reselections: u64,
    /// Probability of *listening* instead of transmitting in the claimed slot
    /// during a frame.  Listening occasionally is what lets a node detect
    /// that its own slot is being used by others even when every claimant of
    /// the slot would otherwise be transmitting (and, being half-duplex,
    /// hearing nothing).
    listen_probability: f64,
    /// True when this frame's own slot is spent listening.
    listening_this_frame: bool,
}

impl Default for SelfStabTdmaMac {
    fn default() -> Self {
        Self::new()
    }
}

impl SelfStabTdmaMac {
    /// Creates a node with no claimed slot (it will self-allocate).
    pub fn new() -> Self {
        SelfStabTdmaMac {
            claimed_slot: None,
            observed: Vec::new(),
            last_report: Vec::new(),
            conflict: false,
            stable_frames: 0,
            reselections: 0,
            listen_probability: 0.15,
            listening_this_frame: false,
        }
    }

    /// Creates a node with an arbitrary (possibly conflicting) initial claim,
    /// used to demonstrate stabilization from a corrupted configuration.
    pub fn with_initial_claim(slot: u16) -> Self {
        let mut mac = Self::new();
        mac.claimed_slot = Some(slot);
        mac
    }

    /// The currently claimed slot, if any.
    pub fn claimed_slot(&self) -> Option<u16> {
        self.claimed_slot
    }

    /// Number of consecutive frames without a detected conflict.
    pub fn stable_frames(&self) -> u64 {
        self.stable_frames
    }

    /// Number of times the node had to re-select its slot.
    pub fn reselections(&self) -> u64 {
        self.reselections
    }

    fn ensure_capacity(&mut self, slots: u16) {
        if self.observed.len() != slots as usize {
            self.observed = vec![SlotStatus::Free; slots as usize];
        }
        if self.last_report.len() != slots as usize {
            self.last_report = vec![SlotStatus::Free; slots as usize];
        }
    }

    fn frame_boundary(&mut self, ctx: &mut MacContext<'_>) {
        // Decide based on what was observed during the previous frame.
        let needs_new_slot = self.claimed_slot.is_none()
            || self.conflict
            || self.claimed_slot.map(|s| s >= ctx.slots_per_frame).unwrap_or(false);
        if needs_new_slot {
            // Pick uniformly among the slots observed free (other than the
            // current claim), or among all slots when none is.
            let (observed, claimed) = (&self.observed, self.claimed_slot);
            let is_free = |s: &u16| {
                matches!(observed.get(*s as usize), Some(SlotStatus::Free) | None)
                    && Some(*s) != claimed
            };
            let free = (0..ctx.slots_per_frame).filter(is_free).count();
            let pick = if free == 0 {
                ctx.rng.range_usize(0, ctx.slots_per_frame as usize - 1) as u16
            } else {
                let k = ctx.rng.range_usize(0, free - 1);
                (0..ctx.slots_per_frame).filter(is_free).nth(k).expect("k < free")
            };
            if self.claimed_slot.is_some() {
                self.reselections += 1;
            }
            self.claimed_slot = Some(pick);
            self.stable_frames = 0;
        } else {
            self.stable_frames += 1;
        }
        self.conflict = false;
        // This frame's observations become the report; start a clean frame
        // in the previous report's buffer.
        std::mem::swap(&mut self.last_report, &mut self.observed);
        self.observed.clear();
        self.observed.resize(ctx.slots_per_frame as usize, SlotStatus::Free);
    }
}

impl MacProtocol for SelfStabTdmaMac {
    fn name(&self) -> &'static str {
        "selfstab-tdma"
    }

    fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
        self.ensure_capacity(ctx.slots_per_frame);
        if ctx.slot_in_frame == 0 {
            self.frame_boundary(ctx);
            // Occasionally spend the whole frame listening in the own slot so
            // that concurrent claimants of the same slot can be detected.
            self.listening_this_frame = ctx.rng.chance(self.listen_probability);
        }
        if Some(ctx.slot_in_frame) == self.claimed_slot && !self.listening_this_frame {
            let payload = encode_beacon(self.claimed_slot, &self.last_report);
            Some(Frame {
                src: ctx.node,
                dst: Destination::Broadcast,
                seq: ctx.slot,
                created: ctx.now,
                port: ports::BEACON,
                payload,
            })
        } else {
            None
        }
    }

    fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
        if frame.port != ports::BEACON {
            return;
        }
        self.ensure_capacity(ctx.slots_per_frame);
        // Record the occupancy of the slot in which the frame was heard.
        if let Some(entry) = self.observed.get_mut(ctx.slot_in_frame as usize) {
            *entry = SlotStatus::Owned(frame.src.0);
        }
        let Some(beacon) = Beacon::parse(&frame.payload) else {
            return;
        };
        let Some(my_slot) = self.claimed_slot else {
            return;
        };
        // Somebody transmitted in my slot while I was listening.
        if ctx.slot_in_frame == my_slot && frame.src != ctx.node {
            self.conflict = true;
        }
        // Another node claims my slot.
        if beacon.claimed == Some(my_slot) && frame.src != ctx.node {
            self.conflict = true;
        }
        // A neighbour observed my slot colliding, or owned by someone else.
        match beacon.entry(my_slot) {
            Some(SlotStatus::Collision) => self.conflict = true,
            Some(SlotStatus::Owned(owner)) if owner != ctx.node.0 => self.conflict = true,
            _ => {}
        }
    }

    fn on_slot_end(&mut self, observation: SlotObservation, ctx: &mut MacContext<'_>) {
        self.ensure_capacity(ctx.slots_per_frame);
        if observation == SlotObservation::HeardCollision {
            if let Some(entry) = self.observed.get_mut(ctx.slot_in_frame as usize) {
                *entry = SlotStatus::Collision;
            }
            // A collision heard in the own slot while listening means other
            // nodes are using it.
            if Some(ctx.slot_in_frame) == self.claimed_slot {
                self.conflict = true;
            }
        }
    }
}

/// Checks whether the slot allocation of a set of nodes is collision-free:
/// no two nodes that are in range of each other (or share a common neighbour,
/// i.e. hidden terminals) claim the same slot.
pub fn allocation_is_collision_free(
    claims: &[(NodeId, Option<u16>)],
    in_range: impl Fn(NodeId, NodeId) -> bool,
) -> bool {
    if claims.iter().any(|(_, slot)| slot.is_none()) {
        return false;
    }
    for (i, (a, slot_a)) in claims.iter().enumerate() {
        for (b, slot_b) in claims.iter().skip(i + 1) {
            if slot_a == slot_b {
                let direct = in_range(*a, *b);
                let common_neighbor = claims
                    .iter()
                    .any(|(c, _)| *c != *a && *c != *b && in_range(*a, *c) && in_range(*b, *c));
                if direct || common_neighbor {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacSimConfig, MacSimulation};
    use crate::medium::{MediumConfig, WirelessMedium};
    use karyon_sim::{SimDuration, Vec2};

    fn build_sim(
        nodes: u32,
        slots: u16,
        seed: u64,
        corrupt: bool,
    ) -> MacSimulation<SelfStabTdmaMac> {
        let medium = WirelessMedium::new(MediumConfig {
            range: 1_000.0,
            loss_probability: 0.0,
            channels: 1,
        });
        let mut sim = MacSimulation::new(
            medium,
            MacSimConfig { slot_duration: SimDuration::from_millis(1), slots_per_frame: slots },
            seed,
        );
        for i in 0..nodes {
            let mac = if corrupt {
                // Adversarial start: everyone claims slot 0.
                SelfStabTdmaMac::with_initial_claim(0)
            } else {
                SelfStabTdmaMac::new()
            };
            sim.add_node(NodeId(i), mac, Vec2::new(i as f64 * 10.0, 0.0));
        }
        sim
    }

    fn converged(sim: &MacSimulation<SelfStabTdmaMac>) -> bool {
        let claims: Vec<(NodeId, Option<u16>)> =
            sim.node_ids().iter().map(|id| (*id, sim.mac(*id).unwrap().claimed_slot())).collect();
        allocation_is_collision_free(&claims, |a, b| sim.medium().in_range(a, b))
    }

    #[test]
    fn beacon_round_trip() {
        let report =
            vec![SlotStatus::Free, SlotStatus::Owned(7), SlotStatus::Collision, SlotStatus::Free];
        let bytes = encode_beacon(Some(2), &report);
        let beacon = Beacon::parse(&bytes).unwrap();
        assert_eq!(beacon.claimed, Some(2));
        let decoded: Vec<SlotStatus> = (0..4).map(|s| beacon.entry(s).unwrap()).collect();
        assert_eq!(decoded, report);
        assert_eq!(beacon.entry(4), None, "the report covers four slots");
        let bytes_none = encode_beacon(None, &report);
        assert_eq!(Beacon::parse(&bytes_none).unwrap().claimed, None);
        assert!(Beacon::parse(&[1, 2, 3]).is_none());
        assert!(Beacon::parse(&[]).is_none());
        assert!(Beacon::parse(&bytes[..bytes.len() - 1]).is_none(), "truncated report");
    }

    #[test]
    fn converges_from_empty_claims() {
        let mut sim = build_sim(8, 16, 1, false);
        sim.run_slots(16 * 40);
        assert!(converged(&sim), "allocation did not converge");
        // After convergence the last frames are collision-free.
        let before = sim.metrics().collisions;
        sim.run_slots(16 * 10);
        assert_eq!(sim.metrics().collisions, before, "post-convergence collisions");
    }

    #[test]
    fn converges_from_adversarial_claims() {
        let mut sim = build_sim(8, 16, 2, true);
        sim.run_slots(16 * 60);
        assert!(converged(&sim), "allocation did not stabilize from corrupted state");
        let reselections: u64 =
            sim.node_ids().iter().map(|id| sim.mac(*id).unwrap().reselections()).sum();
        assert!(reselections > 0, "stabilization requires at least some reselections");
    }

    #[test]
    fn tolerates_churn() {
        let mut sim = build_sim(6, 16, 3, false);
        sim.run_slots(16 * 30);
        assert!(converged(&sim));
        // A new node joins and must obtain a conflict-free slot.
        sim.add_node(NodeId(100), SelfStabTdmaMac::new(), Vec2::new(25.0, 0.0));
        sim.run_slots(16 * 40);
        assert!(converged(&sim), "allocation did not re-converge after join");
        assert!(sim.mac(NodeId(100)).unwrap().claimed_slot().is_some());
    }

    #[test]
    fn stable_frames_grow_after_convergence() {
        let mut sim = build_sim(4, 8, 4, false);
        sim.run_slots(8 * 50);
        for id in sim.node_ids() {
            assert!(sim.mac(id).unwrap().stable_frames() >= 5, "node {id} never became stable");
        }
    }

    #[test]
    fn allocation_checker_detects_conflicts() {
        let claims = vec![(NodeId(1), Some(3)), (NodeId(2), Some(3)), (NodeId(3), Some(5))];
        assert!(!allocation_is_collision_free(&claims, |_, _| true));
        let ok = vec![(NodeId(1), Some(3)), (NodeId(2), Some(4))];
        assert!(allocation_is_collision_free(&ok, |_, _| true));
        let unclaimed = vec![(NodeId(1), None)];
        assert!(!allocation_is_collision_free(&unclaimed, |_, _| true));
        // Same slot but neither in range nor sharing a neighbour: acceptable (spatial reuse).
        let reuse = vec![(NodeId(1), Some(3)), (NodeId(2), Some(3))];
        assert!(allocation_is_collision_free(&reuse, |_, _| false));
    }
}
