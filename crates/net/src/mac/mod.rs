//! Medium-access control: the protocol abstraction, the slot-synchronous
//! simulation driver and the concrete MAC protocols used in the experiments.
//!
//! * [`csma`] — a p-persistent CSMA baseline (802.11p-like contention),
//! * [`tdma_fixed`] — statically assigned TDMA (requires an external common
//!   time source such as GPS, the baseline the self-stabilizing algorithms
//!   remove),
//! * [`selfstab_tdma`] — self-stabilizing TDMA slot allocation without any
//!   external time source (paper §V-A2).

pub mod csma;
pub mod selfstab_tdma;
pub mod tdma_fixed;

use std::collections::VecDeque;

use karyon_sim::{Histogram, Rng, SimDuration, SimTime, Vec2};

use crate::medium::WirelessMedium;
use crate::packet::{ports, Frame, NodeId};

/// Per-slot context handed to a MAC protocol instance.
#[derive(Debug)]
pub struct MacContext<'a> {
    /// This node's identifier.
    pub node: NodeId,
    /// Global slot index since simulation start.
    pub slot: u64,
    /// Slot index within the TDMA frame (`slot % slots_per_frame`).
    pub slot_in_frame: u16,
    /// Number of slots per TDMA frame.
    pub slots_per_frame: u16,
    /// Current simulation time (start of the slot).
    pub now: SimTime,
    /// Carrier-sense result on the node's current channel: `true` when an
    /// external disturbance is jamming it.
    pub channel_disturbed: bool,
    /// The node's current radio channel (the MAC may retune it).
    pub channel: &'a mut u8,
    /// Outgoing application frames (front = oldest).
    pub queue: &'a mut VecDeque<Frame>,
    /// Frames delivered to the application this slot.
    pub delivered: &'a mut Vec<Frame>,
    /// The node's private random stream.
    pub rng: &'a mut Rng,
}

/// What a node observed at the end of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotObservation {
    /// The node transmitted and no in-range node transmitted concurrently.
    TransmittedClear,
    /// The node transmitted but an in-range node transmitted on the same
    /// channel (its frame was lost at common listeners).
    TransmittedCollided,
    /// The node listened and received a frame.
    ReceivedFrame,
    /// The node listened and heard a collision.
    HeardCollision,
    /// The node listened and the channel was jammed.
    Disturbed,
    /// The node listened and heard nothing.
    Idle,
}

/// A medium-access protocol instance (one per node).
pub trait MacProtocol {
    /// A short name for experiment tables.
    fn name(&self) -> &'static str;

    /// Called at the start of every slot; return a frame to transmit it.
    fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame>;

    /// Called when a frame is received in the current slot.
    ///
    /// The frame is borrowed from the slot's transmission: every listener
    /// that hears it sees the same frame, and a MAC clones only what it keeps
    /// (for instance into `ctx.delivered`).
    fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>);

    /// Called at the end of every slot with the node's observation.
    fn on_slot_end(&mut self, observation: SlotObservation, ctx: &mut MacContext<'_>) {
        let _ = (observation, ctx);
    }

    /// True when, for as long as the node's queue stays empty and its
    /// channel undisturbed, a slot changes none of this MAC's state and draws
    /// no randomness: `on_slot` returns `None` and, like `on_slot_end` with
    /// [`SlotObservation::Idle`], leaves the MAC and the context untouched,
    /// whatever the slot index.
    ///
    /// [`MacSimulation::run_slots`] skips slots in which every node is
    /// quiescent, has an empty queue and listens on an undisturbed channel;
    /// an over-eager `true` therefore changes results.  The default, `false`,
    /// never allows a skip.
    fn is_quiescent(&self) -> bool {
        false
    }
}

/// Default behaviour shared by the concrete MACs: application data frames are
/// handed up (cloned), everything else is ignored.
pub(crate) fn deliver_if_data(frame: &Frame, ctx: &mut MacContext<'_>) {
    if frame.port == ports::DATA && frame.dst.accepts(ctx.node) {
        ctx.delivered.push(frame.clone());
    }
}

/// Configuration of the slot-synchronous MAC simulation.
#[derive(Debug, Clone)]
pub struct MacSimConfig {
    /// Duration of one slot.
    pub slot_duration: SimDuration,
    /// Number of slots per TDMA frame.
    pub slots_per_frame: u16,
}

impl Default for MacSimConfig {
    fn default() -> Self {
        MacSimConfig { slot_duration: SimDuration::from_millis(1), slots_per_frame: 16 }
    }
}

/// Aggregate metrics of a MAC simulation run.
#[derive(Debug, Default)]
pub struct MacMetrics {
    /// Application frames enqueued.
    pub generated: u64,
    /// Application frames delivered (per receiving node).
    pub delivered: u64,
    /// Transmissions that collided with another in-range transmission.
    pub collisions: u64,
    /// Transmission attempts.
    pub transmissions: u64,
    /// Listener-slots spent jammed by disturbances.
    pub disturbed_slots: u64,
    /// Delivery delays in milliseconds.
    pub delays_ms: Histogram,
}

impl MacMetrics {
    /// Delivery ratio = delivered / (generated × potential receivers is not
    /// known here), reported as delivered per generated frame.
    pub fn delivery_per_generated(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Fraction of transmission attempts that collided.
    pub fn collision_rate(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.collisions as f64 / self.transmissions as f64
        }
    }
}

struct NodeState<M> {
    id: NodeId,
    mac: M,
    channel: u8,
    queue: VecDeque<Frame>,
    delivered: Vec<Frame>,
    rng: Rng,
    seq: u64,
}

/// A frame on the air this slot.
struct OnAir {
    /// Index of the transmitting node in `MacSimulation::nodes`.
    node: usize,
    channel: u8,
    frame: Frame,
}

/// Buffers [`MacSimulation::step`] reuses from slot to slot, indexed by node
/// position in `MacSimulation::nodes`.
#[derive(Default)]
struct SlotScratch {
    /// The medium topology epoch `reach` was built for; `None` after a node
    /// was added or removed.
    reach_epoch: Option<u64>,
    /// `reach[i * n + j]`: nodes `i` and `j` are within radio range.
    reach: Vec<bool>,
    /// `jammed[c]`: channel `c` is disturbed this slot.
    jammed: Vec<bool>,
    on_air: Vec<OnAir>,
    transmitting: Vec<bool>,
    collided: Vec<bool>,
}

/// Slot-synchronous simulation of a set of nodes running the same MAC
/// protocol over a shared [`WirelessMedium`].
pub struct MacSimulation<M: MacProtocol> {
    medium: WirelessMedium,
    nodes: Vec<NodeState<M>>,
    config: MacSimConfig,
    slot: u64,
    now: SimTime,
    metrics: MacMetrics,
    rng: Rng,
    scratch: SlotScratch,
}

impl<M: MacProtocol> MacSimulation<M> {
    /// Creates a simulation over the given medium.
    pub fn new(medium: WirelessMedium, config: MacSimConfig, seed: u64) -> Self {
        MacSimulation {
            medium,
            nodes: Vec::new(),
            config,
            slot: 0,
            now: SimTime::ZERO,
            metrics: MacMetrics::default(),
            rng: Rng::seed_from(seed),
            scratch: SlotScratch::default(),
        }
    }

    /// Adds a node running `mac` at `position`.
    pub fn add_node(&mut self, id: NodeId, mac: M, position: Vec2) {
        self.medium.set_position(id, position);
        let rng = self.rng.fork(id.0 as u64 + 1);
        self.nodes.push(NodeState {
            id,
            mac,
            channel: 0,
            queue: VecDeque::new(),
            delivered: Vec::new(),
            rng,
            seq: 0,
        });
        self.scratch.reach_epoch = None;
    }

    /// Removes a node (simulating churn); returns true if it existed.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        self.medium.remove_node(id);
        let before = self.nodes.len();
        self.nodes.retain(|n| n.id != id);
        self.scratch.reach_epoch = None;
        before != self.nodes.len()
    }

    /// Moves a node.
    pub fn set_position(&mut self, id: NodeId, position: Vec2) {
        self.medium.set_position(id, position);
    }

    /// The shared medium (e.g. to add disturbances).
    pub fn medium_mut(&mut self) -> &mut WirelessMedium {
        &mut self.medium
    }

    /// Shared access to the medium.
    pub fn medium(&self) -> &WirelessMedium {
        &self.medium
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current global slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Duration of one slot, as configured.
    pub fn slot_duration(&self) -> SimDuration {
        self.config.slot_duration
    }

    /// Node identifiers currently in the simulation.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Every node's identifier and MAC instance, in insertion order.
    pub fn macs(&self) -> impl Iterator<Item = (NodeId, &M)> + '_ {
        self.nodes.iter().map(|n| (n.id, &n.mac))
    }

    /// Access to a node's MAC instance.
    pub fn mac(&self, id: NodeId) -> Option<&M> {
        self.nodes.iter().find(|n| n.id == id).map(|n| &n.mac)
    }

    /// The node's current radio channel.
    pub fn node_channel(&self, id: NodeId) -> Option<u8> {
        self.nodes.iter().find(|n| n.id == id).map(|n| n.channel)
    }

    /// The node's queued outgoing frames (front = oldest).
    pub fn queue(&self, id: NodeId) -> Option<&VecDeque<Frame>> {
        self.nodes.iter().find(|n| n.id == id).map(|n| &n.queue)
    }

    /// Enqueues an application broadcast frame at `node` with the given payload.
    pub fn send_broadcast(&mut self, node: NodeId, payload: Vec<u8>) {
        let now = self.now;
        if let Some(n) = self.nodes.iter_mut().find(|n| n.id == node) {
            let frame = Frame::broadcast(node, n.seq, now, payload);
            n.seq += 1;
            n.queue.push_back(frame);
            self.metrics.generated += 1;
        }
    }

    /// Enqueues an application unicast frame.
    pub fn send_unicast(&mut self, src: NodeId, dst: NodeId, payload: Vec<u8>) {
        let now = self.now;
        if let Some(n) = self.nodes.iter_mut().find(|n| n.id == src) {
            let frame = Frame::unicast(src, dst, n.seq, now, payload);
            n.seq += 1;
            n.queue.push_back(frame);
            self.metrics.generated += 1;
        }
    }

    /// Takes the frames delivered to `node` since the last call.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Frame> {
        self.nodes
            .iter_mut()
            .find(|n| n.id == node)
            .map(|n| std::mem::take(&mut n.delivered))
            .unwrap_or_default()
    }

    /// Aggregate metrics so far.
    pub fn metrics(&self) -> &MacMetrics {
        &self.metrics
    }

    /// Rebuilds the reach matrix if a node was added, removed or moved since
    /// it was built.
    fn refresh_reach(&mut self) {
        let epoch = self.medium.topology_epoch();
        if self.scratch.reach_epoch == Some(epoch) {
            return;
        }
        let reach = &mut self.scratch.reach;
        reach.clear();
        for a in &self.nodes {
            reach.extend(self.nodes.iter().map(|b| self.medium.in_range(a.id, b.id)));
        }
        self.scratch.reach_epoch = Some(epoch);
    }

    /// Runs one slot.
    ///
    /// 1. Every node's MAC decides, in node order, whether to transmit
    ///    (`on_slot`), seeing whether its current channel is jammed.
    /// 2. Transmitters that share a channel with an in-range transmitter are
    ///    marked collided.
    /// 3. Every node, in node order, observes the slot on its (possibly
    ///    retuned) channel, and its MAC handles a received frame
    ///    (`on_receive`) and the observation (`on_slot_end`).  Frames the MAC
    ///    hands up are counted as delivered.
    ///
    /// The reception rule: a transmitting node hears nothing (half-duplex);
    /// a listener on a jammed channel observes `Disturbed`; with no audible
    /// transmission (same channel, in range) `Idle`; with exactly one it
    /// receives the frame unless the residual-loss draw drops it (`Idle`);
    /// with two or more a collision.
    pub fn step(&mut self) {
        self.refresh_reach();
        let slot_in_frame = (self.slot % self.config.slots_per_frame as u64) as u16;
        let now = self.now;
        let n = self.nodes.len();
        let MacSimulation { medium, nodes, config, slot, metrics, rng, scratch, .. } = self;
        let SlotScratch { reach, jammed, on_air, transmitting, collided, .. } = scratch;

        jammed.clear();
        jammed.extend((0..medium.config().channels).map(|c| medium.is_disturbed(c, now)));
        // A MAC may tune to a channel the medium does not model; ask directly.
        let is_jammed =
            |c: u8| jammed.get(c as usize).copied().unwrap_or_else(|| medium.is_disturbed(c, now));

        // Phase 1: every node decides whether to transmit.
        transmitting.clear();
        transmitting.resize(n, false);
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut ctx = MacContext {
                node: node.id,
                slot: *slot,
                slot_in_frame,
                slots_per_frame: config.slots_per_frame,
                now,
                channel_disturbed: is_jammed(node.channel),
                channel: &mut node.channel,
                queue: &mut node.queue,
                delivered: &mut node.delivered,
                rng: &mut node.rng,
            };
            if let Some(frame) = node.mac.on_slot(&mut ctx) {
                on_air.push(OnAir { node: i, channel: *ctx.channel, frame });
                transmitting[i] = true;
                metrics.transmissions += 1;
            }
        }

        // Phase 2: a transmitter collides when an in-range node transmitted
        // on the same channel (its frame is lost at common listeners).
        collided.clear();
        collided.resize(n, false);
        for (k, a) in on_air.iter().enumerate() {
            for b in &on_air[k + 1..] {
                if a.channel == b.channel && reach[a.node * n + b.node] {
                    collided[a.node] = true;
                    collided[b.node] = true;
                }
            }
        }

        // Phase 3: the reception rule, per node on its own channel.
        let loss = medium.config().loss_probability;
        for (i, node) in nodes.iter_mut().enumerate() {
            let channel_disturbed = is_jammed(node.channel);
            let mut heard = None;
            let observation = if transmitting[i] {
                // Half-duplex: a transmitting node hears nothing.
                if collided[i] {
                    SlotObservation::TransmittedCollided
                } else {
                    SlotObservation::TransmittedClear
                }
            } else if channel_disturbed {
                metrics.disturbed_slots += 1;
                SlotObservation::Disturbed
            } else {
                let reaches = &reach[i * n..(i + 1) * n];
                let mut audible =
                    on_air.iter().filter(|tx| tx.channel == node.channel && reaches[tx.node]);
                match (audible.next(), audible.next()) {
                    (None, _) => SlotObservation::Idle,
                    (Some(tx), None) => {
                        if rng.chance(loss) {
                            SlotObservation::Idle
                        } else {
                            heard = Some(&tx.frame);
                            SlotObservation::ReceivedFrame
                        }
                    }
                    (Some(_), Some(_)) => SlotObservation::HeardCollision,
                }
            };

            let delivered_before = node.delivered.len();
            let mut ctx = MacContext {
                node: node.id,
                slot: *slot,
                slot_in_frame,
                slots_per_frame: config.slots_per_frame,
                now,
                channel_disturbed,
                channel: &mut node.channel,
                queue: &mut node.queue,
                delivered: &mut node.delivered,
                rng: &mut node.rng,
            };
            if let Some(frame) = heard {
                node.mac.on_receive(frame, &mut ctx);
            }
            node.mac.on_slot_end(observation, &mut ctx);

            // Account for frames the MAC handed to the application this slot.
            for frame in &node.delivered[delivered_before..] {
                metrics.delivered += 1;
                metrics.delays_ms.record(frame.delay_at(now).as_secs_f64() * 1e3);
            }
        }

        metrics.collisions += collided.iter().filter(|c| **c).count() as u64;
        on_air.clear();

        *slot += 1;
        self.now += self.config.slot_duration;
    }

    /// How many of the next `limit` slots are idle: every node has an empty
    /// queue, a [quiescent](MacProtocol::is_quiescent) MAC and an undisturbed
    /// channel.  Nothing changes in such a slot, so the condition holds until
    /// the next disturbance that starts on some node's channel.
    fn idle_slots(&self, limit: u64) -> u64 {
        let now = self.now;
        let mut next_burst: Option<SimTime> = None;
        for node in &self.nodes {
            if !node.queue.is_empty()
                || !node.mac.is_quiescent()
                || self.medium.is_disturbed(node.channel, now)
            {
                return 0;
            }
            if let Some(start) = self.medium.next_disturbance_start(node.channel, now) {
                next_burst = Some(next_burst.map_or(start, |t| t.min(start)));
            }
        }
        let slot_us = self.config.slot_duration.as_micros();
        match next_burst {
            // The slots at now + k·slot with k·slot < start − now are idle.
            Some(start) if slot_us > 0 => limit.min(start.since(now).as_micros().div_ceil(slot_us)),
            _ => limit,
        }
    }

    /// Runs `n` consecutive slots.
    ///
    /// Stretches of idle slots (see [`MacProtocol::is_quiescent`]) are jumped
    /// over in one step, up to the next disturbance start or the end of the
    /// window: they would draw no randomness and change no state, so the
    /// result is identical to `n` calls to [`step`](Self::step).
    pub fn run_slots(&mut self, n: u64) {
        let end = self.slot + n;
        while self.slot < end {
            let idle = self.idle_slots(end - self.slot);
            if idle == 0 {
                self.step();
            } else {
                self.slot += idle;
                self.now += self.config.slot_duration.saturating_mul(idle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MediumConfig;

    /// A trivially simple MAC used to exercise the driver: transmit the head
    /// of the queue whenever the slot index matches the node id.
    struct RoundRobinMac;

    impl MacProtocol for RoundRobinMac {
        fn name(&self) -> &'static str {
            "round-robin"
        }
        fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
            if ctx.slot_in_frame as u32 == ctx.node.0 {
                ctx.queue.pop_front()
            } else {
                None
            }
        }
        fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
            deliver_if_data(frame, ctx);
        }
    }

    /// A MAC that always transmits when it has something queued.
    struct GreedyMac;

    impl MacProtocol for GreedyMac {
        fn name(&self) -> &'static str {
            "greedy"
        }
        fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
            ctx.queue.pop_front()
        }
        fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
            deliver_if_data(frame, ctx);
        }
    }

    fn greedy_sim(config: MediumConfig, positions: &[f64]) -> MacSimulation<GreedyMac> {
        let mut s = MacSimulation::new(WirelessMedium::new(config), MacSimConfig::default(), 7);
        for (i, x) in positions.iter().enumerate() {
            s.add_node(NodeId(i as u32), GreedyMac, Vec2::new(*x, 0.0));
        }
        s
    }

    fn sim(nodes: u32) -> MacSimulation<RoundRobinMac> {
        let medium = WirelessMedium::new(MediumConfig {
            range: 1_000.0,
            loss_probability: 0.0,
            channels: 2,
        });
        let mut s = MacSimulation::new(medium, MacSimConfig::default(), 42);
        for i in 0..nodes {
            s.add_node(NodeId(i), RoundRobinMac, Vec2::new(i as f64 * 10.0, 0.0));
        }
        s
    }

    #[test]
    fn frames_are_delivered_without_collisions() {
        let mut s = sim(4);
        s.send_broadcast(NodeId(0), vec![1]);
        s.send_broadcast(NodeId(1), vec![2]);
        s.run_slots(16);
        // Each broadcast reaches the 3 other nodes.
        assert_eq!(s.metrics().delivered, 6);
        assert_eq!(s.metrics().collisions, 0);
        assert_eq!(s.metrics().generated, 2);
        assert!(s.metrics().delivery_per_generated() > 2.9);
        let got = s.take_delivered(NodeId(2));
        assert_eq!(got.len(), 2);
        assert!(s.take_delivered(NodeId(2)).is_empty(), "delivered frames are drained");
    }

    #[test]
    fn unicast_only_reaches_target() {
        let mut s = sim(3);
        s.send_unicast(NodeId(0), NodeId(2), vec![9]);
        s.run_slots(16);
        assert!(s.take_delivered(NodeId(1)).is_empty());
        assert_eq!(s.take_delivered(NodeId(2)).len(), 1);
        assert_eq!(s.metrics().delivered, 1);
    }

    #[test]
    fn simultaneous_transmissions_collide() {
        let config = MediumConfig { range: 1_000.0, loss_probability: 0.0, channels: 1 };
        let mut s = greedy_sim(config, &[0.0, 1.0, 2.0]);
        s.send_broadcast(NodeId(0), vec![0]);
        s.send_broadcast(NodeId(1), vec![1]);
        s.run_slots(1);
        assert_eq!(s.metrics().collisions, 2);
        // Node 2 hears a collision; the two transmitters, half-duplex, hear
        // nothing (not even each other's single frame).
        assert_eq!(s.metrics().delivered, 0);
        assert!((s.metrics().collision_rate() - 1.0).abs() < 1e-9);
    }

    /// A greedy MAC that transmits on channel `node_id % 2`.
    struct SplitChannelMac;

    impl MacProtocol for SplitChannelMac {
        fn name(&self) -> &'static str {
            "split"
        }
        fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
            *ctx.channel = (ctx.node.0 % 2) as u8;
            ctx.queue.pop_front()
        }
        fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
            deliver_if_data(frame, ctx);
        }
    }

    #[test]
    fn listeners_hear_only_in_range_frames_on_their_channel() {
        let medium =
            WirelessMedium::new(MediumConfig { range: 100.0, loss_probability: 0.0, channels: 2 });
        let mut s = MacSimulation::new(medium, MacSimConfig::default(), 3);
        // 0 and 1 transmit together on channels 0 and 1: no collision.  2 and
        // 3 listen on channels 0 and 1; 4 listens on channel 0 out of range.
        for (id, x) in [(0, 0.0), (1, 10.0), (2, 20.0), (3, 30.0), (4, 500.0)] {
            s.add_node(NodeId(id), SplitChannelMac, Vec2::new(x, 0.0));
        }
        s.send_broadcast(NodeId(0), vec![0]);
        s.send_broadcast(NodeId(1), vec![1]);
        s.run_slots(1);
        assert_eq!(s.metrics().collisions, 0, "different channels do not collide");
        let heard = |s: &mut MacSimulation<SplitChannelMac>, id| -> Vec<u32> {
            s.take_delivered(NodeId(id)).iter().map(|f| f.src.0).collect()
        };
        assert_eq!(heard(&mut s, 2), vec![0], "channel 0 carries node 0's frame only");
        assert_eq!(heard(&mut s, 3), vec![1], "channel 1 carries node 1's frame only");
        assert!(heard(&mut s, 4).is_empty(), "out of range");
        // Moving node 4 into range makes it hear the next frame.
        s.set_position(NodeId(4), Vec2::new(40.0, 0.0));
        s.send_broadcast(NodeId(2), vec![2]);
        s.run_slots(1);
        assert_eq!(heard(&mut s, 4), vec![2]);
    }

    #[test]
    fn residual_loss_drops_about_the_configured_share() {
        let config = MediumConfig { range: 1_000.0, loss_probability: 0.5, channels: 1 };
        let mut s = greedy_sim(config, &[0.0, 50.0]);
        for _ in 0..2_000 {
            s.send_broadcast(NodeId(0), vec![1]);
            s.run_slots(1);
        }
        let lost = 2_000 - s.metrics().delivered;
        assert!((800..1_200).contains(&lost), "lost {lost}");
    }

    #[test]
    fn disturbed_slots_are_counted() {
        let mut s = sim(2);
        s.medium_mut().add_disturbance(crate::medium::Disturbance {
            channel: Some(0),
            start: SimTime::ZERO,
            end: SimTime::from_millis(8),
        });
        s.send_broadcast(NodeId(0), vec![1]);
        s.run_slots(16);
        assert!(s.metrics().disturbed_slots > 0);
        // The single transmission (slot 0, while jammed) is lost.
        assert_eq!(s.metrics().delivered, 0);
    }

    #[test]
    fn node_management() {
        let mut s = sim(3);
        assert_eq!(s.node_ids().len(), 3);
        assert!(s.remove_node(NodeId(1)));
        assert!(!s.remove_node(NodeId(1)));
        assert_eq!(s.node_ids().len(), 2);
        assert_eq!(s.node_channel(NodeId(0)), Some(0));
        assert!(s.mac(NodeId(0)).is_some());
        assert!(s.mac(NodeId(9)).is_none());
        s.set_position(NodeId(0), Vec2::new(5.0, 5.0));
        assert_eq!(s.medium().position(NodeId(0)), Some(Vec2::new(5.0, 5.0)));
    }

    #[test]
    fn metrics_defaults() {
        let m = MacMetrics::default();
        assert_eq!(m.delivery_per_generated(), 0.0);
        assert_eq!(m.collision_rate(), 0.0);
    }
}
