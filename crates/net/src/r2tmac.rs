//! R2T-MAC: the extensible component architecture surrounding a standard MAC
//! (paper §V-A1, Fig. 4).
//!
//! The architecture adds two layers around an unmodified ("COTS") MAC:
//!
//! * the **Mediator Layer (MLA)** — error isolation between the MAC and the
//!   higher layers: reliable/real-time frame transmission (temporal
//!   redundancy with duplicate suppression), node failure detection and
//!   membership (heartbeats), and control of temporary network partitions
//!   (inaccessibility detection and bounding);
//! * the **Channel Control Layer** — monitors the channel state and exploits
//!   radio-channel diversity, retuning the node away from a disturbed
//!   channel after a bounded number of jammed slots.
//!
//! Because the wrapper works purely through the [`MacProtocol`] interface it
//! "can be incorporated in COTS components without fundamental modifications
//! in the standard MAC level protocol".

use std::collections::BTreeMap;

use karyon_sim::{SimDuration, SimTime};

use crate::inaccessibility::InaccessibilityTracker;
use crate::mac::{MacContext, MacProtocol, SlotObservation};
use crate::packet::{ports, Destination, Frame, NodeId};

/// Configuration of the R2T-MAC layers.
#[derive(Debug, Clone)]
pub struct R2TMacConfig {
    /// Number of copies of every application frame transmitted (≥ 1);
    /// duplicates are suppressed at the receiver.
    pub copies: u32,
    /// Heartbeat period in slots (0 disables heartbeats / membership).
    pub heartbeat_period: u64,
    /// A neighbour not heard for this many slots is considered failed.
    pub neighbor_timeout: u64,
    /// Consecutive jammed slots after which the Channel Control Layer
    /// switches to the next radio channel (0 disables switching).
    pub channel_switch_threshold: u32,
    /// Number of radio channels available for diversity.
    pub channels: u8,
}

impl Default for R2TMacConfig {
    fn default() -> Self {
        R2TMacConfig {
            copies: 2,
            heartbeat_period: 50,
            neighbor_timeout: 200,
            channel_switch_threshold: 10,
            channels: 2,
        }
    }
}

const HEARTBEAT_MAGIC: u8 = 0x48;

fn is_heartbeat(frame: &Frame) -> bool {
    frame.port == ports::BEACON && frame.payload.first() == Some(&HEARTBEAT_MAGIC)
}

/// How many `(src, seq)` keys each Mediator Layer record remembers.
const KEY_WINDOW: usize = 2_048;

/// A free slot of [`KeyWindow::index`].
const EMPTY: u16 = u16::MAX;

/// The most recent [`KEY_WINDOW`] distinct `(src, seq)` keys, evicted
/// first in, first out, with O(1) membership.
///
/// Each key is stored once, in a ring (`srcs`/`seqs`, filled in order and
/// then overwritten from `oldest` on).  `index` is an open-addressing table
/// of `u16` ring positions with linear probing, kept at most half full, so a
/// full window costs 12 bytes per key plus 4 bytes of index.
#[derive(Debug, Clone, Default)]
struct KeyWindow {
    srcs: Vec<u32>,
    seqs: Vec<u64>,
    /// The ring position the next key overwrites once the ring is full.
    oldest: usize,
    /// Empty, or a power of two at least twice the ring length.
    index: Vec<u16>,
}

impl KeyWindow {
    fn home(&self, src: u32, seq: u64) -> usize {
        let h = (seq ^ u64::from(src).rotate_left(40)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// `Ok(slot)` where `index` holds the key, or `Err(slot)`, the free slot
    /// that ends its probe sequence.
    fn probe(&self, src: u32, seq: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(src, seq);
        loop {
            match self.index[slot] {
                EMPTY => return Err(slot),
                pos if self.srcs[pos as usize] == src && self.seqs[pos as usize] == seq => {
                    return Ok(slot)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn rebuild(&mut self, slots: usize) {
        self.index.clear();
        self.index.resize(slots, EMPTY);
        for pos in 0..self.srcs.len() {
            let Err(slot) = self.probe(self.srcs[pos], self.seqs[pos]) else {
                unreachable!("ring keys are distinct")
            };
            self.index[slot] = pos as u16;
        }
    }

    /// Frees `hole` by backward-shift deletion, keeping every remaining key
    /// reachable from its home slot.
    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let pos = self.index[next];
            if pos == EMPTY {
                break;
            }
            let home = self.home(self.srcs[pos as usize], self.seqs[pos as usize]);
            // The key may fill the hole unless its home lies in (hole, next].
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = pos;
                hole = next;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Remembers the key unless it is already in the window; returns whether
    /// it was new.  A new key evicts the oldest one from a full window.
    fn insert(&mut self, src: u32, seq: u64) -> bool {
        if self.index.is_empty() {
            self.rebuild(8);
        }
        let Err(free) = self.probe(src, seq) else {
            return false;
        };
        if self.srcs.len() < KEY_WINDOW {
            self.srcs.push(src);
            self.seqs.push(seq);
            if 2 * self.srcs.len() > self.index.len() {
                self.rebuild(2 * self.index.len());
            } else {
                self.index[free] = (self.srcs.len() - 1) as u16;
            }
        } else {
            let pos = self.oldest;
            let Ok(evicted) = self.probe(self.srcs[pos], self.seqs[pos]) else {
                unreachable!("every ring key is indexed")
            };
            self.remove_slot(evicted);
            self.srcs[pos] = src;
            self.seqs[pos] = seq;
            // The deletion may have shifted `free`; probe again.
            let Err(free) = self.probe(src, seq) else { unreachable!("the key is new") };
            self.index[free] = pos as u16;
            self.oldest = (pos + 1) % KEY_WINDOW;
        }
        true
    }
}

/// R2T-MAC wrapper around an inner MAC protocol.
#[derive(Debug)]
pub struct R2TMac<M> {
    inner: M,
    config: R2TMacConfig,
    consecutive_disturbed: u32,
    channel_switches: u64,
    inaccessibility: InaccessibilityTracker,
    /// Neighbour → slot index at which it was last heard, in id order.
    last_heard: BTreeMap<u32, u64>,
    /// Recently seen (src, seq) pairs for duplicate suppression.
    seen: KeyWindow,
    /// (src, seq) pairs already expanded into redundant copies.
    replicated: KeyWindow,
    duplicates_suppressed: u64,
}

impl<M: MacProtocol> R2TMac<M> {
    /// Wraps `inner` with the R2T-MAC mediator and channel-control layers.
    pub fn new(inner: M, config: R2TMacConfig) -> Self {
        R2TMac {
            inner,
            config,
            consecutive_disturbed: 0,
            channel_switches: 0,
            inaccessibility: InaccessibilityTracker::new(),
            last_heard: BTreeMap::new(),
            seen: KeyWindow::default(),
            replicated: KeyWindow::default(),
            duplicates_suppressed: 0,
        }
    }

    /// The wrapped MAC.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The inaccessibility periods observed by this node.
    pub fn inaccessibility(&self) -> &InaccessibilityTracker {
        &self.inaccessibility
    }

    /// Number of channel switches performed by the Channel Control Layer.
    pub fn channel_switches(&self) -> u64 {
        self.channel_switches
    }

    /// Number of duplicate frames suppressed by the Mediator Layer.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// The neighbours currently considered alive by the membership service.
    pub fn alive_neighbors(&self, current_slot: u64) -> Vec<NodeId> {
        self.last_heard
            .iter()
            .filter(|(_, last)| current_slot.saturating_sub(**last) <= self.config.neighbor_timeout)
            .map(|(id, _)| NodeId(*id))
            .collect()
    }

    /// Closes any open inaccessibility period (call at the end of a run).
    pub fn finish(&mut self, now: SimTime) {
        self.inaccessibility.finish(now);
    }

    /// The design-time bound on the duration of any inaccessibility period a
    /// node can experience before the channel-control layer reacts:
    /// `channel_switch_threshold × slot_duration` (plus one slot of latency).
    pub fn inaccessibility_bound(&self, slot_duration: SimDuration) -> SimDuration {
        slot_duration.saturating_mul(self.config.channel_switch_threshold as u64 + 1)
    }
}

impl<M: MacProtocol> MacProtocol for R2TMac<M> {
    fn name(&self) -> &'static str {
        "r2t-mac"
    }

    fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
        // --- Channel Control Layer ---------------------------------------
        if ctx.channel_disturbed {
            self.consecutive_disturbed += 1;
            if self.config.channel_switch_threshold > 0
                && self.config.channels > 1
                && self.consecutive_disturbed >= self.config.channel_switch_threshold
            {
                *ctx.channel = (*ctx.channel + 1) % self.config.channels;
                self.channel_switches += 1;
                self.consecutive_disturbed = 0;
            }
        } else {
            self.consecutive_disturbed = 0;
        }

        // --- Mediator Layer: inaccessibility accounting -------------------
        self.inaccessibility.observe(ctx.channel_disturbed, ctx.now);

        // --- Mediator Layer: temporal redundancy --------------------------
        // Copies go to the back of the queue; the frames queued before this
        // slot are the ones examined.
        if self.config.copies > 1 {
            for i in 0..ctx.queue.len() {
                let frame = &ctx.queue[i];
                if frame.port == ports::DATA && self.replicated.insert(frame.src.0, frame.seq) {
                    let frame = frame.clone();
                    for _ in 2..self.config.copies {
                        ctx.queue.push_back(frame.clone());
                    }
                    ctx.queue.push_back(frame);
                }
            }
        }

        // --- Mediator Layer: membership heartbeats ------------------------
        if self.config.heartbeat_period > 0 {
            let phase = ctx.node.0 as u64 % self.config.heartbeat_period;
            if ctx.slot % self.config.heartbeat_period == phase
                && !ctx.queue.iter().any(is_heartbeat)
            {
                ctx.queue.push_back(Frame {
                    src: ctx.node,
                    dst: Destination::Broadcast,
                    seq: u64::MAX - ctx.slot, // heartbeats use a disjoint sequence space
                    created: ctx.now,
                    port: ports::BEACON,
                    payload: vec![HEARTBEAT_MAGIC],
                });
            }
        }

        self.inner.on_slot(ctx)
    }

    fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
        // Membership: any frame from a neighbour refreshes its liveness.
        self.last_heard.insert(frame.src.0, ctx.slot);
        if is_heartbeat(frame) {
            return; // heartbeats carry no payload for the upper layers
        }
        // Duplicate suppression for the redundant copies.
        if frame.port == ports::DATA && !self.seen.insert(frame.src.0, frame.seq) {
            self.duplicates_suppressed += 1;
            return;
        }
        self.inner.on_receive(frame, ctx);
    }

    fn on_slot_end(&mut self, observation: SlotObservation, ctx: &mut MacContext<'_>) {
        self.inner.on_slot_end(observation, ctx);
    }

    /// Quiescent when the inner MAC is, no jammed-slot count or
    /// inaccessibility period is open (an undisturbed slot would reset or
    /// close them) and no heartbeat can fall due.
    fn is_quiescent(&self) -> bool {
        self.config.heartbeat_period == 0
            && self.consecutive_disturbed == 0
            && !self.inaccessibility.is_inaccessible()
            && self.inner.is_quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::csma::{CsmaConfig, CsmaMac};
    use crate::mac::{MacSimConfig, MacSimulation};
    use crate::medium::{Disturbance, MediumConfig, WirelessMedium};
    use karyon_sim::{SimTime, Vec2};

    type Wrapped = R2TMac<CsmaMac>;

    fn r2t(config: R2TMacConfig) -> Wrapped {
        R2TMac::new(CsmaMac::new(CsmaConfig::default()), config)
    }

    fn sim(nodes: u32, channels: u8, config: R2TMacConfig, seed: u64) -> MacSimulation<Wrapped> {
        let medium =
            WirelessMedium::new(MediumConfig { range: 1_000.0, loss_probability: 0.0, channels });
        let mut s = MacSimulation::new(medium, MacSimConfig::default(), seed);
        for i in 0..nodes {
            s.add_node(NodeId(i), r2t(config.clone()), Vec2::new(i as f64 * 5.0, 0.0));
        }
        s
    }

    #[test]
    fn duplicate_copies_are_suppressed_at_receivers() {
        let config = R2TMacConfig { copies: 3, heartbeat_period: 0, ..Default::default() };
        let mut s = sim(2, 1, config, 1);
        s.send_broadcast(NodeId(0), vec![5]);
        s.run_slots(100);
        // Exactly one delivery despite three transmitted copies.
        assert_eq!(s.metrics().delivered, 1);
        let receiver = s.mac(NodeId(1)).unwrap();
        assert!(receiver.duplicates_suppressed() >= 1);
    }

    #[test]
    fn channel_control_escapes_a_jammed_channel() {
        let config = R2TMacConfig {
            copies: 1,
            heartbeat_period: 0,
            channel_switch_threshold: 5,
            channels: 2,
            ..Default::default()
        };
        let mut s = sim(2, 2, config, 2);
        // Channel 0 jammed for 2 seconds — far longer than the switch threshold.
        s.medium_mut().add_disturbance(Disturbance {
            channel: Some(0),
            start: SimTime::ZERO,
            end: SimTime::from_secs(2),
        });
        s.send_broadcast(NodeId(0), vec![1]);
        s.run_slots(100);
        // Both nodes must have escaped to channel 1 and the frame delivered.
        assert_eq!(s.node_channel(NodeId(0)), Some(1));
        assert_eq!(s.node_channel(NodeId(1)), Some(1));
        assert_eq!(s.metrics().delivered, 1);
        assert!(s.mac(NodeId(0)).unwrap().channel_switches() >= 1);
        // The observed inaccessibility period is bounded by the switch threshold.
        let bound = s.mac(NodeId(0)).unwrap().inaccessibility_bound(SimDuration::from_millis(1));
        for id in s.node_ids() {
            let longest = s.mac(id).unwrap().inaccessibility().longest();
            assert!(longest <= bound, "inaccessibility {longest} exceeds bound {bound}");
        }
    }

    #[test]
    fn membership_tracks_alive_and_failed_neighbors() {
        let config = R2TMacConfig {
            copies: 1,
            heartbeat_period: 10,
            neighbor_timeout: 60,
            channel_switch_threshold: 0,
            channels: 1,
        };
        let mut s = sim(3, 1, config, 3);
        s.run_slots(100);
        let slot = s.slot();
        let members = s.mac(NodeId(0)).unwrap().alive_neighbors(slot);
        assert_eq!(members, vec![NodeId(1), NodeId(2)]);
        // Node 2 disappears; after the timeout it is removed from membership.
        s.remove_node(NodeId(2));
        s.run_slots(200);
        let slot = s.slot();
        let members = s.mac(NodeId(0)).unwrap().alive_neighbors(slot);
        assert_eq!(members, vec![NodeId(1)]);
    }

    #[test]
    fn key_window_is_a_fifo_set_of_the_last_2048_keys() {
        // Model: the linear window the Mediator Layer used to scan.
        let mut model: std::collections::VecDeque<(u32, u64)> = Default::default();
        let mut window = KeyWindow::default();
        let mut rng = karyon_sim::Rng::seed_from(11);
        for step in 0..20_000u64 {
            // Few sources and a sliding sequence range: plenty of repeats,
            // hash collisions, evictions and re-insertions of evicted keys.
            let key = (rng.range_u64(0, 5) as u32, step / 4 + rng.range_u64(0, 600));
            let new = !model.contains(&key);
            if new {
                model.push_back(key);
                if model.len() > KEY_WINDOW {
                    model.pop_front();
                }
            }
            assert_eq!(window.insert(key.0, key.1), new, "step {step}, key {key:?}");
        }
        assert_eq!(window.srcs.len(), KEY_WINDOW);
        assert_eq!(window.index.len(), 2 * KEY_WINDOW, "the index stays at most half full");
        for &(src, seq) in &model {
            assert!(window.probe(src, seq).is_ok());
        }
    }

    #[test]
    fn wrapper_reports_its_own_name_and_inner() {
        let mac = r2t(R2TMacConfig::default());
        assert_eq!(mac.name(), "r2t-mac");
        assert_eq!(mac.inner().name(), "csma");
        assert_eq!(mac.channel_switches(), 0);
    }

    #[test]
    fn finish_closes_open_inaccessibility() {
        let config = R2TMacConfig {
            copies: 1,
            heartbeat_period: 0,
            channel_switch_threshold: 0,
            channels: 1,
            ..Default::default()
        };
        let mut s = sim(1, 1, config, 4);
        s.medium_mut().add_disturbance(Disturbance {
            channel: Some(0),
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
        });
        s.run_slots(50);
        // Period still open; close it explicitly.
        let now = s.now();
        let ids = s.node_ids();
        // Access through the simulation is read-only; emulate end-of-run bookkeeping.
        let mac = s.mac(ids[0]).unwrap();
        assert!(mac.inaccessibility().is_inaccessible());
        let mut standalone = r2t(R2TMacConfig::default());
        standalone.inaccessibility.observe(true, SimTime::ZERO);
        standalone.finish(now);
        assert_eq!(standalone.inaccessibility().count(), 1);
    }
}
