//! The simulated shared wireless medium.
//!
//! The medium is slot-synchronous: in every slot each node either transmits
//! one frame on one radio channel or listens.  Reception follows the usual
//! broadcast-interference rules — a listener receives a frame iff exactly one
//! in-range node transmitted on the listener's channel, the channel is not
//! being disturbed (jammed), and the frame survives the residual loss
//! probability.  The slot loop ([`MacSimulation::step`](crate::mac::MacSimulation::step))
//! applies that rule; the medium supplies its inputs: radio range, the
//! residual loss probability and the disturbances that create the *network
//! inaccessibility* periods studied in §V-A1.
//!
//! Disturbances are indexed per channel key (one channel, or all channels),
//! sorted by start with a running maximum of the ends, so "is this channel
//! jammed now?" and "when does the next burst start?" are binary searches
//! however long the jamming schedule is.

use std::collections::HashMap;

use karyon_sim::{Rng, SimTime, Vec2};

use crate::packet::NodeId;

/// Static configuration of the medium.
#[derive(Debug, Clone)]
pub struct MediumConfig {
    /// Radio range in metres (nodes farther apart never hear each other).
    pub range: f64,
    /// Residual probability that an otherwise successful reception is lost.
    pub loss_probability: f64,
    /// Number of orthogonal radio channels available (≥ 1).
    pub channels: u8,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig { range: 300.0, loss_probability: 0.0, channels: 2 }
    }
}

/// An external disturbance (interference / jamming burst) on one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// Channel affected (`None` ⇒ all channels).
    pub channel: Option<u8>,
    /// Start of the disturbance.
    pub start: SimTime,
    /// End of the disturbance (exclusive).
    pub end: SimTime,
}

impl Disturbance {
    /// True when the disturbance affects `channel` at `now`.
    pub fn affects(&self, channel: u8, now: SimTime) -> bool {
        (self.channel.is_none() || self.channel == Some(channel))
            && now >= self.start
            && now < self.end
    }
}

/// The disturbances of one channel key: `(start, end)` spans sorted by start,
/// and `reach[i]`, the latest end among `spans[..=i]`.  A time `t` is covered
/// iff the latest end among the spans starting at or before `t` lies after
/// it, whatever the spans' overlaps and nesting.
#[derive(Debug, Clone, Default, PartialEq)]
struct Bursts {
    spans: Vec<(SimTime, SimTime)>,
    reach: Vec<SimTime>,
}

impl Bursts {
    fn insert(&mut self, start: SimTime, end: SimTime) {
        let at = self.spans.partition_point(|&(s, _)| s <= start);
        self.spans.insert(at, (start, end));
        self.reach.truncate(at);
        let mut latest = at.checked_sub(1).map_or(SimTime::ZERO, |i| self.reach[i]);
        for &(_, e) in &self.spans[at..] {
            latest = latest.max(e);
            self.reach.push(latest);
        }
    }

    /// Number of spans starting at or before `t`.
    fn started_by(&self, t: SimTime) -> usize {
        self.spans.partition_point(|&(s, _)| s <= t)
    }

    fn covers(&self, t: SimTime) -> bool {
        self.started_by(t).checked_sub(1).is_some_and(|i| self.reach[i] > t)
    }

    fn next_start_after(&self, t: SimTime) -> Option<SimTime> {
        self.spans.get(self.started_by(t)).map(|&(s, _)| s)
    }
}

/// The shared wireless medium.
#[derive(Debug, Clone)]
pub struct WirelessMedium {
    config: MediumConfig,
    positions: HashMap<NodeId, Vec2>,
    /// Bumped whenever a registration or position changes, so the slot loop
    /// knows when its cached reach matrix is stale.
    topology_epoch: u64,
    /// Disturbances affecting every channel.
    all_channels: Bursts,
    /// Disturbances of one channel, indexed by channel.
    per_channel: Vec<Bursts>,
}

impl WirelessMedium {
    /// Creates a medium with the given configuration.
    pub fn new(config: MediumConfig) -> Self {
        assert!(config.channels >= 1, "medium needs at least one channel");
        WirelessMedium {
            config,
            positions: HashMap::new(),
            topology_epoch: 0,
            all_channels: Bursts::default(),
            per_channel: Vec::new(),
        }
    }

    /// The medium configuration.
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Registers or moves a node.
    pub fn set_position(&mut self, node: NodeId, position: Vec2) {
        if self.positions.insert(node, position) != Some(position) {
            self.topology_epoch += 1;
        }
    }

    /// The current position of a node, if registered.
    pub fn position(&self, node: NodeId) -> Option<Vec2> {
        self.positions.get(&node).copied()
    }

    /// Removes a node (e.g. churn in the self-stabilizing TDMA experiments).
    pub fn remove_node(&mut self, node: NodeId) {
        if self.positions.remove(&node).is_some() {
            self.topology_epoch += 1;
        }
    }

    /// Changes whenever a node is registered, moved or removed.
    pub(crate) fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// All registered nodes.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.positions.keys().copied().collect();
        v.sort();
        v
    }

    /// Adds a jamming disturbance.
    pub fn add_disturbance(&mut self, disturbance: Disturbance) {
        let Disturbance { channel, start, end } = disturbance;
        match channel {
            None => self.all_channels.insert(start, end),
            Some(c) => {
                let c = c as usize;
                if self.per_channel.len() <= c {
                    self.per_channel.resize_with(c + 1, Bursts::default);
                }
                self.per_channel[c].insert(start, end);
            }
        }
    }

    /// Generates a random sequence of disturbance bursts on `channel` over
    /// `[0, horizon)`: bursts arrive as a Poisson process with the given mean
    /// inter-arrival time and have exponentially distributed durations.
    pub fn add_random_disturbances(
        &mut self,
        channel: Option<u8>,
        horizon: SimTime,
        mean_interarrival: karyon_sim::SimDuration,
        mean_duration: karyon_sim::SimDuration,
        rng: &mut Rng,
    ) -> usize {
        let mut t = 0.0;
        let mut count = 0;
        loop {
            t += rng.exponential(mean_interarrival.as_secs_f64());
            if t >= horizon.as_secs_f64() {
                break;
            }
            let d = rng.exponential(mean_duration.as_secs_f64()).max(1e-4);
            self.add_disturbance(Disturbance {
                channel,
                start: SimTime::from_secs_f64(t),
                end: SimTime::from_secs_f64(t + d),
            });
            count += 1;
        }
        count
    }

    /// True when `channel` is affected by a disturbance at `now`
    /// (what a carrier-sensing node observes as a persistently busy medium).
    pub fn is_disturbed(&self, channel: u8, now: SimTime) -> bool {
        self.all_channels.covers(now)
            || self.per_channel.get(channel as usize).is_some_and(|b| b.covers(now))
    }

    /// The earliest start, strictly after `after`, of a disturbance that
    /// affects `channel`, if any.  When `channel` is not disturbed at
    /// `after`, it stays undisturbed until that instant.
    pub fn next_disturbance_start(&self, channel: u8, after: SimTime) -> Option<SimTime> {
        let own = self.per_channel.get(channel as usize).and_then(|b| b.next_start_after(after));
        match (self.all_channels.next_start_after(after), own) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True when `a` and `b` are within radio range of each other.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        match (self.positions.get(&a), self.positions.get(&b)) {
            (Some(pa), Some(pb)) => pa.distance(*pb) <= self.config.range,
            _ => false,
        }
    }

    /// The registered nodes within range of `node` (excluding itself).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .positions
            .keys()
            .copied()
            .filter(|n| *n != node && self.in_range(node, *n))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon_sim::SimDuration;

    // Reception itself is the slot loop's rule, tested in `mac::tests`:
    // single frames (`frames_are_delivered_without_collisions`), collisions
    // and half-duplex (`simultaneous_transmissions_collide`), channels and
    // range (`listeners_hear_only_in_range_frames_on_their_channel`),
    // jamming (`disturbed_slots_are_counted`) and residual loss
    // (`residual_loss_drops_about_the_configured_share`).

    fn medium_with(nodes: &[(u32, f64, f64)], range: f64) -> WirelessMedium {
        let mut m = WirelessMedium::new(MediumConfig { range, loss_probability: 0.0, channels: 2 });
        for (id, x, y) in nodes {
            m.set_position(NodeId(*id), Vec2::new(*x, *y));
        }
        m
    }

    fn burst(channel: Option<u8>, start_ms: u64, end_ms: u64) -> Disturbance {
        Disturbance {
            channel,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
        }
    }

    #[test]
    fn range_and_neighbors() {
        let m = medium_with(&[(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 500.0, 0.0)], 200.0);
        assert!(m.in_range(NodeId(1), NodeId(2)));
        assert!(!m.in_range(NodeId(1), NodeId(3)));
        assert_eq!(m.neighbors(NodeId(1)), vec![NodeId(2)]);
        assert_eq!(m.neighbors(NodeId(3)), Vec::<NodeId>::new());
        assert_eq!(m.nodes().len(), 3);
        assert!(m.position(NodeId(1)).is_some());
        assert!(!m.in_range(NodeId(1), NodeId(99)));
    }

    #[test]
    fn disturbance_jams_channel() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 50.0, 0.0)], 200.0);
        m.add_disturbance(burst(Some(0), 1_000, 2_000));
        assert!(m.is_disturbed(0, SimTime::from_millis(1_500)));
        assert!(!m.is_disturbed(1, SimTime::from_millis(1_500)));
        assert!(!m.is_disturbed(0, SimTime::from_millis(500)));
        assert!(m.is_disturbed(0, SimTime::from_millis(1_000)), "the start is inclusive");
        assert!(!m.is_disturbed(0, SimTime::from_millis(2_000)), "the end is exclusive");
        assert!(!m.is_disturbed(7, SimTime::from_millis(1_500)), "an unused channel is clear");
    }

    #[test]
    fn all_channel_disturbance() {
        let d = Disturbance { channel: None, start: SimTime::ZERO, end: SimTime::from_secs(1) };
        assert!(d.affects(0, SimTime::from_millis(10)));
        assert!(d.affects(7, SimTime::from_millis(10)));
        assert!(!d.affects(0, SimTime::from_secs(1)));
        let mut m = medium_with(&[], 100.0);
        m.add_disturbance(d);
        assert!(m.is_disturbed(0, SimTime::from_millis(10)));
        assert!(m.is_disturbed(7, SimTime::from_millis(10)));
        assert!(!m.is_disturbed(7, SimTime::from_secs(1)));
    }

    #[test]
    fn nested_overlapping_and_empty_bursts_are_indexed_exactly() {
        let mut m = medium_with(&[], 100.0);
        // Added out of order: a long burst hiding a nested one, an overlap,
        // a zero-length burst and an all-channel burst.
        let schedule = [
            burst(Some(0), 50, 60),
            burst(Some(0), 10, 40),
            burst(Some(0), 20, 25),
            burst(Some(0), 35, 55),
            burst(Some(0), 70, 70),
            burst(None, 80, 90),
            burst(Some(1), 5, 6),
        ];
        for d in schedule {
            m.add_disturbance(d);
        }
        for ms in 0..100 {
            for channel in 0..3 {
                let now = SimTime::from_millis(ms);
                let expected = schedule.iter().any(|d| d.affects(channel, now));
                assert_eq!(m.is_disturbed(channel, now), expected, "channel {channel} at {ms} ms");
            }
        }
        let next = |channel: u8, ms: u64| {
            m.next_disturbance_start(channel, SimTime::from_millis(ms)).map(|t| t.as_millis())
        };
        assert_eq!(next(0, 0), Some(10));
        assert_eq!(next(0, 10), Some(20), "strictly after");
        assert_eq!(next(0, 55), Some(70), "zero-length bursts still start");
        assert_eq!(next(0, 70), Some(80), "all-channel bursts count");
        assert_eq!(next(1, 0), Some(5));
        assert_eq!(next(1, 5), Some(80));
        assert_eq!(next(2, 0), Some(80));
        assert_eq!(next(2, 80), None);
    }

    #[test]
    fn random_disturbances_are_generated_deterministically() {
        let mut m1 = medium_with(&[(1, 0.0, 0.0)], 100.0);
        let mut m2 = medium_with(&[(1, 0.0, 0.0)], 100.0);
        let mut r1 = Rng::seed_from(7);
        let mut r2 = Rng::seed_from(7);
        let c1 = m1.add_random_disturbances(
            Some(0),
            SimTime::from_secs(60),
            SimDuration::from_secs(5),
            SimDuration::from_millis(500),
            &mut r1,
        );
        let c2 = m2.add_random_disturbances(
            Some(0),
            SimTime::from_secs(60),
            SimDuration::from_secs(5),
            SimDuration::from_millis(500),
            &mut r2,
        );
        assert_eq!(c1, c2);
        assert!(c1 > 3, "expected several bursts, got {c1}");
        assert_eq!(m1.per_channel, m2.per_channel);
        assert_eq!(m1.per_channel[0].spans.len(), c1);
    }

    #[test]
    fn remove_node_forgets_position() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 10.0, 0.0)], 100.0);
        m.remove_node(NodeId(2));
        assert_eq!(m.nodes(), vec![NodeId(1)]);
        assert!(!m.in_range(NodeId(1), NodeId(2)));
    }

    #[test]
    fn topology_epoch_moves_only_when_positions_change() {
        let mut m = medium_with(&[(1, 0.0, 0.0)], 100.0);
        let epoch = m.topology_epoch();
        m.set_position(NodeId(1), Vec2::new(0.0, 0.0));
        m.remove_node(NodeId(9));
        m.add_disturbance(burst(Some(0), 0, 10));
        assert_eq!(m.topology_epoch(), epoch, "nothing that affects range changed");
        m.set_position(NodeId(1), Vec2::new(1.0, 0.0));
        assert_ne!(m.topology_epoch(), epoch);
        let epoch = m.topology_epoch();
        m.remove_node(NodeId(1));
        assert_ne!(m.topology_epoch(), epoch);
    }
}
