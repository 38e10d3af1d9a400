//! The seed-deterministic simulated network fabric.

use std::collections::BTreeMap;

use karyon_sim::{splitmix64, Engine, Rng, SimDuration, SimTime};

use crate::{link_key, Delivery, LinkKey, NodeId, TransportStats};

/// Per-directed-link delay and fault configuration.
///
/// All probabilities are clamped to `[0, 1]` by the underlying sampler; all
/// extra delays are drawn uniformly from the configured windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way propagation delay.
    pub delay: SimDuration,
    /// Uniform extra delay in `[0, jitter]` added to every message.
    pub jitter: SimDuration,
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability that a message is delivered twice (the extra copy carries
    /// [`Delivery::duplicate`]).
    pub duplicate_probability: f64,
    /// Probability that a message is held back by an extra delay drawn from
    /// `[0, reorder_window]`, letting later sends overtake it.
    pub reorder_probability: f64,
    /// Maximum hold-back applied to reordered messages.
    pub reorder_window: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay: SimDuration::from_millis(5),
            jitter: SimDuration::from_millis(2),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_window: SimDuration::from_millis(20),
        }
    }
}

/// A scheduled bidirectional partition between two node groups.
///
/// While the fabric clock is in `[from, until)`, any message between a member
/// of `group_a` and a member of `group_b` (either direction) is severed at
/// send time and counted in [`TransportStats::partition_dropped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First instant at which the partition is active.
    pub from: SimTime,
    /// First instant at which the partition has healed.
    pub until: SimTime,
    /// One side of the cut.
    pub group_a: Vec<NodeId>,
    /// The other side of the cut.
    pub group_b: Vec<NodeId>,
}

impl PartitionWindow {
    fn severs(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let (a, b) = (&self.group_a, &self.group_b);
        (a.contains(&src) && b.contains(&dst)) || (a.contains(&dst) && b.contains(&src))
    }
}

/// Mailbox and delivery counters owned by the embedded engine.
///
/// Public only so [`SimTransport::engine`] can expose the engine for clamp
/// audits ([`karyon_sim::Engine::clamped_schedules`]); the fields are
/// internal.
#[derive(Debug, Default)]
pub struct SimNetState {
    inbox: Vec<Delivery>,
    delivered: u64,
    reordered: u64,
    /// Highest send sequence number delivered so far, per directed link.
    last_seq: BTreeMap<LinkKey, u64>,
}

/// One in-flight message inside the embedded engine.
///
/// `Clone` because the engine's run loop requires cloneable events (periodic
/// trains replicate their payload per tick); in-flight messages themselves
/// are never duplicated by the clone — each is scheduled and popped once.
#[derive(Debug, Clone)]
pub struct SimNetEvent {
    delivery: Delivery,
    send_seq: u64,
}

/// The deterministic simulated fabric.
///
/// Built over [`karyon_sim::Engine`]: every send schedules a delivery event at
/// `now + delay`, the engine's `(time, insertion)`-ordered queue fixes the
/// delivery order, and all randomness (jitter, drops, duplicates, reorder
/// hold-backs) comes from per-link [`Rng`] streams derived purely from
/// `(seed, src, dst)`.  Identical seeds and send sequences therefore replay
/// identical delivery histories — see the crate-level determinism contract.
#[derive(Debug)]
pub struct SimTransport {
    engine: Engine<SimNetState, SimNetEvent>,
    seed: u64,
    default_link: LinkConfig,
    links: BTreeMap<LinkKey, LinkConfig>,
    rngs: BTreeMap<LinkKey, Rng>,
    partitions: Vec<PartitionWindow>,
    send_seq: u64,
    sent: u64,
    dropped: u64,
    duplicated: u64,
    partition_dropped: u64,
}

impl SimTransport {
    /// Creates a fabric whose entire fault/delay behaviour derives from
    /// `seed`, with [`LinkConfig::default`] on every link.
    pub fn new(seed: u64) -> Self {
        SimTransport {
            engine: Engine::new(SimNetState::default()),
            seed,
            default_link: LinkConfig::default(),
            links: BTreeMap::new(),
            rngs: BTreeMap::new(),
            partitions: Vec::new(),
            send_seq: 0,
            sent: 0,
            dropped: 0,
            duplicated: 0,
            partition_dropped: 0,
        }
    }

    /// Replaces the configuration applied to links without an explicit
    /// [`set_link`](Self::set_link) entry.
    pub fn with_default_link(mut self, link: LinkConfig) -> Self {
        self.default_link = link;
        self
    }

    /// Configures one directed link `src → dst`.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, config: LinkConfig) {
        self.links.insert(link_key(src, dst), config);
    }

    /// Schedules a partition window.  Windows may overlap; a message is
    /// severed if any active window cuts its link.
    pub fn add_partition(&mut self, window: PartitionWindow) {
        self.partitions.push(window);
    }

    /// The embedded virtual-clock engine, exposed for clamp audits and
    /// observer attachment.
    pub fn engine(&self) -> &Engine<SimNetState, SimNetEvent> {
        &self.engine
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.engine.pending()
    }

    fn link_config(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.links.get(&link_key(src, dst)).copied().unwrap_or(self.default_link)
    }

    /// Per-link entropy stream, derived purely from `(seed, src, dst)` so the
    /// stream is independent of the order in which links are first used.
    fn link_rng(&mut self, src: NodeId, dst: NodeId) -> &mut Rng {
        let key = link_key(src, dst);
        let seed = self.seed;
        self.rngs.entry(key).or_insert_with(|| {
            let packed = ((key.0 as u64) << 32) | key.1 as u64;
            let mut state = seed ^ packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            splitmix64(&mut state);
            Rng::seed_from(splitmix64(&mut state))
        })
    }

    fn pump(&mut self, deadline: Option<SimTime>) -> Vec<Delivery> {
        let handler = |state: &mut SimNetState,
                       _ctx: &mut karyon_sim::Context<'_, SimNetEvent>,
                       ev: SimNetEvent| {
            let key = link_key(ev.delivery.src, ev.delivery.dst);
            let last = state.last_seq.entry(key).or_insert(0);
            if ev.send_seq < *last {
                state.reordered += 1;
            } else {
                *last = ev.send_seq;
            }
            state.delivered += 1;
            state.inbox.push(ev.delivery);
        };
        match deadline {
            Some(t) => self.engine.run_until(t, handler),
            None => self.engine.run(handler),
        };
        std::mem::take(&mut self.engine.state_mut().inbox)
    }
}

impl SimTransport {
    /// Submits `payload` from `src` to `dst` at the current fabric time.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: Vec<u8>) {
        let now = self.engine.now();
        self.sent += 1;
        if self.partitions.iter().any(|p| p.severs(now, src, dst)) {
            self.partition_dropped += 1;
            return;
        }
        let cfg = self.link_config(src, dst);
        let rng = self.link_rng(src, dst);
        if rng.chance(cfg.drop_probability) {
            self.dropped += 1;
            return;
        }
        let jitter_us = cfg.jitter.as_micros();
        let mut delay_us =
            cfg.delay.as_micros() + if jitter_us > 0 { rng.range_u64(0, jitter_us) } else { 0 };
        if rng.chance(cfg.reorder_probability) {
            let window_us = cfg.reorder_window.as_micros();
            if window_us > 0 {
                delay_us += rng.range_u64(0, window_us);
            }
        }
        let duplicate = rng.chance(cfg.duplicate_probability);
        // The extra copy trails the original by at least one microsecond so the
        // pair never collapses into one instant.
        let dup_delay_us =
            delay_us + 1 + if jitter_us > 0 { rng.range_u64(0, jitter_us) } else { 0 };

        self.send_seq += 1;
        let send_seq = self.send_seq;
        let deliver_at = now.saturating_add(SimDuration::from_micros(delay_us));
        self.engine.schedule_at(
            deliver_at,
            SimNetEvent {
                delivery: Delivery {
                    src,
                    dst,
                    sent_at: now,
                    delivered_at: deliver_at,
                    payload: payload.clone(),
                    duplicate: false,
                },
                send_seq,
            },
        );
        if duplicate {
            self.duplicated += 1;
            let dup_at = now.saturating_add(SimDuration::from_micros(dup_delay_us));
            self.engine.schedule_at(
                dup_at,
                SimNetEvent {
                    delivery: Delivery {
                        src,
                        dst,
                        sent_at: now,
                        delivered_at: dup_at,
                        payload,
                        duplicate: true,
                    },
                    send_seq,
                },
            );
        }
    }

    /// Advances the fabric to `deadline` and returns everything delivered up
    /// to (and including) that instant, in delivery order.
    pub fn advance_to(&mut self, deadline: SimTime) -> Vec<Delivery> {
        self.pump(Some(deadline))
    }

    /// Runs the fabric until nothing is in flight and returns the remaining
    /// deliveries in delivery order.
    pub fn drain(&mut self) -> Vec<Delivery> {
        self.pump(None)
    }

    /// Current fabric time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> TransportStats {
        let state = self.engine.state();
        TransportStats {
            sent: self.sent,
            delivered: state.delivered,
            dropped: self.dropped,
            duplicated: self.duplicated,
            reordered: state.reordered,
            partition_dropped: self.partition_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless_link(delay_ms: u64, jitter_ms: u64) -> LinkConfig {
        LinkConfig {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::from_millis(jitter_ms),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_window: SimDuration::from_millis(20),
        }
    }

    #[test]
    fn deliveries_arrive_in_time_order_with_the_configured_delay() {
        let mut net = SimTransport::new(7).with_default_link(lossless_link(5, 0));
        net.send(NodeId(0), NodeId(1), b"a".to_vec());
        net.send(NodeId(0), NodeId(1), b"b".to_vec());
        let out = net.drain();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, b"a");
        assert_eq!(out[1].payload, b"b");
        assert_eq!(out[0].delivered_at, SimTime::from_millis(5));
        assert_eq!(net.now(), SimTime::from_millis(5));
        assert_eq!(net.stats().reordered, 0);
    }

    #[test]
    fn same_seed_replays_the_identical_delivery_history() {
        let run = |seed: u64| {
            let mut net = SimTransport::new(seed).with_default_link(LinkConfig {
                drop_probability: 0.2,
                duplicate_probability: 0.15,
                reorder_probability: 0.3,
                ..lossless_link(5, 3)
            });
            for round in 0u8..20 {
                let t = SimTime::from_millis(round as u64 * 4);
                net.advance_to(t);
                for node in 0u32..3 {
                    net.send(NodeId(node), NodeId((node + 1) % 3), vec![round, node as u8]);
                }
            }
            let tail = net.drain();
            (tail, net.stats())
        };
        let (d1, s1) = run(42);
        let (d2, s2) = run(42);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        let (d3, _) = run(43);
        assert_ne!(d1, d3, "different seeds should perturb the fabric");
    }

    #[test]
    fn partitions_sever_messages_only_inside_their_window() {
        let mut net = SimTransport::new(1).with_default_link(lossless_link(1, 0));
        net.add_partition(PartitionWindow {
            from: SimTime::from_millis(10),
            until: SimTime::from_millis(20),
            group_a: vec![NodeId(0)],
            group_b: vec![NodeId(1)],
        });
        let mut out = Vec::new();
        net.send(NodeId(0), NodeId(1), b"before".to_vec());
        out.extend(net.advance_to(SimTime::from_millis(15)));
        net.send(NodeId(0), NodeId(1), b"cut".to_vec());
        net.send(NodeId(1), NodeId(0), b"cut-back".to_vec());
        net.send(NodeId(0), NodeId(2), b"unrelated".to_vec());
        out.extend(net.advance_to(SimTime::from_millis(25)));
        net.send(NodeId(0), NodeId(1), b"healed".to_vec());
        out.extend(net.drain());
        let payloads: Vec<&[u8]> = out.iter().map(|d| d.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"before".as_slice(), b"unrelated", b"healed"]);
        assert_eq!(net.stats().partition_dropped, 2);
        assert_eq!(net.stats().lost(), 2);
    }

    #[test]
    fn duplicates_are_flagged_and_counted() {
        let mut net = SimTransport::new(3)
            .with_default_link(LinkConfig { duplicate_probability: 1.0, ..lossless_link(2, 0) });
        net.send(NodeId(0), NodeId(1), b"x".to_vec());
        let out = net.drain();
        assert_eq!(out.len(), 2);
        assert!(!out[0].duplicate);
        assert!(out[1].duplicate);
        assert!(out[1].delivered_at > out[0].delivered_at);
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn forced_reordering_is_detected() {
        let mut net = SimTransport::new(9).with_default_link(LinkConfig {
            reorder_probability: 0.5,
            reorder_window: SimDuration::from_millis(50),
            ..lossless_link(2, 0)
        });
        for i in 0u8..40 {
            net.send(NodeId(0), NodeId(1), vec![i]);
        }
        let out = net.drain();
        assert_eq!(out.len(), 40);
        assert!(net.stats().reordered > 0, "expected at least one overtake");
    }

    #[test]
    fn link_entropy_is_independent_of_first_use_order() {
        // Two fabrics, same seed; one touches link 0→1 first, the other 2→3.
        // The streams must match anyway because entropy derives from the link
        // key, not from first-use order.
        let mut a = SimTransport::new(77);
        let mut b = SimTransport::new(77);
        a.link_rng(NodeId(0), NodeId(1));
        b.link_rng(NodeId(2), NodeId(3));
        let x1 = a.link_rng(NodeId(2), NodeId(3)).next_u64();
        let y1 = b.link_rng(NodeId(0), NodeId(1)).next_u64();
        let x2 = b.link_rng(NodeId(2), NodeId(3)).next_u64();
        let y2 = a.link_rng(NodeId(0), NodeId(1)).next_u64();
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn the_fabric_never_schedules_into_the_past() {
        let mut net = SimTransport::new(5).with_default_link(lossless_link(3, 2));
        for round in 0..10 {
            net.advance_to(SimTime::from_millis(round * 2));
            net.send(NodeId(0), NodeId(1), vec![round as u8]);
        }
        net.drain();
        assert_eq!(net.engine().clamped_schedules(), 0);
    }
}
