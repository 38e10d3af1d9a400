//! The seed-deterministic simulated network fabric.

use std::collections::BTreeMap;

use karyon_sim::{splitmix64, EventQueue, Rng, SimDuration, SimTime};

use crate::{link_key, Delivery, LinkKey, NodeId, TransportStats};

/// Delay and fault configuration, applied to every directed link.
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

/// One in-flight message: queued once at its delivery time and popped once.
#[derive(Debug)]
struct InFlight {
    delivery: Delivery,
    send_seq: u64,
}

/// The deterministic simulated fabric.
///
/// Every send queues its delivery at `now + delay` in an [`EventQueue`],
/// whose `(time, insertion)` order fixes the delivery order, and all
/// randomness (jitter, drops, duplicates, reorder hold-backs) comes from
/// per-link [`Rng`] streams derived purely from `(seed, src, dst)`.
/// Identical seeds and send sequences therefore replay identical delivery
/// histories — see the crate-level determinism contract.
#[derive(Debug)]
pub struct SimTransport {
    queue: EventQueue<InFlight>,
    now: SimTime,
    seed: u64,
    default_link: LinkConfig,
    rngs: BTreeMap<LinkKey, Rng>,
    partitions: Vec<PartitionWindow>,
    /// Highest send sequence number delivered so far, per directed link.
    last_seq: BTreeMap<LinkKey, u64>,
    send_seq: u64,
    stats: TransportStats,
}

impl SimTransport {
    /// Creates a fabric whose entire fault/delay behaviour derives from
    /// `seed`, with [`LinkConfig::default`] on every link.
    pub fn new(seed: u64) -> Self {
        SimTransport {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seed,
            default_link: LinkConfig::default(),
            rngs: BTreeMap::new(),
            partitions: Vec::new(),
            last_seq: BTreeMap::new(),
            send_seq: 0,
            stats: TransportStats::default(),
        }
    }

    /// Replaces the configuration applied to every link.
    pub fn with_default_link(mut self, link: LinkConfig) -> Self {
        self.default_link = link;
        self
    }

    /// Schedules a partition window.  Windows may overlap; a message is
    /// severed if any active window cuts its link.
    pub fn add_partition(&mut self, window: PartitionWindow) {
        self.partitions.push(window);
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
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

    /// Delivers every message due at or before `deadline`, in delivery
    /// order, moving the clock to each delivery's time.
    fn deliver_until(&mut self, deadline: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some((t, msg)) = self.queue.pop_until(deadline) {
            self.now = t;
            let key = link_key(msg.delivery.src, msg.delivery.dst);
            let last = self.last_seq.entry(key).or_insert(0);
            if msg.send_seq < *last {
                self.stats.reordered += 1;
            } else {
                *last = msg.send_seq;
            }
            self.stats.delivered += 1;
            out.push(msg.delivery);
        }
        out
    }
}

impl SimTransport {
    /// Submits `payload` from `src` to `dst` at the current fabric time.
    /// The payload moves into the last copy queued; only a duplicated send
    /// copies it.
    pub fn send(&mut self, src: NodeId, dst: NodeId, mut payload: Vec<u8>) {
        let now = self.now;
        self.stats.sent += 1;
        if self.partitions.iter().any(|p| p.severs(now, src, dst)) {
            self.stats.partition_dropped += 1;
            return;
        }
        let cfg = self.default_link;
        let rng = self.link_rng(src, dst);
        if rng.chance(cfg.drop_probability) {
            self.stats.dropped += 1;
            return;
        }
        let jitter_us = cfg.jitter.as_micros();
        let jitter = |rng: &mut Rng| if jitter_us > 0 { rng.range_u64(0, jitter_us) } else { 0 };
        // Delays saturate: an out-of-range one delivers at `SimTime::MAX`.
        let mut delay_us = cfg.delay.as_micros().saturating_add(jitter(rng));
        if rng.chance(cfg.reorder_probability) {
            let window_us = cfg.reorder_window.as_micros();
            if window_us > 0 {
                delay_us = delay_us.saturating_add(rng.range_u64(0, window_us));
            }
        }
        let duplicate = rng.chance(cfg.duplicate_probability);
        // The extra copy trails the original by at least one microsecond so the
        // pair never collapses into one instant.
        let dup_delay_us = delay_us.saturating_add(1).saturating_add(jitter(rng));

        self.send_seq += 1;
        let send_seq = self.send_seq;
        let deliver_at = now.saturating_add(SimDuration::from_micros(delay_us));
        self.queue.schedule(
            deliver_at,
            InFlight {
                delivery: Delivery {
                    src,
                    dst,
                    sent_at: now,
                    delivered_at: deliver_at,
                    payload: if duplicate { payload.clone() } else { std::mem::take(&mut payload) },
                    duplicate: false,
                },
                send_seq,
            },
        );
        if duplicate {
            self.stats.duplicated += 1;
            let dup_at = now.saturating_add(SimDuration::from_micros(dup_delay_us));
            self.queue.schedule(
                dup_at,
                InFlight {
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
    /// to (and including) that instant, in delivery order.  The clock then
    /// reads `deadline`; an earlier deadline than [`now`](Self::now) delivers
    /// nothing and leaves the clock where it was.
    pub fn advance_to(&mut self, deadline: SimTime) -> Vec<Delivery> {
        let out = self.deliver_until(deadline);
        self.now = self.now.max(deadline);
        out
    }

    /// Runs the fabric until nothing is in flight and returns the remaining
    /// deliveries in delivery order.  The clock stops at the last delivery.
    pub fn drain(&mut self) -> Vec<Delivery> {
        self.deliver_until(SimTime::MAX)
    }

    /// Current fabric time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> TransportStats {
        self.stats
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
}
