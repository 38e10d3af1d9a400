//! EventBus v2 backpressure edge cases: dead mailboxes never deliver,
//! overload accounting conserves every published copy, the sampling
//! strategy stays campaign-deterministic for any worker count, and every
//! change to a topic's route takes effect on the very next publish.

use proptest::prelude::*;

use karyon::middleware::{
    EventBus, NetworkCapability, NetworkId, OverloadStrategy, Payload, PublishOutcome, QosClass,
    QosRequirement, SubscriptionStats,
};
use karyon::scenario::{builtin_registry, Campaign, CampaignEntry, ParamGrid};
use karyon::sim::{SimDuration, SimTime};

fn local_bus(seed: u64) -> EventBus {
    let mut bus = EventBus::new(seed);
    bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
    bus
}

/// Every copy routed to a subscription is accounted for exactly once at the
/// publish side: enqueued, lost, filtered, or shed by one of the overload
/// paths (aggregate coalescing included).
fn assert_publish_conservation(stats: &SubscriptionStats) {
    assert_eq!(
        stats.matched,
        stats.enqueued
            + stats.dropped_loss
            + stats.filtered_out
            + stats.dropped_pressure
            + stats.dropped_capacity
            + stats.sampled_out
            + stats.aggregated_merged,
        "publish-side conservation violated: {stats:?}"
    );
    // ... and every enqueued copy is still queued, delivered, displaced by a
    // newer one, or discarded with the mailbox.
    assert_eq!(
        stats.enqueued,
        stats.delivered + stats.backlog + stats.displaced + stats.discarded_on_unsubscribe,
        "mailbox-side conservation violated: {stats:?}"
    );
}

proptest! {
    /// Unsubscribing mid-overload never delivers another event: whatever was
    /// queued is discarded, the global backlog shrinks accordingly, and
    /// later publishes neither match nor enqueue to the dead mailbox —
    /// across random capacities, strategies and publish/unsubscribe splits.
    #[test]
    fn unsubscribe_mid_overload_never_delivers_to_a_dead_mailbox(
        seed in any::<u64>(),
        capacity in 1usize..16,
        strategy_idx in 0usize..4,
        before in 1u64..200,
        after in 1u64..200,
    ) {
        let strategy = [
            OverloadStrategy::DropNewest,
            OverloadStrategy::DropOldest,
            OverloadStrategy::Sample { keep_1_in: 3 },
            OverloadStrategy::Aggregate,
        ][strategy_idx];
        let mut bus = local_bus(seed);
        let survivor = bus.topic("t.load").subscribe(QosClass::Background);
        let victim = bus
            .topic("t.load")
            .mailbox(capacity)
            .overload(strategy)
            .subscribe(QosClass::Batched);
        let publisher = bus.topic("t.load").announce(QosRequirement::best_effort());
        for i in 0..before {
            bus.publish(&publisher, Payload::tagged(i), SimTime::from_millis(i));
        }
        // Mid-overload: the victim's mailbox is (typically) saturated now.
        let queued = bus.subscription_stats(victim).unwrap().backlog;
        let backlog_before = bus.backlog() as u64;
        prop_assert!(bus.unsubscribe(victim));
        prop_assert_eq!(bus.backlog() as u64, backlog_before - queued);
        prop_assert!(bus.poll(victim, SimTime::from_secs(60)).is_none());

        for i in 0..after {
            bus.publish(&publisher, Payload::tagged(before + i), SimTime::from_millis(before + i));
        }
        let stats = bus.subscription_stats(victim).unwrap();
        // A dead mailbox must never deliver, and post-unsubscribe publishes
        // must not route to it.
        prop_assert_eq!(stats.delivered, 0);
        prop_assert_eq!(stats.matched, before);
        prop_assert_eq!(stats.backlog, 0);
        prop_assert_eq!(stats.discarded_on_unsubscribe, queued);
        assert_publish_conservation(&stats);
        // The surviving subscription keeps receiving.
        let survivor_stats = bus.subscription_stats(survivor).unwrap();
        prop_assert_eq!(survivor_stats.matched, before + after);
        assert_publish_conservation(&survivor_stats);
    }

    /// Sustained overload through the drop strategies: accounting conserves
    /// every copy, the mailbox never exceeds its capacity, and drop-oldest
    /// always hands the subscriber the newest window in FIFO order.
    #[test]
    fn drop_strategies_conserve_events_under_sustained_overload(
        seed in any::<u64>(),
        capacity in 1usize..12,
        publishes in 50u64..500,
        drain_every in 5u64..50,
    ) {
        let mut bus = local_bus(seed);
        let newest = bus.topic("t.sat").mailbox(capacity).subscribe(QosClass::Realtime);
        let oldest = bus
            .topic("t.sat")
            .mailbox(capacity)
            .overload(OverloadStrategy::DropOldest)
            .subscribe(QosClass::Batched);
        let publisher = bus.topic("t.sat").announce(QosRequirement::best_effort());
        let mut last_tag: Option<u64> = None;
        for i in 0..publishes {
            bus.publish(&publisher, Payload::tagged(i), SimTime::from_millis(i));
            prop_assert!(bus.subscription_stats(oldest).unwrap().backlog <= capacity as u64);
            if i % drain_every == 0 {
                bus.drain_with(oldest, SimTime::from_secs(i + 1), usize::MAX, |ev| {
                    // FIFO over the surviving (newest) window: tags only grow.
                    if let Some(last) = last_tag {
                        assert!(ev.payload.tag > last, "stale event after drop-oldest");
                    }
                    last_tag = Some(ev.payload.tag);
                });
            }
        }
        for sub in [newest, oldest] {
            assert_publish_conservation(&bus.subscription_stats(sub).unwrap());
        }
    }

    /// The aggregate strategy under sustained overload: nothing is dropped
    /// at the mailbox — every non-lost copy ends up *represented* by some
    /// delivered summary, and the coalesced slot carries the freshest tag.
    #[test]
    fn aggregate_represents_every_surviving_copy(
        seed in any::<u64>(),
        capacity in 1usize..8,
        publishes in 20u64..300,
    ) {
        let mut bus = local_bus(seed);
        let sub = bus
            .topic("t.agg")
            .mailbox(capacity)
            .overload(OverloadStrategy::Aggregate)
            .subscribe(QosClass::Background);
        let publisher = bus.topic("t.agg").announce(QosRequirement::best_effort());
        for i in 0..publishes {
            bus.publish(&publisher, Payload::tagged(i), SimTime::from_millis(i));
        }
        let mut represented = 0u64;
        bus.drain_with(sub, SimTime::from_secs(600), usize::MAX, |ev| {
            represented += u64::from(ev.represents);
        });
        let stats = bus.subscription_stats(sub).unwrap();
        prop_assert_eq!(stats.dropped_capacity + stats.displaced + stats.sampled_out, 0);
        // Every copy is delivered, represented in a summary, or lost on the
        // network.
        prop_assert_eq!(represented + stats.dropped_loss, publishes);
        prop_assert_eq!(stats.represented, represented);
        assert_publish_conservation(&stats);
    }
}

/// The sampling overload strategy keeps the canonical-aggregation contract:
/// a campaign over `middleware-overload` with `strategy = "sample"` is
/// bit-identical for 1 vs 4 workers (and its runs stay suspect-free).
#[test]
fn sampling_campaigns_are_bit_identical_for_any_worker_count() {
    let registry = builtin_registry();
    let build = || {
        Campaign::new("sampling-determinism", 23).with_chunk_size(1).entry(
            CampaignEntry::new("middleware-overload")
                .grid(
                    ParamGrid::new()
                        .axis("load_x", [10.0])
                        .axis("qos_mix", ["mixed", "batched"])
                        .axis("strategy", ["sample"]),
                )
                .replications(3)
                .duration_secs(10),
        )
    };
    let serial = build().with_threads(1).run(&registry).expect("builtin family");
    let parallel = build().with_threads(4).run(&registry).expect("builtin family");
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.suspect_runs(), 0);
    assert_eq!(serial.total_runs, 6);
}

/// A hand-built network that delivers every copy (`1.0`) or none (`0.0`),
/// so a publish's outcome is fully determined by the route it takes.
fn network(delivery_ratio: f64) -> NetworkCapability {
    NetworkCapability {
        expected_latency: SimDuration::from_millis(1),
        expected_delivery_ratio: delivery_ratio,
        capacity_rate: 1e6,
    }
}

/// The outcome of a publish whose copies were all enqueued or lost.
fn routed(matched: u32, enqueued: u32, dropped_loss: u32) -> PublishOutcome {
    PublishOutcome { matched, enqueued, dropped_loss, ..PublishOutcome::default() }
}

/// Every operation that can change where a topic's copies go, or whether
/// they arrive — `subscribe` (exact, and a wildcard created after the
/// topic's first publish), `unsubscribe`, `attach_network`,
/// `update_capability` and a re-`announce` — takes effect on the very next
/// publish.
#[test]
fn route_changes_take_effect_on_the_next_publish() {
    let (local, remote, detached) = (NetworkId(0), NetworkId(5), NetworkId(7));
    let mut bus = EventBus::new(3);
    bus.attach_network(local, network(1.0));
    let mut at = 0u64;
    let mut publish = |bus: &mut EventBus, publisher| {
        at += 1;
        bus.publish(publisher, Payload::tagged(at), SimTime::from_millis(at))
    };
    bus.topic("t.x").subscribe(QosClass::Background);
    let publisher = bus.topic("t.x").announce(QosRequirement::best_effort());
    assert_eq!(publish(&mut bus, &publisher), routed(1, 1, 0), "first publish");

    let exact = bus.topic("t.x").subscribe(QosClass::Background);
    assert_eq!(publish(&mut bus, &publisher), routed(2, 2, 0), "after an exact subscribe");
    bus.topic("t.*").subscribe(QosClass::Background);
    assert_eq!(publish(&mut bus, &publisher), routed(3, 3, 0), "after a wildcard subscribe");
    assert!(bus.unsubscribe(exact));
    assert_eq!(publish(&mut bus, &publisher), routed(2, 2, 0), "after unsubscribe");

    // A subscriber on a network that is not attached yet loses its copies.
    bus.topic("t.x").via(remote).subscribe(QosClass::Background);
    assert_eq!(publish(&mut bus, &publisher), routed(3, 2, 1), "subscriber network detached");
    bus.attach_network(remote, network(1.0));
    assert_eq!(publish(&mut bus, &publisher), routed(3, 3, 0), "after attach_network");
    bus.update_capability(remote, network(0.0));
    assert_eq!(publish(&mut bus, &publisher), routed(3, 2, 1), "after a 1.0 → 0.0 update");
    bus.update_capability(remote, network(1.0));
    assert_eq!(publish(&mut bus, &publisher), routed(3, 3, 0), "after a 0.0 → 1.0 update");

    // A channel re-announced from a detached network reaches nobody, and
    // back on an attached one it reaches everyone again.
    let stranded = bus.topic("t.x").via(detached).announce(QosRequirement::best_effort());
    assert_eq!(publish(&mut bus, &stranded), routed(0, 0, 0), "publisher network detached");
    let restored = bus.topic("t.x").via(local).announce(QosRequirement::best_effort());
    assert_eq!(publish(&mut bus, &restored), routed(3, 3, 0), "re-announced on an attached one");
}
