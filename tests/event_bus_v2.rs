//! EventBus v2 edge cases: overload accounting conserves every published
//! copy, the sampling strategy stays campaign-deterministic for any worker
//! count, every change to a topic's route takes effect on the very next
//! publish, and a capability update re-assesses admissions without handing
//! an incumbent's rate to another channel.

use proptest::prelude::*;

use karyon::middleware::{
    Admission, EventBus, NetworkCapability, NetworkId, OverloadStrategy, Payload, PublishOutcome,
    QosClass, QosRequirement, Subject, SubscriptionStats,
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
    // ... and every enqueued copy is still queued, delivered, or displaced
    // by a newer one.
    assert_eq!(
        stats.enqueued,
        stats.delivered + stats.backlog + stats.displaced,
        "mailbox-side conservation violated: {stats:?}"
    );
}

proptest! {
    /// Sustained overload through the drop and sample strategies: accounting
    /// conserves every copy, the mailbox never exceeds its capacity, and
    /// drop-oldest always hands the subscriber the newest window in FIFO
    /// order.
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
        let sampled = bus
            .topic("t.sat")
            .mailbox(capacity)
            .overload(OverloadStrategy::Sample { keep_1_in: 3 })
            .subscribe(QosClass::Background);
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
        for sub in [newest, oldest, sampled] {
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
/// they arrive — `subscribe`, `attach_network`, `update_capability` and a
/// re-`announce` — takes effect on the very next publish.
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
    bus.topic("t.x").subscribe(QosClass::Background);
    assert_eq!(publish(&mut bus, &publisher), routed(2, 2, 0), "after a subscribe");

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

/// The wireless network of the admission tests: `wireless_nominal`'s
/// latency and delivery ratio, with `capacity_rate` events per second.
fn wireless(capacity_rate: f64) -> NetworkCapability {
    NetworkCapability { capacity_rate, ..NetworkCapability::wireless_nominal() }
}

/// A bus with one subscriber on the wireless network `NetworkId(1)` for
/// each of `topics`.
fn wireless_bus(capability: NetworkCapability, topics: &[&str]) -> EventBus {
    let mut bus = EventBus::new(1);
    bus.attach_network(NetworkId(1), capability);
    for topic in topics {
        bus.topic(topic).via(NetworkId(1)).subscribe(QosClass::Batched);
    }
    bus
}

/// A channel on the wireless network with a loose latency bound and `rate`
/// events per second.
fn rated(bus: &mut EventBus, topic: &str, rate: f64) -> Subject {
    let qos = QosRequirement::builder()
        .max_latency(SimDuration::from_secs(1))
        .min_delivery_ratio(0.5)
        .max_rate(rate)
        .build();
    let publisher = bus.topic(topic).via(NetworkId(1)).announce(qos);
    assert_eq!(publisher.subject(), Subject::from_name(topic));
    publisher.subject()
}

/// A degradation that rejects every channel, followed by the recovery to the
/// original capability, restores the original admissions: the channel
/// announced first keeps the rate, whatever the topics' interning order.
#[test]
fn a_degrade_and_recover_cycle_restores_the_incumbent() {
    // `x` is interned (by its subscription) before `y`, but announced after.
    let mut bus = wireless_bus(NetworkCapability::wireless_nominal(), &["x", "y"]);
    let y = rated(&mut bus, "y", 300.0);
    let x = rated(&mut bus, "x", 300.0);
    assert_eq!(bus.admission(y), Some(Admission::Admitted));
    assert_eq!(bus.admission(x), Some(Admission::Rejected), "500/s cannot carry 600/s");

    let changed = bus.update_capability(NetworkId(1), NetworkCapability::wireless_degraded());
    assert_eq!(changed, vec![y], "the degraded network carries neither");
    let changed = bus.update_capability(NetworkId(1), NetworkCapability::wireless_nominal());
    assert_eq!(changed, vec![y], "the recovery re-admits the incumbent only");
    assert_eq!(bus.admission(y), Some(Admission::Admitted));
    assert_eq!(bus.admission(x), Some(Admission::Rejected));
}

/// When the capacity shrinks below what the admitted channels hold, the
/// channels admitted last lose their admission, not the first one.
#[test]
fn a_capacity_cut_revokes_the_latest_admissions_first() {
    let mut bus = wireless_bus(wireless(500.0), &["a", "b"]);
    let a = rated(&mut bus, "a", 200.0);
    let b = rated(&mut bus, "b", 200.0);
    assert_eq!(bus.admission(a), Some(Admission::Admitted));
    assert_eq!(bus.admission(b), Some(Admission::Admitted));

    let changed = bus.update_capability(NetworkId(1), wireless(300.0));
    assert_eq!(changed, vec![b], "300/s carries one 200/s channel: the first");
    assert_eq!(bus.admission(a), Some(Admission::Admitted));
    assert_eq!(bus.admission(b), Some(Admission::Rejected));
}

/// An improved capability admits what now fits beside the incumbents, and
/// never revokes an incumbent's admission to make room for a channel that
/// was announced earlier but rejected.
#[test]
fn an_improved_capability_never_revokes_an_incumbent() {
    // `early` asks for 30 ms, which the slow network cannot offer.
    let slow = NetworkCapability {
        expected_latency: SimDuration::from_millis(150),
        ..NetworkCapability::wireless_nominal()
    };
    let mut bus = wireless_bus(slow, &["early", "late", "small"]);
    let strict = QosRequirement::builder()
        .max_latency(SimDuration::from_millis(30))
        .min_delivery_ratio(0.5)
        .max_rate(300.0)
        .build();
    let early = bus.topic("early").via(NetworkId(1)).announce(strict).subject();
    let late = rated(&mut bus, "late", 300.0);
    let small = rated(&mut bus, "small", 250.0);
    assert_eq!(bus.admission(early), Some(Admission::Rejected), "too slow");
    assert_eq!(bus.admission(late), Some(Admission::Admitted));
    assert_eq!(bus.admission(small), Some(Admission::Rejected), "550/s exceed 500/s");

    // Fast enough for `early` now, but it does not fit beside `late`.
    let changed = bus.update_capability(NetworkId(1), NetworkCapability::wireless_nominal());
    assert!(changed.is_empty(), "{changed:?}");
    // More capacity: the rejected channels follow in announcement order.
    let changed = bus.update_capability(NetworkId(1), wireless(700.0));
    assert_eq!(changed, vec![early], "300 + 300 fit in 700/s, 250 more do not");
    let changed = bus.update_capability(NetworkId(1), wireless(1_000.0));
    assert_eq!(changed, vec![small]);
    for subject in [early, late, small] {
        assert_eq!(bus.admission(subject), Some(Admission::Admitted));
    }
}
