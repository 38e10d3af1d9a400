//! A warm safety-kernel cycle allocates nothing, and neither does a warm
//! EventBus publish or drain.
//!
//! The kernel compiles its rules against its own store once, and reuses one
//! decision for every cycle, so after warm-up a LoS cycle is indexed loads
//! and compares — on the all-pass path and on a path where rules fail every
//! cycle — and writing a known name into the store is an in-place update.
//!
//! The bus compiles each topic's fan-out once, and its mailboxes are rings
//! allocated at subscription time, so after warm-up a publish — under all
//! four overload strategies, through a context filter and with realtime
//! copies shed under backlog pressure — and a `drain_with`, of one event or
//! of everything queued, move `Copy` values only.
//!
//! A counting global allocator sees every allocation of this test binary and
//! charges it to the allocating thread, so the harness's own threads cannot
//! disturb a count.  The binary holds a single test function, so no other
//! test allocates at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use karyon::core::los::Asil;
use karyon::core::{
    Condition, DesignTimeSafetyInfo, HazardAnalysis, LevelOfService, LosSpec, SafetyKernel,
    SafetyRule,
};
use karyon::middleware::{
    ContextFilter, EventBus, NetworkCapability, NetworkId, OverloadStrategy, Payload, Publisher,
    QosClass, QosRequirement, SubscriptionId, SubscriptionStats,
};
use karyon::sensors::Validity;
use karyon::sim::{SimDuration, SimTime, Vec2};

/// Counts every allocation and reallocation of the calling thread, then
/// defers to the system allocator.
struct Counting;

thread_local! {
    // A `const` initialiser without a destructor: reading it never
    // allocates, so the allocator cannot recurse into itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // The slot is gone while a thread tears down; nothing is measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `work` runs.
fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// Data items and components of the design; every rule names some of them.
const ITEMS: [&str; 4] = ["range", "lead-state", "speed", "gap"];
const COMPONENTS: [&str; 2] = ["v2v", "radar"];

/// Three levels whose rules use every leaf kind and nested `All`/`Any`;
/// level 2 asks for more validity than level 1.
fn design() -> DesignTimeSafetyInfo {
    let rules = |level: u8, threshold: f64| -> Vec<SafetyRule> {
        ITEMS
            .iter()
            .zip(COMPONENTS.iter().cycle())
            .enumerate()
            .map(|(i, (item, component))| {
                SafetyRule::new(
                    &format!("R{level}-{i}"),
                    Condition::All(vec![
                        Condition::MinValidity { item: item.to_string(), threshold },
                        Condition::MaxAge {
                            item: item.to_string(),
                            bound: SimDuration::from_millis(500),
                        },
                        Condition::Any(vec![
                            Condition::ComponentHealthy { component: component.to_string() },
                            Condition::All(vec![
                                Condition::MinValue { item: item.to_string(), bound: 0.0 },
                                Condition::MaxValue { item: item.to_string(), bound: 100.0 },
                            ]),
                        ]),
                    ]),
                )
            })
            .collect()
    };
    let spec = |level: u8, rules: Vec<SafetyRule>| LosSpec {
        level: LevelOfService(level),
        description: format!("level {level}"),
        rules,
        asil: Asil::B,
        performance_index: f64::from(level),
    };
    DesignTimeSafetyInfo::new(
        "alloc",
        vec![spec(0, Vec::new()), spec(1, rules(1, 0.5)), spec(2, rules(2, 0.95))],
        HazardAnalysis::new(),
        SimDuration::from_millis(50),
    )
}

/// A kernel fed every item at `validity` at t = 0, with every component
/// reported `healthy`, warmed up by ten cycles.
fn warm_kernel(validity: f64, healthy: bool) -> SafetyKernel {
    let mut kernel = SafetyKernel::new(design(), SimDuration::from_millis(100));
    for item in ITEMS {
        kernel.info_mut().update_data(item, 10.0, Validity::new(validity), SimTime::ZERO);
    }
    for component in COMPONENTS {
        kernel.info_mut().update_health(component, healthy, SimTime::ZERO);
    }
    for t in 0..10 {
        kernel.run_cycle(SimTime::from_micros(t));
    }
    kernel
}

/// Runs 1,000 cycles within the items' freshness bound and checks that each
/// selects `level` with `failed` violations.
fn cycles(kernel: &mut SafetyKernel, level: LevelOfService, failed: usize) -> u64 {
    let mut wrong = 0u64;
    let allocations = allocations_during(|| {
        for t in 10..1_010 {
            let decision = kernel.run_cycle(SimTime::from_micros(t));
            wrong += u64::from(decision.selected != level || decision.violations.len() != failed);
        }
    });
    assert_eq!(wrong, 0, "every cycle selects {level} with {failed} violations");
    allocations
}

#[test]
fn warm_cycles_and_known_name_updates_do_not_allocate() {
    // All pass: both cooperative levels hold.
    let mut passing = warm_kernel(0.99, true);
    assert_eq!(cycles(&mut passing, LevelOfService(2), 0), 0, "all-pass cycles allocated");

    // Every rule of level 1 fails its validity check, every cycle.
    let mut failing = warm_kernel(0.2, false);
    assert_eq!(cycles(&mut failing, LevelOfService(0), ITEMS.len()), 0, "failing cycles allocated");

    // Level 1 holds through the value range of its `Any` while the
    // components are down; every rule of level 2 fails its validity check.
    let mut rejected = warm_kernel(0.9, false);
    assert_eq!(
        cycles(&mut rejected, LevelOfService(1), ITEMS.len()),
        0,
        "cycles rejecting level 2 allocated"
    );

    // Updating known names writes in place.
    let info = passing.info_mut();
    let allocations = allocations_during(|| {
        for t in 0..1_000u64 {
            let now = SimTime::from_micros(t);
            for item in ITEMS {
                info.update_data(item, t as f64, Validity::new(0.8), now);
            }
            for component in COMPONENTS {
                info.update_health(component, t % 2 == 0, now);
            }
        }
    });
    assert_eq!(allocations, 0, "known-name updates allocated");
    // The counter does see the store learn a new name.
    let allocations =
        allocations_during(|| info.update_data("new-item", 1.0, Validity::FULL, SimTime::ZERO));
    assert!(allocations > 0, "interning a new name must be counted");

    // A warm bus: publishes and drains move `Copy` values only.
    let (mut bus, subscriptions, hot, bulk) = warm_bus();
    let stats = |bus: &EventBus| -> Vec<SubscriptionStats> {
        subscriptions.iter().map(|&sub| bus.subscription_stats(sub).unwrap()).collect()
    };
    let before = stats(&bus);
    let allocations = allocations_during(|| bus_traffic(&mut bus, &subscriptions, &hot, &bulk, 1));
    assert_eq!(allocations, 0, "warm publishes and drains allocated");
    // The counted round took every path it is meant to cover.
    let after = stats(&bus);
    let grew =
        |i: usize, counter: fn(&SubscriptionStats) -> u64| counter(&after[i]) > counter(&before[i]);
    assert!(grew(0, |s| s.dropped_pressure), "realtime never met backlog pressure");
    assert!(grew(1, |s| s.displaced), "drop-oldest never displaced");
    assert!(grew(2, |s| s.sampled_out), "sample never sampled out");
    assert!(grew(3, |s| s.aggregated_merged), "aggregate never coalesced");
    assert!(grew(4, |s| s.dropped_capacity), "drop-newest never dropped");
    assert!(grew(4, |s| s.filtered_out), "the context filter never rejected");
    assert!((0..after.len()).all(|i| grew(i, |s| s.delivered)), "a subscription never delivered");
}

/// The bus-wide backlog threshold of [`warm_bus`].
const BUS_THRESHOLD: usize = 24;

/// A bus whose two topics, `bus.hot` and `bus.bulk`, route to subscriptions
/// under every overload strategy, one of them behind a context filter,
/// warmed up by one round of [`bus_traffic`].  The subscriptions are, in
/// order: realtime (drop-newest) and sample on `bus.hot`; drop-oldest,
/// aggregate, and drop-newest behind the filter on `bus.bulk`.
fn warm_bus() -> (EventBus, Vec<SubscriptionId>, Publisher, Publisher) {
    let mut bus = EventBus::new(11);
    bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
    bus.set_backlog_threshold(BUS_THRESHOLD);
    let subscriptions = vec![
        bus.topic("bus.hot").mailbox(8).subscribe(QosClass::Realtime),
        bus.topic("bus.bulk")
            .mailbox(4)
            .overload(OverloadStrategy::DropOldest)
            .subscribe(QosClass::Batched),
        bus.topic("bus.hot")
            .mailbox(4)
            .overload(OverloadStrategy::Sample { keep_1_in: 3 })
            .subscribe(QosClass::Background),
        bus.topic("bus.bulk")
            .mailbox(2)
            .overload(OverloadStrategy::Aggregate)
            .subscribe(QosClass::Background),
        bus.topic("bus.bulk")
            .mailbox(16)
            .overload(OverloadStrategy::DropNewest)
            .filter(ContextFilter::within(Vec2::ZERO, 100.0))
            .subscribe(QosClass::Batched),
    ];
    let hot = bus.topic("bus.hot").announce(QosRequirement::best_effort());
    let bulk = bus.topic("bus.bulk").announce(QosRequirement::best_effort());
    bus_traffic(&mut bus, &subscriptions, &hot, &bulk, 0);
    (bus, subscriptions, hot, bulk)
}

/// 2,000 steps of round `round`: each publishes once on each topic (the
/// bulk payloads alternate inside and outside the filter's region); every
/// 10th step drains one event from each subscription, and every 50th drains
/// them all, so the backlog climbs past [`BUS_THRESHOLD`] and falls back each
/// cycle.
fn bus_traffic(
    bus: &mut EventBus,
    subscriptions: &[SubscriptionId],
    hot: &Publisher,
    bulk: &Publisher,
    round: u64,
) {
    for step in 0..2_000u64 {
        let now = SimTime::from_millis(round * 2_000 + step);
        bus.publish(hot, Payload::tagged(step), now);
        let x = if step % 2 == 0 { 5.0 } else { 5_000.0 };
        bus.publish(bulk, Payload::at(Vec2::new(x, 0.0), step), now);
        if step % 10 == 9 {
            for &sub in subscriptions {
                bus.drain_with(sub, now, 1, |_| {});
            }
        }
        if step % 50 == 49 {
            for &sub in subscriptions {
                bus.drain_with(sub, now, usize::MAX, |_| {});
            }
        }
    }
}
