//! Criterion micro-benchmarks for the hot paths of the KARYON reproduction:
//! the safety-manager evaluation cycle, validity combination, Marzullo
//! fusion, self-stabilizing TDMA slot handling and event-channel publication.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use karyon_core::los::Asil;
use karyon_core::{
    Condition, DesignTimeSafetyInfo, HazardAnalysis, LevelOfService, LosSpec, SafetyKernel,
    SafetyRule,
};
use karyon_middleware::{
    EventBus, NetworkCapability, NetworkId, Payload, QosClass, QosRequirement,
};
use karyon_net::mac::{MacSimConfig, MacSimulation};
use karyon_net::{MediumConfig, NodeId, SelfStabTdmaMac, WirelessMedium};
use karyon_sensors::abstract_sensor::combine_outcomes;
use karyon_sensors::detectors::{DetectionOutcome, DetectorClass};
use karyon_sensors::{marzullo_fuse, Interval, Validity};
use karyon_sim::{SimDuration, SimTime, Vec2};

/// A two-level design with 16 single-condition rules at level 1, fed items
/// of the given validity: 0.8 passes every rule, 0.2 fails every rule.
fn kernel_for_bench(validity: f64) -> SafetyKernel {
    let levels = vec![
        LosSpec {
            level: LevelOfService(0),
            description: "fallback".into(),
            rules: vec![],
            asil: Asil::QM,
            performance_index: 1.0,
        },
        LosSpec {
            level: LevelOfService(1),
            description: "cooperative".into(),
            rules: (0..16)
                .map(|i| {
                    SafetyRule::new(
                        &format!("R{i}"),
                        Condition::MinValidity { item: format!("item-{i}"), threshold: 0.5 },
                    )
                })
                .collect(),
            asil: Asil::B,
            performance_index: 2.0,
        },
    ];
    let design = DesignTimeSafetyInfo::new(
        "bench",
        levels,
        HazardAnalysis::new(),
        SimDuration::from_millis(50),
    );
    let mut kernel = SafetyKernel::new(design, SimDuration::from_millis(100));
    for i in 0..16 {
        kernel.info_mut().update_data(
            &format!("item-{i}"),
            1.0,
            Validity::new(validity),
            SimTime::ZERO,
        );
    }
    kernel
}

fn bench_safety_cycle(c: &mut Criterion) {
    let mut kernel = kernel_for_bench(0.8);
    let mut t = 0u64;
    c.bench_function("safety_kernel_cycle_16_rules", |b| {
        b.iter(|| {
            t += 1;
            black_box(kernel.run_cycle(SimTime::from_millis(t)));
        })
    });
    // Every rule fails every cycle, so each decision names 16 violations.
    let mut kernel = kernel_for_bench(0.2);
    let mut t = 0u64;
    c.bench_function("safety_kernel_cycle_16_rules_failing", |b| {
        b.iter(|| {
            t += 1;
            black_box(kernel.run_cycle(SimTime::from_millis(t)));
        })
    });
}

fn bench_validity_combination(c: &mut Criterion) {
    let outcomes: Vec<DetectionOutcome> = (0..8)
        .map(|i| DetectionOutcome::graded(Validity::new(1.0 - i as f64 * 0.05)))
        .chain(std::iter::once(DetectionOutcome::pass(DetectorClass::Dominant)))
        .collect();
    c.bench_function("combine_9_detector_outcomes", |b| {
        b.iter(|| black_box(combine_outcomes(black_box(&outcomes))))
    });
}

fn bench_marzullo(c: &mut Criterion) {
    let intervals: Vec<Interval> =
        (0..9).map(|i| Interval::new(10.0 + i as f64 * 0.1, 12.0 + i as f64 * 0.1)).collect();
    c.bench_function("marzullo_fuse_9_intervals_f2", |b| {
        b.iter(|| black_box(marzullo_fuse(black_box(&intervals), 2)))
    });
}

fn bench_tdma_frame(c: &mut Criterion) {
    c.bench_function("selfstab_tdma_frame_8_nodes", |b| {
        b.iter_batched(
            || {
                let medium = WirelessMedium::new(MediumConfig {
                    range: 1_000.0,
                    loss_probability: 0.0,
                    channels: 1,
                });
                let mut sim = MacSimulation::new(
                    medium,
                    MacSimConfig {
                        slot_duration: SimDuration::from_millis(1),
                        slots_per_frame: 16,
                    },
                    7,
                );
                for i in 0..8 {
                    sim.add_node(
                        NodeId(i),
                        SelfStabTdmaMac::new(),
                        Vec2::new(i as f64 * 10.0, 0.0),
                    );
                }
                sim
            },
            |mut sim| {
                sim.run_slots(16);
                black_box(sim.metrics().collisions)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_event_publish(c: &mut Criterion) {
    // Steady-state v2 hot path: 16 batched mailboxes at capacity, so every
    // publish routes through the cached topic route and the displace-push
    // overload path — zero allocation per iteration.
    let mut bus = EventBus::new(5);
    bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
    for _ in 0..16 {
        bus.topic("bench.topic").subscribe(QosClass::Batched);
    }
    let publisher = bus.topic("bench.topic").announce(QosRequirement::best_effort());
    let mut t = 0u64;
    c.bench_function("event_bus_publish_16_subscribers", |b| {
        b.iter(|| {
            t += 1;
            black_box(bus.publish(&publisher, Payload::tagged(t), SimTime::from_millis(t)))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_safety_cycle, bench_validity_combination, bench_marzullo, bench_tdma_frame, bench_event_publish
}
criterion_main!(benches);
