//! Middleware-layer families: event-channel QoS assessment and adaptation
//! (paper §V-B, experiment e08) and EventBus v2 overload behavior.

use karyon_middleware::{
    Admission, EventBus, NetworkCapability, NetworkId, OverloadStrategy, Payload, QosClass,
    QosRequirement, SubscriptionId,
};
use karyon_sim::{SimDuration, SimTime};

use crate::grid::ParamGrid;
use crate::scenario::{RunRecord, Scenario};
use crate::spec::ScenarioSpec;

/// Event-channel QoS under load and mid-run degradation (§V-B): a fixed-rate
/// publisher on one channel, with the wireless segment optionally degrading
/// halfway through the run.
///
/// The channel's QoS contract — the network segment it is announced on, its
/// latency deadline and its delivery-ratio floor — used to be hard-coded in
/// the e08 harness; here they are ordinary parameters, so the three e08
/// channels (in-vehicle brake command, V2V lead state, V2V hazard warning)
/// are three grid points of the same family.
pub struct MiddlewareQosScenario;

impl Scenario for MiddlewareQosScenario {
    fn name(&self) -> &str {
        "middleware-qos"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("rate_hz", [50.0, 100.0])
            .axis("degrade", [false, true])
            .axis("network", ["wireless", "local"])
            .axis("max_latency_ms", [60, 10, 2])
            .axis("min_delivery_ratio", [0.9, 0.99])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            // Continuous metrics with known scales: stream their campaign
            // quantiles through fixed histograms so million-run sweeps hold
            // no samples.  Flags and counts stay undeclared (exact).
            "mean_latency_ms" => Some((0.0, 250.0)),
            "delivery_ratio" | "deadline_miss_ratio" => Some((0.0, 1.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let rate_hz = spec.f64_or("rate_hz", 50.0).max(1.0);
        let degrade = spec.bool_or("degrade", false);
        let network = match spec.str_or("network", "wireless") {
            "wireless" => NetworkId(1),
            "local" => NetworkId(0),
            other => panic!("unknown qos network {other:?} (expected wireless|local)"),
        };
        let requirement = QosRequirement::builder()
            .max_latency(SimDuration::from_millis(spec.u64_or("max_latency_ms", 60).max(1)))
            .min_delivery_ratio(spec.f64_or("min_delivery_ratio", 0.9))
            .max_rate(rate_hz)
            .build();

        let mut bus = EventBus::new(spec.seed);
        bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
        bus.attach_network(NetworkId(1), NetworkCapability::wireless_nominal());
        let subscription =
            bus.topic("platoon/lead-state").via(network).subscribe(QosClass::Batched);
        let publisher = bus.topic("platoon/lead-state").via(network).announce(requirement);

        // Below ~1 µs the period would round to zero and the publish loop
        // would never advance; one microsecond (the simulator's time
        // quantum) is the floor.
        let period = SimDuration::from_secs_f64(1.0 / rate_hz).max(SimDuration::from_micros(1));
        let end = SimTime::ZERO + spec.duration;
        let mut degrade_at =
            degrade.then(|| SimTime::from_secs_f64(spec.duration.as_secs_f64() / 2.0));
        // Publishes at 0, period, 2·period, … ≤ end.  A publish at the
        // degrade instant itself still goes out before the degradation.
        let mut published: u64 = 0;
        let mut publish_at = SimTime::ZERO;
        while publish_at <= end {
            bus.publish(&publisher, Payload::tagged(published), publish_at);
            published += 1;
            bus.drain_with(subscription, publish_at, usize::MAX, |_| {});
            publish_at += period;
            if degrade_at.is_some_and(|at| at < publish_at && at <= end) {
                degrade_at = None;
                bus.update_capability(NetworkId(1), NetworkCapability::wireless_degraded());
            }
        }

        let mut record = RunRecord::new();
        bus.drain_with(subscription, end, usize::MAX, |_| {});
        let stats = bus.subscription_stats(subscription).expect("subscription exists");
        record.set_flag("admitted", publisher.is_admitted());
        record.set_flag(
            "admitted_after",
            bus.admission(publisher.subject()) == Some(Admission::Admitted),
        );
        record.set("published", published as f64);
        record.set("delivery_ratio", stats.delivery_ratio());
        record.set("mean_latency_ms", stats.mean_latency_ms);
        record.set("missed_deadlines", stats.missed_deadline as f64);
        record.set(
            "deadline_miss_ratio",
            if stats.delivered > 0 {
                stats.missed_deadline as f64 / stats.delivered as f64
            } else {
                0.0
            },
        );
        record
    }
}

/// EventBus v2 under overload: offered load beyond the rated consumer
/// capacity, per-class bounded mailboxes, the bus-wide backlog threshold and
/// the pluggable overload strategies (ROADMAP item 3 — "what happens at 10×
/// rated traffic", the question the paper never ran).
///
/// One publisher streams `overload.stream` at `rated_hz × load_x`; consumers
/// drain at the rated cadence with class-typical discipline (realtime drains
/// everything each tick, batched drains one event per tick — the rated
/// capacity — and background catches up in bulk every eighth tick).  The
/// family reports per-class delivery ratio and P99 delivery latency, which is
/// how the e08 driver shows Realtime holding its latency bound at 10× load
/// while Batched degrades gracefully.
pub struct MiddlewareOverloadScenario;

/// The scenario's per-class mailbox capacities, sized for the rated 100 Hz
/// drain cadence: the capacity bounds the worst-case queueing delay
/// (capacity ÷ service rate), so realtime stays under ~80 ms of queueing and
/// batched under ~640 ms.
fn overload_mailbox_capacity(class: QosClass) -> usize {
    match class {
        QosClass::Realtime => 8,
        QosClass::Batched => 64,
        QosClass::Background => 1024,
    }
}

impl Scenario for MiddlewareOverloadScenario {
    fn name(&self) -> &str {
        "middleware-overload"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("load_x", [10.0, 1.0, 2.0, 20.0])
            .axis("qos_mix", ["mixed", "realtime", "batched", "background"])
            .axis("backlog_threshold", [1024, 64, 4096])
            .axis("strategy", ["class-default", "drop-oldest", "sample", "aggregate"])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "realtime_delivery_ratio" | "batched_delivery_ratio" | "background_delivery_ratio" => {
                Some((0.0, 1.0))
            }
            "realtime_p99_ms" | "batched_p99_ms" | "background_p99_ms" => Some((0.0, 2_000.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let load_x = spec.f64_or("load_x", 10.0).max(0.01);
        let rated_hz = spec.f64_or("rated_hz", 100.0).max(1.0);
        let backlog_threshold = spec.u64_or("backlog_threshold", 1024) as usize;
        let strategy = match spec.str_or("strategy", "class-default") {
            "class-default" => None,
            other => Some(
                OverloadStrategy::from_name(other)
                    .unwrap_or_else(|| panic!("unknown overload strategy {other:?}")),
            ),
        };
        let classes: &[QosClass] = match spec.str_or("qos_mix", "mixed") {
            "mixed" => &[QosClass::Realtime, QosClass::Batched, QosClass::Background],
            "realtime" => &[QosClass::Realtime],
            "batched" => &[QosClass::Batched],
            "background" => &[QosClass::Background],
            other => {
                panic!("unknown qos_mix {other:?} (expected mixed|realtime|batched|background)")
            }
        };

        let mut bus = EventBus::new(spec.seed);
        bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
        bus.set_backlog_threshold(backlog_threshold);
        let mut subs: Vec<(QosClass, SubscriptionId)> = Vec::new();
        for &class in classes {
            let mut topic = bus.topic("overload.stream").mailbox(overload_mailbox_capacity(class));
            if let Some(strategy) = strategy {
                topic = topic.overload(strategy);
            }
            subs.push((class, topic.subscribe(class)));
        }
        let publisher = bus
            .topic("overload.stream")
            .announce(QosRequirement::realtime(SimDuration::from_millis(60), rated_hz * load_x));

        // Same floor as middleware-qos: periods never round below the 1 µs
        // time quantum, so both cadences always advance.
        let publish_period =
            SimDuration::from_secs_f64(1.0 / (rated_hz * load_x)).max(SimDuration::from_micros(1));
        let drain_period =
            SimDuration::from_secs_f64(1.0 / rated_hz).max(SimDuration::from_micros(1));
        let end = SimTime::ZERO + spec.duration;
        // The publish and drain cadences, both from t = 0 to end, merged in
        // time order.  At a coincident instant the publish goes first, so a
        // drain always sees that instant's publish.
        let mut published: u64 = 0;
        let mut peak_backlog: usize = 0;
        let mut drain_tick: u64 = 0;
        let (mut publish_at, mut drain_at) = (SimTime::ZERO, SimTime::ZERO);
        loop {
            if publish_at <= drain_at.min(end) {
                bus.publish(&publisher, Payload::tagged(published), publish_at);
                published += 1;
                peak_backlog = peak_backlog.max(bus.backlog());
                publish_at += publish_period;
            } else if drain_at <= end {
                for &(class, sub) in &subs {
                    let budget = match class {
                        // Realtime consumers keep up; the bus sheds for them.
                        QosClass::Realtime => usize::MAX,
                        // Batched consumers process at exactly the rated
                        // capacity: one event per tick.
                        QosClass::Batched => 1,
                        // Background consumers catch up in bulk.
                        QosClass::Background => {
                            if drain_tick % 8 == 0 {
                                usize::MAX
                            } else {
                                0
                            }
                        }
                    };
                    if budget > 0 {
                        bus.drain_with(sub, drain_at, budget, |_| {});
                    }
                }
                drain_tick += 1;
                drain_at += drain_period;
            } else {
                break;
            }
        }

        let mut record = RunRecord::new();
        record.set("published", published as f64);
        record.set("peak_backlog", peak_backlog as f64);
        for (class, sub) in subs {
            let stats = bus.subscription_stats(sub).expect("subscription exists");
            let prefix = class.name();
            record.set(&format!("{prefix}_delivery_ratio"), stats.delivery_ratio());
            record.set(&format!("{prefix}_p99_ms"), stats.p99_latency_ms);
            record.set(&format!("{prefix}_delivered"), stats.delivered as f64);
            record.set(
                &format!("{prefix}_dropped"),
                (stats.dropped_pressure
                    + stats.dropped_capacity
                    + stats.sampled_out
                    + stats.displaced) as f64,
            );
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn middleware_qos_reports_channel_quality() {
        let qos = MiddlewareQosScenario;
        let record =
            qos.run(&ScenarioSpec::new("middleware-qos").with_seed(5).with_duration_secs(20));
        assert_eq!(record.get("admitted"), Some(1.0));
        assert_eq!(record.get("admitted_after"), Some(1.0), "no degradation, no re-assessment");
        assert!(record.get("delivery_ratio").unwrap() > 0.8);
        assert!(record.get("published").unwrap() > 900.0, "50 Hz × 20 s ≈ 1000 events");
    }

    /// The publish loop must terminate even for rates whose period rounds
    /// below the 1 µs time quantum: those publish once per microsecond.
    #[test]
    fn middleware_qos_terminates_at_extreme_rates() {
        let qos = MiddlewareQosScenario;
        for (rate, published) in [(1.0, 1.0), (997.0, 10.0), (2.5e6, 10_001.0), (1.0e9, 10_001.0)] {
            let record = qos.run(
                &ScenarioSpec::new("middleware-qos")
                    .with("rate_hz", rate)
                    .with_seed(8)
                    .with_duration(SimDuration::from_millis(10)),
            );
            assert_eq!(record.get("published"), Some(published), "rate {rate} Hz");
        }
    }

    /// The e08 admission matrix: a strict deadline over the wireless segment
    /// is rejected at announcement; the admitted V2V channel loses its
    /// admission when the monitored capability degrades mid-run.
    #[test]
    fn qos_contract_parameters_drive_admission() {
        let qos = MiddlewareQosScenario;
        let base = ScenarioSpec::new("middleware-qos").with_seed(4).with_duration_secs(10);
        let strict =
            qos.run(&base.clone().with("max_latency_ms", 10).with("min_delivery_ratio", 0.99));
        assert_eq!(strict.get("admitted"), Some(0.0), "hazard-grade QoS over wireless rejects");
        let local = qos.run(
            &base
                .clone()
                .with("network", "local")
                .with("max_latency_ms", 2)
                .with("min_delivery_ratio", 0.99),
        );
        assert_eq!(local.get("admitted"), Some(1.0), "the in-vehicle bus admits strict QoS");
        let degraded = qos.run(&base.with("degrade", true));
        assert_eq!(degraded.get("admitted"), Some(1.0));
        assert_eq!(
            degraded.get("admitted_after"),
            Some(0.0),
            "degradation must revoke the lead-state admission — the LoS-lowering trigger"
        );
    }

    /// The headline contract of the family: at 10× rated load, Realtime holds
    /// its 60 ms latency bound (shedding instead of queueing) while Batched
    /// keeps delivering a rated-capacity trickle with bounded tail latency.
    #[test]
    fn overload_realtime_holds_latency_bound_at_ten_x() {
        let family = MiddlewareOverloadScenario;
        let record = family.run(&family.default_spec().with_seed(3).with_duration_secs(30));
        assert!(record.get("published").unwrap() > 25_000.0, "10× of 100 Hz over 30 s");
        let rt_p99 = record.get("realtime_p99_ms").unwrap();
        assert!(rt_p99 <= 60.0, "realtime P99 {rt_p99} ms must hold the 60 ms bound at 10×");
        let batched_ratio = record.get("batched_delivery_ratio").unwrap();
        assert!(
            batched_ratio > 0.05 && batched_ratio < 0.5,
            "batched delivers its rated trickle under 10× load, got {batched_ratio}"
        );
        let batched_p99 = record.get("batched_p99_ms").unwrap();
        assert!(
            batched_p99 > rt_p99 && batched_p99 < 2_000.0,
            "batched trades latency ({batched_p99} ms) for coverage, but stays bounded"
        );
        assert!(
            record.get("background_delivery_ratio").unwrap() > 0.9,
            "the large background mailbox absorbs the burst between bulk drains"
        );
    }

    /// A tight bus-wide backlog threshold makes realtime shed aggressively;
    /// a loose one lets its mailbox do the limiting.
    #[test]
    fn overload_backlog_threshold_gates_realtime_shedding() {
        let family = MiddlewareOverloadScenario;
        let base = family.default_spec().with_seed(9).with_duration_secs(20);
        let tight = family.run(&base.clone().with("backlog_threshold", 16));
        let loose = family.run(&base.with("backlog_threshold", 4096));
        let tight_ratio = tight.get("realtime_delivery_ratio").unwrap();
        let loose_ratio = loose.get("realtime_delivery_ratio").unwrap();
        assert!(
            tight_ratio < loose_ratio / 2.0,
            "threshold 16 must shed far more than 4096: {tight_ratio} vs {loose_ratio}"
        );
        assert!(tight.get("realtime_p99_ms").unwrap() <= 60.0, "shedding never buys latency");
    }

    /// Aggregation coalesces the overflow instead of dropping it: nearly
    /// every published event is *represented* in some delivered summary.
    #[test]
    fn overload_aggregate_strategy_represents_the_whole_stream() {
        let family = MiddlewareOverloadScenario;
        let base =
            family.default_spec().with("qos_mix", "batched").with_seed(11).with_duration_secs(20);
        let aggregated = family.run(&base.clone().with("strategy", "aggregate"));
        let dropping = family.run(&base.with("strategy", "drop-oldest"));
        let agg_ratio = aggregated.get("batched_delivery_ratio").unwrap();
        let drop_ratio = dropping.get("batched_delivery_ratio").unwrap();
        assert!(agg_ratio > 0.9, "aggregation represents the stream, got {agg_ratio}");
        assert!(drop_ratio < 0.5, "drop-oldest sheds the overflow, got {drop_ratio}");
    }
}
