//! E08 — Event-channel QoS: admission, adaptation, and overload (§V-B, Fig. 5).
//!
//! Part 1 (admission): three event channels with different QoS requirements
//! — an in-vehicle brake command, the V2V lead-state stream and a strict V2V
//! hazard warning — are three campaign entries over the `middleware-qos`
//! family, whose QoS contract (network segment, latency deadline,
//! delivery-ratio floor) is parameterised.  The `degrade` axis shows the
//! dynamic re-assessment reacting when the monitored wireless capability
//! degrades mid-run.
//!
//! Part 2 (overload): the question the paper never ran — what happens at 10×
//! (and 20×) the rated traffic — swept over the `middleware-overload` family.
//! The table reports per-QoS-class delivery ratio and P99 delivery latency:
//! the Realtime class must hold its 60 ms latency bound at every offered
//! load (it sheds instead of queueing), while Batched degrades gracefully —
//! delivery ratio falls towards rated-capacity ÷ offered-load but tail
//! latency stays bounded by its mailbox.

use karyon_bench::run_campaign;
use karyon_sim::table::{fmt3, fmt_pct};
use karyon_sim::Table;

const QOS_SPEC: &str = r#"{
  "name": "e08-middleware-qos", "seed": 3,
  "entries": [
    {"scenario": "middleware-qos", "replications": 3, "duration_secs": 10,
     "grid": {"network": ["local"], "max_latency_ms": [2],
              "min_delivery_ratio": [0.99], "rate_hz": [50.0],
              "degrade": [false, true]}},
    {"scenario": "middleware-qos", "replications": 3, "duration_secs": 10,
     "grid": {"network": ["wireless"], "max_latency_ms": [60],
              "min_delivery_ratio": [0.9], "rate_hz": [50.0],
              "degrade": [false, true]}},
    {"scenario": "middleware-qos", "replications": 3, "duration_secs": 10,
     "grid": {"network": ["wireless"], "max_latency_ms": [10],
              "min_delivery_ratio": [0.99], "rate_hz": [20.0],
              "degrade": [false, true]}}
  ]
}"#;

const OVERLOAD_SPEC: &str = r#"{
  "name": "e08-middleware-overload", "seed": 17,
  "entries": [
    {"scenario": "middleware-overload", "replications": 3, "duration_secs": 30,
     "grid": {"load_x": [1.0, 2.0, 10.0, 20.0], "qos_mix": ["mixed"],
              "backlog_threshold": [1024], "strategy": ["class-default"]}}
  ]
}"#;

/// The Realtime latency bound the overload table is scored against (the
/// `max_latency` of the announced channel in the family).
const REALTIME_BOUND_MS: f64 = 60.0;

fn channel_label(network: &str, latency: i64) -> &'static str {
    match (network, latency) {
        ("local", _) => "brake-command (local, 2 ms)",
        (_, 60) => "lead-state (V2V, 60 ms)",
        _ => "hazard-warning (V2V, 10 ms)",
    }
}

fn qos_admission_campaign() {
    let (report, _, _) = run_campaign(QOS_SPEC);
    assert_eq!(report.suspect_runs(), 0, "the publish loop never schedules into the past");
    let mut table = Table::new(
        "E08a — event-channel QoS admission and delivered quality (10 s, 3 seeds)",
        &[
            "channel",
            "degraded mid-run",
            "admitted",
            "delivered/published",
            "mean latency [ms]",
            "deadline misses",
            "admitted after",
        ],
    );
    for point in &report.points {
        let network = point.params["network"].as_str().unwrap();
        let latency = point.params["max_latency_ms"].as_i64().unwrap();
        table.add_row(&[
            channel_label(network, latency).to_string(),
            point.params["degrade"].to_string(),
            fmt_pct(point.metrics["admitted"].mean),
            fmt_pct(point.metrics["delivery_ratio"].mean),
            fmt3(point.metrics["mean_latency_ms"].mean),
            fmt3(point.metrics["missed_deadlines"].mean),
            fmt_pct(point.metrics["admitted_after"].mean),
        ]);
        // Consistency with the pre-refactor harness: the strict
        // hazard-warning channel is rejected over the wireless segment at
        // announcement time; the others are admitted.
        let expected_admission = if network == "wireless" && latency == 10 { 0.0 } else { 1.0 };
        assert_eq!(
            point.metrics["admitted"].mean,
            expected_admission,
            "admission decision changed for {}",
            point.params_label()
        );
    }
    table.print();
    println!(
        "Expectation (paper §V-B): the strict hazard-warning channel cannot be guaranteed over the\n\
         wireless segment and is rejected at announcement time; the in-vehicle channel keeps\n\
         sub-millisecond latency; when the monitored capability degrades, the lead-state channel\n\
         loses its admission — the trigger the safety kernel uses to lower the LoS.\n"
    );
}

fn overload_campaign() {
    let (report, _, _) = run_campaign(OVERLOAD_SPEC);
    assert_eq!(report.suspect_runs(), 0, "the overload loops never schedule into the past");
    let mut table = Table::new(
        "E08b — EventBus v2 under overload: delivery ratio and P99 latency per QoS class \
         (30 s, 3 seeds, rated 100 Hz)",
        &[
            "offered load",
            "realtime del.",
            "realtime P99 [ms]",
            "batched del.",
            "batched P99 [ms]",
            "background del.",
            "background P99 [ms]",
        ],
    );
    let mut prev_batched_ratio = f64::INFINITY;
    for point in &report.points {
        let load = point.params["load_x"].as_f64().unwrap();
        let rt_ratio = point.metrics["realtime_delivery_ratio"].mean;
        let rt_p99 = point.metrics["realtime_p99_ms"].mean;
        let batched_ratio = point.metrics["batched_delivery_ratio"].mean;
        let batched_p99 = point.metrics["batched_p99_ms"].mean;
        table.add_row(&[
            format!("{load}x"),
            fmt_pct(rt_ratio),
            fmt3(rt_p99),
            fmt_pct(batched_ratio),
            fmt3(batched_p99),
            fmt_pct(point.metrics["background_delivery_ratio"].mean),
            fmt3(point.metrics["background_p99_ms"].mean),
        ]);
        // The headline acceptance contract: Realtime holds its latency bound
        // at every offered load — including 10× and 20× rated — because it
        // sheds under pressure instead of queueing.
        assert!(
            rt_p99 <= REALTIME_BOUND_MS,
            "realtime P99 {rt_p99} ms broke the {REALTIME_BOUND_MS} ms bound at {load}x load"
        );
        // Batched degrades gracefully: its delivery ratio falls monotonically
        // with offered load (towards rated ÷ offered), and its tail latency
        // stays bounded by the mailbox instead of growing without limit.
        assert!(
            batched_ratio <= prev_batched_ratio + 0.05,
            "batched delivery ratio must fall (or hold) as load grows: \
             {batched_ratio} after {prev_batched_ratio} at {load}x"
        );
        assert!(
            batched_p99 < 2_000.0,
            "batched P99 {batched_p99} ms must stay mailbox-bounded at {load}x load"
        );
        prev_batched_ratio = batched_ratio;
    }
    table.print();
    println!(
        "Expectation (ROADMAP item 3): at 10× rated traffic the Realtime class still meets its\n\
         {REALTIME_BOUND_MS} ms P99 bound by shedding load (drop-on-pressure), Batched keeps a \
         rated-capacity\ntrickle with mailbox-bounded tail latency (drop-oldest), and the large \
         Background mailbox\nabsorbs the bursts between bulk drains."
    );
}

fn main() {
    qos_admission_campaign();
    overload_campaign();
}
