//! Integration tests for the `karyon-telemetry` flight recorder wired
//! through the campaign runner: deterministic trace streams (bit-identical
//! for any worker count and across checkpoint/resume boundaries), report
//! byte-identity with and without telemetry attached, the `net-transport`
//! family's `engine.run` span, and the wall-clock metrics registry (campaign
//! runner + event bus exports).

use std::sync::Arc;

use proptest::prelude::*;

use karyon::middleware::{
    EventBus, NetworkCapability, NetworkId, Payload, QosClass, QosRequirement,
};
use karyon::scenario::{
    builtin_registry, Campaign, CampaignEntry, CampaignTelemetry, Checkpointer, ParamGrid,
    RunRecord, Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon::sim::SimTime;
use karyon::telemetry::{trace, AttrValue, JsonlTraceWriter, MetricsRegistry};

/// A deterministic scenario that emits one `tick` trace event every 2 ms.
struct Ticker;

impl Scenario for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let steps = spec.f64_or("steps", 5.0) as u64;
        for step in 0..steps {
            let left = AttrValue::U64(steps - step);
            trace::event("tick", SimTime::from_millis(2 * step), &[("left", left)]);
        }
        let mut record = RunRecord::new();
        record.set("ticks", steps as f64);
        record
    }
}

fn ticker_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Ticker));
    registry
}

fn ticker_campaign(threads: usize) -> Campaign {
    Campaign::new("telemetry-it", 77).with_threads(threads).with_chunk_size(3).entry(
        CampaignEntry::new("ticker")
            .grid(ParamGrid::new().axis("steps", [3.0, 6.0]))
            .replications(7),
    )
}

/// Runs the campaign with a byte-buffer trace writer and returns
/// `(report json, trace bytes)`.
fn traced_run(threads: usize) -> (String, Vec<u8>) {
    let mut writer = JsonlTraceWriter::new(Vec::new());
    let (outcome, _) = ticker_campaign(threads)
        .session(&ticker_registry())
        .telemetry(CampaignTelemetry::none().with_trace(&mut writer))
        .run()
        .expect("campaign runs");
    let report = outcome.into_report().expect("a plain session completes");
    (report.to_json(), writer.into_inner().expect("no I/O error"))
}

#[test]
fn trace_stream_is_bit_identical_for_any_worker_count() {
    let (report_one, trace_one) = traced_run(1);
    assert!(!trace_one.is_empty(), "a ticking campaign must trace");
    for threads in [2, 4, 8] {
        let (report_many, trace_many) = traced_run(threads);
        assert_eq!(report_one, report_many, "threads = {threads}");
        assert_eq!(trace_one, trace_many, "trace bytes, threads = {threads}");
    }
}

#[test]
fn report_is_byte_identical_with_and_without_telemetry() {
    let untraced = ticker_campaign(4).run(&ticker_registry()).expect("campaign runs").to_json();
    let mut writer = JsonlTraceWriter::new(Vec::new());
    let mut metrics = MetricsRegistry::new();
    let (outcome, _) = ticker_campaign(4)
        .session(&ticker_registry())
        .telemetry(CampaignTelemetry::none().with_trace(&mut writer).with_metrics(&mut metrics))
        .run()
        .expect("campaign runs");
    let report = outcome.into_report().expect("a plain session completes");
    assert_eq!(report.to_json(), untraced, "telemetry must never change the report");
    assert_eq!(metrics.counter("campaign.runs"), 14);
    assert_eq!(metrics.counter("campaign.chunks"), 5);
    assert!(metrics.timer("campaign.chunk_ms").is_some());
    assert_eq!(metrics.gauge("campaign.workers"), Some(4.0));
}

#[test]
fn trace_stream_stitches_bit_identically_across_checkpoint_resume() {
    let (_, uninterrupted) = traced_run(2);
    let dir = std::env::temp_dir().join(format!("karyon-telemetry-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let registry = ticker_registry();
    let chunks = ticker_campaign(1).canonical_chunks();
    for boundary in 1..chunks {
        let path = dir.join(format!("b{boundary}.json"));
        let mut stitched = Vec::new();
        // First session: `boundary` chunks, then a clean interruption.
        let mut first = JsonlTraceWriter::new(Vec::new());
        let ckpt = Checkpointer::new(&path).max_chunks_per_session(boundary);
        let (outcome, _) = ticker_campaign(2)
            .session(&registry)
            .checkpointer(&ckpt)
            .telemetry(CampaignTelemetry::none().with_trace(&mut first))
            .run()
            .expect("first session");
        assert!(!outcome.is_complete(), "boundary {boundary} interrupts");
        stitched.extend_from_slice(&first.into_inner().expect("no I/O error"));
        // Second session: resume with a different worker count, append.
        let mut second = JsonlTraceWriter::new(Vec::new());
        let ckpt = Checkpointer::new(&path);
        let (outcome, _) = ticker_campaign(4)
            .session(&registry)
            .checkpointer(&ckpt)
            .resume(ckpt.load().expect("the first session checkpointed"))
            .telemetry(CampaignTelemetry::none().with_trace(&mut second))
            .run()
            .expect("resumed session");
        assert!(outcome.is_complete());
        stitched.extend_from_slice(&second.into_inner().expect("no I/O error"));
        assert_eq!(stitched, uninterrupted, "boundary {boundary}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn event_bus_exports_per_class_metrics() {
    let mut bus = EventBus::new(1);
    bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
    let rt = bus.topic("a.rt").subscribe(QosClass::Realtime);
    let bg = bus.topic("a.bg").subscribe(QosClass::Background);
    let rt_pub = bus.topic("a.rt").announce(QosRequirement::best_effort());
    let bg_pub = bus.topic("a.bg").announce(QosRequirement::best_effort());
    for i in 0..10u64 {
        bus.publish(&rt_pub, Payload::tagged(i), SimTime::from_millis(i));
        bus.publish(&bg_pub, Payload::tagged(i), SimTime::from_millis(i));
    }
    bus.drain_with(rt, SimTime::from_millis(50), usize::MAX, |_| {});
    bus.drain_with(bg, SimTime::from_millis(50), usize::MAX, |_| {});

    let mut metrics = MetricsRegistry::new();
    bus.export_metrics("bus", &mut metrics);
    assert_eq!(metrics.counter("bus.published"), 20);
    assert_eq!(metrics.gauge("bus.subscriptions"), Some(2.0));
    let rt_stats = bus.subscription_stats(rt).unwrap();
    assert_eq!(metrics.counter("bus.realtime.matched"), rt_stats.matched);
    assert_eq!(metrics.counter("bus.realtime.delivered"), rt_stats.delivered);
    let latency =
        metrics.timer("bus.realtime.latency_ms").expect("delivered events record latency");
    assert_eq!(latency.count(), rt_stats.delivered);
    // No batched subscription existed: its counters export as zero and no
    // empty histogram is materialised.
    assert_eq!(metrics.counter("bus.batched.matched"), 0);
    assert!(metrics.timer("bus.batched.latency_ms").is_none());
    // Exports are additive: a second export doubles the counters (two buses
    // aggregate into one registry) and merges the latency histograms.
    bus.export_metrics("bus", &mut metrics);
    assert_eq!(metrics.counter("bus.published"), 40);
    let merged = metrics.timer("bus.realtime.latency_ms").unwrap();
    assert_eq!(merged.count(), 2 * rt_stats.delivered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the (seed, replication, worker-count) shape, the traced
    /// stream is a pure function of the campaign definition.
    #[test]
    fn trace_stream_determinism_holds_for_arbitrary_campaigns(
        seed in 0u64..1_000,
        replications in 1u64..6,
        threads in 2usize..6,
    ) {
        let build = |threads: usize| {
            Campaign::new("prop", seed)
                .with_threads(threads)
                .with_chunk_size(2)
                .entry(CampaignEntry::new("ticker").replications(replications))
        };
        let run = |threads: usize| {
            let mut writer = JsonlTraceWriter::new(Vec::new());
            let (outcome, _) = build(threads)
                .session(&ticker_registry())
                .telemetry(CampaignTelemetry::none().with_trace(&mut writer))
                .run()
                .expect("campaign runs");
            let report = outcome.into_report().expect("a plain session completes");
            (report.to_json(), writer.into_inner().expect("no I/O error"))
        };
        let (report_one, trace_one) = run(1);
        let (report_many, trace_many) = run(threads);
        prop_assert_eq!(report_one, report_many);
        prop_assert_eq!(trace_one, trace_many);
    }
}

/// The `net-transport` family traces one `engine.run` summary span per run:
/// the fabric's deliveries, nothing left in flight, and no clamp.
#[test]
fn net_transport_family_traces_its_engine_run() {
    let mut writer = JsonlTraceWriter::new(Vec::new());
    let campaign =
        Campaign::new("transport", 5).entry(CampaignEntry::new("net-transport").replications(2));
    let (_, _) = campaign
        .session(&builtin_registry())
        .telemetry(CampaignTelemetry::none().with_trace(&mut writer))
        .run()
        .expect("builtin family runs");
    let bytes = writer.into_inner().expect("no I/O error");
    let text = String::from_utf8(bytes).unwrap();
    let spans: Vec<&str> = text.lines().filter(|l| l.contains("\"engine.run\"")).collect();
    assert_eq!(spans.len(), 2, "one summary span per run:\n{text}");
    for span in spans {
        assert!(span.contains("\"pending\":0,\"clamped\":0}"), "drained, no clamp: {span}");
        assert!(!span.contains("\"processed\":0,"), "the fabric's deliveries are counted: {span}");
    }
}
