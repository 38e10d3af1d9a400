//! End-to-end campaign orchestration demo.
//!
//! Declares a mixed fault-injection campaign over four scenario families —
//! the randomized platoon fault campaign (generalising bench e15), the
//! intersection with a mid-run infrastructure-light failure, the
//! event-channel QoS stack, and the core-layer safety-kernel latency family
//! (the promoted e14 body) — expands it into 230 runs, executes it twice
//! (single-threaded and on all cores, with a deliberately small canonical
//! chunk size so several chunk merges happen), verifies the two reports are
//! **bit-identical**, streams every raw record through a JSONL sink, and
//! prints the aggregates as tables and JSON.
//!
//! Run with: `cargo run --release --example campaign`

use std::time::Instant;

use karyon::scenario::{builtin_registry, Campaign, CampaignEntry, JsonlRunWriter, ParamGrid};
use karyon::sim::SimDuration;

fn build_campaign() -> Campaign {
    Campaign::new("mixed-fault-campaign", 2_026)
        // A small canonical chunk so this demo exercises the chunked
        // aggregation path (230 runs → 15 chunk merges); real campaigns
        // keep the 4096-run default.
        .with_chunk_size(16)
        // 1. Randomized sensor-fault + V2V-outage injection into the platoon,
        //    per control strategy (the e15 experiment, 30 seeds per strategy).
        .entry(
            CampaignEntry::new("platoon-fault")
                .grid(ParamGrid::new().axis("mode", ["kernel", "los2", "los0"]))
                .replications(30)
                .duration(SimDuration::from_secs(140)),
        )
        // 2. Intersection crossing while the infrastructure light fails for
        //    the middle third of the run: VTL fallback vs. uncoordinated.
        .entry(
            CampaignEntry::new("intersection")
                .grid(
                    ParamGrid::new()
                        .axis("fallback", ["vtl", "uncoordinated"])
                        .axis("light_fail", [true]),
                )
                .replications(30)
                .duration(SimDuration::from_secs(300)),
        )
        // 3. Event-channel QoS under nominal and degrading wireless capability.
        .entry(
            CampaignEntry::new("middleware-qos")
                .grid(ParamGrid::new().axis("degrade", [false, true]))
                .replications(30)
                .duration(SimDuration::from_secs(60)),
        )
        // 4. A core-layer scenario: safety-kernel evaluation with a growing
        //    rule set (the promoted e14 body) — the campaign sweeps a knob
        //    the bench harness used to hard-code.
        .entry(
            CampaignEntry::new("kernel-latency")
                .grid(ParamGrid::new().axis("rules_per_level", [8, 32]).axis("cycles", [2_000]))
                .replications(10),
        )
}

fn main() {
    let registry = builtin_registry();
    let campaign = build_campaign();
    println!(
        "campaign {:?}: {} runs across {} scenario families\n",
        "mixed-fault-campaign",
        campaign.run_count(),
        campaign.entries().len()
    );

    // Reference execution on one worker, then the parallel execution with a
    // JSONL sink capturing every raw record in canonical run order.
    let t0 = Instant::now();
    let serial = campaign.clone().with_threads(1).run(&registry).expect("builtin families");
    let serial_elapsed = t0.elapsed();
    let mut jsonl = JsonlRunWriter::new(Vec::new());
    let t1 = Instant::now();
    let (outcome, _) =
        campaign.session(&registry).sink(&mut jsonl).run().expect("builtin families");
    let parallel_elapsed = t1.elapsed();
    let parallel = outcome.into_report().expect("a plain session completes");

    // The determinism contract of the runner: same campaign seed and chunk
    // size ⇒ the same report, bit for bit, regardless of worker count.
    assert_eq!(serial, parallel, "reports must not depend on the worker count");
    assert_eq!(serial.to_json(), parallel.to_json());
    println!(
        "determinism check: 1-thread and N-thread aggregates are bit-identical \
         ({} runs, serial {:.2?}, parallel {:.2?})\n",
        parallel.total_runs, serial_elapsed, parallel_elapsed
    );
    assert_eq!(jsonl.written(), parallel.total_runs);
    let artifact = jsonl.finish().expect("in-memory writes cannot fail");
    println!(
        "per-run artifact stream: {} JSONL lines, {} bytes (aggregation itself retained no \
         records)\n",
        parallel.total_runs,
        artifact.len()
    );

    // Aligned-text views: the headline safety metrics per family.
    parallel.metric_table("collision").print();
    parallel.metric_table("conflicts").print();
    parallel.metric_table("delivery_ratio").print();
    parallel.metric_table("worst_case_reaction_ms").print();
    parallel.summary_table().print();

    // Structured output for downstream tooling.
    println!("\n--- JSON report ---");
    println!("{}", parallel.to_json());
}
