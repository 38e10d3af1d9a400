//! Checkpoint & resume demo: a campaign is preempted twice and still
//! produces a report byte-identical to an uninterrupted run.
//!
//! The flow mirrors what the `karyon-campaign` CLI automates — run with a
//! bounded work slice (a stand-in for a kill or a preempted instance),
//! recover the JSONL artifact stream with `truncate_jsonl`, resume from the
//! checkpoint manifest with a *different* worker count, and compare bytes at
//! the end.
//!
//! Run with: `cargo run --release --example checkpoint_resume`

use std::fs;
use std::io::Write as _;

use karyon::scenario::{
    builtin_registry, truncate_jsonl, Campaign, CampaignEntry, CampaignOutcome, CheckpointManifest,
    Checkpointer, JsonlRunWriter, ParamGrid,
};

fn build_campaign() -> Campaign {
    // Small chunks so the demo interrupts mid-campaign several times.
    Campaign::new("resumable-demo", 4_001)
        .with_chunk_size(8)
        .entry(
            CampaignEntry::new("lane-change")
                .grid(ParamGrid::new().axis("coordination", ["agreement", "none"]))
                .replications(24)
                .duration_secs(45),
        )
        .entry(
            CampaignEntry::new("middleware-qos")
                .grid(ParamGrid::new().axis("degrade", [false, true]))
                .replications(16)
                .duration_secs(20),
        )
}

fn main() {
    let registry = builtin_registry();
    let dir = std::env::temp_dir().join(format!("karyon-resume-demo-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir is writable");
    let ckpt_path = dir.join("campaign.ckpt.json");
    let jsonl_path = dir.join("runs.jsonl");

    // The reference: one uninterrupted run, JSONL captured in memory.
    let reference_campaign = build_campaign();
    let mut reference_jsonl = JsonlRunWriter::new(Vec::new());
    let (outcome, _) = reference_campaign
        .session(&registry)
        .sink(&mut reference_jsonl)
        .run()
        .expect("builtin families");
    let reference = outcome.into_report().expect("a plain session completes");
    let reference_bytes = reference_jsonl.finish().expect("in-memory writes cannot fail");
    println!(
        "reference: {} runs over {} chunks, uninterrupted\n",
        reference.total_runs,
        reference_campaign.canonical_chunks()
    );

    // --- Session 1: preempted after 3 chunks. ---------------------------
    let campaign = build_campaign().with_threads(4);
    let mut jsonl = JsonlRunWriter::new(fs::File::create(&jsonl_path).unwrap());
    let ckpt = Checkpointer::new(&ckpt_path).max_chunks_per_session(3);
    let session = campaign.session(&registry).checkpointer(&ckpt).sink(&mut jsonl);
    let (outcome, _) = session.run().expect("session 1 runs");
    let CampaignOutcome::Interrupted { chunks_done, runs_done } = outcome else {
        panic!("session 1 was bounded to 3 chunks");
    };
    println!("session 1 (4 workers): preempted at chunk {chunks_done} ({runs_done} runs on disk)");

    // Simulate the kill arriving mid-write: a torn line trails the stream.
    let mut torn = fs::OpenOptions::new().append(true).open(&jsonl_path).unwrap();
    write!(torn, "{{\"run\":999,\"scen").unwrap();
    drop(torn);

    // --- Crash recovery + session 2: preempted again after 4 chunks. ----
    let manifest = CheckpointManifest::load(&ckpt_path).expect("manifest survived the kill");
    truncate_jsonl(&jsonl_path, manifest.runs_done).expect("stream covers the watermark");
    let campaign = build_campaign().with_threads(2);
    let mut jsonl =
        JsonlRunWriter::new(fs::OpenOptions::new().append(true).open(&jsonl_path).unwrap());
    let ckpt = Checkpointer::new(&ckpt_path).max_chunks_per_session(4);
    let session = campaign.session(&registry).checkpointer(&ckpt).resume(manifest).sink(&mut jsonl);
    let (outcome, _) = session.run().expect("session 2 resumes");
    let CampaignOutcome::Interrupted { chunks_done, runs_done } = outcome else {
        panic!("session 2 was bounded to 4 more chunks");
    };
    println!("session 2 (2 workers): preempted at chunk {chunks_done} ({runs_done} runs on disk)");

    // --- Session 3: runs to completion. ---------------------------------
    let campaign = build_campaign().with_threads(1);
    let mut jsonl =
        JsonlRunWriter::new(fs::OpenOptions::new().append(true).open(&jsonl_path).unwrap());
    let ckpt = Checkpointer::new(&ckpt_path);
    let manifest = ckpt.load().expect("session 2 checkpointed");
    let session = campaign.session(&registry).checkpointer(&ckpt).resume(manifest).sink(&mut jsonl);
    let (outcome, stats) = session.run().expect("session 3 resumes");
    jsonl.finish().expect("stream closes cleanly");
    let resumed = outcome.into_report().expect("session 3 completes");
    println!("session 3 (1 worker): finished the remaining {} chunks\n", stats.chunks);

    // The determinism contract, now across three sessions, two preemptions,
    // a torn stream and three different worker counts:
    assert_eq!(resumed, reference, "reports must be bit-identical");
    assert_eq!(resumed.to_json(), reference.to_json(), "JSON must be byte-identical");
    let stitched = fs::read(&jsonl_path).unwrap();
    assert_eq!(stitched, reference_bytes, "the JSONL stream must be byte-identical");
    println!(
        "determinism check: report, JSON and the {}-line JSONL stream are byte-identical \
         to the uninterrupted run",
        resumed.total_runs
    );

    resumed.metric_table("completed").print();
    fs::remove_dir_all(&dir).ok();
}
