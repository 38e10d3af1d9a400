//! Shard/merge determinism: the flagship byte-identity property.  A campaign
//! split into an arbitrary shard plan, each shard run in its own "session"
//! with its own worker count, the manifests round-tripped through disk and
//! merged — validated, stitched and replayed — from an arbitrary presentation
//! order, must reproduce the single-machine report, JSONL stream and trace
//! stream **byte for byte**.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use karyon::scenario::{
    read_jsonl_records, read_run_segment, read_trace_segment, validate_shard_set, Campaign,
    CampaignEntry, CampaignOutcome, CampaignTelemetry, JsonlRunWriter, ParamGrid, RunRecord,
    Scenario, ScenarioRegistry, ScenarioSpec, ShardManifest, ShardPlan,
};
use karyon::sim::{splitmix64, SimTime};
use karyon::telemetry::{trace, AttrValue, JsonlTraceWriter};

/// The adversarial scenario from the checkpoint suite: a pre-agreed-range
/// metric, a wild-range metric (exact-until-spill quantiles), an absent-some
/// metric, an occasional NaN, and virtual-time trace records.
struct Noise;

impl Scenario for Noise {
    fn name(&self) -> &str {
        "noise"
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "ranged" => Some((0.0, 1.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let mut state = spec.seed;
        let a = splitmix64(&mut state);
        let b = splitmix64(&mut state);
        trace::event(
            "noise.sample",
            SimTime::from_micros(a % 1_000),
            &[("a", AttrValue::U64(a % 97))],
        );
        trace::span("noise.run", SimTime::ZERO, SimTime::from_micros(1 + b % 1_000), &[]);
        let mut record = RunRecord::new();
        record.set("ranged", (a >> 11) as f64 / (1u64 << 53) as f64);
        record.set("wild", ((b % 10_000) as f64 - 5_000.0) * spec.f64_or("scale", 1.0));
        if a % 5 == 0 {
            record.set("sometimes", (a % 97) as f64);
        }
        if b % 31 == 0 {
            record.set("broken", f64::NAN);
        }
        record
    }
}

fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Noise));
    registry
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("karyon-shard-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn noise_campaign(seed: u64, replications: u64, chunk_size: usize, threads: usize) -> Campaign {
    Campaign::new("shard-prop", seed).with_chunk_size(chunk_size).with_threads(threads).entry(
        CampaignEntry::new("noise")
            .grid(ParamGrid::new().axis("scale", [1.0, 2.5]))
            .replications(replications),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole acceptance property: for an arbitrary shard plan, with an
    /// arbitrary worker count per shard and an arbitrary merge presentation
    /// order, the merged report, stitched JSONL stream and stitched trace
    /// stream are byte-identical to an uninterrupted single-session run's.
    #[test]
    fn sharded_campaigns_merge_byte_identically(
        seed in 0u64..100_000,
        replications in 4u64..32,
        chunk_size in 1usize..10,
        shard_count in 1usize..6,
        thread_salt in 0u64..1_000,
        rotate in 0usize..6,
    ) {
        let registry = registry();

        // The uninterrupted traced reference.
        let reference = noise_campaign(seed, replications, chunk_size, 1 + (thread_salt % 4) as usize);
        let mut ref_jsonl = JsonlRunWriter::new(Vec::new());
        let mut ref_trace = JsonlTraceWriter::new(Vec::new());
        let (outcome, _) = reference
            .session(&registry)
            .sink(&mut ref_jsonl)
            .telemetry(CampaignTelemetry::none().with_trace(&mut ref_trace))
            .run()
            .expect("reference runs");
        let expected_report = outcome.into_report().expect("a plain session completes");
        let expected_jsonl = ref_jsonl.finish().expect("in-memory stream");
        let expected_trace = ref_trace.into_inner().expect("in-memory stream");

        // Each shard in its own "session": its own Campaign value, its own
        // worker count, its own artifact files.
        let dir = scratch_dir("prop");
        let tag = format!("{seed}-{replications}-{chunk_size}-{shard_count}-{thread_salt}");
        let plan = ShardPlan::for_campaign(&reference, shard_count);
        let mut manifests = Vec::new();
        let mut segment_paths = Vec::new();
        for slice in plan.slices() {
            let threads = 1 + ((thread_salt + slice.index as u64) % 4) as usize;
            let campaign = noise_campaign(seed, replications, chunk_size, threads);
            let jsonl_path = dir.join(format!("{tag}.s{}.jsonl", slice.index));
            let trace_path = dir.join(format!("{tag}.s{}.trace.jsonl", slice.index));
            let manifest_path = dir.join(format!("{tag}.s{}.manifest.json", slice.index));
            let mut jsonl =
                JsonlRunWriter::new(fs::File::create(&jsonl_path).expect("segment opens"));
            let mut trace_sink =
                JsonlTraceWriter::new(fs::File::create(&trace_path).expect("trace opens"));
            let (outcome, _) = campaign
                .session(&registry)
                .chunks(slice.start_chunk..slice.end_chunk)
                .sink(&mut jsonl)
                .telemetry(CampaignTelemetry::none().with_trace(&mut trace_sink))
                .run()
                .expect("shard session runs");
            prop_assert_eq!(outcome, CampaignOutcome::Window);
            jsonl.finish().expect("segment closes");
            trace_sink.into_inner().expect("trace closes");
            ShardManifest::new(&campaign, slice).write(&manifest_path).expect("manifest writes");
            // Round-trip through disk: merge only ever sees loaded manifests.
            manifests.push(ShardManifest::load(&manifest_path).expect("manifest reloads"));
            segment_paths.push((jsonl_path, trace_path, manifest_path));
        }

        // Merge exactly as `karyon-campaign merge` does, from an arbitrary
        // presentation order: validate the set, then stitch the streams in
        // window order through the real segment readers.
        let pivot = rotate % manifests.len().max(1);
        manifests.rotate_left(pivot);
        validate_shard_set(&reference, &manifests).expect("a complete set validates");
        manifests.sort_by_key(|m| m.start_chunk);
        let mut stitched_jsonl = Vec::new();
        let mut stitched_trace = Vec::new();
        for manifest in &manifests {
            let (start, end) = manifest.run_range();
            if start == end {
                continue;
            }
            let (jsonl_path, trace_path, _) = &segment_paths[manifest.shard_index];
            stitched_jsonl
                .extend_from_slice(&read_run_segment(jsonl_path, start, end).expect("segment"));
            stitched_trace
                .extend_from_slice(&read_trace_segment(trace_path, start, end).expect("trace"));
        }
        prop_assert!(stitched_jsonl == expected_jsonl, "stitched JSONL differs from reference");
        prop_assert!(stitched_trace == expected_trace, "stitched trace differs from reference");

        // The report replays the stitched run stream.
        let stitched = std::str::from_utf8(&stitched_jsonl).expect("JSONL is UTF-8");
        let records = read_jsonl_records(stitched).expect("the stitched stream parses");
        let merged = reference.reduce_records(&registry, &records).expect("a complete stream");
        prop_assert_eq!(&merged, &expected_report);
        prop_assert_eq!(merged.to_json(), expected_report.to_json());

        for (jsonl_path, trace_path, manifest_path) in segment_paths {
            fs::remove_file(jsonl_path).ok();
            fs::remove_file(trace_path).ok();
            fs::remove_file(manifest_path).ok();
        }
    }
}
