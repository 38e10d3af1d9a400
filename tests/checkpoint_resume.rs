//! Resume-determinism properties of the campaign checkpoint subsystem: a
//! campaign interrupted at an arbitrary canonical-chunk boundary — its JSONL
//! stream truncated back to the checkpoint watermark, exactly what a crash
//! plus [`truncate_jsonl`] leaves behind — and resumed from its manifest
//! must produce a **byte-identical** report, JSON rendering and JSONL
//! stream, for 1 and N workers on either side of the interruption.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use karyon::scenario::{
    derive_run_seed, truncate_jsonl, truncate_trace_jsonl, Campaign, CampaignEntry,
    CampaignOutcome, CampaignTelemetry, CheckpointManifest, Checkpointer, Fault, FaultPlan,
    JsonlRunWriter, ParamGrid, RunRecord, Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon::sim::{splitmix64, SimTime};
use karyon::telemetry::{trace, AttrValue, JsonlTraceWriter};

/// A cheap deterministic scenario with adversarial metric content: a
/// pre-agreed-range metric (streams through fixed histograms), an undeclared
/// wild-range metric (exercises exact-until-spill), an occasionally absent
/// metric and an occasional NaN.
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
        // Virtual-time trace records (no-ops without a campaign trace
        // scope): pure functions of the spec, so the campaign trace stream
        // must be byte-identical across any kill/resume history.
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

fn noise_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Noise));
    registry
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("karyon-resume-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn noise_campaign(seed: u64, replications: u64, chunk_size: usize, threads: usize) -> Campaign {
    Campaign::new("resume-prop", seed).with_chunk_size(chunk_size).with_threads(threads).entry(
        CampaignEntry::new("noise")
            .grid(ParamGrid::new().axis("scale", [1.0, 2.5]))
            .replications(replications),
    )
}

/// The uninterrupted reference: report + full JSONL bytes.
fn reference(campaign: &Campaign) -> (karyon::scenario::CampaignReport, Vec<u8>) {
    let mut jsonl = JsonlRunWriter::new(Vec::new());
    let (outcome, _) =
        campaign.session(&noise_registry()).sink(&mut jsonl).run().expect("noise is registered");
    let report = outcome.into_report().expect("a plain session completes");
    (report, jsonl.finish().expect("in-memory writes cannot fail"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flagship acceptance property: interrupt at an arbitrary chunk
    /// boundary, truncate the JSONL stream to the watermark (crash
    /// recovery), resume from the manifest — report, JSON text and JSONL
    /// stream are byte-identical to the uninterrupted run, with independent
    /// worker counts before and after the interruption.
    #[test]
    fn interrupted_campaigns_resume_byte_identically(
        seed in 0u64..100_000,
        replications in 4u64..40,
        chunk_size in 1usize..12,
        boundary_frac in 0.0f64..1.0,
        threads_before in 1usize..5,
        threads_after in 1usize..5,
    ) {
        let campaign = noise_campaign(seed, replications, chunk_size, threads_before);
        let chunks = campaign.canonical_chunks();
        if chunks < 2 {
            // A single-chunk campaign has no interior boundary to interrupt
            // at; nothing to check for this sample.
            return Ok(());
        }
        // Interrupt somewhere strictly inside the campaign.
        let boundary = 1 + ((chunks - 2) as f64 * boundary_frac) as usize;
        prop_assert!(boundary < chunks, "boundary {boundary} inside {chunks} chunks");
        let (expected_report, expected_jsonl) = reference(&campaign);

        let dir = scratch_dir("prop");
        let ckpt_path = dir.join(format!("c-{seed}-{replications}-{chunk_size}.json"));
        let jsonl_path = dir.join(format!("s-{seed}-{replications}-{chunk_size}.jsonl"));

        // Session 1: bounded to `boundary` chunks, checkpointing as it goes.
        let mut jsonl = JsonlRunWriter::new(
            fs::File::create(&jsonl_path).expect("temp file is writable"),
        );
        let ckpt = Checkpointer::new(&ckpt_path).max_chunks_per_session(boundary);
        let (outcome, _) = campaign
            .session(&noise_registry())
            .checkpointer(&ckpt)
            .sink(&mut jsonl)
            .run()
            .expect("session 1 runs");
        prop_assert_eq!(
            &outcome,
            &CampaignOutcome::Interrupted {
                chunks_done: boundary,
                runs_done: (boundary as u64 * chunk_size as u64).min(campaign.run_count()),
            }
        );
        drop(jsonl); // the crash: nothing past the last flush survives cleanly

        // Simulate a kill mid-write: runs beyond the checkpoint plus a torn
        // final line trail the stream.
        let mut tail = fs::OpenOptions::new().append(true).open(&jsonl_path).unwrap();
        use std::io::Write as _;
        writeln!(tail, "{{\"run\":99999,\"scenario\":\"noise\",\"metrics\":{{}}}}").unwrap();
        write!(tail, "{{\"run\":100000,\"scen").unwrap();
        drop(tail);

        // Crash recovery: read the manifest, cut the stream to the
        // watermark, resume with an append writer and a different worker
        // count.
        let manifest = CheckpointManifest::load(&ckpt_path).expect("manifest is on disk");
        prop_assert_eq!(manifest.chunks_done, boundary);
        truncate_jsonl(&jsonl_path, manifest.runs_done).expect("stream covers the watermark");
        let campaign = noise_campaign(seed, replications, chunk_size, threads_after);
        let mut jsonl = JsonlRunWriter::new(
            fs::OpenOptions::new().append(true).open(&jsonl_path).unwrap(),
        );
        let ckpt = Checkpointer::new(&ckpt_path);
        let (outcome, stats) = campaign
            .session(&noise_registry())
            .checkpointer(&ckpt)
            .resume(true)
            .sink(&mut jsonl)
            .run()
            .expect("session 2 resumes");
        jsonl.finish().expect("stream closes cleanly");
        prop_assert_eq!(stats.chunks, (chunks - boundary) as u64);

        let resumed = match outcome {
            CampaignOutcome::Complete(report) => report,
            CampaignOutcome::Interrupted { .. } | CampaignOutcome::Window => {
                prop_assert!(false, "an unbounded resume session must complete");
                unreachable!()
            }
        };
        prop_assert_eq!(&resumed, &expected_report);
        prop_assert_eq!(resumed.to_json(), expected_report.to_json());
        // The stitched JSONL stream must be byte-identical to an
        // uninterrupted run's.
        let stitched = fs::read(&jsonl_path).unwrap();
        prop_assert!(stitched == expected_jsonl, "stitched JSONL differs from uninterrupted");
        fs::remove_file(&ckpt_path).ok();
        fs::remove_file(&jsonl_path).ok();
    }

    /// The chaos acceptance property: kill the campaign with an injected
    /// worker death at an *arbitrary* chunk — including chunk 0, where no
    /// manifest exists yet and recovery must restart from scratch — then
    /// recover across sessions with a different worker count.  Report, JSONL
    /// stream and trace stream must all be byte-identical to an
    /// uninterrupted traced run's.
    #[test]
    fn a_worker_death_at_any_chunk_recovers_all_streams_byte_identically(
        seed in 0u64..100_000,
        replications in 8u64..40,
        chunk_size in 1usize..10,
        death_frac in 0.0f64..1.0,
        threads_before in 1usize..4,
        threads_after in 1usize..4,
    ) {
        let registry = noise_registry();
        let campaign = noise_campaign(seed, replications, chunk_size, threads_before);
        let chunks = campaign.canonical_chunks();
        let death_chunk = ((chunks - 1) as f64 * death_frac) as usize;

        // The traced reference: report, JSONL bytes and trace bytes of one
        // uninterrupted instrumented run.
        let mut ref_jsonl = JsonlRunWriter::new(Vec::new());
        let mut ref_trace = JsonlTraceWriter::new(Vec::new());
        let (outcome, _) = campaign
            .session(&registry)
            .sink(&mut ref_jsonl)
            .telemetry(CampaignTelemetry::none().with_trace(&mut ref_trace))
            .run()
            .expect("reference runs");
        let expected_report = outcome.into_report().expect("a plain session completes");
        let expected_jsonl = ref_jsonl.finish().expect("in-memory stream");
        let expected_trace = ref_trace.into_inner().expect("in-memory stream");

        let dir = scratch_dir("chaos");
        let tag = format!("{seed}-{replications}-{chunk_size}-{death_chunk}");
        let ckpt_path = dir.join(format!("c-{tag}.json"));
        let jsonl_path = dir.join(format!("s-{tag}.jsonl"));
        let trace_path = dir.join(format!("t-{tag}.jsonl"));
        fs::remove_file(&ckpt_path).ok();
        fs::remove_file(&jsonl_path).ok();
        fs::remove_file(&trace_path).ok();

        // One injector across every session: the death budget is one-shot,
        // so recovery sessions never re-trip it.
        let injector =
            FaultPlan::new().with(Fault::WorkerDeath { at_chunk: death_chunk }).injector();
        let mut sessions = 0usize;
        let report = loop {
            sessions += 1;
            prop_assert!(sessions <= 4, "recovery must converge quickly");
            let resuming = ckpt_path.exists();
            if resuming {
                let manifest = CheckpointManifest::load(&ckpt_path).expect("manifest on disk");
                truncate_jsonl(&jsonl_path, manifest.runs_done).expect("stream covers watermark");
                truncate_trace_jsonl(&trace_path, manifest.runs_done).expect("trace recovers");
            }
            let threads = if resuming { threads_after } else { threads_before };
            let campaign = noise_campaign(seed, replications, chunk_size, threads);
            let mut jsonl = JsonlRunWriter::new(
                fs::OpenOptions::new()
                    .create(true)
                    .append(resuming)
                    .write(true)
                    .truncate(!resuming)
                    .open(&jsonl_path)
                    .expect("stream opens"),
            );
            let mut trace_sink = JsonlTraceWriter::new(
                fs::OpenOptions::new()
                    .create(true)
                    .append(resuming)
                    .write(true)
                    .truncate(!resuming)
                    .open(&trace_path)
                    .expect("trace opens"),
            );
            let telemetry = CampaignTelemetry::none().with_trace(&mut trace_sink);
            let ckpt = Checkpointer::new(&ckpt_path);
            let result = campaign
                .session(&registry)
                .checkpointer(&ckpt)
                .resume(resuming)
                .sink(&mut jsonl)
                .telemetry(telemetry)
                .faults(&injector)
                .run();
            match result {
                Ok((CampaignOutcome::Complete(report), _)) => {
                    jsonl.finish().expect("stream closes");
                    trace_sink.into_inner().expect("trace closes");
                    break report;
                }
                Ok((CampaignOutcome::Interrupted { .. } | CampaignOutcome::Window, _)) => {
                    prop_assert!(false, "no session budget is set");
                }
                Err(error) => {
                    prop_assert!(
                        karyon::scenario::fault::is_injected(&error),
                        "only the injected death may kill a session: {error}"
                    );
                    // The "crash": writers drop un-finished, like a killed
                    // process; the next session recovers from disk.
                }
            }
        };
        // The death fires exactly once; recovery is one crash, one clean run.
        prop_assert_eq!(injector.injected(), 1);
        prop_assert_eq!(sessions, 2);
        prop_assert_eq!(&report, &expected_report);
        prop_assert_eq!(report.to_json(), expected_report.to_json());
        let recovered_jsonl = fs::read(&jsonl_path).unwrap();
        prop_assert!(recovered_jsonl == expected_jsonl, "recovered JSONL differs from reference");
        let recovered_trace = fs::read(&trace_path).unwrap();
        prop_assert!(recovered_trace == expected_trace, "recovered trace differs from reference");
        fs::remove_file(&ckpt_path).ok();
        fs::remove_file(&jsonl_path).ok();
        fs::remove_file(&trace_path).ok();
    }
}

/// Chained preemptions: a campaign sliced into many bounded sessions — each
/// resuming the last, under varying worker counts — still converges to the
/// uninterrupted result.  This is the time-slicing deployment mode
/// (preemptible compute) rather than the crash mode above.
#[test]
fn many_chained_sessions_converge_to_the_uninterrupted_report() {
    let dir = scratch_dir("chain");
    let ckpt_path = dir.join("chain.json");
    let build = |threads| noise_campaign(777, 50, 4, threads);
    let (expected, _) = reference(&build(1));
    let chunks = build(1).canonical_chunks();

    let mut sessions = 0usize;
    let ckpt = Checkpointer::new(&ckpt_path).max_chunks_per_session(3).every_chunks(2);
    let report = loop {
        sessions += 1;
        let threads = 1 + (sessions % 4);
        let campaign = build(threads);
        let registry = noise_registry();
        let session = campaign.session(&registry).checkpointer(&ckpt);
        let (outcome, _) = if sessions == 1 {
            session.run().expect("session runs")
        } else {
            session.resume(true).run().expect("session resumes")
        };
        match outcome {
            CampaignOutcome::Complete(report) => break report,
            CampaignOutcome::Interrupted { chunks_done, .. } => {
                assert_eq!(chunks_done, (sessions * 3).min(chunks));
            }
            CampaignOutcome::Window => unreachable!("no chunk window is set"),
        }
        assert!(sessions < 64, "the chain must terminate");
    };
    assert_eq!(sessions, chunks.div_ceil(3), "every session advances exactly its budget");
    assert_eq!(report, expected);
    assert_eq!(report.to_json(), expected.to_json());
    fs::remove_dir_all(&dir).ok();
}

/// [`Noise`] with an injectable failure (panics on exactly one derived run
/// seed) and an injectable slow band (runs whose seed is listed sleep a
/// while) — the levers the abort-path tests below use to place workers
/// mid-chunk when a failure raises the abort flag.
struct FlakyNoise {
    fail_seed: Option<u64>,
    slow_seeds: std::collections::HashSet<u64>,
}

impl Scenario for FlakyNoise {
    fn name(&self) -> &str {
        "flaky"
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        if Some(spec.seed) == self.fail_seed {
            panic!("injected failure");
        }
        if self.slow_seeds.contains(&spec.seed) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut state = spec.seed;
        let mut record = RunRecord::new();
        record.set("value", (splitmix64(&mut state) % 10_000) as f64);
        record
    }
}

fn flaky_registry(fail_seed: Option<u64>, slow_seeds: &[u64]) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(FlakyNoise {
        fail_seed,
        slow_seeds: slow_seeds.iter().copied().collect(),
    }));
    registry
}

/// Asserts a manifest is internally consistent: the per-point run counts it
/// persists must sum to exactly the watermark.  A collector that ever merged
/// a *partial* chunk (a worker cut short by the abort flag) below the
/// watermark fails this immediately.
fn assert_manifest_covers_exactly_its_watermark(ckpt_path: &std::path::Path) -> u64 {
    use karyon::scenario::JsonValue;
    let text = karyon::scenario::checkpoint::read_manifest_text(ckpt_path).expect("readable");
    let doc = JsonValue::parse(&text).expect("manifest is JSON");
    let runs_done = doc.get("runs_done").and_then(JsonValue::as_u64).expect("runs_done");
    let merged: u64 = doc
        .get("points")
        .and_then(JsonValue::as_array)
        .expect("points")
        .iter()
        .map(|p| p.get("runs").and_then(JsonValue::as_u64).expect("point runs"))
        .sum();
    assert_eq!(
        merged, runs_done,
        "manifest {ckpt_path:?} merged {merged} runs but its watermark claims {runs_done}"
    );
    runs_done
}

/// Regression test for the abort/checkpoint race: when a worker fails
/// mid-campaign, sibling workers observe the abort flag and return *partial*
/// chunks — and a partial chunk at the merge frontier can reach the
/// collector before the failure does.  Merging it would let a checkpoint
/// watermark durably cover runs that never executed.  Two invariants must
/// hold for every surviving manifest: the watermark never reaches the
/// failing chunk, and resuming from it (with the failure gone) converges
/// bit-identically to the uninterrupted reference — which is exactly what
/// breaks if a hole was ever merged below the watermark.
#[test]
fn a_mid_campaign_failure_never_checkpoints_unexecuted_runs() {
    let dir = scratch_dir("abort");
    const CHUNK: u64 = 128;
    const FAIL_RUN: u64 = 16 * CHUNK; // first run of chunk 16 of 24
    let campaign = || {
        Campaign::new("abort", 99)
            .with_chunk_size(CHUNK as usize)
            .with_threads(4)
            .entry(CampaignEntry::new("flaky").replications(24 * CHUNK))
    };
    let fail_seed = derive_run_seed(99, 0, FAIL_RUN);
    let expected = campaign().run(&flaky_registry(None, &[])).expect("healthy reference");

    for attempt in 0..24 {
        let ckpt_path = dir.join(format!("abort-{attempt}.json"));
        let ckpt = Checkpointer::new(&ckpt_path);
        let err = campaign()
            .session(&flaky_registry(Some(fail_seed), &[]))
            .checkpointer(&ckpt)
            .run()
            .expect_err("the injected failure must surface");
        assert!(err.contains("injected failure"), "the real failure is reported: {err}");

        // Checkpoints from before the failure are legitimate; the watermark
        // may never reach the chunk the failure cut short, and must cover
        // exactly the runs the manifest actually merged.
        if ckpt_path.exists() {
            let runs_done = assert_manifest_covers_exactly_its_watermark(&ckpt_path);
            assert!(
                runs_done <= FAIL_RUN,
                "watermark {runs_done} covers the failed run {FAIL_RUN} (attempt {attempt})"
            );
            // Every chunk below the watermark must have fully executed:
            // with the failure gone, resume must converge bit-identically
            // to the uninterrupted reference.
            let resume_ckpt = Checkpointer::new(&ckpt_path);
            let (outcome, _) = campaign()
                .session(&flaky_registry(None, &[]))
                .checkpointer(&resume_ckpt)
                .resume(true)
                .run()
                .expect("a surviving manifest must resume");
            assert_eq!(
                outcome.into_report().expect("resume completes"),
                expected,
                "a checkpointed chunk holds runs that never executed (attempt {attempt})"
            );
        }
        fs::remove_file(&ckpt_path).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

/// Deterministically drives the collector through the aborted-partial-chunk
/// path: runs in chunks 5–7 sleep, the first run of chunk 8 panics, so the
/// three workers on 5–7 reliably observe the abort flag mid-chunk and hand
/// the collector *partial* outputs — including one at the merge frontier.
/// Those partials must be dropped (never merged, never checkpointed), the
/// real failure must be the one reported, and the surviving manifest must
/// resume bit-identically.
#[test]
fn aborted_partial_chunks_are_dropped_not_merged() {
    let dir = scratch_dir("partial");
    const CHUNK: u64 = 16;
    const FAIL_CHUNK: u64 = 8; // of 12
    let campaign = || {
        Campaign::new("partial", 7)
            .with_chunk_size(CHUNK as usize)
            .with_threads(4)
            .entry(CampaignEntry::new("flaky").replications(12 * CHUNK))
    };
    let fail_seed = derive_run_seed(7, 0, FAIL_CHUNK * CHUNK);
    let slow_seeds: Vec<u64> =
        (5 * CHUNK..FAIL_CHUNK * CHUNK).map(|run| derive_run_seed(7, 0, run)).collect();
    let expected = campaign().run(&flaky_registry(None, &[])).expect("healthy reference");

    let ckpt_path = dir.join("partial.json");
    let ckpt = Checkpointer::new(&ckpt_path);
    let err = campaign()
        .session(&flaky_registry(Some(fail_seed), &slow_seeds))
        .checkpointer(&ckpt)
        .run()
        .expect_err("the injected failure must surface");
    assert!(
        err.contains("injected failure"),
        "the real failure is reported, not a stand-in: {err}"
    );

    let runs_done = assert_manifest_covers_exactly_its_watermark(&ckpt_path);
    assert!(
        runs_done <= FAIL_CHUNK * CHUNK,
        "watermark {runs_done} covers the failed chunk {FAIL_CHUNK}"
    );
    let resume_ckpt = Checkpointer::new(&ckpt_path);
    let (outcome, _) = campaign()
        .session(&flaky_registry(None, &[]))
        .checkpointer(&resume_ckpt)
        .resume(true)
        .run()
        .expect("the manifest must resume");
    assert_eq!(outcome.into_report().expect("resume completes"), expected);
    fs::remove_dir_all(&dir).ok();
}

/// Resume must refuse manifests that do not belong to the campaign — a
/// changed grid, seed or chunk size silently merging foreign partials would
/// be a correctness disaster.
#[test]
fn resume_rejects_manifests_from_a_different_campaign_definition() {
    let dir = scratch_dir("reject");
    let ckpt_path = dir.join("reject.json");
    let original = noise_campaign(1, 20, 4, 2);
    let ckpt = Checkpointer::new(&ckpt_path).max_chunks_per_session(2);
    original.session(&noise_registry()).checkpointer(&ckpt).run().expect("session 1 runs");

    let resume_ckpt = Checkpointer::new(&ckpt_path);
    for (label, changed) in [
        ("seed", noise_campaign(2, 20, 4, 2)),
        ("chunk size", noise_campaign(1, 20, 5, 2)),
        ("replications", noise_campaign(1, 21, 4, 2)),
        (
            "grid",
            Campaign::new("resume-prop", 1).with_chunk_size(4).entry(
                CampaignEntry::new("noise")
                    .grid(ParamGrid::new().axis("scale", [1.0, 2.5, 3.5]))
                    .replications(20),
            ),
        ),
    ] {
        let err = changed
            .session(&noise_registry())
            .checkpointer(&resume_ckpt)
            .resume(true)
            .run()
            .expect_err(label);
        assert!(err.contains("fingerprint"), "{label}: {err}");
    }
    // The unchanged definition still resumes fine (worker count may differ).
    let (outcome, _) = noise_campaign(1, 20, 4, 4)
        .session(&noise_registry())
        .checkpointer(&resume_ckpt)
        .resume(true)
        .run()
        .expect("same definition resumes");
    assert!(outcome.is_complete());
    fs::remove_dir_all(&dir).ok();
}
