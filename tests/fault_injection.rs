//! End-to-end drills for the fault-injection and recovery machinery: every
//! [`Fault`] category is injected against a checkpointed campaign and the
//! recovered report, JSON rendering and JSONL stream must come out
//! byte-identical to a fault-free reference.  Corrupt manifests (torn,
//! bit-flipped, version-bumped) must be refused cleanly — with a recovery
//! hint, without touching anything on disk, and without panicking.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use karyon::scenario::checkpoint::read_manifest_text;
use karyon::scenario::{
    fault::is_injected, integrity_frame, truncate_jsonl, Campaign, CampaignEntry, CampaignOutcome,
    CampaignTelemetry, Checkpointer, Fault, FaultPlan, JsonlRunWriter, ParamGrid, RunRecord,
    Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon::sim::splitmix64;
use karyon::telemetry::MetricsRegistry;

/// The same cheap deterministic scenario the resume properties use.
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
        let mut record = RunRecord::new();
        record.set("ranged", (a >> 11) as f64 / (1u64 << 53) as f64);
        record.set("wild", ((b % 10_000) as f64 - 5_000.0) * spec.f64_or("scale", 1.0));
        record
    }
}

fn noise_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Noise));
    registry
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("karyon-faults-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// An 8-chunk campaign (2 grid points × 16 replications / chunk size 4).
fn noise_campaign(threads: usize) -> Campaign {
    Campaign::new("fault-drill", 2024).with_chunk_size(4).with_threads(threads).entry(
        CampaignEntry::new("noise")
            .grid(ParamGrid::new().axis("scale", [1.0, 2.5]))
            .replications(16),
    )
}

/// The fault-free reference: report + full JSONL bytes.
fn reference() -> (karyon::scenario::CampaignReport, Vec<u8>) {
    let mut jsonl = JsonlRunWriter::new(Vec::new());
    let (outcome, _) =
        noise_campaign(1).session(&noise_registry()).sink(&mut jsonl).run().expect("noise runs");
    let report = outcome.into_report().expect("a plain session completes");
    (report, jsonl.finish().expect("in-memory writes cannot fail"))
}

/// A transient sink-flush failure is healed in place by the checkpointer's
/// bounded retry: the session completes on its own, the report is untouched,
/// and telemetry records both the injected faults and the recovery.
#[test]
fn sink_io_errors_are_healed_by_bounded_retry() {
    let dir = scratch_dir("sink-io");
    let ckpt_path = dir.join("heal.ckpt.json");
    fs::remove_file(&ckpt_path).ok();
    let (expected_report, expected_jsonl) = reference();

    // Two consecutive flush failures at the second checkpoint: within the
    // default policy's four attempts, so the session must survive.
    let injector =
        FaultPlan::new().with(Fault::SinkIoError { at_chunks_done: 2, failures: 2 }).injector();
    let mut metrics = MetricsRegistry::new();
    let mut jsonl = JsonlRunWriter::new(Vec::new());
    let ckpt = Checkpointer::new(&ckpt_path);
    let (outcome, _) = noise_campaign(2)
        .session(&noise_registry())
        .checkpointer(&ckpt)
        .sink(&mut jsonl)
        .telemetry(CampaignTelemetry::none().with_metrics(&mut metrics))
        .faults(&injector)
        .run()
        .expect("bounded retry heals the transient flush failure");
    let report = match outcome {
        CampaignOutcome::Complete(report) => report,
        other => panic!("expected a completed session, got {other:?}"),
    };

    assert_eq!(report, expected_report);
    assert_eq!(report.to_json(), expected_report.to_json());
    assert_eq!(jsonl.finish().expect("in-memory stream"), expected_jsonl);
    assert_eq!(metrics.counter("fault.injected"), 2);
    assert_eq!(metrics.counter("fault.injected.sink_io_error"), 2);
    assert!(
        metrics.counter("retry.attempts") >= 2,
        "each injected failure costs at least one retry: {}",
        metrics.counter("retry.attempts")
    );
    assert!(metrics.counter("recovery.outcome.recovered") >= 1);
    assert_eq!(metrics.counter("recovery.outcome.exhausted"), 0);
    fs::remove_file(&ckpt_path).ok();
}

/// A torn manifest write kills the session and leaves a corrupt manifest on
/// disk.  Recovery refuses the manifest cleanly (with a recovery hint),
/// restarts from scratch — safe because the fault budget is spent — and
/// converges to the fault-free result.
#[test]
fn torn_manifests_refuse_cleanly_and_recover_from_scratch() {
    let dir = scratch_dir("torn");
    let ckpt_path = dir.join("torn.ckpt.json");
    fs::remove_file(&ckpt_path).ok();
    let (expected_report, expected_jsonl) = reference();

    let injector =
        FaultPlan::new().with(Fault::TornManifest { at_chunks_done: 2, keep_bytes: 40 }).injector();

    // Session 1: dies at the torn write, manifest truncated to 40 bytes.
    let mut jsonl = JsonlRunWriter::new(Vec::new());
    let ckpt = Checkpointer::new(&ckpt_path);
    let error = noise_campaign(1)
        .session(&noise_registry())
        .checkpointer(&ckpt)
        .sink(&mut jsonl)
        .telemetry(CampaignTelemetry::none())
        .faults(&injector)
        .run()
        .expect_err("the torn write kills the session");
    assert!(is_injected(&error), "{error}");
    assert_eq!(fs::metadata(&ckpt_path).expect("manifest exists").len(), 40);

    // Recovery step 1: the torn manifest is detected and refused with an
    // actionable hint — no panic, no partial resume.
    let refusal = Checkpointer::new(&ckpt_path).load().expect_err("40 bytes cannot verify");
    assert!(refusal.contains("recovery:"), "refusals carry a recovery hint: {refusal}");

    // Recovery step 2: follow the hint — discard the checkpoint and stream,
    // restart from scratch.  The spent budget keeps the rerun clean.
    fs::remove_file(&ckpt_path).expect("discarding the torn manifest");
    let mut jsonl = JsonlRunWriter::new(Vec::new());
    let ckpt = Checkpointer::new(&ckpt_path);
    let mut metrics = MetricsRegistry::new();
    let (outcome, _) = noise_campaign(3)
        .session(&noise_registry())
        .checkpointer(&ckpt)
        .sink(&mut jsonl)
        .telemetry(CampaignTelemetry::none().with_metrics(&mut metrics))
        .faults(&injector)
        .run()
        .expect("the rerun is fault-free");
    let report = match outcome {
        CampaignOutcome::Complete(report) => report,
        other => panic!("expected a completed session, got {other:?}"),
    };
    assert_eq!(report, expected_report);
    assert_eq!(jsonl.finish().expect("in-memory stream"), expected_jsonl);
    // The rerun's registry picks up the fault counts left by the killed
    // session (the injector drains into whichever session folds next).
    assert_eq!(metrics.counter("fault.injected.torn_manifest"), 1);
    assert_eq!(injector.injected(), 0, "drained into the metrics registry");
    fs::remove_file(&ckpt_path).ok();
}

/// An abort landing mid-chunk discards the partial chunk; resuming from the
/// manifest — on a different worker count — reproduces the reference
/// byte-for-byte.
#[test]
fn mid_chunk_aborts_resume_byte_identically() {
    let dir = scratch_dir("abort");
    let ckpt_path = dir.join("abort.ckpt.json");
    let jsonl_path = dir.join("abort.runs.jsonl");
    fs::remove_file(&ckpt_path).ok();
    fs::remove_file(&jsonl_path).ok();
    let (expected_report, expected_jsonl) = reference();

    let injector =
        FaultPlan::new().with(Fault::AbortMidChunk { at_chunk: 5, after_runs: 2 }).injector();
    let mut metrics = MetricsRegistry::new();

    // Session 1: aborts after two runs of chunk 5; the partial chunk is
    // discarded, the manifest covers only fully merged chunks.
    let mut jsonl = JsonlRunWriter::new(fs::File::create(&jsonl_path).expect("stream opens"));
    let ckpt = Checkpointer::new(&ckpt_path);
    let error = noise_campaign(1)
        .session(&noise_registry())
        .checkpointer(&ckpt)
        .sink(&mut jsonl)
        .telemetry(CampaignTelemetry::none().with_metrics(&mut metrics))
        .faults(&injector)
        .run()
        .expect_err("the abort kills the session");
    assert!(is_injected(&error), "{error}");
    drop(jsonl); // the "crash": the sink is never finished

    // Session 2: standard crash recovery — truncate the stream to the
    // watermark, resume on a different worker count.
    let manifest = Checkpointer::new(&ckpt_path).load().expect("manifest is intact");
    truncate_jsonl(&jsonl_path, manifest.runs_done).expect("stream covers the watermark");
    let mut jsonl = JsonlRunWriter::new(
        fs::OpenOptions::new().append(true).open(&jsonl_path).expect("stream reopens"),
    );
    let ckpt = Checkpointer::new(&ckpt_path);
    let (outcome, _) = noise_campaign(4)
        .session(&noise_registry())
        .checkpointer(&ckpt)
        .resume(manifest)
        .sink(&mut jsonl)
        .telemetry(CampaignTelemetry::none().with_metrics(&mut metrics))
        .faults(&injector)
        .run()
        .expect("the resumed session is fault-free");
    let report = match outcome {
        CampaignOutcome::Complete(report) => report,
        other => panic!("expected a completed session, got {other:?}"),
    };
    jsonl.finish().expect("stream closes");

    assert_eq!(report, expected_report);
    assert_eq!(report.to_json(), expected_report.to_json());
    assert_eq!(fs::read(&jsonl_path).expect("stream readable"), expected_jsonl);
    assert_eq!(metrics.counter("fault.injected.abort_mid_chunk"), 1);
    fs::remove_file(&ckpt_path).ok();
    fs::remove_file(&jsonl_path).ok();
}

/// Produces a valid on-disk manifest at watermark 2 for the corruption tests.
fn intact_manifest(ckpt_path: &PathBuf) -> Vec<u8> {
    fs::remove_file(ckpt_path).ok();
    let ckpt = Checkpointer::new(ckpt_path).max_chunks_per_session(2);
    let (outcome, _) =
        noise_campaign(1).session(&noise_registry()).checkpointer(&ckpt).run().expect("session 1");
    assert!(matches!(outcome, CampaignOutcome::Interrupted { .. }));
    fs::read(ckpt_path).expect("manifest on disk")
}

/// Every corruption mode — truncation, a flipped payload bit, a bumped format
/// version with a *valid* recomputed frame — is refused cleanly: a specific
/// diagnosis plus the recovery hint, the corrupt file untouched on disk,
/// and no panic anywhere.
#[test]
fn corrupt_manifests_are_refused_cleanly_and_disk_is_untouched() {
    let dir = scratch_dir("corrupt");
    let ckpt_path = dir.join("corrupt.ckpt.json");
    let intact = intact_manifest(&ckpt_path);
    let payload = read_manifest_text(&ckpt_path).expect("payload line");

    // (a) Torn mid-payload: the integrity frame is gone entirely.
    let truncated = intact[..intact.len() / 2].to_vec();
    // (b) One corrupted byte in the payload: the frame hash catches it.
    let mut flipped = intact.clone();
    let target = flipped.iter().position(|b| *b == b'4').expect("a digit to corrupt");
    flipped[target] = b'7';
    // (c) A future format version with a freshly computed (valid) frame:
    // integrity passes, version gating still refuses.
    let bumped_payload = payload.replace("\"version\":1", "\"version\":99");
    assert_ne!(bumped_payload, payload, "the version field must exist to bump");
    let bumped = format!("{bumped_payload}\n{}\n", integrity_frame(&bumped_payload)).into_bytes();

    let cases: [(&str, &[u8], &str); 3] = [
        ("truncated", &truncated, "recovery:"),
        ("bit-flipped", &flipped, "hash mismatch"),
        ("version-bumped", &bumped, "unsupported manifest version 99"),
    ];
    for (label, corrupt, diagnosis) in cases {
        fs::write(&ckpt_path, corrupt).expect("planting the corruption");
        let error = Checkpointer::new(&ckpt_path).load().expect_err(label);
        assert!(error.contains(diagnosis), "{label}: {error}");
        assert!(error.contains("recovery:"), "{label} refusals carry the hint: {error}");
        // Refusing must be read-only: the corrupt bytes are still exactly
        // what we planted.
        assert_eq!(fs::read(&ckpt_path).expect("still readable"), corrupt, "{label}");
        // The resume entry point refuses identically instead of panicking,
        // and is read-only too.
        let resume_error = noise_campaign(1)
            .resume(&noise_registry(), &mut Checkpointer::new(&ckpt_path), None)
            .expect_err(label);
        assert!(resume_error.contains("recovery:"), "{label}: {resume_error}");
        assert!(!is_injected(&resume_error), "{label}: a real refusal, not an injected one");
        assert_eq!(fs::read(&ckpt_path).expect("still readable"), corrupt, "{label}");
    }
    fs::remove_file(&ckpt_path).ok();
}

/// The full gauntlet: one plan carrying every fault category, driven through
/// crash/recover sessions exactly as the `karyon-campaign chaos` harness
/// does — the final report and stream must match the fault-free reference.
#[test]
fn all_fault_categories_together_converge_to_the_reference() {
    let dir = scratch_dir("gauntlet");
    let ckpt_path = dir.join("gauntlet.ckpt.json");
    let jsonl_path = dir.join("gauntlet.runs.jsonl");
    fs::remove_file(&ckpt_path).ok();
    fs::remove_file(&jsonl_path).ok();
    let (expected_report, expected_jsonl) = reference();

    let injector = FaultPlan::new()
        .with(Fault::SinkIoError { at_chunks_done: 1, failures: 2 })
        .with(Fault::WorkerDeath { at_chunk: 3 })
        .with(Fault::AbortMidChunk { at_chunk: 5, after_runs: 1 })
        .with(Fault::TornManifest { at_chunks_done: 6, keep_bytes: 64 })
        .injector();
    let mut metrics = MetricsRegistry::new();

    let mut sessions = 0;
    let report = loop {
        sessions += 1;
        assert!(sessions <= 8, "recovery must converge");
        let mut resumed = None;
        if ckpt_path.exists() {
            match Checkpointer::new(&ckpt_path).load() {
                Ok(manifest) => {
                    truncate_jsonl(&jsonl_path, manifest.runs_done).expect("stream truncates");
                    resumed = Some(manifest);
                }
                Err(refusal) => {
                    // The torn manifest: refused cleanly, discard and restart.
                    assert!(refusal.contains("recovery:"), "{refusal}");
                    fs::remove_file(&ckpt_path).expect("discarding the corrupt manifest");
                    fs::remove_file(&jsonl_path).ok();
                }
            }
        }
        let resuming = resumed.is_some();
        let mut jsonl = JsonlRunWriter::new(
            fs::OpenOptions::new()
                .create(true)
                .append(resuming)
                .write(true)
                .truncate(!resuming)
                .open(&jsonl_path)
                .expect("stream opens"),
        );
        let ckpt = Checkpointer::new(&ckpt_path);
        let campaign = noise_campaign(1 + sessions % 3);
        let telemetry = CampaignTelemetry::none().with_metrics(&mut metrics);
        let registry = noise_registry();
        let mut session = campaign.session(&registry).checkpointer(&ckpt);
        if let Some(manifest) = resumed {
            session = session.resume(manifest);
        }
        let result = session.sink(&mut jsonl).telemetry(telemetry).faults(&injector).run();
        match result {
            Ok((CampaignOutcome::Complete(report), _)) => {
                jsonl.finish().expect("stream closes");
                break report;
            }
            Ok((other, _)) => panic!("no session budget is set: {other:?}"),
            Err(error) => assert!(is_injected(&error), "only planned faults may kill: {error}"),
        }
    };

    assert_eq!(report, expected_report);
    assert_eq!(report.to_json(), expected_report.to_json());
    assert_eq!(fs::read(&jsonl_path).expect("stream readable"), expected_jsonl);
    // Every category fired: 2 sink errors + 1 death + 1 abort + 1 tear.
    assert_eq!(metrics.counter("fault.injected.sink_io_error"), 2);
    assert_eq!(metrics.counter("fault.injected.worker_death"), 1);
    assert_eq!(metrics.counter("fault.injected.abort_mid_chunk"), 1);
    assert_eq!(metrics.counter("fault.injected.torn_manifest"), 1);
    assert_eq!(metrics.counter("fault.injected"), 5);
    assert!(metrics.counter("recovery.outcome.recovered") >= 1);
    fs::remove_file(&ckpt_path).ok();
    fs::remove_file(&jsonl_path).ok();
}
