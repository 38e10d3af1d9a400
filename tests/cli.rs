//! The `karyon-campaign` binary's contract, driven as a user drives it on
//! `examples/campaign_spec.json`: run → interrupt → resume → report, the
//! chaos drills, shard → merge with an incomplete and a fault-aborted shard
//! set, the usage errors that must refuse before writing anything, the
//! schema of the trace stream and the metrics snapshot, every builtin
//! family running from its declared defaults, the refusal of a run stream
//! that another campaign wrote, and a quiet end when stdout's reader goes
//! away.
//!
//! Every check mirrors a check of the CI steps "karyon-campaign CLI
//! walkthrough", "Validate the trace stream schema and the metrics
//! snapshot", "Registry coverage smoke", "Chaos drill", "Shard/merge
//! walkthrough" and "Shard chaos variant".  One uninterrupted reference run
//! (JSONL, trace directory, metrics and a checkpoint every chunk), shared by
//! every test, is the baseline every other artifact is compared with, byte
//! for byte.  Before resuming, the interrupted session's streams are run
//! ahead of its checkpoint, torn last line included, as a session killed
//! between two manifests leaves them: resume must cut both back to the
//! watermark.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

use karyon::scenario::json::{array, escape, ObjectWriter};
use karyon::scenario::{derive_run_seed, JsonValue};

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_spec.json");

/// The committed fault plan: a transient sink I/O error, a worker death at
/// chunk 5, an abort mid-chunk and a torn manifest write.
const FAULT_PLAN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fault_plan.json");

/// The demo spec's trace stream inside a `--trace-dir`.
const TRACE: &str = "mixed-fault-campaign.trace.jsonl";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("karyon-cli-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Runs the CLI in `dir` with `args`; relative paths resolve inside `dir`.
fn karyon_campaign(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_karyon-campaign"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("the CLI binary starts")
}

/// Runs the CLI and returns its exit code.
fn exit_code(dir: &Path, args: &[&str]) -> Option<i32> {
    karyon_campaign(dir, args).status.code()
}

/// Runs the CLI and returns its stdout, failing unless it exits 0.
fn succeed(dir: &Path, args: &[&str]) -> String {
    let out = karyon_campaign(dir, args);
    assert!(
        out.status.success(),
        "`karyon-campaign {}` exited {:?}: {}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// The report of a `--output json` document: the `report` member of a
/// run/resume envelope (its runner and metrics members vary by session), or
/// the whole document for `report`.
fn report_of(stdout: &str) -> JsonValue {
    let document = JsonValue::parse(stdout).expect("--output json prints one JSON document");
    document.get("report").cloned().unwrap_or(document)
}

fn read(path: impl AsRef<Path>) -> Vec<u8> {
    let path = path.as_ref();
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// Extends the stream at `path`, a prefix of `reference`, by half of what
/// `reference` holds beyond it, cutting a line where the half ends.
fn run_ahead(path: &Path, reference: &[u8]) {
    let mut stream = read(path);
    assert!(reference.starts_with(&stream), "{path:?} is not a prefix of its reference");
    let end = stream.len() + (reference.len() - stream.len()) / 2;
    stream.extend_from_slice(&reference[stream.len()..end]);
    fs::write(path, stream).expect("stream is writable");
}

/// The artifacts of the uninterrupted reference run.
struct Reference {
    report: JsonValue,
    jsonl: Vec<u8>,
    trace: Vec<u8>,
    checkpoint: Vec<u8>,
    /// The `--metrics` snapshot.
    metrics: Vec<u8>,
}

/// The uninterrupted reference, with the full telemetry attachment and a
/// checkpoint every chunk; run once and shared by every test.
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = scratch_dir("reference");
        let report = report_of(&succeed(
            &dir,
            &[
                "run",
                SPEC,
                "--quiet",
                "--output",
                "json",
                "--jsonl",
                "ref.jsonl",
                "--trace-dir",
                "ref-traces",
                "--metrics",
                "ref-metrics.json",
                "--checkpoint",
                "ref.ckpt",
            ],
        ));
        let reference = Reference {
            report,
            jsonl: read(dir.join("ref.jsonl")),
            trace: read(dir.join("ref-traces").join(TRACE)),
            checkpoint: read(dir.join("ref.ckpt")),
            metrics: read(dir.join("ref-metrics.json")),
        };
        assert!(!reference.trace.is_empty(), "the demo spec traces its net-transport runs");
        fs::remove_dir_all(&dir).ok();
        reference
    })
}

#[test]
fn interrupted_runs_resume_and_replay_byte_identically() {
    let dir = scratch_dir("walkthrough");
    succeed(&dir, &["list-families"]);
    let Reference {
        report: reference,
        jsonl: ref_jsonl,
        trace: ref_trace,
        checkpoint: ref_ckpt,
        ..
    } = reference();

    // A 5-chunk slice whose streams then run ahead of its checkpoint, then
    // resume to completion.
    let stream_args =
        ["--jsonl", "cli.jsonl", "--trace-dir", "cli-traces", "--checkpoint", "cli.ckpt"];
    let mut interrupted = vec!["run", SPEC, "--quiet", "--output", "json"];
    interrupted.extend(stream_args);
    interrupted.extend(["--max-chunks", "5"]);
    succeed(&dir, &interrupted);
    run_ahead(&dir.join("cli.jsonl"), ref_jsonl);
    run_ahead(&dir.join("cli-traces").join(TRACE), ref_trace);
    let mut resume = vec!["resume", SPEC, "--quiet", "--output", "json"];
    resume.extend(stream_args);
    assert_eq!(&report_of(&succeed(&dir, &resume)), reference, "resumed report");
    assert!(*ref_jsonl == read(dir.join("cli.jsonl")), "JSONL streams differ");
    // The final manifest too: the resumed session's first write rendered
    // every point, the reference's writes kept the closed ones.
    assert!(*ref_ckpt == read(dir.join("cli.ckpt")), "final manifests differ");
    // The trace stream, stitched across the interruption.
    assert!(*ref_trace == read(dir.join("cli-traces").join(TRACE)), "trace streams differ");

    // Replay the stream and the finished checkpoint without running.
    let replayed =
        succeed(&dir, &["report", SPEC, "--quiet", "--output", "json", "--jsonl", "cli.jsonl"]);
    assert_eq!(&report_of(&replayed), reference, "report --jsonl");
    let from_checkpoint =
        succeed(&dir, &["report", SPEC, "--quiet", "--output", "json", "--checkpoint", "cli.ckpt"]);
    assert_eq!(&report_of(&from_checkpoint), reference, "report --checkpoint");

    fs::remove_dir_all(&dir).ok();
}

/// Every line of the reference trace stream carries its canonical run
/// coordinates and a well-formed event or span, in canonical run order; the
/// metrics snapshot holds the three instrument kinds and the runner's
/// counters and chunk timer.
#[test]
fn trace_stream_and_metrics_snapshot_follow_their_schema() {
    let reference = reference();
    let trace = std::str::from_utf8(&reference.trace).expect("the trace stream is UTF-8");
    let mut last_run = 0;
    for line in trace.lines() {
        let record = JsonValue::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let field = |key: &str| record.get(key).unwrap_or_else(|| panic!("no {key:?}: {line}"));
        let number = |key: &str| field(key).as_u64().unwrap_or_else(|| panic!("{key:?}: {line}"));
        for key in ["point", "replication", "seed"] {
            number(key);
        }
        assert!(field("name").as_str().is_some(), "{line}");
        match field("kind").as_str() {
            Some("event") => {
                number("t_us");
            }
            Some("span") => assert!(number("start_us") <= number("end_us"), "{line}"),
            _ => panic!("a record is an event or a span: {line}"),
        }
        let run = number("run");
        assert!(run >= last_run, "trace lines out of canonical run order: {line}");
        last_run = run;
    }
    assert!(trace.lines().count() > 0, "the trace stream is empty");

    let text = std::str::from_utf8(&reference.metrics).expect("the metrics snapshot is UTF-8");
    let metrics = JsonValue::parse(text).expect("the metrics snapshot is JSON");
    let kinds: Vec<&str> =
        metrics.as_object().expect("an object").iter().map(|(kind, _)| kind.as_str()).collect();
    assert_eq!(kinds, ["counters", "gauges", "timers"]);
    let runs = metrics.get("counters").and_then(|c| c.get("campaign.runs"));
    assert!(runs.and_then(JsonValue::as_u64).is_some_and(|runs| runs > 0), "{text}");
    let chunk_ms = metrics.get("timers").and_then(|t| t.get("campaign.chunk_ms"));
    assert!(chunk_ms.is_some(), "{text}");
}

/// A parameter default from `list-families --output json`, as JSON text.
fn scalar_json(value: &JsonValue) -> String {
    match value {
        JsonValue::Number(raw) => raw.clone(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::String(s) => format!("\"{}\"", escape(s)),
        other => panic!("a parameter default is a scalar, not {}", other.type_name()),
    }
}

/// A spec built from `list-families --output json`, with every family at its
/// declared defaults, 2 replications and 10 s, runs through `run`: one point
/// per family, and no run is causality-suspect.
#[test]
fn every_family_runs_from_its_declared_defaults() {
    let dir = scratch_dir("registry");
    let listing = succeed(&dir, &["list-families", "--output", "json"]);
    let listing = JsonValue::parse(&listing).expect("list-families prints JSON");
    let families = listing.get("families").and_then(JsonValue::as_array).expect("a family list");
    assert!(families.len() >= 16, "the registry shrank to {} families", families.len());
    let entries: Vec<String> = families
        .iter()
        .map(|family| {
            let mut grid = ObjectWriter::new();
            for param in family.get("params").and_then(JsonValue::as_array).expect("params") {
                let name = param.get("name").and_then(JsonValue::as_str).expect("a name");
                let default = param.get("default").expect("a default");
                grid.raw(name, &format!("[{}]", scalar_json(default)));
            }
            let mut entry = ObjectWriter::new();
            entry
                .string("scenario", family.get("name").and_then(JsonValue::as_str).expect("name"))
                .u64("replications", 2)
                .u64("duration_secs", 10)
                .raw("grid", &grid.finish());
            entry.finish()
        })
        .collect();
    let mut spec = ObjectWriter::new();
    spec.string("name", "registry-smoke").u64("seed", 7).raw("entries", &array(&entries));
    fs::write(dir.join("registry-smoke.json"), spec.finish()).expect("spec is writable");

    let report =
        report_of(&succeed(&dir, &["run", "registry-smoke.json", "--quiet", "--output", "json"]));
    let points = report.get("points").and_then(JsonValue::as_array).expect("a point list");
    assert_eq!(points.len(), families.len(), "one point per family");
    for point in points {
        let count = |key: &str| point.get(key).and_then(JsonValue::as_u64);
        assert_eq!((count("runs"), count("suspect_runs")), (Some(2), Some(0)), "{point:?}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// The CI "Chaos drill": `chaos` recovers from every fault category of the
/// committed plan, and from a seed-derived plan, to the reference report;
/// `run --fault-plan` dies with exit 4 on the injected fault.
#[test]
fn chaos_drills_recover_the_reference_and_faulted_runs_exit_4() {
    let dir = scratch_dir("chaos");
    let chaos = succeed(
        &dir,
        &[
            "chaos",
            SPEC,
            "--dir",
            "chaos-plan",
            "--fault-plan",
            FAULT_PLAN,
            "--quiet",
            "--output",
            "json",
        ],
    );
    assert_eq!(&report_of(&chaos), &reference().report, "chaos --fault-plan report");
    succeed(&dir, &["chaos", SPEC, "--dir", "chaos-seed", "--fault-seed", "7", "--quiet"]);
    let faulted = exit_code(
        &dir,
        &["run", SPEC, "--quiet", "--checkpoint", "faulted.ckpt", "--fault-plan", FAULT_PLAN],
    );
    assert_eq!(faulted, Some(4), "run --fault-plan must exit 4 (fault-aborted)");
    fs::remove_dir_all(&dir).ok();
}

/// The CI "Shard/merge walkthrough" and "Shard chaos variant": three shard
/// sessions with 1, 2 and 4 workers merge to the reference report, JSONL and
/// trace; two of three shards are refused with exit 6; a shard that the
/// fault plan aborts exits 4 and leaves no manifest, and after a clean rerun
/// the merge is still the reference.
#[test]
fn shard_sets_merge_to_the_reference_and_refuse_incomplete_or_faulted_shards() {
    let dir = scratch_dir("shards");
    let reference = reference();
    let shard = |index: &'static str, threads: &'static str| {
        let args = ["--dir", "shards", "--index", index, "--of", "3", "--threads", threads];
        let mut shard = vec!["shard", SPEC, "--trace", "--quiet"];
        shard.extend(args);
        shard
    };
    succeed(&dir, &shard("0", "1"));
    succeed(&dir, &shard("1", "2"));
    let incomplete = exit_code(&dir, &["merge", SPEC, "--dir", "shards", "--quiet"]);
    assert_eq!(incomplete, Some(6), "an incomplete shard set must be refused with exit 6");
    succeed(&dir, &shard("2", "4"));
    let merged = succeed(
        &dir,
        &[
            "merge",
            SPEC,
            "--dir",
            "shards",
            "--quiet",
            "--output",
            "json",
            "--jsonl",
            "merged.jsonl",
            "--trace-dir",
            "merged-traces",
        ],
    );
    assert_eq!(report_of(&merged), reference.report, "merged report");
    assert!(reference.jsonl == read(dir.join("merged.jsonl")), "merged JSONL differs");
    assert!(reference.trace == read(dir.join("merged-traces").join(TRACE)), "merged trace differs");

    // The plan's worker death lands at chunk 5, inside shard 1 of 3.
    let manifest = dir.join("shards/mixed-fault-campaign.shard-1-of-3.manifest.json");
    fs::remove_file(&manifest).expect("shard 1 wrote its manifest");
    let mut faulted = shard("1", "2");
    faulted.extend(["--fault-plan", FAULT_PLAN]);
    assert_eq!(exit_code(&dir, &faulted), Some(4), "a fault-aborted shard must exit 4");
    assert!(!manifest.exists(), "a fault-aborted shard must not leave a manifest");
    succeed(&dir, &shard("1", "3"));
    let remerged =
        succeed(&dir, &["merge", SPEC, "--dir", "shards", "--quiet", "--output", "json"]);
    assert_eq!(report_of(&remerged), reference.report, "merge after the rerun");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_outside_their_subcommands_exit_2_and_write_nothing() {
    let dir = scratch_dir("refusals");
    let refusals: [&[&str]; 4] = [
        &[
            "report",
            SPEC,
            "--quiet",
            "--jsonl",
            "cli.jsonl",
            "--metrics",
            "refused-metrics.json",
            "--trace-dir",
            "refused-traces",
            "--max-chunks",
            "1",
            "--checkpoint-every",
            "3",
        ],
        &["run", SPEC, "--quiet", "--checkpoint-every", "3"],
        &["merge", SPEC, "--quiet", "--dir", "refused-shards", "--threads", "2"],
        &[
            "shard",
            SPEC,
            "--quiet",
            "--dir",
            "refused-shards",
            "--index",
            "0",
            "--of",
            "3",
            "--checkpoint",
            "refused.ckpt",
        ],
    ];
    for args in refusals {
        let out = karyon_campaign(&dir, args);
        assert_eq!(out.status.code(), Some(2), "`karyon-campaign {}`", args.join(" "));
    }
    let written: Vec<_> = fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(written.is_empty(), "a refused command wrote artifacts: {written:?}");
    fs::remove_dir_all(&dir).ok();
}

/// Replays the reference stream against a copy of the demo spec with `from`
/// replaced by `to`: `report --jsonl` must exit 3 and name the first line,
/// the field, and the expected and found values.
fn assert_foreign_stream_refused(tag: &str, from: &str, to: &str, needles: &[&str]) {
    let dir = scratch_dir(tag);
    let spec = fs::read_to_string(SPEC).expect("the demo spec is readable");
    assert!(spec.contains(from), "the demo spec has no {from:?}");
    fs::write(dir.join("foreign.json"), spec.replacen(from, to, 1)).expect("spec is writable");
    fs::write(dir.join("ref.jsonl"), &reference().jsonl).expect("stream is writable");
    let out = karyon_campaign(&dir, &["report", "foreign.json", "--quiet", "--jsonl", "ref.jsonl"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "a foreign stream must exit 3: {stderr}");
    assert!(out.stdout.is_empty(), "a refused replay printed a report");
    for needle in needles {
        assert!(stderr.contains(needle), "expected {needle:?} in: {stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_refuses_a_stream_written_with_another_seed() {
    let (written, expected) = (derive_run_seed(2026, 0, 0), derive_run_seed(2027, 0, 0));
    assert_foreign_stream_refused(
        "foreign-seed",
        "\"seed\": 2026",
        "\"seed\": 2027",
        &["JSONL line 1: \"seed\"", &format!("is {written} "), &format!("has {expected} ")],
    );
}

#[test]
fn report_refuses_a_stream_written_for_another_family() {
    assert_foreign_stream_refused(
        "foreign-family",
        "\"platoon-fault\"",
        "\"platoon\"",
        &["JSONL line 1: \"scenario\"", "is \"platoon-fault\" ", "has \"platoon\" "],
    );
}

#[test]
fn report_refuses_a_stream_written_with_a_reordered_grid_axis() {
    // Seeds derive from point and replication indices alone, so only the
    // params tell the two campaigns apart.
    assert_foreign_stream_refused(
        "foreign-grid",
        "[\"kernel\", \"los2\", \"los0\"]",
        "[\"los2\", \"kernel\", \"los0\"]",
        &["JSONL line 1: \"params\"", "is {\"mode\":\"kernel\"} ", "has {\"mode\":\"los2\"} "],
    );
}

/// A stdout whose reader has already exited: the command's first write
/// meets a broken pipe, and the CLI ends with exit 0 and an empty stderr.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().expect("`true` starts");
    let pipe = reader.stdin.take().expect("a piped stdin");
    reader.wait().expect("`true` exits");
    let out = Command::new(env!("CARGO_BIN_EXE_karyon-campaign"))
        .args(["list-families", "--output", "json"])
        .stdout(Stdio::from(pipe))
        .output()
        .expect("the CLI binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "a closed pipe must end quietly: {stderr}");
}
