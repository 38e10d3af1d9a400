//! The `karyon-campaign` binary's contract, driven as a user drives it: run →
//! interrupt → resume → report on `examples/campaign_spec.json`, and the
//! usage errors that must refuse before writing anything.
//!
//! Every check mirrors a `cmp` or exit-code check of the CI step
//! "karyon-campaign CLI walkthrough".  One uninterrupted reference run
//! (JSONL, trace directory, metrics and a checkpoint every chunk) is the
//! baseline every other artifact is compared with, byte for byte.  Before
//! resuming, the interrupted session's streams are run ahead of its
//! checkpoint, torn last line included, as a session killed between two
//! manifests leaves them: resume must cut both back to the watermark.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use karyon::scenario::JsonValue;

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_spec.json");

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

#[test]
fn interrupted_runs_resume_and_replay_byte_identically() {
    let dir = scratch_dir("walkthrough");
    succeed(&dir, &["list-families"]);

    // The uninterrupted reference, with the full telemetry attachment and a
    // checkpoint every chunk.
    let reference = report_of(&succeed(
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

    let ref_jsonl = read(dir.join("ref.jsonl"));
    let ref_trace = read(dir.join("ref-traces").join(TRACE));
    assert!(!ref_trace.is_empty(), "the demo spec traces its net-transport runs");

    // A 5-chunk slice whose streams then run ahead of its checkpoint, then
    // resume to completion.
    let stream_args =
        ["--jsonl", "cli.jsonl", "--trace-dir", "cli-traces", "--checkpoint", "cli.ckpt"];
    let mut interrupted = vec!["run", SPEC, "--quiet", "--output", "json"];
    interrupted.extend(stream_args);
    interrupted.extend(["--max-chunks", "5"]);
    succeed(&dir, &interrupted);
    run_ahead(&dir.join("cli.jsonl"), &ref_jsonl);
    run_ahead(&dir.join("cli-traces").join(TRACE), &ref_trace);
    let mut resume = vec!["resume", SPEC, "--quiet", "--output", "json"];
    resume.extend(stream_args);
    assert_eq!(report_of(&succeed(&dir, &resume)), reference, "resumed report");
    assert!(ref_jsonl == read(dir.join("cli.jsonl")), "JSONL streams differ");
    // The final manifest too: the resumed session's first write rendered
    // every point, the reference's writes kept the closed ones.
    assert!(read(dir.join("ref.ckpt")) == read(dir.join("cli.ckpt")), "final manifests differ");
    // The trace stream, stitched across the interruption.
    assert!(ref_trace == read(dir.join("cli-traces").join(TRACE)), "trace streams differ");

    // Replay the stream and the finished checkpoint without running.
    let replayed =
        succeed(&dir, &["report", SPEC, "--quiet", "--output", "json", "--jsonl", "cli.jsonl"]);
    assert_eq!(report_of(&replayed), reference, "report --jsonl");
    let from_checkpoint =
        succeed(&dir, &["report", SPEC, "--quiet", "--output", "json", "--checkpoint", "cli.ckpt"]);
    assert_eq!(report_of(&from_checkpoint), reference, "report --checkpoint");

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
