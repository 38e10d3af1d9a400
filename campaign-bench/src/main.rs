//! # karyon-campaign-bench
//!
//! Times real KARYON scenario-family campaigns end to end and, in a separate
//! traced run, layer by layer.  It calls the public `karyon-scenario` API
//! in-process, making the calls `karyon-campaign run` and `report` make, and
//! spawns no process inside a timed region.
//!
//! ```text
//! cargo run --offline --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload <net-slots|kernel-bus|artifact-roundtrip> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates the workload's campaign spec, which is written to a
//! work directory and read back by every set-up.  One run of the benchmark:
//! 1. measures the session's peak resident memory in a child process that
//!    does one set-up and one session and nothing else;
//! 2. runs one untimed warm-up session; on the workloads without artifacts it
//!    writes the JSONL stream and final manifest the replays read;
//! 3. for `--seconds`, repeats: set-up (timed several times), one session,
//!    the report rebuilt from the artifacts, and with `--trace 1` one traced
//!    session of the same campaign.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, the per-layer
//! metrics traced.  A summary goes to stderr; a traced run also writes its
//! profile and the last traced session's spans under `.bench-out/`.
//! RATIONALE.md explains the workloads, the metrics and the gate.

mod gate;
mod layers;
mod session;
mod stats;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use karyon_scenario::builtin_registry;
use karyon_scenario::json::ObjectWriter;

use layers::{Profile, Recorder, SessionFacts};
use session::{replay, run_session, setup, ArtifactMode, Outcome, Paths, Setup};
use stats::Dist;
use workloads::Workload;

/// Set-ups timed before each session; the last one feeds the session.
const SETUP_REPS: usize = 25;
/// Sessions a run makes even when they outlast `--seconds`.
const MIN_SESSIONS: usize = 3;
/// Replay time gathered per session on the workloads whose replay source is
/// small.
const REPLAY_BUDGET: Duration = Duration::from_millis(100);

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] =
    [("runs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("replay_runs_per_s", "1/s")];

const USAGE: &str =
    "usage: karyon-campaign-bench --workload <net-slots|kernel-bus|artifact-roundtrip> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one set-up and one session, print the peak RSS in kB.
    rss_probe: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut rss_probe) =
        (None, None, None, None, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if rss_probe { 1.0 } else { seconds.ok_or("--seconds is required")? },
        trace: if rss_probe { false } else { trace.ok_or("--trace is required")? },
        rss_probe,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{USAGE}\nerror: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.rss_probe { rss_probe(&args) } else { bench(&args) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A work directory under the current one, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(label: &str) -> Result<Self, String> {
        let dir = Path::new(".bench-work").join(format!("{label}-{}", std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leaves `.bench-work` itself only while another process uses it.
        let _ = fs::remove_dir(".bench-work");
    }
}

/// Writes the workload's spec and returns the paths of its files.
fn prepare(args: &Args) -> Result<(WorkDir, Paths), String> {
    let dir = WorkDir::create(args.workload.name())?;
    let paths = Paths::new(&dir.0);
    fs::write(&paths.spec, args.workload.spec_json(args.seed))
        .map_err(|e| format!("cannot write {}: {e}", paths.spec.display()))?;
    Ok((dir, paths))
}

fn session_mode(workload: Workload) -> ArtifactMode {
    if workload.writes_artifacts() {
        ArtifactMode::Full
    } else {
        ArtifactMode::None
    }
}

/// The process's peak resident set (VmHWM), in kB.
fn peak_rss_kb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The child half of the memory measurement.
fn rss_probe(args: &Args) -> Result<String, String> {
    let (_dir, paths) = prepare(args)?;
    let mut setup = setup(&paths, session_mode(args.workload))?;
    run_session(&mut setup, None)?;
    Ok(peak_rss_kb()?.to_string())
}

/// Peak RSS of one set-up and session, measured in a child process so that
/// neither the replay (which holds every record) nor earlier sessions can
/// raise it.
fn peak_rss_of_session(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--rss-probe", "--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the memory probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("the memory probe failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|line| line.trim().parse().ok())
        .ok_or_else(|| "the memory probe printed no peak RSS".to_string())
}

/// Runs attempted and failed, over every session of a benchmark run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts a session; returns its report's JSON when it completed.
    fn session(&mut self, outcome: &Result<Outcome, String>, runs: u64) -> Option<String> {
        self.attempted += runs;
        match outcome {
            Ok(outcome) => {
                self.failed += gate::failed_runs(&outcome.report);
                Some(outcome.report.to_json())
            }
            Err(error) => {
                eprintln!("session failed: {error}");
                self.failed += runs;
                None
            }
        }
    }

    /// A session whose output disagrees with another source fails every run.
    fn fail_all(&mut self, runs: u64, what: &str) {
        eprintln!("{what}: every run of the session fails");
        self.failed = (self.failed + runs).min(self.attempted);
    }
}

/// Set-up, timed `SETUP_REPS` times; returns the last one.
fn timed_setup(paths: &Paths, mode: ArtifactMode, samples: &mut Dist) -> Result<Setup, String> {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        let made = setup(paths, mode)?;
        samples.push(started.elapsed().as_secs_f64());
        last = Some(made);
    }
    Ok(last.expect("SETUP_REPS > 0"))
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

fn bench(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let runs = workload.run_count();
    let (_dir, paths) = prepare(args)?;
    let mode = session_mode(workload);
    let artifacts = workload.writes_artifacts();
    let peak_rss_mb = if args.trace { 0.0 } else { peak_rss_of_session(args)? / 1024.0 };
    let mut tally = Tally::default();

    // The warm-up session fills caches and finishes lazy set-up.  On the
    // workloads without artifacts it writes the replay source.
    let warm_mode = if artifacts { mode } else { ArtifactMode::ReplaySource };
    let mut warm = setup(&paths, warm_mode)?;
    let warm_outcome = run_session(&mut warm, None);
    let warm_live = tally.session(&warm_outcome, runs);

    let mut recorder = args
        .trace
        .then(|| Recorder::new(builtin_registry().names(), workload.run_index_by_seed(args.seed)));
    let (mut setups, mut rates, mut replays) = (Dist::default(), Dist::default(), Dist::default());
    let mut profile = Profile::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut sessions = 0;
    while sessions < MIN_SESSIONS || Instant::now() < deadline {
        sessions += 1;
        if artifacts {
            let _ = fs::remove_file(&paths.manifest);
        }
        let mut timed = timed_setup(&paths, mode, &mut setups)?;
        let outcome = run_session(&mut timed, None);
        let live = tally.session(&outcome, runs);
        if let Ok(outcome) = &outcome {
            let rate = runs as f64 / outcome.elapsed.as_secs_f64();
            rates.push(rate);
            profile.untraced_rates.push(rate);
        }

        // The report rebuilt from the artifacts: this session's on
        // artifact-roundtrip, the warm-up's elsewhere.
        let source = if artifacts { (&timed, &live) } else { (&warm, &warm_live) };
        if let (replay_setup, Some(live)) = source {
            let budget_start = Instant::now();
            loop {
                let r = replay(replay_setup, &paths, live)?;
                if !r.identical {
                    tally.fail_all(runs, "the replayed reports differ from the live one");
                }
                replays.push(r.total().as_secs_f64());
                profile.replay_parse_us.push(r.parse.as_secs_f64() * 1e6 / runs as f64);
                profile.replay_reduce_us.push(r.reduce.as_secs_f64() * 1e6 / runs as f64);
                profile.replay_manifest_ms.push(r.manifest.as_secs_f64() * 1e3);
                if artifacts || budget_start.elapsed() >= REPLAY_BUDGET {
                    break;
                }
            }
        }

        if let (Some(recorder), Some(live)) = (recorder.as_mut(), &live) {
            if artifacts {
                let _ = fs::remove_file(&paths.manifest);
            }
            let mut traced = setup(&paths, mode)?;
            traced.registry = layers::wrap_registry(&traced.registry, recorder);
            let outcome = run_session(&mut traced, Some(recorder));
            drop(traced);
            let traced_live = tally.session(&outcome, runs);
            if traced_live.as_ref() != Some(live) {
                tally.fail_all(runs, "the traced report differs from the untraced one");
            }
            if let Ok(outcome) = outcome {
                profile.traced_rates.push(runs as f64 / outcome.elapsed.as_secs_f64());
                profile.absorb(
                    recorder,
                    SessionFacts {
                        workers: outcome.stats.workers,
                        runs,
                        peak_resident_records: outcome.stats.peak_resident_records,
                        metrics: &outcome.metrics,
                        sink_bytes: if artifacts { file_len(&paths.jsonl) } else { 0 },
                        trace_bytes: if artifacts { file_len(&paths.trace) } else { 0 },
                        final_manifest_bytes: artifacts.then(|| file_len(&paths.manifest)),
                    },
                );
            }
        }
    }

    let digest = warm_live.as_deref().map_or(0, fnv1a64);
    eprintln!(
        "{}: seed {}, {sessions} sessions of {runs} runs, report digest {digest:016x}",
        workload.name(),
        args.seed
    );
    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    let mut correct = tally.failed == 0 && rates.len() > 0;
    if args.trace {
        correct &= profile.accounts();
        let table = profile.table(workload.name());
        eprint!("{table}");
        write_outputs(workload, &format!("report digest {digest:016x}\n{table}"), &profile)?;
        metrics = profile.metrics();
    } else {
        for (name, dist) in [("runs_per_s", &rates), ("setup_s", &setups)] {
            eprintln!(
                "  {name}: median {:.6}, quartiles {:.6}..{:.6}, n {}",
                dist.median(),
                dist.quantile(0.25),
                dist.quantile(0.75),
                dist.len()
            );
        }
        eprintln!(
            "  replay: median {:.6} s, n {}; peak RSS {peak_rss_mb:.3} MB",
            replays.median(),
            replays.len()
        );
        let replay_s = replays.median();
        let replay_rate = if replay_s > 0.0 { runs as f64 / replay_s } else { 0.0 };
        let values = [rates.median(), setups.median(), peak_rss_mb, replay_rate];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name.to_string(), unit, value));
        }
    }
    Ok(result_line(correct, &tally, &metrics))
}

/// Writes a traced run's profile and spans under `.bench-out/`.
fn write_outputs(workload: Workload, profile_text: &str, profile: &Profile) -> Result<(), String> {
    let out = Path::new(".bench-out");
    fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let write = |name: String, text: &str| {
        let path = out.join(name);
        fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{}.profile.txt", workload.name()), profile_text)?;
    write(format!("{}.spans.csv", workload.name()), &profile.spans_csv(workload.name()))
}

fn result_line(correct: bool, tally: &Tally, metrics: &[(String, &'static str, f64)]) -> String {
    let mut values = ObjectWriter::new();
    for (name, unit, value) in metrics {
        let mut metric = ObjectWriter::new();
        metric.f64("value", *value).string("unit", unit);
        values.raw(name, &metric.finish());
    }
    let mut line = ObjectWriter::new();
    line.bool("correct", correct)
        .u64("attempted", tally.attempted)
        .u64("failed", tally.failed)
        .raw("metrics", &values.finish());
    line.finish()
}

/// FNV-1a over the report JSON: a short digest that shows when a change
/// alters what the families compute.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use karyon_scenario::{Campaign, CampaignEntry, JsonValue, ParamGrid};

    /// A small campaign over engine-driven and plain families.
    fn small_spec(threads: usize) -> String {
        format!(
            r#"{{"name": "small", "seed": 9, "threads": {threads}, "chunk_size": 5, "entries": [
                {{"scenario": "pulse-sync", "replications": 4, "duration_secs": 5, "grid": {{}}}},
                {{"scenario": "middleware-qos", "replications": 3, "duration_secs": 2,
                  "grid": {{"degrade": [false, true]}}}},
                {{"scenario": "kernel-latency", "replications": 2, "grid": {{"rules_per_level": [2]}}}},
                {{"scenario": "lane-change", "replications": 6, "duration_secs": 2, "grid": {{}}}}
            ]}}"#
        )
    }

    fn work_dir(label: &str, spec: &str) -> (WorkDir, Paths) {
        let dir = WorkDir::create(&format!("test-{label}")).unwrap();
        let paths = Paths::new(&dir.0);
        fs::write(&paths.spec, spec).unwrap();
        (dir, paths)
    }

    fn streams(paths: &Paths) -> (Vec<u8>, Vec<u8>) {
        (fs::read(&paths.jsonl).unwrap(), fs::read(&paths.trace).unwrap())
    }

    #[test]
    fn wrappers_and_tracing_leave_reports_and_streams_unchanged() {
        let registry = builtin_registry();
        for threads in [1, 2] {
            let spec = small_spec(threads);
            let campaign = Campaign::from_json_str(&spec).unwrap();
            let plain = campaign.run(&registry).unwrap().to_json();
            let recorder = Recorder::new(registry.names(), HashMap::new());
            let wrapped = layers::wrap_registry(&registry, &recorder);
            assert_eq!(campaign.run(&wrapped).unwrap().to_json(), plain, "{threads} workers");

            let (_dir, paths) = work_dir(&format!("transparent-{threads}"), &spec);
            let mut untraced = setup(&paths, ArtifactMode::Full).unwrap();
            let live = run_session(&mut untraced, None).unwrap().report.to_json();
            assert_eq!(live, plain);
            let untraced_streams = streams(&paths);

            let recorder = Recorder::new(registry.names(), HashMap::new());
            let mut traced = setup(&paths, ArtifactMode::Full).unwrap();
            traced.registry = layers::wrap_registry(&traced.registry, &recorder);
            let outcome = run_session(&mut traced, Some(&recorder)).unwrap();
            assert_eq!(outcome.report.to_json(), live, "{threads} workers, traced");
            assert!(untraced_streams == streams(&paths), "traced artifacts differ");
        }
    }

    #[test]
    fn traced_layers_add_up_to_the_session() {
        let spec = small_spec(1);
        let (_dir, paths) = work_dir("accounts", &spec);
        let registry = builtin_registry();
        let campaign = Campaign::from_json_str(&spec).unwrap();
        let run_index = workloads::run_index_by_seed(9, &[(1, 4), (2, 3), (1, 2), (1, 6)]);
        let recorder = Recorder::new(registry.names(), run_index);
        let mut traced = setup(&paths, ArtifactMode::Full).unwrap();
        traced.registry = layers::wrap_registry(&traced.registry, &recorder);
        let outcome = run_session(&mut traced, Some(&recorder)).unwrap();
        let mut profile = Profile::default();
        profile.absorb(
            &recorder,
            SessionFacts {
                workers: outcome.stats.workers,
                runs: campaign.run_count(),
                peak_resident_records: outcome.stats.peak_resident_records,
                metrics: &outcome.metrics,
                sink_bytes: file_len(&paths.jsonl),
                trace_bytes: file_len(&paths.trace),
                final_manifest_bytes: Some(file_len(&paths.manifest)),
            },
        );
        assert!(profile.accounts());
        let capacity = outcome.elapsed.as_secs_f64();
        let rows: f64 = profile.rows().iter().map(|(_, s)| s).sum();
        assert!((rows - capacity).abs() < 1e-3 * capacity, "{rows} vs {capacity}");
        let metrics: HashMap<String, f64> =
            profile.metrics().into_iter().map(|(name, _, value)| (name, value)).collect();
        // One manifest per chunk: 18 runs in chunks of 5.
        assert_eq!(metrics["checkpoint.manifests"], 4.0);
        assert_eq!(metrics["kernel.rule_evals_per_run"], 2_000.0 * 12.0);
        assert!(metrics["sink.us_per_run"] > 0.0 && metrics["family.lane-change.us_per_run"] > 0.0);
    }

    #[test]
    fn corrupted_artifacts_fail_every_run() {
        let spec = small_spec(2);
        let (_dir, paths) = work_dir("corrupt", &spec);
        let mut session = setup(&paths, ArtifactMode::Full).unwrap();
        let outcome = run_session(&mut session, None);
        let runs = session.campaign.run_count();
        let mut tally = Tally::default();
        let live = tally.session(&outcome, runs).unwrap();
        assert!(replay(&session, &paths, &live).unwrap().identical);

        let text = fs::read_to_string(&paths.jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let dropped = lines[..lines.len() - 1].join("\n") + "\n";
        let altered = text.replacen("\"admitted\":1", "\"admitted\":0", 1);
        assert_ne!(altered, text, "the stream holds a value to alter");
        for corrupt in [dropped, altered] {
            fs::write(&paths.jsonl, corrupt).unwrap();
            let replayed = replay(&session, &paths, &live).unwrap();
            assert!(!replayed.identical);
            let mut tally = Tally::default();
            tally.session(&outcome, runs);
            tally.fail_all(runs, "corrupted stream");
            assert_eq!((tally.attempted, tally.failed), (runs, runs));
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_the_program_prints() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = JsonValue::parse(text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> =
            Profile::default().metrics().into_iter().map(|(n, u, _)| (n, u.to_string())).collect();
        assert_eq!(listed("per_layer"), per_layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn gate_checks_the_paper_claims_on_a_full_workload_point() {
        // One replication of each net-slots point at a short horizon: every
        // claimed flag holds.
        let report = Campaign::new("claims", 4)
            .with_threads(2)
            .entry(
                CampaignEntry::new("tdma")
                    .grid(ParamGrid::new().axis("churn", [false, true]))
                    .replications(2)
                    .duration_secs(20),
            )
            .run(&builtin_registry())
            .unwrap();
        assert_eq!(gate::failed_runs(&report), 0);
    }
}
