//! `karyon-campaign` — the campaign workflow as a command-line tool.
//!
//! Drives the `karyon-scenario` subsystem end to end from a JSON spec file:
//!
//! ```text
//! karyon-campaign run      <spec.json> [--jsonl runs.jsonl] [--checkpoint c.json] ...
//! karyon-campaign resume   <spec.json> --checkpoint c.json [--jsonl runs.jsonl] ...
//! karyon-campaign report   <spec.json> (--jsonl runs.jsonl | --checkpoint c.json) ...
//! karyon-campaign list-families [--output json]
//! ```
//!
//! `run` executes a campaign (optionally streaming per-run JSONL artifacts
//! and writing crash-safe checkpoints), `resume` continues a killed or
//! time-sliced campaign from its checkpoint manifest — producing a report
//! bit-identical to an uninterrupted run — and `report` re-emits a report
//! without running anything, either by replaying a complete JSONL stream or
//! by reading a finished checkpoint.  Argument parsing is hand-rolled over one
//! flag table ([`FLAGS`]): the workspace builds offline and the surface is
//! small.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use karyon::scenario::fault::is_injected;
use karyon::scenario::{
    builtin_registry, read_run_segment, read_trace_segment, truncate_jsonl, truncate_trace_jsonl,
    validate_shard_set, Campaign, CampaignOutcome, CampaignReport, CampaignTelemetry,
    CheckpointManifest, Checkpointer, FaultInjector, FaultPlan, JsonlRunWriter, RunMeta, RunRecord,
    RunSink, RunnerStats, ScenarioRegistry, ShardManifest, ShardPlan, SyncOnFlushFile,
};
use karyon::telemetry::{JsonlTraceWriter, MetricsRegistry};

/// What went wrong, mapped to the process exit code (see `EXIT CODES` in
/// [`USAGE`]).  The scripts driving chaos campaigns in CI branch on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// Bad flags or arguments, rejected before anything executed (exit 2).
    Usage,
    /// An I/O or execution failure: unreadable spec, sink errors, a scenario
    /// panic, a corrupt checkpoint manifest... (exit 3).
    Io,
    /// The campaign session was cut short by an injected fault — the
    /// expected outcome of a chaos session, never of a production one
    /// (exit 4).
    FaultAborted,
    /// `chaos` recovered to completion but the recovered artifacts were not
    /// byte-identical to the fault-free reference (exit 5).
    Mismatch,
    /// `merge` refused the shard set: manifests from a different campaign
    /// definition, or windows that overlap / leave gaps — merging them would
    /// double-count or silently drop runs (exit 6).
    ShardSet,
}

impl ErrorKind {
    fn code(self) -> u8 {
        match self {
            ErrorKind::Usage => 2,
            ErrorKind::Io => 3,
            ErrorKind::FaultAborted => 4,
            ErrorKind::Mismatch => 5,
            ErrorKind::ShardSet => 6,
        }
    }
}

#[derive(Debug)]
struct CliError {
    kind: ErrorKind,
    message: String,
}

/// Runtime errors bubbling up as strings classify themselves: an injected
/// fault message (recognised by its [`INJECTED_PREFIX`](is_injected)) means
/// the session was deliberately killed; everything else is an I/O /
/// execution failure.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        let kind = if is_injected(&message) { ErrorKind::FaultAborted } else { ErrorKind::Io };
        CliError { kind, message }
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError { kind: ErrorKind::Usage, message: message.into() }
}

const USAGE: &str = "\
karyon-campaign — declarative KARYON simulation campaigns: run, checkpoint, resume, report

USAGE:
    karyon-campaign run    <spec.json> [OPTIONS]     execute a campaign from a JSON spec
    karyon-campaign resume <spec.json> [OPTIONS]     continue from --checkpoint (bit-identical)
    karyon-campaign report <spec.json> [OPTIONS]     re-emit a report without running anything
    karyon-campaign chaos  <spec.json> --dir <dir> (--fault-plan <plan.json> | --fault-seed <n>)
                                                     crash-test the campaign: inject the plan's
                                                     faults, recover across sessions, and verify
                                                     the recovered artifacts are byte-identical
                                                     to a fault-free reference
    karyon-campaign shard  <spec.json> --dir <dir> --index <i> --of <n> [OPTIONS]
                                                     run one shard window of the campaign and
                                                     persist its manifest + JSONL/trace segments
                                                     under --dir (rerunnable: the shard is the
                                                     unit of retry)
    karyon-campaign merge  <spec.json> --dir <dir> [OPTIONS]
                                                     validate a complete shard set, stitch its
                                                     run segments and replay them into the
                                                     campaign report — byte-identical to a
                                                     single-machine run's
    karyon-campaign list-families [--output json]    list the builtin scenario families
                                                     (json: parameter names, types, domains)
    karyon-campaign help                             show this help

OPTIONS (run takes all of these and resume all but --force; report takes --jsonl,
--checkpoint, --output, --metric and --quiet; a flag a subcommand does not take is a
usage error):
    --jsonl <path>        stream one JSON line per run (run: append & continue the stream)
    --checkpoint <path>   write crash-safe checkpoint manifests (resume/report: read them)
    --checkpoint-every <chunks>   manifest cadence in canonical chunks   [default: 1]
    --max-chunks <chunks> bounded work slice: stop (with a checkpoint) after N chunks
    --threads <n>         worker threads (0 = machine parallelism; overrides the spec)
    --output <mode>       report rendering: json | table | both          [default: table]
                          (json for run/resume is an envelope: {\"report\", \"runner\",
                          \"metrics\"?} — the report member stays bit-identical)
    --metric <name>       also render the per-point table of one metric (repeatable)
    --trace-dir <dir>     stream deterministic virtual-time trace records to
                          <dir>/<campaign>.trace.jsonl (bit-identical for any
                          --threads value; resume continues the stream)
    --metrics <path>      collect wall-clock runner metrics (chunk latency, worker
                          busy time, checkpoint cost...) and write the JSON
                          snapshot to <path>; also embedded in --output json
    --quiet               suppress the progress line on stderr
    --force               run: discard an existing checkpoint of this campaign and start over
                          (without it, `run` refuses to overwrite checkpointed progress)
    --fault-plan <file>   run/resume: arm a deterministic fault plan (JSON, see `chaos`);
                          an injected fault aborts the session with exit code 4

SHARD OPTIONS (shard takes --threads/--quiet/--fault-plan plus):
    --dir <dir>           where the shard's artifacts live: <campaign>.shard-<i>-of-<n>
                          .manifest.json / .jsonl / .trace.jsonl (every shard of one
                          campaign must share the same --dir)
    --index <i>           this session's shard index, 0-based
    --of <n>              total shard count; every shard must use the same <n>
    --trace               also stream the deterministic trace segment (pass it to
                          every shard or to none — merge stitches what it finds)
                          (--fault-plan needs no --checkpoint here: rerun the whole
                          shard after a fault, the manifest is only written on success)

MERGE OPTIONS (merge takes --output/--metric/--quiet plus):
    --dir <dir>           the shard directory to collect manifests from
    --jsonl <path>        also write the stitched run stream, byte-identical to a
                          single-machine --jsonl run
    --trace-dir <dir>     also stitch the trace segments to <dir>/<campaign>.trace.jsonl

CHAOS OPTIONS (chaos takes --threads/--output/--quiet plus):
    --dir <dir>           working directory for the chaos checkpoint + JSONL stream
    --fault-plan <file>   the fault plan to inject: {\"faults\": [{\"kind\":
                          \"worker-death\", \"at_chunk\": 1}, {\"kind\": \"sink-io-error\",
                          \"at_chunks_done\": 1, \"failures\": 2}, {\"kind\":
                          \"torn-manifest\", \"at_chunks_done\": 2, \"keep_bytes\": 40},
                          {\"kind\": \"abort-mid-chunk\", \"at_chunk\": 2, \"after_runs\": 3}]}
    --fault-seed <n>      derive a plan deterministically from seed <n> instead
    --max-sessions <n>    recovery-session budget before giving up      [default: 16]

EXIT CODES:
    0   success
    2   usage error (bad flags or arguments; nothing was executed)
    3   I/O or execution failure (unreadable spec, sink error, corrupt manifest, a
        report --jsonl or merge stream that another campaign wrote...)
    4   the session was aborted by an injected fault (--fault-plan on run/resume)
    5   chaos verification failed: recovered artifacts differ from the reference
    6   merge refused the shard set (foreign campaign fingerprint, mismatched chunk
        size or run count, overlapping or gapped shard windows)
    A reader that closes stdout early (`... | head`) ends the command with exit 0
    and nothing on stderr: output comes last, after every artifact is written.

SPEC FILE:
    {\"name\": \"demo\", \"seed\": 42, \"chunk_size\": 4096,
     \"entries\": [{\"scenario\": \"platoon\", \"replications\": 100,
                  \"duration_secs\": 120,
                  \"grid\": {\"mode\": [\"kernel\", \"los0\"], \"vehicles\": [4, 8]}}]}

    Reports are bit-identical for any --threads value and any kill/resume
    history at a fixed spec (seed, chunk_size, entries).
";

/// The subcommands that take a spec file and [`FLAGS`].
const COMMANDS: [&str; 6] = ["run", "resume", "report", "chaos", "shard", "merge"];

/// The flag table: every flag of every [`COMMANDS`] subcommand, declared once
/// as (flag, takes a value, the subcommands that accept it).  A flag outside
/// its row's subcommands is a usage error.
const FLAGS: &[(&str, bool, &[&str])] = &[
    ("--jsonl", true, &["run", "resume", "report", "merge"]),
    ("--checkpoint", true, &["run", "resume", "report"]),
    ("--checkpoint-every", true, &["run", "resume"]),
    ("--max-chunks", true, &["run", "resume"]),
    ("--threads", true, &["run", "resume", "chaos", "shard"]),
    ("--output", true, &["run", "resume", "report", "chaos", "merge"]),
    ("--metric", true, &["run", "resume", "report", "merge"]),
    ("--trace-dir", true, &["run", "resume", "merge"]),
    ("--metrics", true, &["run", "resume"]),
    ("--quiet", false, &COMMANDS),
    ("--force", false, &["run"]),
    ("--fault-plan", true, &["run", "resume", "chaos", "shard"]),
    ("--fault-seed", true, &["chaos"]),
    ("--max-sessions", true, &["chaos"]),
    ("--dir", true, &["chaos", "shard", "merge"]),
    ("--index", true, &["shard"]),
    ("--of", true, &["shard"]),
    ("--trace", false, &["shard"]),
];

/// A parsed command line of one [`COMMANDS`] subcommand.
#[derive(Debug, Default)]
struct Args {
    spec_path: String,
    jsonl: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    max_chunks: Option<usize>,
    threads: Option<usize>,
    output: OutputMode,
    /// `--metric`: the per-point metric tables to render.
    metrics: Vec<String>,
    trace_dir: Option<String>,
    /// `--metrics`: where to write the runner metrics snapshot.
    metrics_path: Option<String>,
    quiet: bool,
    force: bool,
    fault_plan: Option<String>,
    fault_seed: Option<u64>,
    max_sessions: Option<usize>,
    dir: Option<String>,
    index: Option<usize>,
    of: Option<usize>,
    trace: bool,
}

#[derive(Debug, Default, PartialEq, Clone, Copy)]
enum OutputMode {
    Json,
    #[default]
    Table,
    Both,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let result: Result<(), CliError> = match command {
        Some(command) if COMMANDS.contains(&command) => {
            parse(command, &args[1..]).map_err(usage).and_then(|args| match command {
                "run" => cmd_run(args, false),
                "resume" => cmd_run(args, true),
                "report" => cmd_report(args),
                "chaos" => cmd_chaos(args),
                "shard" => cmd_shard(args),
                _ => cmd_merge(args),
            })
        }
        Some("list-families") => cmd_list_families(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_out(|out| out.write_all(USAGE.as_bytes()))
        }
        Some(other) => Err(usage(format!(
            "unknown command {other:?} (expected run, resume, report, chaos, shard, merge, \
             list-families or help)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("karyon-campaign: error: {}", error.message);
            if error.kind == ErrorKind::Usage {
                eprintln!("run `karyon-campaign help` for usage");
            }
            ExitCode::from(error.kind.code())
        }
    }
}

/// Parses the arguments after `command` against [`FLAGS`], then checks the
/// flags `chaos`, `shard` and `merge` cannot run without.
fn parse(command: &str, args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut spec_path = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if !arg.starts_with('-') {
            if spec_path.replace(arg.clone()).is_some() {
                return Err(format!("unexpected extra argument {arg:?}"));
            }
            continue;
        }
        let &(flag, takes_value, commands) = FLAGS
            .iter()
            .find(|(flag, ..)| flag == arg)
            .ok_or_else(|| format!("unknown option {arg:?}"))?;
        if !commands.contains(&command) {
            return Err(format!(
                "{flag} does not apply to `{command}` (it applies to: {})",
                commands.join(", ")
            ));
        }
        let value = match takes_value {
            true => iter.next().ok_or_else(|| format!("{flag} needs a value"))?.as_str(),
            false => "",
        };
        parsed.set(flag, value)?;
    }
    parsed.spec_path = spec_path.ok_or("missing the <spec.json> argument")?;
    let required = |present: bool, what: &str| match present {
        true => Ok(()),
        false => Err(format!("{command} needs {what}")),
    };
    match command {
        "chaos" => {
            required(parsed.dir.is_some(), "--dir <dir> (where its checkpoint and stream live)")?;
            if parsed.fault_plan.is_some() == parsed.fault_seed.is_some() {
                return Err("chaos needs exactly one of --fault-plan <file> or --fault-seed <n>"
                    .to_string());
            }
        }
        "shard" => {
            required(parsed.dir.is_some(), "--dir <dir> (where the shard artifacts live)")?;
            required(parsed.index.is_some(), "--index <i> (this session's shard, 0-based)")?;
            required(parsed.of.is_some(), "--of <n> (the total shard count)")?;
            if let (Some(index), Some(of)) = (parsed.index, parsed.of) {
                if index >= of {
                    return Err(format!(
                        "--index {index} is out of range for --of {of} (indices are 0-based)"
                    ));
                }
            }
        }
        "merge" => required(parsed.dir.is_some(), "--dir <dir> (the shard directory to collect)")?,
        _ => {}
    }
    Ok(parsed)
}

impl Args {
    /// Stores the value of one [`FLAGS`] row.
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        match flag {
            "--jsonl" => self.jsonl = Some(value.to_string()),
            "--checkpoint" => self.checkpoint = Some(value.to_string()),
            "--checkpoint-every" => self.checkpoint_every = Some(parse_count(flag, value)?),
            "--max-chunks" => self.max_chunks = Some(parse_count(flag, value)?),
            "--threads" => self.threads = Some(parse_integer(flag, value)?),
            "--output" => {
                self.output = match value {
                    "json" => OutputMode::Json,
                    "table" => OutputMode::Table,
                    "both" => OutputMode::Both,
                    other => {
                        return Err(format!("--output must be json, table or both, not {other:?}"))
                    }
                }
            }
            "--metric" => self.metrics.push(value.to_string()),
            "--trace-dir" => self.trace_dir = Some(value.to_string()),
            "--metrics" => self.metrics_path = Some(value.to_string()),
            "--quiet" => self.quiet = true,
            "--force" => self.force = true,
            "--fault-plan" => self.fault_plan = Some(value.to_string()),
            "--fault-seed" => self.fault_seed = Some(parse_integer(flag, value)?),
            "--max-sessions" => self.max_sessions = Some(parse_count(flag, value)?),
            "--dir" => self.dir = Some(value.to_string()),
            "--index" => self.index = Some(parse_integer(flag, value)?),
            "--of" => self.of = Some(parse_count(flag, value)?),
            "--trace" => self.trace = true,
            other => unreachable!("{other} has a FLAGS row but no value to set"),
        }
        Ok(())
    }
}

fn parse_integer<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: {raw:?} is not an integer"))
}

fn parse_count(flag: &str, raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{flag}: {raw:?} is not a positive integer"))
}

/// `"42s"`, `"3m07s"` or `"2h05m"` — coarse on purpose: an ETA pretending
/// to sub-second precision would only flicker.
fn format_eta(seconds: f64) -> String {
    let s = seconds.ceil().max(0.0) as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3_600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3_600, (s % 3_600) / 60)
    }
}

fn load_campaign(spec_path: &str, threads: Option<usize>) -> Result<Campaign, String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read spec {spec_path:?}: {e}"))?;
    let mut campaign =
        Campaign::from_json_str(&text).map_err(|e| format!("spec {spec_path:?}: {e}"))?;
    if let Some(threads) = threads {
        campaign = campaign.with_threads(threads);
    }
    Ok(campaign)
}

/// A sink that forwards to an optional JSONL writer and keeps a progress
/// line on stderr (never stdout, which carries the report).
struct ProgressSink<W: std::io::Write> {
    jsonl: Option<JsonlRunWriter<W>>,
    done: u64,
    offset: u64,
    total: u64,
    quiet: bool,
    started: std::time::Instant,
    last_render: std::time::Instant,
}

impl<W: std::io::Write> ProgressSink<W> {
    fn new(jsonl: Option<JsonlRunWriter<W>>, offset: u64, total: u64, quiet: bool) -> Self {
        ProgressSink {
            jsonl,
            done: 0,
            offset,
            total,
            quiet,
            started: std::time::Instant::now(),
            last_render: std::time::Instant::now(),
        }
    }

    fn render(&mut self, force: bool) {
        if self.quiet {
            return;
        }
        // Redraw at most ~10×/s: progress must never throttle the runner.
        if !force && self.last_render.elapsed().as_millis() < 100 {
            return;
        }
        self.last_render = std::time::Instant::now();
        let covered = self.offset + self.done;
        let percent =
            if self.total == 0 { 100.0 } else { covered as f64 * 100.0 / self.total as f64 };
        // Throughput and ETA from *this session's* runs only — a resumed
        // campaign's checkpointed offset says nothing about the current rate.
        let rate = self.done as f64 / self.started.elapsed().as_secs_f64().max(1e-9);
        let eta = if rate > 0.0 && covered < self.total {
            format_eta((self.total - covered) as f64 / rate)
        } else {
            "--".to_string()
        };
        eprint!("\r{covered}/{} runs ({percent:.1}%, {rate:.0} runs/s, ETA {eta})   ", self.total);
        let _ = std::io::stderr().flush();
    }

    fn finish_line(&mut self) {
        if !self.quiet {
            self.render(true);
            eprintln!();
        }
    }
}

impl<W: std::io::Write> RunSink for ProgressSink<W> {
    fn on_run(&mut self, meta: &RunMeta<'_>, record: &RunRecord) {
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.on_run(meta, record);
        }
        self.done += 1;
        self.render(false);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.jsonl {
            Some(jsonl) => jsonl.flush(),
            None => Ok(()),
        }
    }
}

/// `run` and `resume`: execute (the rest of) a campaign.
fn cmd_run(args: Args, resuming: bool) -> Result<(), CliError> {
    if resuming && args.checkpoint.is_none() {
        return Err(usage("resume needs --checkpoint <path> (the manifest to continue from)"));
    }
    if args.max_chunks.is_some() && args.checkpoint.is_none() {
        return Err(usage(
            "--max-chunks only makes sense with --checkpoint (the slice must be resumable)",
        ));
    }
    if args.checkpoint_every.is_some() && args.checkpoint.is_none() {
        return Err(usage(
            "--checkpoint-every on `run` only makes sense with --checkpoint (it sets the \
             manifests' cadence)",
        ));
    }
    if args.fault_plan.is_some() && args.checkpoint.is_none() {
        return Err(usage(
            "--fault-plan needs --checkpoint (recovering from an injected fault needs a manifest \
             to resume from)",
        ));
    }
    let campaign = load_campaign(&args.spec_path, args.threads)?;
    let registry = builtin_registry();
    validate_families(&campaign, &registry)?;
    let total = campaign.run_count();
    let injector = args.fault_plan.as_ref().map(|path| load_fault_plan(path)).transpose()?;
    let jsonl_path = args.jsonl.as_deref().map(Path::new);
    let trace_stream = args.trace_dir.as_deref().map(|dir| trace_path(dir, campaign.name()));

    // `run` starts from scratch: it truncates --jsonl and overwrites
    // --checkpoint.  A manifest already holding progress (for this campaign
    // a mistyped `resume`; for any other, still hours of someone's compute)
    // or a non-empty artifact stream must not be silently destroyed —
    // refuse before touching anything, and let only --force speak for the
    // user.
    if !resuming && !args.force {
        if let Some(ckpt_path) = &args.checkpoint {
            if let Some(refusal) =
                refuse_overwriting_progress(&campaign, &args.spec_path, ckpt_path)
            {
                return Err(CliError::from(refusal));
            }
        }
        if let Some(jsonl_path) = &args.jsonl {
            if std::fs::metadata(jsonl_path).map(|m| m.len() > 0).unwrap_or(false) {
                return Err(CliError::from(format!(
                    "--jsonl {jsonl_path:?} already holds data — `run` starts a fresh stream \
                     and would truncate it; use `resume` to continue a checkpointed campaign, \
                     `report --jsonl` to re-aggregate a finished stream, or pass --force to \
                     discard it and start over"
                )));
            }
        }
        if let Some(path) = &trace_stream {
            if std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false) {
                return Err(CliError::from(format!(
                    "trace stream {path:?} already holds data — `run` starts a fresh stream \
                     and would truncate it; use `resume` to continue it, or pass --force to \
                     discard it and start over"
                )));
            }
        }
    }

    let checkpointer = args.checkpoint.as_ref().map(|path| {
        let mut c = Checkpointer::new(path).every_chunks(args.checkpoint_every.unwrap_or(1));
        if let Some(max) = args.max_chunks {
            c = c.max_chunks_per_session(max);
        }
        c
    });

    // Resume: learn the watermark first, then cut the streams back to
    // exactly the checkpointed runs and append to them.
    let mut offset = 0u64;
    if resuming {
        let ckpt_path = args.checkpoint.as_deref().expect("checked above");
        let manifest = load_checkpoint(&campaign, Path::new(ckpt_path))?;
        offset = manifest.runs_done;
        rewind_streams(offset, jsonl_path, trace_stream.as_deref())?;
        if !args.quiet {
            eprintln!(
                "resuming campaign {:?} from chunk watermark {} ({offset}/{total} runs done)",
                campaign.name(),
                manifest.chunks_done
            );
        }
    }

    let jsonl = jsonl_path
        .map(|path| open_stream(path, resuming, "JSONL stream").map(JsonlRunWriter::new))
        .transpose()?;
    // The telemetry attachment: a deterministic trace stream under
    // --trace-dir and/or a wall-clock metrics registry for --metrics.
    let mut trace = match (&args.trace_dir, &trace_stream) {
        (Some(dir), Some(path)) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create --trace-dir {dir:?}: {e}"))?;
            Some(JsonlTraceWriter::new(open_stream(path, resuming, "trace stream")?))
        }
        _ => None,
    };
    let mut metrics = args.metrics_path.as_ref().map(|_| MetricsRegistry::new());

    let mut progress = ProgressSink::new(jsonl, offset, total, args.quiet);
    let started = std::time::Instant::now();
    let (outcome, stats) = {
        let mut telemetry = CampaignTelemetry::none();
        if let Some(trace) = trace.as_mut() {
            telemetry = telemetry.with_trace(trace);
        }
        if let Some(metrics) = metrics.as_mut() {
            telemetry = telemetry.with_metrics(metrics);
        }
        let mut session =
            campaign.session(&registry).sink(&mut progress).telemetry(telemetry).resume(resuming);
        if let Some(ckpt) = &checkpointer {
            session = session.checkpointer(ckpt);
        }
        if let Some(faults) = &injector {
            session = session.faults(faults);
        }
        session.run()?
    };
    progress.finish_line();
    if let Some(jsonl) = progress.jsonl.take() {
        jsonl.finish().map_err(|e| format!("finishing the JSONL stream: {e}"))?;
    }
    if let Some(trace) = trace.take() {
        trace.into_inner().map_err(|e| format!("finishing the trace stream: {e}"))?;
    }
    if let (Some(path), Some(metrics)) = (&args.metrics_path, &metrics) {
        std::fs::write(path, format!("{}\n", metrics.to_json()))
            .map_err(|e| format!("cannot write the metrics snapshot {path:?}: {e}"))?;
    }

    match outcome {
        CampaignOutcome::Complete(report) => {
            summarize(&stats, started.elapsed(), &args, &report, metrics.as_ref())?;
            Ok(())
        }
        CampaignOutcome::Interrupted { chunks_done, runs_done } => {
            if !args.quiet {
                eprintln!(
                    "stopped after the session's chunk budget: {chunks_done} chunks \
                     ({runs_done}/{total} runs) checkpointed in {:.2?}; resume with:\n  \
                     karyon-campaign resume {:?} --checkpoint {:?}",
                    started.elapsed(),
                    args.spec_path,
                    args.checkpoint.as_deref().unwrap_or("<path>"),
                );
            }
            Ok(())
        }
        CampaignOutcome::Window => unreachable!("run and resume set no chunk window"),
    }
}

/// `report`: re-emit a report without executing any run — from a complete
/// JSONL stream (canonical replay) or a finished checkpoint manifest.
fn cmd_report(args: Args) -> Result<(), CliError> {
    let campaign = load_campaign(&args.spec_path, None)?;
    let registry = builtin_registry();
    validate_families(&campaign, &registry)?;
    match (&args.jsonl, &args.checkpoint) {
        (Some(jsonl_path), None) => {
            let text = std::fs::read_to_string(jsonl_path)
                .map_err(|e| format!("cannot read JSONL stream {jsonl_path:?}: {e}"))?;
            let report =
                campaign.reduce_records(&registry, &campaign.read_jsonl_records(&text)?)?;
            render(&args, &report)
        }
        (None, Some(ckpt_path)) => {
            // `report` must never execute runs: only a *finished* manifest
            // (watermark == chunk count) can be replayed.  An unfinished one
            // is an error naming the watermark, pointing at `resume`.
            let manifest = load_checkpoint(&campaign, Path::new(ckpt_path))?;
            let chunks = campaign.canonical_chunks();
            if manifest.chunks_done < chunks {
                return Err(CliError::from(format!(
                    "checkpoint {ckpt_path:?} is mid-campaign ({} of {chunks} chunks, {} of {} \
                     runs) — `report` never executes runs; use `karyon-campaign resume` to \
                     finish it first",
                    manifest.chunks_done,
                    manifest.runs_done,
                    campaign.run_count(),
                )));
            }
            // A finished manifest replays instantly through resume: zero
            // chunks remain, so no run executes and no manifest is written.
            let ckpt = Checkpointer::new(ckpt_path);
            let (outcome, _) =
                campaign.session(&registry).checkpointer(&ckpt).resume(true).run()?;
            render(&args, &outcome.into_report().expect("zero chunks remain"))
        }
        _ => Err(usage(
            "report needs exactly one source: --jsonl <stream> (replay) or \
             --checkpoint <manifest> (finished campaign)",
        )),
    }
}

/// `chaos`: the self-verifying crash-test loop.  Computes a fault-free
/// reference in memory, then runs the same campaign on disk under an armed
/// [`FaultInjector`], recovering after every injected crash — a fresh
/// "session" per recovery, exactly like a supervisor restarting a killed
/// process — and finally asserts the recovered report and JSONL stream are
/// **byte-identical** to the reference.
fn cmd_chaos(args: Args) -> Result<(), CliError> {
    let campaign = load_campaign(&args.spec_path, args.threads)?;
    let registry = builtin_registry();
    validate_families(&campaign, &registry)?;

    let plan = match (&args.fault_plan, args.fault_seed) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::from(format!("cannot read fault plan {path:?}: {e}")))?;
            FaultPlan::from_json_str(&text)
                .map_err(|e| CliError::from(format!("fault plan {path:?}: {e}")))?
        }
        (None, Some(seed)) => FaultPlan::derive(seed, campaign.canonical_chunks()),
        _ => unreachable!("parse enforces exactly one source"),
    };
    if plan.is_empty() {
        return Err(usage("the fault plan holds no faults — nothing to chaos-test"));
    }

    // The fault-free reference, entirely in memory: the ground truth every
    // recovered artifact must reproduce byte for byte.
    let mut reference_sink = JsonlRunWriter::new(Vec::new());
    let (outcome, _) = campaign.session(&registry).sink(&mut reference_sink).run()?;
    let reference = outcome.into_report().expect("a plain session completes");
    let reference_jsonl = reference_sink
        .finish()
        .map_err(|e| CliError::from(format!("collecting the reference stream: {e}")))?;

    let dir = args.dir.as_deref().expect("parse requires --dir");
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::from(format!("cannot create --dir {dir:?}: {e}")))?;
    let dir = std::path::Path::new(dir);
    let ckpt_path = dir.join(format!("{}.chaos.ckpt.json", campaign.name()));
    let jsonl_path = dir.join(format!("{}.chaos.runs.jsonl", campaign.name()));
    // Stale artifacts from an earlier chaos invocation would poison the
    // fingerprint/watermark checks of session 1 — the harness owns the dir.
    std::fs::remove_file(&ckpt_path).ok();
    std::fs::remove_file(&jsonl_path).ok();

    let injector = plan.injector();
    let max_sessions = args.max_sessions.unwrap_or(16);
    let mut sessions = 0usize;
    let report = loop {
        if sessions >= max_sessions {
            return Err(CliError::from(format!(
                "chaos did not recover to completion within --max-sessions {max_sessions} (faults \
                 injected so far: {})",
                injector.injected(),
            )));
        }
        sessions += 1;
        let resuming = ckpt_path.exists();
        if resuming {
            match load_checkpoint(&campaign, &ckpt_path) {
                Ok(manifest) => rewind_streams(manifest.runs_done, Some(&jsonl_path), None)?,
                Err(error) => {
                    // A torn or corrupt manifest: the refusal is the expected
                    // behaviour, and the documented recovery — discard the
                    // checkpoint and its streams, start over — is exactly
                    // what a one-shot injector makes safe to automate.
                    if !args.quiet {
                        eprintln!("chaos session {sessions}: {error}");
                        eprintln!(
                            "chaos session {sessions}: discarding the checkpoint and stream, \
                             restarting from scratch"
                        );
                    }
                    std::fs::remove_file(&ckpt_path)
                        .map_err(|e| format!("cannot discard {ckpt_path:?}: {e}"))?;
                    std::fs::remove_file(&jsonl_path).ok();
                    continue;
                }
            }
        }
        let mut sink = JsonlRunWriter::new(open_stream(&jsonl_path, resuming, "JSONL stream")?);
        let ckpt = Checkpointer::new(&ckpt_path);
        let session = campaign.session(&registry).checkpointer(&ckpt).resume(resuming);
        match session.sink(&mut sink).faults(&injector).run() {
            Ok((CampaignOutcome::Complete(report), _)) => {
                sink.finish().map_err(|e| format!("finishing the JSONL stream: {e}"))?;
                break report;
            }
            Ok((CampaignOutcome::Interrupted { runs_done, .. }, _)) => {
                if !args.quiet {
                    eprintln!("chaos session {sessions}: interrupted at {runs_done} runs");
                }
            }
            Ok((CampaignOutcome::Window, _)) => unreachable!("chaos sets no chunk window"),
            Err(message) if is_injected(&message) => {
                if !args.quiet {
                    eprintln!("chaos session {sessions}: {message}");
                }
                // The session "crashed": drop the sink un-finished, like a
                // killed process would, and let the next session recover.
            }
            Err(message) => return Err(CliError::from(message)),
        }
    };

    let recovered_jsonl = std::fs::read(&jsonl_path)
        .map_err(|e| CliError::from(format!("cannot read back {jsonl_path:?}: {e}")))?;
    if report.to_json() != reference.to_json() {
        return Err(CliError {
            kind: ErrorKind::Mismatch,
            message: format!(
                "the report recovered after {} injected faults differs from the fault-free \
                 reference — determinism under faults is broken",
                injector.injected(),
            ),
        });
    }
    if recovered_jsonl != reference_jsonl {
        return Err(CliError {
            kind: ErrorKind::Mismatch,
            message: format!(
                "the recovered JSONL stream {jsonl_path:?} is not byte-identical to the \
                 fault-free reference stream",
            ),
        });
    }
    if !args.quiet {
        eprintln!(
            "chaos: {} faults injected across {sessions} sessions; recovered report and JSONL \
             stream are byte-identical to the fault-free reference",
            injector.injected(),
        );
    }
    render(&args, &report)
}

/// The canonical shard artifact path: `<dir>/<campaign>.shard-<i>-of-<n>.<ext>`.
fn shard_path(dir: &str, campaign: &str, index: usize, of: usize, ext: &str) -> PathBuf {
    Path::new(dir).join(format!("{campaign}.shard-{index}-of-{of}.{ext}"))
}

/// `shard`: run one window of the campaign's shard plan and write the
/// window's JSONL — and optionally trace — segments, all carrying **global**
/// run indices so `merge` can stitch them byte-identically, then the
/// integrity-framed manifest header that marks the window complete.  The
/// manifest is only written after the whole window completes: a session
/// killed mid-window (a crash, or an injected fault under `--fault-plan`)
/// leaves no manifest behind, and rerunning the same `shard` invocation
/// replaces the torn segments wholesale — the shard is the unit of retry.
fn cmd_shard(args: Args) -> Result<(), CliError> {
    let campaign = load_campaign(&args.spec_path, args.threads)?;
    let registry = builtin_registry();
    validate_families(&campaign, &registry)?;
    let injector = args.fault_plan.as_ref().map(|path| load_fault_plan(path)).transpose()?;

    let (dir, index, of) = match (&args.dir, args.index, args.of) {
        (Some(dir), Some(index), Some(of)) => (dir.as_str(), index, of),
        _ => unreachable!("parse requires --dir, --index and --of"),
    };
    let plan = ShardPlan::for_campaign(&campaign, of);
    let slice = plan.slice(index);
    let (start_run, end_run) = slice.run_range(campaign.chunk_size(), campaign.run_count());

    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::from(format!("cannot create --dir {dir:?}: {e}")))?;
    let manifest_path = shard_path(dir, campaign.name(), index, of, "manifest.json");
    let jsonl_path = shard_path(dir, campaign.name(), index, of, "jsonl");
    let trace_seg_path = shard_path(dir, campaign.name(), index, of, "trace.jsonl");
    // Drop any earlier manifest *before* running: if this attempt dies
    // mid-window it must not leave a stale manifest pointing at freshly
    // truncated segments — manifest present must always mean segments
    // complete.
    std::fs::remove_file(&manifest_path).ok();

    let jsonl = JsonlRunWriter::new(open_stream(&jsonl_path, false, "JSONL segment")?);
    let mut trace = args
        .trace
        .then(|| open_stream(&trace_seg_path, false, "trace segment").map(JsonlTraceWriter::new))
        .transpose()?;

    let mut progress = ProgressSink::new(Some(jsonl), start_run, campaign.run_count(), args.quiet);
    let started = std::time::Instant::now();
    let (_, stats) = {
        let mut telemetry = CampaignTelemetry::none();
        if let Some(trace) = trace.as_mut() {
            telemetry = telemetry.with_trace(trace);
        }
        let window = slice.start_chunk..slice.end_chunk;
        let mut session =
            campaign.session(&registry).chunks(window).sink(&mut progress).telemetry(telemetry);
        if let Some(faults) = &injector {
            session = session.faults(faults);
        }
        session.run()?
    };
    progress.finish_line();
    if let Some(jsonl) = progress.jsonl.take() {
        jsonl.finish().map_err(|e| format!("finishing the JSONL segment: {e}"))?;
    }
    if let Some(trace) = trace.take() {
        trace.into_inner().map_err(|e| format!("finishing the trace segment: {e}"))?;
    }
    ShardManifest::new(&campaign, slice).write(&manifest_path)?;
    if !args.quiet {
        eprintln!(
            "shard {index}/{of} of campaign {:?}: chunks [{}, {}) ({} runs, global \
             [{start_run}, {end_run})) done in {:.2?} on {} workers; manifest {manifest_path:?}",
            campaign.name(),
            slice.start_chunk,
            slice.end_chunk,
            end_run - start_run,
            started.elapsed(),
            stats.workers,
        );
    }
    Ok(())
}

/// Collects every shard manifest of `campaign` under `dir` (read in file
/// name order for deterministic error reporting), validates the set tiles
/// the campaign exactly, and returns it in window order.  A manifest that
/// fails to load is an I/O failure (exit 3, the artifact itself is damaged);
/// a set that loads but does not belong together is a
/// [`ErrorKind::ShardSet`] refusal (exit 6).
fn load_shard_set(dir: &str, campaign: &Campaign) -> Result<Vec<ShardManifest>, CliError> {
    let prefix = format!("{}.shard-", campaign.name());
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::from(format!("cannot read shard directory {dir:?}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".manifest.json"))
        })
        .collect();
    paths.sort();
    let mut manifests =
        paths.iter().map(|path| ShardManifest::load(path)).collect::<Result<Vec<_>, _>>()?;
    if let Err(why) = validate_shard_set(campaign, &manifests) {
        return Err(CliError {
            kind: ErrorKind::ShardSet,
            message: format!(
                "shard set under {dir:?} refused: {why} — every shard session must run the same \
                 spec with the same --of, and all of them must have completed"
            ),
        });
    }
    manifests.sort_by_key(|m| m.start_chunk);
    Ok(manifests)
}

/// Concatenates one segment kind (`ext`) of a validated shard set, in window
/// order, each segment checked against its shard's global run range by
/// `read` ([`read_run_segment`] or [`read_trace_segment`]).  A missing, torn
/// or foreign segment is refused with the shard to rerun.
fn stitch(
    dir: &str,
    manifests: &[ShardManifest],
    ext: &str,
    read: fn(&Path, u64, u64) -> Result<Vec<u8>, String>,
) -> Result<Vec<u8>, String> {
    let mut stitched = Vec::new();
    for m in manifests {
        let (start, end) = m.run_range();
        if start == end {
            continue;
        }
        let path = shard_path(dir, &m.campaign, m.shard_index, m.shard_count, ext);
        let segment = read(&path, start, end).map_err(|why| {
            format!(
                "{why} — recovery: rerun shard {} of {} (`karyon-campaign shard --index {} --of \
                 {}`), then merge again",
                m.shard_index, m.shard_count, m.shard_index, m.shard_count
            )
        })?;
        stitched.extend_from_slice(&segment);
    }
    Ok(stitched)
}

/// `merge`: stitch a complete shard set back into the single-machine
/// artifacts.  The shards' run segments, concatenated in window order and
/// each validated against its global run range first, are exactly the JSONL
/// stream one uninterrupted `run` writes; the report replays that stream as
/// `report --jsonl` does (trace segments stitch the same way).  Everything
/// `merge` emits is **byte-identical** to what one uninterrupted `run` would
/// have produced.
fn cmd_merge(args: Args) -> Result<(), CliError> {
    let campaign = load_campaign(&args.spec_path, None)?;
    let registry = builtin_registry();
    validate_families(&campaign, &registry)?;
    let dir = args.dir.as_deref().expect("parse requires --dir");
    let manifests = load_shard_set(dir, &campaign)?;
    let runs = stitch(dir, &manifests, "jsonl", read_run_segment)?;
    if let Some(out_path) = &args.jsonl {
        std::fs::write(out_path, &runs).map_err(|e| {
            CliError::from(format!("cannot write stitched JSONL {out_path:?}: {e}"))
        })?;
    }
    if let Some(out_dir) = &args.trace_dir {
        let traces = stitch(dir, &manifests, "trace.jsonl", read_trace_segment)?;
        std::fs::create_dir_all(out_dir)
            .map_err(|e| CliError::from(format!("cannot create --trace-dir {out_dir:?}: {e}")))?;
        let out_path = trace_path(out_dir, campaign.name());
        std::fs::write(&out_path, &traces).map_err(|e| {
            CliError::from(format!("cannot write stitched trace {out_path:?}: {e}"))
        })?;
    }

    let runs = String::from_utf8(runs)
        .map_err(|_| "the stitched run segments are not valid UTF-8".to_string())?;
    // The same replay as `report --jsonl`.
    let report = campaign.reduce_records(&registry, &campaign.read_jsonl_records(&runs)?)?;
    if !args.quiet {
        eprintln!(
            "merged {} shards of campaign {:?}: {} runs, {} points; suspect runs: {}",
            manifests.len(),
            campaign.name(),
            report.total_runs,
            report.points.len(),
            report.suspect_runs(),
        );
    }
    render(&args, &report)
}

fn cmd_list_families(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--output" => {
                let mode = iter.next().ok_or_else(|| usage("--output needs a value"))?;
                json = match mode.as_str() {
                    "json" => true,
                    "table" => false,
                    other => {
                        return Err(usage(format!("--output must be json or table, not {other:?}")))
                    }
                };
            }
            other => {
                return Err(usage(format!(
                    "list-families takes only --output json|table, got {other:?}"
                )))
            }
        }
    }
    let registry = builtin_registry();
    print_out(|out| {
        if json {
            // Machine-readable: every family with its parameter names, types,
            // defaults and default sweep domains — enough for external
            // tooling to generate valid campaign specs (the CI registry smoke
            // does).
            return writeln!(out, "{}", registry.describe_json());
        }
        writeln!(out, "builtin scenario families ({}):", registry.len())?;
        for family in registry.describe() {
            let params: Vec<String> = family
                .params
                .iter()
                .map(|p| format!("{}: {} = {}", p.name, p.type_name, p.default))
                .collect();
            let engine = if family.engine_driven { "  [engine-driven]" } else { "" };
            writeln!(out, "  {}{engine}", family.name)?;
            writeln!(out, "      {}", params.join(", "))?;
        }
        writeln!(
            out,
            "\nuse `--output json` for the machine-readable listing (full parameter domains); \
             `cargo doc -p karyon-scenario` (builtin_registry) maps families to experiments"
        )
    })
}

/// The refusal message when `run` (without `--force`) would overwrite the
/// file at `--checkpoint`, or `None` when starting over is safe: nothing at
/// the path, or a manifest with no work recorded yet.  Everything else
/// refuses — a manifest of this campaign holding progress (the user almost
/// certainly meant `resume`), a manifest some *other* campaign definition
/// wrote with progress (still someone's compute), and a file that does not
/// load as a manifest at all (corrupt, a newer manifest version, a
/// transient read error): that last case is exactly when progress is most
/// at risk, and only `--force` may speak for the user there.
fn refuse_overwriting_progress(
    campaign: &Campaign,
    spec_path: &str,
    ckpt_path: &str,
) -> Option<String> {
    if !std::path::Path::new(ckpt_path).exists() {
        return None;
    }
    let manifest = match Checkpointer::new(ckpt_path).load() {
        Ok(manifest) => manifest,
        Err(error) => {
            return Some(format!(
                "the file at --checkpoint {ckpt_path:?} exists but cannot be read back as a \
                 manifest of this build ({error}) — refusing to overwrite it; pass --force to \
                 discard it and start over"
            ))
        }
    };
    if manifest.chunks_done == 0 {
        return None;
    }
    Some(if manifest.check(campaign).is_ok() {
        format!(
            "checkpoint {ckpt_path:?} already holds {} of {} runs of this campaign — `run` \
             would overwrite that progress (and truncate any --jsonl stream); continue with \
             `karyon-campaign resume {spec_path:?} --checkpoint {ckpt_path:?}`, or pass \
             --force to discard it and start over",
            manifest.runs_done, manifest.total_runs,
        )
    } else {
        format!(
            "checkpoint {ckpt_path:?} holds {} of {} runs of campaign {:?}, written by a \
             different campaign definition than spec {spec_path:?} — refusing to overwrite \
             that progress; restore the original spec to resume it, point --checkpoint at a \
             fresh path, or pass --force to discard it",
            manifest.runs_done, manifest.total_runs, manifest.campaign,
        )
    })
}

/// Loads the checkpoint manifest at `path` and checks `campaign`'s
/// definition wrote it — the one load-and-check of `run`/`resume`, `chaos`
/// and `report`, done before any stream is touched.
fn load_checkpoint(campaign: &Campaign, path: &Path) -> Result<CheckpointManifest, String> {
    let manifest = CheckpointManifest::load(path)?;
    manifest.check(campaign).map_err(|why| {
        format!(
            "{path:?}: {why}; no stream was touched — restore the original spec (name, seed, \
             chunk_size, entries) to resume"
        )
    })?;
    Ok(manifest)
}

/// Cuts the JSONL and trace streams a resumed session appends to back to
/// exactly the checkpoint's `runs_done`, so the finished files are
/// bit-identical to an uninterrupted run's.
fn rewind_streams(
    runs_done: u64,
    jsonl: Option<&Path>,
    trace: Option<&Path>,
) -> Result<(), String> {
    if let Some(path) = jsonl {
        truncate_jsonl(path, runs_done)?;
    }
    if let Some(path) = trace {
        truncate_trace_jsonl(path, runs_done)?;
    }
    Ok(())
}

/// Opens an artifact stream: appended to when `resuming`, started fresh
/// otherwise.  Sync-on-flush, because each checkpoint manifest is fsynced:
/// the stream prefix it covers must reach stable storage first, or a power
/// loss could leave the stream behind the watermark and block resume.
fn open_stream(path: &Path, resuming: bool, what: &str) -> Result<SyncOnFlushFile, String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(resuming)
        .write(true)
        .truncate(!resuming)
        .open(path)
        .map(SyncOnFlushFile::new)
        .map_err(|e| format!("cannot open {what} {path:?}: {e}"))
}

/// Rejects unknown scenario families before any execution or file I/O.
/// (`Campaign::run` checks this too, but the CLI wants the error *before* it
/// truncates streams or opens files for writing.)
fn validate_families(campaign: &Campaign, registry: &ScenarioRegistry) -> Result<(), String> {
    for entry in campaign.entries() {
        if registry.get(entry.scenario()).is_none() {
            return Err(format!(
                "unknown scenario family {:?} — run `karyon-campaign list-families` for the \
                 builtin set",
                entry.scenario()
            ));
        }
    }
    Ok(())
}

fn summarize(
    stats: &RunnerStats,
    elapsed: std::time::Duration,
    args: &Args,
    report: &CampaignReport,
    metrics: Option<&MetricsRegistry>,
) -> Result<(), CliError> {
    if !args.quiet {
        let rate = report.total_runs as f64 / elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "completed {} runs in {elapsed:.2?} ({rate:.0} runs/s, {} workers, {} chunks this \
             session); suspect runs: {}",
            report.total_runs,
            stats.workers,
            stats.chunks,
            report.suspect_runs()
        );
    }
    render_with(args, report, Some(stats), metrics)
}

/// Rendering for the `report` subcommand: no runner existed, so the JSON
/// output is the plain report (and the table has no runner footer).
fn render(args: &Args, report: &CampaignReport) -> Result<(), CliError> {
    render_with(args, report, None, None)
}

/// Renders a report plus, when a runner executed it, the session's
/// [`RunnerStats`] (table footer / `runner` envelope member) and collected
/// metrics snapshot (`metrics` envelope member).  The envelope keeps the
/// `report` member bit-identical to the untraced plain report — execution
/// statistics never leak into the deterministic part.
fn render_with(
    args: &Args,
    report: &CampaignReport,
    runner: Option<&RunnerStats>,
    metrics: Option<&MetricsRegistry>,
) -> Result<(), CliError> {
    print_out(|out| {
        if matches!(args.output, OutputMode::Table | OutputMode::Both) {
            for metric in &args.metrics {
                writeln!(out, "{}", report.metric_table(metric).render())?;
            }
            writeln!(out, "{}", report.summary_table().render())?;
            if let Some(stats) = runner {
                writeln!(
                    out,
                    "runner: {} workers, {} chunks this session, peak {} pending chunks, peak \
                     {} resident records",
                    stats.workers,
                    stats.chunks,
                    stats.peak_pending_chunks,
                    stats.peak_resident_records
                )?;
            }
        }
        if matches!(args.output, OutputMode::Json | OutputMode::Both) {
            match runner {
                None => writeln!(out, "{}", report.to_json())?,
                Some(stats) => {
                    let mut envelope = String::from("{\"report\":");
                    envelope.push_str(&report.to_json());
                    envelope.push_str(&format!(
                        ",\"runner\":{{\"workers\":{},\"chunks\":{},\"peak_pending_chunks\":{},\
                         \"peak_resident_records\":{}}}",
                        stats.workers,
                        stats.chunks,
                        stats.peak_pending_chunks,
                        stats.peak_resident_records
                    ));
                    if let Some(metrics) = metrics {
                        envelope.push_str(",\"metrics\":");
                        envelope.push_str(&metrics.to_json());
                    }
                    envelope.push('}');
                    writeln!(out, "{envelope}")?;
                }
            }
        }
        Ok(())
    })
}

/// Writes to stdout through one lock: everything the CLI prints goes through
/// here, after every artifact is written.  A reader that closed the pipe
/// (`… | head`) has read all it wants, so the command ends as a success,
/// with nothing on stderr.
fn print_out(
    write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>,
) -> Result<(), CliError> {
    let mut out = std::io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::from(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// The per-campaign trace stream path under `--trace-dir`.
fn trace_path(dir: &str, campaign: &str) -> PathBuf {
    Path::new(dir).join(format!("{campaign}.trace.jsonl"))
}

/// Reads and parses a `--fault-plan` file into an armed injector.
fn load_fault_plan(path: &str) -> Result<FaultInjector, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::from(format!("cannot read fault plan {path:?}: {e}")))?;
    let plan = FaultPlan::from_json_str(&text)
        .map_err(|e| CliError::from(format!("fault plan {path:?}: {e}")))?;
    Ok(plan.injector())
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon::scenario::CampaignEntry;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Splits a command line at its spaces.
    fn words(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_string).collect()
    }

    #[test]
    fn parse_shard_and_merge_validate_their_flags() {
        let parsed =
            parse("shard", &strings(&["spec.json", "--dir", "d", "--index", "0", "--of", "3"]))
                .unwrap();
        assert_eq!((parsed.index, parsed.of), (Some(0), Some(3)));
        assert!(!parsed.trace && parsed.fault_plan.is_none());

        for (args, needle) in [
            (vec!["spec.json", "--dir", "d", "--index", "3", "--of", "3"], "out of range"),
            (vec!["spec.json", "--dir", "d", "--index", "0"], "--of"),
            (vec!["spec.json", "--index", "0", "--of", "3"], "--dir"),
            (vec!["spec.json", "--dir", "d", "--index", "0", "--of", "0"], "positive"),
            (
                vec!["spec.json", "--dir", "d", "--index", "0", "--of", "3", "--checkpoint", "c"],
                "does not apply",
            ),
        ] {
            let err = parse("shard", &strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }

        let parsed =
            parse("merge", &strings(&["spec.json", "--dir", "d", "--jsonl", "o"])).unwrap();
        assert_eq!(parsed.jsonl.as_deref(), Some("o"));
        assert!(parse("merge", &strings(&["spec.json"])).unwrap_err().contains("--dir"));
    }

    /// Every flag each subcommand took before the flag table still parses
    /// there, and every table row is covered by these command lines.
    #[test]
    fn every_subcommand_still_parses_its_flags() {
        let lines = [
            (
                "run",
                "s.json --jsonl r.jsonl --checkpoint c.json --checkpoint-every 2 --max-chunks 3 \
                 --threads 2 --output json --metric m --trace-dir t --metrics m.json --quiet \
                 --force --fault-plan p.json",
            ),
            (
                "resume",
                "s.json --jsonl r.jsonl --checkpoint c.json --checkpoint-every 2 --max-chunks 3 \
                 --threads 2 --output both --metric m --trace-dir t --metrics m.json --quiet \
                 --fault-plan p.json",
            ),
            (
                "report",
                "s.json --jsonl r.jsonl --checkpoint c.json --output json --metric m --quiet",
            ),
            (
                "chaos",
                "s.json --dir d --fault-plan p.json --max-sessions 4 --threads 2 --output json \
                 --quiet",
            ),
            ("chaos", "s.json --dir d --fault-seed 7"),
            (
                "shard",
                "s.json --dir d --index 1 --of 3 --threads 2 --trace --fault-plan p.json --quiet",
            ),
            (
                "merge",
                "s.json --dir d --jsonl o.jsonl --trace-dir t --output table --metric m --quiet",
            ),
        ];
        for (command, line) in lines {
            parse(command, &words(line)).unwrap_or_else(|e| panic!("{command} {line}: {e}"));
        }
        for &(flag, _, commands) in FLAGS {
            for command in commands {
                assert!(
                    lines
                        .iter()
                        .any(|(c, line)| c == command && words(line).contains(&flag.into())),
                    "no command line above exercises {flag} on `{command}`"
                );
            }
        }
        let parsed =
            parse("run", &words("s.json --checkpoint c.json --checkpoint-every 5")).unwrap();
        assert_eq!(parsed.checkpoint_every, Some(5));
    }

    /// A flag outside its subcommand's row is a usage error naming the flag
    /// and the subcommand — including the flags `report`, `merge` and
    /// `shard` used to ignore or misreport.
    #[test]
    fn flags_outside_their_subcommands_are_refused() {
        for (command, line, flag) in [
            ("report", "s.json --jsonl r.jsonl --metrics m.json", "--metrics"),
            ("report", "s.json --jsonl r.jsonl --trace-dir t", "--trace-dir"),
            ("report", "s.json --jsonl r.jsonl --max-chunks 1", "--max-chunks"),
            ("report", "s.json --jsonl r.jsonl --checkpoint-every 3", "--checkpoint-every"),
            ("report", "s.json --jsonl r.jsonl --threads 2", "--threads"),
            ("report", "s.json --jsonl r.jsonl --force", "--force"),
            ("report", "s.json --jsonl r.jsonl --fault-plan p.json", "--fault-plan"),
            ("resume", "s.json --checkpoint c.json --force", "--force"),
            ("merge", "s.json --dir d --threads 2", "--threads"),
            ("shard", "s.json --dir d --index 0 --of 3 --checkpoint c", "--checkpoint"),
            ("shard", "s.json --dir d --index 0 --of 3 --jsonl r.jsonl", "--jsonl"),
            ("chaos", "s.json --dir d --fault-seed 7 --metrics m.json", "--metrics"),
        ] {
            let error = parse(command, &words(line)).unwrap_err();
            assert!(
                error.contains(&format!("{flag} does not apply to `{command}`")),
                "{command} {line}: {error}"
            );
        }
        assert!(parse("run", &words("s.json --bogus")).unwrap_err().contains("unknown option"));

        // `--checkpoint-every` without `--checkpoint` is refused before the
        // spec is even read, like `--max-chunks`.
        for line in ["missing.json --checkpoint-every 3", "missing.json --max-chunks 1"] {
            let error = cmd_run(parse("run", &words(line)).unwrap(), false).unwrap_err();
            assert_eq!(error.kind, ErrorKind::Usage, "{line}: {}", error.message);
            assert!(error.message.contains("with --checkpoint"), "{line}: {}", error.message);
        }
    }

    /// The exit-code contract of `merge`: a shard set that loads but does
    /// not tile the campaign is a ShardSet refusal (exit 6); a manifest
    /// that fails to load at all, or a missing run segment, is an I/O
    /// failure (exit 3).
    #[test]
    fn merge_maps_shard_set_refusals_to_exit_6_and_corruption_to_exit_3() {
        let dir = std::env::temp_dir().join(format!("karyon-cli-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap();
        let campaign = Campaign::new("cli-shards", 9)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("lane-change").replications(24).duration_secs(30));
        let plan = ShardPlan::for_campaign(&campaign, 3);

        // Only 2 of 3 shards present: loads fine, but the set has a gap.
        for index in [0usize, 1] {
            ShardManifest::new(&campaign, plan.slice(index))
                .write(&shard_path(dir_str, "cli-shards", index, 3, "manifest.json"))
                .unwrap();
        }
        let error = load_shard_set(dir_str, &campaign).expect_err("an incomplete set refuses");
        assert_eq!(error.kind.code(), 6, "{}", error.message);
        assert!(error.message.contains("3 shards but 2 manifests"), "{}", error.message);

        // Complete the set: it validates.
        ShardManifest::new(&campaign, plan.slice(2))
            .write(&shard_path(dir_str, "cli-shards", 2, 3, "manifest.json"))
            .unwrap();
        let manifests = load_shard_set(dir_str, &campaign).unwrap();
        assert_eq!(manifests.len(), 3);

        // Its run segments are missing: merge refuses to replay, exit 3,
        // naming the shard to rerun.
        let error = CliError::from(
            stitch(dir_str, &manifests, "jsonl", read_run_segment).expect_err("no segments"),
        );
        assert_eq!(error.kind.code(), 3, "{}", error.message);
        assert!(error.message.contains("rerun shard 0 of 3"), "{}", error.message);

        // A different spec (seed) refuses on the fingerprint, still exit 6.
        let foreign = Campaign::new("cli-shards", 10)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("lane-change").replications(24).duration_secs(30));
        let error = load_shard_set(dir_str, &foreign).expect_err("foreign fingerprint");
        assert_eq!(error.kind.code(), 6, "{}", error.message);
        assert!(error.message.contains("fingerprint"), "{}", error.message);

        // Corrupt one manifest on disk: that is artifact damage, exit 3.
        std::fs::write(shard_path(dir_str, "cli-shards", 1, 3, "manifest.json"), "{ torn").unwrap();
        let error = load_shard_set(dir_str, &campaign).expect_err("corruption must refuse");
        assert_eq!(error.kind.code(), 3, "{}", error.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A plan of `u64::MAX` shards is computed, not allocated: shard 0 runs
    /// the campaign's first chunk and writes its manifest.
    #[test]
    fn shard_runs_its_window_of_a_huge_plan() {
        let dir = std::env::temp_dir().join(format!("karyon-cli-huge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"name": "huge", "seed": 1, "chunk_size": 2, "entries":
                [{"scenario": "lane-change", "replications": 5, "duration_secs": 1}]}"#,
        )
        .unwrap();
        let line = format!(
            "{} --dir {} --index 0 --of 18446744073709551615 --quiet",
            spec.display(),
            dir.display()
        );
        cmd_shard(parse("shard", &words(&line)).unwrap()).expect("shard 0 of a huge plan runs");
        let manifest = ShardManifest::load(&shard_path(
            dir.to_str().unwrap(),
            "huge",
            0,
            usize::MAX,
            "manifest.json",
        ))
        .unwrap();
        assert_eq!(
            (manifest.start_chunk, manifest.end_chunk, manifest.run_range()),
            (0, 1, (0, 2))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest whose `runs_done` disagrees with its chunks is refused
    /// with exit 3 before `resume` or `report` touches a stream.
    #[test]
    fn resume_refuses_an_inconsistent_watermark_before_touching_streams() {
        let dir = std::env::temp_dir().join(format!("karyon-cli-watermark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"name": "watermark", "seed": 4, "chunk_size": 4, "entries":
                [{"scenario": "lane-change", "replications": 16, "duration_secs": 1}]}"#,
        )
        .unwrap();
        let (jsonl, ckpt) = (dir.join("runs.jsonl"), dir.join("c.json"));
        let common = format!(
            "{} --jsonl {} --checkpoint {} --quiet",
            spec.display(),
            jsonl.display(),
            ckpt.display()
        );
        cmd_run(parse("run", &words(&format!("{common} --max-chunks 2"))).unwrap(), false)
            .expect("two chunks run");

        // Re-frame the payload with a watermark three runs short of its
        // two chunks, as a tool holding `integrity_frame` could.
        let payload = karyon::scenario::checkpoint::read_manifest_text(&ckpt).unwrap();
        let doctored = payload.replace("\"runs_done\":8", "\"runs_done\":5");
        assert_ne!(doctored, payload);
        let frame = karyon::scenario::integrity_frame(&doctored);
        std::fs::write(&ckpt, format!("{doctored}\n{frame}\n")).unwrap();
        let stream = std::fs::read(&jsonl).unwrap();
        assert_eq!(stream.iter().filter(|byte| **byte == b'\n').count(), 8);

        let error = cmd_run(parse("resume", &words(&common)).unwrap(), true)
            .expect_err("an inconsistent watermark refuses");
        assert_eq!(error.kind.code(), 3, "{}", error.message);
        assert!(
            error.message.contains("runs_done is 5") && error.message.contains("recovery:"),
            "{}",
            error.message
        );
        assert_eq!(std::fs::read(&jsonl).unwrap(), stream, "the stream was touched");
        let report = format!("{} --checkpoint {} --quiet", spec.display(), ckpt.display());
        let error = cmd_report(parse("report", &words(&report)).unwrap())
            .expect_err("report refuses it too");
        assert_eq!(error.kind.code(), 3, "{}", error.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_common_understands_force() {
        let parsed = parse("run", &strings(&["spec.json", "--force", "--quiet"])).unwrap();
        assert!(parsed.force && parsed.quiet);
        assert!(!parse("run", &strings(&["spec.json"])).unwrap().force);
    }

    #[test]
    fn run_refuses_to_overwrite_checkpointed_progress_of_the_same_campaign() {
        let dir = std::env::temp_dir().join(format!("karyon-cli-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_path = dir.join("c.json");
        let ckpt_str = ckpt_path.to_str().unwrap();
        let campaign = Campaign::new("guard", 5)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("lane-change").replications(8).duration_secs(30));

        // No manifest on disk yet: starting over is safe.
        assert!(refuse_overwriting_progress(&campaign, "spec.json", ckpt_str).is_none());

        // One checkpointed chunk on disk: `run` must refuse and point at
        // `resume` / `--force`.
        let ckpt = Checkpointer::new(&ckpt_path).max_chunks_per_session(1);
        campaign.session(&builtin_registry()).checkpointer(&ckpt).run().unwrap();
        let refusal = refuse_overwriting_progress(&campaign, "spec.json", ckpt_str)
            .expect("checkpointed progress must be protected");
        assert!(refusal.contains("resume") && refusal.contains("--force"), "{refusal}");

        // A different campaign definition's progress is protected too — the
        // manifest still holds someone's compute.
        let other = Campaign::new("guard", 6)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("lane-change").replications(8).duration_secs(30));
        let refusal = refuse_overwriting_progress(&other, "spec.json", ckpt_str)
            .expect("foreign progress must be protected");
        assert!(
            refusal.contains("different campaign definition") && refusal.contains("--force"),
            "{refusal}"
        );

        // A file that exists but does not read back as a manifest (corrupt,
        // or written by a newer build) is refused too — that is when
        // progress is most at risk, and only --force may discard it.
        std::fs::write(&ckpt_path, "{ not a manifest").unwrap();
        let refusal = refuse_overwriting_progress(&campaign, "spec.json", ckpt_str)
            .expect("an unreadable checkpoint file must be protected");
        assert!(refusal.contains("--force"), "{refusal}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
