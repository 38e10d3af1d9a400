//! One campaign session as `karyon-campaign run` performs it, and the report
//! rebuilt from its artifacts as `karyon-campaign report` does.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use karyon_scenario::{
    builtin_registry, read_jsonl_records, Campaign, CampaignReport, CampaignTelemetry,
    Checkpointer, JsonValue, JsonlRunWriter, ParamGrid, RunSink, RunnerStats, ScenarioRegistry,
    SyncOnFlushFile,
};
use karyon_telemetry::{JsonlTraceWriter, MetricsRegistry, TraceSink};

use crate::layers::{Recorder, TimedSink, TimedTrace};

/// The files one benchmark process reads and writes.
pub struct Paths {
    pub spec: PathBuf,
    pub jsonl: PathBuf,
    pub trace: PathBuf,
    pub manifest: PathBuf,
}

impl Paths {
    pub fn new(dir: &Path) -> Self {
        Paths {
            spec: dir.join("campaign.json"),
            jsonl: dir.join("runs.jsonl"),
            trace: dir.join("trace.jsonl"),
            manifest: dir.join("checkpoint.json"),
        }
    }
}

/// Which of the CLI's artifacts a session writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactMode {
    /// None: `karyon-campaign run <spec>`.
    None,
    /// JSONL and trace streams through `SyncOnFlushFile` and a checkpoint
    /// every chunk: `run --jsonl --trace-dir --checkpoint`.
    Full,
    /// JSONL stream and one final checkpoint, enough to rebuild the report
    /// from both sources `report` accepts.
    ReplaySource,
}

/// A session's artifact writers.
struct Artifacts {
    jsonl: JsonlRunWriter<SyncOnFlushFile>,
    trace: Option<JsonlTraceWriter<SyncOnFlushFile>>,
    checkpointer: Checkpointer,
}

/// Everything a session needs before its first run.
pub struct Setup {
    pub campaign: Campaign,
    pub registry: ScenarioRegistry,
    artifacts: Option<Artifacts>,
}

fn create(path: &Path) -> Result<SyncOnFlushFile, String> {
    fs::File::create(path)
        .map(SyncOnFlushFile::new)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Set-up, as the CLI does it before the session: read and parse the spec,
/// build the registry, check every family exists, expand the grids, and open
/// the artifact files and the checkpointer.
pub fn setup(paths: &Paths, mode: ArtifactMode) -> Result<Setup, String> {
    let text = fs::read_to_string(&paths.spec)
        .map_err(|e| format!("cannot read {}: {e}", paths.spec.display()))?;
    let campaign = Campaign::from_json_str(&text)?;
    let registry = builtin_registry();
    for entry in campaign.entries() {
        if registry.get(entry.scenario()).is_none() {
            return Err(format!("unknown scenario family {:?}", entry.scenario()));
        }
    }
    let doc = JsonValue::parse(&text)?;
    let mut points = 0;
    for entry in doc.get("entries").and_then(JsonValue::as_array).unwrap_or(&[]) {
        if let Some(grid) = entry.get("grid") {
            points += ParamGrid::from_json(grid)?.expand().len();
        }
    }
    std::hint::black_box(points);
    let artifacts = match mode {
        ArtifactMode::None => None,
        ArtifactMode::Full => Some(Artifacts {
            jsonl: JsonlRunWriter::new(create(&paths.jsonl)?),
            trace: Some(JsonlTraceWriter::new(create(&paths.trace)?)),
            checkpointer: Checkpointer::new(&paths.manifest),
        }),
        ArtifactMode::ReplaySource => Some(Artifacts {
            jsonl: JsonlRunWriter::new(create(&paths.jsonl)?),
            trace: None,
            checkpointer: Checkpointer::new(&paths.manifest)
                .every_chunks(campaign.canonical_chunks().max(1)),
        }),
    };
    Ok(Setup { campaign, registry, artifacts })
}

/// What one session produced.
pub struct Outcome {
    pub report: CampaignReport,
    pub stats: RunnerStats,
    /// Wall time of the `Campaign::run*` call.
    pub elapsed: Duration,
    /// The runner's wall-clock metrics (attached only when traced).
    pub metrics: MetricsRegistry,
}

/// Runs one session.  With a recorder, the sink and trace sink are wrapped
/// in timing wrappers, a counting trace sink is attached even when the
/// session writes no trace, and the runner's metrics registry is attached
/// (the recorder's families must already be in `setup.registry`).
pub fn run_session(setup: &mut Setup, recorder: Option<&Recorder>) -> Result<Outcome, String> {
    let mut metrics = MetricsRegistry::new();
    if recorder.is_some() {
        // 1 µs buckets up to 1 s instead of the default 39 ms ones, so the
        // medians of millisecond chunks and manifest writes resolve.
        for timer in ["campaign.chunk_ms", "campaign.checkpoint_write_ms"] {
            metrics.configure_timer(timer, 0.0, 1_000.0, 1_000_000);
        }
    }
    let mut artifacts = setup.artifacts.take();
    let manifest = artifacts.as_ref().map(|a| a.checkpointer.path().to_path_buf());
    let (jsonl, trace, checkpointer) = match artifacts.as_mut() {
        Some(a) => (Some(&mut a.jsonl), a.trace.as_mut(), Some(&mut a.checkpointer)),
        None => (None, None, None),
    };

    let mut timed_sink;
    let sink: Option<&mut dyn RunSink> = match (recorder, jsonl) {
        (Some(recorder), Some(writer)) => {
            timed_sink = TimedSink::new(writer, recorder);
            Some(&mut timed_sink)
        }
        (None, Some(writer)) => Some(writer),
        (_, None) => None,
    };
    let mut timed_trace;
    let trace_sink: Option<&mut dyn TraceSink> = match (recorder, trace) {
        (Some(recorder), writer) => {
            let writer = writer.map(|w| w as &mut dyn TraceSink);
            timed_trace = TimedTrace::new(writer, recorder, manifest);
            Some(&mut timed_trace)
        }
        (None, Some(writer)) => Some(writer),
        (None, None) => None,
    };
    let mut telemetry = CampaignTelemetry::none();
    if let Some(trace_sink) = trace_sink {
        telemetry = telemetry.with_trace(trace_sink);
    }
    if recorder.is_some() {
        telemetry = telemetry.with_metrics(&mut metrics);
    }

    let (campaign, registry) = (&setup.campaign, &setup.registry);
    if let Some(recorder) = recorder {
        recorder.begin_session();
    }
    let started = Instant::now();
    let result = match checkpointer {
        Some(checkpointer) => campaign
            .run_checkpointed_with(registry, checkpointer, sink, telemetry)
            .and_then(|(outcome, stats)| {
                let report = outcome.into_report().ok_or("the session stopped early")?;
                Ok((report, stats))
            }),
        None => campaign.run_instrumented_with(registry, sink, telemetry),
    };
    let elapsed = started.elapsed();
    if let Some(recorder) = recorder {
        recorder.end_session();
    }
    let (report, stats) = result?;
    if let Some(a) = artifacts {
        a.jsonl.finish().map_err(|e| format!("finishing the JSONL stream: {e}"))?;
        if let Some(trace) = a.trace {
            trace.into_inner().map_err(|e| format!("finishing the trace stream: {e}"))?;
        }
    }
    Ok(Outcome { report, stats, elapsed, metrics })
}

/// A report rebuilt from a finished session's artifacts.
pub struct Replay {
    /// Reading and parsing the JSONL stream (`read_jsonl_records`).
    pub parse: Duration,
    /// Re-aggregating the records (`Campaign::reduce_records`).
    pub reduce: Duration,
    /// Replaying the finished manifest (`Campaign::resume`, no chunk left).
    pub manifest: Duration,
    /// True when both rebuilt reports equal the live one byte for byte and
    /// the stream holds one line per run.
    pub identical: bool,
}

impl Replay {
    pub fn total(&self) -> Duration {
        self.parse + self.reduce + self.manifest
    }
}

/// Rebuilds the report from both sources `karyon-campaign report` accepts
/// and compares each with `live`.
pub fn replay(setup: &Setup, paths: &Paths, live: &str) -> Result<Replay, String> {
    let (campaign, registry) = (&setup.campaign, &setup.registry);
    let started = Instant::now();
    let text = fs::read_to_string(&paths.jsonl)
        .map_err(|e| format!("cannot read {}: {e}", paths.jsonl.display()))?;
    let records = read_jsonl_records(&text);
    let parsed = Instant::now();
    let from_jsonl = records
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|records| campaign.reduce_records(registry, records));
    let reduced = Instant::now();
    let from_manifest = campaign
        .resume(registry, &mut Checkpointer::new(&paths.manifest), None)
        .map(|(outcome, _)| outcome.into_report());
    let replayed = Instant::now();
    let lines = records.as_ref().map_or(0, |r| r.len() as u64);
    let identical = lines == campaign.run_count()
        && from_jsonl.is_ok_and(|r| r.to_json() == live)
        && matches!(from_manifest, Ok(Some(r)) if r.to_json() == live);
    Ok(Replay {
        parse: parsed - started,
        reduce: reduced - parsed,
        manifest: replayed - reduced,
        identical,
    })
}
