//! The campaign runner: grid × seed-sweep expansion and parallel chunked
//! execution.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use karyon_sim::{splitmix64, SimDuration};
use karyon_telemetry::{trace, RunCoords, TraceRecord};

use crate::aggregate::{CampaignAccumulator, ChunkPartial, DEFAULT_CHUNK_SIZE};
use crate::checkpoint::{CheckpointManifest, Checkpointer, ManifestWriter};
use crate::fault::FaultInjector;
use crate::grid::ParamGrid;
use crate::json::{escape, JsonValue};
use crate::recovery::retry_io;
use crate::registry::ScenarioRegistry;
use crate::report::{CampaignReport, PointReport};
use crate::scenario::{RunRecord, Scenario};
use crate::sink::{for_each_run_line, RunMeta, RunSink};
use crate::spec::{params_json, ParamValue, ScenarioSpec};
use crate::telemetry::CampaignTelemetry;

/// Derives the RNG seed of one run from the campaign seed and the run's
/// canonical coordinates (global parameter-point index, replication index).
///
/// The derivation depends only on those coordinates — never on thread
/// identity or execution order — which is what makes campaign results
/// reproducible regardless of the worker count.  Two splitmix64 rounds over
/// the mixed-in coordinates give well-separated streams even for adjacent
/// points and replications.
pub fn derive_run_seed(campaign_seed: u64, point: u64, replication: u64) -> u64 {
    let mut state = campaign_seed ^ point.wrapping_mul(0xA076_1D64_78BD_642F);
    let first = splitmix64(&mut state);
    let mut state = first ^ replication.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    splitmix64(&mut state)
}

/// One scenario family's slice of a campaign: the family name, the parameter
/// grid to expand and the Monte-Carlo seed sweep per parameter point.
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    scenario: String,
    grid: ParamGrid,
    replications: u64,
    duration: Option<SimDuration>,
}

impl CampaignEntry {
    /// Creates an entry for the named scenario family with an empty grid and
    /// a single replication.
    pub fn new(scenario: &str) -> Self {
        CampaignEntry {
            scenario: scenario.to_string(),
            grid: ParamGrid::new(),
            replications: 1,
            duration: None,
        }
    }

    /// Sets the parameter grid.
    pub fn grid(mut self, grid: ParamGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the number of Monte-Carlo replications (distinct derived seeds)
    /// per parameter point.
    ///
    /// # Panics
    /// Panics if `replications` is zero.
    pub fn replications(mut self, replications: u64) -> Self {
        assert!(replications > 0, "a campaign entry needs at least one replication");
        self.replications = replications;
        self
    }

    /// Overrides the simulated duration of every run of this entry.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Overrides the simulated duration in whole seconds.
    pub fn duration_secs(self, secs: u64) -> Self {
        self.duration(SimDuration::from_secs(secs))
    }

    /// Number of runs this entry contributes, saturating at `u64::MAX` for
    /// an entry too large to count.
    pub fn run_count(&self) -> u64 {
        self.checked_run_count().unwrap_or(u64::MAX)
    }

    /// The grid's point count times the replications, or `None` when the
    /// product overflows `u64`.
    fn checked_run_count(&self) -> Option<u64> {
        self.grid
            .axes()
            .iter()
            .try_fold(self.replications, |runs, (_, values)| runs.checked_mul(values.len() as u64))
    }

    /// The scenario family this entry sweeps.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Builds an entry from one member of a campaign spec file's `entries`
    /// array: `{"scenario": "platoon", "replications": 30, "duration_secs":
    /// 140, "grid": {"mode": ["kernel", "los0"]}}`.  Every field but
    /// `scenario` is optional; unknown fields are rejected so a typo cannot
    /// silently configure a different sweep than the file reads.
    pub fn from_json(value: &JsonValue) -> Result<CampaignEntry, String> {
        let members = value.as_object().ok_or_else(|| {
            format!("a campaign entry must be a JSON object, not {}", value.type_name())
        })?;
        for (key, _) in members {
            if !matches!(
                key.as_str(),
                "scenario" | "replications" | "duration_secs" | "duration_micros" | "grid"
            ) {
                return Err(format!(
                    "unknown entry field {key:?} (known: scenario, replications, \
                     duration_secs, duration_micros, grid)"
                ));
            }
        }
        let scenario = value
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or("an entry needs a string \"scenario\" field")?;
        let mut entry = CampaignEntry::new(scenario);
        if let Some(reps) = value.get("replications") {
            let reps = reps
                .as_u64()
                .filter(|n| *n > 0)
                .ok_or("\"replications\" must be a positive integer")?;
            entry = entry.replications(reps);
        }
        match (value.get("duration_secs"), value.get("duration_micros")) {
            (Some(_), Some(_)) => {
                return Err(
                    "set either \"duration_secs\" or \"duration_micros\", not both".to_string()
                )
            }
            (Some(secs), None) => {
                let duration = secs
                    .as_u64()
                    .and_then(SimDuration::checked_from_secs)
                    .ok_or(crate::spec::DURATION_SECS_RANGE)?;
                entry = entry.duration(duration);
            }
            (None, Some(micros)) => {
                let micros =
                    micros.as_u64().ok_or("\"duration_micros\" must be a non-negative integer")?;
                entry = entry.duration(SimDuration::from_micros(micros));
            }
            (None, None) => {}
        }
        if let Some(grid) = value.get("grid") {
            entry = entry.grid(ParamGrid::from_json(grid)?);
        }
        Ok(entry)
    }
}

/// One fully expanded parameter point: the coordinates every run of the point
/// shares.  The canonical work list is *not* materialised per run — a run is
/// reconstructed from its global index, which keeps campaign memory
/// proportional to the number of points, not the number of runs.
#[derive(Debug, Clone)]
struct PointDef {
    scenario: String,
    params: BTreeMap<String, ParamValue>,
    replications: u64,
    duration: Option<SimDuration>,
    /// Global index of the point's first run.
    first_run: u64,
}

/// The canonical walk over a campaign's runs: yields the coordinates of
/// every run from a given one to the campaign's end, in order.  One binary
/// search places the cursor; each later run steps from the previous one.
#[derive(Clone, Copy)]
struct RunCursor<'p> {
    points: &'p [PointDef],
    campaign_seed: u64,
    /// Index of the point holding `run` (`points.len()` past the end).
    point: usize,
    /// The global index of the next run.
    run: u64,
}

impl<'p> RunCursor<'p> {
    /// A cursor whose first run is global run `first`.
    fn new(points: &'p [PointDef], campaign_seed: u64, first: u64) -> Self {
        let point = points.partition_point(|p| p.first_run + p.replications <= first);
        RunCursor { points, campaign_seed, point, run: first }
    }
}

impl<'p> Iterator for RunCursor<'p> {
    type Item = RunAt<'p>;

    fn next(&mut self) -> Option<RunAt<'p>> {
        let point = self.points.get(self.point)?;
        let at = RunAt {
            run: self.run,
            index: self.point,
            point,
            replication: self.run - point.first_run,
            campaign_seed: self.campaign_seed,
        };
        self.run += 1;
        if self.run == point.first_run + point.replications {
            self.point += 1;
        }
        Some(at)
    }
}

/// One run's canonical coordinates, as a [`RunCursor`] yields them.
struct RunAt<'p> {
    /// Global run index.
    run: u64,
    /// Index of the run's point.
    index: usize,
    point: &'p PointDef,
    /// Replication index within the point.
    replication: u64,
    campaign_seed: u64,
}

impl<'p> RunAt<'p> {
    /// The run's RNG seed, derived from its coordinates alone.
    fn seed(&self) -> u64 {
        derive_run_seed(self.campaign_seed, self.index as u64, self.replication)
    }

    /// The spec the run executes.
    fn spec(&self) -> ScenarioSpec {
        let spec = ScenarioSpec::new(&self.point.scenario)
            .with_params(self.point.params.clone())
            .with_seed(self.seed());
        match self.point.duration {
            Some(duration) => spec.with_duration(duration),
            None => spec,
        }
    }

    /// What a [`RunSink`] learns about the run.
    fn meta(&self) -> RunMeta<'p> {
        RunMeta {
            run_index: self.run,
            point: self.index,
            scenario: &self.point.scenario,
            params: &self.point.params,
            replication: self.replication,
            seed: self.seed(),
        }
    }

    /// The key of the run's records in a trace stream.
    fn coords(&self) -> RunCoords {
        RunCoords {
            run_index: self.run,
            point: self.index as u64,
            replication: self.replication,
            seed: self.seed(),
        }
    }
}

/// Execution statistics of one campaign session, returned by
/// [`Session::run`].  Deliberately *not* part of [`CampaignReport`]: these
/// numbers depend on scheduling (worker count, chunk completion order) and
/// would break the bit-identity contract if they travelled with the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerStats {
    /// Worker threads used.
    pub workers: usize,
    /// Canonical chunks executed **by this session** (a resumed session
    /// counts only the chunks past the checkpoint watermark).
    pub chunks: u64,
    /// Peak number of completed chunks held for in-order merging.
    pub peak_pending_chunks: usize,
    /// Peak number of raw [`RunRecord`]s resident awaiting canonical-order
    /// processing (0 unless a sink is attached).  Bounded by
    /// `chunk_size × in-flight window`, never by the run count.
    pub peak_resident_records: u64,
}

/// How a campaign session ended, returned by [`Session::run`]: with the full
/// report, at a bounded-session boundary with a checkpoint on disk to resume
/// from, or at the end of a [chunk window](Session::chunks).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// Every canonical chunk was merged; this is the final report —
    /// bit-identical to an uninterrupted run's, whatever the session history.
    Complete(CampaignReport),
    /// The session hit its
    /// [bounded work slice](Checkpointer::max_chunks_per_session) with work
    /// remaining; the checkpoint manifest at the session's end boundary is on
    /// disk and a [resumed](Session::resume) session continues from it.
    Interrupted {
        /// Canonical chunks merged so far (across all sessions).
        chunks_done: usize,
        /// Runs covered by the watermark.
        runs_done: u64,
    },
    /// Every chunk of a [chunk window](Session::chunks) ran, and its runs
    /// reached the sinks; [`crate::shard`] merges windows by replaying them.
    Window,
}

impl CampaignOutcome {
    /// True when the campaign ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, CampaignOutcome::Complete(_))
    }

    /// The final report, if the campaign completed.
    pub fn into_report(self) -> Option<CampaignReport> {
        match self {
            CampaignOutcome::Complete(report) => Some(report),
            _ => None,
        }
    }
}

/// A worker's result for one canonical chunk.
struct ChunkOutput {
    /// Global index of the chunk's first run.
    first_run: u64,
    partial: ChunkPartial,
    /// Every run's record from `first_run` on, captured only when a sink
    /// needs them; drained in canonical order by the collector.
    records: Vec<RunRecord>,
    /// Every run's trace records from `first_run` on, captured only when a
    /// trace sink is attached; drained in canonical order by the collector
    /// so the trace stream is bit-identical for any worker count.
    traces: Vec<Vec<TraceRecord>>,
    /// Runs actually executed (the full chunk unless the abort flag cut it
    /// short).
    runs: u64,
    /// False when the worker observed the abort flag and stopped mid-chunk:
    /// the output covers only a prefix of the chunk's runs and must never be
    /// merged into the accumulator or covered by a checkpoint watermark.
    completed: bool,
    /// Wall-clock execution time of the chunk (telemetry only — never part
    /// of the deterministic report).
    elapsed: Duration,
    /// Index of the worker that executed the chunk (0 on the sequential
    /// path), for per-worker busy-time attribution.
    worker: usize,
}

/// Claim/merge coordination: workers may only claim a chunk while it is
/// within the in-flight window above the merge floor, which is what bounds
/// the memory the collector can ever have to buffer.
struct ChunkGate {
    state: Mutex<(usize, usize)>, // (next chunk to claim, chunks merged)
    ready: Condvar,
}

impl ChunkGate {
    /// A gate whose claim and merge frontiers start at chunk `start` (0 for
    /// a fresh campaign, the checkpoint watermark for a resumed one).
    fn new(start: usize) -> Self {
        ChunkGate { state: Mutex::new((start, start)), ready: Condvar::new() }
    }

    /// Claims the next chunk, waiting while the window is full.  Returns
    /// `None` when all chunks up to `end` are claimed or the campaign is
    /// aborting.
    fn claim(&self, end: usize, window: usize, abort: &AtomicBool) -> Option<usize> {
        let mut state = self.state.lock().expect("gate lock");
        loop {
            if abort.load(Ordering::Relaxed) || state.0 >= end {
                return None;
            }
            if state.0 < state.1 + window {
                let k = state.0;
                state.0 += 1;
                return Some(k);
            }
            state = self.ready.wait(state).expect("gate lock");
        }
    }

    /// Records one chunk as merged (or abandoned) and wakes waiting workers.
    fn advance(&self) {
        self.state.lock().expect("gate lock").1 += 1;
        self.ready.notify_all();
    }

    /// Wakes every waiting worker (used when aborting).
    fn wake_all(&self) {
        self.ready.notify_all();
    }

    /// Chunks claimed but not yet merged — the in-flight window's current
    /// occupancy (telemetry only).
    fn occupancy(&self) -> usize {
        let state = self.state.lock().expect("gate lock");
        state.0 - state.1
    }
}

/// A batch-runnable campaign: one or more [`CampaignEntry`]s executed over
/// `std::thread` workers with deterministic per-run seeds.
///
/// Determinism contract: for a fixed campaign seed, entry list and
/// [chunk size](Campaign::with_chunk_size), the [`CampaignReport`] is
/// bit-identical for every `threads` setting.  Workers only *execute* runs;
/// each run's seed is derived from its canonical coordinates
/// ([`derive_run_seed`]), each canonical chunk is reduced sequentially in
/// canonical run order, and chunk partials merge in canonical chunk order.
///
/// Memory model: runs are partitioned into canonical chunks and each run's
/// compact [`RunRecord`] is folded into its chunk's per-point streaming
/// aggregates ([`OnlineStats`](karyon_sim::OnlineStats) + bounded quantile
/// state, see [`crate::aggregate`]) the moment it finishes — no record
/// outlives its run unless a [`RunSink`] asked for it.  Workers may only be
/// a bounded window of chunks ahead of the canonical merge frontier, so peak
/// memory is O(points × chunks-in-flight) plus, with a sink attached, at
/// most `chunk_size × window` buffered records — independent of the total
/// run count either way.  A 10⁶-run campaign aggregates in the same
/// footprint as a 10³-run one.
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    seed: u64,
    threads: usize,
    chunk_size: usize,
    entries: Vec<CampaignEntry>,
}

impl Campaign {
    /// Creates an empty campaign with the given name and campaign seed.
    pub fn new(name: &str, seed: u64) -> Self {
        Campaign {
            name: name.to_string(),
            seed,
            threads: 0,
            chunk_size: DEFAULT_CHUNK_SIZE,
            entries: Vec::new(),
        }
    }

    /// Adds a scenario entry.
    pub fn entry(mut self, entry: CampaignEntry) -> Self {
        self.entries.push(entry);
        self
    }

    /// Sets the worker-thread count.  `0` (the default) uses the machine's
    /// available parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the canonical chunk size (runs per chunk; default
    /// [`DEFAULT_CHUNK_SIZE`]).
    ///
    /// The chunk size is part of the aggregation contract: reports are
    /// bit-identical across worker counts for a fixed chunk size, but
    /// changing it regroups the floating-point reduction and may change
    /// results in the last ulp.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "the canonical chunk size must be at least 1");
        self.chunk_size = chunk_size;
        self
    }

    /// The canonical chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The campaign seed every per-run seed is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured worker-thread count (0 = machine parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The campaign's entries, in declaration order.
    pub fn entries(&self) -> &[CampaignEntry] {
        &self.entries
    }

    /// Total number of runs the campaign will execute, saturating at
    /// `u64::MAX` for a campaign too large to count (which
    /// [`Session::run`] refuses).
    pub fn run_count(&self) -> u64 {
        self.checked_run_count().unwrap_or(u64::MAX)
    }

    /// The run count, or a refusal naming the overflow.
    fn checked_run_count(&self) -> Result<u64, String> {
        self.entries
            .iter()
            .try_fold(0u64, |total, entry| {
                entry.checked_run_count().and_then(|runs| total.checked_add(runs))
            })
            .ok_or_else(|| {
                format!(
                    "campaign {:?} expands to more runs than a u64 can count — the run count \
                     overflows; shrink its grids or replications",
                    self.name
                )
            })
    }

    /// Number of canonical chunks the campaign partitions into.
    pub fn canonical_chunks(&self) -> usize {
        (self.run_count() as usize).div_ceil(self.chunk_size)
    }

    /// A stable 64-bit fingerprint of everything that determines the
    /// campaign's canonical run list and reduction: name, seed, chunk size
    /// and the full entry list (scenario families, replication counts,
    /// durations, grid axes **in order** with exactly typed values).
    ///
    /// The worker-thread count is deliberately excluded — a checkpoint taken
    /// by a 32-way run resumes fine on a single core.  Checkpoint manifests
    /// embed the fingerprint and a [resumed](Session::resume) session refuses
    /// one written by a different campaign definition, since its partials
    /// would be merged into the wrong reduction.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut text = format!(
            "karyon-campaign-fingerprint-v1 name={:?} seed={} chunk={}",
            self.name, self.seed, self.chunk_size
        );
        for entry in &self.entries {
            let _ = write!(
                text,
                " entry={:?} reps={} dur={:?}",
                entry.scenario,
                entry.replications,
                entry.duration.map(SimDuration::as_micros)
            );
            for (axis, values) in entry.grid.axes() {
                let _ = write!(text, " axis={axis:?}=[");
                for value in values {
                    // Type-tagged so Int(1), Float(1.0) and Text("1") hash
                    // apart; float identity is the bit pattern.
                    match value {
                        ParamValue::Int(i) => {
                            let _ = write!(text, "i{i},");
                        }
                        ParamValue::Float(f) => {
                            let _ = write!(text, "f{:016x},", f.to_bits());
                        }
                        ParamValue::Bool(b) => {
                            let _ = write!(text, "b{b},");
                        }
                        ParamValue::Text(s) => {
                            let _ = write!(text, "t{s:?},");
                        }
                    }
                }
                text.push(']');
            }
        }
        fnv1a64(text.as_bytes())
    }

    /// Builds a campaign from a JSON spec document — the format the
    /// `karyon-campaign` CLI consumes:
    ///
    /// ```
    /// use karyon_scenario::Campaign;
    ///
    /// let campaign = Campaign::from_json_str(r#"{
    ///     "name": "demo",
    ///     "seed": 42,
    ///     "chunk_size": 64,
    ///     "entries": [
    ///         {"scenario": "lane-change", "replications": 8,
    ///          "duration_secs": 30,
    ///          "grid": {"coordination": ["agreement", "none"]}}
    ///     ]
    /// }"#).expect("well-formed spec");
    /// assert_eq!(campaign.run_count(), 16);
    /// ```
    ///
    /// `chunk_size` and `threads` are optional (defaults: 4096 and machine
    /// parallelism); `entries` must name at least one scenario family, and
    /// the run count must fit a `u64`.  Grid
    /// axes keep their file order, so the spec file pins the canonical run
    /// order — and with it the [fingerprint](Campaign::fingerprint) —
    /// exactly as written.
    pub fn from_json_str(text: &str) -> Result<Campaign, String> {
        let doc = JsonValue::parse(text)?;
        let members = doc.as_object().ok_or_else(|| {
            format!("a campaign spec must be a JSON object, not {}", doc.type_name())
        })?;
        for (key, _) in members {
            if !matches!(key.as_str(), "name" | "seed" | "chunk_size" | "threads" | "entries") {
                return Err(format!(
                    "unknown campaign field {key:?} (known: name, seed, chunk_size, threads, \
                     entries)"
                ));
            }
        }
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("a campaign spec needs a string \"name\" field")?;
        let seed = doc
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("a campaign spec needs a non-negative integer \"seed\" field")?;
        let mut campaign = Campaign::new(name, seed);
        if let Some(chunk) = doc.get("chunk_size") {
            let chunk = chunk
                .as_u64()
                .filter(|n| *n > 0)
                .ok_or("\"chunk_size\" must be a positive integer")?;
            campaign = campaign.with_chunk_size(chunk as usize);
        }
        if let Some(threads) = doc.get("threads") {
            let threads = threads
                .as_u64()
                .ok_or("\"threads\" must be a non-negative integer (0 = machine parallelism)")?;
            campaign = campaign.with_threads(threads as usize);
        }
        let entries = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("a campaign spec needs an \"entries\" array")?;
        if entries.is_empty() {
            return Err("a campaign spec needs at least one entry".to_string());
        }
        for (index, entry) in entries.iter().enumerate() {
            campaign = campaign.entry(
                CampaignEntry::from_json(entry).map_err(|e| format!("entry #{index}: {e}"))?,
            );
        }
        campaign.checked_run_count()?;
        Ok(campaign)
    }

    /// Expands the entries into the flattened parameter-point list.  Callers
    /// check the run count first, so the run offsets cannot overflow.
    fn expand_points(&self) -> Vec<PointDef> {
        let mut points = Vec::new();
        let mut next_run = 0u64;
        for entry in &self.entries {
            for params in entry.grid.expand() {
                points.push(PointDef {
                    scenario: entry.scenario.clone(),
                    params,
                    replications: entry.replications,
                    duration: entry.duration,
                    first_run: next_run,
                });
                next_run += entry.replications;
            }
        }
        points
    }

    /// Starts a [`Session`] of this campaign over `registry`'s families —
    /// the one way to run a campaign.  Without further settings the session
    /// executes every run across the worker threads and aggregates per
    /// parameter point in bounded memory.
    pub fn session<'a>(&'a self, registry: &'a ScenarioRegistry) -> Session<'a> {
        Session {
            campaign: self,
            registry,
            sink: None,
            telemetry: CampaignTelemetry::none(),
            faults: None,
            checkpointer: None,
            resume: None,
            chunks: None,
        }
    }

    /// Runs a plain [`session`](Campaign::session) and returns its report.
    ///
    /// Returns an error naming the first entry whose scenario family is not
    /// in `registry` (checked up front, before any run executes).  A run that
    /// panics mid-campaign — e.g. an invalid parameter *value* that only the
    /// family's adapter can detect — also surfaces as an `Err` naming the
    /// offending spec, after in-flight runs wind down.
    pub fn run(&self, registry: &ScenarioRegistry) -> Result<CampaignReport, String> {
        let (outcome, _) = self.session(registry).run()?;
        Ok(outcome.into_report().expect("a plain session runs every chunk"))
    }

    /// A plain session with an optional sink and telemetry, returning the
    /// report and the runner's statistics.  Kept for the campaign benchmark;
    /// everything else builds the [`session`](Campaign::session).
    pub fn run_instrumented_with(
        &self,
        registry: &ScenarioRegistry,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
    ) -> Result<(CampaignReport, RunnerStats), String> {
        let session = self.session(registry).telemetry(telemetry);
        let (outcome, stats) = match sink {
            Some(sink) => session.sink(sink),
            None => session,
        }
        .run()?;
        Ok((outcome.into_report().expect("a plain session runs every chunk"), stats))
    }

    /// A [checkpointed](Session::checkpointer) session with an optional sink
    /// and telemetry.  Kept for the campaign benchmark; everything else
    /// builds the [`session`](Campaign::session).
    pub fn run_checkpointed_with(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        let session = self.session(registry).checkpointer(ckpt).telemetry(telemetry);
        match sink {
            Some(sink) => session.sink(sink),
            None => session,
        }
        .run()
    }

    /// A session [resumed](Session::resume) from `ckpt`'s manifest, with an
    /// optional sink.  Kept for the campaign benchmark; everything else
    /// builds the [`session`](Campaign::session).
    pub fn resume(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        let session = self.session(registry).checkpointer(ckpt).resume(ckpt.load()?);
        match sink {
            Some(sink) => session.sink(sink),
            None => session,
        }
        .run()
    }
}

/// One campaign session, started by [`Campaign::session`] and executed by
/// [`Session::run`].
///
/// A plain session runs every canonical chunk and returns
/// [`CampaignOutcome::Complete`].  Each setting changes what the session
/// streams, persists or covers — nothing changes the results:
///
/// ```
/// use karyon_scenario::{builtin_registry, Campaign, CampaignEntry, RunMeta, RunRecord};
///
/// let campaign = Campaign::new("doc-session", 3)
///     .entry(CampaignEntry::new("lane-change").replications(4).duration_secs(10));
/// let mut runs = 0;
/// let mut sink = |_: &RunMeta<'_>, _: &RunRecord| runs += 1;
/// let (outcome, stats) = campaign.session(&builtin_registry()).sink(&mut sink).run().unwrap();
/// assert_eq!(outcome.into_report().unwrap().total_runs, 4);
/// assert_eq!((runs, stats.chunks), (4, 1));
/// ```
pub struct Session<'a> {
    campaign: &'a Campaign,
    registry: &'a ScenarioRegistry,
    sink: Option<&'a mut dyn RunSink>,
    telemetry: CampaignTelemetry<'a>,
    faults: Option<&'a FaultInjector>,
    checkpointer: Option<&'a Checkpointer>,
    resume: Option<CheckpointManifest>,
    chunks: Option<Range<usize>>,
}

impl<'a> Session<'a> {
    /// Streams every run's raw record to `sink` in canonical run order (see
    /// [`RunSink`]).  With a [checkpointer](Session::checkpointer) the sink
    /// is flushed before every manifest write, so the stream on disk never
    /// lags the checkpoint.
    pub fn sink(mut self, sink: &'a mut dyn RunSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches [telemetry](CampaignTelemetry): an optional deterministic
    /// trace sink, fed every run's virtual-time records in canonical run
    /// order (bit-identical for any worker count, and flushed like the run
    /// sink before every manifest write), and an optional wall-clock
    /// [`MetricsRegistry`](karyon_telemetry::MetricsRegistry) of runner
    /// throughput/latency metrics.
    pub fn telemetry<'t: 'a>(mut self, telemetry: CampaignTelemetry<'t>) -> Self {
        // Rebuilt member by member: `CampaignTelemetry` is invariant in its
        // lifetime, and the session may borrow for less long.
        self.telemetry = CampaignTelemetry {
            trace: telemetry.trace.map(|t| t as _),
            metrics: telemetry.metrics,
        };
        self
    }

    /// Executes under an armed [`FaultInjector`]: the runner probes it at its
    /// canonical points (chunk claims, per-run boundaries, pre-checkpoint
    /// sink flushes, post-manifest writes), with global chunk coordinates,
    /// and injected failures surface as ordinary runner errors carrying
    /// [`crate::fault::INJECTED_PREFIX`].
    ///
    /// Transient injected sink errors heal in place under the checkpoint's
    /// bounded I/O retry; fatal ones (worker death,
    /// torn manifests, mid-chunk aborts) end the session like a crash would,
    /// leaving checkpoint state a [resumed](Session::resume) session — which
    /// may share the injector and its spent fault budgets — continues from,
    /// with a final report **bit-identical** to a fault-free run's.
    pub fn faults(mut self, faults: &'a FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Persists a [checkpoint manifest](crate::checkpoint) through
    /// `checkpointer` at its chunk cadence (and always at the session's final
    /// chunk boundary), so a killed process can [resume](Session::resume)
    /// instead of restarting.  With a
    /// [bounded work slice](Checkpointer::max_chunks_per_session) the session
    /// may end with [`CampaignOutcome::Interrupted`].
    pub fn checkpointer(mut self, checkpointer: &'a Checkpointer) -> Self {
        self.checkpointer = Some(checkpointer);
        self
    }

    /// Continues from `manifest`, as [loaded](Checkpointer::load) from a
    /// checkpointing session's manifest: validates the
    /// [fingerprint](Campaign::fingerprint) (same name, seed, chunk size and
    /// entry list — a different worker count is fine) before any run,
    /// restores the aggregation state from the persisted partials, skips
    /// every canonical chunk at or below the watermark and continues with
    /// live workers.  Only a [checkpointer](Session::checkpointer) set too
    /// writes manifests; without one the session writes none.
    ///
    /// The final report is **bit-identical** to an uninterrupted run's, for
    /// any worker count and any interruption point.  A sink — or trace sink —
    /// attached here receives only the runs *after* the watermark; to
    /// continue a JSONL stream, first cut it back to the manifest's
    /// `runs_done` lines with [`truncate_jsonl`](crate::checkpoint::truncate_jsonl)
    /// and reopen it in append mode.  Resuming a finished manifest executes
    /// nothing, spawns no thread and re-emits the final report.
    pub fn resume(mut self, manifest: CheckpointManifest) -> Self {
        self.resume = Some(manifest);
        self
    }

    /// Executes only the canonical chunks in `window` — one shard of the
    /// campaign — and returns [`CampaignOutcome::Window`].
    ///
    /// This is the execution half of the shard protocol ([`crate::shard`]):
    /// each window runs independently, with its own worker count.  A sink
    /// (and a trace sink) attached here receives only the window's runs, with
    /// **global** run indices and coordinates, so window segments
    /// concatenate byte-exactly, in window order, into the stream an
    /// uninterrupted run writes — and the merge half replays that stream
    /// through [`Campaign::reduce_records`], which is why the merged report
    /// is **bit-identical** to an uninterrupted run's.
    ///
    /// An empty window executes nothing.  A window is neither checkpointed
    /// nor resumed: it is the unit of retry, rerun whole after a failure.
    pub fn chunks(mut self, window: Range<usize>) -> Self {
        self.chunks = Some(window);
        self
    }

    /// Executes the session: workers run canonical chunks, and the calling
    /// thread merges them strictly in canonical order.
    ///
    /// Errors before any run executes when the settings conflict (a chunk
    /// window together with a checkpointer or resume; a window outside the
    /// campaign's chunk range), when the run count overflows `u64`, when an
    /// entry names a family `registry` lacks, or when the manifest to resume
    /// from was written by a different campaign definition.  A
    /// run that panics mid-campaign surfaces as an `Err` naming the offending
    /// spec, after in-flight runs wind down.
    pub fn run(self) -> Result<(CampaignOutcome, RunnerStats), String> {
        let Session {
            campaign,
            registry,
            mut sink,
            mut telemetry,
            faults,
            checkpointer,
            resume,
            chunks: window,
        } = self;
        if window.is_some() && (checkpointer.is_some() || resume.is_some()) {
            return Err("a chunk window is neither checkpointed nor resumed: it is rerun whole \
                        after a failure"
                .into());
        }
        let total_runs = campaign.checked_run_count()?;
        let points = campaign.expand_points();
        let families = campaign.resolve_families(registry, &points)?;
        let chunks = (total_runs as usize).div_ceil(campaign.chunk_size);
        let session_end =
            |start| checkpointer.map_or(chunks, |c| c.session_end_chunk(start, chunks));
        let (start_chunk, end_chunk, mut accumulator) = match (&window, resume) {
            (Some(window), _) => {
                if window.start > window.end || window.end > chunks {
                    return Err(format!(
                        "shard window [{}, {}) does not lie within campaign {:?}'s {chunks} \
                         canonical chunks",
                        window.start, window.end, campaign.name
                    ));
                }
                (window.start, window.end, CampaignAccumulator::new(points.len()))
            }
            (None, Some(manifest)) => {
                manifest.validate_for(campaign, points.len(), chunks)?;
                let start = manifest.chunks_done;
                (start, session_end(start), manifest.into_accumulator())
            }
            (None, None) => (0, session_end(0), CampaignAccumulator::new(points.len())),
        };
        let session_chunks = end_chunk - start_chunk;
        let workers = match campaign.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
        .min(session_chunks.max(1));
        let mut stats = RunnerStats {
            workers,
            chunks: session_chunks as u64,
            peak_pending_chunks: 0,
            peak_resident_records: 0,
        };
        let mut worker_busy = vec![Duration::ZERO; workers];

        // Workers claim canonical chunks through a windowed gate, and this
        // thread merges completed chunks strictly in canonical order.  The
        // window bounds how far execution may run ahead of the merge
        // frontier, which is what bounds peak memory.  A single worker runs
        // inline on this thread: it claims each chunk only once the previous
        // one is merged, so it claims none after a failure, and a session
        // with no chunk to run spawns no thread.
        let in_flight = workers * 2;
        let gate = ChunkGate::new(start_chunk);
        let abort = AtomicBool::new(false);
        let work = ChunkWork {
            campaign,
            points: &points,
            families: &families,
            capture: sink.is_some(),
            tracing: telemetry.tracing(),
            faults,
        };
        let claim_and_run = |worker: usize| {
            let chunk = gate.claim(end_chunk, in_flight, &abort)?;
            let outcome = work.run(chunk, worker, &abort);
            if outcome.is_err() {
                abort.store(true, Ordering::Relaxed);
                gate.wake_all();
            }
            Some((chunk, outcome))
        };
        let mut first_error: Option<(usize, String)> = None;
        let mut saw_aborted_chunk = false;

        std::thread::scope(|scope| {
            let outputs: Box<dyn Iterator<Item = (usize, Result<ChunkOutput, String>)>> =
                if workers == 1 {
                    Box::new(std::iter::from_fn(|| claim_and_run(0)))
                } else {
                    let (tx, rx) = mpsc::channel();
                    for worker in 0..workers {
                        let (tx, claim_and_run) = (tx.clone(), &claim_and_run);
                        scope.spawn(move || {
                            while let Some(output) = claim_and_run(worker) {
                                if tx.send(output).is_err() {
                                    break;
                                }
                            }
                        });
                    }
                    // The receiver ends once every worker has dropped its
                    // sender; this block's own sender goes out of scope here.
                    Box::new(rx.into_iter())
                };

            let mut pending: BTreeMap<usize, ChunkOutput> = BTreeMap::new();
            let mut manifests = checkpointer.map(|ckpt| {
                ManifestWriter::new(
                    ckpt,
                    points.iter().map(|p| p.first_run + p.replications).collect(),
                )
            });
            let mut resident_records = 0u64;
            let mut next_merge = start_chunk;
            for (chunk, outcome) in outputs {
                if let Some(metrics) = telemetry.metrics.as_deref_mut() {
                    // Sampled at every chunk completion: how full the
                    // in-flight window is (its mean near `in_flight` means
                    // the merge frontier, not execution, is the bottleneck).
                    metrics
                        .configure_timer(
                            "campaign.gate_occupancy",
                            0.0,
                            in_flight as f64,
                            in_flight,
                        )
                        .record(gate.occupancy() as f64);
                }
                match outcome {
                    Err(error) => {
                        if first_error.as_ref().map_or(true, |(c, _)| chunk < *c) {
                            first_error = Some((chunk, error));
                        }
                        // Keep the window moving so workers drain quickly.
                        gate.advance();
                        if chunk == next_merge {
                            next_merge += 1;
                        }
                    }
                    Ok(output) if !output.completed => {
                        // A worker saw the abort flag mid-chunk: this output
                        // covers only a prefix of the chunk's runs.  The
                        // `Err` that raised the flag may still be in flight
                        // (mpsc ordering across senders is arbitrary), so
                        // merging — or letting a later merge checkpoint past
                        // this hole — would durably record runs that never
                        // executed.  Drop it, remember the session has a
                        // hole, and keep the window moving so workers drain.
                        saw_aborted_chunk = true;
                        worker_busy[output.worker] += output.elapsed;
                        gate.advance();
                        if chunk == next_merge {
                            next_merge += 1;
                        }
                    }
                    Ok(output) => {
                        resident_records += output.records.len() as u64;
                        worker_busy[output.worker] += output.elapsed;
                        pending.insert(chunk, output);
                        stats.peak_pending_chunks = stats.peak_pending_chunks.max(pending.len());
                        stats.peak_resident_records =
                            stats.peak_resident_records.max(resident_records);
                    }
                }
                while let Some(output) = pending.remove(&next_merge) {
                    resident_records -= output.records.len() as u64;
                    next_merge += 1;
                    gate.advance();
                    if first_error.is_some() || saw_aborted_chunk {
                        // The session is doomed to return Err: drop the
                        // output instead of merging — no checkpoint may
                        // cover it, and streaming its records would only
                        // write a sink tail the next resume truncates.
                        continue;
                    }
                    campaign.merge_chunk(
                        &points,
                        &mut accumulator,
                        output,
                        &mut sink,
                        &mut telemetry,
                    );
                    let checkpointed = match manifests.as_mut() {
                        // At the cadence, and always at the session's end.
                        Some(manifests)
                            if manifests.checkpointer().due(next_merge)
                                || next_merge == end_chunk =>
                        {
                            campaign.write_checkpoint(
                                manifests,
                                next_merge,
                                &accumulator,
                                &mut sink,
                                &mut telemetry,
                                faults,
                            )
                        }
                        _ => Ok(()),
                    };
                    if let Err(error) = checkpointed {
                        // A checkpoint that cannot be persisted voids the
                        // crash-safety contract: wind the campaign down
                        // and surface the I/O failure.
                        first_error = Some((next_merge, error));
                        abort.store(true, Ordering::Relaxed);
                        gate.wake_all();
                    }
                }
            }
        });

        finish_session_metrics(&mut telemetry, &stats, &worker_busy, faults);
        if let Some((_, error)) = first_error {
            return Err(error);
        }
        if saw_aborted_chunk {
            // The flag is only ever raised alongside a worker `Err` (which
            // always reaches the collector before the channel closes) or a
            // checkpoint failure (which sets `first_error` directly), so
            // this is unreachable — but never bless a session with a hole.
            return Err("a worker aborted mid-chunk without a recorded failure".to_string());
        }
        let outcome = if window.is_some() {
            CampaignOutcome::Window
        } else if end_chunk < chunks {
            CampaignOutcome::Interrupted {
                chunks_done: end_chunk,
                runs_done: (end_chunk as u64 * campaign.chunk_size as u64).min(total_runs),
            }
        } else {
            CampaignOutcome::Complete(campaign.finish(points, total_runs, accumulator))
        };
        Ok((outcome, stats))
    }
}

/// What every worker of a session shares: the expanded points and their
/// families, what each run must hand back, and the fault injector to probe.
struct ChunkWork<'s> {
    campaign: &'s Campaign,
    points: &'s [PointDef],
    families: &'s [Arc<dyn Scenario>],
    /// Keep every run's record for the sink.
    capture: bool,
    /// Collect every run's trace records for the trace sink.
    tracing: bool,
    faults: Option<&'s FaultInjector>,
}

impl ChunkWork<'_> {
    /// Executes the canonical chunk `chunk` sequentially in run order on
    /// worker `worker`, streaming every record into a fresh [`ChunkPartial`].
    /// Returns the first run failure (canonical within the chunk) as `Err`;
    /// an output with `completed == false` when the abort flag cut the chunk
    /// short.
    fn run(&self, chunk: usize, worker: usize, abort: &AtomicBool) -> Result<ChunkOutput, String> {
        let started = Instant::now();
        if let Some(injector) = self.faults {
            injector.before_chunk(chunk)?;
        }
        let start = (chunk * self.campaign.chunk_size) as u64;
        let mut partial = ChunkPartial::new();
        let mut records = Vec::new();
        let mut traces = Vec::new();
        let mut runs = 0u64;
        let mut completed = true;
        let chunk_runs = RunCursor::new(self.points, self.campaign.seed, start);
        for at in chunk_runs.take(self.campaign.chunk_size) {
            if abort.load(Ordering::Relaxed) {
                completed = false;
                break;
            }
            if let Some(injector) = self.faults {
                injector.before_run(chunk, runs)?;
            }
            let family = &self.families[at.index];
            let spec = at.spec();
            let record = if self.tracing {
                // The collection scope makes every `karyon_telemetry::trace`
                // call inside the run land in this run's record list; the
                // records contain only virtual-time data, so the list is a
                // pure function of the spec.
                let (record, run_trace) = trace::collect(|| run_one(&**family, &spec));
                traces.push(run_trace);
                record?
            } else {
                run_one(&**family, &spec)?
            };
            partial.record_run(at.index, &record, &|metric| family.metric_range(metric));
            runs += 1;
            if self.capture {
                records.push(record);
            }
        }
        Ok(ChunkOutput {
            first_run: start,
            partial,
            records,
            traces,
            runs,
            completed,
            elapsed: started.elapsed(),
            worker,
        })
    }
}

impl Campaign {
    /// Writes a checkpoint manifest covering `chunks_done` chunks, flushing
    /// the sink — and an attached trace sink — first so the streams on disk
    /// always cover at least the checkpointed runs.  `manifests` keeps the
    /// text of the points earlier writes closed, so this write renders only
    /// the points still open.
    ///
    /// Every I/O edge here (sink flush, trace flush, manifest write) retries
    /// transient failures — including injected
    /// [`Fault::SinkIoError`](crate::Fault)s — with bounded backoff, and only
    /// the last error of an exhausted budget propagates.
    fn write_checkpoint(
        &self,
        manifests: &mut ManifestWriter<'_>,
        chunks_done: usize,
        accumulator: &CampaignAccumulator,
        sink: &mut Option<&mut dyn RunSink>,
        telemetry: &mut CampaignTelemetry<'_>,
        faults: Option<&FaultInjector>,
    ) -> Result<(), String> {
        let mut retried = 0u32;
        let flush_started = Instant::now();
        if let Some(sink) = sink {
            let (flushed, attempts) = retry_io(|| {
                if let Some(e) = faults.and_then(|injector| injector.sink_flush_error(chunks_done))
                {
                    return Err(e);
                }
                sink.flush()
            });
            retried += attempts;
            if let Err(e) = flushed {
                note_retry_exhausted(telemetry, retried);
                return Err(format!("flushing the run sink before a checkpoint: {e}"));
            }
        }
        if let Some(trace_sink) = telemetry.trace.as_deref_mut() {
            let (flushed, attempts) = retry_io(|| trace_sink.flush());
            retried += attempts;
            if let Err(e) = flushed {
                note_retry_exhausted(telemetry, retried);
                return Err(format!("flushing the trace sink before a checkpoint: {e}"));
            }
        }
        let flushed = flush_started.elapsed();
        let runs_done = (chunks_done as u64 * self.chunk_size as u64).min(self.run_count());
        let ckpt = manifests.checkpointer();
        let manifest = manifests.render(self, chunks_done, runs_done, accumulator);
        let write_started = Instant::now();
        let (written, attempts) = retry_io(|| ckpt.write(manifest));
        retried += attempts;
        if let Err(e) = written {
            note_retry_exhausted(telemetry, retried);
            return Err(e);
        }
        if let Some(injector) = faults {
            injector.after_manifest_write(chunks_done, ckpt.path())?;
        }
        if let Some(metrics) = telemetry.metrics.as_deref_mut() {
            metrics.record_timer("campaign.sink_flush_ms", flushed.as_secs_f64() * 1e3);
            metrics.record_timer(
                "campaign.checkpoint_write_ms",
                write_started.elapsed().as_secs_f64() * 1e3,
            );
            if retried > 0 {
                metrics.add("retry.attempts", retried as u64);
                metrics.inc("recovery.outcome.recovered");
            }
        }
        Ok(())
    }

    /// Reads a JSONL run stream of this campaign back into per-run records,
    /// one per line in canonical run order, checking every line against the
    /// campaign — what `karyon-campaign report --jsonl` and `merge` replay.
    ///
    /// Each line is read as [`read_jsonl_records`](crate::read_jsonl_records)
    /// reads it, and must then carry its canonical run's coordinates:
    /// `scenario` and `params` byte for byte as
    /// [`JsonlRunWriter`](crate::JsonlRunWriter) renders them (once per
    /// point), `point`, `replication` and `seed` by value.  A stream another
    /// campaign wrote (another seed, another family, a reordered grid axis)
    /// is refused at its first line that differs, naming the line, the
    /// field, and the expected and found values.  Lines past the campaign's
    /// last run are left to the count check of
    /// [`reduce_records`](Self::reduce_records).
    pub fn read_jsonl_records(&self, text: &str) -> Result<Vec<RunRecord>, String> {
        self.checked_run_count()?;
        let points = self.expand_points();
        let mut runs = RunCursor::new(&points, self.seed, 0);
        // The current point and its rendered scenario and params.
        let mut rendered = (usize::MAX, String::new(), String::new());
        let mut records = Vec::new();
        for_each_run_line(text, |index, line| {
            line.check_run(index)?;
            if let Some(at) = runs.next() {
                if rendered.0 != at.index {
                    let scenario = format!("\"{}\"", escape(&at.point.scenario));
                    rendered = (at.index, scenario, params_json(&at.point.params));
                }
                let refusal = |field: &str, found: Option<&str>, expected: &dyn Display| {
                    format!(
                        "JSONL line {}: {field:?} is {} but run {} of campaign {:?} has \
                         {expected} — the stream was written by another campaign definition",
                        index + 1,
                        found.unwrap_or("missing"),
                        at.run,
                        self.name,
                    )
                };
                let [scenario, point, replication, seed, params] = line.coordinates;
                if scenario != Some(rendered.1.as_str()) {
                    return Err(refusal("scenario", scenario, &rendered.1));
                }
                for (field, found, expected) in [
                    ("point", point, at.index as u64),
                    ("replication", replication, at.replication),
                    ("seed", seed, at.seed()),
                ] {
                    if found.and_then(|raw| raw.parse().ok()) != Some(expected) {
                        return Err(refusal(field, found, &expected));
                    }
                }
                if params != Some(rendered.2.as_str()) {
                    return Err(refusal("params", params, &rendered.2));
                }
            }
            records.push(line.into_record(index)?);
            Ok(())
        })?;
        Ok(records)
    }

    /// Re-aggregates retained per-run records (e.g. parsed back from a
    /// [`JsonlRunWriter`](crate::JsonlRunWriter) artifact) through the same
    /// canonical chunk pipeline the streaming runner uses.
    ///
    /// `records` must hold exactly one record per run, in canonical run
    /// order.  The result is **bit-identical** to what [`Campaign::run`]
    /// produces for any worker count with the same chunk size — the property
    /// the integration tests pin down.
    pub fn reduce_records(
        &self,
        registry: &ScenarioRegistry,
        records: &[RunRecord],
    ) -> Result<CampaignReport, String> {
        let total_runs = self.checked_run_count()?;
        let points = self.expand_points();
        let families = self.resolve_families(registry, &points)?;
        if records.len() as u64 != total_runs {
            return Err(format!(
                "campaign {:?} expands to {total_runs} runs but {} records were supplied",
                self.name,
                records.len()
            ));
        }
        let mut accumulator = CampaignAccumulator::new(points.len());
        let mut runs = RunCursor::new(&points, self.seed, 0);
        for chunk_records in records.chunks(self.chunk_size) {
            let mut partial = ChunkPartial::new();
            for (record, at) in chunk_records.iter().zip(&mut runs) {
                let family = &families[at.index];
                partial.record_run(at.index, record, &|metric| family.metric_range(metric));
            }
            accumulator.merge_chunk(partial);
        }
        Ok(self.finish(points, total_runs, accumulator))
    }

    /// Resolves each expanded point's scenario family, erroring on the first
    /// unknown entry before anything executes.
    fn resolve_families(
        &self,
        registry: &ScenarioRegistry,
        points: &[PointDef],
    ) -> Result<Vec<Arc<dyn Scenario>>, String> {
        for entry in &self.entries {
            if registry.get(&entry.scenario).is_none() {
                return Err(format!(
                    "campaign {:?} references unknown scenario family {:?} (known: {})",
                    self.name,
                    entry.scenario,
                    registry.names().join(", ")
                ));
            }
        }
        Ok(points
            .iter()
            .map(|p| registry.get(&p.scenario).expect("validated above").clone())
            .collect())
    }

    /// Folds one canonical chunk into `accumulator`, drains its captured records
    /// (already in canonical order) into the sink and its trace records into
    /// the trace sink, and notes the chunk's wall-clock metrics.
    ///
    /// Draining traces *here* — at the canonical-order merge frontier, never
    /// at execution time — is what makes the trace stream bit-identical for
    /// any worker count.
    fn merge_chunk(
        &self,
        points: &[PointDef],
        accumulator: &mut CampaignAccumulator,
        output: ChunkOutput,
        sink: &mut Option<&mut dyn RunSink>,
        telemetry: &mut CampaignTelemetry<'_>,
    ) {
        accumulator.merge_chunk(output.partial);
        // Every run of the chunk reaches the sink before any reaches the
        // trace sink.
        let runs = RunCursor::new(points, self.seed, output.first_run);
        if let Some(sink) = sink {
            for (record, at) in output.records.iter().zip(runs) {
                sink.on_run(&at.meta(), record);
            }
        }
        if let Some(trace_sink) = telemetry.trace.as_deref_mut() {
            for (run_trace, at) in output.traces.iter().zip(runs) {
                trace_sink.on_run_records(&at.coords(), run_trace);
            }
        }
        if let Some(metrics) = telemetry.metrics.as_deref_mut() {
            metrics.inc("campaign.chunks");
            metrics.add("campaign.runs", output.runs);
            metrics.record_timer("campaign.chunk_ms", output.elapsed.as_secs_f64() * 1e3);
        }
    }

    /// Builds the final report from the merged accumulator.
    fn finish(
        &self,
        points: Vec<PointDef>,
        total_runs: u64,
        accumulator: CampaignAccumulator,
    ) -> CampaignReport {
        let reports = points
            .into_iter()
            .zip(accumulator.points())
            .map(|(point, acc)| PointReport {
                scenario: point.scenario,
                params: point.params,
                runs: acc.runs,
                suspect_runs: acc.suspect_runs,
                metrics: acc.summaries(),
            })
            .collect();
        CampaignReport { name: self.name.clone(), seed: self.seed, total_runs, points: reports }
    }
}

/// Writes a session's end-of-run gauges into an attached metrics registry:
/// the worker count, the runner's peak-memory statistics and each worker's
/// accumulated busy time (chunk execution only — a worker idling at a full
/// window accrues nothing, so `busy / wall` per worker reads as utilisation).
fn finish_session_metrics(
    telemetry: &mut CampaignTelemetry<'_>,
    stats: &RunnerStats,
    worker_busy: &[Duration],
    faults: Option<&FaultInjector>,
) {
    let Some(metrics) = telemetry.metrics.as_deref_mut() else { return };
    metrics.set_gauge("campaign.workers", stats.workers as f64);
    metrics.set_gauge("campaign.peak_pending_chunks", stats.peak_pending_chunks as f64);
    metrics.set_gauge("campaign.peak_resident_records", stats.peak_resident_records as f64);
    for (index, busy) in worker_busy.iter().enumerate() {
        metrics.set_gauge(&format!("campaign.worker.{index}.busy_ms"), busy.as_secs_f64() * 1e3);
    }
    if let Some(injector) = faults {
        for (name, count) in injector.drain_counts() {
            metrics.add(name, count);
        }
    }
}

/// Records that a retried I/O edge exhausted its attempt budget: the attempts
/// spent show up under `retry.attempts` and the failure under
/// `recovery.outcome.exhausted`.
fn note_retry_exhausted(telemetry: &mut CampaignTelemetry<'_>, attempts: u32) {
    let Some(metrics) = telemetry.metrics.as_deref_mut() else { return };
    if attempts > 0 {
        metrics.add("retry.attempts", attempts as u64);
    }
    metrics.inc("recovery.outcome.exhausted");
}

/// FNV-1a over `bytes`: a small, stable, dependency-free 64-bit hash for the
/// campaign fingerprint (collision resistance against *accidental* edits is
/// all a checkpoint needs; manifests are not an attack surface).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Executes one run, converting a scenario panic (e.g. an invalid parameter
/// value that only surfaces inside the family's adapter) into an `Err`
/// naming the offending spec, so a mid-campaign failure reaches the caller
/// as `Campaign::run`'s error instead of a cross-thread panic.
fn run_one(scenario: &dyn Scenario, spec: &ScenarioSpec) -> Result<RunRecord, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario.run(spec))).map_err(
        |payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!(
                "scenario {:?} failed for params [{}] seed {}: {message}",
                spec.name,
                spec.params_label(),
                spec.seed
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;
    use crate::scenario::Scenario;
    use std::sync::Arc;

    /// A trivial deterministic scenario: metrics are pure functions of the
    /// spec, so campaign determinism failures can only come from the runner.
    struct Echo;

    impl Scenario for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(&self, spec: &ScenarioSpec) -> RunRecord {
            let mut record = RunRecord::new();
            record.set("seed_lo", (spec.seed % 1_000) as f64);
            record.set("x", spec.f64_or("x", 0.0) * 2.0);
            record
        }
    }

    fn echo_registry() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Arc::new(Echo));
        registry
    }

    /// Runs the chunk window `chunks` of `campaign` and returns the records
    /// its sink received, with their global run indices.
    fn run_window(
        campaign: &Campaign,
        registry: &ScenarioRegistry,
        chunks: Range<usize>,
    ) -> Result<(Vec<(u64, RunRecord)>, RunnerStats), String> {
        let mut records = Vec::new();
        let mut sink = |meta: &RunMeta<'_>, record: &RunRecord| {
            records.push((meta.run_index, record.clone()));
        };
        let (outcome, stats) = campaign.session(registry).chunks(chunks).sink(&mut sink).run()?;
        assert_eq!(outcome, CampaignOutcome::Window);
        Ok((records, stats))
    }

    #[test]
    fn derive_run_seed_is_pure_and_spread_out() {
        assert_eq!(derive_run_seed(1, 2, 3), derive_run_seed(1, 2, 3));
        let mut seen = std::collections::BTreeSet::new();
        for point in 0..50u64 {
            for rep in 0..50u64 {
                seen.insert(derive_run_seed(42, point, rep));
            }
        }
        assert_eq!(seen.len(), 2_500, "no collisions across a 50×50 sweep");
        assert_ne!(
            derive_run_seed(1, 0, 1),
            derive_run_seed(1, 1, 0),
            "coordinates are not interchangeable"
        );
    }

    #[test]
    fn work_list_expansion_counts() {
        let campaign = Campaign::new("c", 1)
            .entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [1, 2, 3]))
                    .replications(4),
            )
            .entry(CampaignEntry::new("echo").replications(2));
        assert_eq!(campaign.run_count(), 14);
        let report = campaign.with_threads(1).run(&echo_registry()).unwrap();
        assert_eq!(report.total_runs, 14);
        assert_eq!(report.points.len(), 4, "3 grid points + 1 empty point");
        assert_eq!(report.points[0].runs, 4);
        assert_eq!(report.points[3].runs, 2);
    }

    #[test]
    fn single_and_multi_thread_reports_are_bit_identical() {
        let build = || {
            Campaign::new("det", 2_026).entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [0.5, 1.5, 2.5]))
                    .replications(16),
            )
        };
        let one = build().with_threads(1).run(&echo_registry()).unwrap();
        let many = build().with_threads(8).run(&echo_registry()).unwrap();
        assert_eq!(one, many);
        assert_eq!(one.to_json(), many.to_json());
    }

    #[test]
    fn small_chunks_keep_reports_thread_count_invariant() {
        // Chunk boundaries cut through points and entries; every worker
        // count must still reduce identically.
        let build = || {
            Campaign::new("chunky", 99)
                .with_chunk_size(3)
                .entry(
                    CampaignEntry::new("echo")
                        .grid(ParamGrid::new().axis("x", [1.0, 2.0]))
                        .replications(7),
                )
                .entry(CampaignEntry::new("echo").replications(5))
        };
        let one = build().with_threads(1).run(&echo_registry()).unwrap();
        for threads in [2, 3, 8] {
            let many = build().with_threads(threads).run(&echo_registry()).unwrap();
            assert_eq!(one, many, "threads = {threads}");
        }
        assert_eq!(one.total_runs, 19);
    }

    #[test]
    fn an_aborted_chunk_reports_itself_incomplete() {
        let campaign = Campaign::new("abort", 3)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(8));
        let points = campaign.expand_points();
        let families = campaign.resolve_families(&echo_registry(), &points).unwrap();
        let work = ChunkWork {
            campaign: &campaign,
            points: &points,
            families: &families,
            capture: true,
            tracing: false,
            faults: None,
        };
        let clear = AtomicBool::new(false);
        let output = work.run(0, 0, &clear).unwrap();
        assert!(output.completed);
        assert_eq!(output.records.len(), 4);
        assert_eq!(output.runs, 4);
        // With the abort flag raised, the chunk covers only a prefix (here:
        // nothing) and must say so — the collector relies on this to never
        // merge or checkpoint a hole.
        let raised = AtomicBool::new(true);
        let output = work.run(0, 0, &raised).unwrap();
        assert!(!output.completed, "an aborted chunk must flag itself incomplete");
        assert!(output.records.is_empty(), "no run executes after the abort flag");
        assert_eq!(output.runs, 0);
    }

    #[test]
    fn sink_receives_every_run_in_canonical_order() {
        for threads in [1, 4] {
            let mut seen: Vec<(u64, u64, f64)> = Vec::new();
            let mut sink = |meta: &RunMeta<'_>, record: &RunRecord| {
                seen.push((meta.run_index, meta.seed, record.get("x").unwrap()));
            };
            let campaign =
                Campaign::new("stream", 5).with_threads(threads).with_chunk_size(4).entry(
                    CampaignEntry::new("echo")
                        .grid(ParamGrid::new().axis("x", [1.0, 2.0, 3.0]))
                        .replications(6),
                );
            let registry = echo_registry();
            let (outcome, _) = campaign.session(&registry).sink(&mut sink).run().unwrap();
            let report = outcome.into_report().unwrap();
            assert_eq!(report.total_runs, 18);
            assert_eq!(seen.len(), 18, "threads = {threads}");
            let indices: Vec<u64> = seen.iter().map(|(i, _, _)| *i).collect();
            assert_eq!(
                indices,
                (0..18).collect::<Vec<_>>(),
                "canonical order, threads = {threads}"
            );
            assert_eq!(seen[0].1, derive_run_seed(5, 0, 0), "seeds match canonical coordinates");
            assert_eq!(seen[17].2, 6.0, "x=3 doubles to 6");
        }
    }

    #[test]
    fn instrumented_run_reports_bounded_residency() {
        let campaign = Campaign::new("bounded", 1)
            .with_chunk_size(8)
            .entry(CampaignEntry::new("echo").replications(100));
        let mut count = 0u64;
        let mut sink = |_: &RunMeta<'_>, _: &RunRecord| count += 1;
        let campaign = campaign.with_threads(4);
        let registry = echo_registry();
        let (outcome, stats) = campaign.session(&registry).sink(&mut sink).run().unwrap();
        let report = outcome.into_report().unwrap();
        assert_eq!(report.total_runs, 100);
        assert_eq!(count, 100);
        assert_eq!(stats.chunks, 13);
        let window = stats.workers * 2;
        assert!(
            stats.peak_resident_records <= (window * 8) as u64,
            "resident {} must stay within window × chunk ({})",
            stats.peak_resident_records,
            window * 8
        );
    }

    #[test]
    fn reduce_records_matches_streaming_run() {
        let campaign = Campaign::new("replay", 7).with_chunk_size(5).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.25, 0.75]))
                .replications(13),
        );
        let registry = echo_registry();
        let mut records = Vec::new();
        let mut sink = |_: &RunMeta<'_>, record: &RunRecord| records.push(record.clone());
        let parallel = campaign.clone().with_threads(4);
        let (outcome, _) = parallel.session(&registry).sink(&mut sink).run().unwrap();
        let streamed = outcome.into_report().unwrap();
        let replayed = campaign.reduce_records(&registry, &records).unwrap();
        assert_eq!(streamed, replayed);
        let err = campaign.reduce_records(&registry, &records[1..]).unwrap_err();
        assert!(err.contains("26 runs"), "record-count mismatch is reported: {err}");
    }

    /// A scenario that panics on demand (an invalid-parameter stand-in).
    struct Fussy;

    impl Scenario for Fussy {
        fn name(&self) -> &str {
            "fussy"
        }
        fn run(&self, spec: &ScenarioSpec) -> RunRecord {
            if spec.bool_or("explode", false) {
                panic!("unknown mode \"los3\"");
            }
            RunRecord::new()
        }
    }

    #[test]
    fn mid_campaign_run_panic_becomes_an_error() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Arc::new(Fussy));
        for threads in [1, 4] {
            let err = Campaign::new("c", 1)
                .with_threads(threads)
                .with_chunk_size(2)
                .entry(
                    CampaignEntry::new("fussy")
                        .grid(ParamGrid::new().axis("explode", [false, true]))
                        .replications(3),
                )
                .run(&registry)
                .unwrap_err();
            assert!(err.contains("explode=true"), "error names the offending spec: {err}");
            assert!(err.contains("los3"), "error carries the panic message: {err}");
        }
    }

    #[test]
    fn unknown_scenario_is_rejected_before_running() {
        let campaign = Campaign::new("c", 1).entry(CampaignEntry::new("no-such-family"));
        let err = campaign.run(&echo_registry()).unwrap_err();
        assert!(err.contains("no-such-family"), "{err}");
        assert!(err.contains("echo"), "error lists known families: {err}");
    }

    #[test]
    fn fingerprint_tracks_everything_that_shapes_the_reduction() {
        let base = || {
            Campaign::new("fp", 7).with_chunk_size(8).entry(
                CampaignEntry::new("echo").grid(ParamGrid::new().axis("x", [1, 2])).replications(3),
            )
        };
        let fp = base().fingerprint();
        assert_eq!(fp, base().fingerprint(), "stable across rebuilds");
        assert_eq!(fp, base().with_threads(32).fingerprint(), "worker count is excluded");
        for (label, other) in [
            ("name", Campaign::new("fp2", 7).with_chunk_size(8)),
            ("seed", Campaign::new("fp", 8).with_chunk_size(8)),
            ("chunk size", Campaign::new("fp", 7).with_chunk_size(9)),
        ] {
            let other = other.entry(
                CampaignEntry::new("echo").grid(ParamGrid::new().axis("x", [1, 2])).replications(3),
            );
            assert_ne!(fp, other.fingerprint(), "{label} must change the fingerprint");
        }
        let int_axis = base().fingerprint();
        let float_axis = Campaign::new("fp", 7)
            .with_chunk_size(8)
            .entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [1.0, 2.0]))
                    .replications(3),
            )
            .fingerprint();
        assert_ne!(int_axis, float_axis, "Int(1) and Float(1.0) hash apart");
    }

    #[test]
    fn campaign_spec_json_round_trips_the_builder() {
        let from_json = Campaign::from_json_str(
            r#"{
                "name": "spec-demo",
                "seed": 2026,
                "chunk_size": 16,
                "threads": 2,
                "entries": [
                    {"scenario": "echo", "replications": 5,
                     "grid": {"x": [0.5, 1.5], "mode": ["a", "b"]}},
                    {"scenario": "echo", "duration_secs": 45}
                ]
            }"#,
        )
        .expect("well-formed spec");
        let builder = Campaign::new("spec-demo", 2026)
            .with_chunk_size(16)
            .with_threads(2)
            .entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [0.5, 1.5]).axis("mode", ["a", "b"]))
                    .replications(5),
            )
            .entry(CampaignEntry::new("echo").duration_secs(45));
        assert_eq!(from_json.run_count(), builder.run_count());
        assert_eq!(from_json.fingerprint(), builder.fingerprint());
        // And the two produce bit-identical reports.
        let a = from_json.run(&echo_registry()).unwrap();
        let b = builder.run(&echo_registry()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_spec_json_rejects_typos_and_bad_shapes() {
        for (doc, needle) in [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{"seed": 1, "entries": []}"#, "\"name\""),
            (r#"{"name": "x", "entries": []}"#, "\"seed\""),
            (r#"{"name": "x", "seed": 1}"#, "\"entries\""),
            (r#"{"name": "x", "seed": 1, "entries": []}"#, "at least one entry"),
            (r#"{"name": "x", "seed": 1, "chunk_size": 0, "entries": [1]}"#, "chunk_size"),
            (
                r#"{"name": "x", "seed": 1, "entires": [], "entries": [1]}"#,
                "unknown campaign field",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries": [{"scenario": "e", "reps": 2}]}"#,
                "unknown entry field",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries": [{"scenario": "e", "replications": 0}]}"#,
                "positive integer",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries":
                   [{"scenario": "e", "duration_secs": 1, "duration_micros": 2}]}"#,
                "not both",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries":
                   [{"scenario": "e", "duration_secs": 18446744073709551615}]}"#,
                "whole number of seconds",
            ),
        ] {
            let err = Campaign::from_json_str(doc).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn json_durations_past_the_microsecond_range_are_refused() {
        let doc = |secs: u64| {
            format!(
                r#"{{"name": "x", "seed": 1,
                     "entries": [{{"scenario": "e", "duration_secs": {secs}}}]}}"#
            )
        };
        let longest = Campaign::from_json_str(&doc(18_446_744_073_709)).unwrap();
        let duration = longest.entries()[0].duration;
        assert_eq!(duration, Some(SimDuration::from_secs(18_446_744_073_709)));
        let err = Campaign::from_json_str(&doc(18_446_744_073_710)).unwrap_err();
        assert!(err.ends_with(crate::spec::DURATION_SECS_RANGE), "{err}");
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically_at_every_boundary() {
        let dir = std::env::temp_dir().join(format!("karyon-campaign-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let build = || {
            Campaign::new("ckpt", 11).with_chunk_size(3).entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [0.25, 0.75, 1.25]))
                    .replications(7),
            )
        };
        let registry = echo_registry();
        let uninterrupted = build().with_threads(1).run(&registry).unwrap();
        let chunks = build().canonical_chunks();
        assert_eq!(chunks, 7, "21 runs / chunk 3");
        for boundary in 1..chunks {
            let path = dir.join(format!("boundary-{boundary}.json"));
            let first = Checkpointer::new(&path).max_chunks_per_session(boundary);
            let campaign = build().with_threads(2);
            let (outcome, stats) = campaign.session(&registry).checkpointer(&first).run().unwrap();
            assert_eq!(
                outcome,
                CampaignOutcome::Interrupted {
                    chunks_done: boundary,
                    runs_done: (boundary as u64 * 3).min(21),
                },
                "boundary {boundary}"
            );
            assert_eq!(stats.chunks, boundary as u64);
            let second = Checkpointer::new(&path);
            let campaign = build().with_threads(4);
            let session = campaign.session(&registry).checkpointer(&second);
            let (outcome, stats) = session.resume(second.load().unwrap()).run().unwrap();
            assert_eq!(stats.chunks, (chunks - boundary) as u64);
            let resumed = outcome.into_report().expect("completed");
            assert_eq!(resumed, uninterrupted, "boundary {boundary}");
            assert_eq!(resumed.to_json(), uninterrupted.to_json());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A session keeps the text of closed points between checkpoint writes,
    /// so the manifest after `k` chunks must not depend on the writes before
    /// it: every chunk, once, or every chunk again after a resume.
    #[test]
    fn manifests_are_byte_identical_however_often_they_were_written() {
        let dir =
            std::env::temp_dir().join(format!("karyon-campaign-ckpt3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Chunks of 3 over points of 5 runs: boundaries fall inside points,
        // and one chunk can close a point and open the next.
        let campaign = Campaign::new("cache", 5).with_chunk_size(3).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.5, 1.5, 2.5, 3.5]))
                .replications(5),
        );
        let registry = echo_registry();
        let chunks = campaign.canonical_chunks();
        assert_eq!(chunks, 7, "20 runs / chunk 3");
        for k in 1..=chunks {
            let every = dir.join(format!("every-{k}.json"));
            let ckpt = Checkpointer::new(&every).max_chunks_per_session(k);
            campaign.session(&registry).checkpointer(&ckpt).run().unwrap();
            let once = dir.join(format!("once-{k}.json"));
            let ckpt = Checkpointer::new(&once).every_chunks(k).max_chunks_per_session(k);
            campaign.session(&registry).checkpointer(&ckpt).run().unwrap();
            let resumed = dir.join(format!("resumed-{k}.json"));
            let ckpt = Checkpointer::new(&resumed).max_chunks_per_session(1);
            campaign.session(&registry).checkpointer(&ckpt).run().unwrap();
            if k > 1 {
                let ckpt = Checkpointer::new(&resumed).max_chunks_per_session(k - 1);
                let session = campaign.session(&registry).checkpointer(&ckpt);
                session.resume(ckpt.load().unwrap()).run().unwrap();
            }
            let manifest = std::fs::read(&every).unwrap();
            assert_eq!(manifest, std::fs::read(&once).unwrap(), "after {k} chunks");
            assert_eq!(manifest, std::fs::read(&resumed).unwrap(), "after {k} chunks");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_fingerprint_and_rereads_finished_manifests() {
        let dir =
            std::env::temp_dir().join(format!("karyon-campaign-ckpt2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("done.json");
        let registry = echo_registry();
        let campaign = Campaign::new("done", 3)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(10));
        let ckpt = Checkpointer::new(&path).every_chunks(2);
        let (outcome, _) = campaign.session(&registry).checkpointer(&ckpt).run().unwrap();
        let report = outcome.into_report().expect("ran to completion");
        // Resuming a finished manifest re-emits the report without running.
        let manifest = ckpt.load().unwrap();
        let session = campaign.session(&registry).checkpointer(&ckpt);
        let (again, stats) = session.resume(manifest.clone()).run().unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(again.into_report().unwrap(), report);
        // A different campaign definition must be refused.
        let other = Campaign::new("done", 4)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(10));
        let ckpt = Checkpointer::new(&path);
        let err = other.session(&registry).checkpointer(&ckpt).resume(manifest).run().unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = CampaignEntry::new("echo").replications(0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn zero_chunk_size_rejected() {
        let _ = Campaign::new("c", 1).with_chunk_size(0);
    }

    // ---- ChunkGate window edge cases --------------------------------------
    //
    // The gate is the primitive both the parallel runner and the shard
    // windows lean on; these pin the degenerate windows a shard plan can
    // legally produce.

    #[test]
    fn gate_claim_on_an_empty_window_returns_none_immediately() {
        // start == end: a shard slice covering zero chunks must not block.
        let gate = ChunkGate::new(7);
        let abort = AtomicBool::new(false);
        assert_eq!(gate.claim(7, 4, &abort), None);
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn gate_hands_out_a_single_chunk_window_exactly_once() {
        // A single-chunk shard: one claim succeeds, the next returns None.
        let gate = ChunkGate::new(3);
        let abort = AtomicBool::new(false);
        assert_eq!(gate.claim(4, 8, &abort), Some(3));
        assert_eq!(gate.claim(4, 8, &abort), None);
        assert_eq!(gate.occupancy(), 1);
        gate.advance();
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn gate_respects_the_abort_flag_and_the_window_bound() {
        let gate = ChunkGate::new(0);
        let abort = AtomicBool::new(false);
        // Window of 2: two claims fill it; a worker thread blocks on the
        // third until the collector advances the merge frontier.
        assert_eq!(gate.claim(10, 2, &abort), Some(0));
        assert_eq!(gate.claim(10, 2, &abort), Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| gate.claim(10, 2, &abort));
            std::thread::sleep(Duration::from_millis(10));
            gate.advance();
            assert_eq!(handle.join().unwrap(), Some(2));
        });
        // Aborting makes every further claim return None, even mid-window.
        abort.store(true, Ordering::Relaxed);
        assert_eq!(gate.claim(10, 2, &abort), None);
    }

    #[test]
    fn shard_windows_cover_their_chunks_and_reject_bad_bounds() {
        let registry = echo_registry();
        let campaign = Campaign::new("window", 5)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(22)); // 6 chunks, ragged tail
        let chunks = campaign.canonical_chunks();
        assert_eq!(chunks, 6);

        // An empty window executes nothing.
        let (records, stats) = run_window(&campaign, &registry, 2..2).unwrap();
        assert!(records.is_empty());
        assert_eq!(stats.chunks, 0);

        // A single-chunk window runs exactly the chunk's runs, with their
        // global indices.
        let (records, _) = run_window(&campaign, &registry, 1..2).unwrap();
        let runs: Vec<u64> = records.iter().map(|(run, _)| *run).collect();
        assert_eq!(runs, [4, 5, 6, 7]);

        // The ragged final chunk holds only the tail runs.
        let (records, _) = run_window(&campaign, &registry, chunks - 1..chunks).unwrap();
        assert_eq!(records.len() as u64, 22 - 4 * (chunks as u64 - 1));

        // Bounds outside the canonical range are refused up front.
        // (A struct literal: a reversed `3..2` literal reads like a typo.)
        let reversed = Range { start: 3, end: 2 };
        assert!(run_window(&campaign, &registry, reversed).unwrap_err().contains("shard window"));
        assert!(run_window(&campaign, &registry, 0..chunks + 1)
            .unwrap_err()
            .contains("shard window"));
    }

    #[test]
    fn window_streams_replay_to_the_single_session_report_for_any_split() {
        let registry = echo_registry();
        let campaign = Campaign::new("fold", 19)
            .with_chunk_size(2)
            .entry(CampaignEntry::new("echo").replications(13)); // 7 chunks
        let chunks = campaign.canonical_chunks();
        let reference = campaign.run(&registry).unwrap();
        for boundary in 0..=chunks {
            let (mut records, _) = run_window(&campaign, &registry, 0..boundary).unwrap();
            let (tail, _) =
                run_window(&campaign.clone().with_threads(2), &registry, boundary..chunks).unwrap();
            records.extend(tail);
            let records: Vec<RunRecord> = records.into_iter().map(|(_, record)| record).collect();
            let merged = campaign.reduce_records(&registry, &records).unwrap();
            assert_eq!(merged, reference, "boundary {boundary}");
            assert_eq!(merged.to_json(), reference.to_json(), "boundary {boundary}");
        }
    }

    #[test]
    fn run_counts_that_overflow_u64_are_refused_before_any_run() {
        let wrap = r#"{"name": "wrap", "seed": 1, "entries": [{"scenario": "lane-change",
            "replications": 9223372036854775808, "duration_secs": 1,
            "grid": {"coordination": ["agreement", "none"]}}]}"#;
        let err = Campaign::from_json_str(wrap).unwrap_err();
        assert!(err.contains("overflows"), "{err}");

        // Two entries that each fit but whose sum does not.
        let entry = || CampaignEntry::new("fussy").replications(u64::MAX / 2 + 1);
        let campaign = Campaign::new("sum", 1).entry(entry()).entry(entry());
        assert_eq!(campaign.run_count(), u64::MAX, "the count saturates");
        let (registry, _, _) = never_run("overflow");
        let error = refusal(campaign.session(&registry).run());
        assert!(error.contains("overflows"), "{error}");

        // A grid whose point count times the replications overflows.
        let axes = (0..64)
            .fold(ParamGrid::new(), |grid, axis| grid.axis(&format!("a{axis}"), [false, true]));
        let campaign = Campaign::new("grid", 1).entry(CampaignEntry::new("fussy").grid(axes));
        assert_eq!(campaign.run_count(), u64::MAX);
        assert!(refusal(campaign.session(&registry).run()).contains("overflows"));
    }

    // ---- Session settings the runner cannot honour --------------------------
    //
    // Each conflicting combination is refused before any run executes: every
    // run of the campaign below panics, so an executed run would surface as
    // its panic message instead of the refusal.

    /// A campaign of [`Fussy`] runs that all panic, and a checkpointer whose
    /// manifest does not exist.
    fn never_run(tag: &str) -> (ScenarioRegistry, Campaign, Checkpointer) {
        let mut registry = ScenarioRegistry::new();
        registry.register(Arc::new(Fussy));
        let campaign = Campaign::new("refused", 1).with_chunk_size(2).entry(
            CampaignEntry::new("fussy")
                .grid(ParamGrid::new().axis("explode", [true]))
                .replications(6),
        );
        let path =
            std::env::temp_dir().join(format!("karyon-refused-{tag}-{}.json", std::process::id()));
        (registry, campaign, Checkpointer::new(path))
    }

    /// Unwraps a refusal and checks that no run executed before it.
    fn refusal(result: Result<(CampaignOutcome, RunnerStats), String>) -> String {
        let error = result.unwrap_err();
        assert!(!error.contains("los3"), "a run executed: {error}");
        error
    }

    /// The finished manifest of a small echo campaign, written to `tag`'s
    /// path and deleted once loaded, with the campaign and its report.
    fn finished_manifest(
        tag: &str,
    ) -> (Campaign, CampaignReport, CheckpointManifest, std::path::PathBuf) {
        let campaign = Campaign::new("finished", 8)
            .with_chunk_size(3)
            .entry(CampaignEntry::new("echo").replications(7));
        let path =
            std::env::temp_dir().join(format!("karyon-finished-{tag}-{}.json", std::process::id()));
        let ckpt = Checkpointer::new(&path);
        let (outcome, _) = campaign.session(&echo_registry()).checkpointer(&ckpt).run().unwrap();
        let manifest = ckpt.load().unwrap();
        std::fs::remove_file(&path).unwrap();
        (campaign, outcome.into_report().unwrap(), manifest, path)
    }

    #[test]
    fn a_finished_manifest_resumed_without_a_checkpointer_writes_nothing() {
        let (campaign, report, manifest, path) = finished_manifest("no-checkpointer");
        let (outcome, stats) = campaign.session(&echo_registry()).resume(manifest).run().unwrap();
        assert_eq!(stats.chunks, 0, "no run executes");
        assert_eq!(outcome.into_report().unwrap().to_json(), report.to_json());
        assert!(!path.exists(), "a session without a checkpointer writes no manifest");
    }

    #[test]
    fn a_chunk_window_with_a_checkpointer_is_refused() {
        let (registry, campaign, ckpt) = never_run("window");
        let error = refusal(campaign.session(&registry).chunks(0..1).checkpointer(&ckpt).run());
        assert!(error.contains("chunk window"), "{error}");
        assert!(!ckpt.path().exists(), "a refused session writes no manifest");
    }

    #[test]
    fn a_resumed_chunk_window_is_refused() {
        let (registry, campaign, ckpt) = never_run("resumed-window");
        let (_, _, manifest, _) = finished_manifest("resumed-window");
        let session = campaign.session(&registry).chunks(0..1).resume(manifest.clone());
        assert!(refusal(session.run()).contains("chunk window"));
        let session = campaign.session(&registry).chunks(0..1).checkpointer(&ckpt);
        let error = refusal(session.resume(manifest).run());
        assert!(error.contains("chunk window"), "{error}");
        assert!(!ckpt.path().exists(), "a refused session writes no manifest");
    }

    #[test]
    fn a_chunk_window_outside_the_campaign_is_refused() {
        let (registry, campaign, _) = never_run("bounds");
        let error = refusal(campaign.session(&registry).chunks(2..4).run());
        assert!(error.contains("shard window [2, 4)"), "{error}");
        let reversed = Range { start: 2, end: 1 };
        let error = refusal(campaign.session(&registry).chunks(reversed).run());
        assert!(error.contains("shard window [2, 1)"), "{error}");
    }

    #[test]
    fn resuming_a_foreign_manifest_is_refused() {
        let (registry, campaign, ckpt) = never_run("foreign");
        let error = ckpt.load().unwrap_err();
        assert!(error.contains("cannot read checkpoint manifest"), "{error}");
        let (_, _, manifest, _) = finished_manifest("foreign");
        let error = refusal(campaign.session(&registry).checkpointer(&ckpt).resume(manifest).run());
        assert!(error.contains("fingerprint"), "{error}");
        assert!(!ckpt.path().exists(), "a refused session writes no manifest");
    }
}
