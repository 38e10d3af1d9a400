//! The traced run: timing wrappers around each layer's public entry points,
//! spans kept in memory, and the per-layer numbers derived from them.
//!
//! Layers and the spans that time them:
//! - family: `Scenario::run`, through a wrapper registered in place of each
//!   builtin family (it delegates every trait method);
//! - sink: `RunSink::on_run` and `RunSink::flush` of the JSONL writer;
//! - trace: `TraceSink::on_run_records` and `TraceSink::flush` of the trace
//!   writer;
//! - checkpoint: from the end of the trace flush that precedes every manifest
//!   to the next family run (or the session's end), i.e. manifest render,
//!   write and fsync.  On the one-worker path nothing else runs there; the
//!   last manifest's span also covers the final report build.
//!
//! The runner's own time is what no layer span covers.  Work counts come
//! from each run's record and from the `engine.run` span the runner collects
//! when a trace sink is attached, which the traced run always does.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use karyon_scenario::{
    ParamGrid, RunMeta, RunRecord, RunSink, Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon_telemetry::{AttrValue, RunCoords, TraceRecord, TraceSink};

use crate::stats::Dist;

/// Families whose per-run time the traced run reports, over all workloads.
pub const FAMILIES: [&str; 14] = [
    "inaccessibility",
    "tdma",
    "pulse-sync",
    "kernel-latency",
    "middleware-overload",
    "middleware-qos",
    "platoon",
    "platoon-fault",
    "avionics-rpv",
    "cooperation",
    "intersection",
    "lane-change",
    "sensor-validity",
    "net-transport",
];

/// Engine-driven families among them, whose event counts it reports.
pub const ENGINE_FAMILIES: [&str; 5] =
    ["tdma", "pulse-sync", "middleware-qos", "middleware-overload", "net-transport"];

/// A timed layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Family(usize),
    Sink,
    SinkFlush,
    Trace,
    TraceFlush,
    Checkpoint,
}

/// One span, in nanoseconds since the recorder's epoch.  Every span's parent
/// is the session span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub run: Option<u64>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Work one run did, as its record and trace report it.
#[derive(Debug, Clone, Copy, Default)]
struct RunWork {
    events: u64,
    trace_records: u64,
    /// MAC node-slots (`inaccessibility`: nodes × stepped slots).
    node_slots: f64,
    /// TDMA nodes: its node-slots are slot events × nodes.
    nodes: u64,
    rule_evals: f64,
    published: f64,
    delivered: f64,
}

#[derive(Default)]
struct State {
    session: (u64, u64),
    spans: Vec<Span>,
    work: Vec<RunWork>,
    /// Set when the runner starts rendering a manifest.
    checkpoint_from: Option<u64>,
    manifest_bytes: Vec<u64>,
}

/// Collects the spans and counts of traced sessions.
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    run_index: HashMap<u64, u64>,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder for the families `names` and a campaign whose runs'
    /// derived seeds map to run indices through `run_index`.
    pub fn new(names: Vec<String>, run_index: HashMap<u64, u64>) -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            names,
            run_index,
            state: Mutex::new(State::default()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced layer panicked while recording")
    }

    pub fn begin_session(&self) {
        let now = self.now();
        let mut state = self.state();
        let runs = self.run_index.len();
        *state =
            State { session: (now, now), work: vec![RunWork::default(); runs], ..State::default() };
    }

    pub fn end_session(&self) {
        let now = self.now();
        let mut state = self.state();
        if let Some(start) = state.checkpoint_from.take() {
            state.spans.push(Span { layer: Layer::Checkpoint, start, end: now, run: None });
        }
        state.session.1 = now;
    }

    fn push(&self, layer: Layer, start: u64, end: u64, run: Option<u64>) {
        self.state().spans.push(Span { layer, start, end, run });
    }

    fn family_run(&self, family: usize, start: u64, end: u64, seed: u64, work: RunWork) {
        let run = self.run_index.get(&seed).copied();
        let mut state = self.state();
        if let Some(from) = state.checkpoint_from.take() {
            state.spans.push(Span { layer: Layer::Checkpoint, start: from, end: start, run: None });
        }
        state.spans.push(Span { layer: Layer::Family(family), start, end, run });
        if let Some(slot) = run.and_then(|r| state.work.get_mut(r as usize)) {
            let (events, trace_records) = (slot.events, slot.trace_records);
            *slot = RunWork { events, trace_records, ..work };
        }
    }

    fn trace_work(&self, run: u64, events: u64, records: u64) {
        if let Some(slot) = self.state().work.get_mut(run as usize) {
            slot.events = events;
            slot.trace_records = records;
        }
    }
}

/// Wraps the recorder's families of `registry` in timing wrappers.
pub fn wrap_registry(registry: &ScenarioRegistry, recorder: &Arc<Recorder>) -> ScenarioRegistry {
    let mut wrapped = ScenarioRegistry::new();
    for (index, name) in recorder.names.iter().enumerate() {
        if let Some(inner) = registry.get(name) {
            let recorder = recorder.clone();
            wrapped.register(Arc::new(TimedFamily { inner: inner.clone(), index, recorder }));
        }
    }
    wrapped
}

struct TimedFamily {
    inner: Arc<dyn Scenario>,
    index: usize,
    recorder: Arc<Recorder>,
}

impl Scenario for TimedFamily {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let start = self.recorder.now();
        let record = self.inner.run(spec);
        let end = self.recorder.now();
        let work = family_work(self.inner.name(), spec, &record);
        self.recorder.family_run(self.index, start, end, spec.seed, work);
        record
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        self.inner.metric_range(metric)
    }

    fn param_domain(&self) -> ParamGrid {
        self.inner.param_domain()
    }

    fn engine_driven(&self) -> bool {
        self.inner.engine_driven()
    }
}

/// The layer work a run's record reports.  `inaccessibility` steps every
/// node once per 1 ms slot over whole 50-slot traffic rounds.
fn family_work(family: &str, spec: &ScenarioSpec, record: &RunRecord) -> RunWork {
    let get = |metric: &str| record.get(metric).unwrap_or(0.0);
    let mut work = RunWork::default();
    match family {
        "inaccessibility" => {
            let slots = spec.duration.as_millis().max(100) / 50 * 50;
            work.node_slots = (spec.u64_or("nodes", 6).max(2) * slots) as f64;
        }
        "tdma" => work.nodes = spec.u64_or("nodes", 8).max(2),
        "kernel-latency" => work.rule_evals = get("evaluations") * get("rule_conditions"),
        "middleware-qos" => {
            work.published = get("published");
            work.delivered = (get("delivery_ratio") * work.published).round();
        }
        "middleware-overload" => {
            work.published = get("published");
            work.delivered = ["realtime", "batched", "background"]
                .iter()
                .map(|class| get(&format!("{class}_delivered")))
                .sum();
        }
        _ => {}
    }
    work
}

/// Times a run sink.
pub struct TimedSink<'a> {
    inner: &'a mut dyn RunSink,
    recorder: &'a Recorder,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn RunSink, recorder: &'a Recorder) -> Self {
        TimedSink { inner, recorder }
    }
}

impl RunSink for TimedSink<'_> {
    fn on_run(&mut self, meta: &RunMeta<'_>, record: &RunRecord) {
        let start = self.recorder.now();
        self.inner.on_run(meta, record);
        self.recorder.push(Layer::Sink, start, self.recorder.now(), Some(meta.run_index));
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = self.recorder.now();
        let result = self.inner.flush();
        self.recorder.push(Layer::SinkFlush, start, self.recorder.now(), None);
        result
    }
}

/// Times a trace sink (when the session writes one) and counts each run's
/// written trace records and engine events.  Its flush is the last step
/// before the runner renders a manifest, so it opens the checkpoint span.
pub struct TimedTrace<'a> {
    inner: Option<&'a mut dyn TraceSink>,
    recorder: &'a Recorder,
    manifest: Option<PathBuf>,
}

impl<'a> TimedTrace<'a> {
    pub fn new(
        inner: Option<&'a mut dyn TraceSink>,
        recorder: &'a Recorder,
        manifest: Option<PathBuf>,
    ) -> Self {
        TimedTrace { inner, recorder, manifest }
    }
}

impl TraceSink for TimedTrace<'_> {
    fn on_run_records(&mut self, coords: &RunCoords, records: &[TraceRecord]) {
        let mut written = 0;
        if let Some(inner) = self.inner.as_deref_mut() {
            let start = self.recorder.now();
            inner.on_run_records(coords, records);
            self.recorder.push(Layer::Trace, start, self.recorder.now(), Some(coords.run_index));
            written = records.len() as u64;
        }
        let events = records
            .iter()
            .filter_map(|record| match record {
                TraceRecord::Span(span) if span.name == "engine.run" => {
                    span.attrs.iter().find_map(|(key, value)| match value {
                        AttrValue::U64(n) if key == "processed" => Some(*n),
                        _ => None,
                    })
                }
                _ => None,
            })
            .sum();
        self.recorder.trace_work(coords.run_index, events, written);
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = self.recorder.now();
        let result = self.inner.as_deref_mut().map_or(Ok(()), |inner| inner.flush());
        let end = self.recorder.now();
        // The manifest on disk is the previous checkpoint's; size it outside
        // every span.
        let previous = self.manifest.as_ref().and_then(|m| std::fs::metadata(m).ok());
        let mut state = self.recorder.state();
        state.spans.push(Span { layer: Layer::TraceFlush, start, end, run: None });
        if let Some(meta) = previous {
            state.manifest_bytes.push(meta.len());
        }
        state.checkpoint_from = Some(self.recorder.now());
        result
    }
}

/// Per-family totals of the traced sessions.
#[derive(Default)]
struct FamilyProfile {
    runs: u64,
    seconds: f64,
    us_per_run: Dist,
    work: RunWork,
}

/// The per-layer numbers of a workload's traced sessions, pooled.
#[derive(Default)]
pub struct Profile {
    sessions: u64,
    runs: u64,
    session_s: f64,
    /// Worker-seconds: workers × session wall time.
    capacity_s: f64,
    /// Worker-seconds lost to idle workers (two-worker sessions only).
    idle_s: f64,
    busy_ratio: Dist,
    family: BTreeMap<String, FamilyProfile>,
    sink_s: f64,
    sink_us: Dist,
    sink_flush_ms: Dist,
    sink_bytes: u64,
    trace_s: f64,
    trace_us: Dist,
    trace_records: u64,
    trace_bytes: u64,
    checkpoint_s: f64,
    checkpoint_ms: Dist,
    manifest_bytes: Dist,
    chunk_ms: Dist,
    write_ms: Dist,
    peak_resident_records: u64,
    pub replay_parse_us: Dist,
    pub replay_reduce_us: Dist,
    pub replay_manifest_ms: Dist,
    pub untraced_rates: Dist,
    pub traced_rates: Dist,
    /// The last traced session's bounds and spans.
    last_session: (u64, u64),
    last_spans: Vec<Span>,
    names: Vec<String>,
}

/// What a traced session left besides its spans.
pub struct SessionFacts<'a> {
    pub workers: usize,
    pub runs: u64,
    pub peak_resident_records: u64,
    pub metrics: &'a karyon_telemetry::MetricsRegistry,
    pub sink_bytes: u64,
    pub trace_bytes: u64,
    /// Size of the session's final manifest, if it wrote one.
    pub final_manifest_bytes: Option<u64>,
}

impl Profile {
    /// Pools one traced session.
    pub fn absorb(&mut self, recorder: &Recorder, facts: SessionFacts<'_>) {
        let state = std::mem::take(&mut *recorder.state());
        let session_s = (state.session.1 - state.session.0) as f64 * 1e-9;
        let capacity = facts.workers as f64 * session_s;
        self.sessions += 1;
        self.runs += facts.runs;
        self.session_s += session_s;
        self.capacity_s += capacity;
        self.names = recorder.names.clone();

        let busy_s: f64 = (0..facts.workers)
            .filter_map(|w| facts.metrics.gauge(&format!("campaign.worker.{w}.busy_ms")))
            .sum::<f64>()
            * 1e-3;
        self.busy_ratio.push(busy_s / capacity);
        if facts.workers > 1 {
            self.idle_s += (capacity - busy_s).max(0.0);
        }
        for (timer, dist) in [
            ("campaign.chunk_ms", &mut self.chunk_ms),
            ("campaign.checkpoint_write_ms", &mut self.write_ms),
        ] {
            if let Some(hist) = facts.metrics.timer(timer) {
                // Every sample sits in a 1 µs bucket: the bucket midpoints
                // rebuild the distribution to that resolution.
                let state = hist.raw_state();
                let width = (state.hi - state.lo) / state.counts.len() as f64;
                let mids = state.counts.iter().enumerate().flat_map(|(i, &count)| {
                    std::iter::repeat_n(state.lo + (i as f64 + 0.5) * width, count as usize)
                });
                let below = std::iter::repeat_n(state.min, state.underflow as usize);
                let above = std::iter::repeat_n(state.max, state.overflow as usize);
                below.chain(mids).chain(above).for_each(|v| dist.push(v));
            }
        }
        self.peak_resident_records = self.peak_resident_records.max(facts.peak_resident_records);
        self.sink_bytes += facts.sink_bytes;
        self.trace_bytes += facts.trace_bytes;
        for bytes in state.manifest_bytes.iter().chain(&facts.final_manifest_bytes) {
            self.manifest_bytes.push(*bytes as f64);
        }

        for span in &state.spans {
            let secs = span.secs();
            match span.layer {
                Layer::Family(index) => {
                    let name = &recorder.names[index];
                    let family = self.family.entry(name.clone()).or_default();
                    family.runs += 1;
                    family.seconds += secs;
                    family.us_per_run.push(secs * 1e6);
                    if let Some(work) = span.run.and_then(|r| state.work.get(r as usize)) {
                        let total = &mut family.work;
                        total.events += work.events;
                        total.node_slots += work.node_slots + (work.events * work.nodes) as f64;
                        total.rule_evals += work.rule_evals;
                        total.published += work.published;
                        total.delivered += work.delivered;
                    }
                }
                Layer::Sink => {
                    self.sink_s += secs;
                    self.sink_us.push(secs * 1e6);
                }
                Layer::SinkFlush => {
                    self.sink_s += secs;
                    self.sink_flush_ms.push(secs * 1e3);
                }
                Layer::Trace => {
                    self.trace_s += secs;
                    self.trace_us.push(secs * 1e6);
                }
                Layer::TraceFlush => self.trace_s += secs,
                Layer::Checkpoint => {
                    self.checkpoint_s += secs;
                    self.checkpoint_ms.push(secs * 1e3);
                }
            }
        }
        self.trace_records += state.work.iter().map(|w| w.trace_records).sum::<u64>();
        self.last_session = state.session;
        self.last_spans = state.spans;
    }

    fn family_s(&self) -> f64 {
        self.family.values().map(|f| f.seconds).sum()
    }

    /// Worker-seconds no layer span covers: the runner's own time.
    fn runner_s(&self) -> f64 {
        self.capacity_s
            - self.family_s()
            - self.sink_s
            - self.trace_s
            - self.checkpoint_s
            - self.idle_s
    }

    /// The layer rows, in worker-seconds, that add up to the capacity.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("family", self.family_s()),
            ("sink", self.sink_s),
            ("trace", self.trace_s),
            ("checkpoint", self.checkpoint_s),
            ("idle", self.idle_s),
            ("runner", self.runner_s()),
        ]
    }

    /// True when the timed layers leave a non-negative residual, i.e. no two
    /// spans on one thread overlap.
    pub fn accounts(&self) -> bool {
        self.sessions > 0 && self.runner_s() >= -0.005 * self.capacity_s
    }

    /// Every per-layer metric with its unit: the `per_layer` list of
    /// `BENCHMARK.json`, in order.  Metrics of layers a workload does not
    /// exercise read 0.
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        let per_run = |x: f64| if self.runs == 0 { 0.0 } else { x / self.runs as f64 };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let family = |name: &str| self.family.get(name);
        let mut out: Vec<(String, &'static str, f64)> = Vec::new();
        let mut put =
            |name: &str, unit: &'static str, value: f64| out.push((name.to_string(), unit, value));

        put("runner.self_us_per_run", "us", per_run(self.runner_s()) * 1e6);
        put("runner.worker_busy_ratio", "ratio", self.busy_ratio.median());
        put("runner.chunk_ms", "ms", self.chunk_ms.median());
        put("runner.peak_resident_records", "count", self.peak_resident_records as f64);
        for name in FAMILIES {
            put(
                &format!("family.{name}.us_per_run"),
                "us",
                family(name).map_or(0.0, |f| f.us_per_run.median()),
            );
        }
        let mac: Vec<&FamilyProfile> =
            ["inaccessibility", "tdma"].iter().filter_map(|n| family(n)).collect();
        let mac_slots: f64 = mac.iter().map(|f| f.work.node_slots).sum();
        let mac_s: f64 = mac.iter().map(|f| f.seconds).sum();
        let mac_runs: u64 = mac.iter().map(|f| f.runs).sum();
        put("net.ns_per_node_slot", "ns", ratio(mac_s * 1e9, mac_slots));
        put("net.node_slots_per_run", "count", ratio(mac_slots, mac_runs as f64));
        for name in ENGINE_FAMILIES {
            let (events, runs, secs) = family(name)
                .map_or((0.0, 0.0, 0.0), |f| (f.work.events as f64, f.runs as f64, f.seconds));
            put(&format!("engine.{name}.events_per_run"), "count", ratio(events, runs));
            put(&format!("engine.{name}.ns_per_event"), "ns", ratio(secs * 1e9, events));
        }
        let (evals, kernel_runs, kernel_s) = family("kernel-latency")
            .map_or((0.0, 0.0, 0.0), |f| (f.work.rule_evals, f.runs as f64, f.seconds));
        put("kernel.ns_per_rule_eval", "ns", ratio(kernel_s * 1e9, evals));
        put("kernel.rule_evals_per_run", "count", ratio(evals, kernel_runs));
        let bus: Vec<&FamilyProfile> =
            ["middleware-qos", "middleware-overload"].iter().filter_map(|n| family(n)).collect();
        let published: f64 = bus.iter().map(|f| f.work.published).sum();
        let delivered: f64 = bus.iter().map(|f| f.work.delivered).sum();
        let bus_s: f64 = bus.iter().map(|f| f.seconds).sum();
        let bus_runs: u64 = bus.iter().map(|f| f.runs).sum();
        put("bus.ns_per_publish", "ns", ratio(bus_s * 1e9, published));
        put("bus.publishes_per_run", "count", ratio(published, bus_runs as f64));
        put("bus.delivered_per_published", "ratio", ratio(delivered, published));
        put("sink.us_per_run", "us", self.sink_us.median());
        put("sink.bytes_per_run", "B", per_run(self.sink_bytes as f64));
        put("sink.flush_ms", "ms", self.sink_flush_ms.median());
        put("trace.us_per_run", "us", self.trace_us.median());
        put("trace.records_per_run", "count", per_run(self.trace_records as f64));
        put("trace.bytes_per_run", "B", per_run(self.trace_bytes as f64));
        put(
            "checkpoint.manifests",
            "count",
            ratio(self.checkpoint_ms.len() as f64, self.sessions as f64),
        );
        put("checkpoint.ms_per_manifest", "ms", self.checkpoint_ms.median());
        put("checkpoint.write_ms", "ms", self.write_ms.median());
        put("checkpoint.bytes_per_manifest", "B", self.manifest_bytes.median());
        put("replay.parse_us_per_run", "us", self.replay_parse_us.median());
        put("replay.reduce_us_per_run", "us", self.replay_reduce_us.median());
        put("replay.manifest_ms", "ms", self.replay_manifest_ms.median());
        put(
            "bench.trace_overhead",
            "ratio",
            ratio(self.traced_rates.median(), self.untraced_rates.median()),
        );
        for (row, secs) in self.rows() {
            put(&format!("share.{row}"), "ratio", ratio(secs, self.capacity_s));
        }
        out
    }

    /// A human-readable profile: layer shares, then every timing with its
    /// median, tail percentile and sample count.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "traced profile of {workload}: {} session(s), {} runs, {:.3} s wall, {:.3} worker-s",
            self.sessions, self.runs, self.session_s, self.capacity_s
        );
        let _ = writeln!(out, "{:<20} {:>12} {:>8}", "layer", "worker-s", "share");
        let mut total = 0.0;
        for (row, secs) in self.rows() {
            total += secs;
            let label = if row == "runner" { "runner (residual)" } else { row };
            let share = 100.0 * secs / self.capacity_s;
            let _ = writeln!(out, "{label:<20} {secs:>12.4} {share:>7.1}%");
            if row == "family" {
                for (name, family) in &self.family {
                    let share = 100.0 * family.seconds / self.capacity_s;
                    let _ = writeln!(out, "  {name:<18} {:>12.4} {share:>7.1}%", family.seconds);
                }
            }
        }
        let _ = writeln!(out, "{:<20} {total:>12.4} (capacity {:.4})", "sum", self.capacity_s);
        let _ = writeln!(out, "{:<34} {:>12} {:>22} {:>8}", "timing", "median", "tail", "n");
        let mut dists: Vec<(String, &Dist)> = self
            .family
            .iter()
            .map(|(name, f)| (format!("family.{name}.us_per_run"), &f.us_per_run))
            .collect();
        dists.extend([
            ("runner.worker_busy_ratio".to_string(), &self.busy_ratio),
            ("runner.chunk_ms".to_string(), &self.chunk_ms),
            ("sink.us_per_run".to_string(), &self.sink_us),
            ("sink.flush_ms".to_string(), &self.sink_flush_ms),
            ("trace.us_per_run".to_string(), &self.trace_us),
            ("checkpoint.ms_per_manifest".to_string(), &self.checkpoint_ms),
            ("checkpoint.write_ms".to_string(), &self.write_ms),
            ("checkpoint.bytes_per_manifest".to_string(), &self.manifest_bytes),
            ("replay.parse_us_per_run".to_string(), &self.replay_parse_us),
            ("replay.reduce_us_per_run".to_string(), &self.replay_reduce_us),
            ("replay.manifest_ms".to_string(), &self.replay_manifest_ms),
            ("bench.untraced_runs_per_s".to_string(), &self.untraced_rates),
            ("bench.traced_runs_per_s".to_string(), &self.traced_rates),
        ]);
        for (name, dist) in dists.into_iter().filter(|(_, d)| d.len() > 0) {
            let tail = match dist.tail() {
                Some((q, v)) => format!("p{q:.3}={v:.4}"),
                None => "-".to_string(),
            };
            let _ =
                writeln!(out, "{name:<34} {:>12.4} {tail:>22} {:>8}", dist.median(), dist.len());
        }
        out
    }

    /// The last traced session's spans as CSV: name, start and end in ns
    /// since the recorder's epoch, parent, workload, run index.  The first
    /// row is the session span every other span belongs to.
    pub fn spans_csv(&self, workload: &str) -> String {
        let mut out = String::from("name,start_ns,end_ns,parent,workload,run\n");
        let (start, end) = self.last_session;
        let _ = writeln!(out, "session,{start},{end},,{workload},");
        for span in &self.last_spans {
            let name = match span.layer {
                Layer::Family(index) => format!("family.{}", self.names[index]),
                Layer::Sink => "sink.on_run".into(),
                Layer::SinkFlush => "sink.flush".into(),
                Layer::Trace => "trace.on_run_records".into(),
                Layer::TraceFlush => "trace.flush".into(),
                Layer::Checkpoint => "checkpoint.manifest".into(),
            };
            let run = span.run.map_or(String::new(), |r| r.to_string());
            let _ = writeln!(out, "{name},{},{},session,{workload},{run}", span.start, span.end);
        }
        out
    }
}
