//! # karyon-telemetry — deterministic tracing and unified metrics
//!
//! The campaign layer's determinism contract ("bit-identical reports for any
//! worker count and resume history") makes observability unusually delicate:
//! anything recorded *inside* a run must itself be a pure function of the
//! run's canonical coordinates, and anything wall-clock-dependent must stay
//! strictly outside the report.  This crate splits the two concerns:
//!
//! * [`trace`] — **deterministic tracing**: virtual-time
//!   [`SpanRecord`]/[`EventRecord`]s collected per run through a thread-local
//!   scope ([`trace::collect`]) and emitted to a [`TraceSink`] keyed by
//!   canonical [`RunCoords`].  Because the records carry only simulated time
//!   and model-derived attributes, a run's trace is **bit-identical across
//!   worker counts** and checkpoint/resume boundaries.  Tracing is off by
//!   default; with no collector installed, [`trace::event`] is a single
//!   thread-local flag check.
//! * [`metrics`] — a **unified metrics registry**: named counters, gauges and
//!   [`BucketHistogram`](karyon_sim::BucketHistogram)-backed timers with one
//!   snapshot/merge format ([`MetricsRegistry::to_json`],
//!   [`MetricsRegistry::merge`]).  This is where wall-clock numbers (chunk
//!   latency, worker busy time, checkpoint-write latency, bus delivery
//!   latency) flow — deliberately *outside* the deterministic report.
//! * [`EngineTracer`] — an [`EngineObserver`](karyon_sim::EngineObserver)
//!   that records causality clamps (with the offending event's debug label),
//!   stop requests and periodic queue-depth samples into the active trace
//!   scope; [`observe_engine`] attaches it only when a scope is active, so
//!   untraced runs pay nothing.
//!
//! ## Quick tour
//!
//! ```
//! use karyon_sim::{Engine, SimDuration, SimTime};
//! use karyon_telemetry::{observe_engine, trace, JsonlTraceWriter, RunCoords, TraceSink};
//!
//! // Collect a run's trace: everything emitted inside the closure is
//! // buffered in virtual time and handed back deterministically.
//! let (_, records) = trace::collect(|| {
//!     let mut engine: Engine<u32, &'static str> = Engine::new(0);
//!     observe_engine(&mut engine); // records clamps / depth while tracing
//!     engine.schedule_at(SimTime::from_millis(5), "tick");
//!     engine.run(|n, ctx, _| {
//!         *n += 1;
//!         // Scheduling into the past is clamped — and now attributed:
//!         if *n == 1 {
//!             ctx.schedule_at(SimTime::ZERO, "late");
//!         }
//!     });
//!     trace::span("run", SimTime::ZERO, SimTime::from_millis(5), &[]);
//! });
//! assert!(records.iter().any(|r| r.name() == "engine.clamp"));
//!
//! // Emit the records keyed by canonical run coordinates as JSONL.
//! let mut writer = JsonlTraceWriter::new(Vec::new());
//! writer.on_run_records(&RunCoords { run_index: 0, point: 0, replication: 0, seed: 42 }, &records);
//! let jsonl = String::from_utf8(writer.into_inner().unwrap()).unwrap();
//! assert!(jsonl.lines().all(|l| l.starts_with("{\"run\":0,")));
//!
//! // Wall-clock numbers go to the unified registry instead.
//! let mut metrics = karyon_telemetry::MetricsRegistry::new();
//! metrics.add("campaign.runs", 1);
//! metrics.record_timer("campaign.chunk_ms", 1.25);
//! assert!(metrics.to_json().contains("\"campaign.runs\":1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{MetricsRegistry, TimerSummary};
pub use trace::{
    observe_engine, AttrValue, EngineTracer, EventRecord, JsonlTraceWriter, RunCoords, SpanRecord,
    TraceRecord, TraceSink,
};
