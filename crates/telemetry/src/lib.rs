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
//!   snapshot format ([`MetricsRegistry::to_json`]).  This is where
//!   wall-clock numbers (chunk latency, worker busy time, checkpoint-write
//!   latency, bus delivery latency) flow — deliberately *outside* the
//!   deterministic report.
//!
//! ## Quick tour
//!
//! ```
//! use karyon_sim::SimTime;
//! use karyon_telemetry::{trace, AttrValue, JsonlTraceWriter, RunCoords, TraceSink};
//!
//! // Collect a run's trace: everything emitted inside the closure is
//! // buffered in virtual time and handed back deterministically.
//! let (_, records) = trace::collect(|| {
//!     trace::event("tick", SimTime::from_millis(5), &[("left", AttrValue::U64(2))]);
//!     trace::span("run", SimTime::ZERO, SimTime::from_millis(5), &[]);
//! });
//! let names: Vec<&str> = records.iter().map(|r| r.name()).collect();
//! assert_eq!(names, ["tick", "run"]);
//!
//! // Outside a scope, emitting is a no-op.
//! trace::event("dropped", SimTime::ZERO, &[]);
//! assert!(!trace::active());
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

pub use metrics::MetricsRegistry;
pub use trace::{
    AttrValue, EventRecord, JsonlTraceWriter, RunCoords, SpanRecord, TraceRecord, TraceSink,
};
