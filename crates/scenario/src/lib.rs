//! # karyon-scenario — declarative scenarios and parallel campaign orchestration
//!
//! The KARYON paper evaluates its safety architecture with "computer
//! simulations with fault injection support" (§VI): families of scenarios run
//! many times under varied parameters and seeds, and the aggregate hazard /
//! performance figures are what the safety case is argued from.  The
//! experiment harnesses of `crates/bench` each hand-wire that loop; this
//! crate turns it into a first-class subsystem:
//!
//! * [`ScenarioSpec`] — a declarative description of one run (scenario family
//!   name, parameter map, seed, duration), built with a fluent builder;
//! * [`Scenario`] — the trait a scenario family implements: take a spec,
//!   return a [`RunRecord`] of named metrics;
//! * [`ScenarioRegistry`] — named scenario families; [`builtin_registry`]
//!   ships one family per KARYON evaluation experiment across every
//!   workspace layer ([`families`]): the vehicle use cases (platoon,
//!   randomized platoon fault injection, intersection VTL, lane change,
//!   avionics RPV), the middleware QoS stack, the self-stabilizing network
//!   stack (TDMA, inaccessibility, pulse sync, end-to-end FIFO), the sensor
//!   validity pipeline and the safety-kernel/cooperation layer — each with a
//!   machine-readable [`Scenario::param_domain`]
//!   ([`ScenarioRegistry::describe_json`] powers
//!   `karyon-campaign list-families --output json`);
//! * [`ParamGrid`] — a cartesian parameter grid expanded into parameter
//!   points;
//! * [`Campaign`] — expands grids and Monte-Carlo seed sweeps into a
//!   canonical run list, and a [`Session`] ([`Campaign::session`], the one
//!   way to run a campaign) executes it across `std::thread` workers in
//!   **canonical chunks** ([`aggregate`]).  Every run's RNG seed is derived
//!   from the campaign seed and the run's canonical coordinates
//!   ([`derive_run_seed`]); each chunk reduces into per-point streaming
//!   aggregates and chunk partials merge in canonical order, so a campaign's
//!   [`CampaignReport`] is **bit-identical for any worker count** while peak
//!   memory stays O(points × chunks-in-flight) — a 10⁶-run campaign
//!   aggregates in the same footprint as a 10³-run one;
//! * [`RunSink`] / [`JsonlRunWriter`] — optional per-run artifact streaming
//!   in canonical run order, and [`Campaign::reduce_records`] to re-aggregate
//!   a captured stream bit-identically;
//! * [`CampaignTelemetry`] ([`telemetry`]) — optional flight recorder
//!   attachment: a deterministic virtual-time trace sink (bit-identical for
//!   any worker count, like the report) plus a wall-clock
//!   [`MetricsRegistry`](karyon_telemetry::MetricsRegistry) of runner
//!   throughput/latency metrics;
//! * [`Checkpointer`] / [`CheckpointManifest`] ([`checkpoint`]) — crash-safe
//!   campaign checkpointing: atomically written manifests at a canonical-chunk
//!   cadence, a [resumed](Session::resume) session to continue a killed or
//!   [time-sliced](Checkpointer::max_chunks_per_session) campaign with a
//!   report **bit-identical** to an uninterrupted run's, and
//!   [`truncate_jsonl`] to recover the artifact stream after a crash (the
//!   `karyon-campaign` CLI drives the whole workflow from JSON spec files,
//!   parsed via [`Campaign::from_json_str`]);
//! * [`ShardPlan`] / [`ShardManifest`] ([`shard`]) — the shard/merge
//!   protocol: split the canonical chunk range into contiguous windows run
//!   independently (each a [chunk window](Session::chunks) with its own
//!   worker count), persist each window's per-chunk partials in an
//!   integrity-framed manifest, and [`merge_shards`] the set back into a
//!   report **byte-identical** to a single-machine run's;
//! * [`FaultPlan`] / [`FaultInjector`] ([`fault`]) — deterministic fault
//!   injection at the runner's canonical points (worker death at a chunk
//!   boundary, mid-chunk aborts, torn manifest writes, sink I/O errors),
//!   JSON- or seed-specified, with [`recovery`]'s bounded
//!   [`RetryPolicy`] turning transient I/O failures into graceful
//!   degradation;
//! * [`CampaignReport`] — per-parameter-point aggregates (mean/std-dev via
//!   `OnlineStats`; p50/p95/p99 exact for small sweeps, streamed through
//!   pre-agreed-range `BucketHistogram`s beyond — see
//!   [`Scenario::metric_range`]), serialisable to JSON and aligned-text
//!   tables.
//!
//! ## Quick tour
//!
//! ```
//! use karyon_scenario::{builtin_registry, Campaign, CampaignEntry, ParamGrid};
//!
//! let registry = builtin_registry();
//! let campaign = Campaign::new("doc-demo", 42).with_threads(2).entry(
//!     CampaignEntry::new("lane-change")
//!         .grid(ParamGrid::new().axis("coordination", ["agreement", "none"]))
//!         .replications(2)
//!         .duration_secs(30),
//! );
//! let report = campaign.run(&registry).expect("known scenario family");
//! assert_eq!(report.total_runs, 4);
//! assert_eq!(report.points.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod checkpoint;
pub mod families;
pub mod fault;
pub mod grid;
pub mod json;
pub mod recovery;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod shard;
pub mod sink;
pub mod spec;
pub mod telemetry;

pub use aggregate::DEFAULT_CHUNK_SIZE;
pub use campaign::{
    derive_run_seed, Campaign, CampaignEntry, CampaignOutcome, RunnerStats, Session,
};
pub use checkpoint::{
    integrity_frame, truncate_jsonl, truncate_trace_jsonl, CheckpointManifest, Checkpointer,
};
pub use fault::{Fault, FaultInjector, FaultPlan};
pub use grid::ParamGrid;
pub use json::JsonValue;
pub use recovery::{Backoff, RecordedBackoff, Recovered, RetryPolicy, WallClockBackoff};
pub use registry::{builtin_registry, FamilyInfo, ParamInfo, ScenarioRegistry};
pub use report::{CampaignReport, MetricSummary, PointReport};
pub use scenario::{RunRecord, Scenario};
pub use shard::{
    merge_shards, read_run_segment, read_trace_segment, validate_shard_set, ShardManifest,
    ShardPlan, ShardSlice,
};
pub use sink::{read_jsonl_records, JsonlRunWriter, RunMeta, RunSink, SyncOnFlushFile};
pub use spec::{ParamValue, ScenarioSpec};
pub use telemetry::CampaignTelemetry;
