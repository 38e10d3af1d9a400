//! Campaign telemetry attachment: how a caller plugs the
//! [`karyon-telemetry`](karyon_telemetry) flight recorder into a campaign.
//!
//! A [`CampaignTelemetry`] bundles the two optional halves of the recorder —
//! a deterministic virtual-time [`TraceSink`] and a wall-clock
//! [`MetricsRegistry`] — into one session setting,
//! [`Session::telemetry`](crate::Session::telemetry).  Both halves default to
//! detached, which is the zero-overhead path: no trace scope is opened around
//! runs and no timer is sampled.
//!
//! The two halves deliberately have opposite determinism contracts:
//!
//! * **Traces** are keyed by canonical run coordinates and contain only
//!   virtual-time records, so the trace stream a sink receives is
//!   bit-identical for any worker count and any checkpoint/resume history —
//!   the same contract the campaign report itself carries.  The runner
//!   guarantees this by draining each run's records at canonical-order merge
//!   time, never at execution time.
//! * **Metrics** are wall-clock throughput/latency observations (chunk
//!   latency, per-worker busy time, checkpoint-write cost...).  They depend
//!   on scheduling by nature, exactly like [`RunnerStats`](crate::RunnerStats),
//!   and are kept out of the deterministic report for the same reason.

use std::fmt;

pub use karyon_telemetry::{MetricsRegistry, TraceSink};

/// The telemetry attachment of one campaign session: an optional
/// deterministic trace sink and an optional wall-clock metrics registry.
///
/// Construct with [`CampaignTelemetry::none`] (or `Default`) and attach the
/// halves you want:
///
/// ```
/// use karyon_scenario::{builtin_registry, Campaign, CampaignEntry, CampaignTelemetry};
/// use karyon_telemetry::{JsonlTraceWriter, MetricsRegistry};
///
/// let campaign = Campaign::new("doc-telemetry", 9)
///     .entry(CampaignEntry::new("lane-change").replications(2).duration_secs(10));
/// let mut trace = JsonlTraceWriter::new(Vec::new());
/// let mut metrics = MetricsRegistry::new();
/// let telemetry = CampaignTelemetry::none().with_trace(&mut trace).with_metrics(&mut metrics);
/// let registry = builtin_registry();
/// let (outcome, _stats) =
///     campaign.session(&registry).telemetry(telemetry).run().expect("builtin family");
/// assert_eq!(outcome.into_report().unwrap().total_runs, 2);
/// assert_eq!(metrics.counter("campaign.runs"), 2);
/// let jsonl = String::from_utf8(trace.into_inner().expect("no I/O error")).unwrap();
/// assert!(jsonl.lines().all(|line| line.starts_with("{\"run\":")));
/// ```
#[derive(Default)]
pub struct CampaignTelemetry<'a> {
    /// Receives every run's deterministic trace records, in canonical run
    /// order.  `None` disables tracing entirely (runs execute without a
    /// collection scope, so instrumentation in scenario code is a no-op).
    pub trace: Option<&'a mut dyn TraceSink>,
    /// Accumulates wall-clock runner metrics.  `None` disables them.
    pub metrics: Option<&'a mut MetricsRegistry>,
}

impl<'a> CampaignTelemetry<'a> {
    /// A fully detached attachment — the session runs exactly as a plain
    /// one does.
    pub fn none() -> Self {
        CampaignTelemetry::default()
    }

    /// Attaches a deterministic trace sink.
    pub fn with_trace(mut self, trace: &'a mut dyn TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a wall-clock metrics registry.
    pub fn with_metrics(mut self, metrics: &'a mut MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// True when a trace sink is attached (the runner opens per-run
    /// collection scopes only then).
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }
}

impl fmt::Debug for CampaignTelemetry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignTelemetry")
            .field("trace", &self.trace.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}
