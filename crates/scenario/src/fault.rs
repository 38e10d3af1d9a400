//! Deterministic campaign fault injection.
//!
//! The campaign runner's crash-safety story (checkpoint/resume, abort
//! handling, atomic manifests) was until now exercised only by hand-written
//! interruption tests.  This module turns those failure modes into a
//! first-class, replayable input: a [`FaultPlan`] names *which* faults fire
//! *where* (chunk boundaries, checkpoint flushes, manifest writes), and the
//! runner consults an armed [`FaultInjector`] at exactly those canonical
//! points.  Plans come from JSON (committed chaos drills) or are derived from
//! a seed ([`FaultPlan::derive`]), so every chaotic run is repeatable the same
//! way every campaign run is.
//!
//! The hook is an `Option<&FaultInjector>` threaded through the runner: the
//! zero-fault path costs one branch per probe and allocates nothing.
//!
//! Injected failures are ordinary runner errors carrying the
//! [`INJECTED_PREFIX`] marker, so recovery tooling (the `karyon-campaign
//! chaos` subcommand, the crash-at-any-boundary property tests) can
//! distinguish a planned fault from a real defect.

use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use karyon_sim::splitmix64;

use crate::json::JsonValue;

/// Marker embedded in every error message produced by an injected fault.
pub const INJECTED_PREFIX: &str = "injected fault:";

/// Returns `true` if `message` originated from a [`FaultInjector`] rather
/// than a real defect.
pub fn is_injected(message: &str) -> bool {
    message.contains(INJECTED_PREFIX)
}

/// One planned fault at a canonical injection point of the campaign runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A worker thread dies at the boundary of `at_chunk`, before executing
    /// any of its runs — the whole session aborts like a killed process.
    WorkerDeath {
        /// Chunk index whose claim kills the worker.
        at_chunk: usize,
    },
    /// An abort signal lands mid-chunk: the session stops after `after_runs`
    /// runs of `at_chunk` have executed, leaving a partial chunk in flight.
    AbortMidChunk {
        /// Chunk index inside which the abort fires.
        at_chunk: usize,
        /// Runs of that chunk that complete before the abort.
        after_runs: u64,
    },
    /// The checkpoint manifest write is torn: the freshly written file is
    /// truncated to `keep_bytes` bytes and the session dies, as if the
    /// process crashed mid-`write(2)` on a filesystem without atomic rename.
    TornManifest {
        /// Checkpoint watermark (chunks merged) at which the tear happens.
        at_chunks_done: usize,
        /// Bytes of the manifest that survive on disk.
        keep_bytes: u64,
    },
    /// The run-sink flush before a checkpoint fails with an I/O error,
    /// `failures` times in a row — transient disk pressure that bounded
    /// retry should heal without losing the session.
    SinkIoError {
        /// Checkpoint watermark at which the flush starts failing.
        at_chunks_done: usize,
        /// Consecutive flush attempts that fail before the sink recovers.
        failures: u32,
    },
}

impl Fault {
    /// How many times this fault may fire before it is spent.
    fn budget(&self) -> u32 {
        match self {
            Fault::SinkIoError { failures, .. } => (*failures).max(1),
            _ => 1,
        }
    }

    fn from_json(value: &JsonValue) -> Result<Fault, String> {
        let fields = value.as_object().ok_or("each fault must be a JSON object")?;
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("each fault needs a string \"kind\"")?;
        let known: &[&str] = match kind {
            "worker-death" => &["kind", "at_chunk"],
            "abort-mid-chunk" => &["kind", "at_chunk", "after_runs"],
            "torn-manifest" => &["kind", "at_chunks_done", "keep_bytes"],
            "sink-io-error" => &["kind", "at_chunks_done", "failures"],
            other => {
                return Err(format!(
                    "unknown fault kind {other:?} (expected worker-death, abort-mid-chunk, \
                     torn-manifest or sink-io-error)"
                ))
            }
        };
        for (key, _) in fields {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown field {key:?} in a {kind} fault"));
            }
        }
        let u64_field = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{kind} fault needs a non-negative integer {name:?}"))
        };
        Ok(match kind {
            "worker-death" => Fault::WorkerDeath { at_chunk: u64_field("at_chunk")? as usize },
            "abort-mid-chunk" => Fault::AbortMidChunk {
                at_chunk: u64_field("at_chunk")? as usize,
                after_runs: u64_field("after_runs")?,
            },
            "torn-manifest" => Fault::TornManifest {
                at_chunks_done: u64_field("at_chunks_done")? as usize,
                keep_bytes: u64_field("keep_bytes")?,
            },
            _ => Fault::SinkIoError {
                at_chunks_done: u64_field("at_chunks_done")? as usize,
                failures: u64_field("failures")?.min(u32::MAX as u64) as u32,
            },
        })
    }
}

/// An ordered collection of planned faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The planned faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derives a small mixed plan purely from `seed` and the campaign's chunk
    /// count: a transient sink I/O error, a worker death at a mid-campaign
    /// chunk boundary and (for campaigns of at least four chunks) a mid-chunk
    /// abort.  The same `(seed, chunks)` always yields the same plan.
    pub fn derive(seed: u64, chunks: usize) -> Self {
        let chunks = chunks.max(2);
        let mut state = seed ^ 0xFA17_B1A5_0DD5_EED5;
        let death_chunk = 1 + (splitmix64(&mut state) as usize % (chunks - 1));
        let flush_at = splitmix64(&mut state) as usize % chunks;
        let failures = 1 + (splitmix64(&mut state) % 2) as u32;
        let mut plan = FaultPlan::new()
            .with(Fault::SinkIoError { at_chunks_done: flush_at, failures })
            .with(Fault::WorkerDeath { at_chunk: death_chunk });
        if chunks >= 4 {
            let abort_chunk = splitmix64(&mut state) as usize % chunks;
            let after_runs = splitmix64(&mut state) % 3;
            plan = plan.with(Fault::AbortMidChunk { at_chunk: abort_chunk, after_runs });
        }
        plan
    }

    /// Parses a plan from its JSON form:
    ///
    /// ```json
    /// {"faults": [
    ///   {"kind": "worker-death", "at_chunk": 2},
    ///   {"kind": "abort-mid-chunk", "at_chunk": 4, "after_runs": 3},
    ///   {"kind": "torn-manifest", "at_chunks_done": 3, "keep_bytes": 120},
    ///   {"kind": "sink-io-error", "at_chunks_done": 1, "failures": 2}
    /// ]}
    /// ```
    ///
    /// Unknown kinds and unknown fields are rejected, like campaign specs.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let root = JsonValue::parse(text).map_err(|e| format!("fault plan: {e}"))?;
        let fields = root.as_object().ok_or("fault plan: expected a top-level JSON object")?;
        for (key, _) in fields {
            if key != "faults" {
                return Err(format!("fault plan: unknown top-level field {key:?}"));
            }
        }
        let faults = root
            .get("faults")
            .and_then(JsonValue::as_array)
            .ok_or("fault plan: needs a \"faults\" array")?;
        let mut plan = FaultPlan::new();
        for (i, entry) in faults.iter().enumerate() {
            plan.faults
                .push(Fault::from_json(entry).map_err(|e| format!("fault plan, fault {i}: {e}"))?);
        }
        Ok(plan)
    }

    /// Arms the plan: each fault gets a one-shot (or `failures`-shot) budget
    /// so a recovered session does not re-trip the same fault forever.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            armed: self.faults.iter().map(|f| (f.clone(), AtomicU32::new(f.budget()))).collect(),
            injected: AtomicU64::new(0),
            worker_deaths: AtomicU64::new(0),
            mid_chunk_aborts: AtomicU64::new(0),
            torn_manifests: AtomicU64::new(0),
            sink_errors: AtomicU64::new(0),
        }
    }
}

/// An armed [`FaultPlan`]: thread-safe, consulted by the campaign runner at
/// its canonical injection points.
///
/// Each fault carries a firing budget (one shot, except
/// [`Fault::SinkIoError`] which fires `failures` times), so the injector can
/// be shared across the crash/recover sessions of a chaos drill: once a fault
/// has fired it stays quiet and the recovery path can make progress.
#[derive(Debug)]
pub struct FaultInjector {
    armed: Vec<(Fault, AtomicU32)>,
    injected: AtomicU64,
    worker_deaths: AtomicU64,
    mid_chunk_aborts: AtomicU64,
    torn_manifests: AtomicU64,
    sink_errors: AtomicU64,
}

impl FaultInjector {
    /// Consumes one shot of `armed[idx]`'s budget; `false` if spent.
    fn consume(budget: &AtomicU32) -> bool {
        budget.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1)).is_ok()
    }

    fn record(&self, counter: &AtomicU64) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Probe at a chunk-claim boundary; `Err` kills the claiming worker.
    pub fn before_chunk(&self, chunk: usize) -> Result<(), String> {
        for (fault, budget) in &self.armed {
            if let Fault::WorkerDeath { at_chunk } = fault {
                if *at_chunk == chunk && Self::consume(budget) {
                    self.record(&self.worker_deaths);
                    return Err(format!(
                        "{INJECTED_PREFIX} worker death at the chunk {chunk} boundary"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Probe before each run inside a chunk; `Err` aborts the session
    /// mid-chunk (the partial chunk is discarded, never merged).
    pub fn before_run(&self, chunk: usize, run_in_chunk: u64) -> Result<(), String> {
        for (fault, budget) in &self.armed {
            if let Fault::AbortMidChunk { at_chunk, after_runs } = fault {
                if *at_chunk == chunk && run_in_chunk >= *after_runs && Self::consume(budget) {
                    self.record(&self.mid_chunk_aborts);
                    return Err(format!(
                        "{INJECTED_PREFIX} abort signal after {run_in_chunk} runs of chunk {chunk}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Probe at the sink flush preceding a checkpoint; `Some` simulates a
    /// transient flush failure (which bounded retry is expected to heal).
    pub fn sink_flush_error(&self, chunks_done: usize) -> Option<std::io::Error> {
        for (fault, budget) in &self.armed {
            if let Fault::SinkIoError { at_chunks_done, .. } = fault {
                if *at_chunks_done == chunks_done && Self::consume(budget) {
                    self.record(&self.sink_errors);
                    return Some(std::io::Error::other(format!(
                        "{INJECTED_PREFIX} sink flush I/O error at checkpoint {chunks_done}"
                    )));
                }
            }
        }
        None
    }

    /// Probe after a manifest write lands; a matching torn-manifest fault
    /// truncates the freshly written file and kills the session.
    pub fn after_manifest_write(&self, chunks_done: usize, path: &Path) -> Result<(), String> {
        for (fault, budget) in &self.armed {
            if let Fault::TornManifest { at_chunks_done, keep_bytes } = fault {
                if *at_chunks_done == chunks_done && Self::consume(budget) {
                    self.record(&self.torn_manifests);
                    let tear = std::fs::OpenOptions::new()
                        .write(true)
                        .open(path)
                        .and_then(|f| f.set_len(*keep_bytes));
                    return Err(match tear {
                        Ok(()) => format!(
                            "{INJECTED_PREFIX} torn manifest write at checkpoint {chunks_done} \
                             (file truncated to {keep_bytes} bytes)"
                        ),
                        Err(e) => format!(
                            "{INJECTED_PREFIX} torn manifest write at checkpoint {chunks_done} \
                             (truncation itself failed: {e})"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Total faults fired since the last [`drain_counts`](Self::drain_counts).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Drains the per-category fire counters as `(metric name, count)` pairs,
    /// resetting them to zero — each runner session folds only the faults it
    /// actually observed into its metrics registry.
    pub fn drain_counts(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        for (name, counter) in [
            ("fault.injected", &self.injected),
            ("fault.injected.worker_death", &self.worker_deaths),
            ("fault.injected.abort_mid_chunk", &self.mid_chunk_aborts),
            ("fault.injected.torn_manifest", &self.torn_manifests),
            ("fault.injected.sink_io_error", &self.sink_errors),
        ] {
            let n = counter.swap(0, Ordering::Relaxed);
            if n > 0 {
                out.push((name, n));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_parses_every_kind_and_rejects_garbage() {
        let plan = FaultPlan::new()
            .with(Fault::WorkerDeath { at_chunk: 2 })
            .with(Fault::AbortMidChunk { at_chunk: 4, after_runs: 3 })
            .with(Fault::TornManifest { at_chunks_done: 3, keep_bytes: 120 })
            .with(Fault::SinkIoError { at_chunks_done: 1, failures: 2 });
        let text = r#"{"faults": [
            {"kind": "worker-death", "at_chunk": 2},
            {"kind": "abort-mid-chunk", "at_chunk": 4, "after_runs": 3},
            {"kind": "torn-manifest", "at_chunks_done": 3, "keep_bytes": 120},
            {"kind": "sink-io-error", "at_chunks_done": 1, "failures": 2}
        ]}"#;
        assert_eq!(FaultPlan::from_json_str(text).unwrap(), plan);

        let unknown_kind = r#"{"faults":[{"kind":"meteor-strike","at_chunk":1}]}"#;
        let err = FaultPlan::from_json_str(unknown_kind).unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");

        let unknown_field = r#"{"faults":[{"kind":"worker-death","at_chunk":1,"bogus":2}]}"#;
        let err = FaultPlan::from_json_str(unknown_field).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");

        let unknown_top = r#"{"faults":[],"extra":true}"#;
        let err = FaultPlan::from_json_str(unknown_top).unwrap_err();
        assert!(err.contains("unknown top-level field"), "{err}");
    }

    #[test]
    fn derived_plans_are_deterministic() {
        assert_eq!(FaultPlan::derive(99, 12), FaultPlan::derive(99, 12));
        assert_ne!(FaultPlan::derive(99, 12), FaultPlan::derive(100, 12));
        assert!(!FaultPlan::derive(0, 1).is_empty());
    }

    #[test]
    fn faults_are_one_shot_and_counted() {
        let plan = FaultPlan::new()
            .with(Fault::WorkerDeath { at_chunk: 3 })
            .with(Fault::SinkIoError { at_chunks_done: 1, failures: 2 });
        let injector = plan.injector();

        assert!(injector.before_chunk(2).is_ok());
        let err = injector.before_chunk(3).unwrap_err();
        assert!(is_injected(&err), "{err}");
        // Spent: the recovered session sails past the same boundary.
        assert!(injector.before_chunk(3).is_ok());

        assert!(injector.sink_flush_error(0).is_none());
        assert!(injector.sink_flush_error(1).is_some());
        assert!(injector.sink_flush_error(1).is_some());
        assert!(injector.sink_flush_error(1).is_none(), "budget of 2 is spent");

        assert_eq!(injector.injected(), 3);
        let counts = injector.drain_counts();
        assert!(counts.contains(&("fault.injected", 3)));
        assert!(counts.contains(&("fault.injected.worker_death", 1)));
        assert!(counts.contains(&("fault.injected.sink_io_error", 2)));
        assert_eq!(injector.injected(), 0, "drained");
        assert!(injector.drain_counts().is_empty());
    }
}
