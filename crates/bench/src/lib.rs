//! # karyon-bench — experiment harnesses for the KARYON reproduction
//!
//! Every table/figure-level experiment of the paper's evaluation (§VI) is a
//! `harness = false` bench target in `benches/`, e01–e15 with e10 folded into
//! e01; ARCHITECTURE.md's "Experiments as scenarios" table maps each to its
//! scenario family.  Running `cargo bench --workspace` executes all of them
//! and prints their result tables.
//!
//! Each experiment harness is a **thin campaign driver**: it embeds its
//! sweep as a JSON campaign spec over the builtin scenario registry (the
//! same format `karyon-campaign run` accepts), executes it via
//! [`run_campaign`], and renders the aggregated points — the measurement
//! loop, seed derivation, parallel execution and aggregation all live in
//! `karyon-scenario`, so grid sweeps, checkpoint/resume and bounded-memory
//! aggregation apply to the whole paper evaluation.  The pipeline's own
//! throughput, end to end and per layer, is measured by the campaign
//! benchmark in `campaign-bench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Parses a JSON campaign spec, executes it on the builtin scenario registry
/// in one [`Session`](karyon_scenario::Session), and returns the report
/// together with the runner statistics and the wall-clock time of the
/// execution.
///
/// This is the entire "measurement loop" of the e01–e15 experiment
/// harnesses: each harness declares its sweep as a spec (the same format
/// `karyon-campaign run` accepts), and grid expansion, deterministic per-run
/// seed derivation, parallel chunked execution and canonical aggregation all
/// come from the campaign runner — reports are bit-identical for any worker
/// count.
///
/// # Panics
/// Panics when the spec does not parse or names an unknown scenario family:
/// a harness with a broken spec must fail loudly, not measure nothing.
pub fn run_campaign(
    spec_json: &str,
) -> (karyon_scenario::CampaignReport, karyon_scenario::RunnerStats, std::time::Duration) {
    use karyon_scenario::{builtin_registry, Campaign};
    let campaign = Campaign::from_json_str(spec_json).expect("harness spec must be well-formed");
    let registry = builtin_registry();
    let started = std::time::Instant::now();
    let (outcome, stats) = campaign.session(&registry).run().expect("harness families are builtin");
    let report = outcome.into_report().expect("a plain session runs every chunk");
    (report, stats, started.elapsed())
}
