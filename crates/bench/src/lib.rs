//! # karyon-bench — experiment harnesses for the KARYON reproduction
//!
//! Every table/figure-level experiment of DESIGN.md §4 is a `harness = false`
//! bench target in `benches/`; running `cargo bench --workspace` executes all
//! of them and prints their result tables, which EXPERIMENTS.md records.
//!
//! Each experiment harness is a **thin campaign driver**: it embeds its
//! sweep as a JSON campaign spec over the builtin scenario registry (the
//! same format `karyon-campaign run` accepts), executes it via
//! [`run_campaign`], and renders the aggregated points — the measurement
//! loop, seed derivation, parallel execution and aggregation all live in
//! `karyon-scenario`, so grid sweeps, checkpoint/resume and bounded-memory
//! aggregation apply to the whole paper evaluation.
//! `benches/micro.rs` contains the Criterion micro-benchmarks (safety-kernel
//! cycle, validity combination, fusion, TDMA slot handling, event publication)
//! and `benches/e16_campaign_throughput.rs` tracks the experiment pipeline's
//! own throughput (chunked campaign runner, mixed-family campaign,
//! checkpoint and telemetry overhead), emitting `BENCH_campaign.json` at the
//! workspace root.
//!
//! Harnesses honour a "quick mode" (~10× smaller workloads) so CI smoke jobs
//! stay fast; [`quick_mode`] is the shared switch:
//!
//! ```
//! std::env::set_var("DOCTEST_QUICK", "1");
//! assert!(karyon_bench::quick_mode("DOCTEST_QUICK"));
//! std::env::set_var("DOCTEST_QUICK", "0");
//! assert!(!karyon_bench::quick_mode("DOCTEST_QUICK"));
//! std::env::remove_var("DOCTEST_QUICK");
//! assert!(!karyon_bench::quick_mode("DOCTEST_QUICK"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// True when the harness should run its ~10× smaller "quick" workload:
/// either `env_var` is set to anything but `"0"` (how CI invokes the
/// benches, e.g. `E16_QUICK=1`) or `--quick` was passed on the command line.
pub fn quick_mode(env_var: &str) -> bool {
    std::env::var(env_var).is_ok_and(|v| v != "0") || std::env::args().any(|a| a == "--quick")
}

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
