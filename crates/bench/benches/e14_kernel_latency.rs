//! E14 — Safety-kernel cycle latency and the bounded LoS-switch argument (§III).
//!
//! Measures the wall-clock cost of one safety-manager evaluation cycle as the
//! rule set grows, and reports the design-time worst-case reaction bound
//! (cycle period + switch bound) against the tightest hazard reaction bound.
//!
//! The model quantities come from the `kernel-latency` scenario family,
//! executed through the runner; the wall-clock cycle cost is measured
//! *around* the campaigns — never inside the family, which stays
//! deterministic so campaign reports remain bit-identical for any worker
//! count.  Per rule-set size two campaigns run (full and one-tenth cycle
//! counts) and the cost per cycle is the elapsed-time difference over the
//! cycle difference, cancelling the runner's fixed per-campaign overhead.
//! The design-time bound figures are asserted against the pre-refactor seed
//! numbers (150 ms reaction vs the 500 ms hazard bound).

use karyon_bench::run_campaign;
use karyon_sim::table::fmt3;
use karyon_sim::Table;

fn spec(rules_per_level: usize, cycles: u64) -> String {
    format!(
        r#"{{
  "name": "e14-kernel-latency-{rules_per_level}", "seed": 1,
  "entries": [
    {{"scenario": "kernel-latency", "replications": 1,
     "grid": {{"rules_per_level": [{rules_per_level}], "cycles": [{cycles}],
              "cycle_period_ms": [100], "validity_threshold": [0.6],
              "hazard_bound_ms": [500], "levels": [2]}}}}
  ]
}}"#
    )
}

fn main() {
    let cycles: u64 = 2_000;
    let mut table = Table::new(
        "E14 — safety-kernel evaluation cost and reaction bound (cycle period 100 ms)",
        &[
            "rules per level",
            "data items",
            "mean cycle cost [us]",
            "worst-case reaction [ms]",
            "tightest hazard bound [ms]",
            "bound satisfied",
        ],
    );
    let baseline_cycles = (cycles / 10).max(1);
    for &rules in &[2usize, 8, 32, 128] {
        let (report, _, elapsed) = run_campaign(&spec(rules, cycles));
        let point = &report.points[0];
        // A whole-campaign wall clock includes fixed overhead (spec parse,
        // registry build, worker spawn, aggregation) that would inflate the
        // per-cycle figure at small rule counts.  Differential measurement
        // cancels it: run the same campaign at a tenth of the cycles and
        // divide the elapsed-time difference by the cycle difference.
        let (_, _, baseline_elapsed) = run_campaign(&spec(rules, baseline_cycles));
        let delta_s = (elapsed.as_secs_f64() - baseline_elapsed.as_secs_f64()).max(0.0);
        let mean_us = delta_s * 1e6 / (cycles - baseline_cycles).max(1) as f64;
        let reaction_ms = point.metrics["worst_case_reaction_ms"].mean;
        let tightest_ms = point.metrics["tightest_hazard_bound_ms"].mean;
        let satisfied = point.metrics["bound_satisfied"].mean == 1.0;
        table.add_row(&[
            rules.to_string(),
            rules.to_string(),
            fmt3(mean_us),
            fmt3(reaction_ms),
            fmt3(tightest_ms),
            satisfied.to_string(),
        ]);
        // Consistency with the pre-refactor harness (seed numbers): a
        // 100 ms cycle period + 50 ms switch bound give a 150 ms worst-case
        // reaction, far below the 500 ms hazard bound, for every rule-set
        // size.
        assert_eq!(reaction_ms, 150.0, "worst-case reaction changed for {rules} rules/level");
        assert_eq!(tightest_ms, 500.0, "hazard bound changed for {rules} rules/level");
        assert!(satisfied, "the safety argument's bound check failed for {rules} rules/level");
        assert_eq!(point.metrics["evaluations"].mean, cycles as f64);
    }
    table.print();
    println!(
        "Expectation (paper §III): the evaluation cycle is microseconds even for large rule sets —\n\
         orders of magnitude below the cycle period — so the worst-case reaction (one cycle period\n\
         plus the bounded switch time) stays far below the tightest hazard reaction bound, which is\n\
         the property the safety argument rests on."
    );
}
