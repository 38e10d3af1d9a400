//! E01 — The performance–safety trade-off (paper Fig. 1 / §III) and the
//! per-LoS ACC/platooning table (§VI-A1, formerly harness e10).
//!
//! Compares the safety-kernel-controlled platoon against the homogeneous
//! baselines (always cooperative, always conservative) under increasingly
//! degraded V2V conditions, and reproduces the use-case A1 table where each
//! fixed Level of Service trades the time margin between vehicles against
//! road throughput.  Both sweeps are declared as campaign specs over the
//! `platoon` scenario family and executed by the campaign runner; the
//! harness renders the aggregates and asserts the trade-off the paper
//! expects, for every V2V condition of both tables.

use karyon_bench::run_campaign;
use karyon_core::LevelOfService;
use karyon_scenario::{CampaignReport, PointReport};
use karyon_sim::table::{fmt3, fmt_pct};
use karyon_sim::Table;
use karyon_vehicles::time_margin_for_los;

/// The three V2V conditions of the trade-off experiment: healthy, lossy and
/// a mid-run outage (the `platoon` family places the outage across the
/// middle third of the run), each swept over the three control strategies.
const TRADEOFF_SPEC: &str = r#"{
  "name": "e01-los-tradeoff", "seed": 42,
  "entries": [
    {"scenario": "platoon", "replications": 5, "duration_secs": 150,
     "grid": {"v2v_loss": [0.05], "outage": [false],
              "mode": ["kernel", "los2", "los0"],
              "vehicles": [6], "lead_braking": [5.0]}},
    {"scenario": "platoon", "replications": 5, "duration_secs": 150,
     "grid": {"v2v_loss": [0.3], "outage": [false],
              "mode": ["kernel", "los2", "los0"],
              "vehicles": [6], "lead_braking": [5.0]}},
    {"scenario": "platoon", "replications": 5, "duration_secs": 150,
     "grid": {"v2v_loss": [0.05], "outage": [true],
              "mode": ["kernel", "los2", "los0"],
              "vehicles": [6], "lead_braking": [5.0]}}
  ]
}"#;

/// The per-LoS table (the former e10 harness): 8 vehicles, every fixed LoS
/// plus the adaptive kernel, with and without a V2V outage.
const PER_LOS_SPEC: &str = r#"{
  "name": "e01-acc-platoon-per-los", "seed": 21,
  "entries": [
    {"scenario": "platoon", "replications": 5, "duration_secs": 180,
     "grid": {"outage": [false, true],
              "mode": ["los0", "los1", "los2", "kernel"],
              "vehicles": [8]}}
  ]
}"#;

fn mode_label(mode: &str) -> &'static str {
    match mode {
        "kernel" => "KARYON safety kernel",
        "los2" => "always cooperative (LoS2)",
        "los1" => "fixed LoS1",
        "los0" => "always conservative (LoS0)",
        _ => "?",
    }
}

fn condition_label(loss: f64, outage: bool) -> &'static str {
    match (loss, outage) {
        (_, true) => "V2V outage (middle third)",
        (l, _) if l > 0.1 => "lossy V2V (30%)",
        _ => "healthy V2V",
    }
}

/// The expectation of paper §III and §VI-A1, checked per V2V condition
/// (`condition` labels a point): the kernel row has no collision and no
/// hazard step yet keeps at least 1.5× the always-conservative throughput,
/// and under the outage the always-cooperative row collides.
fn assert_tradeoff(
    table: &str,
    report: &CampaignReport,
    condition: impl Fn(&PointReport) -> &'static str,
) {
    let mean = |label: &str, mode: &str, metric: &str| {
        let point = report
            .points
            .iter()
            .find(|p| condition(p) == label && p.params["mode"].as_str() == Some(mode))
            .unwrap_or_else(|| panic!("{table}: no {mode} row under {label}"));
        point.metrics[metric].mean
    };
    let mut labels: Vec<&str> = report.points.iter().map(&condition).collect();
    labels.sort_unstable();
    labels.dedup();
    for label in labels {
        assert_eq!(mean(label, "kernel", "collisions"), 0.0, "{table}, {label}: kernel collided");
        assert_eq!(
            mean(label, "kernel", "hazard_steps"),
            0.0,
            "{table}, {label}: kernel entered the hazard region"
        );
        let ratio = mean(label, "kernel", "throughput_vph") / mean(label, "los0", "throughput_vph");
        assert!(
            ratio >= 1.5,
            "{table}, {label}: kernel throughput only {ratio:.2}x the conservative baseline's"
        );
        if label.starts_with("V2V outage") {
            assert!(
                mean(label, "los2", "collisions") > 0.0,
                "{table}, {label}: the always-cooperative platoon should collide"
            );
        }
    }
}

/// The V2V condition of a point of the per-LoS table.
fn per_los_condition(point: &PointReport) -> &'static str {
    if point.params["outage"].as_bool().unwrap() {
        "V2V outage (middle third)"
    } else {
        "healthy V2V"
    }
}

fn main() {
    let (tradeoff, stats, elapsed) = run_campaign(TRADEOFF_SPEC);
    let mut table = Table::new(
        "E01 — performance–safety trade-off (6-vehicle platoon, 150 s, 5 seeds per cell, means)",
        &[
            "V2V condition",
            "control",
            "collisions",
            "hazard steps",
            "min time gap [s]",
            "throughput [veh/h]",
            "time at LoS2",
        ],
    );
    for point in &tradeoff.points {
        let loss = point.params["v2v_loss"].as_f64().unwrap();
        let outage = point.params["outage"].as_bool().unwrap();
        table.add_row(&[
            condition_label(loss, outage).to_string(),
            mode_label(point.params["mode"].as_str().unwrap()).to_string(),
            fmt3(point.metrics["collisions"].mean),
            fmt3(point.metrics["hazard_steps"].mean),
            fmt3(point.metrics["min_time_gap_s"].mean),
            format!("{:.0}", point.metrics["throughput_vph"].mean),
            fmt_pct(point.metrics["los2_fraction"].mean),
        ]);
    }
    table.print();
    eprintln!("({} runs, {} workers, {:.2?})\n", tradeoff.total_runs, stats.workers, elapsed);
    assert_tradeoff("E01", &tradeoff, |point| {
        condition_label(
            point.params["v2v_loss"].as_f64().unwrap(),
            point.params["outage"].as_bool().unwrap(),
        )
    });

    let (per_los, _, _) = run_campaign(PER_LOS_SPEC);
    let mut table = Table::new(
        "E01b — ACC/platooning per Level of Service (8 vehicles, 180 s, 5 seeds, formerly e10)",
        &[
            "condition",
            "control",
            "design time margin [s]",
            "mean time gap [s]",
            "min time gap [s]",
            "hazard steps",
            "collisions",
            "throughput [veh/h]",
            "time at LoS2",
        ],
    );
    for point in &per_los.points {
        let mode = point.params["mode"].as_str().unwrap();
        let margin = match mode {
            "los0" => fmt3(time_margin_for_los(LevelOfService(0))),
            "los1" => fmt3(time_margin_for_los(LevelOfService(1))),
            "los2" => fmt3(time_margin_for_los(LevelOfService(2))),
            _ => "adaptive".into(),
        };
        table.add_row(&[
            per_los_condition(point).to_string(),
            mode_label(mode).to_string(),
            margin,
            fmt3(point.metrics["mean_time_gap_s"].mean),
            fmt3(point.metrics["min_time_gap_s"].mean),
            fmt3(point.metrics["hazard_steps"].mean),
            fmt3(point.metrics["collisions"].mean),
            format!("{:.0}", point.metrics["throughput_vph"].mean),
            fmt_pct(point.metrics["los2_fraction"].mean),
        ]);
    }
    table.print();
    assert_tradeoff("E01b", &per_los, per_los_condition);
    println!(
        "Expectation (paper §III, §VI-A1): the safety kernel keeps the hazard/collision figures\n\
         of the conservative baseline while retaining most of the cooperative baseline's\n\
         throughput; higher LoS ⇒ smaller time margin ⇒ higher throughput; under a V2V outage\n\
         the fixed high-LoS platoon accumulates hazard steps while the kernel adapts."
    );
}
