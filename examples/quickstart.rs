//! Quickstart: build a safety kernel, feed it run-time safety information and
//! watch it select the Level of Service.
//!
//! Run with: `cargo run --example quickstart`

use karyon::core::los::Asil;
use karyon::core::{
    Condition, DesignTimeSafetyInfo, Hazard, HazardAnalysis, LevelOfService, LosSpec, SafetyKernel,
    SafetyRule,
};
use karyon::sensors::Validity;
use karyon::sim::{SimDuration, SimTime};

fn main() {
    // 1. Design time: hazard analysis and per-LoS safety rules.
    let mut hazards = HazardAnalysis::new();
    hazards.add(Hazard::new(
        "H1-rear-end",
        "rear-end collision with the preceding vehicle",
        Asil::C,
        SimDuration::from_millis(600),
    ));
    let design = DesignTimeSafetyInfo::new(
        "adaptive-cruise-control",
        vec![
            LosSpec {
                level: LevelOfService(0),
                description: "autonomous sensors only (1.8 s time margin)".into(),
                rules: vec![],
                asil: Asil::QM,
                performance_index: 1.0,
            },
            LosSpec {
                level: LevelOfService(1),
                description: "cooperative awareness (1.2 s time margin)".into(),
                rules: vec![SafetyRule::new(
                    "R1-range-validity",
                    Condition::MinValidity { item: "front-range".into(), threshold: 0.5 },
                )],
                asil: Asil::B,
                performance_index: 2.0,
            },
            LosSpec {
                level: LevelOfService(2),
                description: "fully cooperative CACC (0.6 s time margin)".into(),
                rules: vec![
                    SafetyRule::new(
                        "R2-v2v-health",
                        Condition::ComponentHealthy { component: "v2v-radio".into() },
                    ),
                    SafetyRule::new(
                        "R3-v2v-freshness",
                        Condition::MaxAge {
                            item: "lead-state".into(),
                            bound: SimDuration::from_millis(300),
                        },
                    ),
                ],
                asil: Asil::C,
                performance_index: 3.0,
            },
        ],
        hazards,
        SimDuration::from_millis(50),
    );

    // 2. Run time: the kernel evaluates the rules every 100 ms.
    let mut kernel = SafetyKernel::new(design, SimDuration::from_millis(100));
    println!("worst-case reaction: {}", kernel.worst_case_reaction());

    // Healthy situation: everything fresh and valid -> highest LoS.
    let t0 = SimTime::from_millis(100);
    kernel.info_mut().update_data("front-range", 42.0, Validity::new(0.95), t0);
    kernel.info_mut().update_health("v2v-radio", true, t0);
    kernel.info_mut().update_data("lead-state", 27.0, Validity::FULL, t0);
    let decision = kernel.run_cycle(t0);
    println!("t=0.1s  healthy          -> {}", decision.selected);

    // The V2V radio stops responding: the kernel degrades to LoS 1.
    let t1 = SimTime::from_millis(200);
    kernel.info_mut().update_health("v2v-radio", false, t1);
    kernel.run_cycle(t1);
    // A decision names its failed rules by compact id; the design maps each
    // id back to the rule.
    let decision = kernel.last_decision().expect("a cycle ran");
    let design = kernel.manager().design();
    let violated: Vec<String> = decision
        .rejected()
        .map(|level| {
            let rules: Vec<&str> =
                decision.violations.iter().map(|&id| design.rule(id).id.as_str()).collect();
            format!("{level}: {rules:?}")
        })
        .into_iter()
        .collect();
    println!("t=0.2s  V2V radio failed -> {} (violated: {violated:?})", decision.selected);

    // The range sensor degrades too: fall back to the non-cooperative level.
    let t2 = SimTime::from_millis(300);
    kernel.info_mut().update_data("front-range", 42.0, Validity::new(0.2), t2);
    let decision = kernel.run_cycle(t2);
    println!("t=0.3s  sensor degraded  -> {}", decision.selected);
    assert!(decision.selected.is_non_cooperative());

    println!("\nLoS switches recorded: {}", kernel.switches().len());
    for switch in kernel.switches() {
        println!(
            "  at {} from {} to {} (latency bound {})",
            switch.at, switch.from, switch.to, switch.latency
        );
    }
}
