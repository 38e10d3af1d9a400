//! Safety-kernel-layer families: kernel evaluation cost/reaction bounds
//! (§III, experiment e14) and reliable assessment of the cooperation state
//! (§V-C, experiment e09).

use karyon_core::{AgreementProtocol, DesignTimeSafetyInfo, ProposalState, SafetyKernel};
use karyon_net::{Graph, NodeId, TopologyDiscovery};
use karyon_sensors::Validity;
use karyon_sim::{Rng, SimDuration, SimTime};

use crate::grid::ParamGrid;
use crate::scenario::{RunRecord, Scenario};
use crate::spec::ScenarioSpec;

/// Safety-kernel evaluation and the bounded LoS-switch argument (§III, the
/// body of bench `e14`): a synthetic design of configurable size is
/// evaluated for `cycles` kernel cycles and the design-time worst-case
/// reaction bound is checked against the tightest hazard reaction bound.
/// A point that fails the check (a long `cycle_period_ms`, a tight
/// `hazard_bound_ms`) runs no cycles and reports `bound_satisfied` 0,
/// `evaluations` 0 and `final_los` 0: the kernel refuses such a design, so
/// it never leaves the non-cooperative level.
///
/// The rule-set size, validity threshold, hazard bound and cycle period were
/// constants of the e14 harness; as parameters a campaign can sweep the
/// rule-set growth curve.  All metrics are deterministic model quantities —
/// wall-clock cycle cost is measured by the harness *around* the campaign
/// (`RunnerStats` + elapsed time), never inside the family, which keeps the
/// runner's bit-identity contract intact.
pub struct KernelLatencyScenario;

impl Scenario for KernelLatencyScenario {
    fn name(&self) -> &str {
        "kernel-latency"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("rules_per_level", [8, 2, 32, 128])
            .axis("cycles", [2_000])
            .axis("cycle_period_ms", [100])
            .axis("validity_threshold", [0.6])
            .axis("hazard_bound_ms", [500])
            .axis("levels", [2])
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let rules_per_level = spec.u64_or("rules_per_level", 8).clamp(0, 100_000) as usize;
        let levels = spec.u64_or("levels", 2).clamp(1, 200) as u8;
        let design = DesignTimeSafetyInfo::synthetic(
            "kernel-latency",
            levels,
            rules_per_level,
            spec.f64_or("validity_threshold", 0.6).clamp(0.0, 1.0),
            SimDuration::from_millis(spec.u64_or("hazard_bound_ms", 500).max(1)),
            SimDuration::from_millis(50),
        );
        let tightest = design.hazards().tightest_reaction_bound().expect("one hazard declared");
        let cycle_period = SimDuration::from_millis(spec.u64_or("cycle_period_ms", 100).max(1));
        let reaction = cycle_period + design.switch_time_bound();
        let feasible = design.reaction_bound_satisfied(cycle_period);
        let mut record = RunRecord::new();
        record.set("rule_conditions", (rules_per_level * 3 * levels as usize) as f64);
        let (evaluations, final_los) = if feasible {
            let mut kernel = SafetyKernel::new(design, cycle_period);
            // Populate the runtime store once, exactly like the seed e14
            // harness: every item valid and every component healthy at
            // t=1 ms.  Items age past the 500 ms freshness bound mid-run, so
            // long sweeps exercise both the rule-pass and the rule-fail
            // evaluation paths.
            for i in 0..rules_per_level {
                let (item, component) = (format!("item-{i}"), format!("component-{i}"));
                let at = SimTime::from_millis(1);
                kernel.info_mut().update_data(&item, 1.0, Validity::new(0.9), at);
                kernel.info_mut().update_health(&component, true, at);
            }
            let cycles = spec.u64_or("cycles", 2_000).clamp(1, 10_000_000);
            for i in 0..cycles {
                kernel.run_cycle(SimTime::from_millis(10 + i));
            }
            (kernel.manager().evaluations(), kernel.current_los().0)
        } else {
            (0, 0)
        };
        record.set("evaluations", evaluations as f64);
        record.set("final_los", f64::from(final_los));
        record.set("worst_case_reaction_ms", reaction.as_secs_f64() * 1e3);
        record.set("tightest_hazard_bound_ms", tightest.as_secs_f64() * 1e3);
        record.set_flag("bound_satisfied", feasible);
        record
    }
}

/// Bounded-round manoeuvre agreement under message loss (§V-C, the body of
/// bench `e09a`): one proposer runs one agreement round against
/// `participants` vehicles over a lossy broadcast with periodic
/// retransmission.  One run is one trial — Monte-Carlo replications give
/// the success rate, so the campaign owns the trial loop the bench used to
/// hand-roll.
pub struct CooperationScenario;

impl Scenario for CooperationScenario {
    fn name(&self) -> &str {
        "cooperation"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("participants", [4, 2, 8])
            .axis("loss", [0.0, 0.2, 0.5])
            .axis("deadline_ms", [300])
            .axis("retransmit_ms", [50])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "latency_ms" => Some((0.0, 10_000.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let participants = spec.u64_or("participants", 4).clamp(1, 10_000) as usize;
        let loss = spec.f64_or("loss", 0.0).clamp(0.0, 1.0);
        let deadline = SimDuration::from_millis(spec.u64_or("deadline_ms", 300).max(1));
        let retransmit = SimDuration::from_millis(spec.u64_or("retransmit_ms", 50).max(1));

        let mut rng = Rng::seed_from(spec.seed);
        let mut initiator = AgreementProtocol::new(0);
        let mut others: Vec<AgreementProtocol> =
            (1..=participants).map(|i| AgreementProtocol::new(i as u32)).collect();
        let ids: Vec<u32> = (1..=participants as u32).collect();
        let start = SimTime::ZERO;
        let (proposal_msg, id) = initiator.propose("merge", &ids, start, deadline);
        // Round trips with per-message loss, retransmitting every
        // `retransmit` until the deadline.
        let mut t = start;
        while initiator.proposal_state(id) == Some(ProposalState::Pending) && t < start + deadline {
            for other in others.iter_mut() {
                if rng.chance(loss) {
                    continue;
                }
                for response in other.on_message(&proposal_msg, t) {
                    if rng.chance(loss) {
                        continue;
                    }
                    initiator.on_message(&response, t + SimDuration::from_millis(10));
                }
            }
            t += retransmit;
            initiator.tick(t);
        }
        initiator.tick(start + deadline + SimDuration::from_millis(1));

        let agreed = initiator.proposal_state(id) == Some(ProposalState::Agreed);
        let mut record = RunRecord::new();
        record.set_flag("agreed", agreed);
        if agreed {
            record.set("latency_ms", t.since(start).as_secs_f64() * 1e3);
        }
        record
    }
}

/// Topology-level feasibility of reliable cooperation-state dissemination
/// (§V-C, the bodies of bench `e09b`/`e09c`): flooding topology-discovery
/// convergence, and the 2f+1 vertex-disjoint-path condition for
/// Byzantine-resilient dissemination, on representative topologies.
pub struct TopologyScenario;

impl Scenario for TopologyScenario {
    fn name(&self) -> &str {
        "topology"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("topology", ["ring-chords", "line", "complete"])
            .axis("nodes", [12, 6, 10])
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let nodes = spec.u64_or("nodes", 12).clamp(3, 10_000) as u32;
        let (graph, target) = match spec.str_or("topology", "ring-chords") {
            "ring-chords" => (Graph::ring_with_chords(nodes), NodeId(nodes / 2)),
            "line" => (Graph::line(nodes), NodeId(nodes - 1)),
            "complete" => (Graph::complete(nodes), NodeId(nodes - 1)),
            other => {
                panic!("unknown topology {other:?} (expected ring-chords|line|complete)")
            }
        };
        let mut record = RunRecord::new();
        record.set("nodes", graph.node_count() as f64);
        record.set("edges", graph.edge_count() as f64);
        let paths = graph.vertex_disjoint_paths(NodeId(0), target);
        record.set("disjoint_paths", paths as f64);
        record.set_flag("byzantine_f1", graph.byzantine_resilient(NodeId(0), target, 1));
        record.set_flag("byzantine_f2", graph.byzantine_resilient(NodeId(0), target, 2));
        let mut discovery = TopologyDiscovery::new(graph);
        let rounds = discovery.run_to_convergence(4 * nodes as u64 + 16);
        record.set_flag("discovery_converged", rounds.is_some());
        if let Some(rounds) = rounds {
            record.set("discovery_rounds", rounds as f64);
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builtin_registry, Campaign, CampaignEntry};

    /// The pre-refactor e14 numbers: a 100 ms cycle period plus the 50 ms
    /// switch bound give a 150 ms worst-case reaction against the 500 ms
    /// hazard bound, for every rule-set size.
    #[test]
    fn kernel_reaction_bound_matches_seed_harness_numbers() {
        for rules in [2i64, 8, 32, 128] {
            let record = KernelLatencyScenario.run(
                &ScenarioSpec::new("kernel-latency").with("rules_per_level", rules).with_seed(1),
            );
            assert_eq!(record.get("worst_case_reaction_ms"), Some(150.0));
            assert_eq!(record.get("tightest_hazard_bound_ms"), Some(500.0));
            assert_eq!(record.get("bound_satisfied"), Some(1.0));
            assert_eq!(record.get("evaluations"), Some(2_000.0), "one evaluation per cycle");
        }
    }

    /// A cycle period whose worst-case reaction (500 + 50 ms) exceeds the
    /// 500 ms hazard bound is reported as unsatisfied instead of failing the
    /// campaign, next to a feasible default point.
    #[test]
    fn infeasible_cycle_periods_report_an_unsatisfied_bound() {
        let report = Campaign::new("kernel-bound", 3)
            .entry(
                CampaignEntry::new("kernel-latency")
                    .grid(ParamGrid::new().axis("cycle_period_ms", [100, 500]))
                    .replications(2),
            )
            .run(&builtin_registry())
            .expect("an infeasible point must not fail the campaign");
        let metric = |point: usize, name: &str| report.points[point].metrics[name].mean;
        assert_eq!(report.points[0].params["cycle_period_ms"].as_f64(), Some(100.0));
        assert_eq!(metric(0, "bound_satisfied"), 1.0);
        assert_eq!(metric(0, "evaluations"), 2_000.0);
        assert_eq!(report.points[1].params["cycle_period_ms"].as_f64(), Some(500.0));
        assert_eq!(metric(1, "bound_satisfied"), 0.0);
        assert_eq!(metric(1, "evaluations"), 0.0);
        assert_eq!(metric(1, "final_los"), 0.0);
        assert_eq!(metric(1, "worst_case_reaction_ms"), 550.0);
        assert_eq!(metric(1, "tightest_hazard_bound_ms"), 500.0);
        assert_eq!(metric(1, "rule_conditions"), metric(0, "rule_conditions"));
        // A tight hazard bound is infeasible at the default cycle period.
        let tight = KernelLatencyScenario
            .run(&ScenarioSpec::new("kernel-latency").with("hazard_bound_ms", 149).with_seed(1));
        assert_eq!(tight.get("bound_satisfied"), Some(0.0));
        assert_eq!(tight.get("worst_case_reaction_ms"), Some(150.0));
    }

    #[test]
    fn agreement_succeeds_without_loss_and_can_fail_under_heavy_loss() {
        let base = ScenarioSpec::new("cooperation").with_seed(13);
        let clean = CooperationScenario.run(&base.clone());
        assert_eq!(clean.get("agreed"), Some(1.0), "{clean:?}");
        assert!(clean.get("latency_ms").unwrap() <= 300.0);
        // Under 90 % loss most trials abort (never inconsistently agree).
        let mut failures = 0;
        for seed in 0..20 {
            let lossy =
                CooperationScenario.run(&base.clone().with("loss", 0.9).with_seed(100 + seed));
            if lossy.get("agreed") == Some(0.0) {
                failures += 1;
            }
        }
        assert!(failures > 0, "90% loss should abort at least one of 20 trials");
    }

    #[test]
    fn denser_topologies_provide_byzantine_disjoint_paths() {
        let ring = TopologyScenario
            .run(&ScenarioSpec::new("topology").with("topology", "ring-chords").with("nodes", 12));
        assert_eq!(ring.get("byzantine_f1"), Some(1.0), "{ring:?}");
        assert_eq!(ring.get("discovery_converged"), Some(1.0));
        let complete = TopologyScenario
            .run(&ScenarioSpec::new("topology").with("topology", "complete").with("nodes", 6));
        assert_eq!(complete.get("byzantine_f2"), Some(1.0), "{complete:?}");
        assert!(
            complete.get("disjoint_paths").unwrap() > ring.get("disjoint_paths").unwrap()
                || complete.get("disjoint_paths").unwrap() >= 5.0
        );
    }
}
