//! The Safety Manager and the Safety Kernel.
//!
//! "The Safety Manager is the component that triggers changes in the
//! operation of the nominal system components in order to adjust the LoS as
//! necessary … The safety manager will periodically check the run time safety
//! data against safety rules and make the necessary adjustments in the
//! nominal system components.  Upper bounds on the time needed to perform
//! each cycle will be known at design time" (paper §III).

use karyon_sim::{SimDuration, SimTime};

use crate::design_time::DesignTimeSafetyInfo;
use crate::los::LevelOfService;
use crate::rules::{Program, RuleId};
use crate::runtime::RunTimeSafetyInfo;

/// The outcome of one safety-manager evaluation cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct LosDecision {
    /// The highest level whose rules all hold (the level to enforce).
    pub selected: LevelOfService,
    /// The level that was active before this cycle.
    pub previous: LevelOfService,
    /// The failed rules of the level this cycle rejected — the first level,
    /// walking upwards, whose rule set did not hold — in rule order; empty
    /// when every level held.  [`DesignTimeSafetyInfo::rule`] maps an id
    /// back to its rule.
    pub violations: Vec<RuleId>,
    /// When the decision was made.
    pub decided_at: SimTime,
}

impl LosDecision {
    /// True when the cycle changed the Level of Service.
    pub fn switched(&self) -> bool {
        self.selected != self.previous
    }

    /// True when the cycle lowered the Level of Service (a safety-driven
    /// degradation).
    pub fn degraded(&self) -> bool {
        self.selected < self.previous
    }

    /// The level whose rules failed, if the cycle rejected one.
    pub fn rejected(&self) -> Option<LevelOfService> {
        self.violations.first().map(|id| id.level)
    }
}

/// A record of one LoS switch, used to verify the bounded-switch property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// When the switch was decided.
    pub at: SimTime,
    /// The level before the switch.
    pub from: LevelOfService,
    /// The level after the switch.
    pub to: LevelOfService,
    /// How long enacting the switch took (reconfiguration latency).
    pub latency: SimDuration,
}

/// The Safety Manager: evaluates safety rules and selects the LoS.
///
/// The manager holds every level's rules compiled against its kernel's
/// run-time store, and one decision whose buffers each cycle reuses, so a
/// cycle allocates nothing.
#[derive(Debug, Clone)]
pub struct SafetyManager {
    design: DesignTimeSafetyInfo,
    /// One program per level of `design`, in level order.
    programs: Vec<Program>,
    /// The store layout `programs` resolves against.
    layout: u64,
    current: LevelOfService,
    evaluations: u64,
    decision: LosDecision,
}

impl SafetyManager {
    /// Creates a manager that starts at the non-cooperative level, with the
    /// design's rules compiled against `info`.
    fn new(design: DesignTimeSafetyInfo, info: &mut RunTimeSafetyInfo) -> Self {
        let most_rules = design.levels().iter().map(|spec| spec.rules.len()).max().unwrap_or(0);
        let mut manager = SafetyManager {
            design,
            programs: Vec::new(),
            layout: info.layout(),
            current: LevelOfService::NON_COOPERATIVE,
            evaluations: 0,
            decision: LosDecision {
                selected: LevelOfService::NON_COOPERATIVE,
                previous: LevelOfService::NON_COOPERATIVE,
                violations: Vec::with_capacity(most_rules),
                decided_at: SimTime::ZERO,
            },
        };
        manager.compile(info);
        manager
    }

    /// Resolves every level's rules to slots of `info`, interning the names
    /// the store has not seen yet.
    fn compile(&mut self, info: &mut RunTimeSafetyInfo) {
        self.programs = self
            .design
            .levels()
            .iter()
            .map(|spec| {
                let mut program = Program::default();
                for rule in &spec.rules {
                    program
                        .push(&rule.condition, &mut |namespace, name| info.intern(namespace, name));
                }
                program
            })
            .collect();
        self.layout = info.layout();
    }

    /// The design-time safety information driving this manager.
    pub fn design(&self) -> &DesignTimeSafetyInfo {
        &self.design
    }

    /// The currently selected Level of Service.
    pub fn current(&self) -> LevelOfService {
        self.current
    }

    /// Number of evaluation cycles performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Performs one evaluation cycle: checks every level's rules against the
    /// run-time safety information and selects the highest safe level.
    /// `info` must be the store the rules were compiled against.
    fn evaluate(&mut self, info: &RunTimeSafetyInfo, now: SimTime) -> &LosDecision {
        self.evaluations += 1;
        let decision = &mut self.decision;
        decision.previous = self.current;
        decision.decided_at = now;
        decision.violations.clear();
        let mut selected = LevelOfService::NON_COOPERATIVE;
        // Levels are ordered; walk from the lowest to the highest and keep
        // the highest level whose *entire* rule set holds.  A higher level is
        // only reachable if every lower level also holds (the rule sets are
        // cumulative by construction of the use cases).
        for (spec, program) in self.design.levels().iter().zip(&self.programs) {
            program.for_each_failure(info, |index| {
                // Fits: every rule compiles to at least one node, and a
                // program holds fewer than `u32::MAX` nodes.
                let index = index as u32;
                decision.violations.push(RuleId { level: spec.level, index });
            });
            if !decision.violations.is_empty() {
                break;
            }
            selected = spec.level;
        }
        decision.selected = selected;
        self.current = selected;
        decision
    }
}

/// The Safety Kernel: the Safety Manager plus the run-time information store,
/// periodic execution and switch-latency accounting.  There is logically one
/// kernel per vehicle.
///
/// The kernel compiles its rules against its own store when it is built;
/// names first written later get new slots and leave the compiled rules
/// untouched.  Should the store be replaced wholesale through
/// [`info_mut`](Self::info_mut), the next cycle compiles the rules again
/// against the replacement.
#[derive(Debug)]
pub struct SafetyKernel {
    manager: SafetyManager,
    info: RunTimeSafetyInfo,
    cycle_period: SimDuration,
    next_cycle: SimTime,
    switches: Vec<SwitchEvent>,
}

impl SafetyKernel {
    /// Creates a kernel with the given design-time information and cycle
    /// period, compiling every level's rules against the kernel's store.
    ///
    /// # Panics
    /// Panics if the cycle period is zero, or if the cycle period plus the
    /// design-time switch bound exceeds the tightest hazard reaction bound
    /// (in which case safety cannot be argued, per §III).
    pub fn new(design: DesignTimeSafetyInfo, cycle_period: SimDuration) -> Self {
        assert!(!cycle_period.is_zero(), "cycle period must be non-zero");
        assert!(
            design.reaction_bound_satisfied(cycle_period),
            "cycle period + switch bound exceeds the tightest hazard reaction bound"
        );
        let mut info = RunTimeSafetyInfo::new();
        SafetyKernel {
            manager: SafetyManager::new(design, &mut info),
            info,
            cycle_period,
            next_cycle: SimTime::ZERO,
            switches: Vec::new(),
        }
    }

    /// The kernel's cycle period.
    pub fn cycle_period(&self) -> SimDuration {
        self.cycle_period
    }

    /// The current Level of Service.
    pub fn current_los(&self) -> LevelOfService {
        self.manager.current()
    }

    /// Mutable access to the run-time safety information (data collection).
    pub fn info_mut(&mut self) -> &mut RunTimeSafetyInfo {
        &mut self.info
    }

    /// Shared access to the run-time safety information.
    pub fn info(&self) -> &RunTimeSafetyInfo {
        &self.info
    }

    /// The manager (e.g. to inspect the design-time information).
    pub fn manager(&self) -> &SafetyManager {
        &self.manager
    }

    /// The most recent decision, if a cycle has run.  The kernel reuses one
    /// decision for every cycle, so this borrows it rather than cloning.
    pub fn last_decision(&self) -> Option<&LosDecision> {
        (self.manager.evaluations > 0).then_some(&self.manager.decision)
    }

    /// All recorded LoS switches.
    pub fn switches(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// Runs the periodic cycle if it is due at `now`; returns the decision if
    /// a cycle was executed.  The enacted switch latency is bounded by the
    /// design-time switch bound (modelled as exactly that bound, the worst
    /// case used in the safety argument).
    pub fn step(&mut self, now: SimTime) -> Option<&LosDecision> {
        if now < self.next_cycle {
            return None;
        }
        self.next_cycle = now + self.cycle_period;
        Some(self.run_cycle(now))
    }

    /// Forces an evaluation cycle at `now` regardless of the period (used
    /// when a critical event demands immediate reassessment).  The returned
    /// decision is the kernel's own, overwritten by the next cycle; a cycle
    /// that does not switch the level allocates nothing.
    pub fn run_cycle(&mut self, now: SimTime) -> &LosDecision {
        self.info.set_now(now);
        if self.manager.layout != self.info.layout() {
            self.manager.compile(&mut self.info);
        }
        let latency = self.manager.design().switch_time_bound();
        let decision = self.manager.evaluate(&self.info, now);
        if decision.switched() {
            self.switches.push(SwitchEvent {
                at: now,
                from: decision.previous,
                to: decision.selected,
                latency,
            });
        }
        decision
    }

    /// The worst-case time from a rule being violated to the lower LoS being
    /// enforced: one full cycle period (detection latency) plus the switch
    /// bound (enactment latency).  This is the quantity that must stay below
    /// every hazard's reaction bound.
    pub fn worst_case_reaction(&self) -> SimDuration {
        self.cycle_period + self.manager.design().switch_time_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_time::LosSpec;
    use crate::los::{Asil, Hazard, HazardAnalysis};
    use crate::rules::{Condition, SafetyRule};
    use karyon_sensors::Validity;

    fn design() -> DesignTimeSafetyInfo {
        let mut hazards = HazardAnalysis::new();
        hazards.add(Hazard::new("H1", "rear-end", Asil::C, SimDuration::from_millis(500)));
        DesignTimeSafetyInfo::new(
            "acc",
            vec![
                LosSpec {
                    level: LevelOfService(0),
                    description: "autonomous sensors only".into(),
                    rules: vec![],
                    asil: Asil::QM,
                    performance_index: 1.0,
                },
                LosSpec {
                    level: LevelOfService(1),
                    description: "cooperative with degraded data".into(),
                    rules: vec![SafetyRule::new(
                        "R1-v2v-health",
                        Condition::ComponentHealthy { component: "v2v".into() },
                    )],
                    asil: Asil::B,
                    performance_index: 2.0,
                },
                LosSpec {
                    level: LevelOfService(2),
                    description: "fully cooperative".into(),
                    rules: vec![
                        SafetyRule::new(
                            "R2-v2v-health",
                            Condition::ComponentHealthy { component: "v2v".into() },
                        ),
                        SafetyRule::new(
                            "R3-remote-validity",
                            Condition::MinValidity {
                                item: "remote-headway".into(),
                                threshold: 0.8,
                            },
                        ),
                    ],
                    asil: Asil::C,
                    performance_index: 3.0,
                },
            ],
            hazards,
            SimDuration::from_millis(50),
        )
    }

    fn kernel() -> SafetyKernel {
        SafetyKernel::new(design(), SimDuration::from_millis(100))
    }

    /// The names of the rules the kernel's last decision reports as failed.
    fn violated(k: &SafetyKernel) -> Vec<&str> {
        let decision = k.last_decision().expect("a cycle ran");
        decision.violations.iter().map(|&id| k.manager().design().rule(id).id.as_str()).collect()
    }

    #[test]
    fn starts_at_non_cooperative_level() {
        let k = kernel();
        assert_eq!(k.current_los(), LevelOfService::NON_COOPERATIVE);
        assert!(k.last_decision().is_none());
        assert_eq!(k.cycle_period(), SimDuration::from_millis(100));
    }

    #[test]
    fn selects_highest_level_whose_rules_hold() {
        let mut k = kernel();
        let now = SimTime::from_millis(100);
        k.info_mut().update_health("v2v", true, now);
        k.info_mut().update_data("remote-headway", 1.5, Validity::new(0.9), now);
        let d = k.run_cycle(now);
        assert_eq!(d.selected, LevelOfService(2));
        assert!(d.switched());
        assert!(!d.degraded());
        assert!(d.violations.is_empty());
        assert_eq!(k.current_los(), LevelOfService(2));
    }

    #[test]
    fn degrades_when_rules_break_and_reports_violations() {
        let mut k = kernel();
        let t0 = SimTime::from_millis(100);
        k.info_mut().update_health("v2v", true, t0);
        k.info_mut().update_data("remote-headway", 1.5, Validity::new(0.9), t0);
        k.run_cycle(t0);
        assert_eq!(k.current_los(), LevelOfService(2));
        // Remote data degrades below the validity threshold.
        let t1 = SimTime::from_millis(200);
        k.info_mut().update_data("remote-headway", 1.5, Validity::new(0.3), t1);
        let d = k.run_cycle(t1);
        assert_eq!(d.selected, LevelOfService(1));
        assert!(d.degraded());
        assert_eq!(d.rejected(), Some(LevelOfService(2)));
        assert_eq!(violated(&k), vec!["R3-remote-validity"]);
        // V2V dies entirely: fall back to non-cooperative.
        let t2 = SimTime::from_millis(300);
        k.info_mut().update_health("v2v", false, t2);
        let d = k.run_cycle(t2);
        assert_eq!(d.selected, LevelOfService::NON_COOPERATIVE);
        assert_eq!(k.switches().len(), 3);
        assert!(k.switches().iter().all(|s| s.latency == SimDuration::from_millis(50)));
    }

    #[test]
    fn periodic_step_respects_cycle_period() {
        let mut k = kernel();
        assert!(k.step(SimTime::from_millis(0)).is_some());
        assert!(k.step(SimTime::from_millis(50)).is_none());
        assert!(k.step(SimTime::from_millis(100)).is_some());
        assert_eq!(k.manager().evaluations(), 2);
        assert_eq!(k.last_decision().unwrap().decided_at, SimTime::from_millis(100));
    }

    #[test]
    fn replacing_the_store_recompiles_the_rules() {
        let mut k = kernel();
        // The replacement learns an unrelated item first, so its slots
        // differ from the ones the rules were compiled against.
        let now = SimTime::from_millis(100);
        let mut store = RunTimeSafetyInfo::new();
        store.update_data("unrelated", 0.0, Validity::new(0.1), now);
        store.update_data("remote-headway", 1.5, Validity::new(0.9), now);
        store.update_health("v2v", true, now);
        *k.info_mut() = store;
        assert_eq!(k.run_cycle(now).selected, LevelOfService(2));
        assert!(k.last_decision().unwrap().violations.is_empty());
    }

    #[test]
    fn worst_case_reaction_is_cycle_plus_switch_bound() {
        let k = kernel();
        assert_eq!(k.worst_case_reaction(), SimDuration::from_millis(150));
        // And by construction it is below the tightest hazard bound (500 ms).
        assert!(k.worst_case_reaction() <= SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "reaction bound")]
    fn kernel_rejects_unsafe_cycle_period() {
        // 480 ms cycle + 50 ms switch bound > 500 ms hazard reaction bound.
        let _ = SafetyKernel::new(design(), SimDuration::from_millis(480));
    }

    #[test]
    fn higher_level_unreachable_if_lower_level_fails() {
        // Even if level 2's own rules hold, a violated level 1 blocks it.
        let mut k = kernel();
        let now = SimTime::from_millis(100);
        // v2v unhealthy breaks level 1's rule (shared with level 2's R2).
        k.info_mut().update_health("v2v", false, now);
        k.info_mut().update_data("remote-headway", 1.0, Validity::FULL, now);
        let d = k.run_cycle(now);
        assert_eq!(d.selected, LevelOfService::NON_COOPERATIVE);
        assert_eq!(d.violations[0].level, LevelOfService(1));
        assert_eq!(violated(&k), vec!["R1-v2v-health"]);
    }
}
