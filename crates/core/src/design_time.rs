//! Design Time Safety Information: the per-LoS rule sets produced by the
//! design-time hazard analysis.
//!
//! "The Design Time Safety Information component holds a set of predefined
//! safety rules establishing the conditions for functional safety assurance
//! in each LoS.  A certain functionality will only be safe in a given LoS
//! (excluding the lower one), if the associated set of safety rules is
//! satisfied at run time" (paper §III).

use karyon_sim::SimDuration;

use crate::los::{Asil, HazardAnalysis, LevelOfService};
use crate::rules::{RuleId, SafetyRule};

/// The specification of one Level of Service of one functionality.
#[derive(Debug, Clone)]
pub struct LosSpec {
    /// The level being specified.
    pub level: LevelOfService,
    /// Human-readable description (e.g. `"cooperative ACC, 0.5 s headway"`).
    pub description: String,
    /// The safety rules that must all hold for this level to be safe.
    /// The non-cooperative level conventionally has an empty rule set.
    pub rules: Vec<SafetyRule>,
    /// The integrity level (ASIL) assigned to operating at this LoS.
    pub asil: Asil,
    /// A scalar performance index for reporting (higher = better
    /// performance), e.g. the admissible speed or the inverse time margin.
    pub performance_index: f64,
}

/// The Design Time Safety Information for one functionality.
#[derive(Debug, Clone)]
pub struct DesignTimeSafetyInfo {
    functionality: String,
    levels: Vec<LosSpec>,
    hazards: HazardAnalysis,
    /// Design-time bound on the time needed to switch between any two LoS.
    switch_time_bound: SimDuration,
}

impl DesignTimeSafetyInfo {
    /// Creates the design-time information for a functionality.
    ///
    /// `levels` must be non-empty and contain the non-cooperative level 0;
    /// they are sorted by level.
    ///
    /// # Panics
    /// Panics if `levels` is empty or level 0 is missing or duplicated.
    pub fn new(
        functionality: &str,
        mut levels: Vec<LosSpec>,
        hazards: HazardAnalysis,
        switch_time_bound: SimDuration,
    ) -> Self {
        assert!(!levels.is_empty(), "at least one LoS must be specified");
        levels.sort_by_key(|l| l.level);
        let zero_count =
            levels.iter().filter(|l| l.level == LevelOfService::NON_COOPERATIVE).count();
        assert_eq!(zero_count, 1, "exactly one non-cooperative (level 0) spec is required");
        let mut seen = std::collections::BTreeSet::new();
        for l in &levels {
            assert!(seen.insert(l.level), "duplicate LoS {:?}", l.level);
        }
        DesignTimeSafetyInfo {
            functionality: functionality.to_string(),
            levels,
            hazards,
            switch_time_bound,
        }
    }

    /// Builds a synthetic design of configurable size for kernel-latency
    /// experiments: one fallback level 0 plus `levels` cooperative levels,
    /// each holding `rules_per_level` three-condition rules (minimum
    /// validity, maximum age, component health) over distinct data items, a
    /// single hazard with reaction bound `hazard_bound`, and the given LoS
    /// switch-time bound.
    ///
    /// The rule-set size, the validity threshold and the bounds were
    /// hard-coded in the e14 bench harness; as constructor parameters they
    /// become campaign-sweepable knobs (the `kernel-latency` scenario
    /// family).
    pub fn synthetic(
        functionality: &str,
        levels: u8,
        rules_per_level: usize,
        validity_threshold: f64,
        hazard_bound: SimDuration,
        switch_time_bound: SimDuration,
    ) -> Self {
        use crate::los::Hazard;
        use crate::rules::Condition;
        assert!(levels >= 1, "a synthetic design needs at least one cooperative level");
        let mut hazards = HazardAnalysis::new();
        hazards.add(Hazard::new("H1", "generic hazard", Asil::C, hazard_bound));
        let mut specs = vec![LosSpec {
            level: LevelOfService(0),
            description: "fallback".into(),
            rules: vec![],
            asil: Asil::QM,
            performance_index: 1.0,
        }];
        for level in 1..=levels {
            let rules: Vec<SafetyRule> = (0..rules_per_level)
                .map(|i| {
                    SafetyRule::new(
                        &format!("R{level}-{i}"),
                        Condition::All(vec![
                            Condition::MinValidity {
                                item: format!("item-{i}"),
                                threshold: validity_threshold,
                            },
                            Condition::MaxAge {
                                item: format!("item-{i}"),
                                bound: SimDuration::from_millis(500),
                            },
                            Condition::ComponentHealthy { component: format!("component-{i}") },
                        ]),
                    )
                })
                .collect();
            specs.push(LosSpec {
                level: LevelOfService(level),
                description: format!("level {level}"),
                rules,
                asil: Asil::B,
                performance_index: level as f64 + 1.0,
            });
        }
        DesignTimeSafetyInfo::new(functionality, specs, hazards, switch_time_bound)
    }

    /// The functionality's name.
    pub fn functionality(&self) -> &str {
        &self.functionality
    }

    /// The specifications, ordered from the lowest to the highest level.
    pub fn levels(&self) -> &[LosSpec] {
        &self.levels
    }

    /// The specification of a given level, if defined.
    pub fn spec(&self, level: LevelOfService) -> Option<&LosSpec> {
        self.levels.iter().find(|l| l.level == level)
    }

    /// The rule a decision names by `id` (see
    /// [`LosDecision::violations`](crate::LosDecision::violations)).
    ///
    /// # Panics
    /// Panics if `id` names no rule of this design.
    pub fn rule(&self, id: RuleId) -> &SafetyRule {
        self.spec(id.level)
            .and_then(|spec| spec.rules.get(id.index as usize))
            .unwrap_or_else(|| panic!("{id:?} names no rule of {:?}", self.functionality))
    }

    /// The highest defined level.
    pub fn highest_level(&self) -> LevelOfService {
        self.levels.last().map(|l| l.level).unwrap_or(LevelOfService::NON_COOPERATIVE)
    }

    /// The design-time hazard analysis.
    pub fn hazards(&self) -> &HazardAnalysis {
        &self.hazards
    }

    /// The design-time bound on LoS switching time.
    pub fn switch_time_bound(&self) -> SimDuration {
        self.switch_time_bound
    }

    /// Checks the fundamental design constraint: the safety-manager cycle
    /// period plus the switch bound must not exceed the tightest hazard
    /// reaction bound (otherwise "arguing about safety" is impossible).
    pub fn reaction_bound_satisfied(&self, manager_cycle: SimDuration) -> bool {
        match self.hazards.tightest_reaction_bound() {
            None => true,
            Some(bound) => manager_cycle + self.switch_time_bound <= bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::los::Hazard;
    use crate::rules::Condition;

    fn spec(level: u8, rules: Vec<SafetyRule>) -> LosSpec {
        LosSpec {
            level: LevelOfService(level),
            description: format!("level {level}"),
            rules,
            asil: Asil::B,
            performance_index: level as f64,
        }
    }

    fn sample() -> DesignTimeSafetyInfo {
        let mut hazards = HazardAnalysis::new();
        hazards.add(Hazard::new("H1", "collision", Asil::C, SimDuration::from_millis(500)));
        DesignTimeSafetyInfo::new(
            "acc",
            vec![
                spec(
                    2,
                    vec![SafetyRule::new(
                        "R2",
                        Condition::ComponentHealthy { component: "v2v".into() },
                    )],
                ),
                spec(0, vec![]),
                spec(
                    1,
                    vec![SafetyRule::new(
                        "R1",
                        Condition::ComponentHealthy { component: "radar".into() },
                    )],
                ),
            ],
            hazards,
            SimDuration::from_millis(100),
        )
    }

    #[test]
    fn levels_are_sorted_and_accessible() {
        let d = sample();
        assert_eq!(d.functionality(), "acc");
        let order: Vec<u8> = d.levels().iter().map(|l| l.level.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(d.highest_level(), LevelOfService(2));
        assert!(d.spec(LevelOfService(1)).is_some());
        assert!(d.spec(LevelOfService(7)).is_none());
        assert_eq!(d.switch_time_bound(), SimDuration::from_millis(100));
        assert_eq!(d.hazards().hazards().len(), 1);
    }

    #[test]
    fn reaction_bound_check() {
        let d = sample();
        // 100 ms cycle + 100 ms switch <= 500 ms reaction bound.
        assert!(d.reaction_bound_satisfied(SimDuration::from_millis(100)));
        // 450 ms cycle + 100 ms switch > 500 ms.
        assert!(!d.reaction_bound_satisfied(SimDuration::from_millis(450)));
    }

    #[test]
    #[should_panic(expected = "non-cooperative")]
    fn missing_level_zero_is_rejected() {
        let _ = DesignTimeSafetyInfo::new(
            "f",
            vec![spec(1, vec![])],
            HazardAnalysis::new(),
            SimDuration::from_millis(10),
        );
    }

    #[test]
    #[should_panic(expected = "at least one LoS")]
    fn empty_levels_are_rejected() {
        let _ = DesignTimeSafetyInfo::new(
            "f",
            vec![],
            HazardAnalysis::new(),
            SimDuration::from_millis(10),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate LoS")]
    fn duplicate_levels_are_rejected() {
        let _ = DesignTimeSafetyInfo::new(
            "f",
            vec![spec(0, vec![]), spec(1, vec![]), spec(1, vec![])],
            HazardAnalysis::new(),
            SimDuration::from_millis(10),
        );
    }
}
