//! Named scenario families and the builtin registry over the workspace's
//! experiment bodies.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::families;
use crate::grid::ParamGrid;
use crate::json::{self, ObjectWriter};
use crate::scenario::Scenario;
use crate::spec::ParamValue;

/// A registry of named scenario families.
///
/// Families are stored behind `Arc` so the registry can be shared with the
/// campaign worker threads; the `BTreeMap` keeps [`ScenarioRegistry::names`]
/// deterministic.
#[derive(Clone, Default)]
pub struct ScenarioRegistry {
    families: BTreeMap<String, Arc<dyn Scenario>>,
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry").field("families", &self.names()).finish()
    }
}

impl ScenarioRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Registers a family under its own [`Scenario::name`]; replaces any
    /// previous family of the same name.
    pub fn register(&mut self, scenario: Arc<dyn Scenario>) {
        self.families.insert(scenario.name().to_string(), scenario);
    }

    /// Looks up a family by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Scenario>> {
        self.families.get(name)
    }

    /// The registered family names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.families.keys().cloned().collect()
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when no family is registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Describes every registered family — name and declared parameter
    /// domain — in name order.
    pub fn describe(&self) -> Vec<FamilyInfo> {
        self.families
            .values()
            .map(|scenario| FamilyInfo {
                name: scenario.name().to_string(),
                params: scenario
                    .param_domain()
                    .axes()
                    .iter()
                    .map(|(name, values)| ParamInfo {
                        name: name.clone(),
                        type_name: values[0].type_name(),
                        default: values[0].clone(),
                        domain: values.clone(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// The machine-readable family listing behind
    /// `karyon-campaign list-families --output json`:
    ///
    /// ```json
    /// {"families": [{"name": "tdma",
    ///   "params": [{"name": "nodes", "type": "int", "default": 8,
    ///               "domain": [8, 4, 12]}, ...]}, ...]}
    /// ```
    ///
    /// Parameter entries carry the declared type, the default (the first
    /// domain value) and the full default sweep domain, so external tooling
    /// can generate valid campaign specs without parsing rustdoc.
    pub fn describe_json(&self) -> String {
        let families: Vec<String> = self
            .describe()
            .iter()
            .map(|family| {
                let params: Vec<String> = family
                    .params
                    .iter()
                    .map(|p| {
                        let domain: Vec<String> =
                            p.domain.iter().map(ParamValue::to_json).collect();
                        let mut o = ObjectWriter::new();
                        o.string("name", &p.name);
                        o.string("type", p.type_name);
                        o.raw("default", &p.default.to_json());
                        o.raw("domain", &json::array(&domain));
                        o.finish()
                    })
                    .collect();
                let mut o = ObjectWriter::new();
                o.string("name", &family.name);
                o.raw("params", &json::array(&params));
                o.finish()
            })
            .collect();
        let mut root = ObjectWriter::new();
        root.raw("families", &json::array(&families));
        root.finish()
    }
}

/// One family's entry in [`ScenarioRegistry::describe`].
#[derive(Debug, Clone)]
pub struct FamilyInfo {
    /// The registered family name.
    pub name: String,
    /// The declared parameters, in [`Scenario::param_domain`] axis order.
    pub params: Vec<ParamInfo>,
}

/// One parameter of one family, as declared by
/// [`Scenario::param_domain`].
#[derive(Debug, Clone)]
pub struct ParamInfo {
    /// The parameter name.
    pub name: String,
    /// The JSON-facing type name (`int`, `float`, `bool`, `text`).
    pub type_name: &'static str,
    /// The default value (the first value of the declared axis).
    pub default: ParamValue,
    /// The full declared sweep domain.
    pub domain: Vec<ParamValue>,
}

impl FamilyInfo {
    /// The default [`ParamGrid`] of this family: every declared parameter
    /// pinned to its default value — the grid a generated all-families
    /// smoke spec uses.
    pub fn default_grid(&self) -> ParamGrid {
        let mut grid = ParamGrid::new();
        for p in &self.params {
            grid = grid.axis_values(&p.name, vec![p.default.clone()]);
        }
        grid
    }
}

/// Builds a registry with every builtin scenario family — one per KARYON
/// evaluation experiment (see [`families`] for the full module tour):
///
/// | family | layer | adapted from | key parameters |
/// |---|---|---|---|
/// | `platoon` | vehicles | `run_platoon` (e01/e10) | `mode`, `vehicles`, `v2v_loss`, `lead_braking`, `outage` |
/// | `platoon-fault` | vehicles | bench e15 body | `mode`, `vehicles` |
/// | `intersection` | vehicles | `run_intersection` (e11) | `fallback`, `arrivals_per_minute`, `light_fail` |
/// | `lane-change` | vehicles | `run_lane_changes` (e12) | `coordination`, `vehicles`, `message_loss`, `desire_rate` |
/// | `avionics-rpv` | vehicles | `run_encounter` (e13) | `encounter`, `traffic`, `resolution` |
/// | `middleware-qos` | middleware | `EventBus` at a fixed publish rate (e08) | `rate_hz`, `degrade`, `network`, `max_latency_ms`, `min_delivery_ratio` |
/// | `middleware-overload` | middleware | EventBus v2 backpressure (e08) | `load_x`, `qos_mix`, `backlog_threshold`, `strategy` |
/// | `tdma` | net | self-stabilizing TDMA (e05) | `nodes`, `adversarial`, `slots_per_frame`, `churn` |
/// | `inaccessibility` | net | CSMA / R2T-MAC under jamming (e04) | `mac`, `burst_ms`, `copies`, `nodes`, `gap_s`, `loss`, `long_burst` |
/// | `pulse-sync` | net | autonomous pulse alignment (e06) | `drift_ppm`, `loss`, `gain`, `nodes`, `period_ms` |
/// | `end-to-end` | net | self-stabilizing FIFO (e07) | `omission`, `duplication`, `capacity`, `corrupt`, `messages` |
/// | `net-transport` | transport | simulated campaign fabric (ROADMAP 1/4) | `nodes`, `messages`, `drop`, `duplicate`, `reorder`, `partition` |
/// | `sensor-validity` | sensors | validity estimation (e02) | `fault`, `noise_std`, `timeout_ms`, `max_rate`, fault magnitudes |
/// | `reliable-sensor` | sensors | abstract reliable sensor (e03) | `config`, `fault`, `replicas`, `noise_std`, fault magnitudes |
/// | `kernel-latency` | core | safety-kernel cycles (e14) | `rules_per_level`, `cycles`, `cycle_period_ms`, `validity_threshold` |
/// | `cooperation` | core | manoeuvre agreement (e09a) | `participants`, `loss`, `deadline_ms`, `retransmit_ms` |
/// | `topology` | net/core | discovery + Byzantine paths (e09b/c) | `topology`, `nodes` |
pub fn builtin_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(families::PlatoonScenario));
    registry.register(Arc::new(families::PlatoonFaultScenario));
    registry.register(Arc::new(families::IntersectionScenario));
    registry.register(Arc::new(families::LaneChangeScenario));
    registry.register(Arc::new(families::AvionicsScenario));
    registry.register(Arc::new(families::MiddlewareQosScenario));
    registry.register(Arc::new(families::MiddlewareOverloadScenario));
    registry.register(Arc::new(families::TdmaScenario));
    registry.register(Arc::new(families::InaccessibilityScenario));
    registry.register(Arc::new(families::PulseSyncScenario));
    registry.register(Arc::new(families::EndToEndScenario));
    registry.register(Arc::new(families::NetTransportScenario));
    registry.register(Arc::new(families::SensorValidityScenario));
    registry.register(Arc::new(families::ReliableSensorScenario));
    registry.register(Arc::new(families::KernelLatencyScenario));
    registry.register(Arc::new(families::CooperationScenario));
    registry.register(Arc::new(families::TopologyScenario));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn builtin_registry_contains_all_families() {
        let registry = builtin_registry();
        assert_eq!(
            registry.names(),
            vec![
                "avionics-rpv",
                "cooperation",
                "end-to-end",
                "inaccessibility",
                "intersection",
                "kernel-latency",
                "lane-change",
                "middleware-overload",
                "middleware-qos",
                "net-transport",
                "platoon",
                "platoon-fault",
                "pulse-sync",
                "reliable-sensor",
                "sensor-validity",
                "tdma",
                "topology",
            ]
        );
        assert!(!registry.is_empty());
        assert_eq!(registry.len(), 17);
    }

    #[test]
    fn every_builtin_family_runs_and_is_deterministic() {
        let registry = builtin_registry();
        for name in registry.names() {
            let spec = ScenarioSpec::new(&name).with_seed(11).with_duration_secs(20);
            let scenario = registry.get(&name).unwrap();
            let a = scenario.run(&spec);
            let b = scenario.run(&spec);
            assert_eq!(a, b, "family {name} must be deterministic for a fixed spec");
            assert_ne!(a.metrics().len(), 0, "family {name} must report metrics");
        }
    }

    #[test]
    fn metric_ranges_are_pure_and_cover_reported_metrics_only() {
        // The bounded-memory merge relies on range declarations being pure
        // functions of the metric name; flags must stay undeclared so small
        // sweeps keep exact 0/1 quantiles.
        let registry = builtin_registry();
        for name in registry.names() {
            let scenario = registry.get(&name).unwrap();
            let record =
                scenario.run(&ScenarioSpec::new(&name).with_seed(3).with_duration_secs(10));
            for (metric, _) in record.metrics() {
                assert_eq!(
                    scenario.metric_range(metric),
                    scenario.metric_range(metric),
                    "family {name} metric {metric}: declaration must be pure"
                );
                if let Some((lo, hi)) = scenario.metric_range(metric) {
                    assert!(
                        lo.is_finite() && hi.is_finite() && lo < hi,
                        "family {name} metric {metric}: invalid range ({lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn every_family_declares_a_parameter_domain() {
        // The param-domain declaration is what `list-families --output json`
        // and generated smoke specs rely on: every axis non-empty, no
        // duplicate names (ParamGrid enforces both), and the declaration
        // pure (constant across calls).
        let registry = builtin_registry();
        for info in registry.describe() {
            let scenario = registry.get(&info.name).unwrap();
            assert!(
                !info.params.is_empty(),
                "family {}: builtin families must declare their parameters",
                info.name
            );
            assert_eq!(
                scenario.param_domain().axes(),
                scenario.param_domain().axes(),
                "family {}: param_domain must be pure",
                info.name
            );
            // The default grid expands to exactly one point carrying every
            // declared parameter.
            let points = info.default_grid().expand();
            assert_eq!(points.len(), 1);
            assert_eq!(points[0].len(), info.params.len());
        }
    }

    #[test]
    fn describe_json_is_machine_readable_and_complete() {
        let registry = builtin_registry();
        let doc = crate::json::JsonValue::parse(&registry.describe_json())
            .expect("listing must be well-formed JSON");
        let families = doc.get("families").and_then(|f| f.as_array()).unwrap();
        assert_eq!(families.len(), registry.len());
        for family in families {
            let name = family.get("name").and_then(|n| n.as_str()).unwrap();
            assert!(registry.get(name).is_some());
            for param in family.get("params").and_then(|p| p.as_array()).unwrap() {
                let type_name = param.get("type").and_then(|t| t.as_str()).unwrap();
                assert!(matches!(type_name, "int" | "float" | "bool" | "text"));
                let default = param.get("default").unwrap();
                let domain = param.get("domain").and_then(|d| d.as_array()).unwrap();
                assert!(!domain.is_empty());
                // The default is the first domain value, and every domain
                // value parses back as a ParamValue of the declared type.
                for value in domain {
                    let parsed = ParamValue::from_json(value).unwrap();
                    assert_eq!(parsed.type_name(), type_name);
                }
                assert_eq!(
                    ParamValue::from_json(default).unwrap(),
                    ParamValue::from_json(&domain[0]).unwrap()
                );
            }
        }
    }
}
