//! Safety rules: the design-time conditions that must hold at run time for a
//! Level of Service to be functionally safe.
//!
//! "These safety rules express the needed validity of (sensor) data and
//! integrity of components (e.g., timeliness requirements)" (paper §III).

use karyon_sim::SimDuration;

use crate::los::LevelOfService;
use crate::runtime::{Namespace, RunTimeSafetyInfo};

/// A condition over the run-time safety information.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// The named data item must exist and have at least this validity
    /// (fraction in `[0, 1]`).
    MinValidity {
        /// Data-item name (e.g. `"front-range"`).
        item: String,
        /// Required validity fraction.
        threshold: f64,
    },
    /// The named data item must be fresher than the bound.
    MaxAge {
        /// Data-item name.
        item: String,
        /// Maximum acceptable age.
        bound: SimDuration,
    },
    /// The named data item's value must not exceed the bound.
    MaxValue {
        /// Data-item name.
        item: String,
        /// Maximum acceptable value.
        bound: f64,
    },
    /// The named data item's value must be at least the bound.
    MinValue {
        /// Data-item name.
        item: String,
        /// Minimum acceptable value.
        bound: f64,
    },
    /// The named component must currently be reported healthy.
    ComponentHealthy {
        /// The component's name (e.g. `"v2v-radio"`).
        component: String,
    },
    /// All of the sub-conditions must hold.
    All(Vec<Condition>),
    /// At least one of the sub-conditions must hold.
    Any(Vec<Condition>),
}

impl Condition {
    /// Evaluates the condition against the run-time safety information.
    ///
    /// The names are resolved against `info` first (a name the store has
    /// never seen reads as absent, so every check on it fails), then the
    /// same compiled checks run that the safety kernel's cycle runs.  This
    /// by-name path allocates the compiled form on every call; the kernel
    /// compiles its rules once instead.
    pub fn holds(&self, info: &RunTimeSafetyInfo) -> bool {
        let mut program = Program::default();
        program.push(self, &mut |namespace, name| info.slot(namespace, name));
        let mut holds = true;
        program.for_each_failure(info, |_| holds = false);
        holds
    }

    /// A short description of the first sub-condition that fails, if any.
    pub fn first_violation(&self, info: &RunTimeSafetyInfo) -> Option<String> {
        match self {
            Condition::All(subs) => subs.iter().find_map(|c| c.first_violation(info)),
            Condition::Any(subs) => {
                if subs.iter().any(|c| c.holds(info)) {
                    None
                } else {
                    Some(format!("none of {} alternatives hold", subs.len()))
                }
            }
            other => {
                if other.holds(info) {
                    None
                } else {
                    Some(other.describe())
                }
            }
        }
    }

    /// A human-readable description of the condition.
    pub fn describe(&self) -> String {
        match self {
            Condition::MinValidity { item, threshold } => {
                format!("validity({item}) >= {:.0}%", threshold * 100.0)
            }
            Condition::MaxAge { item, bound } => format!("age({item}) <= {bound}"),
            Condition::MaxValue { item, bound } => format!("{item} <= {bound}"),
            Condition::MinValue { item, bound } => format!("{item} >= {bound}"),
            Condition::ComponentHealthy { component } => format!("healthy({component})"),
            Condition::All(subs) => format!("all of {} conditions", subs.len()),
            Condition::Any(subs) => format!("any of {} conditions", subs.len()),
        }
    }
}

/// A named safety rule: a condition plus bookkeeping metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyRule {
    /// Stable identifier, e.g. `"R3-v2v-freshness"`.
    pub id: String,
    /// The condition that must hold.
    pub condition: Condition,
}

impl SafetyRule {
    /// Creates a rule.
    pub fn new(id: &str, condition: Condition) -> Self {
        SafetyRule { id: id.to_string(), condition }
    }

    /// Evaluates the rule.
    pub fn holds(&self, info: &RunTimeSafetyInfo) -> bool {
        self.condition.holds(info)
    }
}

/// A compact identifier of one safety rule of a design: the level whose rule
/// set holds it and its position in that set.  Decisions name failed rules
/// by id so that a cycle copies no strings;
/// [`DesignTimeSafetyInfo::rule`](crate::DesignTimeSafetyInfo::rule) maps an
/// id back to the rule and its [`SafetyRule::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId {
    /// The level whose rule set holds the rule.
    pub level: LevelOfService,
    /// The rule's position in that level's [`LosSpec::rules`](crate::LosSpec::rules).
    pub index: u32,
}

/// One node of a compiled [`Program`]: a leaf check resolved to a store
/// slot, or a composite whose children are the nodes after it up to `end`.
#[derive(Debug, Clone, Copy)]
enum Node {
    MinValidity { slot: u32, threshold: f64 },
    MaxAge { slot: u32, bound: SimDuration },
    MaxValue { slot: u32, bound: f64 },
    MinValue { slot: u32, bound: f64 },
    Healthy { slot: u32 },
    All { end: u32 },
    Any { end: u32 },
}

/// A sequence of conditions compiled to one flat, slot-resolved vector of
/// nodes in pre-order, plus the end offset of each condition.  Composites
/// are index ranges in the same vector, so evaluating a condition is indexed
/// loads and compares over the store's slot vectors.  The program is only
/// meaningful against the store (or a clone of it) its slots came from.
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    nodes: Vec<Node>,
    /// Condition `i` spans the nodes `ends[i - 1]..ends[i]` (from 0 for the
    /// first).
    ends: Vec<u32>,
}

impl Program {
    /// Appends `condition`, resolving every name it references to a store
    /// slot with `resolve`.
    pub(crate) fn push(
        &mut self,
        condition: &Condition,
        resolve: &mut impl FnMut(Namespace, &str) -> u32,
    ) {
        self.emit(condition, resolve);
        self.ends.push(Self::offset(self.nodes.len()));
    }

    /// Calls `failed` with the index of every compiled condition that does
    /// not hold against `info`, in order.
    #[inline]
    pub(crate) fn for_each_failure(&self, info: &RunTimeSafetyInfo, mut failed: impl FnMut(usize)) {
        // A condition's root is its first node: where the previous one ends.
        let mut root = 0;
        for (index, &end) in self.ends.iter().enumerate() {
            if !self.node_holds(root, info) {
                failed(index);
            }
            root = end as usize;
        }
    }

    fn emit(&mut self, condition: &Condition, resolve: &mut impl FnMut(Namespace, &str) -> u32) {
        let node = match condition {
            Condition::MinValidity { item, threshold } => {
                Node::MinValidity { slot: resolve(Namespace::Data, item), threshold: *threshold }
            }
            Condition::MaxAge { item, bound } => {
                Node::MaxAge { slot: resolve(Namespace::Data, item), bound: *bound }
            }
            Condition::MaxValue { item, bound } => {
                Node::MaxValue { slot: resolve(Namespace::Data, item), bound: *bound }
            }
            Condition::MinValue { item, bound } => {
                Node::MinValue { slot: resolve(Namespace::Data, item), bound: *bound }
            }
            Condition::ComponentHealthy { component } => {
                Node::Healthy { slot: resolve(Namespace::Health, component) }
            }
            Condition::All(subs) | Condition::Any(subs) => {
                let at = self.nodes.len();
                self.nodes.push(Node::All { end: 0 });
                for sub in subs {
                    self.emit(sub, resolve);
                }
                let end = Self::offset(self.nodes.len());
                self.nodes[at] = match condition {
                    Condition::All(_) => Node::All { end },
                    _ => Node::Any { end },
                };
                return;
            }
        };
        self.nodes.push(node);
    }

    #[inline(always)]
    fn node_holds(&self, at: usize, info: &RunTimeSafetyInfo) -> bool {
        match self.nodes[at] {
            Node::All { end } => self.children_hold(at + 1, end as usize, true, info),
            Node::Any { end } => self.children_hold(at + 1, end as usize, false, info),
            leaf => leaf_holds(leaf, info),
        }
    }

    /// [`node_holds`](Self::node_holds) for a composite nested in another:
    /// the one call that recurses, so that a rule's own loop over its
    /// leaves stays inline.
    #[inline(never)]
    fn nested_holds(&self, at: usize, info: &RunTimeSafetyInfo) -> bool {
        self.node_holds(at, info)
    }

    /// `all` of the sibling nodes from `child` up to `end` hold, or (for
    /// `all == false`) any of them does; short-circuits on the first child
    /// that decides.
    #[inline(always)]
    fn children_hold(
        &self,
        mut child: usize,
        end: usize,
        all: bool,
        info: &RunTimeSafetyInfo,
    ) -> bool {
        let nodes = &self.nodes[..end];
        while child < nodes.len() {
            let (holds, next) = match nodes[child] {
                Node::All { end } | Node::Any { end } => {
                    (self.nested_holds(child, info), end as usize)
                }
                leaf => (leaf_holds(leaf, info), child + 1),
            };
            if holds != all {
                return !all;
            }
            child = next;
        }
        all
    }

    fn offset(len: usize) -> u32 {
        u32::try_from(len).expect("a compiled program holds fewer than u32::MAX nodes")
    }
}

/// Checks one leaf node against the store.
#[inline(always)]
fn leaf_holds(leaf: Node, info: &RunTimeSafetyInfo) -> bool {
    match leaf {
        Node::MinValidity { slot, threshold } => {
            info.data_at(slot).is_some_and(|d| d.validity.fraction() >= threshold)
        }
        Node::MaxAge { slot, bound } => {
            info.data_at(slot).is_some_and(|d| info.now().since(d.timestamp) <= bound)
        }
        Node::MaxValue { slot, bound } => info.data_at(slot).is_some_and(|d| d.value <= bound),
        Node::MinValue { slot, bound } => info.data_at(slot).is_some_and(|d| d.value >= bound),
        Node::Healthy { slot } => info.healthy_at(slot),
        Node::All { .. } | Node::Any { .. } => unreachable!("composites are not leaves"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RunTimeSafetyInfo;
    use karyon_sensors::Validity;
    use karyon_sim::SimTime;

    fn info() -> RunTimeSafetyInfo {
        let mut info = RunTimeSafetyInfo::new();
        info.set_now(SimTime::from_millis(1_000));
        info.update_data("front-range", 35.0, Validity::new(0.9), SimTime::from_millis(950));
        info.update_data("v2v-headway", 1.2, Validity::new(0.4), SimTime::from_millis(400));
        info.update_health("v2v-radio", true, SimTime::from_millis(990));
        info.update_health("lidar", false, SimTime::from_millis(990));
        info
    }

    #[test]
    fn validity_and_age_conditions() {
        let info = info();
        assert!(Condition::MinValidity { item: "front-range".into(), threshold: 0.8 }.holds(&info));
        assert!(!Condition::MinValidity { item: "v2v-headway".into(), threshold: 0.8 }.holds(&info));
        assert!(!Condition::MinValidity { item: "missing".into(), threshold: 0.1 }.holds(&info));
        assert!(Condition::MaxAge {
            item: "front-range".into(),
            bound: SimDuration::from_millis(100)
        }
        .holds(&info));
        assert!(!Condition::MaxAge {
            item: "v2v-headway".into(),
            bound: SimDuration::from_millis(100)
        }
        .holds(&info));
    }

    #[test]
    fn value_and_health_conditions() {
        let info = info();
        assert!(Condition::MaxValue { item: "front-range".into(), bound: 50.0 }.holds(&info));
        assert!(!Condition::MaxValue { item: "front-range".into(), bound: 10.0 }.holds(&info));
        assert!(Condition::MinValue { item: "v2v-headway".into(), bound: 1.0 }.holds(&info));
        assert!(!Condition::MinValue { item: "v2v-headway".into(), bound: 2.0 }.holds(&info));
        assert!(Condition::ComponentHealthy { component: "v2v-radio".into() }.holds(&info));
        assert!(!Condition::ComponentHealthy { component: "lidar".into() }.holds(&info));
        assert!(!Condition::ComponentHealthy { component: "unknown".into() }.holds(&info));
    }

    #[test]
    fn composite_conditions() {
        let info = info();
        let all = Condition::All(vec![
            Condition::ComponentHealthy { component: "v2v-radio".into() },
            Condition::MinValidity { item: "front-range".into(), threshold: 0.5 },
        ]);
        assert!(all.holds(&info));
        let broken = Condition::All(vec![
            all.clone(),
            Condition::ComponentHealthy { component: "lidar".into() },
        ]);
        assert!(!broken.holds(&info));
        assert!(broken.first_violation(&info).unwrap().contains("lidar"));
        let any = Condition::Any(vec![
            Condition::ComponentHealthy { component: "lidar".into() },
            Condition::ComponentHealthy { component: "v2v-radio".into() },
        ]);
        assert!(any.holds(&info));
        assert!(any.first_violation(&info).is_none());
        let none = Condition::Any(vec![Condition::ComponentHealthy { component: "lidar".into() }]);
        assert!(none.first_violation(&info).unwrap().contains("alternatives"));
    }

    #[test]
    fn rule_wrapper_and_descriptions() {
        let info = info();
        let rule = SafetyRule::new(
            "R1",
            Condition::MinValidity { item: "front-range".into(), threshold: 0.5 },
        );
        assert!(rule.holds(&info));
        assert_eq!(rule.id, "R1");
        assert!(rule.condition.describe().contains("front-range"));
        assert!(Condition::MaxAge { item: "x".into(), bound: SimDuration::from_millis(5) }
            .describe()
            .contains("age"));
        assert!(Condition::All(vec![]).describe().contains("all of"));
    }
}
