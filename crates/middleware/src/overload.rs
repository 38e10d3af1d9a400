//! QoS classes and overload strategies of the v2 event bus.
//!
//! Admission-time assessment (paper §V-B) decides whether a channel's QoS
//! *can* be guaranteed; the types here define what the bus does to *maintain*
//! it when publishers outrun subscribers: every subscription carries a
//! [`QosClass`] (which sizes its bounded mailbox and fixes its default
//! reaction to pressure) and an [`OverloadStrategy`] (what happens to events
//! once the mailbox is full).

/// The per-subscription quality-of-service class.
///
/// The class decides the mailbox capacity and the default
/// [`OverloadStrategy`]; both can be overridden per subscription through the
/// [`TopicRef`](crate::TopicRef) builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency first: a short mailbox, and events are dropped — never queued
    /// behind a backlog — when the subscriber or the bus is under pressure.
    /// A realtime subscription additionally sheds incoming events whenever
    /// the bus-wide backlog reaches the configured threshold.
    Realtime,
    /// Throughput first: a medium, bounded mailbox; on overflow the oldest
    /// queued event is displaced so the subscriber keeps seeing fresh data
    /// (bounded queueing delay instead of unbounded blocking).
    Batched,
    /// Bulk/low-priority: a large mailbox that absorbs long bursts, drained
    /// whenever the subscriber gets around to it.
    Background,
}

impl QosClass {
    /// The default mailbox capacity of the class, in events.
    pub fn default_capacity(self) -> usize {
        match self {
            QosClass::Realtime => 32,
            QosClass::Batched => 512,
            QosClass::Background => 4096,
        }
    }

    /// The default overload strategy of the class.
    pub fn default_strategy(self) -> OverloadStrategy {
        match self {
            QosClass::Realtime => OverloadStrategy::DropNewest,
            QosClass::Batched | QosClass::Background => OverloadStrategy::DropOldest,
        }
    }

    /// The class name as used in scenario parameters and reports.
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Realtime => "realtime",
            QosClass::Batched => "batched",
            QosClass::Background => "background",
        }
    }
}

/// What a subscription does with an incoming event when its mailbox is full.
///
/// Every strategy is deterministic — no randomness is involved — so a
/// campaign over an overloaded bus stays bit-identical for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverloadStrategy {
    /// Drop the incoming event; queued events are never displaced.  The
    /// realtime default: the queue stays short, so whatever is delivered is
    /// delivered fast.
    DropNewest,
    /// Displace the oldest queued event to make room for the incoming one.
    /// The batched/background default: the subscriber always sees the most
    /// recent window of traffic.
    DropOldest,
    /// Under overflow, admit only every `keep_1_in`-th incoming event
    /// (displacing the oldest to make room) and shed the rest.  The counter
    /// is per subscription, so sampling is deterministic and independent of
    /// sibling subscriptions.
    Sample {
        /// Admit one incoming event out of this many while the mailbox is
        /// full (values below 2 behave like [`OverloadStrategy::DropOldest`]).
        keep_1_in: u32,
    },
    /// Coalesce: merge the incoming event into the newest queued one — the
    /// slot keeps the freshest payload and counts how many source events it
    /// represents.  The mailbox then holds a bounded summary of an unbounded
    /// burst (rate aggregation).
    Aggregate,
}

impl OverloadStrategy {
    /// Parses a strategy from its scenario-parameter name:
    /// `drop-newest`, `drop-oldest`, `sample` (1-in-4) or `aggregate`.
    pub fn from_name(name: &str) -> Option<OverloadStrategy> {
        match name {
            "drop-newest" => Some(OverloadStrategy::DropNewest),
            "drop-oldest" => Some(OverloadStrategy::DropOldest),
            "sample" => Some(OverloadStrategy::Sample { keep_1_in: 4 }),
            "aggregate" => Some(OverloadStrategy::Aggregate),
            _ => None,
        }
    }

    /// The canonical parameter name of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            OverloadStrategy::DropNewest => "drop-newest",
            OverloadStrategy::DropOldest => "drop-oldest",
            OverloadStrategy::Sample { .. } => "sample",
            OverloadStrategy::Aggregate => "aggregate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_defaults_are_ordered_by_capacity() {
        assert!(QosClass::Realtime.default_capacity() < QosClass::Batched.default_capacity());
        assert!(QosClass::Batched.default_capacity() < QosClass::Background.default_capacity());
        assert_eq!(QosClass::Realtime.default_strategy(), OverloadStrategy::DropNewest);
        assert_eq!(QosClass::Batched.default_strategy(), OverloadStrategy::DropOldest);
    }

    #[test]
    fn strategy_names_round_trip() {
        for name in ["drop-newest", "drop-oldest", "sample", "aggregate"] {
            let strategy = OverloadStrategy::from_name(name).unwrap();
            assert_eq!(strategy.name(), name);
        }
        assert_eq!(OverloadStrategy::from_name("block"), None);
        assert_eq!(QosClass::Realtime.name(), "realtime");
    }
}
