//! Events, subjects, attributes and context filters (paper §V-B, Fig. 5).
//!
//! "In FAMOUSO all disseminated information is encapsulated in typed message
//! objects called events.  An event is composed from three parts: a subject,
//! attributes, and content.  A subject identifies the content of an event and
//! is represented by a unique identifier (UID).  The UIDs span a global name
//! space across all networks."
//!
//! On the bus an event is a topic's [`Subject`], its [`Context`] attributes
//! and its [`Payload`] content.

use karyon_sim::{SimDuration, SimTime, Vec2};

/// A subject: the unique identifier of an event type, spanning a global name
/// space across all networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Subject(pub u64);

impl Subject {
    /// Derives a subject UID from a human-readable name (FNV-1a hash), so
    /// that independently developed components agree on the UID of
    /// `"vehicle/speed"` without a central registry.
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        Subject(hash)
    }
}

/// Quality-of-service requirements a publisher attaches to an event channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosRequirement {
    /// Maximum acceptable dissemination latency.
    pub max_latency: SimDuration,
    /// Minimum acceptable delivery ratio in `[0, 1]`.
    pub min_delivery_ratio: f64,
    /// Maximum event rate the publisher will generate (events per second);
    /// used for bandwidth admission.
    pub max_rate: f64,
}

impl QosRequirement {
    /// A best-effort requirement that any network satisfies.
    pub fn best_effort() -> Self {
        QosRequirement { max_latency: SimDuration::MAX, min_delivery_ratio: 0.0, max_rate: 0.0 }
    }

    /// The contract of a latency-critical stream (control loops, hazard
    /// warnings): a hard dissemination deadline and a moderate delivery
    /// floor — under pressure the matching [`QosClass::Realtime`]
    /// subscriptions drop events rather than let them age in a queue.
    ///
    /// [`QosClass::Realtime`]: crate::QosClass::Realtime
    pub fn realtime(max_latency: SimDuration, max_rate: f64) -> Self {
        QosRequirement { max_latency, min_delivery_ratio: 0.9, max_rate }
    }

    /// The contract of a throughput-oriented stream (state dissemination,
    /// negotiation traffic): a high delivery floor — the best a healthy
    /// vehicular wireless network sustains — and a latency bound that
    /// tolerates bounded queueing ([`QosClass::Batched`] mailboxes).
    ///
    /// [`QosClass::Batched`]: crate::QosClass::Batched
    pub fn batched(max_latency: SimDuration, max_rate: f64) -> Self {
        QosRequirement { max_latency, min_delivery_ratio: 0.95, max_rate }
    }

    /// The contract of bulk/low-priority traffic (map updates, logs): one
    /// second of acceptable latency and a relaxed delivery floor, paired
    /// with the large [`QosClass::Background`] mailboxes.
    ///
    /// [`QosClass::Background`]: crate::QosClass::Background
    pub fn background(max_rate: f64) -> Self {
        QosRequirement { max_latency: SimDuration::from_secs(1), min_delivery_ratio: 0.5, max_rate }
    }

    /// Starts a [`QosBuilder`] from the best-effort baseline, for
    /// requirements that fit none of the named presets.
    pub fn builder() -> QosBuilder {
        QosBuilder { requirement: QosRequirement::best_effort() }
    }
}

/// Builder for a [`QosRequirement`], started by [`QosRequirement::builder`].
///
/// Every field starts at its [`QosRequirement::best_effort`] value, so only
/// the constraints a channel actually cares about need to be stated:
///
/// ```
/// use karyon_middleware::QosRequirement;
/// use karyon_sim::SimDuration;
///
/// let qos = QosRequirement::builder()
///     .max_latency(SimDuration::from_millis(20))
///     .max_rate(50.0)
///     .build();
/// assert_eq!(qos.min_delivery_ratio, 0.0, "unset constraints stay best-effort");
/// ```
#[derive(Debug, Clone)]
pub struct QosBuilder {
    requirement: QosRequirement,
}

impl QosBuilder {
    /// Sets the maximum acceptable dissemination latency.
    pub fn max_latency(mut self, latency: SimDuration) -> Self {
        self.requirement.max_latency = latency;
        self
    }

    /// Sets the minimum acceptable delivery ratio (clamped to `[0, 1]`).
    pub fn min_delivery_ratio(mut self, ratio: f64) -> Self {
        self.requirement.min_delivery_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Sets the maximum event rate the publisher will generate.
    pub fn max_rate(mut self, rate: f64) -> Self {
        self.requirement.max_rate = rate.max(0.0);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> QosRequirement {
        self.requirement
    }
}

/// The compact, `Copy` event body of the publish hot path.
///
/// A `Payload` moves through the bounded ring mailboxes without any
/// per-publish allocation: position and an opaque 64-bit tag are all a
/// simulated event carries.  Components that need richer content publish the tag as a key
/// into their own storage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Payload {
    /// Where the event was produced, if known.
    pub position: Option<Vec2>,
    /// Opaque application word (sequence number, key, encoded reading, …).
    pub tag: u64,
}

impl Payload {
    /// A payload carrying only an application tag.
    pub fn tagged(tag: u64) -> Self {
        Payload { position: None, tag }
    }

    /// A payload produced at a known position.
    pub fn at(position: Vec2, tag: u64) -> Self {
        Payload { position: Some(position), tag }
    }
}

/// Context attributes attached to an event (location, time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Context {
    /// Where the event was produced, if known.
    pub position: Option<Vec2>,
    /// When the event was produced.
    pub timestamp: SimTime,
}

/// A context filter a subscriber attaches to a subscription: "the subscriber
/// will only get those events which pass the context filter".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContextFilter {
    /// Accept only events produced within this circular region.
    pub region: Option<(Vec2, f64)>,
    /// Accept only events at most this old at delivery time.
    pub max_age: Option<SimDuration>,
}

impl ContextFilter {
    /// A filter that accepts everything.
    pub fn accept_all() -> Self {
        ContextFilter::default()
    }

    /// A filter restricted to a circular region.
    pub fn within(center: Vec2, radius: f64) -> Self {
        ContextFilter { region: Some((center, radius)), max_age: None }
    }

    /// Adds a freshness requirement to the filter.
    pub fn fresher_than(mut self, max_age: SimDuration) -> Self {
        self.max_age = Some(max_age);
        self
    }

    /// True when the event's context passes the filter at delivery time `now`.
    pub fn matches(&self, context: &Context, now: SimTime) -> bool {
        if let Some((center, radius)) = self.region {
            match context.position {
                Some(pos) if center.distance(pos) <= radius => {}
                _ => return false,
            }
        }
        if let Some(max_age) = self.max_age {
            if now.since(context.timestamp) > max_age {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subjects_from_names_are_stable_and_distinct() {
        let a1 = Subject::from_name("vehicle/speed");
        let a2 = Subject::from_name("vehicle/speed");
        let b = Subject::from_name("vehicle/position");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn context_filter_region() {
        let ctx = Context { position: Some(Vec2::new(10.0, 0.0)), timestamp: SimTime::ZERO };
        let now = SimTime::from_millis(50);
        assert!(ContextFilter::accept_all().matches(&ctx, now));
        assert!(ContextFilter::within(Vec2::ZERO, 20.0).matches(&ctx, now));
        assert!(!ContextFilter::within(Vec2::ZERO, 5.0).matches(&ctx, now));
        // Events without a position fail region filters.
        let anon = Context { position: None, timestamp: SimTime::ZERO };
        assert!(!ContextFilter::within(Vec2::ZERO, 5.0).matches(&anon, now));
        assert!(ContextFilter::accept_all().matches(&anon, now));
    }

    #[test]
    fn context_filter_age() {
        let ctx = Context { position: None, timestamp: SimTime::from_millis(100) };
        let filter = ContextFilter::accept_all().fresher_than(SimDuration::from_millis(50));
        assert!(filter.matches(&ctx, SimTime::from_millis(120)));
        assert!(!filter.matches(&ctx, SimTime::from_millis(200)));
    }

    #[test]
    fn best_effort_qos_is_trivially_satisfiable() {
        let q = QosRequirement::best_effort();
        assert_eq!(q.min_delivery_ratio, 0.0);
        assert_eq!(q.max_latency, SimDuration::MAX);
    }

    #[test]
    fn qos_constructors_and_builder() {
        let rt = QosRequirement::realtime(SimDuration::from_millis(10), 100.0);
        assert_eq!(rt.max_latency, SimDuration::from_millis(10));
        assert_eq!(rt.max_rate, 100.0);
        let batched = QosRequirement::batched(SimDuration::from_millis(200), 50.0);
        assert!(batched.min_delivery_ratio > rt.min_delivery_ratio);
        let bg = QosRequirement::background(5.0);
        assert_eq!(bg.max_latency, SimDuration::from_secs(1));
        let built = QosRequirement::builder()
            .max_latency(SimDuration::from_millis(20))
            .min_delivery_ratio(1.5)
            .max_rate(-3.0)
            .build();
        assert_eq!(built.min_delivery_ratio, 1.0, "ratio clamps to [0, 1]");
        assert_eq!(built.max_rate, 0.0, "rate clamps to >= 0");
        assert_eq!(built.max_latency, SimDuration::from_millis(20));
    }

    #[test]
    fn payload_constructors() {
        let p = Payload::tagged(7);
        assert_eq!(p.tag, 7);
        assert!(p.position.is_none());
        let q = Payload::at(Vec2::new(1.0, 2.0), 9);
        assert_eq!(q.position, Some(Vec2::new(1.0, 2.0)));
    }
}
