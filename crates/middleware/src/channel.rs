//! Network capabilities, QoS assessment and channel-level types (paper §V-B).
//!
//! "An event channel provides a unidirectional communication channel
//! connecting multiple publishers to multiple subscribers.  Before a
//! publisher can disseminate an event, it has to announce the respective
//! event channel … The notion of an event channel allows specifying and
//! enforcing QoS attributes. … In a system-of-systems in which spontaneous
//! communication is needed, the information about the underlying network
//! properties have to be acquired dynamically during run-time" (paper §V-B).
//!
//! The bus itself — topic routing, mailboxes, overload handling — lives in
//! [`bus`](crate::bus); this module holds the assessment-side vocabulary it
//! builds on: [`NetworkCapability`] (what the monitoring layer reports) and
//! [`Admission`] (what announcement-time assessment decides).

use karyon_sim::SimDuration;

use crate::event::QosRequirement;

/// The dynamically assessed properties of one underlying network
/// (the output of the monitoring mechanisms of §V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkCapability {
    /// Expected dissemination latency.
    pub expected_latency: SimDuration,
    /// Expected delivery ratio in `[0, 1]`.
    pub expected_delivery_ratio: f64,
    /// Events per second the network can sustain.
    pub capacity_rate: f64,
}

impl NetworkCapability {
    /// A wired in-vehicle network: fast and reliable.
    pub fn local_bus() -> Self {
        NetworkCapability {
            expected_latency: SimDuration::from_micros(500),
            expected_delivery_ratio: 0.999,
            capacity_rate: 10_000.0,
        }
    }

    /// A healthy vehicular wireless network.
    pub fn wireless_nominal() -> Self {
        NetworkCapability {
            expected_latency: SimDuration::from_millis(20),
            expected_delivery_ratio: 0.95,
            capacity_rate: 500.0,
        }
    }

    /// A degraded wireless network (interference, congestion).
    pub fn wireless_degraded() -> Self {
        NetworkCapability {
            expected_latency: SimDuration::from_millis(150),
            expected_delivery_ratio: 0.6,
            capacity_rate: 100.0,
        }
    }

    /// True when this capability satisfies the requirement, given the
    /// aggregate rate already admitted on the network.
    pub fn satisfies(&self, requirement: &QosRequirement, admitted_rate: f64) -> bool {
        self.expected_latency <= requirement.max_latency
            && self.expected_delivery_ratio >= requirement.min_delivery_ratio
            && admitted_rate + requirement.max_rate <= self.capacity_rate
    }

    /// The pairwise-worse combination of two capabilities (a channel crossing
    /// a gateway between two networks gets the weaker guarantees of both).
    pub fn combine_worst(&self, other: &NetworkCapability) -> NetworkCapability {
        NetworkCapability {
            expected_latency: self.expected_latency.max(other.expected_latency),
            expected_delivery_ratio: self
                .expected_delivery_ratio
                .min(other.expected_delivery_ratio),
            capacity_rate: self.capacity_rate.min(other.capacity_rate),
        }
    }
}

/// Identifier of an attached network segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetworkId(pub u32);

/// The result of announcing an event channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The requested QoS can currently be guaranteed.
    Admitted,
    /// The requested QoS cannot be guaranteed; the channel operates (or is
    /// refused) as best effort.
    Rejected,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_satisfaction_and_combination() {
        let local = NetworkCapability::local_bus();
        let wireless = NetworkCapability::wireless_nominal();
        let strict = QosRequirement::builder()
            .max_latency(SimDuration::from_millis(1))
            .min_delivery_ratio(0.99)
            .max_rate(10.0)
            .build();
        assert!(local.satisfies(&strict, 0.0));
        assert!(!wireless.satisfies(&strict, 0.0));
        assert!(!local.satisfies(&strict, 9_995.0), "capacity exhausted");
        let combined = local.combine_worst(&wireless);
        assert_eq!(combined.expected_latency, wireless.expected_latency);
        assert_eq!(combined.capacity_rate, wireless.capacity_rate);
    }
}
