//! # karyon-middleware — FAMOUSO-style adaptive event middleware (KARYON §V-B)
//!
//! "We will use the FAMOUSO communication middleware … FAMOUSO provides
//! event-based communication that is explicitly designed for dynamic,
//! distributed control.  We propose the concept of event channels that
//! address the problem of assessing and maintaining QoS in such a cooperative
//! system."
//!
//! The crate reimplements the published channel concept from scratch, in two
//! halves:
//!
//! * **assessment** ([`event`], [`channel`]) — events (subject UID +
//!   attributes + content), QoS requirements with named presets
//!   ([`QosRequirement::realtime`] / [`batched`](QosRequirement::batched) /
//!   [`background`](QosRequirement::background) / [`builder`](QosRequirement::builder)),
//!   context filters, and announcement-time admission against dynamically
//!   monitored [`NetworkCapability`]s (gateway-crossing channels get the
//!   weakest segment's guarantees),
//! * **maintenance** ([`bus`], [`mailbox`], [`overload`]) — the **EventBus
//!   v2**: exact topic routing (one topic per subscription, keyed like a
//!   FAMOUSO channel by one subject UID), per-subscription [`QosClass`]es
//!   backed by bounded ring mailboxes,
//!   bus-wide backlog thresholds, pluggable [`OverloadStrategy`]s and
//!   per-subscription delivery statistics with P50/P99 latency.
//!
//! ## Quick tour
//!
//! Build a bus, subscribe to a topic, announce a channel on it, publish
//! through the returned [`Publisher`] handle, and drain the mailbox:
//!
//! ```
//! use karyon_middleware::{
//!     EventBus, NetworkCapability, NetworkId, OverloadStrategy, Payload, QosClass,
//!     QosRequirement,
//! };
//! use karyon_sim::{SimDuration, SimTime};
//!
//! let mut bus = EventBus::new(42);
//! bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
//! bus.attach_network(NetworkId(1), NetworkCapability::wireless_nominal());
//!
//! // A realtime subscriber to `platoon.lead`, sampling 1-in-8 under
//! // overflow instead of its class default (drop the newest).
//! let sub = bus
//!     .topic("platoon.lead")
//!     .via(NetworkId(1))
//!     .overload(OverloadStrategy::Sample { keep_1_in: 8 })
//!     .subscribe(QosClass::Realtime);
//!
//! // Announcing assesses the QoS requirement against the weakest network
//! // segment on the channel's path; the handle is the only way to publish.
//! let lead = bus
//!     .topic("platoon.lead")
//!     .via(NetworkId(1))
//!     .announce(QosRequirement::realtime(SimDuration::from_millis(60), 20.0));
//! assert!(lead.is_admitted());
//!
//! let outcome = bus.publish(&lead, Payload::tagged(1), SimTime::ZERO);
//! assert_eq!(outcome.matched, 1);
//!
//! bus.drain_with(sub, SimTime::from_millis(100), usize::MAX, |event| {
//!     assert_eq!(event.payload.tag, 1);
//! });
//! let stats = bus.subscription_stats(sub).unwrap();
//! assert_eq!(stats.delivered + stats.dropped_loss, 1);
//! ```
//!
//! QoS is *maintained*, not just assessed: when a mailbox overflows, the
//! subscription's [`OverloadStrategy`] (drop-newest / drop-oldest / sample /
//! aggregate) decides what to shed, and when the bus-wide backlog crosses
//! [`EventBus::set_backlog_threshold`], [`QosClass::Realtime`] subscriptions
//! drop incoming events outright so whatever they do deliver is fresh.
//! Topics are the only way to subscribe and announce, and a subscription
//! hears exactly the topic it names (a name containing `*` panics); each
//! topic's FNV [`Subject`] keys [`EventBus::admission`] and the channels
//! [`EventBus::update_capability`] reports as changed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod channel;
pub mod event;
pub mod mailbox;
pub mod overload;

pub use bus::{
    DeliveredEvent, EventBus, PublishOutcome, Publisher, SubscriptionId, SubscriptionStats,
    TopicId, TopicRef,
};
pub use channel::{Admission, NetworkCapability, NetworkId};
pub use event::{Context, ContextFilter, Payload, QosBuilder, QosRequirement, Subject};
pub use mailbox::Mailbox;
pub use overload::{OverloadStrategy, QosClass};
