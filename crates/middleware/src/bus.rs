//! EventBus v2 — topic routing, QoS classes, bounded mailboxes and overload
//! strategies.
//!
//! The KARYON middleware promises QoS assessment *and maintenance* (paper
//! §V-B).  The [`channel`](crate::channel) module supplies the assessment
//! half — announcement-time admission against monitored
//! [`NetworkCapability`]s; this module supplies the maintenance half: what
//! the bus does when publishers outrun subscribers.
//!
//! * **Topics** — events route by topic name (`"platoon.lead"`), and a
//!   subscription listens to exactly one topic, as a FAMOUSO event channel
//!   is keyed by one subject UID.  Each topic carries the FNV-derived
//!   [`Subject`] of its name, the key of admission queries and
//!   capability-change reports.
//! * **Compiled fan-out** — the first publish on a topic compiles its route
//!   into a flat table: one entry per subscription to the topic, holding the
//!   subscription's index and, when the subscriber's network is attached,
//!   the delivery ratio and mean latency of the publisher's and subscriber's
//!   capabilities combined.  A publish walks that table, so no copy looks up
//!   a map or combines capabilities.  The four operations that can change a
//!   table — [`TopicRef::subscribe`], [`EventBus::attach_network`],
//!   [`EventBus::update_capability`] and [`TopicRef::announce`] — drop every
//!   table, and the next publish on each topic compiles its own again.
//! * **Mailboxes** — every subscription owns a bounded ring
//!   [`Mailbox`], sized by its [`QosClass`];
//!   subscribers drain it with [`EventBus::drain_with`].
//!   Publishing moves only `Copy` [`Payload`]s, so the hot path allocates
//!   nothing once routes are warm.
//! * **Backpressure** — when a mailbox is full, the subscription's
//!   [`OverloadStrategy`] decides (drop-newest / drop-oldest / sample /
//!   aggregate); once the bus-wide backlog reaches
//!   [`EventBus::set_backlog_threshold`], realtime subscriptions shed
//!   incoming events outright to protect their latency bound.
//! * **Stats** — each subscription accumulates delivery/drop counters and a
//!   constant-memory latency histogram, reported as [`SubscriptionStats`]
//!   (P50/P99 delivery latency included).

use std::collections::BTreeMap;

use karyon_sim::{BucketHistogram, Rng, SimDuration, SimTime};

use crate::channel::{Admission, NetworkCapability, NetworkId};
use crate::event::{Context, ContextFilter, Payload, QosRequirement, Subject};
use crate::mailbox::Mailbox;
use crate::overload::{OverloadStrategy, QosClass};

/// Identifier of an interned topic (index into the bus's topic table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub u32);

/// Identifier of one subscription (its index in subscription order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub u32);

/// The range and resolution of the per-subscription delivery-latency
/// histograms: 1 ms buckets up to 2 s; later samples land in the overflow
/// bucket (quantiles then report the exact observed maximum).
const LATENCY_HIST_MS: (f64, f64, usize) = (0.0, 2_000.0, 2_000);

/// The publisher handle returned by [`TopicRef::announce`]: proof that the
/// channel was announced, carrying the admission decision taken at
/// announcement time.
///
/// All publishing goes through [`EventBus::publish`] with this handle; the
/// *current* admission (which [`EventBus::update_capability`] may have
/// changed since) is available via [`EventBus::admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publisher {
    pub(crate) topic: TopicId,
    pub(crate) subject: Subject,
    pub(crate) admission: Admission,
}

impl Publisher {
    /// The topic this handle publishes on.
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// The subject UID of the topic: the key of [`EventBus::admission`] and
    /// of the changes [`EventBus::update_capability`] reports.
    pub fn subject(&self) -> Subject {
        self.subject
    }

    /// The admission decision taken when the channel was announced.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// True when the channel was admitted at announcement time.
    pub fn is_admitted(&self) -> bool {
        self.admission == Admission::Admitted
    }
}

/// What happened to one published event, per routing step.
///
/// `Copy` and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublishOutcome {
    /// Subscriptions the topic routed to.
    pub matched: u32,
    /// Copies enqueued into a mailbox (including ones that displaced an
    /// older queued event).
    pub enqueued: u32,
    /// Copies shed by backpressure: realtime pressure drops, full-mailbox
    /// drop-newest, displaced queued events and sampled-out events.
    pub dropped_overload: u32,
    /// Copies coalesced into an already-queued event (aggregate strategy).
    pub aggregated: u32,
    /// Copies lost by the modeled network.
    pub dropped_loss: u32,
    /// Copies rejected by the subscription's context filter.
    pub filtered_out: u32,
}

/// One event handed to a subscriber by [`EventBus::drain_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveredEvent {
    /// The subscription it was delivered on.
    pub subscription: SubscriptionId,
    /// The topic it was published on (the subscription's topic).
    pub topic: TopicId,
    /// The event body.
    pub payload: Payload,
    /// When the publisher produced it.
    pub produced_at: SimTime,
    /// When the network delivered it into the mailbox.
    pub arrived_at: SimTime,
    /// When the subscriber drained it (never before `arrived_at`).
    pub delivered_at: SimTime,
    /// End-to-end delivery latency: production → drain, queueing included.
    pub latency: SimDuration,
    /// Source events this delivery represents (> 1 after aggregation).
    pub represents: u32,
}

/// Accumulated statistics of one subscription.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubscriptionStats {
    /// Published events routed to this subscription.
    pub matched: u64,
    /// Events enqueued into the mailbox.
    pub enqueued: u64,
    /// Events drained by the subscriber.
    pub delivered: u64,
    /// Source events represented by the drained ones (≥ `delivered`; the
    /// difference is what aggregation coalesced).
    pub represented: u64,
    /// Realtime events shed because the bus-wide backlog had reached the
    /// threshold.
    pub dropped_pressure: u64,
    /// Events shed because the mailbox was full (drop-newest strategy).
    pub dropped_capacity: u64,
    /// Queued events displaced by newer ones (drop-oldest / sample).
    pub displaced: u64,
    /// Events shed by the sampling strategy while the mailbox was full.
    pub sampled_out: u64,
    /// Events coalesced into an already-queued slot (aggregate strategy).
    pub aggregated_merged: u64,
    /// Events lost by the modeled network.
    pub dropped_loss: u64,
    /// Events rejected by the context filter.
    pub filtered_out: u64,
    /// Deliveries whose latency exceeded the channel's QoS deadline.
    pub missed_deadline: u64,
    /// Events currently queued.
    pub backlog: u64,
    /// Largest backlog ever observed.
    pub peak_backlog: u64,
    /// Mean delivery latency in milliseconds (0 while nothing was drained).
    pub mean_latency_ms: f64,
    /// Median delivery latency in milliseconds (1 ms resolution).
    pub p50_latency_ms: f64,
    /// 99th-percentile delivery latency in milliseconds (1 ms resolution).
    pub p99_latency_ms: f64,
}

impl SubscriptionStats {
    /// Fraction of matched events that were drained by the subscriber,
    /// counting aggregated representations (0 while nothing matched).
    pub fn delivery_ratio(&self) -> f64 {
        if self.matched == 0 {
            0.0
        } else {
            self.represented as f64 / self.matched as f64
        }
    }
}

/// One queued mailbox slot — `Copy`, so rings move no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct QueuedEvent {
    produced_at: SimTime,
    arrived_at: SimTime,
    deadline: SimDuration,
    payload: Payload,
    aggregated: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct SubCounters {
    matched: u64,
    enqueued: u64,
    delivered: u64,
    represented: u64,
    dropped_pressure: u64,
    dropped_capacity: u64,
    displaced: u64,
    sampled_out: u64,
    aggregated_merged: u64,
    dropped_loss: u64,
    filtered_out: u64,
    missed_deadline: u64,
    peak_backlog: u64,
}

#[derive(Debug)]
struct SubscriptionEntry {
    topic: TopicId,
    network: NetworkId,
    filter: ContextFilter,
    class: QosClass,
    strategy: OverloadStrategy,
    mailbox: Mailbox<QueuedEvent>,
    sample_counter: u64,
    counters: SubCounters,
    latency_ms: BucketHistogram,
}

/// One compiled copy of a topic's fan-out.
#[derive(Debug, Clone, Copy)]
struct Fanout {
    /// Index of the subscription the copy goes to.
    sub: u32,
    /// The delivery ratio and the mean latency in seconds (at least 1 µs)
    /// of the publisher's and subscriber's capabilities combined; `None`
    /// while the subscriber's network is detached, which loses the copy.
    link: Option<(f64, f64)>,
}

#[derive(Debug, Clone)]
struct ChannelState {
    qos: QosRequirement,
    admission: Admission,
    publisher_network: NetworkId,
    /// The bus's announcement count when this channel was announced: its
    /// place in announcement order.
    announced: u64,
    published: u64,
}

/// The event-dissemination bus: networks, topics, QoS-classed subscriptions
/// with bounded mailboxes, announced channels and QoS accounting.  One bus
/// models the system-of-systems a vehicle participates in (in-vehicle bus +
/// one or more wireless networks, bridged by gateways).
///
/// ```
/// use karyon_middleware::{
///     EventBus, NetworkCapability, NetworkId, Payload, QosClass, QosRequirement,
/// };
/// use karyon_sim::{SimDuration, SimTime};
///
/// let mut bus = EventBus::new(7);
/// bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
/// let sub = bus.topic("platoon.lead").subscribe(QosClass::Batched);
/// let lead = bus
///     .topic("platoon.lead")
///     .announce(QosRequirement::batched(SimDuration::from_millis(50), 100.0));
/// assert!(lead.is_admitted());
///
/// bus.publish(&lead, Payload::tagged(1), SimTime::ZERO);
/// let drained = bus.drain_with(sub, SimTime::from_millis(5), usize::MAX, |ev| {
///     assert_eq!(ev.payload.tag, 1);
/// });
/// assert!(drained <= 1, "the local network may lose the copy, never duplicate it");
/// ```
#[derive(Debug)]
pub struct EventBus {
    networks: BTreeMap<NetworkId, NetworkCapability>,
    /// The subject of each interned topic, indexed by `TopicId`.
    subjects: Vec<Subject>,
    by_name: BTreeMap<String, TopicId>,
    by_subject: BTreeMap<Subject, TopicId>,
    /// The announced channel of each topic, indexed by `TopicId`.
    channels: Vec<Option<ChannelState>>,
    /// Channels announced so far, re-announcements included.
    announcements: u64,
    subscriptions: Vec<SubscriptionEntry>,
    /// The compiled fan-out of each topic, indexed by `TopicId`; `None`
    /// until the topic's next publish compiles it.
    routes: Vec<Option<Vec<Fanout>>>,
    /// Set by the four operations that can change a fan-out; the next
    /// publish then drops every compiled table.
    routes_dirty: bool,
    backlog: usize,
    backlog_threshold: usize,
    rng: Rng,
}

impl EventBus {
    /// The default bus-wide backlog threshold: once the backlog reaches it,
    /// realtime subscriptions shed incoming events.
    pub const DEFAULT_BACKLOG_THRESHOLD: usize = 1024;

    /// Creates a bus with no networks attached.
    pub fn new(seed: u64) -> Self {
        EventBus {
            networks: BTreeMap::new(),
            subjects: Vec::new(),
            by_name: BTreeMap::new(),
            by_subject: BTreeMap::new(),
            channels: Vec::new(),
            announcements: 0,
            subscriptions: Vec::new(),
            routes: Vec::new(),
            routes_dirty: false,
            backlog: 0,
            backlog_threshold: Self::DEFAULT_BACKLOG_THRESHOLD,
            rng: Rng::seed_from(seed),
        }
    }

    /// Attaches (or re-assesses) a network segment.
    pub fn attach_network(&mut self, id: NetworkId, capability: NetworkCapability) {
        self.networks.insert(id, capability);
        self.routes_dirty = true;
    }

    /// Sets the bus-wide backlog threshold: once the total number of queued
    /// events reaches it, realtime subscriptions drop incoming events
    /// aggressively to protect their latency bound.
    pub fn set_backlog_threshold(&mut self, threshold: usize) {
        self.backlog_threshold = threshold;
    }

    /// The configured bus-wide backlog threshold.
    pub fn backlog_threshold(&self) -> usize {
        self.backlog_threshold
    }

    /// Total events currently queued across all mailboxes.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Opens the builder for the topic `name`: subscribe to it, or announce
    /// a channel publishing on it.
    ///
    /// # Panics
    /// Panics on an empty name, and on a name containing `*`: the bus has no
    /// wildcard patterns, and such a subscription would otherwise listen to
    /// a literal topic no publisher uses.
    pub fn topic<'a>(&'a mut self, name: &str) -> TopicRef<'a> {
        assert!(!name.is_empty(), "topic names must be non-empty");
        assert!(!name.contains('*'), "topic {name:?} contains `*`: subscriptions are exact");
        let topic = self.intern_topic(name);
        TopicRef {
            bus: self,
            topic,
            network: NetworkId(0),
            filter: ContextFilter::accept_all(),
            capacity: None,
            strategy: None,
        }
    }

    fn intern_topic(&mut self, name: &str) -> TopicId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let subject = Subject::from_name(name);
        let id = TopicId(self.subjects.len() as u32);
        self.subjects.push(subject);
        self.by_name.insert(name.to_string(), id);
        self.by_subject.insert(subject, id);
        id
    }

    /// The accumulated statistics of a subscription, or `None` for an
    /// unknown id.
    pub fn subscription_stats(&self, subscription: SubscriptionId) -> Option<SubscriptionStats> {
        let sub = self.subscriptions.get(subscription.0 as usize)?;
        let c = &sub.counters;
        Some(SubscriptionStats {
            matched: c.matched,
            enqueued: c.enqueued,
            delivered: c.delivered,
            represented: c.represented,
            dropped_pressure: c.dropped_pressure,
            dropped_capacity: c.dropped_capacity,
            displaced: c.displaced,
            sampled_out: c.sampled_out,
            aggregated_merged: c.aggregated_merged,
            dropped_loss: c.dropped_loss,
            filtered_out: c.filtered_out,
            missed_deadline: c.missed_deadline,
            backlog: sub.mailbox.len() as u64,
            peak_backlog: c.peak_backlog,
            mean_latency_ms: sub.latency_ms.mean(),
            p50_latency_ms: sub.latency_ms.p50(),
            p99_latency_ms: sub.latency_ms.p99(),
        })
    }

    /// Exports the bus's accumulated accounting into a unified
    /// [`MetricsRegistry`](karyon_telemetry::MetricsRegistry) under `prefix`:
    ///
    /// * `<prefix>.published` — events published across every channel
    ///   (counter; additive over repeated exports and multiple buses);
    /// * `<prefix>.subscriptions` — subscription count (gauge);
    /// * per [`QosClass`] (lowercase: `realtime`, `batched`, `background`),
    ///   summed over the class's subscriptions:
    ///   `<prefix>.<class>.{matched, delivered, dropped, missed_deadline}`
    ///   counters (`dropped` folds pressure/capacity/loss/sampling sheds
    ///   together) and a `<prefix>.<class>.latency_ms` timer merging the
    ///   class's queueing-delay histograms — every subscription shares one
    ///   bucket configuration precisely so this merge is exact.
    pub fn export_metrics(&self, prefix: &str, metrics: &mut karyon_telemetry::MetricsRegistry) {
        let published: u64 = self.channels.iter().flatten().map(|c| c.published).sum();
        metrics.add(&format!("{prefix}.published"), published);
        metrics.set_gauge(&format!("{prefix}.subscriptions"), self.subscriptions.len() as f64);
        for (class, label) in [
            (QosClass::Realtime, "realtime"),
            (QosClass::Batched, "batched"),
            (QosClass::Background, "background"),
        ] {
            let mut matched = 0u64;
            let mut delivered = 0u64;
            let mut dropped = 0u64;
            let mut missed_deadline = 0u64;
            let (lo, hi, buckets) = LATENCY_HIST_MS;
            let mut latency = BucketHistogram::new(lo, hi, buckets);
            for sub in self.subscriptions.iter().filter(|s| s.class == class) {
                let c = &sub.counters;
                matched += c.matched;
                delivered += c.delivered;
                dropped += c.dropped_pressure + c.dropped_capacity + c.dropped_loss + c.sampled_out;
                missed_deadline += c.missed_deadline;
                latency.merge(&sub.latency_ms);
            }
            metrics.add(&format!("{prefix}.{label}.matched"), matched);
            metrics.add(&format!("{prefix}.{label}.delivered"), delivered);
            metrics.add(&format!("{prefix}.{label}.dropped"), dropped);
            metrics.add(&format!("{prefix}.{label}.missed_deadline"), missed_deadline);
            if !latency.is_empty() {
                metrics.merge_timer(&format!("{prefix}.{label}.latency_ms"), &latency);
            }
        }
    }

    fn admitted_rate_excluding(&self, except: TopicId) -> f64 {
        self.channels
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != except.0 as usize)
            .filter_map(|(_, c)| c.as_ref())
            .filter(|c| c.admission == Admission::Admitted)
            .map(|c| c.qos.max_rate)
            .sum()
    }

    /// The fan-out of `topic` published from `publisher_network`: empty
    /// while that network is detached, so nothing matches.
    fn compile_route(
        networks: &BTreeMap<NetworkId, NetworkCapability>,
        subscriptions: &[SubscriptionEntry],
        topic: TopicId,
        publisher_network: NetworkId,
    ) -> Vec<Fanout> {
        let Some(pub_cap) = networks.get(&publisher_network) else {
            return Vec::new();
        };
        subscriptions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.topic == topic)
            .map(|(i, s)| Fanout {
                sub: i as u32,
                link: networks.get(&s.network).map(|sub_cap| {
                    let capability = pub_cap.combine_worst(sub_cap);
                    (
                        capability.expected_delivery_ratio,
                        capability.expected_latency.as_secs_f64().max(1e-6),
                    )
                }),
            })
            .collect()
    }

    /// The worst-case capability over the publisher's network and every
    /// subscriber network for the topic (gateway-crossing channels are only
    /// as good as their weakest segment).
    fn effective_capability(
        &self,
        topic: TopicId,
        publisher_network: NetworkId,
    ) -> Option<NetworkCapability> {
        let mut capability = *self.networks.get(&publisher_network)?;
        for sub in self.subscriptions.iter().filter(|s| s.topic == topic) {
            if let Some(remote) = self.networks.get(&sub.network) {
                capability = capability.combine_worst(remote);
            }
        }
        Some(capability)
    }

    /// Assesses `qos` for a channel on `topic` published from
    /// `publisher_network`: against the weakest segment on its path and the
    /// rate every other admitted channel of the bus holds.
    fn assess(
        &self,
        topic: TopicId,
        publisher_network: NetworkId,
        qos: &QosRequirement,
    ) -> Admission {
        let admitted_rate = self.admitted_rate_excluding(topic);
        match self.effective_capability(topic, publisher_network) {
            Some(capability) if capability.satisfies(qos, admitted_rate) => Admission::Admitted,
            _ => Admission::Rejected,
        }
    }

    fn announce_topic(
        &mut self,
        topic: TopicId,
        publisher_network: NetworkId,
        qos: QosRequirement,
    ) -> Publisher {
        let admission = self.assess(topic, publisher_network, &qos);
        let t = topic.0 as usize;
        if self.channels.len() <= t {
            self.channels.resize_with(t + 1, || None);
        }
        let announced = self.announcements;
        self.announcements += 1;
        self.channels[t] =
            Some(ChannelState { qos, admission, publisher_network, announced, published: 0 });
        self.routes_dirty = true;
        Publisher { topic, subject: self.subjects[t], admission }
    }

    /// Updates the dynamically monitored capability of a network and
    /// re-assesses every announced channel as if it were announced anew:
    /// first the channels admitted before the update, then the rejected
    /// ones, each group in announcement order, and each channel against the
    /// rate admitted so far in this pass.  An incumbent therefore keeps its
    /// admission whenever the new capability can still carry it, and a
    /// transient degradation cannot hand its rate to a later channel.
    ///
    /// Returns the subjects whose admission status changed, in that
    /// re-assessment order (the adaptation hook the safety kernel listens
    /// to).
    pub fn update_capability(
        &mut self,
        id: NetworkId,
        capability: NetworkCapability,
    ) -> Vec<Subject> {
        self.networks.insert(id, capability);
        self.routes_dirty = true;
        // Withdraw every admission, remembering it, so the bus-wide sum
        // counts only what this pass has admitted again.
        let mut previous: Vec<(Admission, u64, usize)> = self
            .channels
            .iter_mut()
            .enumerate()
            .filter_map(|(t, channel)| {
                let channel = channel.as_mut()?;
                let before = std::mem::replace(&mut channel.admission, Admission::Rejected);
                Some((before, channel.announced, t))
            })
            .collect();
        previous.sort_by_key(|&(before, announced, _)| (before != Admission::Admitted, announced));
        let mut changed = Vec::new();
        for (before, _, t) in previous {
            let channel = self.channels[t].as_ref().expect("announced");
            let after = self.assess(TopicId(t as u32), channel.publisher_network, &channel.qos);
            self.channels[t].as_mut().expect("announced").admission = after;
            if after != before {
                changed.push(self.subjects[t]);
            }
        }
        changed
    }

    /// The current admission status of an announced channel.
    pub fn admission(&self, subject: Subject) -> Option<Admission> {
        let topic = self.by_subject.get(&subject)?;
        self.channels.get(topic.0 as usize)?.as_ref().map(|c| c.admission)
    }

    /// Publishes one event on the publisher's channel and routes it to every
    /// matching subscription under its QoS policy.  The hot path: once the
    /// topic's fan-out is compiled, no allocation happens here for any
    /// fan-out.
    ///
    /// The returned [`PublishOutcome`] says what happened to each routed
    /// copy; subscribers receive theirs when they
    /// [`drain_with`](EventBus::drain_with).
    pub fn publish(
        &mut self,
        publisher: &Publisher,
        payload: Payload,
        now: SimTime,
    ) -> PublishOutcome {
        let topic = publisher.topic;
        let mut outcome = PublishOutcome::default();
        let EventBus {
            networks,
            channels,
            subscriptions,
            routes,
            routes_dirty,
            backlog,
            backlog_threshold,
            rng,
            ..
        } = self;
        let t = topic.0 as usize;
        let Some(Some(channel)) = channels.get_mut(t) else {
            return outcome;
        };
        channel.published += 1;
        let deadline = channel.qos.max_latency;
        if *routes_dirty {
            routes.clear();
            *routes_dirty = false;
        }
        if routes.len() <= t {
            routes.resize_with(t + 1, || None);
        }
        let route = routes[t].get_or_insert_with(|| {
            Self::compile_route(networks, subscriptions, topic, channel.publisher_network)
        });
        let context = Context { position: payload.position, timestamp: now };

        for &Fanout { sub, link } in route.iter() {
            outcome.matched += 1;
            let sub = &mut subscriptions[sub as usize];
            sub.counters.matched += 1;
            let Some((delivery_ratio, mean_latency_s)) = link else {
                sub.counters.dropped_loss += 1;
                outcome.dropped_loss += 1;
                continue;
            };
            // Loss.
            if !rng.chance(delivery_ratio) {
                sub.counters.dropped_loss += 1;
                outcome.dropped_loss += 1;
                continue;
            }
            // Latency: exponential around the expected value.
            let latency = SimDuration::from_secs_f64(rng.exponential(mean_latency_s));
            let arrived_at = now + latency;
            if !sub.filter.matches(&context, arrived_at) {
                sub.counters.filtered_out += 1;
                outcome.filtered_out += 1;
                continue;
            }
            let queued =
                QueuedEvent { produced_at: now, arrived_at, deadline, payload, aggregated: 1 };
            // Backpressure: realtime sheds under bus-wide pressure.
            if sub.class == QosClass::Realtime && *backlog >= *backlog_threshold {
                sub.counters.dropped_pressure += 1;
                outcome.dropped_overload += 1;
                continue;
            }
            if sub.mailbox.push(queued) {
                *backlog += 1;
                sub.counters.enqueued += 1;
                sub.counters.peak_backlog = sub.counters.peak_backlog.max(sub.mailbox.len() as u64);
                outcome.enqueued += 1;
                continue;
            }
            // Mailbox full: the subscription's overload strategy decides.
            match sub.strategy {
                OverloadStrategy::DropNewest => {
                    sub.counters.dropped_capacity += 1;
                    outcome.dropped_overload += 1;
                }
                OverloadStrategy::DropOldest => {
                    sub.mailbox.displace_push(queued);
                    sub.counters.displaced += 1;
                    sub.counters.enqueued += 1;
                    outcome.enqueued += 1;
                    outcome.dropped_overload += 1;
                }
                OverloadStrategy::Sample { keep_1_in } => {
                    sub.sample_counter += 1;
                    if sub.sample_counter % u64::from(keep_1_in.max(1)) == 0 {
                        sub.mailbox.displace_push(queued);
                        sub.counters.displaced += 1;
                        sub.counters.enqueued += 1;
                        outcome.enqueued += 1;
                    } else {
                        sub.counters.sampled_out += 1;
                    }
                    outcome.dropped_overload += 1;
                }
                OverloadStrategy::Aggregate => {
                    let newest = sub.mailbox.newest_mut().expect("full mailbox is non-empty");
                    newest.payload = queued.payload;
                    newest.aggregated += 1;
                    sub.counters.aggregated_merged += 1;
                    outcome.aggregated += 1;
                }
            }
        }
        outcome
    }

    /// Drains up to `max` events from a subscription's mailbox into the
    /// callback, oldest first, recording each one's delivery-latency and
    /// deadline statistics; returns how many were delivered.
    ///
    /// Queued events are handed out even when their modeled network arrival
    /// lies after `now`; `delivered_at` is then the arrival time, so latency
    /// accounting never runs backwards.
    pub fn drain_with(
        &mut self,
        subscription: SubscriptionId,
        now: SimTime,
        max: usize,
        mut deliver: impl FnMut(DeliveredEvent),
    ) -> usize {
        let Some(sub) = self.subscriptions.get_mut(subscription.0 as usize) else {
            return 0;
        };
        let mut drained = 0;
        while drained < max {
            let Some(queued) = sub.mailbox.pop() else {
                break;
            };
            let delivered_at = if queued.arrived_at > now { queued.arrived_at } else { now };
            let latency = delivered_at.since(queued.produced_at);
            sub.counters.delivered += 1;
            sub.counters.represented += u64::from(queued.aggregated);
            if latency > queued.deadline {
                sub.counters.missed_deadline += 1;
            }
            sub.latency_ms.record(latency.as_secs_f64() * 1e3);
            deliver(DeliveredEvent {
                subscription,
                topic: sub.topic,
                payload: queued.payload,
                produced_at: queued.produced_at,
                arrived_at: queued.arrived_at,
                delivered_at,
                latency,
                represents: queued.aggregated,
            });
            drained += 1;
        }
        self.backlog -= drained;
        drained
    }
}

/// The builder returned by [`EventBus::topic`]: configures and creates one
/// subscription or one announced channel on a topic.
///
/// ```
/// use karyon_middleware::{EventBus, NetworkCapability, NetworkId, OverloadStrategy, QosClass};
///
/// let mut bus = EventBus::new(1);
/// bus.attach_network(NetworkId(1), NetworkCapability::wireless_nominal());
/// let sub = bus
///     .topic("v2v.state")
///     .via(NetworkId(1))
///     .mailbox(128)
///     .overload(OverloadStrategy::Sample { keep_1_in: 8 })
///     .subscribe(QosClass::Realtime);
/// assert_eq!(bus.subscription_stats(sub).unwrap().matched, 0);
/// ```
pub struct TopicRef<'a> {
    bus: &'a mut EventBus,
    topic: TopicId,
    network: NetworkId,
    filter: ContextFilter,
    capacity: Option<usize>,
    strategy: Option<OverloadStrategy>,
}

impl<'a> TopicRef<'a> {
    /// The network segment the subscriber listens on / the publisher sends
    /// from (default: `NetworkId(0)`).
    pub fn via(mut self, network: NetworkId) -> Self {
        self.network = network;
        self
    }

    /// A context filter for the subscription (default: accept everything).
    pub fn filter(mut self, filter: ContextFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Overrides the mailbox capacity (default: the QoS class's
    /// [`default_capacity`](QosClass::default_capacity)).
    pub fn mailbox(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Overrides the overload strategy (default: the QoS class's
    /// [`default_strategy`](QosClass::default_strategy)).
    pub fn overload(mut self, strategy: OverloadStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Creates the subscription under the given QoS class and returns its
    /// id.
    pub fn subscribe(self, class: QosClass) -> SubscriptionId {
        let (lo, hi, buckets) = LATENCY_HIST_MS;
        let id = SubscriptionId(self.bus.subscriptions.len() as u32);
        self.bus.subscriptions.push(SubscriptionEntry {
            topic: self.topic,
            network: self.network,
            filter: self.filter,
            class,
            strategy: self.strategy.unwrap_or_else(|| class.default_strategy()),
            mailbox: Mailbox::new(self.capacity.unwrap_or_else(|| class.default_capacity())),
            sample_counter: 0,
            counters: SubCounters::default(),
            latency_ms: BucketHistogram::new(lo, hi, buckets),
        });
        self.bus.routes_dirty = true;
        id
    }

    /// Announces an event channel publishing on this topic from the
    /// configured network, assessing the QoS requirement against the current
    /// network capabilities, and returns the [`Publisher`] handle.
    ///
    /// Re-announcing a topic replaces its channel (and resets its publish
    /// counter) — the dynamic re-assessment path.  The replacement takes the
    /// last place in announcement order.
    pub fn announce(self, qos: QosRequirement) -> Publisher {
        self.bus.announce_topic(self.topic, self.network, qos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon_sim::Vec2;

    fn bus() -> EventBus {
        let mut bus = EventBus::new(7);
        bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
        bus.attach_network(NetworkId(1), NetworkCapability::wireless_nominal());
        bus
    }

    fn publish_n(bus: &mut EventBus, publisher: &Publisher, n: u64, step_ms: u64) {
        for i in 0..n {
            bus.publish(publisher, Payload::tagged(i), SimTime::from_millis(i * step_ms));
        }
    }

    #[test]
    #[should_panic(expected = "subscriptions are exact")]
    fn topic_names_with_a_star_panic() {
        let mut bus = bus();
        let _ = bus.topic("platoon.*").subscribe(QosClass::Batched);
    }

    #[test]
    fn publish_and_drain_records_latency_and_deadlines() {
        let mut bus = bus();
        let sub = bus.topic("v2v.state").via(NetworkId(1)).subscribe(QosClass::Batched);
        let publisher = bus
            .topic("v2v.state")
            .via(NetworkId(1))
            .announce(QosRequirement::batched(SimDuration::from_millis(60), 10.0));
        assert!(publisher.is_admitted());
        publish_n(&mut bus, &publisher, 200, 10);
        let drained = bus.drain_with(sub, SimTime::from_secs(3), usize::MAX, |ev| {
            assert!(ev.delivered_at >= ev.arrived_at);
            assert_eq!(ev.topic, publisher.topic());
        });
        let stats = bus.subscription_stats(sub).unwrap();
        assert_eq!(stats.delivered, drained as u64);
        assert!(stats.delivered > 150, "wireless nominal delivers ~95%");
        assert!(stats.mean_latency_ms > 0.0);
        assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
        assert_eq!(stats.backlog, 0);
        assert_eq!(bus.backlog(), 0);
    }

    #[test]
    fn realtime_sheds_under_global_pressure_and_full_mailbox() {
        let mut bus = bus();
        bus.set_backlog_threshold(8);
        // The batched subscription fills the bus-wide backlog past the
        // threshold; the realtime one must then shed incoming events.
        let batched = bus.topic("load.bulk").subscribe(QosClass::Batched);
        let rt = bus.topic("load.hot").mailbox(4).subscribe(QosClass::Realtime);
        let bulk = bus.topic("load.bulk").announce(QosRequirement::best_effort());
        let hot = bus.topic("load.hot").announce(QosRequirement::best_effort());
        publish_n(&mut bus, &bulk, 20, 1);
        assert!(bus.backlog() >= 8);
        publish_n(&mut bus, &hot, 10, 1);
        let stats = bus.subscription_stats(rt).unwrap();
        assert_eq!(stats.dropped_pressure, 10, "all realtime copies shed under pressure");
        assert_eq!(stats.enqueued, 0);
        // Below the threshold the realtime mailbox accepts until full, then
        // drops the newest.
        bus.drain_with(batched, SimTime::from_secs(1), usize::MAX, |_| {});
        publish_n(&mut bus, &hot, 10, 1);
        let stats = bus.subscription_stats(rt).unwrap();
        assert!(stats.enqueued >= 3, "mailbox accepts up to capacity, minus loss");
        assert!(stats.dropped_capacity >= 4, "overflow drops the newest");
        assert_eq!(stats.backlog + stats.dropped_capacity + stats.dropped_loss, 10);
    }

    #[test]
    fn realtime_sheds_once_the_backlog_reaches_the_threshold() {
        const THRESHOLD: usize = 4;
        let mut bus = EventBus::new(5);
        // A lossless network, so the backlog grows by exactly one per copy.
        bus.attach_network(
            NetworkId(0),
            NetworkCapability {
                expected_latency: SimDuration::from_millis(1),
                expected_delivery_ratio: 1.0,
                capacity_rate: 1e6,
            },
        );
        bus.set_backlog_threshold(THRESHOLD);
        bus.topic("load.bulk").subscribe(QosClass::Background);
        bus.topic("load.hot").subscribe(QosClass::Realtime);
        let bulk = bus.topic("load.bulk").announce(QosRequirement::best_effort());
        let hot = bus.topic("load.hot").announce(QosRequirement::best_effort());
        publish_n(&mut bus, &bulk, THRESHOLD as u64 - 1, 1);
        assert_eq!(bus.backlog(), THRESHOLD - 1);
        let below = bus.publish(&hot, Payload::tagged(0), SimTime::ZERO);
        assert_eq!((below.enqueued, below.dropped_overload), (1, 0), "backlog N - 1 enqueues");
        assert_eq!(bus.backlog(), THRESHOLD);
        let at = bus.publish(&hot, Payload::tagged(1), SimTime::ZERO);
        assert_eq!((at.enqueued, at.dropped_overload), (0, 1), "backlog N sheds");
        assert_eq!(bus.backlog(), THRESHOLD);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_window() {
        let mut bus = bus();
        let sub = bus.topic("t.a").mailbox(4).subscribe(QosClass::Batched);
        let publisher = bus.topic("t.a").announce(QosRequirement::best_effort());
        publish_n(&mut bus, &publisher, 100, 1);
        let mut tags = Vec::new();
        bus.drain_with(sub, SimTime::from_secs(10), usize::MAX, |ev| tags.push(ev.payload.tag));
        assert_eq!(tags.len(), 4);
        let stats = bus.subscription_stats(sub).unwrap();
        assert_eq!(stats.enqueued + stats.dropped_loss, 100);
        assert!(stats.displaced >= 90, "older events were displaced");
        // The surviving window is the newest traffic, in FIFO order.
        assert!(tags.windows(2).all(|w| w[0] < w[1]));
        assert!(*tags.last().unwrap() > 90);
    }

    #[test]
    fn sampling_is_deterministic_and_counted() {
        let mut bus = bus();
        let sub = bus
            .topic("t.s")
            .mailbox(4)
            .overload(OverloadStrategy::Sample { keep_1_in: 4 })
            .subscribe(QosClass::Batched);
        let publisher = bus.topic("t.s").announce(QosRequirement::best_effort());
        publish_n(&mut bus, &publisher, 100, 1);
        let stats = bus.subscription_stats(sub).unwrap();
        assert!(stats.sampled_out > 0);
        assert!(stats.displaced > 0, "every 4th overflow event displaces the oldest");
        let admitted_overflow = stats.displaced;
        let shed = stats.sampled_out;
        // 1-in-4 of the overflow traffic is admitted.
        assert_eq!(admitted_overflow + shed, stats.matched - stats.dropped_loss - 4);
        assert!((shed / admitted_overflow) == 3, "shed {shed}, admitted {admitted_overflow}");
    }

    #[test]
    fn aggregate_coalesces_bursts_into_bounded_summaries() {
        let mut bus = bus();
        let sub = bus
            .topic("t.agg")
            .mailbox(2)
            .overload(OverloadStrategy::Aggregate)
            .subscribe(QosClass::Background);
        let publisher = bus.topic("t.agg").announce(QosRequirement::best_effort());
        publish_n(&mut bus, &publisher, 50, 1);
        let stats = bus.subscription_stats(sub).unwrap();
        assert_eq!(stats.backlog, 2, "the burst is represented by two slots");
        let mut represented = 0;
        let mut newest_tag = 0;
        bus.drain_with(sub, SimTime::from_secs(1), usize::MAX, |ev| {
            represented += ev.represents as u64;
            newest_tag = newest_tag.max(ev.payload.tag);
        });
        let stats = bus.subscription_stats(sub).unwrap();
        assert_eq!(represented, stats.enqueued + stats.aggregated_merged);
        assert_eq!(represented + stats.dropped_loss, 50, "every copy is accounted for");
        assert_eq!(stats.represented, represented);
        assert!(newest_tag >= 45, "the coalesced slot keeps the freshest payload");
    }

    #[test]
    fn subscriptions_on_detached_networks_count_losses() {
        let mut bus = bus();
        let sub = bus.topic("t.det").via(NetworkId(9)).subscribe(QosClass::Batched);
        let publisher = bus.topic("t.det").announce(QosRequirement::best_effort());
        bus.publish(&publisher, Payload::tagged(0), SimTime::ZERO);
        let stats = bus.subscription_stats(sub).unwrap();
        assert_eq!(stats.dropped_loss, 1);
        assert_eq!(stats.enqueued, 0);
    }

    #[test]
    fn announcement_assesses_qos_against_subscriber_networks() {
        let mut bus = bus();
        // Local-only subscription: strict latency is admitted.
        bus.topic("vehicle.heading").subscribe(QosClass::Batched);
        let strict = QosRequirement::builder()
            .max_latency(SimDuration::from_millis(2))
            .min_delivery_ratio(0.99)
            .max_rate(10.0)
            .build();
        assert!(bus.topic("vehicle.heading").announce(strict).is_admitted());
        // Adding a wireless subscriber makes the same requirement unsatisfiable.
        bus.topic("vehicle.heading").via(NetworkId(1)).subscribe(QosClass::Batched);
        let publisher = bus.topic("vehicle.heading").announce(strict);
        assert_eq!(publisher.admission(), Admission::Rejected);
        assert_eq!(bus.admission(publisher.subject()), Some(Admission::Rejected));
        // A relaxed requirement is admitted.
        let relaxed = QosRequirement::batched(SimDuration::from_millis(100), 10.0);
        assert!(bus.topic("vehicle.heading").announce(relaxed).is_admitted());
    }

    #[test]
    fn rate_admission_is_cumulative() {
        let mut bus = bus();
        bus.topic("a").via(NetworkId(1)).subscribe(QosClass::Batched);
        bus.topic("b").via(NetworkId(1)).subscribe(QosClass::Batched);
        let heavy = QosRequirement::builder()
            .max_latency(SimDuration::from_secs(1))
            .min_delivery_ratio(0.5)
            .max_rate(300.0)
            .build();
        assert!(bus.topic("a").via(NetworkId(1)).announce(heavy).is_admitted());
        // The wireless network sustains 500 events/s: a second 300 events/s
        // channel does not fit.
        assert!(!bus.topic("b").via(NetworkId(1)).announce(heavy).is_admitted());
    }

    #[test]
    fn context_filters_route_to_matching_subscribers_only() {
        let mut bus = bus();
        let near = bus
            .topic("hazard.warning")
            .filter(ContextFilter::within(Vec2::ZERO, 100.0))
            .subscribe(QosClass::Batched);
        let far = bus
            .topic("hazard.warning")
            .filter(ContextFilter::within(Vec2::new(10_000.0, 0.0), 100.0))
            .subscribe(QosClass::Batched);
        let other = bus.topic("other").subscribe(QosClass::Batched);
        let publisher = bus.topic("hazard.warning").announce(QosRequirement::best_effort());
        let outcome =
            bus.publish(&publisher, Payload::at(Vec2::new(5.0, 5.0), 1), SimTime::from_millis(10));
        assert_eq!(outcome.matched, 2);
        assert_eq!(outcome.enqueued, 1);
        assert_eq!(outcome.filtered_out, 1);
        assert_eq!(bus.subscription_stats(far).unwrap().filtered_out, 1);
        assert_eq!(bus.subscription_stats(other).unwrap().matched, 0);
        let drained = bus.drain_with(near, SimTime::from_millis(10), usize::MAX, |ev| {
            assert_eq!(ev.payload.tag, 1);
        });
        assert_eq!(drained, 1);
        assert_eq!(bus.drain_with(far, SimTime::from_millis(10), usize::MAX, |_| {}), 0);
    }

    #[test]
    fn capability_degradation_changes_admission() {
        let mut bus = bus();
        let sub_topic = "v2v.state";
        bus.topic(sub_topic).via(NetworkId(1)).subscribe(QosClass::Batched);
        let publisher = bus
            .topic(sub_topic)
            .via(NetworkId(1))
            .announce(QosRequirement::batched(SimDuration::from_millis(50), 10.0));
        assert!(publisher.is_admitted());
        let subject = publisher.subject();
        // The monitoring layer reports degradation: the channel loses its admission.
        let changed = bus.update_capability(NetworkId(1), NetworkCapability::wireless_degraded());
        assert_eq!(changed, vec![subject]);
        assert_eq!(bus.admission(subject), Some(Admission::Rejected));
        // Recovery restores it.
        let changed = bus.update_capability(NetworkId(1), NetworkCapability::wireless_nominal());
        assert_eq!(changed, vec![subject]);
        assert_eq!(bus.admission(subject), Some(Admission::Admitted));
        // Re-asserting the same capability changes nothing.
        assert!(bus
            .update_capability(NetworkId(1), NetworkCapability::wireless_nominal())
            .is_empty());
    }

    #[test]
    fn delivery_latency_statistics_accumulate() {
        let mut bus = bus();
        let sub = bus.topic("platoon.lead-state").via(NetworkId(1)).subscribe(QosClass::Batched);
        let publisher = bus.topic("platoon.lead-state").via(NetworkId(1)).announce(
            QosRequirement::builder()
                .max_latency(SimDuration::from_millis(60))
                .min_delivery_ratio(0.5)
                .max_rate(10.0)
                .build(),
        );
        // Drained at each publish instant, so the latency is the network's alone.
        for i in 0..200u64 {
            let now = SimTime::from_millis(i * 10);
            bus.publish(&publisher, Payload::tagged(i), now);
            bus.drain_with(sub, now, usize::MAX, |_| {});
        }
        let stats = bus.subscription_stats(sub).unwrap();
        assert_eq!(stats.matched, 200);
        assert!(stats.delivered > 150, "delivered {}", stats.delivered);
        assert!(
            stats.mean_latency_ms > 1.0 && stats.mean_latency_ms < 100.0,
            "mean latency {}",
            stats.mean_latency_ms
        );
    }
}
