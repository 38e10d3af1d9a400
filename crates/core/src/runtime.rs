//! Run-time safety information and timing failure detection.
//!
//! The Run Time Safety Information component "abstracts the concrete
//! mechanisms that must be put in place to do this information collection
//! (which will include, for instance, failure detectors for detecting timing
//! faults)" (paper §III).  The store collects validity-annotated data items
//! (from the abstract sensors and the cooperation layer) and component
//! health reports (from timing failure detectors and self-checks).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use karyon_sensors::Validity;
use karyon_sim::{SimDuration, SimTime};

/// A validity-annotated data item collected for rule evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataItem {
    /// The most recent value.
    pub value: f64,
    /// Its validity.
    pub validity: Validity,
    /// When the value was produced.
    pub timestamp: SimTime,
}

/// A component health report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// Whether the component is currently considered healthy.
    pub healthy: bool,
    /// When the report was produced.
    pub timestamp: SimTime,
}

/// The two name spaces of the store: data items and component health.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Namespace {
    Data,
    Health,
}

/// The slot index a name that was never interned resolves to: past the end
/// of every slot vector, so it reads as absent.
pub(crate) const ABSENT: u32 = u32::MAX;

/// Source of [`RunTimeSafetyInfo::layout`] stamps.
static NEXT_LAYOUT: AtomicU64 = AtomicU64::new(0);

/// One name space of the store: a name→slot table over a dense slot vector.
#[derive(Debug, Clone)]
struct Slots<T> {
    names: BTreeMap<Box<str>, u32>,
    values: Vec<Option<T>>,
    /// Slots written at least once.
    written: usize,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots { names: BTreeMap::new(), values: Vec::new(), written: 0 }
    }

    /// The slot of `name`, or [`ABSENT`] when it was never interned.
    fn slot(&self, name: &str) -> u32 {
        self.names.get(name).copied().unwrap_or(ABSENT)
    }

    /// The slot of `name`, appended (unwritten) when it is new.
    fn intern(&mut self, name: &str) -> u32 {
        match self.slot(name) {
            ABSENT => {
                let slot = u32::try_from(self.values.len()).ok().filter(|&s| s != ABSENT);
                let slot = slot.expect("a store holds fewer than u32::MAX names per name space");
                self.names.insert(name.into(), slot);
                self.values.push(None);
                slot
            }
            slot => slot,
        }
    }

    fn write(&mut self, name: &str, value: T) {
        let slot = self.intern(name) as usize;
        let entry = &mut self.values[slot];
        self.written += usize::from(entry.is_none());
        *entry = Some(value);
    }

    #[inline]
    fn get(&self, slot: u32) -> Option<&T> {
        self.values.get(slot as usize).and_then(Option::as_ref)
    }
}

/// The Run Time Safety Information store.
///
/// Data items and health reports live in dense slot vectors; each name space
/// has one name→slot table that is read only when a name is new or is looked
/// up by name.  A name keeps its slot for the life of the store (and of its
/// clones), so rules resolved to slots once stay valid however many names
/// are added later.  A slot can exist before its first write (a rule may
/// reference an item nobody reports); such a slot reads as absent and is not
/// counted by [`data_len`](Self::data_len), [`health_len`](Self::health_len)
/// or [`data_items`](Self::data_items).
#[derive(Debug, Clone)]
pub struct RunTimeSafetyInfo {
    now: SimTime,
    layout: u64,
    data: Slots<DataItem>,
    health: Slots<HealthReport>,
}

impl Default for RunTimeSafetyInfo {
    fn default() -> Self {
        RunTimeSafetyInfo {
            now: SimTime::ZERO,
            layout: NEXT_LAYOUT.fetch_add(1, Ordering::Relaxed),
            data: Slots::new(),
            health: Slots::new(),
        }
    }
}

impl RunTimeSafetyInfo {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current time used for age checks.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The current time used for age checks.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records (or replaces) a data item.  A name the store already knows
    /// is written in place without allocating.
    pub fn update_data(&mut self, item: &str, value: f64, validity: Validity, timestamp: SimTime) {
        self.data.write(item, DataItem { value, validity, timestamp });
    }

    /// Looks up a data item.
    pub fn data(&self, item: &str) -> Option<&DataItem> {
        self.data_at(self.data.slot(item))
    }

    /// Records (or replaces) a component health report.  A name the store
    /// already knows is written in place without allocating.
    pub fn update_health(&mut self, component: &str, healthy: bool, timestamp: SimTime) {
        self.health.write(component, HealthReport { healthy, timestamp });
    }

    /// True when the component has a current report and it says healthy.
    pub fn is_healthy(&self, component: &str) -> bool {
        self.healthy_at(self.health.slot(component))
    }

    /// Number of data items currently held.
    pub fn data_len(&self) -> usize {
        self.data.written
    }

    /// Number of health reports currently held.
    pub fn health_len(&self) -> usize {
        self.health.written
    }

    /// Names of all data items (sorted).
    pub fn data_items(&self) -> Vec<&str> {
        let names = self.data.names.iter();
        names.filter(|&(_, &slot)| self.data.get(slot).is_some()).map(|(name, _)| &**name).collect()
    }

    /// Identifies this store's slot layout: fresh for every new store,
    /// shared by its clones (which keep every slot it had).
    pub(crate) fn layout(&self) -> u64 {
        self.layout
    }

    /// The slot of `name`, or [`ABSENT`] when the store has never seen it.
    pub(crate) fn slot(&self, namespace: Namespace, name: &str) -> u32 {
        match namespace {
            Namespace::Data => self.data.slot(name),
            Namespace::Health => self.health.slot(name),
        }
    }

    /// The slot of `name`, created (unwritten) when the store has never seen
    /// it.
    pub(crate) fn intern(&mut self, namespace: Namespace, name: &str) -> u32 {
        match namespace {
            Namespace::Data => self.data.intern(name),
            Namespace::Health => self.health.intern(name),
        }
    }

    /// The data item in `slot`, if one was written.
    #[inline]
    pub(crate) fn data_at(&self, slot: u32) -> Option<&DataItem> {
        self.data.get(slot)
    }

    /// True when `slot` holds a report that says healthy.
    #[inline]
    pub(crate) fn healthy_at(&self, slot: u32) -> bool {
        self.health.get(slot).is_some_and(|report| report.healthy)
    }
}

/// A lease-based timing failure detector: a monitored component must produce
/// a heartbeat at least every `timeout`; otherwise it is reported failed.
/// This is the crash/timing failure detector assumed for components above
/// the hybridization line.
#[derive(Debug, Clone)]
pub struct TimingFailureDetector {
    component: String,
    timeout: SimDuration,
    last_heartbeat: Option<SimTime>,
    suspected: bool,
    suspicions: u64,
}

impl TimingFailureDetector {
    /// Creates a detector for `component` with the given heartbeat timeout.
    pub fn new(component: &str, timeout: SimDuration) -> Self {
        TimingFailureDetector {
            component: component.to_string(),
            timeout,
            last_heartbeat: None,
            suspected: false,
            suspicions: 0,
        }
    }

    /// The monitored component's name.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Registers a heartbeat from the component.
    pub fn heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat = Some(now);
        self.suspected = false;
    }

    /// Evaluates the detector and pushes the verdict into the run-time store.
    /// Returns `true` when the component is currently considered healthy.
    pub fn check(&mut self, now: SimTime, info: &mut RunTimeSafetyInfo) -> bool {
        let healthy = match self.last_heartbeat {
            Some(last) => now.since(last) <= self.timeout,
            None => false,
        };
        if !healthy && !self.suspected {
            self.suspected = true;
            self.suspicions += 1;
        }
        info.update_health(&self.component, healthy, now);
        healthy
    }

    /// Number of distinct times the component became suspected.
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// True while the component is suspected.
    pub fn is_suspected(&self) -> bool {
        self.suspected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_holds_data_and_health() {
        let mut info = RunTimeSafetyInfo::new();
        assert_eq!(info.data_len(), 0);
        info.set_now(SimTime::from_secs(1));
        info.update_data("a", 1.0, Validity::FULL, SimTime::from_millis(900));
        info.update_data("b", 2.0, Validity::new(0.5), SimTime::from_millis(950));
        info.update_health("c1", true, SimTime::from_secs(1));
        assert_eq!(info.data_len(), 2);
        assert_eq!(info.health_len(), 1);
        assert_eq!(info.data("a").unwrap().value, 1.0);
        assert!(info.data("missing").is_none());
        assert!(info.is_healthy("c1"));
        assert!(!info.is_healthy("other"));
        assert_eq!(info.data_items(), vec!["a", "b"]);
        assert_eq!(info.now(), SimTime::from_secs(1));
        // Updating replaces.
        info.update_data("a", 5.0, Validity::INVALID, SimTime::from_secs(1));
        assert_eq!(info.data("a").unwrap().value, 5.0);
        assert!(info.data("a").unwrap().validity.is_invalid());
    }

    #[test]
    fn interned_slots_are_stable_and_count_only_once_written() {
        let mut info = RunTimeSafetyInfo::new();
        // A rule referencing names nobody has written yet creates slots.
        let ghost = info.intern(Namespace::Data, "ghost");
        let radio = info.intern(Namespace::Health, "radio");
        assert_eq!((info.data_len(), info.health_len()), (0, 0));
        assert!(info.data_items().is_empty());
        assert!(info.data("ghost").is_none());
        assert!(!info.is_healthy("radio"));
        assert_eq!(info.slot(Namespace::Data, "never"), ABSENT);
        assert!(info.data_at(ABSENT).is_none());
        // Writes land in the interned slots; later names get new ones.
        info.update_data("z-late", 1.0, Validity::FULL, SimTime::ZERO);
        info.update_data("ghost", 2.0, Validity::FULL, SimTime::ZERO);
        info.update_health("radio", true, SimTime::ZERO);
        assert_eq!(info.intern(Namespace::Data, "ghost"), ghost);
        assert_eq!(info.data_at(ghost).unwrap().value, 2.0);
        assert!(info.healthy_at(radio));
        assert_ne!(info.slot(Namespace::Data, "z-late"), ghost);
        assert_eq!((info.data_len(), info.health_len()), (2, 1));
        assert_eq!(info.data_items(), vec!["ghost", "z-late"]);
        // Repeated writes replace in place.
        info.update_data("ghost", 3.0, Validity::FULL, SimTime::ZERO);
        assert_eq!(info.data_len(), 2);
        // Clones share the layout; a new store does not.
        assert_eq!(info.clone().layout(), info.layout());
        assert_ne!(RunTimeSafetyInfo::new().layout(), info.layout());
    }

    #[test]
    fn timing_failure_detector_lifecycle() {
        let mut info = RunTimeSafetyInfo::new();
        let mut fd = TimingFailureDetector::new("v2v-radio", SimDuration::from_millis(200));
        assert_eq!(fd.component(), "v2v-radio");
        // No heartbeat yet: unhealthy.
        assert!(!fd.check(SimTime::from_millis(0), &mut info));
        assert!(fd.is_suspected());
        assert_eq!(fd.suspicions(), 1);
        assert!(!info.is_healthy("v2v-radio"));
        // Heartbeat arrives: healthy within the timeout.
        fd.heartbeat(SimTime::from_millis(100));
        assert!(fd.check(SimTime::from_millis(250), &mut info));
        assert!(info.is_healthy("v2v-radio"));
        assert!(!fd.is_suspected());
        // Silence beyond the timeout: suspected again (a new suspicion).
        assert!(!fd.check(SimTime::from_millis(400), &mut info));
        assert_eq!(fd.suspicions(), 2);
        // Repeated checks while already suspected do not double-count.
        assert!(!fd.check(SimTime::from_millis(500), &mut info));
        assert_eq!(fd.suspicions(), 2);
        // Recovery.
        fd.heartbeat(SimTime::from_millis(600));
        assert!(fd.check(SimTime::from_millis(700), &mut info));
    }
}
