//! Time-ordered event queues.
//!
//! The queue is the core of the discrete-event engine: events are popped in
//! non-decreasing time order, with FIFO order among events scheduled for the
//! same instant (insertion order breaks ties).  Deterministic tie-breaking is
//! required for reproducible fault-injection campaigns.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — the default, a two-tier **calendar (bucket) queue**
//!   over an **arena of payloads**.  The near future is spread over a wheel
//!   of fixed-width time buckets, the far future lives in an overflow pool
//!   that is folded back into the wheel as simulation time advances.  The
//!   wheel itself never holds payloads: every `E` lives in a slab with a
//!   free list, and the buckets shuffle small `Copy` `(time, seq, slot_idx)`
//!   entries — so bucket rebase/rebuild moves a few machine words per event
//!   regardless of `size_of::<E>()`, and steady-state scheduling allocates
//!   nothing (freed slots are reused).  For the hold-model workloads a
//!   discrete-event simulation produces (pop the earliest event, schedule a
//!   handful a short delay ahead) scheduling is O(1) and popping is
//!   amortized O(1), independent of the number of pending events — where a
//!   binary heap pays O(log n) pointer-chasing per operation.
//! * [`HeapEventQueue`] — the classic `BinaryHeap` implementation, kept as
//!   the reference baseline: the calendar queue is property-tested to pop in
//!   exactly the same order, and `e16_campaign_throughput` measures the
//!   speedup against it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event inside [`HeapEventQueue`]: payload kept inline
/// (the baseline deliberately pays the payload-moving cost the calendar
/// queue's arena avoids).
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The total order of the queue: earliest time first, insertion order
    /// (`seq`) among simultaneous events.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped first.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A pending event inside the calendar queue: the `(time, seq, slot_idx)`
/// triple the wheel shuffles.  `Copy` regardless of the payload type — the
/// payload itself lives in the [`Arena`] at `slot`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Same max-heap inversion as `Scheduled`, for the `early` min-heap.
        other.key().cmp(&self.key())
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Slab of event payloads with free-list reuse: steady-state scheduling
/// (pop one, schedule one) recycles slots and never allocates.
#[derive(Debug, Clone)]
struct Arena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Arena<E> {
    fn new() -> Self {
        Arena { slots: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, payload: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event arena exhausted");
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> E {
        let payload = self.slots[slot as usize].take().expect("arena slot is occupied");
        self.free.push(slot);
        payload
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Initial / minimum number of wheel slots (always a power of two so the
/// slot index is a mask).
const MIN_WHEEL_SLOTS: usize = 512;
/// Maximum number of wheel slots the adaptive resize may grow to.
const MAX_WHEEL_SLOTS: usize = 1 << 17;
/// Initial log2 of the bucket width in microseconds: 1024 µs ≈ 1 ms per
/// bucket, so the initial wheel spans ~0.5 s of simulated time —
/// comfortably more than the millisecond-scale scheduling horizons of the
/// KARYON models, while keeping the wheel a few KiB.
const INITIAL_BUCKET_SHIFT: u32 = 10;
/// Widest bucket the adaptive resize may widen to (2^26 µs ≈ 67 s).
const MAX_BUCKET_SHIFT: u32 = 26;
/// Occupancy the resize aims for: a handful of events per bucket keeps the
/// per-bucket sort negligible while buckets stay dense enough to scan.
const TARGET_OCCUPANCY: usize = 16;
/// Occupancy that triggers a shrink (hysteresis above the target).
const HIGH_OCCUPANCY: usize = 64;

/// A priority queue of events ordered by firing time (earliest first), with
/// deterministic FIFO tie-breaking for simultaneous events.
///
/// Storage model: payloads live in a slab **arena** with free-list reuse;
/// the queue structure itself (the two-tier calendar wheel, see the module
/// docs) holds only `Copy` `(time, seq, slot_idx)` entries, so geometry
/// changes move a few machine words per event and steady-state operation
/// allocates nothing.
///
/// Pop order is bit-identical to [`HeapEventQueue`] — including FIFO ties
/// and batch-staged bursts — which the property tests assert.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The entries of the current bucket (global index [`EventQueue::epoch`])
    /// only, sorted *descending* by `(time, seq)` so the earliest is popped
    /// from the back in O(1).
    current: Vec<Entry>,
    /// Entries scheduled *before* the current bucket (legal after pops, e.g.
    /// a bulk fill in arbitrary time order).  A small min-heap: the shared
    /// `(time, seq)` key makes the pop-side merge with `current` exact.
    early: BinaryHeap<Entry>,
    /// Wheel of unsorted buckets: an entry with global bucket index `g` in
    /// `(epoch, epoch + slots)` lives in slot `g & (slots - 1)`.  Allocated
    /// lazily on the first schedule beyond the current bucket.
    wheel: Vec<Vec<Entry>>,
    /// Entries at least a full wheel rotation ahead of `epoch`; folded back
    /// into the wheel when the cursor reaches them.
    overflow: Vec<Entry>,
    /// Smallest bucket index of any overflow entry (`u64::MAX` when empty):
    /// the wheel scan must never advance past it.
    overflow_min: u64,
    /// Global bucket index of `current` (time >> `shift`).
    epoch: u64,
    /// log2 of the bucket width in microseconds.  Adapted so bucket
    /// occupancy stays near [`TARGET_OCCUPANCY`].
    shift: u32,
    /// Number of wheel slots (power of two).  Adapted together with `shift`
    /// so one rotation covers the pending-event horizon.
    slots: usize,
    /// Number of pending events.
    count: usize,
    next_seq: u64,
    /// Payload storage.
    arena: Arena<E>,
    /// Scratch buffer reused by [`EventQueue::schedule_batch`].
    batch: Vec<Entry>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: Vec::new(),
            early: BinaryHeap::new(),
            wheel: Vec::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            epoch: 0,
            shift: INITIAL_BUCKET_SHIFT,
            slots: MIN_WHEEL_SLOTS,
            count: 0,
            next_seq: 0,
            arena: Arena::new(),
            batch: Vec::new(),
        }
    }

    /// The global bucket index of an instant under the current bucket width.
    #[inline]
    fn bucket_of(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.shift
    }

    /// Schedules `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arena.insert(payload);
        let entry = Entry { time, seq, slot };
        self.file(entry);
        self.count += 1;
    }

    /// Files an entry under the current geometry, rebasing the wheel first
    /// when no events are pending.
    fn file(&mut self, entry: Entry) {
        let g = self.bucket_of(entry.time);
        if self.count == 0 {
            // Nothing pending: rebase the wheel on the new entry so no empty
            // buckets ever need scanning to reach it.
            self.epoch = g;
            self.current.push(entry);
        } else if g < self.epoch {
            self.early.push(entry);
        } else if g == self.epoch {
            // Keep `current` sorted descending by (time, seq); `seq` is
            // unique, so the search never finds an equal key.
            let key = entry.key();
            let at =
                self.current.binary_search_by(|probe| probe.key().cmp(&key).reverse()).unwrap_err();
            self.current.insert(at, entry);
        } else if g - self.epoch < self.slots as u64 {
            if self.wheel.is_empty() {
                // Lazy allocation; a rebuild keeps `wheel.len() == slots`.
                self.wheel.resize_with(self.slots, Vec::new);
            }
            self.wheel[(g & (self.slots as u64 - 1)) as usize].push(entry);
        } else {
            self.overflow_min = self.overflow_min.min(g);
            self.overflow.push(entry);
        }
    }

    /// Schedules every `(time, payload)` in `events`, draining the vector.
    ///
    /// Equivalent to calling [`EventQueue::schedule`] in order — events
    /// receive sequence numbers in their staging order, so FIFO tie order is
    /// identical — but same-bucket groups (in particular same-timestamp
    /// bursts, the common case for a handler that fans out several events at
    /// one instant) are filed with **one** bucket computation and one
    /// insertion per group instead of one binary-search insert per event.
    pub fn schedule_batch(&mut self, events: &mut Vec<(SimTime, E)>) {
        if events.len() <= 1 {
            if let Some((time, payload)) = events.pop() {
                self.schedule(time, payload);
            }
            return;
        }
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        for (time, payload) in events.drain(..) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = self.arena.insert(payload);
            batch.push(Entry { time, seq, slot });
        }
        if self.count == 0 {
            // Same rebase a single schedule on an empty queue performs.
            let lo = batch.iter().map(|e| e.time).min().expect("batch has >= 2 events");
            self.epoch = self.bucket_of(lo);
        }
        self.count += batch.len();
        // Ascending (time, seq) order makes same-bucket events contiguous
        // runs; seq assignment already happened in staging order above, so
        // sorting here cannot perturb FIFO ties.
        batch.sort_unstable_by_key(Entry::key);
        let mut i = 0;
        while i < batch.len() {
            let g = self.bucket_of(batch[i].time);
            let mut j = i + 1;
            while j < batch.len() && self.bucket_of(batch[j].time) == g {
                j += 1;
            }
            let run = &batch[i..j];
            if g < self.epoch {
                for entry in run {
                    self.early.push(*entry);
                }
            } else if g == self.epoch {
                Self::merge_into_current(&mut self.current, run);
            } else if g - self.epoch < self.slots as u64 {
                if self.wheel.is_empty() {
                    self.wheel.resize_with(self.slots, Vec::new);
                }
                self.wheel[(g & (self.slots as u64 - 1)) as usize].extend_from_slice(run);
            } else {
                self.overflow_min = self.overflow_min.min(g);
                self.overflow.extend_from_slice(run);
            }
            i = j;
        }
        self.batch = batch;
    }

    /// Merges an ascending-sorted run into the descending-sorted `current`
    /// bucket.  The fast path — the whole run falls into one gap, which is
    /// always true for a same-timestamp burst (existing entries at that time
    /// have strictly smaller seqs) — costs one binary search and one splice.
    fn merge_into_current(current: &mut Vec<Entry>, run: &[Entry]) {
        let lo_key = run[0].key();
        let hi_key = run[run.len() - 1].key();
        let at = current.binary_search_by(|probe| probe.key().cmp(&lo_key).reverse()).unwrap_err();
        if at == 0 || current[at - 1].key() > hi_key {
            current.splice(at..at, run.iter().rev().copied());
        } else {
            // Existing entries interleave with the run's time span: fall
            // back to per-entry sorted insertion.
            for entry in run {
                let key = entry.key();
                let at =
                    current.binary_search_by(|probe| probe.key().cmp(&key).reverse()).unwrap_err();
                current.insert(at, *entry);
            }
        }
    }

    /// The firing time of the earliest pending event, if any.  The advance
    /// invariant guarantees `current`/`early` hold the global minimum.
    pub fn next_time(&self) -> Option<SimTime> {
        match (self.early.peek(), self.current.last()) {
            (Some(e), Some(c)) => Some(e.time.min(c.time)),
            (Some(e), None) => Some(e.time),
            (None, Some(c)) => Some(c.time),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.current.clear();
        self.early.clear();
        for slot in &mut self.wheel {
            slot.clear();
        }
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.count = 0;
        self.arena.clear();
    }

    /// Refills `current` with the next pending bucket.  Called only while
    /// events are pending and `current`/`early` are empty, and guaranteed
    /// to leave `current` non-empty.
    ///
    /// The wheel scan must stop at [`EventQueue::overflow_min`]: an overflow
    /// entry's bucket may lie *inside* the current rotation (the window has
    /// moved over it since it was parked), so advancing past it would pop
    /// out of order.  When the scan cannot proceed, [`EventQueue::rebase`]
    /// folds wheel and overflow back together under a fresh geometry.
    fn advance(&mut self) {
        if !self.wheel.is_empty() {
            // The next non-empty slot in global-bucket order holds exactly
            // the entries of one bucket: slots are only populated within one
            // rotation of `epoch`, so indices cannot collide.
            for step in 1..self.slots as u64 {
                let g = self.epoch + step;
                if g >= self.overflow_min {
                    break;
                }
                let slot = (g & (self.slots as u64 - 1)) as usize;
                if !self.wheel[slot].is_empty() {
                    self.epoch = g;
                    std::mem::swap(&mut self.current, &mut self.wheel[slot]);
                    self.sort_current();
                    if self.current.len() > HIGH_OCCUPANCY && self.shift > 0 {
                        self.rebuild();
                    }
                    return;
                }
            }
        }
        self.rebase();
    }

    /// Drains every wheel slot and the overflow into one vector.
    fn gather_far(&mut self) -> Vec<Entry> {
        let mut all = Vec::new();
        for slot in &mut self.wheel {
            all.append(slot);
        }
        all.append(&mut self.overflow);
        self.overflow_min = u64::MAX;
        all
    }

    /// Re-anchors the queue on the earliest entry still pending in the wheel
    /// or overflow, re-deriving the geometry from the observed density, and
    /// redistributes everything.  This is the adaptation point for *sparse*
    /// or far-jumping workloads (and the recovery path when overflow entries
    /// block the wheel scan).  O(pending) over `Copy` entries — payloads
    /// never move — amortised over the rotation that made it necessary.
    fn rebase(&mut self) {
        let all = self.gather_far();
        debug_assert!(!all.is_empty(), "advance() called on an empty queue");
        let lo = all.iter().map(|s| s.time).min().expect("non-empty");
        let hi = all.iter().map(|s| s.time).max().expect("non-empty");
        self.adopt_geometry(lo, hi, all.len());
        self.epoch = self.bucket_of(lo);
        self.redistribute(all);
        self.sort_current();
    }

    /// Re-derives the geometry from the (too dense) freshly-adopted
    /// `current` bucket and redistributes the wheel and overflow under it,
    /// merging entries that now share the current bucket into `current`.
    /// This is the adaptation point for *dense* workloads.  O(pending),
    /// amortised by the occupancy hysteresis that triggers it.
    fn rebuild(&mut self) {
        let occupancy = self.current.len();
        let width = 1u64 << self.shift;
        // Estimated pending span at the observed density, for sizing.
        let pending = (self.count - self.early.len()).max(1);
        let span = (width.saturating_mul(pending as u64) / occupancy.max(1) as u64).max(1);
        let far = self.gather_far();
        let lo = self.current.last().expect("rebuild needs a current bucket").time;
        self.adopt_geometry(lo, SimTime::from_micros(lo.as_micros().saturating_add(span)), pending);
        // `current` holds the earliest pending bucket, so its largest member
        // anchors the new epoch; wheel/overflow entries are all later and
        // redistribute to buckets ≥ it.
        self.epoch = self.bucket_of(self.current.first().expect("non-empty").time);
        self.redistribute(far);
        self.sort_current();
    }

    /// Files each entry under the current geometry: the current bucket (or
    /// earlier), the wheel window, or the overflow.
    fn redistribute(&mut self, entries: Vec<Entry>) {
        if self.wheel.len() != self.slots {
            self.wheel = Vec::new();
            self.wheel.resize_with(self.slots, Vec::new);
        }
        for entry in entries {
            let g = self.bucket_of(entry.time);
            if g <= self.epoch {
                self.current.push(entry);
            } else if g - self.epoch < self.slots as u64 {
                self.wheel[(g & (self.slots as u64 - 1)) as usize].push(entry);
            } else {
                self.overflow_min = self.overflow_min.min(g);
                self.overflow.push(entry);
            }
        }
    }

    /// Picks a bucket width and wheel size so that `count` events spread
    /// over `[lo, hi]` land near [`TARGET_OCCUPANCY`] per bucket with the
    /// whole span inside one wheel rotation.
    fn adopt_geometry(&mut self, lo: SimTime, hi: SimTime, count: usize) {
        let span = (hi.as_micros().saturating_sub(lo.as_micros())).max(1);
        // Bucket width ≈ span × target / count, as a power of two.
        let ideal_width =
            (span.saturating_mul(TARGET_OCCUPANCY as u64) / count.max(1) as u64).max(1);
        let shift = (63 - ideal_width.leading_zeros()).min(MAX_BUCKET_SHIFT);
        // One rotation must cover the span at that width.
        let needed = (span >> shift) + 2;
        let slots = needed.next_power_of_two().clamp(MIN_WHEEL_SLOTS as u64, MAX_WHEEL_SLOTS as u64)
            as usize;
        self.shift = shift;
        self.slots = slots;
    }

    /// Sorts `current` descending by `(time, seq)`; keys are unique, so an
    /// unstable sort is exact.
    fn sort_current(&mut self) {
        self.current.sort_unstable_by_key(|s| std::cmp::Reverse(s.key()));
    }

    /// Removes and returns the earliest pending event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let take_early = match (self.early.peek(), self.current.last()) {
            (Some(e), Some(c)) => e.key() < c.key(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let entry = if take_early {
            self.early.pop().expect("peeked above")
        } else {
            self.current.pop().expect("peeked above")
        };
        self.count -= 1;
        if self.current.is_empty() && self.early.is_empty() && self.count > 0 {
            self.advance();
        }
        Some((entry.time, self.arena.take(entry.slot)))
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

/// The classic `BinaryHeap` event queue: the reference implementation of the
/// pop-order contract and the baseline `e16_campaign_throughput` measures the
/// calendar queue against.
#[derive(Debug, Clone)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Schedules every `(time, payload)` in `events`, draining the vector.
    /// Behaviorally identical to scheduling them in order.
    pub fn schedule_batch(&mut self, events: &mut Vec<(SimTime, E)>) {
        for (time, payload) in events.drain(..) {
            self.schedule(time, payload);
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Removes and returns the earliest pending event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(15)), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop_until(SimTime::from_millis(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
        q.clear();
        assert!(q.is_empty());
        // The queue is reusable after a clear.
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), ())));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u64);
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, v)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
            if v < 20 {
                q.schedule(t + SimDuration::from_millis(3), v + 1);
                q.schedule(t + SimDuration::from_millis(1), v + 1);
            }
        }
        assert!(popped > 20);
    }

    #[test]
    fn scheduling_earlier_than_the_last_pop_is_honoured() {
        // The calendar cursor must not lose events scheduled "behind" it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(20), "later");
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "late")));
        q.schedule(SimTime::from_secs(1), "early");
        q.schedule(SimTime::from_millis(500), "earlier");
        assert_eq!(q.pop(), Some((SimTime::from_millis(500), "earlier")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_survive_the_overflow_path() {
        // Events far beyond one wheel rotation (≈ 0.5 s) are parked in the
        // overflow and must come back in exact order, including FIFO ties.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3600), 1u32);
        q.schedule(SimTime::from_millis(1), 0);
        q.schedule(SimTime::from_secs(3600), 2);
        q.schedule(SimTime::from_secs(7200), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3600), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3600), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(7200), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn arena_recycles_slots_in_steady_state() {
        // Hold model at a fixed resident size: after warm-up, the slab must
        // stop growing — freed slots are reused, so steady-state scheduling
        // allocates nothing.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_micros(i * 10), i);
        }
        let warm = q.arena.capacity();
        for _ in 0..10_000 {
            let (t, v) = q.pop().expect("hold model never drains");
            q.schedule(t + SimDuration::from_micros(997), v);
        }
        assert_eq!(q.arena.capacity(), warm, "steady-state hold model must not grow the arena");
    }

    #[test]
    fn batch_preserves_fifo_and_time_order() {
        // A same-timestamp burst staged as a batch must interleave exactly
        // like individual schedules: earlier schedules win ties.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        q.schedule(t, 0u64);
        let mut staged: Vec<(SimTime, u64)> =
            vec![(t, 1), (SimTime::from_millis(3), 2), (t, 3), (SimTime::from_millis(9), 4)];
        q.schedule_batch(&mut staged);
        assert!(staged.is_empty(), "the batch drains the staging buffer");
        q.schedule(t, 5);
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 2)));
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), Some((t, 5)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_on_an_empty_queue_rebases_like_a_single_schedule() {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut a = vec![
            (SimTime::from_secs(100), 0u64),
            (SimTime::from_micros(3), 1),
            (SimTime::from_secs(100), 2),
        ];
        let mut b = a.clone();
        cal.schedule_batch(&mut a);
        heap.schedule_batch(&mut b);
        for _ in 0..3 {
            assert_eq!(cal.pop(), heap.pop());
        }
        assert!(cal.is_empty());
    }

    /// Exhaustive randomized parity check: the calendar queue and the heap
    /// queue must produce identical `(time, payload)` sequences under mixed
    /// schedule/pop workloads with dense ties and sparse far jumps.
    #[test]
    fn calendar_and_heap_queues_pop_identically() {
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from(0xE16 + seed);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut payload = 0u64;
            for _ in 0..2_000 {
                if rng.range_u64(0, 3) == 0 {
                    assert_eq!(cal.pop(), heap.pop());
                } else {
                    // Mix of dense (µs apart), tied, and far-future times.
                    let t = match rng.range_u64(0, 10) {
                        0..=5 => rng.range_u64(0, 50_000),
                        6..=7 => (rng.range_u64(0, 50) * 1_000) + 5_000,
                        8 => rng.range_u64(0, 5_000_000),
                        _ => rng.range_u64(0, 20_000_000_000),
                    };
                    cal.schedule(SimTime::from_micros(t), payload);
                    heap.schedule(SimTime::from_micros(t), payload);
                    payload += 1;
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.next_time(), heap.next_time());
            }
            while let Some(expected) = heap.pop() {
                assert_eq!(cal.pop(), Some(expected));
            }
            assert!(cal.is_empty());
        }
    }

    /// Relative hold-model parity: new events are scheduled relative to the
    /// popped time with a mix of tiny, tied, and huge deltas — the pattern
    /// that drives the adaptive resize (and once exposed an overflow event
    /// being passed by the wheel cursor).
    #[test]
    fn calendar_matches_heap_under_hold_model_with_resizes() {
        for seed in 0..10u64 {
            let mut rng = Rng::seed_from(0xCA1 + seed);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            cal.schedule(SimTime::from_millis(1), 0);
            heap.schedule(SimTime::from_millis(1), 0);
            let mut payload = 1u64;
            for _ in 0..5_000 {
                let expected = heap.pop();
                assert_eq!(cal.pop(), expected);
                let Some((t, _)) = expected else { break };
                let fanout = rng.range_u64(0, 2);
                for _ in 0..fanout {
                    let delta = match rng.range_u64(0, 9) {
                        0..=3 => rng.range_u64(0, 3),                     // ties / adjacent µs
                        4..=6 => rng.range_u64(500, 2_000),               // same-ish bucket
                        7 => rng.range_u64(100_000, 1_000_000),           // beyond the window
                        _ => rng.range_u64(1_000_000_000, 5_000_000_000), // deep overflow
                    };
                    cal.schedule(t + SimDuration::from_micros(delta), payload);
                    heap.schedule(t + SimDuration::from_micros(delta), payload);
                    payload += 1;
                }
                assert_eq!(cal.next_time(), heap.next_time());
            }
        }
    }

    #[test]
    fn heap_queue_baseline_contract() {
        let mut q = HeapEventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_millis(2), "b");
        q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(1), "a2");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(q.pop_until(SimTime::from_millis(1)), Some((SimTime::from_millis(1), "a2")));
        assert_eq!(q.pop_until(SimTime::from_millis(1)), None);
        q.clear();
        assert!(q.is_empty());
    }
}
