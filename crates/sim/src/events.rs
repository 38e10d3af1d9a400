//! The time-ordered event queue.
//!
//! The queue holds the simulated transport fabric's in-flight deliveries:
//! events are popped in non-decreasing time order, with FIFO order among
//! events scheduled for the same instant (insertion order breaks ties).
//! Deterministic tie-breaking is required for reproducible fault-injection
//! campaigns.
//!
//! [`EventQueue`] is a `BinaryHeap` keyed by `(time, insertion seq)`.  The
//! fabric keeps a handful of messages in flight, so O(log n) per operation
//! is already below the cost of a send; `tests/properties.rs` pins the pop
//! order against a sorted model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: its firing time, its insertion sequence number and the
/// payload.
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

/// A priority queue of events ordered by firing time (earliest first), with
/// deterministic FIFO tie-breaking for simultaneous events.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to fire at `time`.  Any time is accepted, also
    /// one earlier than the last pop.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
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
        // A tie scheduled after an earlier event still queues behind its peers.
        q.schedule(SimTime::from_millis(1), -1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), -1)));
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        q.schedule(SimTime::from_millis(10), 3);
        assert_eq!(q.pop_until(SimTime::from_millis(15)), Some((SimTime::from_millis(10), 1)));
        // The deadline is inclusive.
        assert_eq!(q.pop_until(SimTime::from_millis(10)), Some((SimTime::from_millis(10), 3)));
        assert_eq!(q.pop_until(SimTime::from_millis(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_is_the_earliest_pending_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.next_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), ())));
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
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
}
