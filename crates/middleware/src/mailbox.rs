//! Bounded ring mailboxes — the per-subscription event queues of the v2 bus.
//!
//! A [`Mailbox`] is a fixed-capacity FIFO ring over `Copy` slots.  The ring
//! is allocated once, at subscription time; pushing, popping and displacing
//! never allocate, which is what keeps the bus's publish path allocation-free
//! under any load.

/// A fixed-capacity FIFO ring buffer of `Copy` elements.
///
/// The buffer is allocated once at construction; all operations are O(1) and
/// allocation-free.  Overflow policy is the caller's business: [`push`]
/// refuses when full, and [`displace_push`] makes room by dropping the oldest
/// element — the building blocks of the bus's overload strategies.
///
/// [`push`]: Mailbox::push
/// [`displace_push`]: Mailbox::displace_push
#[derive(Debug, Clone)]
pub struct Mailbox<T: Copy + Default> {
    slots: Vec<T>,
    head: usize,
    len: usize,
}

impl<T: Copy + Default> Mailbox<T> {
    /// Creates a mailbox holding at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a mailbox needs room for at least one event");
        Mailbox { slots: vec![T::default(); capacity], head: 0, len: 0 }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the ring is at capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// The slot of ring position `idx`, which is below twice the capacity
    /// (a head plus at most a capacity's worth of offset), without dividing.
    fn wrap(&self, idx: usize) -> usize {
        if idx >= self.slots.len() {
            idx - self.slots.len()
        } else {
            idx
        }
    }

    /// Appends an element, or returns `false` (leaving the ring unchanged)
    /// when full.
    pub fn push(&mut self, value: T) -> bool {
        if self.is_full() {
            return false;
        }
        let idx = self.wrap(self.head + self.len);
        self.slots[idx] = value;
        self.len += 1;
        true
    }

    /// Appends an element, displacing the oldest queued one when full.
    /// Returns the displaced element, if any.
    pub fn displace_push(&mut self, value: T) -> Option<T> {
        let displaced = if self.is_full() { self.pop() } else { None };
        let pushed = self.push(value);
        debug_assert!(pushed);
        displaced
    }

    /// Removes and returns the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.slots[self.head];
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
        Some(value)
    }

    /// A mutable reference to the newest element, if any — the coalescing
    /// target of the aggregate overload strategy.
    pub fn newest_mut(&mut self) -> Option<&mut T> {
        if self.len == 0 {
            return None;
        }
        let idx = self.wrap(self.head + self.len - 1);
        Some(&mut self.slots[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_wraparound() {
        let mut m: Mailbox<u32> = Mailbox::new(3);
        assert!(m.is_empty());
        assert!(m.push(1) && m.push(2) && m.push(3));
        assert!(m.is_full());
        assert!(!m.push(4), "push refuses when full");
        assert_eq!(m.pop(), Some(1));
        assert!(m.push(4), "freed slot is reusable (wraparound)");
        assert_eq!(m.pop(), Some(2));
        assert_eq!(m.pop(), Some(3));
        assert_eq!(m.pop(), Some(4));
        assert_eq!(m.pop(), None);
    }

    #[test]
    fn displace_push_drops_the_oldest() {
        let mut m: Mailbox<u32> = Mailbox::new(2);
        assert_eq!(m.displace_push(1), None);
        assert_eq!(m.displace_push(2), None);
        assert_eq!(m.displace_push(3), Some(1), "oldest element is displaced");
        assert_eq!(m.pop(), Some(2));
        assert_eq!(m.pop(), Some(3));
    }

    #[test]
    fn newest_mut_targets_the_back_of_the_ring() {
        let mut m: Mailbox<u32> = Mailbox::new(2);
        assert!(m.newest_mut().is_none());
        m.push(1);
        m.push(2);
        *m.newest_mut().unwrap() += 10;
        assert_eq!(m.pop(), Some(1));
        assert_eq!(m.pop(), Some(12));
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_capacity_is_rejected() {
        let _ = Mailbox::<u32>::new(0);
    }
}
