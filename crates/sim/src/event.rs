//! A cancellable, FIFO-stable priority queue of timed events.

use crate::SimTime;

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// The key is the event's scheduling sequence number, which is unique for
/// the lifetime of its [`EventQueue`]: a key for an event that already
/// popped (or was cancelled) never matches another event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

/// Packs `(at, seq)` into one integer whose order is the tuple's: time,
/// then scheduling sequence (FIFO for equal timestamps). `seq` is unique
/// per queue, so no two ranks are ever equal.
fn rank(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

fn rank_time(rank: u128) -> SimTime {
    SimTime::from_nanos((rank >> 64) as u64)
}

fn rank_seq(rank: u128) -> u64 {
    rank as u64
}

/// A min-priority queue of `(SimTime, event)` pairs with stable FIFO ordering
/// for equal timestamps and eager cancellation.
///
/// The queue is one `Vec` of `(rank, event)` pairs kept sorted in
/// *descending* rank order, so the earliest event is the last element and
/// pops in O(1). Discrete-event serving workloads mostly schedule the near
/// future (the next arrival, a batch completion, a worker timer), so
/// [`push`](Self::push) scans for its slot from the back and usually stops
/// a few entries in; at the simulator's typical depth of a few dozen
/// pending events that scan and the `Vec::insert` shift are cheaper than
/// heap sifting. [`cancel`](Self::cancel) removes the event at once, so
/// every stored event is live.
///
/// # Examples
///
/// ```
/// use proteus_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// let key = q.push(SimTime::from_secs(1), "sooner");
/// q.cancel(key);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Sorted descending by rank; the last element is the earliest event.
    events: Vec<(u128, E)>,
    /// High-water mark of `events.len()` over the queue's lifetime.
    peak_len: usize,
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
        Self {
            events: Vec::new(),
            peak_len: 0,
            next_seq: 0,
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The highest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Inserts `event` with timestamp `at`, returning a cancellation key.
    pub fn push(&mut self, at: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let rank = rank(at, seq);
        // Everything after the last later-ranked entry sorts before `rank`.
        let pos = self
            .events
            .iter()
            .rposition(|&(r, _)| r > rank)
            .map_or(0, |i| i + 1);
        self.events.insert(pos, (rank, event));
        self.peak_len = self.peak_len.max(self.events.len());
        EventKey(seq)
    }

    /// Cancels the event identified by `key`, removing it from the queue.
    ///
    /// Returns `true` if the event was pending, `false` if it already popped
    /// or was already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.events.iter().rposition(|&(r, _)| rank_seq(r) == key.0) {
            Some(i) => {
                self.events.remove(i);
                true
            }
            None => false,
        }
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.last().map(|&(r, _)| rank_time(r))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.events.pop().map(|(r, event)| (rank_time(r), event))
    }

    /// Removes and returns the earliest pending event, if its timestamp is
    /// at or before `horizon`; otherwise leaves the queue untouched.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), 'c');
        q.push(t(1), 'a');
        q.push(t(3), 'b');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert_eq!(q.pop(), Some((t(3), 'b')));
        assert_eq!(q.pop(), Some((t(5), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(1), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(1), i)));
        }
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), 2)));
    }

    #[test]
    fn peek_time_scans_past_multiple_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        let b = q.push(t(2), 2);
        q.push(t(3), 3);
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.peek_time(), Some(t(3)));
    }

    #[test]
    fn cancel_after_pop_is_false() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert!(!q.cancel(a), "cancelling an already-popped key must fail");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 10);
        q.push(t(2), 2);
        assert_eq!(q.pop(), Some((t(2), 2)));
        q.push(t(4), 4);
        q.push(t(1), 1); // earlier than a previous pop is allowed at queue level
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert_eq!(q.pop(), Some((t(4), 4)));
        assert_eq!(q.pop(), Some((t(10), 10)));
    }

    #[test]
    fn popped_key_does_not_cancel_a_later_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        // A new event takes the popped one's place; the old key must stay dead.
        let b = q.push(t(2), 2);
        assert!(!q.cancel(a), "stale key must not cancel the new event");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mass_cancel_then_push_pops_only_fresh_events() {
        let mut q = EventQueue::new();
        // Cancel a whole batch, some earlier and some later than what gets
        // pushed next; none of it may pop, or count toward `len`.
        let keys: Vec<_> = (0..8).map(|i| q.push(t(1 + 2 * (i % 2)), i)).collect();
        for k in &keys {
            assert!(q.cancel(*k));
        }
        assert!(q.is_empty());
        for i in 10..14 {
            q.push(t(2), i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.peak_len(), 8, "peak counts the cancelled batch once");
        assert_eq!(q.peek_time(), Some(t(2)));
        for i in 10..14 {
            assert_eq!(q.pop(), Some((t(2), i)));
        }
        assert_eq!(q.pop(), None);
        assert!(
            keys.iter().all(|k| !q.cancel(*k)),
            "cancelled keys stay dead"
        );
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        q.push(t(3), 3);
        assert_eq!(q.pop_at_or_before(t(2)), Some((t(1), 1)));
        assert_eq!(q.pop_at_or_before(t(2)), None);
        assert_eq!(q.len(), 1, "beyond-horizon event stays queued");
        assert_eq!(q.pop_at_or_before(t(3)), Some((t(3), 3)));
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.push(t(1), 1);
        q.push(t(2), 2);
        q.push(t(3), 3);
        q.pop();
        q.pop();
        q.push(t(4), 4);
        assert_eq!(q.peak_len(), 3);
    }
}
