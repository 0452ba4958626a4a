//! A minimal deterministic discrete-event engine.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated
//! time resolve in scheduling order, so a run is a pure function of its
//! inputs — crucial for reproducing the paper's experiments from seeds.
//!
//! Payloads are stored inline in the heap entries: event types are small
//! `Copy` values, so there is no side table to grow for the life of a run
//! and no indirection on pop. Ordering compares only `(at, seq)` — the
//! payload never participates, so `E` needs no `Ord` bound.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry: the packed ordering key plus the event payload carried
/// inline.
///
/// `key` is `(time bits << 64) | seq`: `SimTime` is non-negative and
/// non-NaN, so its IEEE bits sort exactly like the value
/// ([`SimTime::key_bits`]) and the full `(time, insertion seq)` order
/// collapses into ONE `u128` comparison — the heap's sift loops run a
/// single branch per level instead of a float compare plus a tie-break.
/// `seq` is unique per queue, so two entries never compare equal in
/// practice; the `Eq` impl exists only to satisfy `BinaryHeap`'s bounds.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn new(at: SimTime, seq: u64, event: E) -> Self {
        Entry {
            key: (u128::from(at.key_bits()) << 64) | u128::from(seq),
            event,
        }
    }

    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_key_bits((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            peak_len: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events already processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current time (causality violation).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry::new(at, seq, event)));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Schedules `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        let at = entry.at();
        self.now = at;
        self.processed += 1;
        Some((at, entry.event))
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Largest number of events simultaneously pending over the queue's life.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::us(3.0), "c");
        q.schedule(SimTime::us(1.0), "a");
        q.schedule(SimTime::us(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::us(3.0));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::us(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::us(10.0), "first");
        q.pop();
        q.schedule_in(2.5, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::us(12.5));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::us(1.0), ());
        q.schedule(SimTime::us(1.0), ());
        q.schedule(SimTime::us(4.0), ());
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::us(5.0), ());
        q.pop();
        q.schedule(SimTime::us(4.0), ());
    }

    #[test]
    fn empty_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.schedule(SimTime::us(1.0), ());
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::us(1.0), ());
        q.schedule(SimTime::us(2.0), ());
        q.schedule(SimTime::us(3.0), ());
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        // Peak is a high-water mark: it never decreases.
        assert_eq!(q.peak_len(), 3);
        q.schedule(SimTime::us(4.0), ());
        assert_eq!(q.peak_len(), 3);
    }
}
