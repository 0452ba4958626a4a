//! A minimal deterministic discrete-event engine.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated
//! time resolve in scheduling order, so a run is a pure function of its
//! inputs — crucial for reproducing the paper's experiments from seeds.
//!
//! The queue is bucketed by timestamp. The model charges fixed per-step
//! costs (`t_s`, `t_send`, `t_prop`, `t_recv`, `t_r`), so pending events
//! share a handful of distinct instants, and nearly half of all events are
//! scheduled at the current instant. Measured on the 65,536-host fat-tree
//! multicast (identity binding, wormhole contention): at most 30,824
//! events are pending, at no more than 162 distinct times, in up to 2,809
//! pending buckets (cache misses below reopen a time's bucket), and the run
//! opens 27,930 buckets for its 3,793,761 schedules; under `Ideal`
//! contention at most 2 buckets are pending. Each bucket is a FIFO chain
//! of events at one timestamp, threaded through one slot slab whose freed
//! slots are reused. A binary heap orders only the buckets, by the
//! packed `(time bits, seq of the bucket's first event)` key, and a small
//! direct-mapped cache finds the open bucket for a time, so scheduling at
//! an already-pending time is an O(1) append with no heap sift.
//!
//! A cache miss (a collision evicted the entry, or the time is new) opens
//! a fresh bucket even if an older one for the same time is still pending.
//! That keeps the order: the older bucket can never be appended to again
//! (its cache line now names the newer one), so every event it holds has a
//! smaller seq than the newer bucket's first, and the heap key pops it
//! first. Payloads never participate in ordering, so `E` needs no `Ord`
//! bound.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// End of a slot chain, and "no bucket" in the open-bucket cache.
const NIL: u32 = u32::MAX;

/// log2 of the open-bucket cache size: 256 lines, 1 KiB inline. Collisions
/// among the largest runs' up to 162 distinct pending times let the 65k
/// wavefront hold up to 2,809 buckets, yet only 0.74% of its schedules
/// open one (27,930 of 3,793,761), so the rest are O(1) appends and more
/// lines would save little.
const CACHE_BITS: u32 = 8;

/// One pending event: the payload and the next slot of its bucket's chain
/// (or of the free list once the slot is vacated).
#[derive(Debug)]
struct Slot<E> {
    event: Option<E>,
    next: u32,
}

/// All pending events at one time, oldest first; never empty while
/// pending (the pop that drains a bucket retires it). A free bucket links
/// the bucket free list through `head`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    bits: u64,
    head: u32,
    tail: u32,
}

/// The cache line of a time: Fibonacci hashing spreads the lattice of
/// step-cost sums, whose low mantissa bits are mostly zero.
#[inline]
fn cache_line(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_BITS)) as usize
}

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_slot: u32,
    buckets: Vec<Bucket>,
    free_bucket: u32,
    /// Pending buckets keyed by `(time bits << 64) | first seq`: `SimTime`
    /// is non-negative and non-NaN, so its IEEE bits sort exactly like the
    /// value ([`SimTime::key_bits`]) and the bucket order is ONE `u128`
    /// comparison. Keys are unique, so the bucket index never decides.
    order: BinaryHeap<Reverse<(u128, u32)>>,
    /// `open[cache_line(bits)]`: the newest pending bucket at `bits`, if
    /// no other time has claimed the line since it opened.
    open: [u32; 1 << CACHE_BITS],
    len: usize,
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
            slots: Vec::new(),
            free_slot: NIL,
            buckets: Vec::new(),
            free_bucket: NIL,
            order: BinaryHeap::new(),
            open: [NIL; 1 << CACHE_BITS],
            len: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            peak_len: 0,
        }
    }

    /// Empties the queue and rewinds it to time zero with no events
    /// processed, keeping the slot slab, bucket slab and heap storage for
    /// the next run. Pending events are dropped.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_slot = NIL;
        self.buckets.clear();
        self.free_bucket = NIL;
        self.order.clear();
        self.open = [NIL; 1 << CACHE_BITS];
        self.len = 0;
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.processed = 0;
        self.peak_len = 0;
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
        let slot = self.alloc_slot(event);
        let bits = at.key_bits();
        let line = cache_line(bits);
        let b = self.open[line];
        if b != NIL && self.buckets[b as usize].bits == bits {
            let tail = std::mem::replace(&mut self.buckets[b as usize].tail, slot);
            self.slots[tail as usize].next = slot;
        } else {
            let b = self.alloc_bucket(Bucket {
                bits,
                head: slot,
                tail: slot,
            });
            self.order
                .push(Reverse(((u128::from(bits) << 64) | u128::from(seq), b)));
            self.open[line] = b;
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Schedules `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &Reverse((_, b)) = self.order.peek()?;
        let bucket = self.buckets[b as usize];
        let slot = &mut self.slots[bucket.head as usize];
        let event = slot.event.take().expect("a chained slot holds an event");
        let next = std::mem::replace(&mut slot.next, self.free_slot);
        self.free_slot = bucket.head;
        if next == NIL {
            self.order.pop();
            self.retire_bucket(b, bucket.bits);
        } else {
            self.buckets[b as usize].head = next;
        }
        let at = SimTime::from_key_bits(bucket.bits);
        self.now = at;
        self.len -= 1;
        self.processed += 1;
        Some((at, event))
    }

    /// The next two events in pop order, without popping: `[0]` is what
    /// [`Self::pop`] returns next, and `[1]` the one after it when both sit
    /// in the same bucket (else `None`, even with more events pending).
    /// Read-only, so a caller can prefetch what the coming events will
    /// touch; a schedule in between may still change what pops next.
    pub fn lookahead(&self) -> [Option<&E>; 2] {
        let Some(&Reverse((_, b))) = self.order.peek() else {
            return [None, None];
        };
        let head = &self.slots[self.buckets[b as usize].head as usize];
        let after = self.slots.get(head.next as usize);
        [head.event.as_ref(), after.and_then(|s| s.event.as_ref())]
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Largest number of events simultaneously pending over the queue's life.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    fn alloc_slot(&mut self, event: E) -> u32 {
        let slot = Slot {
            event: Some(event),
            next: NIL,
        };
        if self.free_slot == NIL {
            let i = index(self.slots.len());
            self.slots.push(slot);
            i
        } else {
            let i = self.free_slot;
            self.free_slot = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        }
    }

    fn alloc_bucket(&mut self, bucket: Bucket) -> u32 {
        if self.free_bucket == NIL {
            let b = index(self.buckets.len());
            self.buckets.push(bucket);
            b
        } else {
            let b = self.free_bucket;
            self.free_bucket = self.buckets[b as usize].head;
            self.buckets[b as usize] = bucket;
            b
        }
    }

    fn retire_bucket(&mut self, b: u32, bits: u64) {
        let line = cache_line(bits);
        if self.open[line] == b {
            self.open[line] = NIL;
        }
        self.buckets[b as usize].head = self.free_bucket;
        self.free_bucket = b;
    }
}

/// A slab length as the next slot or bucket index.
fn index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != NIL)
        .expect("fewer than u32::MAX pending events")
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

    /// The lookahead names the next pop, and the one after it only within
    /// the same bucket.
    #[test]
    fn lookahead_stays_in_the_head_bucket() {
        let mut q = EventQueue::new();
        assert_eq!(q.lookahead(), [None, None]);
        q.schedule(SimTime::us(1.0), "a");
        q.schedule(SimTime::us(2.0), "c");
        q.schedule(SimTime::us(1.0), "b");
        assert_eq!(q.lookahead(), [Some(&"a"), Some(&"b")]);
        q.pop();
        assert_eq!(q.lookahead(), [Some(&"b"), None]);
        q.pop();
        assert_eq!(q.lookahead(), [Some(&"c"), None]);
        q.pop();
        assert_eq!(q.lookahead(), [None, None]);
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

    /// A cleared queue behaves exactly like a new one, pending events
    /// included, and keeps its slab storage.
    #[test]
    fn clear_rewinds_to_a_fresh_queue() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.schedule(SimTime::us(f64::from(i % 3)), i);
        }
        q.pop();
        let slots = q.slots.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(
            (q.now(), q.processed(), q.peak_len()),
            (SimTime::ZERO, 0, 0)
        );
        assert_eq!(q.slots.capacity(), slots);
        let mut fresh = EventQueue::new();
        for q in [&mut q, &mut fresh] {
            q.schedule(SimTime::us(2.0), 20);
            q.schedule(SimTime::us(1.0), 10);
            q.schedule(SimTime::us(2.0), 21);
        }
        let drain = |q: &mut EventQueue<i32>| -> Vec<(SimTime, i32)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        assert_eq!(drain(&mut q), drain(&mut fresh));
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
