//! Property test of the timestamp-bucketed [`EventQueue`]: under any
//! interleaving of schedules and pops — with deliberately heavy time ties —
//! events pop in exactly `(time, insertion sequence)` order, matching a
//! naive reference model, and the `len`/`peak_len`/`processed` counters
//! stay consistent.
//!
//! Besides the mixed script, four scripts aim at the bucket queue's edges:
//! mostly zero-delay schedules (appends to the bucket being drained),
//! nearly all-distinct times (one event per bucket), more distinct live
//! times than the open-bucket cache has lines (misses that open a second
//! bucket while an older one at the same time is still pending), and
//! drain-then-refill at the same instant (a drained bucket reopened).
//!
//! Before every pop, under every script, [`EventQueue::lookahead`] must
//! name what the following pops return.

use optimcast_netsim::engine::EventQueue;
use optimcast_netsim::time::SimTime;
use optimcast_rng::{ChaCha8Rng, Rng};
use proptest::prelude::*;

/// The obviously-correct model: a flat list scanned for the minimum
/// `(time, seq)` on every pop.
#[derive(Default)]
struct Reference {
    pending: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    now: SimTime,
}

impl Reference {
    fn schedule(&mut self, at: SimTime, payload: u32) {
        assert!(at >= self.now, "test generated a past schedule");
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (a.0, a.1).cmp(&(b.0, b.1)))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.pending.remove(best);
        self.now = at;
        Some((at, payload))
    }

    /// The payloads of the next two pops, in order, without popping.
    fn peek2(&self) -> [Option<u32>; 2] {
        let mut best: [Option<(SimTime, u64, u32)>; 2] = [None, None];
        for &e in &self.pending {
            let key = |x: (SimTime, u64, u32)| (x.0, x.1);
            if best[0].is_none_or(|b| key(e) < key(b)) {
                best = [Some(e), best[0]];
            } else if best[1].is_none_or(|b| key(e) < key(b)) {
                best[1] = Some(e);
            }
        }
        best.map(|e| e.map(|(_, _, payload)| payload))
    }
}

/// Pops `q` and the model once and returns the queue's pop, after checking
/// the lookahead: its first entry must be the model's next pop, and its
/// second, when it names one, the pop after that.
fn pop_both(
    q: &mut EventQueue<u32>,
    model: &mut Reference,
) -> Result<Option<(SimTime, u32)>, String> {
    let [next, after] = q.lookahead().map(Option::<&u32>::copied);
    let [want_next, want_after] = model.peek2();
    prop_assert_eq!(next, want_next);
    if after.is_some() {
        prop_assert_eq!(after, want_after);
    }
    let got = q.pop();
    prop_assert_eq!(got, model.pop());
    Ok(got)
}

proptest! {
    /// Random interleaved schedule/pop scripts agree with the reference
    /// model event-for-event. Times are drawn from a coarse grid so ties —
    /// the case the insertion-sequence tie-break exists for — occur
    /// constantly.
    #[test]
    fn pops_match_reference_model(seed in 0u64..1_000_000, ops in 50usize..400) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = Reference::default();
        let mut payload = 0u32;
        for _ in 0..ops {
            let schedule = q.is_empty() || rng.bounded_u64(10) < 6;
            if schedule {
                // A coarse 4-tick grid over a short horizon: most draws
                // collide with an already-scheduled time.
                let delay = f64::from(rng.next_u32() % 4);
                let at = q.now() + delay;
                q.schedule(at, payload);
                model.schedule(at, payload);
                payload += 1;
            } else {
                pop_both(&mut q, &mut model)?;
            }
            prop_assert_eq!(q.len(), model.pending.len());
        }
        // Drain: the tail must also match, and afterwards both are empty.
        while pop_both(&mut q, &mut model)?.is_some() {}
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.processed(), model.next_seq);
    }
}

proptest! {
    /// `peak_len` is exactly the high-water mark of `len()` over the run.
    #[test]
    fn peak_len_is_the_high_water_mark(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut peak = 0usize;
        for _ in 0..200 {
            if q.is_empty() || rng.bounded_u64(100) < 55 {
                q.schedule_in(f64::from(rng.next_u32() % 8), 0);
            } else {
                q.pop();
            }
            peak = peak.max(q.len());
            prop_assert_eq!(q.peak_len(), peak);
        }
    }
}

/// Drives `q` and the reference model through one script: each of `ops`
/// steps schedules at `now + delay(rng)` with probability `schedule_pct`%
/// (always when empty), else pops; then both drain. Pops must agree event
/// for event, as must each pop's lookahead, and `len`, `peak_len` and
/// `processed` must match the model after every step.
fn check_script(
    rng: &mut ChaCha8Rng,
    ops: usize,
    schedule_pct: u64,
    mut delay: impl FnMut(&mut ChaCha8Rng) -> f64,
) -> Result<(), String> {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut model = Reference::default();
    let (mut peak, mut popped) = (0usize, 0u64);
    for payload in 0..ops as u32 {
        if q.is_empty() || rng.bounded_u64(100) < schedule_pct {
            let at = q.now() + delay(rng);
            q.schedule(at, payload);
            model.schedule(at, payload);
        } else {
            pop_both(&mut q, &mut model)?;
            popped += 1;
        }
        peak = peak.max(model.pending.len());
        prop_assert_eq!(q.len(), model.pending.len());
        prop_assert_eq!(q.peak_len(), peak);
        prop_assert_eq!(q.processed(), popped);
    }
    while pop_both(&mut q, &mut model)?.is_some() {
        popped += 1;
    }
    prop_assert!(q.is_empty());
    prop_assert_eq!(q.processed(), popped);
    prop_assert_eq!(q.peak_len(), peak);
    Ok(())
}

proptest! {
    /// Zero-delay-heavy: every other schedule is at `now` and the rest draw
    /// from a grid that includes 0, so at least half land on the current
    /// instant — the simulator's dominant pattern.
    #[test]
    fn zero_delay_heavy_scripts_match(seed in 0u64..1_000_000, ops in 50usize..600) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut at_now = false;
        check_script(&mut rng, ops, 55, |rng| {
            at_now = !at_now;
            if at_now { 0.0 } else { f64::from(rng.next_u32() % 4) * 0.5 }
        })?;
    }

    /// Wide horizon: delays are fine-grained draws over ~4·10⁶ µs, so
    /// nearly every pending time is distinct and each bucket holds one
    /// event.
    #[test]
    fn wide_horizon_scripts_match(seed in 0u64..1_000_000, ops in 50usize..600) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        check_script(&mut rng, ops, 60, |rng| f64::from(rng.next_u32()) / 1024.0)?;
    }

    /// More distinct live times than cache lines: a mostly-scheduling
    /// script over a 2,048-point grid keeps hundreds of distinct times
    /// pending, so lines collide and a time whose entry was evicted opens a
    /// second bucket while its first is still pending.
    #[test]
    fn cache_overflow_scripts_match(seed in 0u64..1_000_000, ops in 1_000usize..1_600) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        check_script(&mut rng, ops, 80, |rng| f64::from(rng.next_u32() % 2_048))?;
    }

    /// Drain and refill at the same `now`: each round schedules a batch on
    /// a coarse grid, pops the queue empty, then schedules again — starting
    /// at the very instant of the last pop, whose bucket has just drained.
    #[test]
    fn drain_and_refill_at_now_matches(seed in 0u64..1_000_000, rounds in 1usize..12) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = Reference::default();
        let (mut payload, mut peak, mut popped) = (0u32, 0usize, 0u64);
        for _ in 0..rounds {
            let batch = 1 + rng.bounded_u64(40);
            for i in 0..batch {
                let delay = if i < 3 { 0.0 } else { f64::from(rng.next_u32() % 3) };
                let at = q.now() + delay;
                q.schedule(at, payload);
                model.schedule(at, payload);
                payload += 1;
                peak = peak.max(model.pending.len());
                prop_assert_eq!(q.peak_len(), peak);
            }
            while pop_both(&mut q, &mut model)?.is_some() {
                popped += 1;
                prop_assert_eq!(q.len(), model.pending.len());
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.now(), model.now);
            prop_assert_eq!(q.processed(), popped);
        }
        prop_assert_eq!(q.peak_len(), peak);
    }
}
