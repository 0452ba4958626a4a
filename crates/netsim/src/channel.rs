//! The channel manager: wormhole route reservation and contention.
//!
//! Under [`ContentionMode::Wormhole`] a transmission holds **every** directed
//! channel of its deterministic route for `t_send + t_prop` from dispatch —
//! the conservative wormhole model of the paper's §5: a blocked head stalls
//! the sending NI until the whole route is free (head-of-line blocking).
//! Under [`ContentionMode::Ideal`] the network has infinite capacity and
//! reservation is a no-op, which reduces the simulator to the paper's
//! analytic step model.

use crate::sim::ContentionMode;
use crate::time::SimTime;
use optimcast_topology::graph::ChannelId;

/// Channel occupancy bookkeeping for one simulation run.
#[derive(Debug)]
pub(crate) struct ChannelManager {
    mode: ContentionMode,
    /// Per-channel earliest free time.
    free: Vec<SimTime>,
}

impl ChannelManager {
    pub(crate) fn new(mode: ContentionMode, n_channels: usize) -> Self {
        Self::reuse(mode, n_channels, Vec::new())
    }

    /// A manager over `n_channels` free channels whose occupancy table
    /// reuses `free`'s storage (its contents are discarded).
    pub(crate) fn reuse(mode: ContentionMode, n_channels: usize, mut free: Vec<SimTime>) -> Self {
        free.clear();
        free.resize(n_channels, SimTime::ZERO);
        ChannelManager { mode, free }
    }

    /// The occupancy table's storage, for the next run's [`Self::reuse`].
    pub(crate) fn into_storage(self) -> Vec<SimTime> {
        self.free
    }

    /// Reserves the route for a transmission dispatched at `now` holding its
    /// channels for `hold_us`. Returns the actual start time: `now` under
    /// ideal contention, else the instant the whole route is free.
    ///
    /// The max-free scan and the hold write are fused into one pass over the
    /// route, writing holds optimistically as if the worm starts at `now`;
    /// only a contended route (some channel still held past `now` — the rare
    /// case on the sweep workloads) takes a second pass to restate the holds
    /// from the delayed start. Requires a duplicate-free route (deterministic
    /// up*/down* routes are simple paths), since each channel's prior free
    /// time is read just before being overwritten.
    pub(crate) fn reserve(&mut self, route: &[ChannelId], now: SimTime, hold_us: f64) -> SimTime {
        match self.mode {
            ContentionMode::Ideal => now,
            ContentionMode::Wormhole => {
                let optimistic = now + hold_us;
                let mut free = SimTime::ZERO;
                for ch in route {
                    let slot = &mut self.free[ch.index()];
                    free = free.max(*slot);
                    *slot = optimistic;
                }
                let t0 = now.max(free);
                if t0 > now {
                    let hold = t0 + hold_us;
                    for ch in route {
                        self.free[ch.index()] = hold;
                    }
                }
                t0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u32]) -> Vec<ChannelId> {
        ids.iter().map(|&i| ChannelId(i)).collect()
    }

    #[test]
    fn ideal_mode_never_delays() {
        let mut cm = ChannelManager::new(ContentionMode::Ideal, 4);
        let now = SimTime::us(5.0);
        assert_eq!(cm.reserve(&route(&[0, 1]), now, 10.0), now);
        assert_eq!(cm.reserve(&route(&[0, 1]), now, 10.0), now);
    }

    #[test]
    fn wormhole_serializes_overlapping_routes() {
        let mut cm = ChannelManager::new(ContentionMode::Wormhole, 4);
        let t0 = cm.reserve(&route(&[0, 1]), SimTime::ZERO, 7.0);
        assert_eq!(t0, SimTime::ZERO);
        // Shares channel 1: must wait for the first worm to drain.
        let t1 = cm.reserve(&route(&[1, 2]), SimTime::us(1.0), 7.0);
        assert_eq!(t1, SimTime::us(7.0));
        // Disjoint route: starts immediately.
        let t2 = cm.reserve(&route(&[3]), SimTime::us(1.0), 7.0);
        assert_eq!(t2, SimTime::us(1.0));
    }

    /// The fused single-pass reservation yields bit-identical start times
    /// *and* channel holds to the historic two-pass implementation over
    /// randomized duplicate-free routes — the golden-equivalence contract
    /// at unit scale.
    #[test]
    fn single_pass_reserve_pins_two_pass_times() {
        use optimcast_rng::{ChaCha8Rng, Rng};

        struct TwoPass {
            free: Vec<SimTime>,
        }
        impl TwoPass {
            fn reserve(&mut self, route: &[ChannelId], now: SimTime, hold_us: f64) -> SimTime {
                let free = route
                    .iter()
                    .map(|ch| self.free[ch.index()])
                    .max()
                    .unwrap_or(SimTime::ZERO);
                let t0 = now.max(free);
                let hold = t0 + hold_us;
                for ch in route {
                    self.free[ch.index()] = hold;
                }
                t0
            }
        }

        let n = 16usize;
        let mut fused = ChannelManager::new(ContentionMode::Wormhole, n);
        let mut reference = TwoPass {
            free: vec![SimTime::ZERO; n],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut now_us = 0.0f64;
        for _ in 0..500 {
            // Dispatch times are monotone within a run, as in the simulator.
            now_us += f64::from(rng.gen_range(0u32..4));
            let len = rng.gen_range(1usize..5);
            let start = rng.gen_range(0usize..n);
            let r: Vec<ChannelId> = (0..len)
                .map(|i| ChannelId(((start + i) % n) as u32))
                .collect();
            let hold = 5.0 + f64::from(rng.gen_range(0u32..10));
            let now = SimTime::us(now_us);
            assert_eq!(
                fused.reserve(&r, now, hold),
                reference.reserve(&r, now, hold)
            );
        }
        assert_eq!(fused.free, reference.free, "channel state diverged");
    }

    #[test]
    fn holds_extend_from_actual_start() {
        let mut cm = ChannelManager::new(ContentionMode::Wormhole, 2);
        cm.reserve(&route(&[0]), SimTime::ZERO, 5.0);
        let t1 = cm.reserve(&route(&[0]), SimTime::ZERO, 5.0);
        assert_eq!(t1, SimTime::us(5.0));
        let t2 = cm.reserve(&route(&[0]), SimTime::ZERO, 5.0);
        assert_eq!(t2, SimTime::us(10.0));
    }
}
