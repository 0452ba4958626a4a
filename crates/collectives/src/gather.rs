//! Gather (personalized all-to-one): every participant owns an `m`-packet
//! block that must reach the root.
//!
//! Gather is the **time reversal** of scatter: run the scatter schedule
//! backwards, and every hop `u → v` at step `t` becomes a hop `v → u` at
//! step `T − t + 1`. Reversal swaps the serialized resources — a scatter
//! sender injecting one packet per step becomes a gather *receiver*
//! accepting one packet per step — so the reversed schedule is feasible on
//! the same NI model (one send and one receive per NI per step), and gather
//! completes in exactly the scatter's step count.
//! [`GatherSchedule::verify`] checks feasibility mechanically; the tests
//! run it rather than taking the classic argument on faith.

use crate::scatter::scatter_schedule_with_hops;
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_netsim::PersonalizedOrder;

/// One hop of one packet towards the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherEvent {
    /// 1-based step of the transmission.
    pub step: u32,
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank (the sender's tree parent).
    pub to: Rank,
    /// The rank whose personal block this packet belongs to.
    pub owner: Rank,
    /// Packet index within the owner's block.
    pub pkt: u32,
}

/// The step schedule of a gather over a tree (built by reversing scatter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherSchedule {
    events: Vec<GatherEvent>,
    total_steps: u32,
    participants: usize,
    packets: u32,
}

impl GatherSchedule {
    /// Steps until the root holds every block.
    pub fn total_steps(&self) -> u32 {
        self.total_steps
    }

    /// All transmissions, sorted by `(step, from)`.
    pub fn events(&self) -> &[GatherEvent] {
        &self.events
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Packets per participant block.
    pub fn packets(&self) -> u32 {
        self.packets
    }

    /// Mechanically verifies feasibility of the schedule on the step model:
    /// at most one send and one receive per rank per step; a block packet
    /// moves only after it has arrived at its current holder (causality);
    /// every packet of every non-root participant reaches the root.
    pub fn verify(&self, tree: &MulticastTree) -> Result<(), String> {
        use std::collections::HashMap;
        let mut send_busy: HashMap<(Rank, u32), ()> = HashMap::new();
        let mut recv_busy: HashMap<(Rank, u32), ()> = HashMap::new();
        // held[(owner, pkt)] = (current holder, since step).
        let mut held: HashMap<(Rank, u32), (Rank, u32)> = HashMap::new();
        for r in 1..self.participants as u32 {
            for p in 0..self.packets {
                held.insert((Rank(r), p), (Rank(r), 0));
            }
        }
        for e in &self.events {
            if tree.parent(e.from) != Some(e.to) {
                return Err(format!("{e:?}: gather hops must go to the parent"));
            }
            if send_busy.insert((e.from, e.step), ()).is_some() {
                return Err(format!("{e:?}: sender double-booked"));
            }
            if recv_busy.insert((e.to, e.step), ()).is_some() {
                return Err(format!("{e:?}: receiver double-booked"));
            }
            let slot = held
                .get_mut(&(e.owner, e.pkt))
                .ok_or_else(|| format!("{e:?}: unknown packet"))?;
            if slot.0 != e.from {
                return Err(format!("{e:?}: packet is at {}, not {}", slot.0, e.from));
            }
            if slot.1 >= e.step {
                return Err(format!("{e:?}: sent before arrival at step {}", slot.1));
            }
            *slot = (e.to, e.step);
        }
        for ((owner, pkt), (at, _)) in held {
            if at != Rank::SOURCE {
                return Err(format!("packet ({owner}, {pkt}) stranded at {at}"));
            }
        }
        Ok(())
    }
}

/// Builds the gather schedule for `m` packets per participant over `tree`
/// by time-reversing the scatter schedule with the same send order.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn gather_schedule(tree: &MulticastTree, m: u32, order: PersonalizedOrder) -> GatherSchedule {
    let (scatter, hops) = scatter_schedule_with_hops(tree, m, order);
    let total = scatter.total_steps();
    let mut events: Vec<GatherEvent> = hops
        .into_iter()
        .map(|h| GatherEvent {
            step: total - h.step + 1,
            from: h.to,
            to: h.from,
            owner: h.dest,
            pkt: h.pkt,
        })
        .collect();
    events.sort_by_key(|e| (e.step, e.from.0, e.owner.0, e.pkt));
    GatherSchedule {
        events,
        total_steps: total,
        participants: tree.len(),
        packets: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatter::scatter_schedule;
    use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};

    #[test]
    fn gather_equals_scatter_duration() {
        for n in [2u32, 5, 8, 16, 31] {
            for k in 1..=4 {
                for m in [1u32, 3] {
                    for policy in [PersonalizedOrder::OwnFirst, PersonalizedOrder::DeepestFirst] {
                        let tree = kbinomial_tree(n, k);
                        let g = gather_schedule(&tree, m, policy);
                        let s = scatter_schedule(&tree, m, policy);
                        assert_eq!(g.total_steps(), s.total_steps(), "n={n} k={k} m={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn reversed_schedules_are_feasible() {
        for n in [2u32, 7, 16, 24] {
            for k in [1u32, 2, 4] {
                for policy in [PersonalizedOrder::OwnFirst, PersonalizedOrder::DeepestFirst] {
                    let tree = kbinomial_tree(n, k);
                    let g = gather_schedule(&tree, 2, policy);
                    g.verify(&tree)
                        .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
                }
            }
        }
    }

    #[test]
    fn event_count_is_weighted_path_length() {
        let tree = binomial_tree(16);
        let g = gather_schedule(&tree, 3, PersonalizedOrder::OwnFirst);
        let s = scatter_schedule(&tree, 3, PersonalizedOrder::OwnFirst);
        assert_eq!(g.events().len() as u64, s.sends());
    }

    #[test]
    fn chain_gather_achieves_sink_bound() {
        // Dual of the scatter source bound: the root must receive m(n-1)
        // packets, one per step.
        let tree = linear_tree(9);
        let g = gather_schedule(&tree, 2, PersonalizedOrder::DeepestFirst);
        assert_eq!(g.total_steps(), 2 * 8);
        g.verify(&tree).unwrap();
    }

    #[test]
    fn singleton_gather_is_free() {
        let tree = optimcast_core::tree::MulticastTree::singleton();
        let g = gather_schedule(&tree, 4, PersonalizedOrder::OwnFirst);
        assert_eq!(g.total_steps(), 0);
        assert!(g.events().is_empty());
        g.verify(&tree).unwrap();
    }

    #[test]
    fn verify_catches_corruption() {
        let tree = linear_tree(4);
        let mut g = gather_schedule(&tree, 1, PersonalizedOrder::OwnFirst);
        // Corrupt: duplicate the first event's (from, step) slot.
        let mut bad = g.events()[0];
        bad.owner = Rank(2);
        g.events.push(bad);
        assert!(g.verify(&tree).is_err());
    }
}
