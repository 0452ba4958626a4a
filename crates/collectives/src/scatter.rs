//! Scatter (personalized one-to-all) under packetization and smart NI
//! support.
//!
//! The source holds a distinct `m`-packet block for every destination.
//! Blocks travel down a multicast-style tree: the edge into a subtree
//! carries the packets of *every* node in that subtree, and the smart NI at
//! each intermediate node forwards each packet onward as soon as it arrives
//! (the FPFS principle applied to personalized data). The step semantics
//! are the paper's: one packet per NI per step, receive at the end of the
//! sending step.
//!
//! Unlike multicast, no packet is replicated, so the source must inject
//! `m·(n−1)` packets no matter the tree — the tree only shapes the *tail*
//! after the last injection. The interesting degree of freedom is the
//! **send order**:
//!
//! * [`PersonalizedOrder::OwnFirst`] — each child receives its own packets
//!   before its descendants' (subtree preorder);
//! * [`PersonalizedOrder::DeepestFirst`] — packets for the deepest
//!   destinations go first, maximising downstream pipelining.
//!
//! The order is the simulator's own [`PersonalizedOrder`], and both this
//! analytic schedule and the simulated source lay out a child's block with
//! [`PersonalizedOrder::subtree_order`].
//!
//! `DeepestFirst` achieves the `m·(n−1)` lower bound on the chain (tested),
//! making the *linear* tree optimal for scatter — a neat inversion of the
//! multicast result, where the chain is worst for short messages.

use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_netsim::PersonalizedOrder;

/// The exact step schedule of a scatter over a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterSchedule {
    /// `arrival[rank][pkt]`: step at which the packet addressed to `rank`
    /// reached `rank` (0 for the source's own data).
    arrival: Vec<Vec<u32>>,
    /// Total packet transmissions performed.
    sends: u64,
}

impl ScatterSchedule {
    /// Step at which `rank` holds its complete personal block.
    pub fn completion(&self, rank: Rank) -> u32 {
        *self.arrival[rank.index()].iter().max().expect("m >= 1")
    }

    /// Step at which every destination holds its block.
    pub fn total_steps(&self) -> u32 {
        (0..self.arrival.len())
            .map(|r| self.completion(Rank(r as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Arrival step of one packet.
    pub fn arrival(&self, rank: Rank, pkt: u32) -> u32 {
        self.arrival[rank.index()][pkt as usize]
    }

    /// Total packet transmissions (`m · Σ_v depth(v)` over destinations).
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The source-injection lower bound: `m · (n − 1)` steps.
    pub fn source_bound(&self) -> u32 {
        let n = self.arrival.len() as u32;
        let m = self.arrival[0].len() as u32;
        m * (n - 1)
    }
}

/// One hop of one packet away from the source (used by gather's reversal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterHop {
    /// 1-based step of the transmission.
    pub step: u32,
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank (a child of `from`).
    pub to: Rank,
    /// Final destination of the packet.
    pub dest: Rank,
    /// Packet index within the destination's block.
    pub pkt: u32,
}

/// Computes the exact scatter schedule for `m` packets per destination over
/// `tree` under the chosen send order.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn scatter_schedule(tree: &MulticastTree, m: u32, order: PersonalizedOrder) -> ScatterSchedule {
    scatter_schedule_with_hops(tree, m, order).0
}

/// As [`scatter_schedule`], additionally returning every per-hop
/// transmission (the raw material for gather's time reversal).
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn scatter_schedule_with_hops(
    tree: &MulticastTree,
    m: u32,
    order: PersonalizedOrder,
) -> (ScatterSchedule, Vec<ScatterHop>) {
    assert!(m >= 1, "each destination receives at least one packet");
    let n = tree.len();
    let mu = m as usize;
    // arrival[dest][pkt] = step at which the packet reached the node
    // currently holding it; finalized when the packet reaches `dest`.
    let mut arrival = vec![vec![0u32; mu]; n];
    let mut sends = 0u64;
    let mut hops = Vec::new();

    let depths = tree.depths();
    // Preorder guarantees a parent's sends are fixed before the child's.
    for u in tree.dfs_preorder() {
        let kids = tree.children(u);
        if kids.is_empty() {
            continue;
        }
        let mut ni_free = 0u32;
        for &c in kids {
            let block = order.subtree_order(tree, &depths, c);
            for (dest, pkt) in block.into_iter().flat_map(|d| (0..m).map(move |p| (d, p))) {
                // The packet is at `u` since step arrival[dest][pkt].
                let t = (ni_free + 1).max(arrival[dest.index()][pkt as usize] + 1);
                ni_free = t;
                arrival[dest.index()][pkt as usize] = t;
                sends += 1;
                hops.push(ScatterHop {
                    step: t,
                    from: u,
                    to: c,
                    dest,
                    pkt,
                });
            }
        }
    }

    (ScatterSchedule { arrival, sends }, hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};

    #[test]
    fn chain_deepest_first_achieves_source_bound() {
        for n in [2u32, 3, 5, 9, 16] {
            for m in [1u32, 2, 4] {
                let tree = linear_tree(n);
                let s = scatter_schedule(&tree, m, PersonalizedOrder::DeepestFirst);
                assert_eq!(
                    s.total_steps(),
                    s.source_bound(),
                    "n={n} m={m}: chain + deepest-first is bound-optimal"
                );
            }
        }
    }

    #[test]
    fn own_first_on_chain_pays_depth_tail() {
        // Own-first on a chain sends near packets first; the farthest node's
        // packet leaves the source last and still has to walk the chain.
        let n = 8;
        let m = 2;
        let tree = linear_tree(n);
        let s = scatter_schedule(&tree, m, PersonalizedOrder::OwnFirst);
        assert!(s.total_steps() > s.source_bound());
        assert_eq!(s.total_steps(), m * (n - 1) + (n - 2));
    }

    #[test]
    fn source_bound_is_a_lower_bound_for_all_trees() {
        for n in [4u32, 8, 16, 31] {
            for k in 1..=4 {
                for m in [1u32, 3] {
                    for order in [PersonalizedOrder::OwnFirst, PersonalizedOrder::DeepestFirst] {
                        let tree = kbinomial_tree(n, k);
                        let s = scatter_schedule(&tree, m, order);
                        assert!(s.total_steps() >= s.source_bound(), "n={n} k={k} m={m}");
                    }
                }
            }
        }
    }

    /// Neither send-order policy dominates: deepest-first is optimal on
    /// chains (it fills the source's injection pipeline with the longest
    /// journeys first), but on bushy k-binomial trees it can starve the
    /// early subtrees and lose to own-first. Pin one witness of each.
    #[test]
    fn send_order_policies_are_incomparable() {
        // Deepest-first wins on the chain.
        let chain = linear_tree(8);
        let deep = scatter_schedule(&chain, 2, PersonalizedOrder::DeepestFirst);
        let own = scatter_schedule(&chain, 2, PersonalizedOrder::OwnFirst);
        assert!(deep.total_steps() < own.total_steps());
        // Own-first wins on the 3-binomial tree over 16 nodes.
        let bushy = kbinomial_tree(16, 3);
        let deep = scatter_schedule(&bushy, 2, PersonalizedOrder::DeepestFirst);
        let own = scatter_schedule(&bushy, 2, PersonalizedOrder::OwnFirst);
        assert!(own.total_steps() < deep.total_steps());
    }

    /// On chains deepest-first is never worse than own-first (and is
    /// bound-optimal, per `chain_deepest_first_achieves_source_bound`).
    #[test]
    fn deepest_first_dominates_on_chains() {
        for n in [2u32, 4, 8, 16, 32] {
            for m in [1u32, 2, 4] {
                let tree = linear_tree(n);
                let deep = scatter_schedule(&tree, m, PersonalizedOrder::DeepestFirst);
                let own = scatter_schedule(&tree, m, PersonalizedOrder::OwnFirst);
                assert!(deep.total_steps() <= own.total_steps(), "n={n} m={m}");
            }
        }
    }

    #[test]
    fn scatter_inverts_the_multicast_preference() {
        // For multicast (short messages) the binomial tree beats the chain;
        // for scatter the chain is at least as good as the binomial tree.
        let n = 16;
        let m = 1;
        let chain = scatter_schedule(&linear_tree(n), m, PersonalizedOrder::DeepestFirst);
        let bin = scatter_schedule(&binomial_tree(n), m, PersonalizedOrder::DeepestFirst);
        assert!(chain.total_steps() <= bin.total_steps());
    }

    #[test]
    fn per_destination_completions_are_positive_and_bounded() {
        let tree = binomial_tree(16);
        let s = scatter_schedule(&tree, 3, PersonalizedOrder::DeepestFirst);
        for r in 1..16u32 {
            let c = s.completion(Rank(r));
            assert!(c >= 1 && c <= s.total_steps());
        }
        assert_eq!(
            s.completion(Rank::SOURCE),
            0,
            "source already owns its data"
        );
    }

    #[test]
    fn send_count_is_weighted_path_length() {
        // Each packet is transmitted depth(dest) times.
        let tree = kbinomial_tree(12, 2);
        let m = 4;
        let s = scatter_schedule(&tree, m, PersonalizedOrder::OwnFirst);
        let depths = tree.depths();
        let expect: u64 = depths.iter().map(|&d| u64::from(d) * u64::from(m)).sum();
        assert_eq!(s.sends(), expect);
    }

    #[test]
    fn singleton_scatter_is_free() {
        let t = MulticastTree::singleton();
        let s = scatter_schedule(&t, 2, PersonalizedOrder::DeepestFirst);
        assert_eq!(s.total_steps(), 0);
        assert_eq!(s.sends(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_packets_panics() {
        scatter_schedule(&linear_tree(3), 0, PersonalizedOrder::OwnFirst);
    }
}

#[cfg(test)]
mod sim_tests {
    use super::*;
    use optimcast_core::params::SystemParams;
    use optimcast_netsim::{ContentionMode, MulticastJob, NiTiming, SimRun, WorkloadConfig};
    use optimcast_topology::graph::HostId;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    fn ideal_handshake() -> WorkloadConfig {
        WorkloadConfig {
            contention: ContentionMode::Ideal,
            timing: NiTiming::Handshake,
            trace: false,
            ..WorkloadConfig::default()
        }
    }

    /// The simulator's FIFO relay reproduces the analytic scatter schedule
    /// exactly under OwnFirst ordering (a parent's per-child preorder block
    /// arrives in exactly the order the child would re-emit it).
    #[test]
    fn own_first_sim_equals_analytic() {
        let net = IrregularNetwork::generate(
            IrregularConfig {
                switches: 1,
                ports: 32,
                hosts: 32,
            },
            0,
        );
        let params = SystemParams::paper_1997();
        for (n, k) in [(8u32, 2u32), (16, 3), (32, 2), (13, 1)] {
            for m in [1u32, 2, 4] {
                let tree = optimcast_core::builders::kbinomial_tree(n, k);
                let sched = scatter_schedule(&tree, m, PersonalizedOrder::OwnFirst);
                let binding: Vec<HostId> = (0..n).map(HostId).collect();
                let job = MulticastJob::scatter(tree, binding, m, PersonalizedOrder::OwnFirst);
                let out = &SimRun::new(&net, &[job], &params, ideal_handshake())
                    .run()
                    .unwrap()
                    .jobs[0];
                let expect =
                    params.t_s + f64::from(sched.total_steps()) * params.t_step() + params.t_r;
                assert!(
                    (out.latency_us - expect).abs() < 1e-6,
                    "n={n} k={k} m={m}: sim {} vs analytic {expect}",
                    out.latency_us
                );
            }
        }
    }

    /// Deepest-first simulation stays within [source bound, analytic] on
    /// chains (where FIFO relay and the analytic order coincide).
    #[test]
    fn deepest_first_sim_on_chain_is_bound_optimal() {
        let net = IrregularNetwork::generate(
            IrregularConfig {
                switches: 1,
                ports: 16,
                hosts: 16,
            },
            0,
        );
        let params = SystemParams::paper_1997();
        let tree = optimcast_core::builders::linear_tree(16);
        let binding: Vec<HostId> = (0..16).map(HostId).collect();
        let job = MulticastJob::scatter(tree, binding, 2, PersonalizedOrder::DeepestFirst);
        let out = &SimRun::new(&net, &[job], &params, ideal_handshake())
            .run()
            .unwrap()
            .jobs[0];
        let bound = params.t_s + f64::from(2 * 15) * params.t_step() + params.t_r;
        assert!((out.latency_us - bound).abs() < 1e-6);
    }
}
