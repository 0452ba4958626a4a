//! Node orderings for contention-free tree construction (paper §4.3.2).
//!
//! The paper builds k-binomial trees on a *contention-free ordering* of the
//! participating nodes: an ordering `≺` such that for any
//! `a ≺ b ≼ c ≺ d`, a message `a → b` shares no channel with a message
//! `c → d`. For k-ary n-cubes the dimension-ordered chain of McKinley et al.
//! provides one; for irregular networks no contention-free ordering exists
//! under up\*/down\* routing (HPCA'97 \[5\]), and the paper instead uses the
//! **Chain Concatenated Ordering (CCO)** of \[5\], which minimises (but does
//! not eliminate) contention.
//!
//! Our CCO (documented substitution — we reconstruct it from its defining
//! property, see DESIGN.md): traverse the up\*/down\* BFS switch tree
//! depth-first from the root and concatenate each switch's attached hosts at
//! first visit. Hosts that are topologically close are then contiguous in
//! the ordering, so the nested/disjoint chain segments used by the Fig. 11
//! construction mostly map to disjoint channel sets.
//!
//! \[5\] also defines a partial-ordered-chain ordering. Splitting the CCO
//! order greedily into contention-free chains and concatenating them again
//! returns the CCO order unchanged, so CCO is the one irregular-network
//! ordering here (DESIGN.md §5).

use crate::cube::CubeNetwork;
use crate::graph::{HostId, SwitchId};
use crate::irregular::IrregularNetwork;
use crate::Network;
use optimcast_rng::{ChaCha8Rng, SliceRandom};

/// A total ordering of all hosts of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ordering {
    order: Vec<HostId>,
    /// Position of each host in `order`.
    pos: Vec<u32>,
}

impl Ordering {
    /// Wraps an explicit permutation of `0..n` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all host ids `0..len`.
    pub fn from_order(order: Vec<HostId>) -> Self {
        let n = order.len();
        let mut pos = vec![u32::MAX; n];
        for (i, h) in order.iter().enumerate() {
            assert!(h.index() < n, "host {h} out of range for ordering of {n}");
            assert!(pos[h.index()] == u32::MAX, "host {h} appears twice");
            pos[h.index()] = i as u32;
        }
        Ordering { order, pos }
    }

    /// The identity ordering `h0, h1, …`.
    pub fn identity(n: u32) -> Self {
        Ordering::from_order((0..n).map(HostId).collect())
    }

    /// A seeded random permutation (ablation baseline).
    pub fn random(n: u32, seed: u64) -> Self {
        let mut order: Vec<HostId> = (0..n).map(HostId).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        Ordering::from_order(order)
    }

    /// Hosts in order.
    pub fn hosts(&self) -> &[HostId] {
        &self.order
    }

    /// Position of a host in the ordering.
    pub fn position(&self, h: HostId) -> u32 {
        self.pos[h.index()]
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Arranges a multicast set on this ordering: the participants (source
    /// plus destinations) are sorted by ordering position and then rotated
    /// so the source comes first — the paper's "without loss of generality,
    /// the source is the first node in the ordering".
    ///
    /// The result is the chain on which the Fig. 11 construction runs:
    /// `result[0]` is the source (tree rank 0), `result[i]` is rank `i`.
    ///
    /// # Panics
    ///
    /// Panics if `dests` contains the source or duplicate hosts.
    pub fn arrange(&self, source: HostId, dests: &[HostId]) -> Vec<HostId> {
        let mut chain: Vec<HostId> = Vec::with_capacity(dests.len() + 1);
        chain.push(source);
        chain.extend_from_slice(dests);
        chain.sort_by_key(|&h| self.position(h));
        for w in chain.windows(2) {
            assert!(w[0] != w[1], "duplicate participant {}", w[0]);
        }
        let src_at = chain
            .iter()
            .position(|&h| h == source)
            .expect("source is in the chain");
        chain.rotate_left(src_at);
        chain
    }
}

/// The Chain Concatenated Ordering for an irregular network: depth-first
/// traversal of the up\*/down\* BFS switch tree (children in discovery
/// order), concatenating each switch's hosts at first visit.
pub fn cco(net: &IrregularNetwork) -> Ordering {
    cco_of(net.topology(), net.routing())
}

/// CCO over any up\*/down\*-routed topology (irregular networks, fat-trees,
/// dragonflies): one O(hosts + switches) pass over the routing's BFS switch
/// tree.
pub fn cco_of(topo: &crate::graph::Topology, routing: &crate::updown::UpDownRouting) -> Ordering {
    let mut order = Vec::with_capacity(topo.num_hosts() as usize);
    let mut stack = vec![routing.root()];
    while let Some(s) = stack.pop() {
        order.extend_from_slice(topo.switch_hosts(s));
        // Reverse so children pop in discovery order.
        for &c in routing.tree_children(s).iter().rev() {
            stack.push(c);
        }
    }
    Ordering::from_order(order)
}

/// The dimension-ordered chain for a k-ary n-cube: hosts in lexicographic
/// coordinate order (dimension 0 varying fastest), which is exactly
/// ascending node-id order by construction.
pub fn dimension_ordered(cube: &CubeNetwork) -> Ordering {
    Ordering::identity(cube.num_hosts())
}

/// A per-switch clustered ordering for *any* switch topology: hosts grouped
/// by switch id (not topology-aware beyond that). Useful as a middle
/// ablation point between CCO and random.
pub fn switch_grouped(topo: &crate::graph::Topology) -> Ordering {
    let mut order = Vec::with_capacity(topo.num_hosts() as usize);
    for s in 0..topo.num_switches() {
        order.extend_from_slice(topo.switch_hosts(SwitchId(s)));
    }
    Ordering::from_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::IrregularConfig;

    #[test]
    fn identity_positions() {
        let o = Ordering::identity(5);
        for i in 0..5 {
            assert_eq!(o.position(HostId(i)), i);
            assert_eq!(o.hosts()[i as usize], HostId(i));
        }
    }

    #[test]
    fn random_is_permutation_and_seeded() {
        let a = Ordering::random(64, 9);
        let b = Ordering::random(64, 9);
        assert_eq!(a, b);
        let c = Ordering::random(64, 10);
        assert_ne!(a, c);
        let mut hosts: Vec<u32> = a.hosts().iter().map(|h| h.0).collect();
        hosts.sort_unstable();
        assert_eq!(hosts, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_rejected() {
        Ordering::from_order(vec![HostId(0), HostId(0)]);
    }

    #[test]
    fn arrange_sorts_and_rotates() {
        let o = Ordering::from_order(vec![HostId(3), HostId(1), HostId(4), HostId(0), HostId(2)]);
        // Participants 0, 2, 4 with source 4: sorted by position = [4, 0, 2]
        // (positions 2, 3, 4); source already first.
        assert_eq!(
            o.arrange(HostId(4), &[HostId(0), HostId(2)]),
            vec![HostId(4), HostId(0), HostId(2)]
        );
        // Source 0: sorted [4, 0, 2] rotated to [0, 2, 4].
        assert_eq!(
            o.arrange(HostId(0), &[HostId(2), HostId(4)]),
            vec![HostId(0), HostId(2), HostId(4)]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate participant")]
    fn arrange_rejects_source_in_dests() {
        let o = Ordering::identity(4);
        o.arrange(HostId(1), &[HostId(1), HostId(2)]);
    }

    #[test]
    fn cco_covers_all_hosts_and_clusters_by_switch() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 11);
        let o = cco(&net);
        assert_eq!(o.len(), 64);
        // Hosts of one switch are contiguous in CCO.
        let topo = net.topology();
        for s in 0..topo.num_switches() {
            let hosts = topo.switch_hosts(SwitchId(s));
            let mut positions: Vec<u32> = hosts.iter().map(|&h| o.position(h)).collect();
            positions.sort_unstable();
            for w in positions.windows(2) {
                assert_eq!(w[1], w[0] + 1, "switch {s} hosts not contiguous");
            }
        }
        // Root switch's hosts come first.
        assert_eq!(o.hosts()[0], topo.switch_hosts(net.routing().root())[0]);
    }

    #[test]
    fn cco_deterministic() {
        let n1 = IrregularNetwork::generate(IrregularConfig::default(), 4);
        let n2 = IrregularNetwork::generate(IrregularConfig::default(), 4);
        assert_eq!(cco(&n1), cco(&n2));
    }

    #[test]
    fn dimension_ordered_is_identity() {
        let c = CubeNetwork::new(2, 3);
        let o = dimension_ordered(&c);
        assert_eq!(o, Ordering::identity(8));
    }

    #[test]
    fn switch_grouped_groups() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 5);
        let o = switch_grouped(net.topology());
        assert_eq!(o.len(), 64);
        // Hosts 0..3 are on switch 0 by generation order.
        assert_eq!(
            &o.hosts()[0..4],
            &[HostId(0), HostId(1), HostId(2), HostId(3)]
        );
    }
}
