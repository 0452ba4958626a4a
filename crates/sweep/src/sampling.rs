//! Workload sampling (§5.2): tree policies, random destination sets, and
//! the sweep axes of the paper's figures.

use crate::config::SweepConfig;
use optimcast_core::builders::TreeKind;
use optimcast_core::optimal::optimal_k;
use optimcast_core::tree::MulticastTree;
use optimcast_rng::{ChaCha8Rng, SliceRandom};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::IrregularNetwork;
use optimcast_topology::ordering::{cco, Ordering};

/// Which multicast tree a run uses (the paper's comparison axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreePolicy {
    /// Chain tree (`k = 1`).
    Linear,
    /// Conventional binomial tree — the baseline the paper beats.
    Binomial,
    /// k-binomial tree with the Theorem-3 optimal `k` for `(n, m)`.
    OptimalKBinomial,
    /// k-binomial tree with a fixed `k`.
    FixedK(u32),
}

impl TreePolicy {
    /// The tree family the policy picks for `n` participants and `m`
    /// packets (Theorem 3's `k` for [`TreePolicy::OptimalKBinomial`]).
    pub(crate) fn kind(self, n: u32, m: u32) -> TreeKind {
        match self {
            TreePolicy::Linear => TreeKind::Linear,
            TreePolicy::Binomial => TreeKind::Binomial,
            TreePolicy::OptimalKBinomial => TreeKind::KBinomial(optimal_k(u64::from(n), m).k),
            TreePolicy::FixedK(k) => TreeKind::KBinomial(k),
        }
    }

    /// Builds the policy's tree for `n` participants and `m` packets.
    /// Sweeps should prefer the memoizing `Sweep` engine, which shares one
    /// tree per `(n, k)` across all workers.
    pub fn tree(self, n: u32, m: u32) -> MulticastTree {
        self.kind(n, m).build(n)
    }

    /// Display label used in figure series.
    pub fn label(self) -> String {
        match self {
            TreePolicy::Linear => "linear".into(),
            TreePolicy::Binomial => "bin".into(),
            TreePolicy::OptimalKBinomial => "kbin".into(),
            TreePolicy::FixedK(k) => format!("{k}-bin"),
        }
    }
}

/// A sampled multicast instance on one topology.
pub struct Instance {
    /// The network (owns topology + routing).
    pub net: IrregularNetwork,
    /// The arranged participant chain (source first) — the rank binding.
    pub chain: Vec<HostId>,
}

/// Samples the paper's workload: a random source and `dests` random
/// destinations on the topology generated from `(cfg, topo_idx)`, arranged
/// on the CCO ordering.
///
/// # Panics
///
/// Panics if `dests + 1` exceeds the host count.
pub fn sample_instance(cfg: &SweepConfig, topo_idx: u32, set_idx: u32, dests: u32) -> Instance {
    let net = IrregularNetwork::generate(cfg.net(), cfg.topology_seed(topo_idx));
    let ordering = cco(&net);
    let chain = sample_chain(&net, &ordering, cfg.set_seed(topo_idx, set_idx), dests);
    Instance { net, chain }
}

/// Draws `dests + 1` distinct random hosts and arranges them on `ordering`
/// (source first).
pub fn sample_chain(
    net: &IrregularNetwork,
    ordering: &Ordering,
    seed: u64,
    dests: u32,
) -> Vec<HostId> {
    use optimcast_topology::Network as _;
    let n_hosts = net.num_hosts();
    assert!(
        dests < n_hosts,
        "multicast set of {} exceeds {n_hosts} hosts",
        dests + 1
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut hosts: Vec<HostId> = (0..n_hosts).map(HostId).collect();
    hosts.shuffle(&mut rng);
    let source = hosts[0];
    let dests = &hosts[1..=dests as usize];
    ordering.arrange(source, dests)
}

/// The destination counts the paper sweeps in Figs. 12(a)/13(a).
pub const DEST_COUNTS: [u32; 4] = [15, 31, 47, 63];
/// The packet counts the paper sweeps in Figs. 12(b)/13(b).
pub const PACKET_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// The m-axis of Figs. 12(a)/13(a)/14(a): 1..32 packets.
pub const M_SWEEP: [u32; 10] = [1, 2, 4, 6, 8, 12, 16, 20, 24, 28];
/// The n-axis (multicast set size) of Figs. 12(b)/13(b)/14(b).
pub const N_SWEEP: [u32; 9] = [4, 8, 12, 16, 24, 32, 40, 48, 64];

/// Extended m-axis including the figure's right edge (m = 32).
pub fn m_axis() -> Vec<u32> {
    let mut v = M_SWEEP.to_vec();
    v.push(32);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_topology::irregular::IrregularConfig;

    #[test]
    fn sample_chain_is_deterministic_and_valid() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 1);
        let ordering = cco(&net);
        let a = sample_chain(&net, &ordering, 99, 15);
        let b = sample_chain(&net, &ordering, 99, 15);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 16, "participants must be distinct");
    }
}
