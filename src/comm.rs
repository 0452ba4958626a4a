//! An MPI-flavoured facade over the whole stack: one object owning the
//! network, its base ordering, and the system parameters, with one method
//! per collective operation.
//!
//! This is the API a runtime system built on the paper's results would
//! expose: callers think in *bytes and roots*; tree selection (Theorem 3),
//! packetization, contention-free construction, and simulation happen
//! underneath.
//!
//! ```
//! use optimcast::comm::Communicator;
//! use optimcast::prelude::*;
//!
//! let comm = Communicator::irregular(IrregularConfig::default(), 7);
//! let bcast = comm.bcast(HostId(0), 512);
//! assert!(bcast.latency_us > 0.0);
//! ```

use crate::core::params::SystemParams;
use crate::netsim::{run_multicast, MulticastOutcome, RunConfig};
use crate::topology::graph::HostId;
use crate::topology::irregular::{IrregularConfig, IrregularNetwork};
use crate::topology::ordering::{cco, Ordering};
use crate::topology::Network;
use optimcast_collectives::{
    allgather_latency_us, barrier_us, gather_schedule, reduce_latency_us, scatter, AllgatherAlgo,
    OrderPolicy,
};
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::optimal::optimal_k;
use optimcast_core::param_model::ParamModel;

/// A communication context: network + ordering + parameters + run policy.
pub struct Communicator<N: Network> {
    net: N,
    ordering: Ordering,
    params: SystemParams,
    config: RunConfig,
}

/// Outcome of an analytic (non-simulated) collective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticOutcome {
    /// End-to-end latency (µs).
    pub latency_us: f64,
    /// NI-layer steps (where the operation is step-counted; 0 otherwise).
    pub steps: u32,
}

impl Communicator<IrregularNetwork> {
    /// A communicator over a random irregular network with CCO ordering and
    /// the paper's 1997 parameters.
    pub fn irregular(cfg: IrregularConfig, seed: u64) -> Self {
        let net = IrregularNetwork::generate(cfg, seed);
        let ordering = cco(&net);
        Communicator {
            net,
            ordering,
            params: SystemParams::paper_1997(),
            config: RunConfig::default(),
        }
    }
}

impl<N: Network> Communicator<N> {
    /// Wraps an explicit network/ordering pair.
    ///
    /// # Panics
    ///
    /// Panics if the ordering does not cover the network's hosts.
    pub fn new(net: N, ordering: Ordering, params: SystemParams, config: RunConfig) -> Self {
        assert_eq!(
            ordering.len(),
            net.num_hosts() as usize,
            "ordering must cover every host"
        );
        Communicator {
            net,
            ordering,
            params,
            config,
        }
    }

    /// Number of participants.
    pub fn size(&self) -> u32 {
        self.net.num_hosts()
    }

    /// The system parameters in force.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The underlying network.
    pub fn network(&self) -> &N {
        &self.net
    }

    /// The arranged chain (source first) for a multicast set.
    fn chain(&self, root: HostId, dests: &[HostId]) -> Vec<HostId> {
        self.ordering.arrange(root, dests)
    }

    /// Simulated broadcast of `bytes` from `root` to every other host.
    pub fn bcast(&self, root: HostId, bytes: u64) -> MulticastOutcome {
        let dests: Vec<HostId> = (0..self.size())
            .map(HostId)
            .filter(|&h| h != root)
            .collect();
        self.multicast(root, &dests, bytes)
    }

    /// Simulated multicast of `bytes` from `root` to `dests`, using the
    /// Theorem-3 optimal k-binomial tree on the base ordering.
    ///
    /// # Panics
    ///
    /// Panics if `dests` repeats a host or contains `root`.
    pub fn multicast(&self, root: HostId, dests: &[HostId], bytes: u64) -> MulticastOutcome {
        let m = self.params.packets_for(bytes);
        let chain = self.chain(root, dests);
        let n = chain.len() as u32;
        let tree = kbinomial_tree(n, optimal_k(u64::from(n), m).k);
        run_multicast(&self.net, &tree, &chain, m, &self.params, self.config)
            .expect("arranged chains form valid bindings")
    }

    /// Simulated scatter: `root` sends each other host its own
    /// `bytes_per_rank` block down the chain (deepest-first injection — the
    /// scatter-optimal tree is the linear chain; see
    /// `optimcast-collectives::scatter`).
    pub fn scatter(&self, root: HostId, bytes_per_rank: u64) -> MulticastOutcome {
        let m = self.params.packets_for(bytes_per_rank);
        let dests: Vec<HostId> = (0..self.size())
            .map(HostId)
            .filter(|&h| h != root)
            .collect();
        let chain = self.chain(root, &dests);
        let n = chain.len() as u32;
        let tree = optimcast_core::builders::linear_tree(n);
        scatter::simulate_scatter(
            &self.net,
            &tree,
            &chain,
            m,
            OrderPolicy::DeepestFirst,
            &self.params,
            self.config.into(),
        )
    }

    /// Analytic gather of `bytes_per_rank` blocks to `root` (time-reversed
    /// scatter; see `optimcast-collectives::gather`).
    pub fn gather(&self, _root: HostId, bytes_per_rank: u64) -> AnalyticOutcome {
        let m = self.params.packets_for(bytes_per_rank);
        let n = self.size();
        let tree = optimcast_core::builders::linear_tree(n);
        let sched = gather_schedule(&tree, m, OrderPolicy::DeepestFirst);
        let steps = sched.total_steps();
        AnalyticOutcome {
            latency_us: self.params.t_s + f64::from(steps) * self.params.t_step() + self.params.t_r,
            steps,
        }
    }

    /// Analytic reduce of `bytes` with per-packet combine cost `gamma` (µs).
    pub fn reduce(&self, bytes: u64, gamma: f64) -> AnalyticOutcome {
        let m = self.params.packets_for(bytes);
        let n = self.size();
        let k = optimcast_collectives::optimal_reduce_k(n, m, gamma).k;
        AnalyticOutcome {
            latency_us: reduce_latency_us(n, m, k, gamma, &self.params),
            steps: optimcast_collectives::reduce_plan(n, m, k, gamma).steps,
        }
    }

    /// Analytic all-gather of `bytes_per_rank` blocks; picks the better of
    /// ring and recursive doubling (the latter only for power-of-two sizes).
    pub fn allgather(&self, bytes_per_rank: u64) -> AnalyticOutcome {
        let m = self.params.packets_for(bytes_per_rank);
        let n = self.size();
        let model = ParamModel::step_model(&self.params);
        let ring = allgather_latency_us(AllgatherAlgo::Ring, n, m, &model, &self.params);
        let best = if n.is_power_of_two() {
            ring.min(allgather_latency_us(
                AllgatherAlgo::RecursiveDoubling,
                n,
                m,
                &model,
                &self.params,
            ))
        } else {
            ring
        };
        AnalyticOutcome {
            latency_us: best,
            steps: 0,
        }
    }

    /// Analytic dissemination barrier.
    pub fn barrier(&self) -> AnalyticOutcome {
        AnalyticOutcome {
            latency_us: barrier_us(self.size(), &self.params),
            steps: optimcast_collectives::barrier_rounds(self.size()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm() -> Communicator<IrregularNetwork> {
        Communicator::irregular(IrregularConfig::default(), 3)
    }

    #[test]
    fn bcast_reaches_everyone() {
        let c = comm();
        let out = c.bcast(HostId(0), 512);
        assert_eq!(out.host_done_us.len(), 64);
        assert!(out.host_done_us[1..].iter().all(|&t| t > 0.0));
    }

    #[test]
    fn multicast_subset() {
        let c = comm();
        let dests: Vec<HostId> = (10..20).map(HostId).collect();
        let out = c.multicast(HostId(5), &dests, 256);
        assert_eq!(out.host_done_us.len(), 11);
        assert!(out.latency_us > 0.0);
    }

    #[test]
    fn scatter_and_gather_mirror() {
        let c = comm();
        let s = c.scatter(HostId(0), 128);
        let g = c.gather(HostId(0), 128);
        // Scatter is simulated (contention possible); gather analytic —
        // scatter can only be slower or equal.
        assert!(s.latency_us >= g.latency_us - 1e-9);
        assert!(g.steps >= 2 * 63, "sink bound");
    }

    #[test]
    fn reduce_and_barrier_reasonable() {
        let c = comm();
        let r = c.reduce(512, 0.5);
        assert!(r.latency_us > 0.0 && r.steps > 0);
        let b = c.barrier();
        assert_eq!(b.steps, 6);
        assert!((b.latency_us - 55.0).abs() < 1e-9);
    }

    #[test]
    fn allgather_picks_a_winner() {
        let c = comm();
        let a = c.allgather(64);
        // 64 hosts, 1 packet per block: (n-1)*m steps * t_step + overheads.
        assert!((a.latency_us - (12.5 + 63.0 * 5.0 + 12.5)).abs() < 1e-9);
    }

    #[test]
    fn sizes_and_params() {
        let c = comm();
        assert_eq!(c.size(), 64);
        assert_eq!(c.params().packet_bytes, 64);
    }

    #[test]
    #[should_panic(expected = "duplicate participant")]
    fn multicast_rejects_root_in_dests() {
        let c = comm();
        c.multicast(HostId(1), &[HostId(1)], 64);
    }
}
