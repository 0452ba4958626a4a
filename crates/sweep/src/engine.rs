//! The deterministic parallel sweep engine.
//!
//! The unit of parallel work is a **cell**: one `(point, topology)` pair,
//! where a point is a `(policy, dests, m)` sweep coordinate. Each cell
//! evaluates its point's `dest_sets` samples *sequentially* on its topology
//! (the same floating-point order the historic serial runner used), and the
//! reduction sums per-topology means in topology-index order — so the
//! result is bit-identical for every worker count, pinned by golden tests
//! against the committed `results/*.json`.
//!
//! Workers pull cells from a shared atomic counter (self-scheduling chunk
//! queue); the calling thread puts their results back in index order and
//! folds each point as soon as its last topology arrives, so only wall time
//! depends on the thread count.
//!
//! [`Sweep::grid`] fans out only the points this sweep has not simulated
//! yet; the rest come from the point memo (`crate::memo`), so each distinct
//! point is simulated once per sweep.

use crate::config::SweepConfig;
use crate::error::SweepError;
use crate::memo::{tree_k, CacheStats, PointKey, Recall, SweepCache, TopologyEntry};
use crate::sampling::TreePolicy;
use optimcast_core::tree::MulticastTree;
use optimcast_netsim::{MulticastJob, RunConfig, SimArena, SimRun, WorkloadOutcome};
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc};

/// Aggregate simulator effort across every cell a [`Sweep`] has evaluated.
///
/// Sums and maxima are order-insensitive, so these totals are identical for
/// every worker count — safe to surface in deterministic report metadata.
/// Only simulations count: a grid point served from the point memo adds no
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimEffort {
    /// Total discrete events processed across all runs.
    pub events_processed: u64,
    /// Largest event-queue population seen by any single run.
    pub peak_queue_len: usize,
}

/// One sweep coordinate: a tree policy evaluated at `(dests, m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// Tree policy under test.
    pub policy: TreePolicy,
    /// Destination count (participants = `dests + 1`).
    pub dests: u32,
    /// Packets in the message.
    pub m: u32,
    /// Simulator configuration (NI, contention, timing).
    pub run: RunConfig,
}

impl PointSpec {
    /// A point under the paper's default run configuration (smart FPFS NI,
    /// wormhole contention, handshake timing).
    pub fn new(policy: TreePolicy, dests: u32, m: u32) -> Self {
        PointSpec {
            policy,
            dests,
            m,
            run: RunConfig::default(),
        }
    }
}

/// The sweep engine: a validated configuration plus the memoization layer,
/// built by [`crate::SweepBuilder::build`].
#[derive(Debug)]
pub struct Sweep {
    cfg: SweepConfig,
    cache: SweepCache,
    events: AtomicU64,
    peak_queue: AtomicUsize,
}

impl Sweep {
    /// Wraps an already-validated configuration (only [`SweepConfig`]s from
    /// the builder exist, so no re-validation is needed).
    pub fn from_config(cfg: SweepConfig) -> Self {
        Sweep {
            cfg,
            cache: SweepCache::default(),
            events: AtomicU64::new(0),
            peak_queue: AtomicUsize::new(0),
        }
    }

    /// The validated configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Hit/miss counters of the memoization layer so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregate simulator effort (event totals, queue high-water mark)
    /// across every run this engine has evaluated so far.
    pub fn sim_effort(&self) -> SimEffort {
        SimEffort {
            events_processed: self.events.load(AtomicOrdering::Relaxed),
            peak_queue_len: self.peak_queue.load(AtomicOrdering::Relaxed),
        }
    }

    /// Folds one run's effort into the engine-wide totals (sum + max, so
    /// the result is identical for every worker count).
    pub(crate) fn record_effort(&self, events: u64, peak_queue_len: usize) {
        self.events.fetch_add(events, AtomicOrdering::Relaxed);
        self.peak_queue
            .fetch_max(peak_queue_len, AtomicOrdering::Relaxed);
    }

    /// The memoized `(network, ordering)` of topology index `t`.
    pub fn topology(&self, t: u32) -> Arc<TopologyEntry> {
        self.cache.topology(&self.cfg, t)
    }

    /// The memoized tree of `policy` at `(n, m)`; repeated lookups of the
    /// same resolved `(n, k)` return the same allocation.
    pub fn tree(&self, policy: TreePolicy, n: u32, m: u32) -> Arc<MulticastTree> {
        self.cache.tree(n, tree_k(policy, n, m))
    }

    /// Evaluates a grid of sweep points, fanning `points × topologies`
    /// cells out across the configured workers. Returns the §5.2 averaged
    /// latency (µs) per point, in input order — bit-identical for every
    /// thread count.
    ///
    /// Each point is simulated once per sweep: a point whose
    /// `(dests, resolved k, m, run)` key an earlier grid (or an earlier
    /// spec of this one) already evaluated reuses that mean, which is the
    /// same f64 this fold would produce again.
    ///
    /// # Errors
    ///
    /// [`SweepError::TooManyDests`] or [`SweepError::ZeroPackets`] if a
    /// point cannot be sampled on the configured network.
    pub fn grid(&self, specs: &[PointSpec]) -> Result<Vec<f64>, SweepError> {
        for spec in specs {
            self.check_point(spec.m, spec.dests, &[])?;
        }
        let keys: Vec<PointKey> = specs.iter().map(point_key).collect();
        let (recalls, missing) = self.cache.recall_points(&keys);
        let topologies = f64::from(self.cfg.topologies());
        let fresh: Vec<f64> = self
            .fold_cells(missing.len(), |cell, t| {
                self.topology_mean(keys[missing[cell]], t)
            })
            .into_iter()
            .map(|sum| sum / topologies)
            .collect();
        self.cache
            .store_points(missing.iter().map(|&i| keys[i]).zip(fresh.iter().copied()));
        Ok(recalls
            .into_iter()
            .map(|recall| match recall {
                Recall::Known(mean) => mean,
                Recall::Missing(j) => fresh[j],
            })
            .collect())
    }

    /// Average simulated multicast latency (µs) of one point, following the
    /// §5.2 averaging methodology.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::grid`].
    pub fn avg_latency(
        &self,
        policy: TreePolicy,
        dests: u32,
        m: u32,
        run: RunConfig,
    ) -> Result<f64, SweepError> {
        Ok(self.grid(&[PointSpec {
            policy,
            dests,
            m,
            run,
        }])?[0])
    }

    /// Sanity bound used by tests and `optimcast figures`: the largest
    /// improvement factor of the optimal k-binomial tree over the binomial
    /// tree across an m sweep at `dests` destinations.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::grid`].
    pub fn improvement_factor(&self, dests: u32) -> Result<f64, SweepError> {
        let mut specs = Vec::new();
        for m in crate::sampling::m_axis() {
            specs.push(PointSpec::new(TreePolicy::Binomial, dests, m));
            specs.push(PointSpec::new(TreePolicy::OptimalKBinomial, dests, m));
        }
        let means = self.grid(&specs)?;
        Ok(means
            .chunks_exact(2)
            .map(|pair| pair[0] / pair[1])
            .fold(0.0, f64::max))
    }

    /// The §5.2 inner loop of one cell: point `key`'s `dest_sets` samples
    /// on topology `t`, evaluated sequentially, returning their mean. This
    /// is the exact floating-point order of the historic serial runner.
    ///
    /// The chain, tree, and interned CSR route table all come from the memo
    /// layer — a figure series revisits the same `(t, s)` sample for every
    /// packet-count point, so only the first point of a series pays for
    /// sampling and routing.
    fn topology_mean(&self, (dests, k, m, run): PointKey, t: u32) -> f64 {
        let topo = self.cache.topology(&self.cfg, t);
        // One simulator arena and one outcome serve the point's runs on
        // this topology.
        let mut arena = SimArena::new();
        let mut wl = WorkloadOutcome::default();
        let sum: f64 = (0..self.cfg.dest_sets())
            .map(|s| {
                let chain = self.cache.chain(&self.cfg, &topo, t, s, dests);
                let tree = self.cache.tree(dests + 1, k);
                let routes = self
                    .cache
                    .routes(&self.cfg, &topo, t, s, dests, k, &tree, &chain);
                let job = MulticastJob {
                    nic: run.nic,
                    ..MulticastJob::fpfs(tree, chain.to_vec(), m)
                };
                SimRun::new(
                    &topo.net,
                    std::slice::from_ref(&job),
                    self.cfg.params(),
                    run.into(),
                )
                .routes(std::slice::from_ref(&routes))
                .run_into(&mut arena, &mut wl)
                .expect("sampled chains form valid bindings");
                self.record_effort(wl.events, wl.counters.peak_queue_len);
                wl.jobs[0].latency_us
            })
            .sum();
        sum / f64::from(self.cfg.dest_sets())
    }

    /// The checks every sampled grid shares, in this order: a message
    /// carries at least one packet, the network seats `dests + 1`
    /// participants, and every swept drop rate lies in `[0, 1)`.
    pub(crate) fn check_point(
        &self,
        m: u32,
        dests: u32,
        drop_rates: &[f64],
    ) -> Result<(), SweepError> {
        if m == 0 {
            return Err(SweepError::ZeroPackets);
        }
        let hosts = self.cfg.net().hosts;
        if dests >= hosts {
            return Err(SweepError::TooManyDests { dests, hosts });
        }
        if drop_rates.iter().any(|d| !(0.0..1.0).contains(d)) {
            return Err(SweepError::InvalidFaultSpec("drop_rate must lie in [0, 1)"));
        }
        Ok(())
    }

    /// The §5.2 reduction of every sweep grid: evaluates `cells ×
    /// topologies` work items on the worker pool, `per_topology(cell, t)`
    /// each, and folds every cell's per-topology aggregates with `+=`,
    /// starting from `A::default()`, in topology-index order. The fold
    /// order is fixed, so each cell's floating-point sums are identical
    /// for every worker count.
    pub(crate) fn fold_cells<A: Default + AddAssign + Send>(
        &self,
        cells: usize,
        per_topology: impl Fn(usize, u32) -> A + Sync,
    ) -> Vec<A> {
        let topologies = self.cfg.topologies() as usize;
        let mut folded = Vec::with_capacity(cells);
        let mut cell = A::default();
        self.run_cells(
            cells * topologies,
            |i| per_topology(i / topologies, (i % topologies) as u32),
            |i, part| {
                cell += part;
                if i % topologies == topologies - 1 {
                    folded.push(std::mem::take(&mut cell));
                }
            },
        );
        folded
    }

    /// Evaluates `f(0..n)` on the worker pool and hands each result to
    /// `sink(i, value)` in index order. Workers self-schedule off a shared
    /// atomic counter; the calling thread puts their results back in index
    /// order, so `sink` (and every reduction it performs) sees the same
    /// sequence for every worker count. Only results that finish ahead of
    /// an earlier index are held back, not all `n`.
    fn run_cells<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
        mut sink: impl FnMut(usize, T),
    ) {
        let workers = self.cfg.threads().min(n);
        if workers <= 1 {
            (0..n).for_each(|i| sink(i, f(i)));
            return;
        }
        let next = AtomicUsize::new(0);
        let (done, results) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (done, next, f) = (done.clone(), &next, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                    if i >= n || done.send((i, f(i))).is_err() {
                        break;
                    }
                });
            }
            drop(done);
            let mut early = BTreeMap::new();
            let mut due = 0;
            for (i, value) in results {
                early.insert(i, value);
                while let Some(value) = early.remove(&due) {
                    sink(due, value);
                    due += 1;
                }
            }
        });
    }
}

/// The point memo's key of `spec`: the tree policy resolved to its child
/// cap over the `dests + 1` participants.
fn point_key(spec: &PointSpec) -> PointKey {
    let k = tree_k(spec.policy, spec.dests + 1, spec.m);
    (spec.dests, k, spec.m, spec.run)
}

/// Decodes row-major cell index `cell` over axes of lengths `dims` (the
/// last axis varies fastest) into one index per axis.
pub(crate) fn unravel<const N: usize>(mut cell: usize, dims: [usize; N]) -> [usize; N] {
    let mut index = [0; N];
    for (axis, &len) in dims.iter().enumerate().rev() {
        index[axis] = cell % len;
        cell /= len;
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    fn quick(threads: usize) -> Sweep {
        SweepBuilder::quick().parallelism(threads).build().unwrap()
    }

    #[test]
    fn run_cells_preserves_order() {
        for threads in [1, 2, 8] {
            let sweep = quick(threads);
            let mut v = Vec::new();
            sweep.run_cells(9, |i| i * 10, |i, value| v.push((i, value)));
            assert_eq!(v, (0..9).map(|i| (i, i * 10)).collect::<Vec<_>>());
        }
    }

    /// Records the order its parts were folded in.
    #[derive(Default, Debug, PartialEq)]
    struct Visits(Vec<(usize, u32)>);

    impl AddAssign for Visits {
        fn add_assign(&mut self, rhs: Visits) {
            self.0.extend(rhs.0);
        }
    }

    #[test]
    fn fold_cells_folds_each_cell_in_topology_order() {
        for threads in [1, 2, 8] {
            let sweep = quick(threads);
            let cells = sweep.fold_cells(3, |cell, t| Visits(vec![(cell, t)]));
            let expected: Vec<Visits> = (0..3)
                .map(|cell| Visits(vec![(cell, 0), (cell, 1)]))
                .collect();
            assert_eq!(cells, expected, "threads={threads}");
        }
    }

    #[test]
    fn unravel_is_row_major() {
        let dims = [2, 3, 4];
        for cell in 0..24 {
            let [a, b, c] = unravel(cell, dims);
            assert_eq!((a * 3 + b) * 4 + c, cell);
        }
        assert_eq!(unravel(23, dims), [1, 2, 3]);
        assert_eq!(unravel(5, [7]), [5]);
    }

    #[test]
    fn avg_latency_thread_count_invariant() {
        let serial = quick(1)
            .avg_latency(TreePolicy::Binomial, 15, 2, RunConfig::default())
            .unwrap();
        for threads in [2, 8] {
            let parallel = quick(threads)
                .avg_latency(TreePolicy::Binomial, 15, 2, RunConfig::default())
                .unwrap();
            assert_eq!(
                serial.to_bits(),
                parallel.to_bits(),
                "threads={threads} drifted"
            );
        }
    }

    #[test]
    fn grid_rejects_invalid_points() {
        let sweep = quick(1);
        assert_eq!(
            sweep.grid(&[PointSpec::new(TreePolicy::Binomial, 64, 2)]),
            Err(SweepError::TooManyDests {
                dests: 64,
                hosts: 64
            })
        );
        assert_eq!(
            sweep.grid(&[PointSpec::new(TreePolicy::Binomial, 15, 0)]),
            Err(SweepError::ZeroPackets)
        );
    }
}
