//! Memoization of the expensive per-cell inputs.
//!
//! A figure-scale sweep re-visits the same random topology for every data
//! point and the same `(n, k)` tree for every destination set. Both are
//! immutable once built, so the engine shares them behind [`Arc`]s:
//!
//! * **Topology entries** — the generated [`IrregularNetwork`] (with its
//!   up\*/down\* routing tables) plus its CCO [`Ordering`], keyed by the
//!   topology seed. One generation per topology per sweep instead of one
//!   per `(point, topology)` cell.
//! * **Trees** — the [`MulticastTree`] arena keyed by `(shape, n, k)`.
//!   One construction per distinct tree instead of one per destination set;
//!   the `Arc` becomes the job's `MulticastJob::tree`, so the simulator
//!   runs it without cloning the arena.

use crate::config::SweepConfig;
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};
use optimcast_core::optimal::optimal_k;
use optimcast_core::tree::MulticastTree;
use optimcast_netsim::JobRoutes;
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::IrregularNetwork;
use optimcast_topology::ordering::{cco, Ordering};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// A memoized topology: the generated network and its CCO ordering.
#[derive(Debug)]
pub struct TopologyEntry {
    /// The network (owns topology + routing tables).
    pub net: IrregularNetwork,
    /// The contention-minimising CCO host ordering.
    pub ordering: Ordering,
}

/// Canonical cache key of a tree: policy resolved to its concrete shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TreeShape {
    Linear,
    Binomial,
    KBinomial(u32),
}

/// Hit/miss counters of a `SweepCache`.
///
/// `hits`/`misses` aggregate the topology, tree, and chain caches;
/// `route_hits`/`route_misses` count the interned CSR route tables
/// separately (surfaced per the bench/chaos meta contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the topology/tree/chain caches.
    pub hits: u64,
    /// Topology/tree/chain lookups that had to build the entry.
    pub misses: u64,
    /// Route-table lookups served from the cache.
    pub route_hits: u64,
    /// Route-table lookups that had to build the CSR table.
    pub route_misses: u64,
}

impl CacheStats {
    /// Fraction of topology/tree/chain lookups served from the cache (0
    /// when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of route-table lookups served from the cache (0 when idle).
    pub fn route_hit_rate(&self) -> f64 {
        let total = self.route_hits + self.route_misses;
        if total == 0 {
            0.0
        } else {
            self.route_hits as f64 / total as f64
        }
    }
}

/// Thread-safe memoization of topologies, trees, sampled chains, and
/// interned CSR route tables for one sweep.
/// Cache key for a sampled destination chain: `(topology seed, set seed,
/// dests)`.
type ChainKey = (u64, u64, u32);
/// Cache key for an interned route table: a [`ChainKey`] plus the tree
/// shape the routes were built for.
type RouteKey = (u64, u64, u32, TreeShape);

#[derive(Debug, Default)]
pub(crate) struct SweepCache {
    topologies: Mutex<HashMap<u64, Arc<TopologyEntry>>>,
    trees: Mutex<HashMap<(TreeShape, u32), Arc<MulticastTree>>>,
    /// Sampled destination chains keyed by `(topology seed, set seed,
    /// dests)` — every figure series revisits the same `(t, s)` sample for
    /// each of its packet-count points.
    chains: Mutex<HashMap<ChainKey, Arc<Vec<HostId>>>>,
    /// Interned route tables keyed by `(topology seed, set seed, dests,
    /// tree shape)` — the same `(topology, chain, tree)` triple recurs for
    /// every packet-count point of a series.
    routes: Mutex<HashMap<RouteKey, Arc<JobRoutes>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
}

/// Resolves a policy at `(n, m)` to its canonical cache shape.
fn shape_of(policy: TreePolicy, n: u32, m: u32) -> TreeShape {
    match policy {
        TreePolicy::Linear => TreeShape::Linear,
        TreePolicy::Binomial => TreeShape::Binomial,
        TreePolicy::OptimalKBinomial => TreeShape::KBinomial(optimal_k(u64::from(n), m).k),
        TreePolicy::FixedK(k) => TreeShape::KBinomial(k),
    }
}

impl SweepCache {
    /// The memoized `(network, CCO ordering)` of topology index `t`.
    pub fn topology(&self, cfg: &SweepConfig, t: u32) -> Arc<TopologyEntry> {
        let seed = cfg.topology_seed(t);
        let mut map = self.topologies.lock().expect("topology cache poisoned");
        if let Some(entry) = map.get(&seed) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Arc::clone(entry);
        }
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let net = IrregularNetwork::generate(cfg.net(), seed);
        let ordering = cco(&net);
        let entry = Arc::new(TopologyEntry { net, ordering });
        map.insert(seed, Arc::clone(&entry));
        entry
    }

    /// The memoized tree of `policy` for `n` participants and `m` packets.
    /// Repeated lookups of the same resolved `(shape, n, k)` return the
    /// *same* allocation (`Arc::ptr_eq`).
    pub fn tree(&self, policy: TreePolicy, n: u32, m: u32) -> Arc<MulticastTree> {
        let shape = shape_of(policy, n, m);
        let mut map = self.trees.lock().expect("tree cache poisoned");
        if let Some(tree) = map.get(&(shape, n)) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Arc::clone(tree);
        }
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let tree = Arc::new(match shape {
            TreeShape::Linear => linear_tree(n),
            TreeShape::Binomial => binomial_tree(n),
            TreeShape::KBinomial(k) => kbinomial_tree(n, k),
        });
        map.insert((shape, n), Arc::clone(&tree));
        tree
    }

    /// The memoized destination chain of sample `(t, s)` at `dests`
    /// destinations: source followed by the CCO-arranged destination hosts,
    /// exactly as [`sample_chain`] produces it.
    pub fn chain(
        &self,
        cfg: &SweepConfig,
        topo: &TopologyEntry,
        t: u32,
        s: u32,
        dests: u32,
    ) -> Arc<Vec<HostId>> {
        let key = (cfg.topology_seed(t), cfg.set_seed(t, s), dests);
        let mut map = self.chains.lock().expect("chain cache poisoned");
        if let Some(chain) = map.get(&key) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Arc::clone(chain);
        }
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let chain = Arc::new(sample_chain(
            &topo.net,
            &topo.ordering,
            cfg.set_seed(t, s),
            dests,
        ));
        map.insert(key, Arc::clone(&chain));
        chain
    }

    /// The memoized CSR route table of `tree` bound to sample `(t, s)`'s
    /// chain on topology `t` — identical to
    /// `JobRoutes::build(&topo.net, tree, chain)`, built once per
    /// `(topology, chain, tree shape)` triple.
    #[allow(clippy::too_many_arguments)]
    pub fn routes(
        &self,
        cfg: &SweepConfig,
        topo: &TopologyEntry,
        t: u32,
        s: u32,
        dests: u32,
        policy: TreePolicy,
        m: u32,
        tree: &MulticastTree,
        chain: &[HostId],
    ) -> Arc<JobRoutes> {
        let shape = shape_of(policy, chain.len() as u32, m);
        let key = (cfg.topology_seed(t), cfg.set_seed(t, s), dests, shape);
        let mut map = self.routes.lock().expect("route cache poisoned");
        if let Some(routes) = map.get(&key) {
            self.route_hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Arc::clone(routes);
        }
        self.route_misses.fetch_add(1, AtomicOrdering::Relaxed);
        let routes = Arc::new(JobRoutes::build(&topo.net, tree, chain));
        map.insert(key, Arc::clone(&routes));
        routes
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            route_hits: self.route_hits.load(AtomicOrdering::Relaxed),
            route_misses: self.route_misses.load(AtomicOrdering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    #[test]
    fn repeated_tree_keys_are_pointer_equal() {
        let cache = SweepCache::default();
        let a = cache.tree(TreePolicy::FixedK(2), 16, 4);
        let b = cache.tree(TreePolicy::FixedK(2), 16, 4);
        assert!(Arc::ptr_eq(&a, &b), "repeated (n, k) must share one arena");
        // OptimalKBinomial resolving to the same k shares the allocation too.
        let k = optimal_k(16, 4).k;
        let c = cache.tree(TreePolicy::OptimalKBinomial, 16, 4);
        let d = cache.tree(TreePolicy::FixedK(k), 16, 4);
        assert!(Arc::ptr_eq(&c, &d));
        // Distinct keys do not.
        let e = cache.tree(TreePolicy::FixedK(3), 16, 4);
        assert!(!Arc::ptr_eq(&a, &e));
        let f = cache.tree(TreePolicy::Linear, 16, 4);
        assert!(!Arc::ptr_eq(&a, &f));
    }

    #[test]
    fn topology_entries_are_shared_and_counted() {
        let cfg = SweepBuilder::quick().config().unwrap();
        let cache = SweepCache::default();
        let a = cache.topology(&cfg, 0);
        let b = cache.topology(&cfg, 0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.topology(&cfg, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn chains_and_routes_are_shared_and_counted() {
        let cfg = SweepBuilder::quick().config().unwrap();
        let cache = SweepCache::default();
        let topo = cache.topology(&cfg, 0);
        // Chain cache: same (t, s, dests) shares one allocation and matches
        // direct sampling.
        let a = cache.chain(&cfg, &topo, 0, 0, 15);
        let b = cache.chain(&cfg, &topo, 0, 0, 15);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            *a,
            sample_chain(&topo.net, &topo.ordering, cfg.set_seed(0, 0), 15)
        );
        assert!(!Arc::ptr_eq(&a, &cache.chain(&cfg, &topo, 0, 1, 15)));
        // Route cache: same (t, s, dests, shape) shares one table and
        // matches direct construction; different shapes do not.
        let tree = cache.tree(TreePolicy::Binomial, a.len() as u32, 4);
        let r1 = cache.routes(&cfg, &topo, 0, 0, 15, TreePolicy::Binomial, 4, &tree, &a);
        let r2 = cache.routes(&cfg, &topo, 0, 0, 15, TreePolicy::Binomial, 4, &tree, &a);
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(*r1, JobRoutes::build(&topo.net, &tree, &a));
        let lin = cache.tree(TreePolicy::Linear, a.len() as u32, 4);
        let r3 = cache.routes(&cfg, &topo, 0, 0, 15, TreePolicy::Linear, 4, &lin, &a);
        assert!(!Arc::ptr_eq(&r1, &r3));
        let stats = cache.stats();
        assert_eq!((stats.route_hits, stats.route_misses), (1, 2));
        assert!((stats.route_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cached_trees_match_direct_construction() {
        let cache = SweepCache::default();
        for (policy, n, m) in [
            (TreePolicy::Linear, 7u32, 3u32),
            (TreePolicy::Binomial, 16, 1),
            (TreePolicy::OptimalKBinomial, 48, 8),
            (TreePolicy::FixedK(3), 20, 2),
        ] {
            assert_eq!(*cache.tree(policy, n, m), policy.tree(n, m));
        }
    }
}
