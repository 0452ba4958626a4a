//! Memoization of the expensive per-cell inputs and of whole figure points.
//!
//! A figure-scale sweep re-visits the same random topology for every data
//! point, the same tree for every destination set, and, across figures, the
//! same points: Fig. 14 plots Fig. 13's k-binomial series again. Everything
//! here is immutable once built, so the engine shares it for the whole
//! sweep:
//!
//! * **Topology entries** — the generated [`IrregularNetwork`] (with its
//!   up\*/down\* routing tables) plus its CCO [`Ordering`], keyed by the
//!   topology seed. One generation per topology per sweep instead of one
//!   per `(point, topology)` cell.
//! * **Trees** — the [`MulticastTree`] arena keyed by `(n, k)`, where `k` is
//!   the policy's resolved child cap ([`tree_k`]). `Linear` is `k = 1`, and
//!   `Binomial` is any `k ≥ ⌈log₂ n⌉`, so every policy that builds the same
//!   tree shares one arena. The `Arc` becomes the job's
//!   `MulticastJob::tree`, so the simulator runs it without cloning.
//! * **Chains and routes** — the sampled destination chain of each
//!   `(topology, set, dests)` and the interned CSR route table of each
//!   `(topology, set, dests, k)`.
//! * **Points** — the §5.2 mean of each `(dests, k, m, RunConfig)` point.
//!   The topology set and destination sets are fixed for the whole sweep,
//!   so they are not part of the key; [`crate::Sweep::grid`] simulates only
//!   the distinct points it has not seen.
//!
//! Every entry is fully built before it is inserted, and no lock is held
//! while a simulation runs.

use crate::config::SweepConfig;
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::coverage::ceil_log2;
use optimcast_core::tree::MulticastTree;
use optimcast_netsim::{JobRoutes, RunConfig};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::IrregularNetwork;
use optimcast_topology::ordering::{cco, Ordering};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A memoized topology: the generated network and its CCO ordering.
#[derive(Debug)]
pub struct TopologyEntry {
    /// The network (owns topology + routing tables).
    pub net: IrregularNetwork,
    /// The contention-minimising CCO host ordering.
    pub ordering: Ordering,
}

/// Hit/miss counters of a `SweepCache`.
///
/// `hits`/`misses` aggregate the topology, tree, and chain caches;
/// `route_hits`/`route_misses` count the interned CSR route tables and
/// `point_hits`/`point_misses` the memoized figure points, each separately.
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
    /// Grid points served without a simulation: memoized by an earlier
    /// grid, or repeating a point earlier in the same grid.
    pub point_hits: u64,
    /// Distinct grid points that had to be simulated.
    pub point_misses: u64,
}

impl CacheStats {
    /// Fraction of topology/tree/chain lookups served from the cache (0
    /// when idle).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.misses)
    }

    /// Fraction of route-table lookups served from the cache (0 when idle).
    pub fn route_hit_rate(&self) -> f64 {
        ratio(self.route_hits, self.route_misses)
    }
}

/// `hits / (hits + misses)`, or 0 when idle.
fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Cache key for a sampled destination chain: `(topology seed, set seed,
/// dests)`.
type ChainKey = (u64, u64, u32);
/// Cache key for an interned route table: a [`ChainKey`] plus the tree's
/// resolved `k`.
type RouteKey = (u64, u64, u32, u32);
/// Cache key for a figure point: `(dests, resolved k, m, run config)`.
pub(crate) type PointKey = (u32, u32, u32, RunConfig);

/// Where [`SweepCache::recall_points`] found a point's mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Recall {
    /// Memoized by an earlier grid.
    Known(f64),
    /// Not memoized: the index of its key among the distinct missing keys.
    Missing(usize),
}

/// Thread-safe memoization of topologies, trees, sampled chains, interned
/// CSR route tables, and figure points for one sweep.
#[derive(Debug, Default)]
pub(crate) struct SweepCache {
    topologies: Mutex<HashMap<u64, Arc<TopologyEntry>>>,
    trees: Mutex<HashMap<(u32, u32), Arc<MulticastTree>>>,
    /// Sampled destination chains keyed by `(topology seed, set seed,
    /// dests)` — every figure series revisits the same `(t, s)` sample for
    /// each of its packet-count points.
    chains: Mutex<HashMap<ChainKey, Arc<Vec<HostId>>>>,
    /// Interned route tables keyed by `(topology seed, set seed, dests, k)`
    /// — the same `(topology, chain, tree)` triple recurs for every
    /// packet-count point of a series.
    routes: Mutex<HashMap<RouteKey, Arc<JobRoutes>>>,
    /// §5.2 means keyed by [`PointKey`].
    points: Mutex<HashMap<PointKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    point_hits: AtomicU64,
    point_misses: AtomicU64,
}

/// The child cap `k` of `policy`'s tree over `n` participants for `m`
/// packets, clamped to `⌈log₂ n⌉` (at least 1): every `k` from there up
/// builds the binomial tree, so one key names each distinct tree.
pub(crate) fn tree_k(policy: TreePolicy, n: u32, m: u32) -> u32 {
    policy
        .kind(n, m)
        .k_for(n)
        .min(ceil_log2(u64::from(n)).max(1))
}

/// Locks one memo map. A panic while the lock was held (a failed build)
/// poisons the mutex but cannot leave a half-built entry behind, because
/// every entry is fully built before it is inserted; so the map is used as
/// it stands.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts one lookup as a hit or a miss.
fn count(found: bool, hits: &AtomicU64, misses: &AtomicU64) {
    let counter = if found { hits } else { misses };
    counter.fetch_add(1, AtomicOrdering::Relaxed);
}

impl SweepCache {
    /// The memoized `(network, CCO ordering)` of topology index `t`.
    pub(crate) fn topology(&self, cfg: &SweepConfig, t: u32) -> Arc<TopologyEntry> {
        let seed = cfg.topology_seed(t);
        let mut map = lock(&self.topologies);
        count(map.contains_key(&seed), &self.hits, &self.misses);
        let entry = map.entry(seed).or_insert_with(|| {
            let net = IrregularNetwork::generate(cfg.net(), seed);
            let ordering = cco(&net);
            Arc::new(TopologyEntry { net, ordering })
        });
        Arc::clone(entry)
    }

    /// The memoized tree over `n` participants with resolved child cap `k`
    /// (see [`tree_k`]). Repeated lookups of the same `(n, k)` return the
    /// *same* allocation (`Arc::ptr_eq`).
    pub(crate) fn tree(&self, n: u32, k: u32) -> Arc<MulticastTree> {
        let mut map = lock(&self.trees);
        count(map.contains_key(&(n, k)), &self.hits, &self.misses);
        Arc::clone(
            map.entry((n, k))
                .or_insert_with(|| Arc::new(kbinomial_tree(n, k))),
        )
    }

    /// The memoized destination chain of sample `(t, s)` at `dests`
    /// destinations: source followed by the CCO-arranged destination hosts,
    /// exactly as [`sample_chain`] produces it.
    pub(crate) fn chain(
        &self,
        cfg: &SweepConfig,
        topo: &TopologyEntry,
        t: u32,
        s: u32,
        dests: u32,
    ) -> Arc<Vec<HostId>> {
        let key = (cfg.topology_seed(t), cfg.set_seed(t, s), dests);
        let mut map = lock(&self.chains);
        count(map.contains_key(&key), &self.hits, &self.misses);
        Arc::clone(map.entry(key).or_insert_with(|| {
            Arc::new(sample_chain(
                &topo.net,
                &topo.ordering,
                cfg.set_seed(t, s),
                dests,
            ))
        }))
    }

    /// The memoized CSR route table of `tree` (resolved child cap `k`)
    /// bound to sample `(t, s)`'s chain on topology `t` — identical to
    /// `JobRoutes::build(&topo.net, tree, chain)`, built once per
    /// `(topology, chain, k)` triple.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn routes(
        &self,
        cfg: &SweepConfig,
        topo: &TopologyEntry,
        t: u32,
        s: u32,
        dests: u32,
        k: u32,
        tree: &MulticastTree,
        chain: &[HostId],
    ) -> Arc<JobRoutes> {
        let key = (cfg.topology_seed(t), cfg.set_seed(t, s), dests, k);
        let mut map = lock(&self.routes);
        count(map.contains_key(&key), &self.route_hits, &self.route_misses);
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(JobRoutes::build(&topo.net, tree, chain))),
        )
    }

    /// Looks every point of a grid up: a memoized mean, or the index of its
    /// key among the distinct keys not memoized yet. Returns the recalls in
    /// input order and, for each distinct missing key, the index of its first
    /// occurrence in `keys`. Only those first occurrences count as misses.
    pub(crate) fn recall_points(&self, keys: &[PointKey]) -> (Vec<Recall>, Vec<usize>) {
        let map = lock(&self.points);
        let mut first: HashMap<PointKey, usize> = HashMap::new();
        let mut missing = Vec::new();
        let recalls = keys
            .iter()
            .enumerate()
            .map(|(i, key)| match map.get(key) {
                Some(&mean) => Recall::Known(mean),
                None => Recall::Missing(*first.entry(*key).or_insert_with(|| {
                    missing.push(i);
                    missing.len() - 1
                })),
            })
            .collect();
        let misses = missing.len() as u64;
        self.point_misses.fetch_add(misses, AtomicOrdering::Relaxed);
        self.point_hits
            .fetch_add(keys.len() as u64 - misses, AtomicOrdering::Relaxed);
        (recalls, missing)
    }

    /// Memoizes freshly simulated point means.
    pub(crate) fn store_points(&self, points: impl IntoIterator<Item = (PointKey, f64)>) {
        lock(&self.points).extend(points);
    }

    /// Snapshot of the hit/miss counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(AtomicOrdering::Relaxed);
        CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            route_hits: load(&self.route_hits),
            route_misses: load(&self.route_misses),
            point_hits: load(&self.point_hits),
            point_misses: load(&self.point_misses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;
    use optimcast_core::optimal::optimal_k;

    /// The memoized tree of `policy` at `(n, m)`, as the engine looks it up.
    fn tree_of(cache: &SweepCache, policy: TreePolicy, n: u32, m: u32) -> Arc<MulticastTree> {
        cache.tree(n, tree_k(policy, n, m))
    }

    #[test]
    fn repeated_tree_keys_are_pointer_equal() {
        let cache = SweepCache::default();
        let a = tree_of(&cache, TreePolicy::FixedK(2), 16, 4);
        let b = tree_of(&cache, TreePolicy::FixedK(2), 16, 4);
        assert!(Arc::ptr_eq(&a, &b), "repeated (n, k) must share one arena");
        // OptimalKBinomial resolving to the same k shares the allocation too.
        let k = optimal_k(16, 4).k;
        let c = tree_of(&cache, TreePolicy::OptimalKBinomial, 16, 4);
        let d = tree_of(&cache, TreePolicy::FixedK(k), 16, 4);
        assert!(Arc::ptr_eq(&c, &d));
        // Distinct keys do not.
        let e = tree_of(&cache, TreePolicy::FixedK(3), 16, 4);
        assert!(!Arc::ptr_eq(&a, &e));
        let f = tree_of(&cache, TreePolicy::Linear, 16, 4);
        assert!(!Arc::ptr_eq(&a, &f));
        // Linear is k = 1, and Binomial is every k >= ceil(log2 n).
        assert!(Arc::ptr_eq(
            &f,
            &tree_of(&cache, TreePolicy::FixedK(1), 16, 4)
        ));
        let g = tree_of(&cache, TreePolicy::Binomial, 16, 4);
        assert!(Arc::ptr_eq(
            &g,
            &tree_of(&cache, TreePolicy::FixedK(4), 16, 4)
        ));
        assert!(Arc::ptr_eq(
            &g,
            &tree_of(&cache, TreePolicy::FixedK(9), 16, 4)
        ));
    }

    #[test]
    fn tree_k_resolves_and_clamps() {
        assert_eq!(tree_k(TreePolicy::Linear, 64, 8), 1);
        assert_eq!(tree_k(TreePolicy::Binomial, 64, 8), 6);
        assert_eq!(tree_k(TreePolicy::Binomial, 1, 8), 1);
        assert_eq!(tree_k(TreePolicy::FixedK(3), 64, 8), 3);
        assert_eq!(tree_k(TreePolicy::FixedK(40), 64, 8), 6);
        assert_eq!(
            tree_k(TreePolicy::OptimalKBinomial, 48, 8),
            optimal_k(48, 8).k
        );
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
        // Route cache: same (t, s, dests, k) shares one table and matches
        // direct construction; different k do not.
        let n = a.len() as u32;
        let bin = tree_k(TreePolicy::Binomial, n, 4);
        let tree = cache.tree(n, bin);
        let r1 = cache.routes(&cfg, &topo, 0, 0, 15, bin, &tree, &a);
        let r2 = cache.routes(&cfg, &topo, 0, 0, 15, bin, &tree, &a);
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(*r1, JobRoutes::build(&topo.net, &tree, &a));
        let lin = cache.tree(n, 1);
        let r3 = cache.routes(&cfg, &topo, 0, 0, 15, 1, &lin, &a);
        assert!(!Arc::ptr_eq(&r1, &r3));
        let stats = cache.stats();
        assert_eq!((stats.route_hits, stats.route_misses), (1, 2));
        assert!((stats.route_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn points_recall_once_per_distinct_key() {
        let cache = SweepCache::default();
        let run = RunConfig::default();
        let (a, b) = ((15, 2, 4, run), (31, 3, 4, run));
        let (recalls, missing) = cache.recall_points(&[a, b, a]);
        assert_eq!(
            recalls,
            [Recall::Missing(0), Recall::Missing(1), Recall::Missing(0)]
        );
        assert_eq!(missing, [0, 1]);
        cache.store_points([(a, 10.5), (b, 20.25)]);
        let (recalls, missing) = cache.recall_points(&[b, a]);
        assert_eq!(recalls, [Recall::Known(20.25), Recall::Known(10.5)]);
        assert!(missing.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.point_hits, stats.point_misses), (3, 2));
        assert_eq!((stats.hits, stats.misses), (0, 0));
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
            assert_eq!(*tree_of(&cache, policy, n, m), policy.tree(n, m));
        }
    }
}
