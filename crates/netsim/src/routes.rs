//! Interned per-job route tables in compressed-sparse-row form.
//!
//! A simulation run looks routes up once per dispatched packet, on the hot
//! path. The nested `Vec<Vec<ChannelId>>` layout (one allocation per rank)
//! this module replaces cost a rebuild per run — per *cell* in a figure
//! sweep, where the same `(topology, chain, tree)` triple recurs for every
//! packet-count point of a series. [`JobRoutes`] flattens all routes of one
//! job into a single channel array plus rank offsets, is cheap to share
//! behind an [`std::sync::Arc`], and is memoized by the sweep cache
//! alongside topologies and trees (see `optimcast-sweep`).
//!
//! A job whose tree is spliced between runs — a stream's membership epochs
//! — keeps its table in an [`EpochRoutes`], which copies the route of every
//! tree edge that survived the splice and routes only the new ones.

use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_topology::graph::{ChannelId, HostId};
use optimcast_topology::{Network, RouteScratch};
use std::sync::Arc;

/// All parent→child routes of one multicast job, flattened CSR-style.
///
/// `route(r)` is the directed channel sequence from rank `r`'s parent host
/// to rank `r`'s host, exactly as `Network::route` returns it; the source
/// rank's route is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRoutes {
    /// `offsets[r]..offsets[r + 1]` indexes `channels` for rank `r`.
    offsets: Vec<u32>,
    /// Concatenated routes, in rank order.
    channels: Vec<ChannelId>,
}

impl JobRoutes {
    /// Builds the table for `tree` bound to `binding` on `net`.
    ///
    /// `binding[rank]` is the physical host of tree rank `rank` — the same
    /// contract as the simulator entry points, which validate it; this
    /// constructor only requires `binding.len() == tree.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `binding` is shorter than the tree.
    pub fn build<N: Network>(net: &N, tree: &MulticastTree, binding: &[HostId]) -> Self {
        assert!(
            binding.len() >= tree.len(),
            "binding covers every tree rank"
        );
        let n = tree.len();
        // One bulk query for all tree edges: substrates that route via
        // single-source passes (up*/down*) group the pairs by source switch
        // and run each pass once, so a whole job's table costs O(n) route
        // extractions instead of n independent path searches.
        //
        // The pairs come out in rank order with parentless ranks (the
        // source) left out, so the bulk channel array already is the
        // rank-order table. `offsets[r]` first counts the pairs before rank
        // `r`, then maps through the bulk offsets; a rank without a pair
        // repeats its predecessor's offset.
        let mut pairs = Vec::with_capacity(n.saturating_sub(1));
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for r in 0..n {
            if let Some(p) = tree.parent(Rank(r as u32)) {
                pairs.push((binding[p.index()], binding[r]));
            }
            offsets.push(pairs.len() as u32);
        }
        let (bulk_off, channels) = net.bulk_routes(&pairs);
        for o in &mut offsets {
            *o = bulk_off[*o as usize];
        }
        JobRoutes { offsets, channels }
    }

    /// The channel route from `rank`'s parent to `rank` (empty for the
    /// source).
    #[inline]
    pub fn route(&self, rank: usize) -> &[ChannelId] {
        let lo = self.offsets[rank] as usize;
        let hi = self.offsets[rank + 1] as usize;
        &self.channels[lo..hi]
    }

    /// Number of ranks covered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for a table over zero ranks (never produced by [`Self::build`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total channels across all routes (storage footprint indicator).
    pub fn total_channels(&self) -> usize {
        self.channels.len()
    }
}

/// `EpochRoutes::edge` entry of a member with no edge in the table.
const NO_EDGE: (u32, u32) = (u32::MAX, u32::MAX);

/// The route table of a job whose tree changes between runs by splices: a
/// stream's group, whose ranks are bound to stable member ids.
///
/// [`Self::update`] rebuilds the table for the current tree. A route
/// depends only on its two hosts, so every `(parent member, member)` edge
/// the previous table held is copied from it, and only the new edges — a
/// join's one, a leave's re-attached orphans — are routed, in one
/// [`Network::bulk_routes_into`] batch. The table equals
/// [`JobRoutes::build`] of the same tree and binding
/// (`crates/netsim/tests/stream_arena.rs` pins this along random churn).
/// Once its buffers have grown, an update allocates nothing as long as no
/// one else still holds a clone of the table it returned last.
#[derive(Debug)]
pub struct EpochRoutes {
    table: Arc<JobRoutes>,
    /// The previous table's storage, rewritten by the next update.
    spare: JobRoutes,
    /// Per member id: its parent member and its rank in `table`, or
    /// `NO_EDGE` when `table` holds no route into it.
    edge: Vec<(u32, u32)>,
    /// The new edges' host pairs, in rank order, and their routes.
    pairs: Vec<(HostId, HostId)>,
    fresh_offsets: Vec<u32>,
    fresh: Vec<ChannelId>,
    scratch: RouteScratch,
    routed: usize,
}

impl Default for EpochRoutes {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochRoutes {
    /// No table yet: the first update routes every edge.
    pub fn new() -> Self {
        let empty = || JobRoutes {
            offsets: vec![0],
            channels: Vec::new(),
        };
        EpochRoutes {
            table: Arc::new(empty()),
            spare: empty(),
            edge: Vec::new(),
            pairs: Vec::new(),
            fresh_offsets: Vec::new(),
            fresh: Vec::new(),
            scratch: RouteScratch::default(),
            routed: 0,
        }
    }

    /// Forgets the table but keeps its storage: the next update routes
    /// every edge, as after [`Self::new`], on any network and binding.
    pub(crate) fn forget(&mut self) {
        self.edge.clear();
        self.routed = 0;
    }

    /// Makes the table cover `tree`, whose rank `r` is member `members[r]`
    /// on host `hosts[members[r]]`, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `members` is shorter than the tree, names a member outside
    /// `hosts`, or binds a host outside `net` (validate the binding first,
    /// as [`crate::SimRun`] does).
    pub fn update<N: Network>(
        &mut self,
        net: &N,
        tree: &MulticastTree,
        members: &[u32],
        hosts: &[HostId],
    ) -> &Arc<JobRoutes> {
        self.edge.resize(hosts.len(), NO_EDGE);
        let edges = || {
            (0..tree.len()).filter_map(|r| {
                let p = tree.parent(Rank(r as u32))?;
                Some((r, members[p.index()], members[r]))
            })
        };
        self.pairs.clear();
        for (_, parent, member) in edges() {
            if self.edge[member as usize].0 != parent {
                self.pairs
                    .push((hosts[parent as usize], hosts[member as usize]));
            }
        }
        net.bulk_routes_into(
            &self.pairs,
            &mut self.scratch,
            &mut self.fresh_offsets,
            &mut self.fresh,
        );
        self.routed = self.pairs.len();

        let (old, new) = (&*self.table, &mut self.spare);
        new.offsets.clear();
        new.channels.clear();
        new.offsets.push(0);
        // The fresh routes come in the rank order the pairs were listed in.
        let mut fresh = self.fresh_offsets.iter().map(|&o| o as usize);
        let mut lo = fresh.next().unwrap_or(0);
        let mut edges_of_rank = edges().peekable();
        for r in 0..tree.len() {
            if let Some(&(_, parent, member)) = edges_of_rank.peek().filter(|e| e.0 == r) {
                edges_of_rank.next();
                let (was_parent, was_rank) = self.edge[member as usize];
                if was_parent == parent {
                    new.channels.extend_from_slice(old.route(was_rank as usize));
                } else {
                    let hi = fresh.next().unwrap_or(lo);
                    new.channels.extend_from_slice(&self.fresh[lo..hi]);
                    lo = hi;
                }
            }
            new.offsets.push(new.channels.len() as u32);
        }

        self.edge.fill(NO_EDGE);
        for (r, parent, member) in edges() {
            self.edge[member as usize] = (parent, r as u32);
        }
        std::mem::swap(Arc::make_mut(&mut self.table), &mut self.spare);
        &self.table
    }

    /// How many edges the last [`Self::update`] routed afresh; the rest
    /// were copied.
    pub fn routed(&self) -> usize {
        self.routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::builders::{binomial_tree, kbinomial_tree};
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    #[test]
    fn csr_matches_per_rank_routing() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 3);
        let tree = kbinomial_tree(24, 2);
        let binding: Vec<HostId> = (0..24).map(|i| HostId(i * 2)).collect();
        let table = JobRoutes::build(&net, &tree, &binding);
        assert_eq!(table.len(), 24);
        assert!(table.route(0).is_empty(), "source has no inbound route");
        for r in 1..24usize {
            let p = tree.parent(Rank(r as u32)).unwrap();
            let direct = net.route(binding[p.index()], binding[r]);
            assert_eq!(table.route(r), direct.as_slice(), "rank {r}");
            assert!(!table.route(r).is_empty());
        }
        assert_eq!(
            table.total_channels(),
            (1..24).map(|r| table.route(r).len()).sum::<usize>()
        );
    }

    /// The bulk build's bounded BFS passes equal exhaustive passes on
    /// fat-trees of 1,024 (k = 16) and 8,192 (k = 32) hosts, under the
    /// identity binding and the CCO binding: every rank's route is the one
    /// extracted from an unbounded `single_source` pass of its parent's
    /// switch, and at 1,024 hosts also per-rank `host_route`. (Per-rank
    /// `host_route` builds a whole hop table per call, which at 8,192 hosts
    /// takes about 20 s in an unoptimized test build.)
    #[test]
    fn fat_tree_tables_match_exhaustive_passes() {
        use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
        use optimcast_topology::ordering::cco_of;
        use std::collections::HashMap;
        for hosts in [1_024u32, 8_192] {
            let config = FabricConfig::fat_tree_for_hosts(hosts);
            let net = FabricNetwork::generate_with_hosts(config, hosts);
            let (topo, routing) = (net.topology(), net.routing());
            let tree = kbinomial_tree(hosts, 4);
            let identity: Vec<HostId> = (0..hosts).map(HostId).collect();
            let cco = cco_of(topo, routing).hosts().to_vec();
            let mut passes = HashMap::new();
            for binding in [identity, cco] {
                let table = JobRoutes::build(&net, &tree, &binding);
                assert!(table.route(0).is_empty());
                for r in 1..hosts as usize {
                    let p = tree.parent(Rank(r as u32)).unwrap();
                    let (a, b) = (binding[p.index()], binding[r]);
                    let (sa, sb) = (topo.host_switch(a), topo.host_switch(b));
                    let mut want = vec![topo.injection_channel(a)];
                    if sa != sb {
                        passes
                            .entry(sa)
                            .or_insert_with(|| routing.single_source(topo, sa))
                            .extend_path_to(sb, &mut want);
                    }
                    want.push(topo.ejection_channel(b));
                    assert_eq!(table.route(r), want.as_slice(), "{hosts} hosts, rank {r}");
                    if hosts == 1_024 {
                        assert_eq!(routing.host_route(topo, a, b), want, "rank {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn singleton_tree_has_one_empty_route() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 0);
        let tree = optimcast_core::tree::MulticastTree::singleton();
        let table = JobRoutes::build(&net, &tree, &[HostId(0)]);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        assert!(table.route(0).is_empty());
        assert_eq!(table.total_channels(), 0);
    }

    #[test]
    fn build_accepts_exact_binding_only_when_covering() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 1);
        let tree = binomial_tree(8);
        let binding: Vec<HostId> = (0..8).map(HostId).collect();
        let table = JobRoutes::build(&net, &tree, &binding);
        assert_eq!(table.len(), 8);
    }

    #[test]
    #[should_panic(expected = "binding covers")]
    fn short_binding_panics() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 1);
        let tree = binomial_tree(8);
        let binding: Vec<HostId> = (0..4).map(HostId).collect();
        let _ = JobRoutes::build(&net, &tree, &binding);
    }
}
