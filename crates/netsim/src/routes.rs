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

use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_topology::graph::{ChannelId, HostId};
use optimcast_topology::Network;

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
