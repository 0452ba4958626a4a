//! Channel-sharing (contention) analysis between routed paths.
//!
//! Depth contention-freedom (paper §4.3.2, after McKinley et al.) requires
//! the paths that tree edges map onto to be pairwise edge-disjoint whenever
//! they can be active simultaneously. The primitive here is *directed
//! channel sharing* between two host-to-host routes; on top of it sit the
//! contention-free-*ordering* test (`∀ a ≺ b ≼ c ≺ d`: routes `a→b` and
//! `c→d` are disjoint) and bulk counting helpers used by the ablation
//! benches.

use crate::graph::{ChannelId, HostId};
use crate::Network;

/// True if two channel lists share any directed channel.
///
/// Routes are short (≤ network diameter + 2), so a quadratic scan beats
/// hashing for the sizes involved.
fn share_channel(a: &[ChannelId], b: &[ChannelId]) -> bool {
    a.iter().any(|c| b.contains(c))
}

/// Route `i` of a CSR table from [`Network::bulk_routes`].
fn csr_route<'a>(offsets: &[u32], channels: &'a [ChannelId], i: usize) -> &'a [ChannelId] {
    &channels[offsets[i] as usize..offsets[i + 1] as usize]
}

/// One violating quadruple of the contention-free-ordering property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Sender of the left message (`a`).
    pub a: HostId,
    /// Receiver of the left message (`b`).
    pub b: HostId,
    /// Sender of the right message (`c`, with `b ≼ c`).
    pub c: HostId,
    /// Receiver of the right message (`d`).
    pub d: HostId,
}

/// Counts quadruples `a ≺ b ≼ c ≺ d` along `chain` whose messages `a→b` and
/// `c→d` share a directed channel, up to `limit` violations (pass
/// `u64::MAX` for an exact count). Zero means the chain is a
/// contention-free ordering in the paper's sense.
///
/// Cost is `O(n⁴)` route-pair checks; intended for analysis, not hot paths.
pub fn ordering_violations<N: Network>(
    net: &N,
    chain: &[HostId],
    limit: u64,
) -> (u64, Option<Violation>) {
    let n = chain.len();
    // All chain-forward routes a -> b (positions pa < pb) in one bulk call,
    // then indexed as routes[pa * n + pb].
    let forward = || (0..n).flat_map(|pa| (pa + 1..n).map(move |pb| (pa, pb)));
    let pairs: Vec<(HostId, HostId)> = forward().map(|(pa, pb)| (chain[pa], chain[pb])).collect();
    let (offsets, channels) = net.bulk_routes(&pairs);
    let mut routes: Vec<&[ChannelId]> = vec![&[]; n * n];
    for (i, (pa, pb)) in forward().enumerate() {
        routes[pa * n + pb] = csr_route(&offsets, &channels, i);
    }
    let mut count = 0u64;
    let mut first = None;
    for pa in 0..n {
        for pb in pa + 1..n {
            for pc in pb..n {
                for pd in pc + 1..n {
                    if pa == pc && pb == pd {
                        continue; // the same message does not contend with itself
                    }
                    if share_channel(routes[pa * n + pb], routes[pc * n + pd]) {
                        count += 1;
                        if first.is_none() {
                            first = Some(Violation {
                                a: chain[pa],
                                b: chain[pb],
                                c: chain[pc],
                                d: chain[pd],
                            });
                        }
                        if count >= limit {
                            return (count, first);
                        }
                    }
                }
            }
        }
    }
    (count, first)
}

/// True if `chain` is a contention-free ordering on `net`.
pub fn is_contention_free<N: Network>(net: &N, chain: &[HostId]) -> bool {
    ordering_violations(net, chain, 1).0 == 0
}

/// Counts pairwise channel conflicts among a set of simultaneously active
/// unicast transfers (e.g. all sends of one multicast step).
pub fn concurrent_conflicts<N: Network>(net: &N, transfers: &[(HostId, HostId)]) -> u64 {
    let (offsets, channels) = net.bulk_routes(transfers);
    let route = |i| csr_route(&offsets, &channels, i);
    let mut conflicts = 0;
    for i in 0..transfers.len() {
        for j in i + 1..transfers.len() {
            if share_channel(route(i), route(j)) {
                conflicts += 1;
            }
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeNetwork;
    use crate::graph::{SwitchId, Topology};
    use crate::irregular::{IrregularConfig, IrregularNetwork};
    use crate::ordering::{cco, dimension_ordered, Ordering};
    use crate::updown::UpDownRouting;

    /// Minimal two-switch network.
    struct Tiny {
        topo: Topology,
        routing: UpDownRouting,
    }

    impl Tiny {
        fn new() -> Self {
            let mut topo = Topology::new(2);
            for s in [0, 0, 1, 1] {
                topo.add_host(SwitchId(s));
            }
            topo.add_switch_link(SwitchId(0), SwitchId(1));
            let routing = UpDownRouting::new(&topo);
            Tiny { topo, routing }
        }
    }

    impl Network for Tiny {
        fn num_hosts(&self) -> u32 {
            self.topo.num_hosts()
        }
        fn num_channels(&self) -> u32 {
            self.topo.num_channels()
        }
        fn route(&self, from: HostId, to: HostId) -> Vec<ChannelId> {
            self.routing.host_route(&self.topo, from, to)
        }
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn describe(&self) -> String {
            "tiny".into()
        }
    }

    #[test]
    fn same_direction_crossing_contends() {
        let net = Tiny::new();
        let contend = |a, b, c, d| {
            share_channel(
                &net.route(HostId(a), HostId(b)),
                &net.route(HostId(c), HostId(d)),
            )
        };
        // h0 -> h2 and h1 -> h3 both cross s0 -> s1.
        assert!(contend(0, 2, 1, 3));
        // Opposite directions do not contend.
        assert!(!contend(0, 2, 3, 1));
        // Distinct ejections to distinct hosts do not contend.
        assert!(!contend(0, 1, 2, 3));
    }

    #[test]
    fn shared_channels_identifies_link() {
        let net = Tiny::new();
        let r1 = net.route(HostId(0), HostId(2));
        let r2 = net.route(HostId(1), HostId(3));
        let shared: Vec<ChannelId> = r1.iter().copied().filter(|c| r2.contains(c)).collect();
        assert_eq!(shared.len(), 1);
        let c = net
            .topology()
            .switch_channel(SwitchId(0), SwitchId(1))
            .unwrap();
        assert_eq!(shared[0], c);
    }

    #[test]
    fn hypercube_id_order_is_contention_free() {
        // Classic TPDS'94 result: the (dimension-ordered) id order on a
        // hypercube with e-cube routing is a contention-free ordering.
        let c = CubeNetwork::new(2, 3);
        let o = dimension_ordered(&c);
        assert!(is_contention_free(&c, o.hosts()));
    }

    #[test]
    fn hypercube_bad_order_violates() {
        // Chain [0, 7, 1, 3, ...]: messages 0->7 (route 0->1->3->7 under
        // lowest-dimension-first e-cube) and 1->3 (route 1->3) both traverse
        // the directed channel 1->3, and the quadruple is ordered a<b<=c<d.
        let c = CubeNetwork::new(2, 3);
        let chain: Vec<HostId> = [0u32, 7, 1, 3, 2, 4, 5, 6]
            .into_iter()
            .map(HostId)
            .collect();
        let (v, w) = ordering_violations(&c, &chain, u64::MAX);
        assert!(v > 0, "expected violations");
        let w = w.unwrap();
        assert_eq!(
            (w.a, w.b, w.c, w.d),
            (HostId(0), HostId(7), HostId(1), HostId(3))
        );
        assert!(!is_contention_free(&c, &chain));
    }

    #[test]
    fn tiny_ordering_quality_depends_on_clustering() {
        // Grouping hosts by switch ([0,1,2,3]) keeps forward non-overlapping
        // messages off shared channels; interleaving switches ([0,2,1,3])
        // makes 0->2 and 1->3 both cross s0->s1 as an ordered quadruple.
        let net = Tiny::new();
        let grouped: Vec<HostId> = [0u32, 1, 2, 3].into_iter().map(HostId).collect();
        assert!(is_contention_free(&net, &grouped));
        let interleaved: Vec<HostId> = [0u32, 2, 1, 3].into_iter().map(HostId).collect();
        assert!(!is_contention_free(&net, &interleaved));
    }

    #[test]
    fn cco_beats_random_on_irregular_networks() {
        // The paper's claim (via HPCA'97): CCO minimises contention. Compare
        // violation counts on a small irregular network so the O(n^4) scan
        // stays fast.
        let cfg = IrregularConfig {
            switches: 6,
            ports: 6,
            hosts: 18,
        };
        let mut cco_total = 0u64;
        let mut rnd_total = 0u64;
        for seed in 0..4 {
            let net = IrregularNetwork::generate(cfg, seed);
            let c = cco(&net);
            cco_total += ordering_violations(&net, c.hosts(), u64::MAX).0;
            let r = Ordering::random(18, seed.wrapping_mul(77).wrapping_add(5));
            rnd_total += ordering_violations(&net, r.hosts(), u64::MAX).0;
        }
        assert!(
            cco_total < rnd_total,
            "CCO {cco_total} should contend less than random {rnd_total}"
        );
    }

    #[test]
    fn concurrent_conflicts_counts_pairs() {
        let net = Tiny::new();
        let transfers = [
            (HostId(0), HostId(2)),
            (HostId(1), HostId(3)),
            (HostId(3), HostId(1)),
        ];
        // (0->2, 1->3) share s0->s1; (3->1) shares s1->s0 with nobody, but
        // shares the ejection to h1 with nobody either.
        assert_eq!(concurrent_conflicts(&net, &transfers), 1);
    }

    #[test]
    fn violation_limit_short_circuits() {
        let net = Tiny::new();
        // Interleaved chain: 0->2 and 1->3 share s0->s1 (see above).
        let chain: Vec<HostId> = [0u32, 2, 1, 3].into_iter().map(HostId).collect();
        let exact = ordering_violations(&net, &chain, u64::MAX).0;
        assert!(exact >= 1);
        let (v, w) = ordering_violations(&net, &chain, 1);
        assert_eq!(v, 1, "limit must short-circuit");
        assert!(w.is_some());
    }

    #[test]
    fn empty_and_singleton_chains_trivially_free() {
        let net = Tiny::new();
        assert!(is_contention_free(&net, &[]));
        assert!(is_contention_free(&net, &[HostId(2)]));
    }
}
