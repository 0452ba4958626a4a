//! Reference-model battery for the up\*/down\* route builder.
//!
//! `reference` below is the per-edge BFS kernel the hop-table passes
//! replaced: every relaxation looks the link up to orient it and asks
//! `is_up`, and extraction measures both phase states by walking their
//! predecessor chains. The properties assert that `bulk_host_routes`,
//! `host_route`, `switch_path` (passes bounded by their targets) and
//! `single_source(..).path_to` (the exhaustive pass) are byte-identical to
//! it on random irregular networks (default and random roots), fat-trees
//! with k ∈ {2, 4, .., 12}, dragonflies, and random multigraphs with
//! parallel links, over pair sets that mix self, same-switch and arbitrary
//! pairs.

use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
use optimcast_topology::graph::{ChannelId, HostId, SwitchId, Topology};
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use optimcast_topology::updown::{RouteScratch, UpDownRouting};
use optimcast_topology::Network;
use proptest::prelude::*;

/// The per-edge kernel, as it stood before the oriented hop table.
mod reference {
    use optimcast_topology::graph::{ChannelId, Endpoint, HostId, LinkId, SwitchId, Topology};
    use optimcast_topology::updown::UpDownRouting;
    use std::collections::VecDeque;

    pub struct Paths {
        from: SwitchId,
        pred: Vec<Option<(u32, ChannelId)>>,
        seen: Vec<bool>,
    }

    fn directed_channel(topo: &Topology, l: LinkId, from: SwitchId) -> ChannelId {
        let link = topo.link(l);
        match (link.a, link.b) {
            (Endpoint::Switch(x), _) if x == from => l.forward(),
            (_, Endpoint::Switch(y)) if y == from => l.backward(),
            _ => unreachable!("link {l:?} does not touch switch {from}"),
        }
    }

    pub fn single_source(r: &UpDownRouting, topo: &Topology, from: SwitchId) -> Paths {
        let s = topo.num_switches() as usize;
        let mut pred: Vec<Option<(u32, ChannelId)>> = vec![None; s * 2];
        let mut seen = vec![false; s * 2];
        let start = from.index() * 2;
        seen[start] = true;
        let mut queue = VecDeque::new();
        queue.push_back(start as u32);
        while let Some(state) = queue.pop_front() {
            let sw = SwitchId(state / 2);
            let phase = state % 2;
            let (links, peers) = topo.switch_peers(sw);
            for (&l, &nb) in links.iter().zip(peers) {
                let c = directed_channel(topo, l, sw);
                let up = r.is_up(topo, c);
                if up && phase == 1 {
                    continue;
                }
                let next = nb.index() * 2 + usize::from(!up);
                if !seen[next] {
                    seen[next] = true;
                    pred[next] = Some((state, c));
                    queue.push_back(next as u32);
                }
            }
        }
        Paths { from, pred, seen }
    }

    impl Paths {
        fn path_len(&self, mut state: usize) -> usize {
            let mut n = 0;
            while let Some((prev, _)) = self.pred[state] {
                n += 1;
                state = prev as usize;
            }
            n
        }

        pub fn extend_path_to(&self, to: SwitchId, out: &mut Vec<ChannelId>) {
            let goal = [to.index() * 2, to.index() * 2 + 1]
                .into_iter()
                .filter(|&st| self.seen[st] && self.pred[st].is_some())
                .min_by_key(|&st| self.path_len(st))
                .unwrap_or_else(|| panic!("no legal path from s{} to s{to}", self.from));
            let start = out.len();
            let mut cur = goal;
            while let Some((prev, c)) = self.pred[cur] {
                out.push(c);
                cur = prev as usize;
            }
            out[start..].reverse();
        }

        pub fn path_to(&self, to: SwitchId) -> Vec<ChannelId> {
            let mut path = Vec::new();
            if to != self.from {
                self.extend_path_to(to, &mut path);
            }
            path
        }
    }

    pub fn host_route(
        r: &UpDownRouting,
        topo: &Topology,
        from: HostId,
        to: HostId,
    ) -> Vec<ChannelId> {
        if from == to {
            return Vec::new();
        }
        let sf = topo.host_switch(from);
        let st = topo.host_switch(to);
        let mut route = vec![topo.injection_channel(from)];
        if sf != st {
            single_source(r, topo, sf).extend_path_to(st, &mut route);
        }
        route.push(topo.ejection_channel(to));
        route
    }
}

/// SplitMix64: a self-contained stream for drawing pair sets from one seed.
struct Mix(u64);

impl Mix {
    fn below(&mut self, bound: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % u64::from(bound)) as u32
    }
}

/// `count` host pairs: about a quarter self pairs, a quarter pairs on one
/// switch, the rest arbitrary.
fn random_pairs(topo: &Topology, seed: u64, count: u32) -> Vec<(HostId, HostId)> {
    let mut rng = Mix(seed);
    let n = topo.num_hosts();
    (0..count)
        .map(|_| {
            let a = HostId(rng.below(n));
            let b = match rng.below(4) {
                0 => a,
                1 => {
                    let local = topo.switch_hosts(topo.host_switch(a));
                    local[rng.below(local.len() as u32) as usize]
                }
                _ => HostId(rng.below(n)),
            };
            (a, b)
        })
        .collect()
}

/// Bulk routes, per-pair routes and every single-source path agree with
/// the reference.
fn check_against_reference(
    routing: &UpDownRouting,
    topo: &Topology,
    pairs: &[(HostId, HostId)],
) -> Result<(), String> {
    let mut scratch = RouteScratch::default();
    let (mut off, mut dat) = (Vec::new(), Vec::new());
    routing.bulk_host_routes(topo, pairs, &mut scratch, &mut off, &mut dat);
    // A second batch through the same (now warm) storage is identical.
    let (first_off, first_dat) = (off.clone(), dat.clone());
    routing.bulk_host_routes(topo, pairs, &mut scratch, &mut off, &mut dat);
    prop_assert_eq!(&off, &first_off);
    prop_assert_eq!(&dat, &first_dat);
    prop_assert_eq!(off.len(), pairs.len() + 1);
    prop_assert_eq!(off[pairs.len()] as usize, dat.len());
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let bulk: &[ChannelId] = &dat[off[i] as usize..off[i + 1] as usize];
        let want = reference::host_route(routing, topo, a, b);
        prop_assert_eq!(bulk, want.as_slice(), "bulk route {}->{}", a, b);
        prop_assert_eq!(routing.host_route(topo, a, b), want, "route {}->{}", a, b);
        let (sa, sb) = (topo.host_switch(a), topo.host_switch(b));
        prop_assert_eq!(
            routing.switch_path(topo, sa, sb),
            reference::single_source(routing, topo, sa).path_to(sb),
            "switch path {}->{}",
            sa,
            sb
        );
    }
    for from in (0..topo.num_switches()).map(SwitchId) {
        let got = routing.single_source(topo, from);
        let want = reference::single_source(routing, topo, from);
        for to in (0..topo.num_switches()).map(SwitchId) {
            prop_assert_eq!(got.path_to(to), want.path_to(to), "path {}->{}", from, to);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn irregular_networks_match_reference(
        seed in 0u64..1_000_000,
        switches in 1u32..=24,
        spare_ports in 2u32..=6,
        per_switch in 1u32..=3,
        root_pick in 0u32..1000,
        pair_seed in 0u64..1_000_000,
        count in 1u32..=80,
    ) {
        // Two spare ports per switch always leave room for a spanning tree.
        let ports = per_switch + spare_ports;
        let config = IrregularConfig { switches, ports, hosts: switches * per_switch };
        let net = IrregularNetwork::generate(config, seed);
        let topo = net.topology();
        let pairs = random_pairs(topo, pair_seed, count);
        check_against_reference(net.routing(), topo, &pairs)?;
        let rooted = UpDownRouting::with_root(topo, SwitchId(root_pick % switches));
        check_against_reference(&rooted, topo, &pairs)?;
    }

    #[test]
    fn fat_trees_match_reference(
        half in 1u32..=6,
        hosts_frac in 1u32..=4,
        pair_seed in 0u64..1_000_000,
        count in 1u32..=120,
    ) {
        let k = half * 2;
        let hosts = (k * k * k / 4 * hosts_frac / 4).max(1);
        let net = FabricNetwork::generate_with_hosts(FabricConfig::FatTree { k_ary: k }, hosts);
        let pairs = random_pairs(net.topology(), pair_seed, count);
        check_against_reference(net.routing(), net.topology(), &pairs)?;
    }

    #[test]
    fn dragonflies_match_reference(
        groups in 1u32..=6,
        routers_per_group in 1u32..=5,
        hosts_per_router in 1u32..=3,
        pair_seed in 0u64..1_000_000,
        count in 1u32..=80,
    ) {
        let net = FabricNetwork::generate(FabricConfig::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
        });
        let pairs = random_pairs(net.topology(), pair_seed, count);
        check_against_reference(net.routing(), net.topology(), &pairs)?;
    }

    #[test]
    fn multigraphs_match_reference(
        switches in 1u32..=16,
        extra in 0u32..=24,
        shape_seed in 0u64..1_000_000,
        root_pick in 0u32..1000,
        pair_seed in 0u64..1_000_000,
        count in 1u32..=60,
    ) {
        // A random spanning chain keeps the switch graph connected; extra
        // links may repeat a pair (parallel links), and each link's `a`/`b`
        // order is drawn so both channel directions leave a switch.
        let mut rng = Mix(shape_seed);
        let mut topo = Topology::new(switches);
        for s in 0..switches {
            for _ in 0..=rng.below(2) {
                topo.add_host(SwitchId(s));
            }
        }
        for s in 1..switches {
            let peer = rng.below(s);
            if rng.below(2) == 0 {
                topo.add_switch_link(SwitchId(peer), SwitchId(s));
            } else {
                topo.add_switch_link(SwitchId(s), SwitchId(peer));
            }
        }
        if switches > 1 {
            for _ in 0..extra {
                let a = rng.below(switches);
                let b = (a + 1 + rng.below(switches - 1)) % switches;
                topo.add_switch_link(SwitchId(a), SwitchId(b));
            }
        }
        let pairs = random_pairs(&topo, pair_seed, count);
        check_against_reference(&UpDownRouting::new(&topo), &topo, &pairs)?;
        let rooted = UpDownRouting::with_root(&topo, SwitchId(root_pick % switches));
        check_against_reference(&rooted, &topo, &pairs)?;
    }
}
