//! Mega-scale datacenter fabrics: fat-tree and dragonfly generators.
//!
//! The paper validates optimal-k multicast on a 64-host irregular network;
//! these generators extend the study two orders of magnitude onto the
//! regular fabrics where simultaneous-multicast scheduling actually matters
//! at scale. Both produce an ordinary [`Topology`] and route it with the
//! same up\*/down\* machinery as the irregular substrate, so every layer
//! above (CCO ordering, tree building, the simulator) works unchanged.
//!
//! * **Fat-tree** (`k`-ary, 3 levels): `k` pods of `k/2` edge and `k/2`
//!   aggregation switches plus `(k/2)²` core switches; `k/2` hosts per edge
//!   switch, so capacity is `k³/4` hosts (`k = 64` → 65,536).
//! * **Dragonfly**: `g` groups of `a` routers, all-to-all inside a group,
//!   one global link per group pair (router chosen round-robin), `h` hosts
//!   per router.
//!
//! Everything is deterministic: switch ids, link insertion order, and host
//! attachment order are pure functions of the config, so routing and
//! simulation results are reproducible byte-for-byte.

use crate::graph::{ChannelId, HostId, SwitchId, Topology};
use crate::updown::UpDownRouting;
use crate::Network;

/// Which fabric to generate, with its shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfig {
    /// Three-level `k`-ary fat-tree (Clos). `k_ary` must be even and ≥ 2.
    FatTree {
        /// Switch radix `k`: pods, ports per switch, and `k/2` hosts per
        /// edge switch.
        k_ary: u32,
    },
    /// Dragonfly: `groups` groups of `routers_per_group` routers.
    Dragonfly {
        /// Number of groups (≥ 1).
        groups: u32,
        /// Routers per group (≥ 1).
        routers_per_group: u32,
        /// Hosts attached to each router (≥ 1).
        hosts_per_router: u32,
    },
}

impl FabricConfig {
    /// Smallest fat-tree radix (even `k`) whose `k³/4` host capacity covers
    /// `hosts`.
    pub fn fat_tree_for_hosts(hosts: u32) -> FabricConfig {
        let mut k = 2u32;
        while k * k * k / 4 < hosts {
            k += 2;
        }
        FabricConfig::FatTree { k_ary: k }
    }

    /// Maximum number of hosts this fabric can attach.
    fn host_capacity(&self) -> u32 {
        match *self {
            FabricConfig::FatTree { k_ary } => k_ary * k_ary * k_ary / 4,
            FabricConfig::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
            } => groups * routers_per_group * hosts_per_router,
        }
    }

    /// Number of switches in the fabric.
    pub fn num_switches(&self) -> u32 {
        match *self {
            FabricConfig::FatTree { k_ary } => {
                // k pods × (k/2 edge + k/2 agg) + (k/2)² core.
                k_ary * k_ary + (k_ary / 2) * (k_ary / 2)
            }
            FabricConfig::Dragonfly {
                groups,
                routers_per_group,
                ..
            } => groups * routers_per_group,
        }
    }

    fn validate(&self) {
        match *self {
            FabricConfig::FatTree { k_ary } => {
                assert!(
                    k_ary >= 2 && k_ary.is_multiple_of(2),
                    "fat-tree radix must be even and at least 2, got {k_ary}"
                );
            }
            FabricConfig::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
            } => {
                assert!(groups >= 1, "dragonfly needs at least one group");
                assert!(
                    routers_per_group >= 1,
                    "dragonfly needs at least one router per group"
                );
                assert!(
                    hosts_per_router >= 1,
                    "dragonfly needs at least one host per router"
                );
                if groups > 1 {
                    // One global link per group pair must fit somewhere.
                    assert!(
                        routers_per_group >= 1,
                        "dragonfly global links need routers"
                    );
                }
            }
        }
    }
}

/// A generated fabric: topology plus up\*/down\* routing, behind [`Network`].
#[derive(Debug, Clone)]
pub struct FabricNetwork {
    config: FabricConfig,
    topo: Topology,
    routing: UpDownRouting,
}

impl FabricNetwork {
    /// Generates the fabric at full host capacity.
    pub fn generate(config: FabricConfig) -> Self {
        Self::generate_with_hosts(config, config.host_capacity())
    }

    /// Generates the fabric with only `hosts` hosts attached (round-robin
    /// across the edge/router switches, so partial populations stay
    /// balanced).
    ///
    /// # Panics
    ///
    /// Panics if the config is malformed, `hosts` is zero, or `hosts`
    /// exceeds the fabric's capacity.
    pub fn generate_with_hosts(config: FabricConfig, hosts: u32) -> Self {
        config.validate();
        assert!(hosts >= 1, "a fabric needs at least one host");
        assert!(
            hosts <= config.host_capacity(),
            "fabric capacity is {} hosts, asked for {hosts}",
            config.host_capacity()
        );
        let topo = match config {
            FabricConfig::FatTree { k_ary } => build_fat_tree(k_ary, hosts),
            FabricConfig::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
            } => build_dragonfly(groups, routers_per_group, hosts_per_router, hosts),
        };
        let routing = UpDownRouting::new(&topo);
        FabricNetwork {
            config,
            topo,
            routing,
        }
    }

    /// The generator config.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    /// The up\*/down\* routing state (for CCO ordering and diagnostics).
    pub fn routing(&self) -> &UpDownRouting {
        &self.routing
    }
}

impl Network for FabricNetwork {
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
        match self.config {
            FabricConfig::FatTree { k_ary } => format!(
                "{}-ary fat-tree: {} switches, {} hosts, up*/down* routing",
                k_ary,
                self.topo.num_switches(),
                self.topo.num_hosts()
            ),
            FabricConfig::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
            } => format!(
                "dragonfly g={groups} a={routers_per_group} h={hosts_per_router}: \
                 {} switches, {} hosts, up*/down* routing",
                self.topo.num_switches(),
                self.topo.num_hosts()
            ),
        }
    }

    fn bulk_routes_into(
        &self,
        pairs: &[(HostId, HostId)],
        scratch: &mut crate::RouteScratch,
        offsets: &mut Vec<u32>,
        channels: &mut Vec<ChannelId>,
    ) {
        self.routing
            .bulk_host_routes(&self.topo, pairs, scratch, offsets, channels);
    }
}

/// Switch ids: pod-p edge switches first (`p·k/2 + e`), then all
/// aggregation switches (`k²/2 + p·k/2 + a`), then core (`k² + c`).
fn build_fat_tree(k: u32, hosts: u32) -> Topology {
    let half = k / 2;
    let num_edge = k * half;
    let edge = |p: u32, e: u32| SwitchId(p * half + e);
    let agg = |p: u32, a: u32| SwitchId(num_edge + p * half + a);
    let core = |c: u32| SwitchId(2 * num_edge + c);
    let mut topo = Topology::new(2 * num_edge + half * half);

    // Hosts round-robin across edge switches keeps partial populations
    // balanced; at full capacity each edge switch gets exactly k/2.
    for h in 0..hosts {
        topo.add_host(SwitchId(h % num_edge));
    }
    // Pod-internal bipartite edge ↔ aggregation mesh.
    for p in 0..k {
        for e in 0..half {
            for a in 0..half {
                topo.add_switch_link(edge(p, e), agg(p, a));
            }
        }
    }
    // Aggregation switch `a` of every pod reaches core group `a`.
    for p in 0..k {
        for a in 0..half {
            for j in 0..half {
                topo.add_switch_link(agg(p, a), core(a * half + j));
            }
        }
    }
    topo
}

/// Switch ids: router `r` of group `g` is `g·a + r`. Intra-group links
/// first (all-to-all per group), then one global link per group pair with
/// the endpoint router chosen round-robin per group.
fn build_dragonfly(g: u32, a: u32, h: u32, hosts: u32) -> Topology {
    let router = |gi: u32, r: u32| SwitchId(gi * a + r);
    let mut topo = Topology::new(g * a);

    // Hosts round-robin across all routers.
    for i in 0..hosts {
        topo.add_host(SwitchId(i % (g * a)));
    }
    let _ = h; // capacity is validated by the caller
    for gi in 0..g {
        for r1 in 0..a {
            for r2 in (r1 + 1)..a {
                topo.add_switch_link(router(gi, r1), router(gi, r2));
            }
        }
    }
    // Global links: per-group round-robin over routers spreads the global
    // channels evenly.
    let mut next_port = vec![0u32; g as usize];
    for g1 in 0..g {
        for g2 in (g1 + 1)..g {
            let r1 = next_port[g1 as usize] % a;
            let r2 = next_port[g2 as usize] % a;
            next_port[g1 as usize] += 1;
            next_port[g2 as usize] += 1;
            topo.add_switch_link(router(g1, r1), router(g2, r2));
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_shape() {
        let net = FabricNetwork::generate(FabricConfig::FatTree { k_ary: 4 });
        // k=4: 16 hosts, 4 pods × (2 edge + 2 agg) + 4 core = 20 switches.
        assert_eq!(net.num_hosts(), 16);
        assert_eq!(net.topology().num_switches(), 20);
        assert!(net.topology().switches_connected());
        // Every switch uses at most k ports.
        for s in 0..net.topology().num_switches() {
            assert!(net.topology().ports_used(SwitchId(s)) <= 4, "switch {s}");
        }
    }

    #[test]
    fn fat_tree_under_population() {
        let net = FabricNetwork::generate_with_hosts(FabricConfig::FatTree { k_ary: 4 }, 5);
        assert_eq!(net.num_hosts(), 5);
        // Round-robin: at most ⌈5/8⌉ = 1 host on each of the first 5 edges.
        for s in 0..8u32 {
            assert!(net.topology().switch_hosts(SwitchId(s)).len() <= 1);
        }
    }

    #[test]
    fn fat_tree_for_hosts_picks_smallest_radix() {
        assert_eq!(
            FabricConfig::fat_tree_for_hosts(1024),
            FabricConfig::FatTree { k_ary: 16 }
        );
        assert_eq!(
            FabricConfig::fat_tree_for_hosts(1025),
            FabricConfig::FatTree { k_ary: 18 }
        );
        assert_eq!(
            FabricConfig::fat_tree_for_hosts(65536),
            FabricConfig::FatTree { k_ary: 64 }
        );
    }

    #[test]
    fn dragonfly_shape() {
        let cfg = FabricConfig::Dragonfly {
            groups: 4,
            routers_per_group: 3,
            hosts_per_router: 2,
        };
        let net = FabricNetwork::generate(cfg);
        assert_eq!(net.num_hosts(), 24);
        assert_eq!(net.topology().num_switches(), 12);
        assert!(net.topology().switches_connected());
        // Links: per group C(3,2)=3 intra × 4 groups + C(4,2)=6 global
        // + 24 host links.
        assert_eq!(net.topology().num_links(), 24 + 12 + 6);
    }

    #[test]
    fn routes_are_legal_and_deterministic() {
        for cfg in [
            FabricConfig::FatTree { k_ary: 4 },
            FabricConfig::Dragonfly {
                groups: 3,
                routers_per_group: 2,
                hosts_per_router: 2,
            },
        ] {
            let net = FabricNetwork::generate(cfg);
            let n = net.num_hosts();
            for a in 0..n {
                for b in 0..n {
                    let r = net.route(HostId(a), HostId(b));
                    if a == b {
                        assert!(r.is_empty());
                        continue;
                    }
                    assert_eq!(r[0], net.topology().injection_channel(HostId(a)));
                    assert_eq!(
                        *r.last().unwrap(),
                        net.topology().ejection_channel(HostId(b))
                    );
                    // Interior (switch-switch) portion must be legal
                    // up*/down*.
                    assert!(net
                        .routing()
                        .is_legal_path(net.topology(), &r[1..r.len() - 1]));
                    assert_eq!(r, net.route(HostId(a), HostId(b)));
                }
            }
        }
    }

    #[test]
    fn bulk_routes_match_per_pair() {
        let net = FabricNetwork::generate(FabricConfig::FatTree { k_ary: 4 });
        let n = net.num_hosts();
        let mut pairs = Vec::new();
        for b in 0..n {
            pairs.push((HostId(0), HostId(b)));
            pairs.push((HostId(b), HostId(n - 1 - b)));
        }
        let (off, dat) = net.bulk_routes(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(
                &dat[off[i] as usize..off[i + 1] as usize],
                net.route(a, b).as_slice()
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn over_population_panics() {
        FabricNetwork::generate_with_hosts(FabricConfig::FatTree { k_ary: 4 }, 17);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_radix_panics() {
        FabricNetwork::generate(FabricConfig::FatTree { k_ary: 5 });
    }
}
