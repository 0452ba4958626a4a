//! Seeded random irregular switch-based networks (paper §5.2).
//!
//! The paper's evaluation platform is "an irregular switch-based network
//! with 64 processors connected by 16 eight-port switches", averaged over 10
//! different random switch interconnection topologies. This module generates
//! such networks reproducibly: hosts are spread evenly over the switches and
//! the switches' remaining ports are wired by a random connected graph
//! (random spanning tree for connectivity, then random extra links until the
//! ports run out).

use crate::graph::{HostId, SwitchId, Topology};
use crate::updown::UpDownRouting;
use crate::Network;
use optimcast_rng::{ChaCha8Rng, Rng, SliceRandom};

/// Shape of a random irregular network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrregularConfig {
    /// Number of switches.
    pub switches: u32,
    /// Ports per switch (hosts + switch links must fit).
    pub ports: u32,
    /// Number of hosts, spread as evenly as possible over the switches.
    pub hosts: u32,
}

impl Default for IrregularConfig {
    /// The paper's platform: 64 processors, 16 eight-port switches.
    fn default() -> Self {
        IrregularConfig {
            switches: 16,
            ports: 8,
            hosts: 64,
        }
    }
}

impl IrregularConfig {
    /// Hosts attached to switch `s` under even distribution (first switches
    /// absorb the remainder).
    fn hosts_on(&self, s: u32) -> u32 {
        let base = self.hosts / self.switches;
        let extra = u32::from(s < self.hosts % self.switches);
        base + extra
    }

    /// Validates that the shape is realisable: every switch can hold its
    /// hosts with at least one port to spare for the spanning tree (when
    /// there are ≥ 2 switches).
    pub fn validate(&self) -> Result<(), String> {
        if self.switches == 0 {
            return Err("need at least one switch".into());
        }
        if self.hosts == 0 {
            return Err("need at least one host".into());
        }
        let mut total_free = 0u64;
        for s in 0..self.switches {
            let h = self.hosts_on(s);
            let need_tree = u32::from(self.switches > 1);
            if h + need_tree > self.ports {
                return Err(format!(
                    "switch {s} needs {h} host ports + {need_tree} tree port(s) \
                     but has only {} ports",
                    self.ports
                ));
            }
            total_free += u64::from(self.ports - h);
        }
        // A spanning tree over S switches consumes 2(S-1) port endpoints.
        if self.switches > 1 && total_free < 2 * (u64::from(self.switches) - 1) {
            return Err(format!(
                "only {total_free} free switch ports in total; a spanning tree \
                 over {} switches needs {}",
                self.switches,
                2 * (self.switches - 1)
            ));
        }
        Ok(())
    }
}

/// A generated irregular network with its up\*/down\* routing.
#[derive(Debug, Clone)]
pub struct IrregularNetwork {
    config: IrregularConfig,
    seed: u64,
    topo: Topology,
    routing: UpDownRouting,
}

impl IrregularNetwork {
    /// Generates the network for `(config, seed)`. Deterministic: the same
    /// pair always yields the same topology and routing.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unrealisable (see
    /// [`IrregularConfig::validate`]).
    pub fn generate(config: IrregularConfig, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("bad config: {e}"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut topo = Topology::new(config.switches);

        // Attach hosts first; their ports are reserved.
        for s in 0..config.switches {
            for _ in 0..config.hosts_on(s) {
                topo.add_host(SwitchId(s));
            }
        }

        // Free switch-link ports per switch.
        let mut free: Vec<u32> = (0..config.switches)
            .map(|s| config.ports - config.hosts_on(s))
            .collect();

        // 1. Random spanning tree for guaranteed connectivity. Switches are
        //    attached in descending free-port order (random tie-break): with
        //    Σ free ≥ 2(S−1) and free ≥ 1 everywhere (checked by validate),
        //    the prefix-sum argument guarantees the growing component always
        //    retains a free port, so the greedy attachment never strands.
        if config.switches > 1 {
            let mut order: Vec<u32> = (0..config.switches).collect();
            order.shuffle(&mut rng);
            order.sort_by_key(|&s| std::cmp::Reverse(free[s as usize]));
            let mut connected = vec![order[0]];
            for &s in &order[1..] {
                let candidates: Vec<u32> = connected
                    .iter()
                    .copied()
                    .filter(|&c| free[c as usize] > 0)
                    .collect();
                // validate() guarantees every switch spares one tree port, so
                // the connected component always has a free port somewhere.
                let &peer = candidates
                    .choose(&mut rng)
                    .expect("spanning tree ran out of ports");
                topo.add_switch_link(SwitchId(peer), SwitchId(s));
                free[peer as usize] -= 1;
                free[s as usize] -= 1;
                connected.push(s);
            }
        }

        // 2. Extra random links until ports (or distinct pairs) run out.
        //    Parallel links between the same switch pair are not added.
        let mut linked: std::collections::HashSet<(u32, u32)> =
            topo.link_pairs().into_iter().collect();
        loop {
            let open: Vec<u32> = (0..config.switches)
                .filter(|&s| free[s as usize] > 0)
                .collect();
            if open.len() < 2 {
                break;
            }
            // Collect all wireable pairs; stop when none are left.
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for (i, &a) in open.iter().enumerate() {
                for &b in &open[i + 1..] {
                    if !linked.contains(&(a, b)) {
                        pairs.push((a, b));
                    }
                }
            }
            if pairs.is_empty() {
                break;
            }
            let &(a, b) = &pairs[rng.gen_range(0..pairs.len())];
            topo.add_switch_link(SwitchId(a), SwitchId(b));
            linked.insert((a, b));
            free[a as usize] -= 1;
            free[b as usize] -= 1;
        }

        debug_assert!(topo.switches_connected());
        let routing = UpDownRouting::new(&topo);
        IrregularNetwork {
            config,
            seed,
            topo,
            routing,
        }
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generation config.
    pub fn config(&self) -> IrregularConfig {
        self.config
    }

    /// The up\*/down\* routing tables.
    pub fn routing(&self) -> &UpDownRouting {
        &self.routing
    }
}

impl Network for IrregularNetwork {
    fn num_hosts(&self) -> u32 {
        self.topo.num_hosts()
    }

    fn num_channels(&self) -> u32 {
        self.topo.num_channels()
    }

    fn route(&self, from: HostId, to: HostId) -> Vec<crate::graph::ChannelId> {
        self.routing.host_route(&self.topo, from, to)
    }

    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn describe(&self) -> String {
        format!(
            "irregular network: {} hosts, {} switches x {} ports, seed {}",
            self.config.hosts, self.config.switches, self.config.ports, self.seed
        )
    }

    fn bulk_routes_into(
        &self,
        pairs: &[(HostId, HostId)],
        scratch: &mut crate::RouteScratch,
        offsets: &mut Vec<u32>,
        channels: &mut Vec<crate::graph::ChannelId>,
    ) {
        self.routing
            .bulk_host_routes(&self.topo, pairs, scratch, offsets, channels);
    }
}

impl Topology {
    /// Unordered switch pairs already linked, as `(min, max)` id pairs.
    /// Host links are ignored.
    pub fn link_pairs(&self) -> Vec<(u32, u32)> {
        use crate::graph::Endpoint;
        (0..self.num_links())
            .filter_map(|l| {
                let link = self.link(crate::graph::LinkId(l));
                match (link.a, link.b) {
                    (Endpoint::Switch(x), Endpoint::Switch(y)) => {
                        Some((x.0.min(y.0), x.0.max(y.0)))
                    }
                    _ => None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 42);
        assert_eq!(net.num_hosts(), 64);
        assert_eq!(net.topology().num_switches(), 16);
        for s in 0..16 {
            assert_eq!(net.topology().switch_hosts(SwitchId(s)).len(), 4);
            assert!(net.topology().ports_used(SwitchId(s)) <= 8);
        }
        assert!(net.topology().switches_connected());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = IrregularNetwork::generate(IrregularConfig::default(), 7);
        let b = IrregularNetwork::generate(IrregularConfig::default(), 7);
        assert_eq!(a.topology(), b.topology());
        assert_eq!(a.routing(), b.routing());
    }

    #[test]
    fn seeds_differ() {
        let a = IrregularNetwork::generate(IrregularConfig::default(), 1);
        let b = IrregularNetwork::generate(IrregularConfig::default(), 2);
        assert_ne!(a.topology(), b.topology(), "distinct seeds should differ");
    }

    #[test]
    fn all_pairs_routable_and_legal() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 3);
        let topo = net.topology();
        for a in 0..net.num_hosts() {
            for b in 0..net.num_hosts() {
                let route = net.route(HostId(a), HostId(b));
                if a == b {
                    assert!(route.is_empty());
                    continue;
                }
                assert!(route.len() >= 2);
                assert_eq!(route[0], topo.injection_channel(HostId(a)));
                assert_eq!(*route.last().unwrap(), topo.ejection_channel(HostId(b)));
                // Interior is a legal up*/down* switch path.
                assert!(net
                    .routing()
                    .is_legal_path(topo, &route[1..route.len() - 1]));
            }
        }
    }

    #[test]
    fn no_parallel_switch_links() {
        for seed in 0..5 {
            let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
            let mut pairs = net.topology().link_pairs();
            let total = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), total, "seed {seed} produced parallel links");
        }
    }

    #[test]
    fn small_configs_work() {
        let cfg = IrregularConfig {
            switches: 4,
            ports: 4,
            hosts: 8,
        };
        let net = IrregularNetwork::generate(cfg, 0);
        assert_eq!(net.num_hosts(), 8);
        assert!(net.topology().switches_connected());
    }

    #[test]
    fn single_switch_config() {
        let cfg = IrregularConfig {
            switches: 1,
            ports: 8,
            hosts: 6,
        };
        let net = IrregularNetwork::generate(cfg, 0);
        assert_eq!(net.route(HostId(0), HostId(5)).len(), 2);
    }

    #[test]
    fn uneven_host_distribution() {
        let cfg = IrregularConfig {
            switches: 3,
            ports: 8,
            hosts: 7,
        };
        let net = IrregularNetwork::generate(cfg, 0);
        let t = net.topology();
        assert_eq!(t.switch_hosts(SwitchId(0)).len(), 3);
        assert_eq!(t.switch_hosts(SwitchId(1)).len(), 2);
        assert_eq!(t.switch_hosts(SwitchId(2)).len(), 2);
    }

    #[test]
    fn validate_rejects_overfull() {
        let cfg = IrregularConfig {
            switches: 2,
            ports: 4,
            hosts: 8, // 4 hosts per switch leaves no tree port
        };
        assert!(cfg.validate().is_err());
    }

    /// The CSR adjacency must agree with nested adjacency lists rebuilt
    /// naively from the flat link/host tables (the layout `Topology` used
    /// before the CSR conversion).
    #[test]
    fn csr_adjacency_matches_nested_vec_reference() {
        use crate::graph::{Endpoint, LinkId};
        for seed in 0..5u64 {
            let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
            let t = net.topology();
            let s = t.num_switches() as usize;
            let mut switch_links: Vec<Vec<LinkId>> = vec![Vec::new(); s];
            let mut switch_hosts: Vec<Vec<HostId>> = vec![Vec::new(); s];
            for l in 0..t.num_links() {
                let link = t.link(LinkId(l));
                match (link.a, link.b) {
                    (Endpoint::Switch(x), Endpoint::Switch(y)) => {
                        switch_links[x.index()].push(LinkId(l));
                        switch_links[y.index()].push(LinkId(l));
                    }
                    (Endpoint::Host(h), Endpoint::Switch(y)) => {
                        switch_hosts[y.index()].push(h);
                    }
                    _ => unreachable!("host links are host → switch"),
                }
            }
            for sw in 0..s {
                let id = SwitchId(sw as u32);
                assert_eq!(t.switch_links(id), switch_links[sw].as_slice());
                assert_eq!(t.switch_hosts(id), switch_hosts[sw].as_slice());
                let (links, peers) = t.switch_peers(id);
                assert_eq!(links, switch_links[sw].as_slice());
                for (&l, &p) in links.iter().zip(peers) {
                    let link = t.link(l);
                    match (link.a, link.b) {
                        (Endpoint::Switch(x), Endpoint::Switch(y)) => {
                            assert!(x == id && y == p || y == id && x == p);
                        }
                        _ => panic!("switch link with host endpoint"),
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_routes_match_per_pair_on_irregular() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 9);
        let mut pairs = Vec::new();
        for b in 0..net.num_hosts() {
            pairs.push((HostId(0), HostId(b)));
            pairs.push((HostId(b), HostId(0)));
            pairs.push((HostId(b), HostId((b + 17) % net.num_hosts())));
        }
        let (off, dat) = net.bulk_routes(&pairs);
        assert_eq!(off.len(), pairs.len() + 1);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(
                &dat[off[i] as usize..off[i + 1] as usize],
                net.route(a, b).as_slice(),
                "pair {a}->{b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad config")]
    fn generate_panics_on_bad_config() {
        IrregularNetwork::generate(
            IrregularConfig {
                switches: 2,
                ports: 1,
                hosts: 4,
            },
            0,
        );
    }
}
