//! Physical topology: hosts, switches, links, and directed channels.
//!
//! A topology is a set of *switches* interconnected by bidirectional *links*,
//! with each *host* (processor) attached to exactly one switch through its
//! own access link. Every bidirectional link is modelled as two directed
//! [`ChannelId`]s — wormhole contention is per *directed* channel: two
//! messages crossing the same physical cable in opposite directions do not
//! contend.

use std::fmt;
use std::sync::OnceLock;

/// A processor (host) identifier, dense `0..num_hosts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u32);

impl HostId {
    /// Index into host-sized arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A switch identifier, dense `0..num_switches`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SwitchId(pub u32);

impl SwitchId {
    /// Index into switch-sized arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A bidirectional link identifier, dense `0..num_links`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into link-sized arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The directed channel from endpoint `a` to endpoint `b` of this link.
    #[inline]
    pub fn forward(self) -> ChannelId {
        ChannelId(self.0 * 2)
    }

    /// The directed channel from endpoint `b` to endpoint `a` of this link.
    #[inline]
    pub fn backward(self) -> ChannelId {
        ChannelId(self.0 * 2 + 1)
    }
}

/// A directed channel: one direction of a bidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// Index into channel-sized arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The link this channel belongs to.
    #[inline]
    pub fn link(self) -> LinkId {
        LinkId(self.0 / 2)
    }

    /// True for the `a → b` direction of the link.
    #[inline]
    fn is_forward(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The opposite direction of the same link.
    #[inline]
    pub fn reverse(self) -> ChannelId {
        ChannelId(self.0 ^ 1)
    }
}

/// One end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A processor.
    Host(HostId),
    /// A switch.
    Switch(SwitchId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Host(h) => write!(f, "{h}"),
            Endpoint::Switch(s) => write!(f, "{s}"),
        }
    }
}

/// A bidirectional link between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// First endpoint (the `forward` channel's source).
    pub a: Endpoint,
    /// Second endpoint (the `forward` channel's destination).
    pub b: Endpoint,
}

/// Per-switch adjacency in compressed-sparse-row form, derived lazily from
/// the flat link/host tables. At mega scale (thousands of switches, tens of
/// thousands of hosts) the former nested `Vec<Vec<_>>` layout cost one heap
/// allocation per switch twice over; the CSR arrays are four allocations
/// total and iterate cache-linearly.
#[derive(Debug)]
struct CsrAdj {
    /// `link_off[s]..link_off[s + 1]` indexes `link_dat`/`link_peer`.
    link_off: Vec<u32>,
    /// Incident switch–switch links, per switch in insertion order.
    link_dat: Vec<LinkId>,
    /// Parallel to `link_dat`: the neighbouring switch across that link.
    link_peer: Vec<SwitchId>,
    /// `host_off[s]..host_off[s + 1]` indexes `host_dat`.
    host_off: Vec<u32>,
    /// Attached hosts, per switch in attachment order.
    host_dat: Vec<HostId>,
}

/// A switch-based network topology under construction or in use.
///
/// Invariants maintained by the builder methods:
/// * every host is attached to exactly one switch via its own access link;
/// * switch–switch links connect distinct switches;
/// * port counts are tracked per switch (hosts + switch links).
///
/// Adjacency queries ([`Self::switch_links`], [`Self::switch_hosts`],
/// [`Self::switch_peers`]) are served from a CSR index built on first use
/// and invalidated by the mutating builder methods; identity (equality,
/// hashing of the link tables) depends only on the flat link/host tables.
pub struct Topology {
    num_switches: u32,
    links: Vec<Link>,
    /// Per host: the switch it hangs off.
    host_switch: Vec<SwitchId>,
    /// Per host: its access link (host is endpoint `a`).
    host_link: Vec<LinkId>,
    /// Lazy CSR adjacency over `links`/`host_switch`.
    adj: OnceLock<CsrAdj>,
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("num_switches", &self.num_switches)
            .field("links", &self.links)
            .field("host_switch", &self.host_switch)
            .field("host_link", &self.host_link)
            .finish()
    }
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        // The CSR cache is derived state; the clone rebuilds it on demand.
        Topology {
            num_switches: self.num_switches,
            links: self.links.clone(),
            host_switch: self.host_switch.clone(),
            host_link: self.host_link.clone(),
            adj: OnceLock::new(),
        }
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.num_switches == other.num_switches
            && self.links == other.links
            && self.host_switch == other.host_switch
            && self.host_link == other.host_link
    }
}

impl Eq for Topology {}

impl Topology {
    /// An empty topology with `num_switches` switches and no hosts or links.
    pub fn new(num_switches: u32) -> Self {
        Topology {
            num_switches,
            links: Vec::new(),
            host_switch: Vec::new(),
            host_link: Vec::new(),
            adj: OnceLock::new(),
        }
    }

    /// The CSR adjacency, built on first use. Construction is a counting
    /// sort over the link table, so per-switch entries come out in link
    /// insertion order — exactly the order the former nested-Vec layout
    /// maintained incrementally.
    fn adj(&self) -> &CsrAdj {
        self.adj.get_or_init(|| {
            let s = self.num_switches as usize;
            let mut link_off = vec![0u32; s + 1];
            for link in &self.links {
                if let (Endpoint::Switch(a), Endpoint::Switch(b)) = (link.a, link.b) {
                    link_off[a.index() + 1] += 1;
                    link_off[b.index() + 1] += 1;
                }
            }
            for i in 0..s {
                link_off[i + 1] += link_off[i];
            }
            let total = link_off[s] as usize;
            let mut cursor: Vec<u32> = link_off[..s].to_vec();
            let mut link_dat = vec![LinkId(0); total];
            let mut link_peer = vec![SwitchId(0); total];
            for (l, link) in self.links.iter().enumerate() {
                if let (Endpoint::Switch(a), Endpoint::Switch(b)) = (link.a, link.b) {
                    let i = cursor[a.index()] as usize;
                    cursor[a.index()] += 1;
                    link_dat[i] = LinkId(l as u32);
                    link_peer[i] = b;
                    let j = cursor[b.index()] as usize;
                    cursor[b.index()] += 1;
                    link_dat[j] = LinkId(l as u32);
                    link_peer[j] = a;
                }
            }
            let mut host_off = vec![0u32; s + 1];
            for sw in &self.host_switch {
                host_off[sw.index() + 1] += 1;
            }
            for i in 0..s {
                host_off[i + 1] += host_off[i];
            }
            let mut cursor: Vec<u32> = host_off[..s].to_vec();
            let mut host_dat = vec![HostId(0); self.host_switch.len()];
            for (h, sw) in self.host_switch.iter().enumerate() {
                let i = cursor[sw.index()] as usize;
                cursor[sw.index()] += 1;
                host_dat[i] = HostId(h as u32);
            }
            CsrAdj {
                link_off,
                link_dat,
                link_peer,
                host_off,
                host_dat,
            }
        })
    }

    /// Attaches a new host to `switch`, returning its id. The access link's
    /// `forward` channel is host → switch (injection).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    pub fn add_host(&mut self, switch: SwitchId) -> HostId {
        assert!(
            switch.index() < self.num_switches as usize,
            "no such switch"
        );
        let host = HostId(self.host_switch.len() as u32);
        let link = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a: Endpoint::Host(host),
            b: Endpoint::Switch(switch),
        });
        self.host_switch.push(switch);
        self.host_link.push(link);
        self.adj.take();
        host
    }

    /// Connects two distinct switches with a new link (forward channel is
    /// `s1 → s2`), returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the switches are equal or out of range.
    pub fn add_switch_link(&mut self, s1: SwitchId, s2: SwitchId) -> LinkId {
        assert_ne!(s1, s2, "self-links are not allowed");
        assert!(
            s1.index() < self.num_switches as usize,
            "no such switch {s1}"
        );
        assert!(
            s2.index() < self.num_switches as usize,
            "no such switch {s2}"
        );
        let link = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a: Endpoint::Switch(s1),
            b: Endpoint::Switch(s2),
        });
        self.adj.take();
        link
    }

    /// Number of switches.
    pub fn num_switches(&self) -> u32 {
        self.num_switches
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.host_switch.len() as u32
    }

    /// Number of bidirectional links (host access links included).
    pub fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Number of directed channels (`2 × num_links`).
    pub fn num_channels(&self) -> u32 {
        self.num_links() * 2
    }

    /// The link record.
    pub fn link(&self, l: LinkId) -> Link {
        self.links[l.index()]
    }

    /// Source and destination endpoints of a directed channel.
    pub fn channel_endpoints(&self, c: ChannelId) -> (Endpoint, Endpoint) {
        let l = self.link(c.link());
        if c.is_forward() {
            (l.a, l.b)
        } else {
            (l.b, l.a)
        }
    }

    /// The switch a host is attached to.
    pub fn host_switch(&self, h: HostId) -> SwitchId {
        self.host_switch[h.index()]
    }

    /// The host's access link.
    fn host_link(&self, h: HostId) -> LinkId {
        self.host_link[h.index()]
    }

    /// The injection channel (host → its switch).
    pub fn injection_channel(&self, h: HostId) -> ChannelId {
        self.host_link(h).forward()
    }

    /// The ejection channel (switch → host).
    pub fn ejection_channel(&self, h: HostId) -> ChannelId {
        self.host_link(h).backward()
    }

    /// Hosts attached to a switch, in attachment order.
    pub fn switch_hosts(&self, s: SwitchId) -> &[HostId] {
        let adj = self.adj();
        &adj.host_dat[adj.host_off[s.index()] as usize..adj.host_off[s.index() + 1] as usize]
    }

    /// Switch–switch links incident to `s`, in insertion order.
    pub fn switch_links(&self, s: SwitchId) -> &[LinkId] {
        let adj = self.adj();
        &adj.link_dat[adj.link_off[s.index()] as usize..adj.link_off[s.index() + 1] as usize]
    }

    /// Incident links and neighbouring switches of `s` as two parallel
    /// slices, insertion order. Allocation-free — this is the form routing
    /// passes should iterate.
    pub fn switch_peers(&self, s: SwitchId) -> (&[LinkId], &[SwitchId]) {
        let adj = self.adj();
        let range = adj.link_off[s.index()] as usize..adj.link_off[s.index() + 1] as usize;
        (&adj.link_dat[range.clone()], &adj.link_peer[range])
    }

    /// The CSR arrays behind [`Self::switch_peers`], for passes that keep a
    /// side table per adjacency slot: switch `s` owns slots
    /// `offsets[s]..offsets[s + 1]`, and `peers[slot]` is the neighbouring
    /// switch across that slot's link (insertion order).
    pub fn switch_peer_slots(&self) -> (&[u32], &[SwitchId]) {
        let adj = self.adj();
        (&adj.link_off, &adj.link_peer)
    }

    /// Neighbouring switches of `s` as `(link, neighbour)`, insertion order.
    pub fn switch_neighbors(&self, s: SwitchId) -> Vec<(LinkId, SwitchId)> {
        let (links, peers) = self.switch_peers(s);
        links.iter().copied().zip(peers.iter().copied()).collect()
    }

    /// Ports in use at `s`: attached hosts plus incident switch links.
    pub fn ports_used(&self, s: SwitchId) -> u32 {
        (self.switch_hosts(s).len() + self.switch_links(s).len()) as u32
    }

    /// The directed channel from switch `from` to switch `to`, if any link
    /// connects them (first matching link in insertion order).
    pub fn switch_channel(&self, from: SwitchId, to: SwitchId) -> Option<ChannelId> {
        self.switch_links(from).iter().find_map(|&l| {
            let link = self.link(l);
            match (link.a, link.b) {
                (Endpoint::Switch(x), Endpoint::Switch(y)) if x == from && y == to => {
                    Some(l.forward())
                }
                (Endpoint::Switch(x), Endpoint::Switch(y)) if y == from && x == to => {
                    Some(l.backward())
                }
                _ => None,
            }
        })
    }

    /// True if the switch graph (ignoring hosts) is connected. Vacuously
    /// true for fewer than two switches.
    pub fn switches_connected(&self) -> bool {
        if self.num_switches <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_switches as usize];
        let mut stack = vec![SwitchId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(s) = stack.pop() {
            let (_, peers) = self.switch_peers(s);
            for &nb in peers {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.num_switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        // s0 - s1, two hosts on each.
        let mut t = Topology::new(2);
        t.add_host(SwitchId(0));
        t.add_host(SwitchId(0));
        t.add_host(SwitchId(1));
        t.add_host(SwitchId(1));
        t.add_switch_link(SwitchId(0), SwitchId(1));
        t
    }

    #[test]
    fn counts() {
        let t = tiny();
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_hosts(), 4);
        assert_eq!(t.num_links(), 5);
        assert_eq!(t.num_channels(), 10);
        assert_eq!(t.ports_used(SwitchId(0)), 3);
        assert_eq!(t.ports_used(SwitchId(1)), 3);
    }

    #[test]
    fn host_attachment() {
        let t = tiny();
        assert_eq!(t.host_switch(HostId(0)), SwitchId(0));
        assert_eq!(t.host_switch(HostId(3)), SwitchId(1));
        assert_eq!(t.switch_hosts(SwitchId(0)), &[HostId(0), HostId(1)]);
        assert_eq!(t.switch_hosts(SwitchId(1)), &[HostId(2), HostId(3)]);
    }

    #[test]
    fn channel_directions() {
        let t = tiny();
        let inj = t.injection_channel(HostId(0));
        let (src, dst) = t.channel_endpoints(inj);
        assert_eq!(src, Endpoint::Host(HostId(0)));
        assert_eq!(dst, Endpoint::Switch(SwitchId(0)));
        let ej = t.ejection_channel(HostId(0));
        let (src, dst) = t.channel_endpoints(ej);
        assert_eq!(src, Endpoint::Switch(SwitchId(0)));
        assert_eq!(dst, Endpoint::Host(HostId(0)));
        assert_eq!(inj.reverse(), ej);
        assert_eq!(inj.link(), ej.link());
    }

    #[test]
    fn switch_channel_lookup() {
        let t = tiny();
        let fwd = t.switch_channel(SwitchId(0), SwitchId(1)).unwrap();
        let bwd = t.switch_channel(SwitchId(1), SwitchId(0)).unwrap();
        assert_eq!(fwd.reverse(), bwd);
        let (src, dst) = t.channel_endpoints(fwd);
        assert_eq!(src, Endpoint::Switch(SwitchId(0)));
        assert_eq!(dst, Endpoint::Switch(SwitchId(1)));
        assert!(t.switch_channel(SwitchId(0), SwitchId(0)).is_none());
    }

    #[test]
    fn neighbors() {
        let t = tiny();
        let nb = t.switch_neighbors(SwitchId(0));
        assert_eq!(nb.len(), 1);
        assert_eq!(nb[0].1, SwitchId(1));
    }

    #[test]
    fn connectivity() {
        let t = tiny();
        assert!(t.switches_connected());
        let mut u = Topology::new(3);
        u.add_switch_link(SwitchId(0), SwitchId(1));
        assert!(!u.switches_connected());
        u.add_switch_link(SwitchId(2), SwitchId(1));
        assert!(u.switches_connected());
        assert!(Topology::new(0).switches_connected());
        assert!(Topology::new(1).switches_connected());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        Topology::new(2).add_switch_link(SwitchId(1), SwitchId(1));
    }

    #[test]
    fn channel_id_arithmetic() {
        let l = LinkId(7);
        assert_eq!(l.forward().link(), l);
        assert_eq!(l.backward().link(), l);
        assert!(l.forward().is_forward());
        assert!(!l.backward().is_forward());
        assert_eq!(l.forward().reverse(), l.backward());
        assert_eq!(l.backward().reverse(), l.forward());
    }
}

impl Topology {
    /// Renders the physical topology as a Graphviz `dot` graph: boxes for
    /// switches, circles for hosts, one undirected edge per link.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph topology {\n  layout=neato;\n");
        for s in 0..self.num_switches {
            let _ = writeln!(out, "  s{s} [shape=box];");
        }
        for h in 0..self.num_hosts() {
            let _ = writeln!(out, "  h{h} [shape=circle];");
        }
        for l in 0..self.num_links() {
            let link = self.link(LinkId(l));
            let _ = writeln!(out, "  {} -- {};", link.a, link.b);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_covers_all_elements() {
        let mut t = Topology::new(2);
        t.add_host(SwitchId(0));
        t.add_host(SwitchId(1));
        t.add_switch_link(SwitchId(0), SwitchId(1));
        let dot = t.to_dot();
        assert!(dot.contains("s0 [shape=box]"));
        assert!(dot.contains("h1 [shape=circle]"));
        assert_eq!(dot.matches(" -- ").count(), 3); // 2 host links + 1 switch link
        assert!(dot.contains("s0 -- s1"));
    }
}
