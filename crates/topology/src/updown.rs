//! up\*/down\* routing for irregular switch networks.
//!
//! up\*/down\* (Autonet-style) routing is the standard deadlock-free routing
//! for irregular switch-based networks, and the routing the paper's
//! evaluation (and its CCO ordering, from \[Kesavan-Bondalapati-Panda,
//! HPCA'97\]) assumes. A breadth-first spanning tree is built from a root
//! switch; every switch–switch channel is oriented *up* (towards the root:
//! lower BFS level, ties broken by lower switch id) or *down*. A legal route
//! is zero or more up channels followed by zero or more down channels —
//! acyclic by construction, hence deadlock-free.
//!
//! Routes are computed *on demand*: a [`SingleSourcePaths`] pass runs one
//! deterministic BFS over `(switch, phase)` states from a source switch and
//! can then extract the shortest legal path to any destination. The former
//! eager all-pairs table was O(S²·path-len) memory — hopeless at mega scale
//! (a 65,536-host fat-tree has 5,120 switches) — while a multicast job only
//! ever needs the O(n) routes of its tree edges. [`bulk_host_routes`] groups
//! those edges by source switch so each distinct source pays for at most one
//! BFS pass.
//!
//! A route query's pass stops once the switches it will extract are
//! settled: after the last of them is first discovered, at depth `D`, the
//! pass ends when the queue head reaches depth `D`. This is exact, not a
//! heuristic. BFS discovers states in non-decreasing depth and fixes each
//! predecessor at first discovery, so by then every state of depth ≤ `D`
//! and every predecessor chain through them is final; extraction takes a
//! destination's shallower phase, phase 0 on ties, and any state found
//! later is deeper. On a k = 64 fat-tree most source switches send only
//! within their pod, so their passes never touch the other 63 pods. Only
//! [`UpDownRouting::single_source`], which can extract any switch's path,
//! runs to exhaustion.
//!
//! A BFS step does no link lookups. Each call first builds an *oriented hop
//! table* in O(E): one `u32` per slot of the topology's CSR adjacency
//! ([`Topology::switch_peer_slots`]) holding the directed channel leaving
//! that switch, with the up bit packed into bit 31. The pass then walks the
//! peer slots and this table side by side. The table lives in the caller's
//! [`RouteScratch`], not in the routing — a 65,536-host fat-tree has 262,144
//! slots, and keeping that 1 MiB resident would add it to the simulation's
//! heap peak — so a one-shot build frees it on return, while a caller that
//! routes batch after batch (a stream's membership epochs) reuses it and
//! allocates nothing. Each pass records
//! the BFS depth of every state beside its predecessor, so extracting a path
//! walks the predecessor chain once. Determinism is unchanged: the pass
//! expands neighbours in link insertion order and breaks phase ties exactly
//! as the old table builder did, so extracted paths are byte-identical.
//!
//! [`bulk_host_routes`]: UpDownRouting::bulk_host_routes

use crate::graph::{ChannelId, Endpoint, HostId, SwitchId, Topology};
use std::collections::VecDeque;

/// Bit 31 of a hop-table entry: the slot's channel points up.
const UP_BIT: u32 = 1 << 31;

/// [`StateRec::depth`] of a state the pass has not reached.
const UNSEEN: u32 = u32::MAX;

/// Precomputed up\*/down\* orientation state for one topology (root, BFS
/// levels, spanning tree in CSR form). Paths are derived lazily.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpDownRouting {
    root: SwitchId,
    level: Vec<u32>,
    /// CSR offsets into `child_dat`: children of `s` are
    /// `child_dat[child_off[s]..child_off[s + 1]]`, in discovery order.
    child_off: Vec<u32>,
    child_dat: Vec<SwitchId>,
}

/// The adjacency one call's BFS passes walk: the topology's CSR slots and
/// the oriented hop table aligned with them.
struct HopGraph<'a> {
    /// Switch `s` owns slots `offsets[s]..offsets[s + 1]`.
    offsets: &'a [u32],
    /// Neighbouring switch per slot.
    peers: &'a [SwitchId],
    /// Channel leaving the slot's switch, `| UP_BIT` if it points up.
    hops: &'a [u32],
}

/// Working storage for batch route extraction
/// ([`crate::Network::bulk_routes_into`]): the oriented hop table, one BFS
/// pass's state array and queue, the pairs grouped by source switch, and
/// the routes in group order. A caller that routes many batches keeps one
/// and, once its buffers have grown, allocates nothing per batch. Its
/// contents between calls are meaningless; any topology may use it next.
#[derive(Debug, Default)]
pub struct RouteScratch {
    hops: Vec<u32>,
    paths: SingleSourcePaths,
    queue: Vec<u32>,
    /// Group index of each source switch, `u32::MAX` if none yet.
    group_of: Vec<u32>,
    /// Per switch, the last group that routes to it: the group's BFS
    /// targets are the switches stamped with its index.
    target_of: Vec<u32>,
    /// `(source switch, end of its run in `order`)` per group.
    groups: Vec<(SwitchId, u32)>,
    /// Pair indices, grouped by source switch in first-appearance order.
    order: Vec<u32>,
    /// Routes in group order, and each pair's span of them.
    flat: Vec<ChannelId>,
    span: Vec<(u32, u32)>,
}

/// The switches a pass must settle before it may stop; none is the pass's
/// source switch.
#[derive(Debug, Clone, Copy)]
enum Targets<'a> {
    /// No bound: the pass runs until the queue is empty.
    All,
    /// One switch.
    One(SwitchId),
    /// `count` distinct switches: those `s` with `stamp[s] == mark`.
    Marked {
        stamp: &'a [u32],
        mark: u32,
        count: u32,
    },
}

impl Targets<'_> {
    /// How many switches the pass must settle (irrelevant for `All`).
    fn count(self) -> u32 {
        match self {
            Targets::All => 0,
            Targets::One(_) => 1,
            Targets::Marked { count, .. } => count,
        }
    }

    fn contains(self, s: SwitchId) -> bool {
        match self {
            Targets::All => false,
            Targets::One(t) => t == s,
            Targets::Marked { stamp, mark, .. } => stamp[s.index()] == mark,
        }
    }
}

/// How a pass reached one `(switch, phase)` state.
#[derive(Debug, Clone, Copy)]
struct StateRec {
    /// Predecessor state.
    prev: u32,
    /// Channel taken from `prev`.
    channel: ChannelId,
    /// BFS depth: 0 for the start state, [`UNSEEN`] if never reached.
    depth: u32,
}

/// One single-source shortest-legal-path pass: the predecessor forest of a
/// BFS over `(switch, phase)` states, phase 0 = may still ascend, phase 1 =
/// descend only. Extract paths with [`Self::path_to`] / [`Self::extend_path_to`].
///
/// The routing's own route queries ([`UpDownRouting::host_route`],
/// [`UpDownRouting::switch_path`], [`UpDownRouting::bulk_host_routes`]) bound
/// each pass by the switches they will extract: the BFS stops when its
/// queue head reaches the depth at which the last of them was first
/// discovered. Their paths are then exactly an exhaustive pass's, because
/// BFS fixes a state's predecessor at first discovery and extraction takes
/// the shallower phase (phase 0 on ties), which is already discovered. A
/// pass from [`UpDownRouting::single_source`] is not bounded: every
/// switch's path can be extracted from it.
#[derive(Debug, Default)]
pub struct SingleSourcePaths {
    from: SwitchId,
    /// Indexed by `state = switch * 2 + phase`.
    states: Vec<StateRec>,
}

impl UpDownRouting {
    /// Builds routing with the conventional root choice: the
    /// highest-connectivity switch (most switch links), ties to the lowest
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no switches or its switch graph is
    /// disconnected (no legal route would exist between some pairs).
    pub fn new(topo: &Topology) -> Self {
        let root = (0..topo.num_switches())
            .map(SwitchId)
            .max_by_key(|&s| (topo.switch_links(s).len(), std::cmp::Reverse(s.0)))
            .expect("topology has no switches");
        Self::with_root(topo, root)
    }

    /// Builds routing rooted at a specific switch.
    ///
    /// # Panics
    ///
    /// Panics if the switch graph is disconnected or `root` is out of range.
    pub fn with_root(topo: &Topology, root: SwitchId) -> Self {
        let s = topo.num_switches() as usize;
        assert!(root.index() < s, "root switch out of range");
        assert!(
            topo.switches_connected(),
            "up*/down* routing requires a connected switch graph"
        );

        // BFS spanning tree and levels. Children of each parent are
        // discovered consecutively when the parent is popped, so `pairs`
        // comes out grouped by parent in BFS order; the stable counting
        // sort below re-keys the groups by switch id without disturbing
        // each parent's discovery order.
        let mut level = vec![u32::MAX; s];
        let mut pairs: Vec<(SwitchId, SwitchId)> = Vec::new();
        let mut queue = VecDeque::new();
        level[root.index()] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let (_, peers) = topo.switch_peers(u);
            for &nb in peers {
                if level[nb.index()] == u32::MAX {
                    level[nb.index()] = level[u.index()] + 1;
                    pairs.push((u, nb));
                    queue.push_back(nb);
                }
            }
        }

        let mut child_off = vec![0u32; s + 1];
        for &(p, _) in &pairs {
            child_off[p.index() + 1] += 1;
        }
        for i in 0..s {
            child_off[i + 1] += child_off[i];
        }
        let mut cursor: Vec<u32> = child_off[..s].to_vec();
        let mut child_dat = vec![SwitchId(0); pairs.len()];
        for &(p, c) in &pairs {
            let i = cursor[p.index()] as usize;
            cursor[p.index()] += 1;
            child_dat[i] = c;
        }

        UpDownRouting {
            root,
            level,
            child_off,
            child_dat,
        }
    }

    /// The root switch of the up\*/down\* orientation.
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// BFS level (distance from root) of a switch.
    pub fn level(&self, s: SwitchId) -> u32 {
        self.level[s.index()]
    }

    /// BFS spanning-tree children of a switch, in discovery order.
    pub fn tree_children(&self, s: SwitchId) -> &[SwitchId] {
        &self.child_dat[self.child_off[s.index()] as usize..self.child_off[s.index() + 1] as usize]
    }

    /// Whether a switch–switch channel points *up* (towards the root).
    ///
    /// # Panics
    ///
    /// Panics if the channel touches a host (host links have no up/down
    /// orientation).
    pub fn is_up(&self, topo: &Topology, c: ChannelId) -> bool {
        let (from, to) = topo.channel_endpoints(c);
        match (from, to) {
            (Endpoint::Switch(x), Endpoint::Switch(y)) => self.points_up(x, y),
            _ => panic!("up/down orientation is defined only on switch links"),
        }
    }

    /// The orientation rule: `x → y` is up iff `y` is nearer the root,
    /// ties to the lower id.
    fn points_up(&self, x: SwitchId, y: SwitchId) -> bool {
        (self.level(y), y.0) < (self.level(x), x.0)
    }

    /// Writes the oriented hop table over `topo`'s CSR adjacency slots into
    /// `hops`.
    fn fill_hops(&self, topo: &Topology, hops: &mut Vec<u32>) {
        assert!(
            topo.num_channels() <= UP_BIT,
            "channel ids must leave bit 31 free for the up bit"
        );
        hops.clear();
        hops.reserve_exact(topo.switch_peer_slots().1.len());
        for s in (0..topo.num_switches()).map(SwitchId) {
            let (links, nbs) = topo.switch_peers(s);
            for (&l, &nb) in links.iter().zip(nbs) {
                // A switch link's endpoints differ, so `s` is `b` when not `a`.
                let c = match topo.link(l).a {
                    Endpoint::Switch(a) if a == s => l.forward(),
                    _ => l.backward(),
                };
                hops.push(c.0 | if self.points_up(s, nb) { UP_BIT } else { 0 });
            }
        }
    }

    /// Runs one shortest-legal-path BFS from `from` over `(switch, phase)`
    /// states: phase 0 may still ascend, phase 1 may only descend.
    /// Deterministic: neighbours expanded in link insertion order.
    pub fn single_source(&self, topo: &Topology, from: SwitchId) -> SingleSourcePaths {
        self.pass(topo, from, Targets::All)
    }

    /// One pass from `from` over a fresh hop table, bounded by `targets`.
    fn pass(&self, topo: &Topology, from: SwitchId, targets: Targets<'_>) -> SingleSourcePaths {
        let mut hops = Vec::new();
        self.fill_hops(topo, &mut hops);
        let (offsets, peers) = topo.switch_peer_slots();
        let graph = HopGraph {
            offsets,
            peers,
            hops: &hops,
        };
        let mut paths = SingleSourcePaths::default();
        let mut queue = Vec::new();
        paths.size_for(topo.num_switches() as usize, &mut queue);
        paths.search(&graph, from, targets, &mut queue);
        paths
    }

    /// Shortest legal path between two switches, computed on demand (empty
    /// iff `from == to`). One BFS pass per call, stopped once `to` is
    /// settled — batch queries that share a source through
    /// [`Self::single_source`] or [`Self::bulk_host_routes`].
    pub fn switch_path(&self, topo: &Topology, from: SwitchId, to: SwitchId) -> Vec<ChannelId> {
        if from == to {
            return Vec::new();
        }
        self.pass(topo, from, Targets::One(to)).path_to(to)
    }

    /// Full host-to-host route: injection channel, switch path, ejection
    /// channel. Empty iff `from == to`.
    pub fn host_route(&self, topo: &Topology, from: HostId, to: HostId) -> Vec<ChannelId> {
        if from == to {
            return Vec::new();
        }
        let sf = topo.host_switch(from);
        let st = topo.host_switch(to);
        let mut route = Vec::new();
        route.push(topo.injection_channel(from));
        if sf != st {
            self.pass(topo, sf, Targets::One(st))
                .extend_path_to(st, &mut route);
        }
        route.push(topo.ejection_channel(to));
        route
    }

    /// Routes for a batch of host pairs, CSR-packed in pair order and
    /// written over `offsets` and `channels`: the route of `pairs[i]` is
    /// `channels[offsets[i]..offsets[i + 1]]`.
    ///
    /// Pairs are grouped by source switch (a counting sort, first-appearance
    /// order) so each distinct source switch runs at most one BFS pass over
    /// one shared hop table — for a multicast tree bound to n hosts on S
    /// switches this is O(min(n, S)) passes instead of the former all-pairs
    /// O(S²) table. A pass stops as soon as the group's distinct destination
    /// switches are settled: when the queue head reaches the depth at which
    /// the last of them was first discovered, every state up to that depth
    /// is discovered and no later state can win (BFS fixes predecessors at
    /// first discovery, and extraction takes the shallower phase, phase 0 on
    /// ties). On a fat-tree most groups send within their own pod, so their
    /// passes never leave it; a group whose destinations all sit on its
    /// source switch runs no pass at all. Each extracted route is
    /// byte-identical to the corresponding [`Self::host_route`] call. All
    /// working storage is `scratch`'s, so a warm scratch and outputs
    /// allocate nothing.
    pub fn bulk_host_routes(
        &self,
        topo: &Topology,
        pairs: &[(HostId, HostId)],
        scratch: &mut RouteScratch,
        offsets: &mut Vec<u32>,
        channels: &mut Vec<ChannelId>,
    ) {
        let RouteScratch {
            hops,
            paths,
            queue,
            group_of,
            target_of,
            groups,
            order,
            flat,
            span,
        } = scratch;
        let s = topo.num_switches() as usize;
        // Count the pairs of each source switch, first-appearance order,
        // then turn the counts into run ends and deal the pairs out.
        group_of.clear();
        group_of.resize(s, u32::MAX);
        groups.clear();
        for &(from, to) in pairs {
            if from == to {
                continue; // empty route, nothing to compute
            }
            let sf = topo.host_switch(from);
            let g = &mut group_of[sf.index()];
            if *g == u32::MAX {
                *g = groups.len() as u32;
                groups.push((sf, 0));
            }
            groups[*g as usize].1 += 1;
        }
        let mut end = 0;
        for (_, count) in groups.iter_mut() {
            end += std::mem::replace(count, end);
        }
        order.clear();
        order.resize(end as usize, 0);
        for (i, &(from, to)) in pairs.iter().enumerate() {
            if from != to {
                let g = group_of[topo.host_switch(from).index()] as usize;
                order[groups[g].1 as usize] = i as u32;
                groups[g].1 += 1;
            }
        }

        // Extract group by group into one flat buffer, remembering each
        // pair's span; self pairs keep the empty span.
        self.fill_hops(topo, hops);
        let (slot_offsets, peers) = topo.switch_peer_slots();
        let graph = HopGraph {
            offsets: slot_offsets,
            peers,
            hops,
        };
        paths.size_for(s, queue);
        target_of.clear();
        target_of.resize(s, u32::MAX);
        flat.clear();
        span.clear();
        span.resize(pairs.len(), (0, 0));
        let mut lo = 0;
        for (g, &(sf, hi)) in groups.iter().enumerate() {
            let group = &order[lo as usize..hi as usize];
            let mark = g as u32;
            let mut count = 0;
            for &i in group {
                let st = topo.host_switch(pairs[i as usize].1);
                if st != sf && std::mem::replace(&mut target_of[st.index()], mark) != mark {
                    count += 1;
                }
            }
            if count > 0 {
                let targets = Targets::Marked {
                    stamp: target_of,
                    mark,
                    count,
                };
                paths.search(&graph, sf, targets, queue);
            }
            for &i in group {
                let (from, to) = pairs[i as usize];
                let st = topo.host_switch(to);
                let start = flat.len() as u32;
                flat.push(topo.injection_channel(from));
                if sf != st {
                    paths.extend_path_to(st, flat);
                }
                flat.push(topo.ejection_channel(to));
                span[i as usize] = (start, flat.len() as u32);
            }
            lo = hi;
        }

        // Permute into pair order.
        offsets.clear();
        offsets.reserve_exact(pairs.len() + 1);
        offsets.push(0u32);
        channels.clear();
        channels.reserve_exact(flat.len());
        for &(lo, hi) in span.iter() {
            channels.extend_from_slice(&flat[lo as usize..hi as usize]);
            offsets.push(channels.len() as u32);
        }
    }

    /// Checks that a switch-level path is legal up\*/down\*: monotone
    /// phase (no up channel after a down channel).
    pub fn is_legal_path(&self, topo: &Topology, path: &[ChannelId]) -> bool {
        let mut descending = false;
        for &c in path {
            if self.is_up(topo, c) {
                if descending {
                    return false;
                }
            } else {
                descending = true;
            }
        }
        true
    }
}

impl SingleSourcePaths {
    /// Sizes the state array for `num_switches` switches with every state
    /// unreached. `queue` lists the states the previous pass reached (the
    /// only ones not unreached); it is emptied.
    fn size_for(&mut self, num_switches: usize, queue: &mut Vec<u32>) {
        for &st in queue.iter() {
            if let Some(rec) = self.states.get_mut(st as usize) {
                rec.depth = UNSEEN;
            }
        }
        queue.clear();
        let unseen = StateRec {
            prev: 0,
            channel: ChannelId(0),
            depth: UNSEEN,
        };
        self.states.resize(num_switches * 2, unseen);
    }

    /// Runs the BFS from `from`, reusing this value's state array, until
    /// every switch of `targets` is settled: once the last of them is first
    /// discovered, at depth `D`, the pass stops when the queue head reaches
    /// depth `D` (the module docs say why this is exact). Stopping at the
    /// first discovery instead would miss a phase-0 state found after the
    /// phase-1 state of the same depth. `queue` is FIFO scratch: it holds
    /// exactly the states the previous pass reached, expanded or not, which
    /// is how they are reset.
    fn search(
        &mut self,
        graph: &HopGraph<'_>,
        from: SwitchId,
        targets: Targets<'_>,
        queue: &mut Vec<u32>,
    ) {
        for &st in queue.iter() {
            self.states[st as usize].depth = UNSEEN;
        }
        queue.clear();
        self.from = from;
        let start = from.0 * 2;
        self.states[start as usize].depth = 0;
        queue.push(start);
        let mut unsettled = targets.count();
        // Depth at which the pass stops; never reached until the last
        // target is discovered.
        let mut stop = UNSEEN;
        let mut head = 0;
        while let Some(&state) = queue.get(head) {
            let depth = self.states[state as usize].depth;
            if depth >= stop {
                break;
            }
            head += 1;
            let sw = (state / 2) as usize;
            let descending = state % 2 == 1;
            let slots = graph.offsets[sw] as usize..graph.offsets[sw + 1] as usize;
            for (&hop, &nb) in graph.hops[slots.clone()].iter().zip(&graph.peers[slots]) {
                let up = hop & UP_BIT != 0;
                if up && descending {
                    continue; // up after down is illegal
                }
                let next = nb.0 * 2 + u32::from(!up);
                if self.states[next as usize].depth != UNSEEN {
                    continue;
                }
                self.states[next as usize] = StateRec {
                    prev: state,
                    channel: ChannelId(hop & !UP_BIT),
                    depth: depth + 1,
                };
                queue.push(next);
                // The switch's first discovery: its other phase is unseen.
                if targets.contains(nb) && self.states[(next ^ 1) as usize].depth == UNSEEN {
                    unsettled -= 1;
                    if unsettled == 0 {
                        stop = depth + 1;
                    }
                }
            }
        }
    }

    /// The source switch of this pass.
    pub fn from(&self) -> SwitchId {
        self.from
    }

    /// The shortest legal path from the source to `to` (empty iff
    /// `to == from`).
    pub fn path_to(&self, to: SwitchId) -> Vec<ChannelId> {
        let mut path = Vec::new();
        if to != self.from {
            self.extend_path_to(to, &mut path);
        }
        path
    }

    /// Appends the shortest legal path from the source to `to` onto `out`.
    ///
    /// # Panics
    ///
    /// Panics if no legal path exists (disconnected switch graph) or
    /// `to == from` (there is no zero-length terminal state to select).
    pub fn extend_path_to(&self, to: SwitchId, out: &mut Vec<ChannelId>) {
        // A terminal state counts once reached by at least one hop (the
        // start state has depth 0). The shallower phase wins; phase 0 wins
        // ties.
        let reached = |st: usize| match self.states[st].depth {
            0 | UNSEEN => None,
            d => Some(d),
        };
        let (p0, p1) = (to.index() * 2, to.index() * 2 + 1);
        let goal = match (reached(p0), reached(p1)) {
            (Some(d0), Some(d1)) if d1 < d0 => p1,
            (Some(_), _) => p0,
            (None, Some(_)) => p1,
            (None, None) => panic!("no legal up*/down* path from s{} to s{to}", self.from),
        };
        let start = out.len();
        out.resize(start + self.states[goal].depth as usize, ChannelId(0));
        let mut cur = goal;
        for slot in out[start..].iter_mut().rev() {
            let rec = self.states[cur];
            *slot = rec.channel;
            cur = rec.prev as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line of three switches: s0 - s1 - s2, one host each.
    fn line() -> Topology {
        let mut t = Topology::new(3);
        for i in 0..3 {
            t.add_host(SwitchId(i));
        }
        t.add_switch_link(SwitchId(0), SwitchId(1));
        t.add_switch_link(SwitchId(1), SwitchId(2));
        t
    }

    /// A cycle of four switches (gives up*/down* a non-tree link).
    fn ring4() -> Topology {
        let mut t = Topology::new(4);
        for i in 0..4 {
            t.add_host(SwitchId(i));
        }
        t.add_switch_link(SwitchId(0), SwitchId(1));
        t.add_switch_link(SwitchId(1), SwitchId(2));
        t.add_switch_link(SwitchId(2), SwitchId(3));
        t.add_switch_link(SwitchId(3), SwitchId(0));
        t
    }

    #[test]
    fn root_is_highest_degree_lowest_id() {
        let t = line();
        let r = UpDownRouting::new(&t);
        assert_eq!(r.root(), SwitchId(1)); // degree 2
        let t = ring4();
        let r = UpDownRouting::new(&t);
        assert_eq!(r.root(), SwitchId(0)); // all degree 2, lowest id
    }

    #[test]
    fn levels_and_tree() {
        let t = line();
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        assert_eq!(r.level(SwitchId(0)), 0);
        assert_eq!(r.level(SwitchId(1)), 1);
        assert_eq!(r.level(SwitchId(2)), 2);
        assert_eq!(r.tree_children(SwitchId(0)), &[SwitchId(1)]);
    }

    #[test]
    fn all_paths_legal_and_shortest_on_ring() {
        let t = ring4();
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a == b {
                    assert!(r.switch_path(&t, SwitchId(a), SwitchId(b)).is_empty());
                    continue;
                }
                let p = r.switch_path(&t, SwitchId(a), SwitchId(b));
                assert!(!p.is_empty());
                assert!(r.is_legal_path(&t, &p), "{a}->{b} illegal");
                // Path endpoints line up.
                let (first_src, _) = t.channel_endpoints(p[0]);
                assert_eq!(first_src, Endpoint::Switch(SwitchId(a)));
                let (_, last_dst) = t.channel_endpoints(*p.last().unwrap());
                assert_eq!(last_dst, Endpoint::Switch(SwitchId(b)));
                // Contiguity.
                for w in p.windows(2) {
                    let (_, x) = t.channel_endpoints(w[0]);
                    let (y, _) = t.channel_endpoints(w[1]);
                    assert_eq!(x, y);
                }
            }
        }
        // On a 4-ring rooted at 0 (levels 0,1,1,2) the shortest legal
        // s1 -> s3 path is at most 2 hops (e.g. up to s0, down to s3).
        let p13 = r.switch_path(&t, SwitchId(1), SwitchId(3));
        assert!(p13.len() <= 2);
    }

    #[test]
    fn single_source_matches_per_pair_queries() {
        let t = ring4();
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        for a in 0..4u32 {
            let sssp = r.single_source(&t, SwitchId(a));
            for b in 0..4u32 {
                if a == b {
                    continue;
                }
                assert_eq!(
                    sssp.path_to(SwitchId(b)),
                    r.switch_path(&t, SwitchId(a), SwitchId(b)),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn bulk_routes_match_per_pair_host_routes() {
        let t = ring4();
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        let mut pairs = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                pairs.push((HostId(a), HostId(b)));
            }
        }
        let mut scratch = RouteScratch::default();
        let (mut off, mut dat) = (vec![9], Vec::new());
        // The same scratch and outputs serve a second topology and then the
        // first again: nothing of an earlier call leaks into a later one.
        let other = line();
        let other_r = UpDownRouting::with_root(&other, SwitchId(2));
        let other_pairs = [(HostId(0), HostId(2)), (HostId(2), HostId(0))];
        for (t, r, pairs) in [
            (&t, &r, &pairs[..]),
            (&other, &other_r, &other_pairs),
            (&t, &r, &pairs),
        ] {
            r.bulk_host_routes(t, pairs, &mut scratch, &mut off, &mut dat);
            assert_eq!(off.len(), pairs.len() + 1);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let got = &dat[off[i] as usize..off[i + 1] as usize];
                assert_eq!(got, r.host_route(t, a, b).as_slice(), "{a}->{b}");
            }
        }
    }

    /// A bounded pass must finish the depth at which its last target was
    /// first discovered. Rooted at s0 with s1, s2, s3 on level 1, the pass
    /// from s3 expands s0 before s2, so it reaches s1 descending (s3 → s0 →
    /// s1, phase 1) before it reaches it still ascending (s3 → s2 → s1,
    /// phase 0), both at depth 2. Phase 0 wins the tie, so every query
    /// returns the all-up path, as the exhaustive pass does.
    #[test]
    fn bounded_pass_keeps_phase_zero_found_second_at_equal_depth() {
        let mut t = Topology::new(4);
        for i in 0..4 {
            t.add_host(SwitchId(i));
        }
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)] {
            t.add_switch_link(SwitchId(a), SwitchId(b));
        }
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        let ch = |a: u32, b: u32| t.switch_channel(SwitchId(a), SwitchId(b)).unwrap();
        let up_path = vec![ch(3, 2), ch(2, 1)];
        assert!(up_path.iter().all(|&c| r.is_up(&t, c)));
        assert!(!r.is_up(&t, ch(0, 1)), "the other depth-2 path ends down");

        let (s3, s1) = (SwitchId(3), SwitchId(1));
        assert_eq!(r.single_source(&t, s3).path_to(s1), up_path);
        assert_eq!(r.switch_path(&t, s3, s1), up_path);
        let mut host_path = vec![t.injection_channel(HostId(3))];
        host_path.extend_from_slice(&up_path);
        host_path.push(t.ejection_channel(HostId(1)));
        assert_eq!(r.host_route(&t, HostId(3), HostId(1)), host_path);
        let (mut off, mut dat) = (Vec::new(), Vec::new());
        r.bulk_host_routes(
            &t,
            &[(HostId(3), HostId(1))],
            &mut RouteScratch::default(),
            &mut off,
            &mut dat,
        );
        assert_eq!(dat, host_path);
    }

    #[test]
    fn up_after_down_rejected() {
        let t = ring4();
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        // Construct an illegal path: down from 0 to 1, then up 1 to 0.
        let down = t.switch_channel(SwitchId(0), SwitchId(1)).unwrap();
        let up = t.switch_channel(SwitchId(1), SwitchId(0)).unwrap();
        assert!(!r.is_up(&t, down));
        assert!(r.is_up(&t, up));
        assert!(!r.is_legal_path(&t, &[down, up]));
        assert!(r.is_legal_path(&t, &[up, down]));
    }

    #[test]
    fn host_route_has_injection_and_ejection() {
        let t = line();
        let r = UpDownRouting::with_root(&t, SwitchId(0));
        let route = r.host_route(&t, HostId(0), HostId(2));
        assert_eq!(route[0], t.injection_channel(HostId(0)));
        assert_eq!(*route.last().unwrap(), t.ejection_channel(HostId(2)));
        assert_eq!(route.len(), 4); // inject + 2 switch hops + eject
        assert!(r.host_route(&t, HostId(1), HostId(1)).is_empty());
    }

    #[test]
    fn same_switch_hosts_route_through_switch_only() {
        let mut t = Topology::new(1);
        let a = t.add_host(SwitchId(0));
        let b = t.add_host(SwitchId(0));
        let r = UpDownRouting::new(&t);
        let route = r.host_route(&t, a, b);
        assert_eq!(route.len(), 2);
        assert_eq!(route[0], t.injection_channel(a));
        assert_eq!(route[1], t.ejection_channel(b));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_panics() {
        let mut t = Topology::new(2);
        t.add_host(SwitchId(0));
        UpDownRouting::new(&t);
    }

    #[test]
    fn routes_are_deterministic() {
        let t = ring4();
        let r1 = UpDownRouting::with_root(&t, SwitchId(0));
        let r2 = UpDownRouting::with_root(&t, SwitchId(0));
        assert_eq!(r1, r2);
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(
                    r1.switch_path(&t, SwitchId(a), SwitchId(b)),
                    r2.switch_path(&t, SwitchId(a), SwitchId(b)),
                );
            }
        }
    }
}

#[cfg(test)]
mod distance_tests {
    use super::*;
    use crate::irregular::{IrregularConfig, IrregularNetwork};
    use crate::Network;
    use std::collections::VecDeque;

    /// Unrestricted BFS distance between switches (ignoring up/down rules).
    fn bfs_dist(topo: &Topology, from: SwitchId, to: SwitchId) -> u32 {
        let mut dist = vec![u32::MAX; topo.num_switches() as usize];
        dist[from.index()] = 0;
        let mut q = VecDeque::from([from]);
        while let Some(u) = q.pop_front() {
            if u == to {
                return dist[u.index()];
            }
            for (_, nb) in topo.switch_neighbors(u) {
                if dist[nb.index()] == u32::MAX {
                    dist[nb.index()] = dist[u.index()] + 1;
                    q.push_back(nb);
                }
            }
        }
        dist[to.index()]
    }

    /// Legal up*/down* paths are at least as long as the unrestricted
    /// shortest path, and on the paper-size networks the detour stays small
    /// (bounded by twice the BFS-tree depth).
    #[test]
    fn legal_paths_vs_unrestricted_shortest() {
        for seed in 0..4u64 {
            let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
            let topo = net.topology();
            let routing = net.routing();
            let max_level = (0..topo.num_switches())
                .map(|s| routing.level(SwitchId(s)))
                .max()
                .unwrap();
            for a in 0..topo.num_switches() {
                let sssp = routing.single_source(topo, SwitchId(a));
                for b in 0..topo.num_switches() {
                    if a == b {
                        continue;
                    }
                    let legal = sssp.path_to(SwitchId(b)).len() as u32;
                    let free = bfs_dist(topo, SwitchId(a), SwitchId(b));
                    assert!(
                        legal >= free,
                        "seed {seed}: {a}->{b} legal {legal} < {free}"
                    );
                    assert!(
                        legal <= 2 * max_level.max(1),
                        "seed {seed}: {a}->{b} legal {legal} exceeds tree bound"
                    );
                }
            }
        }
    }

    /// On a pure tree topology (no extra links) the legal path *is* the
    /// unique tree path, hence exactly the unrestricted shortest.
    #[test]
    fn tree_topologies_route_optimally() {
        let mut topo = Topology::new(7);
        // Balanced binary tree of switches.
        for (parent, child) in [(0u32, 1u32), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
            topo.add_switch_link(SwitchId(parent), SwitchId(child));
        }
        let routing = UpDownRouting::with_root(&topo, SwitchId(0));
        for a in 0..7 {
            for b in 0..7 {
                if a == b {
                    continue;
                }
                let legal = routing.switch_path(&topo, SwitchId(a), SwitchId(b)).len() as u32;
                let free = bfs_dist(&topo, SwitchId(a), SwitchId(b));
                assert_eq!(legal, free, "{a}->{b}");
            }
        }
    }
}
