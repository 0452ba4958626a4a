//! Exact per-step send schedules for smart-NI multicast forwarding
//! (paper §3, §4.1, Figs. 5 and 8).
//!
//! Time advances in integer *steps*; transmitting one packet from one NI to
//! another occupies the sending NI for exactly one step, and the packet is
//! available at the receiver from the following step. An NI performs at most
//! one send per step; receives are passive (the model's NIs are full-duplex,
//! as in the paper's step counting).
//!
//! Two forwarding disciplines are modelled:
//!
//! * **FPFS** (First-Packet-First-Served): each arriving packet is
//!   immediately forwarded to *all* children, in child order, before the next
//!   packet's copies — the per-packet loop is outermost at the sender
//!   (paper Fig. 7).
//! * **FCFS** (First-Child-First-Served): the *whole message* is forwarded to
//!   the first child (packet by packet, as packets arrive), then to the
//!   second child, and so on (paper Fig. 6).
//!
//! The returned [`Schedule`] carries every send event plus per-rank,
//! per-packet receive steps, from which the paper's Theorems 1 and 2 and its
//! Figs. 5/8 step diagrams are checked and regenerated.
//!
//! ### Scope of Theorem 1
//!
//! Theorem 1 (successive packets complete exactly `k_T` steps apart, `k_T` =
//! root degree) holds for every tree family the paper considers — linear,
//! binomial, k-binomial — because in those trees per-vertex fan-out never
//! increases from the root towards the leaves, so the root is the pipeline
//! bottleneck. For arbitrary trees that *increase* fan-out down a path the
//! inter-completion gap is governed by the largest fan-out en route instead;
//! `tests::theorem1_boundary_counterexample` documents this boundary.

use crate::tree::{MulticastTree, Rank};

/// Smart-NI forwarding discipline (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwardingDiscipline {
    /// First-Packet-First-Served: forward each packet to all children as it
    /// arrives.
    Fpfs,
    /// First-Child-First-Served: forward the whole message child by child.
    Fcfs,
}

/// One packet transmission: `from`'s NI spends step `step` sending packet
/// `packet` (0-based) to `to`'s NI; `to` holds it from step `step + 1` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// 1-based step index occupied by this transmission.
    pub step: u32,
    /// Sending participant.
    pub from: Rank,
    /// Receiving participant.
    pub to: Rank,
    /// 0-based packet index within the message.
    pub packet: u32,
}

/// A complete step-timed schedule of an `m`-packet multicast over a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    discipline: ForwardingDiscipline,
    packets: u32,
    root_degree: u32,
    events: Vec<SendEvent>,
    /// `recv[rank][packet]`: step at which the packet is fully received
    /// (0 for the source, whose packets are available before step 1).
    recv: Vec<Vec<u32>>,
}

impl Schedule {
    /// The discipline this schedule was generated under.
    pub fn discipline(&self) -> ForwardingDiscipline {
        self.discipline
    }

    /// Number of packets `m` in the message.
    pub fn packets(&self) -> u32 {
        self.packets
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.recv.len()
    }

    /// `k_T`, the root degree of the tree the schedule was built on.
    pub fn root_degree(&self) -> u32 {
        self.root_degree
    }

    /// All send events, sorted by `(step, from)`.
    pub fn events(&self) -> &[SendEvent] {
        &self.events
    }

    /// The step at which `rank` has fully received `packet` (0 for the
    /// source: its packets are available before the first step).
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `packet` is out of range.
    pub fn receive_step(&self, rank: Rank, packet: u32) -> u32 {
        self.recv[rank.index()][packet as usize]
    }

    /// Step at which every participant has received `packet` — the paper's
    /// `t_{j+1}` (completion of the multicast of one packet).
    pub fn packet_completion(&self, packet: u32) -> u32 {
        let p = packet as usize;
        self.recv.iter().map(|r| r[p]).max().unwrap_or(0)
    }

    /// Total steps to complete the whole multicast: `max_j t_j`. This is the
    /// quantity Theorem 2 predicts as `t1 + (m - 1) * k_T` under FPFS on the
    /// paper's tree families.
    pub fn total_steps(&self) -> u32 {
        self.packet_completion(self.packets - 1)
    }

    /// Step at which `rank` has received the *whole message*.
    pub fn message_completion(&self, rank: Rank) -> u32 {
        *self.recv[rank.index()].last().expect("m >= 1")
    }

    /// Sends performed by `rank`, in step order, without allocating — the
    /// schedule iteration a real transport drives directly: each yielded
    /// event is one packet to put on the wire, in exactly the order the
    /// step model prescribes, decoupled from any notion of simulated time.
    pub fn sends_from_iter(&self, rank: Rank) -> impl Iterator<Item = SendEvent> + '_ {
        self.events.iter().copied().filter(move |e| e.from == rank)
    }

    /// The packet indices in the order `rank` receives them under this
    /// schedule (ties in receive step broken by packet index, matching the
    /// senders' emission order). This is the *predicted delivery order* a
    /// real transport is measured against in the sim-vs-wire parity test:
    /// on a clean link, packets must complete reassembly at `rank` in
    /// exactly this sequence.
    pub fn arrival_order(&self, rank: Rank) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.packets).collect();
        order.sort_by_key(|&p| self.receive_step(rank, p));
        order
    }

    /// For each step `1..=total_steps()`, the number of packets buffered at
    /// `rank`'s NI during that step. A packet occupies the NI buffer from the
    /// step after it is received until the step in which its last copy has
    /// been sent (inclusive); at a leaf it is counted for the single step
    /// after receipt (handoff to host DMA).
    ///
    /// This is the trace-driven counterpart of the §3.3.2 analytic buffer
    /// comparison: FCFS holds packets much longer than FPFS.
    pub fn buffer_occupancy(&self, rank: Rank) -> Vec<u32> {
        let total = self.total_steps() as usize;
        let mut occ = vec![0u32; total + 1]; // 1-based steps
        let is_source = rank == Rank::SOURCE;
        for p in 0..self.packets {
            let arr = self.receive_step(rank, p);
            let last_send = self
                .events
                .iter()
                .filter(|e| e.from == rank && e.packet == p)
                .map(|e| e.step)
                .max();
            let (from_step, to_step) = match last_send {
                Some(last) => {
                    // Source packets materialise in the buffer only when the
                    // host has DMAed them; model that as "from its first
                    // send" for the source, "from arrival + 1" elsewhere.
                    let start = if is_source {
                        last.min(arr + 1)
                    } else {
                        arr + 1
                    };
                    (start, last)
                }
                None => (arr + 1, arr + 1), // leaf: one step of residence
            };
            for s in from_step..=to_step.min(total as u32) {
                occ[s as usize] += 1;
            }
        }
        occ.remove(0);
        occ
    }
}

/// Builds the FPFS schedule for an `m`-packet multicast over `tree`.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn fpfs_schedule(tree: &MulticastTree, m: u32) -> Schedule {
    build_schedule(tree, m, ForwardingDiscipline::Fpfs)
}

/// Builds the FCFS schedule for an `m`-packet multicast over `tree`.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn fcfs_schedule(tree: &MulticastTree, m: u32) -> Schedule {
    build_schedule(tree, m, ForwardingDiscipline::Fcfs)
}

/// Builds the schedule for either discipline.
pub fn build_schedule(tree: &MulticastTree, m: u32, discipline: ForwardingDiscipline) -> Schedule {
    assert!(m >= 1, "a message has at least one packet");
    let n = tree.len();
    let mu = m as usize;
    let mut recv = vec![vec![u32::MAX; mu]; n];
    recv[Rank::SOURCE.index()] = vec![0; mu]; // available before step 1
    let mut events: Vec<SendEvent> = Vec::new();

    // Parents are always scheduled before their children in preorder, so a
    // single pass suffices: by the time `u` is visited, recv[u] is final.
    for u in tree.dfs_preorder() {
        let kids = tree.children(u);
        if kids.is_empty() {
            continue;
        }
        let arr = recv[u.index()].clone();
        debug_assert!(
            arr.iter().all(|&t| t != u32::MAX),
            "node {u} scheduled before its packets arrived"
        );
        let mut ni_free_from = 0u32; // last step the NI spent sending
        let mut emit = |packet: u32, child: Rank, ni_free_from: &mut u32| {
            let t = (*ni_free_from + 1).max(arr[packet as usize] + 1);
            *ni_free_from = t;
            events.push(SendEvent {
                step: t,
                from: u,
                to: child,
                packet,
            });
            recv[child.index()][packet as usize] = t;
        };
        match discipline {
            ForwardingDiscipline::Fpfs => {
                for p in 0..m {
                    for &c in kids {
                        emit(p, c, &mut ni_free_from);
                    }
                }
            }
            ForwardingDiscipline::Fcfs => {
                for &c in kids {
                    for p in 0..m {
                        emit(p, c, &mut ni_free_from);
                    }
                }
            }
        }
    }

    events.sort_by_key(|e| (e.step, e.from.0, e.to.0));
    Schedule {
        discipline,
        packets: m,
        root_degree: tree.root_degree(),
        events,
        recv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{binomial_tree, kbinomial_tree, linear_tree};
    use crate::coverage::min_steps;
    use crate::tree::MulticastTree;

    /// Paper Fig. 5: 3-packet message to 3 destinations. Binomial tree takes
    /// 6 steps, linear tree takes 5 — the motivating counterexample to
    /// binomial optimality.
    #[test]
    fn fig5_binomial_6_linear_5() {
        let bin = binomial_tree(4);
        let lin = linear_tree(4);
        for build in [fpfs_schedule, fcfs_schedule] {
            assert_eq!(build(&bin, 3).total_steps(), 6);
            assert_eq!(build(&lin, 3).total_steps(), 5);
        }
    }

    /// Paper Fig. 5(a) exact step diagram under FCFS: edge r→A carries
    /// packets at steps [1][2][3], A→C at [2][3][4], r→B at [4][5][6].
    #[test]
    fn fig5a_exact_fcfs_steps() {
        let bin = binomial_tree(4); // root r0; children r2 (with child r3), r1
        let s = fcfs_schedule(&bin, 3);
        let first_child = bin.root_children()[0];
        let second_child = bin.root_children()[1];
        let grandchild = bin.children(first_child)[0];
        for p in 0..3u32 {
            assert_eq!(s.receive_step(first_child, p), p + 1);
            assert_eq!(s.receive_step(grandchild, p), p + 2);
            assert_eq!(s.receive_step(second_child, p), p + 4);
        }
    }

    /// Paper Fig. 5(b): linear chain, each hop lags one step.
    #[test]
    fn fig5b_exact_linear_steps() {
        let lin = linear_tree(4);
        let s = fpfs_schedule(&lin, 3);
        for hop in 1..=3u32 {
            for p in 0..3u32 {
                assert_eq!(s.receive_step(Rank(hop), p), hop + p);
            }
        }
    }

    /// Paper Fig. 8: 3-packet multicast to 7 destinations over the binomial
    /// tree decomposes into three pipelined single-packet multicasts, each
    /// lagging the previous by exactly 3 steps; total 9 steps.
    #[test]
    fn fig8_pipelined_binomial_8_nodes() {
        let t = binomial_tree(8);
        let s = fpfs_schedule(&t, 3);
        assert_eq!(s.root_degree(), 3);
        assert_eq!(s.packet_completion(0), 3);
        assert_eq!(s.packet_completion(1), 6);
        assert_eq!(s.packet_completion(2), 9);
        assert_eq!(s.total_steps(), 9);
    }

    /// Theorem 1: on the paper's tree families, consecutive packet
    /// completions are exactly the bottleneck fan-out apart under FPFS.
    ///
    /// The paper states the interval as `k_T` (the root degree); for *full*
    /// k-binomial trees (`n = N(s, k)`) the root attains the maximum degree
    /// and the two coincide. When `n < N(s, k)` the Fig. 11 right-end
    /// construction can leave the root with fewer children (the first
    /// subtree absorbs the whole chain), and the pipelining interval is then
    /// the tree's maximum fan-out — never more than `k`, so Theorem 2's
    /// bound still holds (see `theorem2_total_steps`).
    #[test]
    fn theorem1_constant_lag() {
        for n in [2u32, 3, 4, 7, 8, 16, 23, 48, 64] {
            for k in 1..=6u32 {
                let t = kbinomial_tree(n, k);
                let m = 6;
                let s = fpfs_schedule(&t, m);
                let bottleneck = t.max_degree();
                assert!(bottleneck <= k);
                for p in 1..m {
                    assert_eq!(
                        s.packet_completion(p) - s.packet_completion(p - 1),
                        bottleneck,
                        "n={n} k={k} p={p}"
                    );
                }
            }
        }
    }

    /// Theorem 1, literal paper statement: on full k-binomial trees
    /// (`n = N(s, k)`) the lag is exactly the root degree `k_T`.
    #[test]
    fn theorem1_full_trees_root_degree() {
        use crate::coverage::coverage;
        for k in 1..=4u32 {
            for s in 1..=k + 3 {
                let n = coverage(s, k) as u32;
                let t = kbinomial_tree(n, k);
                assert_eq!(t.root_degree(), k.min(s), "root degree on full tree");
                assert_eq!(t.max_degree(), k.min(s));
                let m = 5;
                let sch = fpfs_schedule(&t, m);
                for p in 1..m {
                    assert_eq!(
                        sch.packet_completion(p) - sch.packet_completion(p - 1),
                        t.root_degree(),
                        "k={k} s={s}"
                    );
                }
            }
        }
    }

    /// Theorem 2: total steps = t1 + (m-1) * bottleneck under FPFS, and the
    /// analytic `t1 + (m-1)·k` is always an upper bound.
    #[test]
    fn theorem2_total_steps() {
        for n in [2u32, 5, 16, 31, 48, 64, 100] {
            for k in 1..=6u32 {
                let t = kbinomial_tree(n, k);
                let t1 = fpfs_schedule(&t, 1).total_steps();
                assert_eq!(t1, min_steps(u64::from(n), k));
                for m in [1u32, 2, 4, 8, 17] {
                    let s = fpfs_schedule(&t, m);
                    let bottleneck = if n == 1 { 0 } else { t.max_degree() };
                    assert_eq!(
                        s.total_steps(),
                        t1 + (m - 1) * bottleneck,
                        "n={n} k={k} m={m}"
                    );
                    assert!(s.total_steps() <= t1 + (m - 1) * k);
                }
            }
        }
    }

    /// The boundary of Theorem 1: a tree whose fan-out *grows* away from the
    /// root pipelines at the bottleneck fan-out, not the root degree. The
    /// paper's trees never have this shape.
    #[test]
    fn theorem1_boundary_counterexample() {
        // root -> a; a -> {b, c, d}
        let mut t = MulticastTree::with_capacity(5);
        t.attach(Rank(0), Rank(1));
        t.attach(Rank(1), Rank(2));
        t.attach(Rank(1), Rank(3));
        t.attach(Rank(1), Rank(4));
        t.validate().unwrap();
        let s = fpfs_schedule(&t, 3);
        assert_eq!(s.root_degree(), 1);
        let lag = s.packet_completion(1) - s.packet_completion(0);
        assert_eq!(lag, 3, "bottleneck fan-out, not k_T, governs the lag here");
    }

    /// FCFS and FPFS agree on chains (one child everywhere).
    #[test]
    fn disciplines_agree_on_chains() {
        for n in 2..20 {
            for m in 1..6 {
                let t = linear_tree(n);
                assert_eq!(
                    fpfs_schedule(&t, m).total_steps(),
                    fcfs_schedule(&t, m).total_steps()
                );
            }
        }
    }

    /// FPFS never completes later than FCFS on the paper's families.
    #[test]
    fn fpfs_no_worse_than_fcfs() {
        for n in [4u32, 8, 16, 31, 48] {
            for k in 1..=5 {
                for m in [1u32, 2, 4, 8] {
                    let t = kbinomial_tree(n, k);
                    assert!(
                        fpfs_schedule(&t, m).total_steps() <= fcfs_schedule(&t, m).total_steps(),
                        "n={n} k={k} m={m}"
                    );
                }
            }
        }
    }

    /// Every send respects causality (packet forwarded only after receipt)
    /// and NI serialization (one send per node per step); every participant
    /// gets every packet exactly once.
    #[test]
    fn schedule_wellformedness() {
        for disc in [ForwardingDiscipline::Fpfs, ForwardingDiscipline::Fcfs] {
            for n in [2u32, 7, 16, 48] {
                for k in [1u32, 2, 4] {
                    let t = kbinomial_tree(n, k);
                    let m = 5;
                    let s = build_schedule(&t, m, disc);
                    // One send per (from, step).
                    let mut busy = std::collections::HashSet::new();
                    for e in s.events() {
                        assert!(busy.insert((e.from, e.step)), "NI double-booked");
                        // Causality.
                        assert!(e.step > s.receive_step(e.from, e.packet));
                        // The receive table matches the event.
                        assert_eq!(s.receive_step(e.to, e.packet), e.step);
                    }
                    // Exactly (n-1) * m receives.
                    assert_eq!(s.events().len(), ((n - 1) * m) as usize);
                }
            }
        }
    }

    /// Buffer traces: FPFS residency at an intermediate node is bounded by a
    /// couple of packets; FCFS holds up to the whole message.
    #[test]
    fn buffer_trace_fpfs_vs_fcfs() {
        let t = binomial_tree(16); // root degree 4, first child has 3 children
        let m = 8;
        let inner = t.root_children()[0];
        let max_buffered = |s: Schedule| s.buffer_occupancy(inner).into_iter().max().unwrap();
        let fp = max_buffered(fpfs_schedule(&t, m));
        let fc = max_buffered(fcfs_schedule(&t, m));
        assert!(fp <= 2, "FPFS buffered {fp} packets");
        assert_eq!(fc, m, "FCFS must hold the whole message");
        assert!(fc > fp);
    }

    #[test]
    fn message_completion_monotone_with_depth() {
        let t = kbinomial_tree(32, 2);
        let s = fpfs_schedule(&t, 4);
        for (p, c) in t.edges() {
            assert!(s.message_completion(c) > s.message_completion(p) || p == Rank::SOURCE);
        }
    }

    #[test]
    fn sends_from_source_count() {
        let t = binomial_tree(16);
        let s = fpfs_schedule(&t, 3);
        assert_eq!(s.sends_from_iter(Rank::SOURCE).count(), 4 * 3);
    }

    /// The allocation-free iterator yields exactly the rank's send events,
    /// in step order.
    #[test]
    fn sends_from_iter_matches_vec() {
        for disc in [ForwardingDiscipline::Fpfs, ForwardingDiscipline::Fcfs] {
            let t = kbinomial_tree(23, 3);
            let s = build_schedule(&t, 4, disc);
            for r in 0..t.len() as u32 {
                let rank = Rank(r);
                let collected: Vec<SendEvent> = s.sends_from_iter(rank).collect();
                let expect: Vec<SendEvent> = s
                    .events()
                    .iter()
                    .copied()
                    .filter(|e| e.from == rank)
                    .collect();
                assert_eq!(collected, expect);
                assert!(collected.windows(2).all(|w| w[0].step <= w[1].step));
            }
        }
    }

    /// FPFS delivers packets in index order everywhere; FCFS does too (the
    /// whole message goes child by child, packets in order within a child) —
    /// and the order is always a permutation of `0..m` consistent with the
    /// receive table.
    #[test]
    fn arrival_order_is_receive_step_sorted() {
        for disc in [ForwardingDiscipline::Fpfs, ForwardingDiscipline::Fcfs] {
            let t = kbinomial_tree(16, 2);
            let m = 5;
            let s = build_schedule(&t, m, disc);
            for r in 0..t.len() as u32 {
                let rank = Rank(r);
                let order = s.arrival_order(rank);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..m).collect::<Vec<_>>(), "permutation of 0..m");
                assert!(order
                    .windows(2)
                    .all(|w| s.receive_step(rank, w[0]) <= s.receive_step(rank, w[1])));
                // On the paper's disciplines a node never receives packet
                // p+1 before packet p from the same parent pipeline.
                assert_eq!(order, (0..m).collect::<Vec<_>>(), "{disc:?} rank {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_packets_panics() {
        fpfs_schedule(&binomial_tree(4), 0);
    }

    #[test]
    fn singleton_tree_completes_instantly() {
        let t = MulticastTree::singleton();
        let s = fpfs_schedule(&t, 3);
        assert_eq!(s.total_steps(), 0);
        assert!(s.events().is_empty());
    }
}

impl Schedule {
    /// Renders the paper's bracketed step diagram (Figs. 5 and 8): one line
    /// per tree edge in preorder, listing `[step]` and the 1-based packet
    /// subscript for every transmission on that edge.
    ///
    /// ```
    /// use optimcast_core::builders::linear_tree;
    /// use optimcast_core::schedule::fpfs_schedule;
    /// let tree = linear_tree(3);
    /// let d = fpfs_schedule(&tree, 2).step_diagram(&tree);
    /// assert!(d.contains("r0 -> r1: [1]1 [2]2"));
    /// assert!(d.contains("r1 -> r2: [2]1 [3]2"));
    /// ```
    pub fn step_diagram(&self, tree: &crate::tree::MulticastTree) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (p, c) in tree.edges() {
            let _ = write!(out, "{p} -> {c}:");
            let mut sends: Vec<&SendEvent> = self
                .events
                .iter()
                .filter(|e| e.from == p && e.to == c)
                .collect();
            sends.sort_by_key(|e| e.step);
            for e in sends {
                let _ = write!(out, " [{}]{}", e.step, e.packet + 1);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod diagram_tests {
    use super::*;
    use crate::builders::{binomial_tree, linear_tree};

    /// Paper Fig. 5(a): FCFS binomial over 3 destinations, 3 packets —
    /// [1][2][3] on the first-child edge, [2][3][4] below it, [4][5][6] to
    /// the second child.
    #[test]
    fn fig5a_diagram_matches_paper() {
        let tree = binomial_tree(4);
        let d = fcfs_schedule(&tree, 3).step_diagram(&tree);
        assert!(d.contains("r0 -> r2: [1]1 [2]2 [3]3"), "{d}");
        assert!(d.contains("r2 -> r3: [2]1 [3]2 [4]3"), "{d}");
        assert!(d.contains("r0 -> r1: [4]1 [5]2 [6]3"), "{d}");
    }

    /// Paper Fig. 5(b): the linear tree finishes in 5 steps.
    #[test]
    fn fig5b_diagram_matches_paper() {
        let tree = linear_tree(4);
        let d = fpfs_schedule(&tree, 3).step_diagram(&tree);
        assert!(d.contains("r0 -> r1: [1]1 [2]2 [3]3"), "{d}");
        assert!(d.contains("r1 -> r2: [2]1 [3]2 [4]3"), "{d}");
        assert!(d.contains("r2 -> r3: [3]1 [4]2 [5]3"), "{d}");
    }

    /// Every edge of a bigger schedule appears with m entries.
    #[test]
    fn diagram_covers_every_edge() {
        let tree = binomial_tree(16);
        let m = 4;
        let d = fpfs_schedule(&tree, m).step_diagram(&tree);
        assert_eq!(d.lines().count(), 15);
        for line in d.lines() {
            assert_eq!(line.matches('[').count(), m as usize, "{line}");
        }
    }
}
