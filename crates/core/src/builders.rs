//! Tree builders: linear, binomial, and k-binomial trees on an ordered chain
//! of participants (paper §4.2 and Fig. 11).
//!
//! All builders work on the *ordering* of the participants: rank 0 is the
//! source and ranks increase to the right along the chain. When the ordering
//! is contention-free (paper §4.3.2), the recursive construction below yields
//! a contention-free tree, because simultaneous messages always span disjoint
//! or nested chain segments.
//!
//! The construction (Fig. 11): with `s = t1(n, k)` total steps, the source
//! sends its first packet to the node `N(s-1, k)` places from the *right* end
//! of the chain; that node covers the suffix segment recursively with budget
//! `s - 1`. The second child is `N(s-2, k)` places from the previous
//! recipient, and so on for up to `k` children; segment sizes are capped by
//! the number of nodes actually remaining.

use crate::coverage::{ceil_log2, coverage, min_steps, MAX_K};
use crate::tree::{MulticastTree, Rank};

/// The tree families the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// Chain: every vertex has one child (`k = 1`).
    Linear,
    /// Conventional binomial tree (`k = ⌈log₂ n⌉`, i.e. unrestricted).
    Binomial,
    /// k-binomial tree with the given `k` (Definition 1).
    KBinomial(u32),
}

impl TreeKind {
    /// Builds this kind of tree over `n` participants.
    pub fn build(self, n: u32) -> MulticastTree {
        match self {
            TreeKind::Linear => linear_tree(n),
            TreeKind::Binomial => binomial_tree(n),
            TreeKind::KBinomial(k) => kbinomial_tree(n, k),
        }
    }

    /// The child cap `k` this kind uses for `n` participants.
    pub fn k_for(self, n: u32) -> u32 {
        match self {
            TreeKind::Linear => 1,
            TreeKind::Binomial => ceil_log2(u64::from(n)).max(1),
            TreeKind::KBinomial(k) => k,
        }
    }
}

/// Builds the linear (chain) tree over `n` participants: rank `i` forwards to
/// rank `i + 1`. Equivalent to `kbinomial_tree(n, 1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn linear_tree(n: u32) -> MulticastTree {
    assert!(n >= 1, "a multicast spans at least the source");
    let mut tree = MulticastTree::with_capacity(n);
    for i in 1..n {
        tree.attach(Rank(i - 1), Rank(i));
    }
    debug_assert!(tree.validate().is_ok());
    tree
}

/// Builds the conventional binomial tree over `n` participants on the chain
/// ordering — the recursive-doubling tree with unrestricted fan-out,
/// identical to `kbinomial_tree(n, ⌈log₂ n⌉)`.
pub fn binomial_tree(n: u32) -> MulticastTree {
    assert!(n >= 1, "a multicast spans at least the source");
    if n == 1 {
        return MulticastTree::singleton();
    }
    kbinomial_tree(n, ceil_log2(u64::from(n)))
}

/// Builds the k-binomial tree over `n` participants on the chain ordering,
/// per the paper's Fig. 11 construction.
///
/// The resulting tree completes a single-packet multicast in
/// [`min_steps`]`(n, k)` steps and has root degree `min(k, t1)`; every vertex
/// has at most `k` children.
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`.
///
/// # Examples
///
/// ```
/// use optimcast_core::builders::kbinomial_tree;
/// let t = kbinomial_tree(16, 3);
/// assert_eq!(t.len(), 16);
/// assert!(t.max_degree() <= 3);
/// ```
pub fn kbinomial_tree(n: u32, k: u32) -> MulticastTree {
    assert!(n >= 1, "a multicast spans at least the source");
    assert!(k >= 1, "k-binomial trees require k >= 1");
    let k = k.min(MAX_K);
    let mut tree = MulticastTree::with_capacity(n);
    let s = min_steps(u64::from(n), k);
    build_segment(&mut tree, 0, n - 1, s, k);
    debug_assert!(tree.validate().is_ok());
    tree
}

/// Covers chain segment `[root_idx, hi]` (inclusive), rooted at `root_idx`,
/// within `s` steps, fan-out capped at `k`.
///
/// Children are carved off the *right* end of the segment with capacities
/// `N(s-1, k), N(s-2, k), …` as in Fig. 11, capped by the nodes remaining.
///
/// Iterative with an explicit segment stack: the recursive formulation
/// nests O(n) deep at `k = 1` (one frame per chain vertex), which overflows
/// the stack long before mega scale. Processing order differs from the
/// recursion only across *different* parents; each parent still attaches
/// its children in the same left-to-right order, so the resulting tree is
/// identical.
fn build_segment(tree: &mut MulticastTree, root_idx: u32, hi: u32, s: u32, k: u32) {
    debug_assert!(hi >= root_idx);
    let mut stack = vec![(root_idx, hi, s)];
    while let Some((root_idx, hi, s)) = stack.pop() {
        let mut right_end = hi;
        let mut step = 1u32;
        while right_end > root_idx {
            debug_assert!(
                step <= s,
                "budget exhausted: segment [{root_idx}, {hi}] s={s} k={k}"
            );
            let remaining = u128::from(right_end - root_idx);
            let cap = if step <= k {
                coverage(s - step, k)
            } else {
                // More than k children would violate Definition 1; the step
                // budget guarantees this branch is never taken (see tests).
                unreachable!("k-binomial construction exceeded {k} children")
            };
            let take = cap.min(remaining) as u32;
            let child = right_end - take + 1;
            tree.attach(Rank(root_idx), Rank(child));
            if take > 1 {
                stack.push((child, right_end, s - step));
            }
            right_end = child - 1;
            step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::min_steps;
    use crate::schedule::fpfs_schedule;

    #[test]
    fn linear_is_chain() {
        let t = linear_tree(6);
        t.validate().unwrap();
        assert_eq!(t.max_degree(), 1);
        assert_eq!(t.depth(), 5);
    }

    /// The sweep memo keys trees by their resolved `k`, so `Linear` shares
    /// the `k = 1` tree for every `n` the paper's figures reach.
    #[test]
    fn k1_equals_linear() {
        for n in 1..=128 {
            assert_eq!(kbinomial_tree(n, 1), linear_tree(n), "n={n}");
        }
    }

    /// Every k from `⌈log₂ n⌉` (at least 1) up to `MAX_K` builds the binomial
    /// tree itself, not merely one with the same step count: the sweep memo
    /// lets such points share one tree, one route table and one simulation.
    #[test]
    fn binomial_equals_every_kbinomial_at_or_above_log2_n() {
        for n in 1..=128u32 {
            let binomial = binomial_tree(n);
            for k in ceil_log2(u64::from(n)).max(1)..=MAX_K {
                assert_eq!(kbinomial_tree(n, k), binomial, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn binomial_power_of_two_shape() {
        // Classic binomial tree on 2^d nodes: root degree d, depth d.
        for d in 0..7u32 {
            let n = 1u32 << d;
            let t = binomial_tree(n);
            t.validate().unwrap();
            assert_eq!(t.len(), n as usize);
            assert_eq!(t.root_degree(), d);
            assert_eq!(t.depth(), d);
            // Root subtree sizes are powers of two: 2^(d-1), ..., 2, 1.
            let sizes = t.subtree_sizes();
            let got: Vec<u32> = t.root_children().iter().map(|c| sizes[c.index()]).collect();
            let want: Vec<u32> = (0..d).rev().map(|i| 1 << i).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn kbinomial_respects_degree_cap() {
        for n in 1..=130 {
            for k in 1..=7 {
                let t = kbinomial_tree(n, k);
                t.validate().unwrap();
                assert!(
                    t.max_degree() <= k,
                    "n={n} k={k} max_degree={}",
                    t.max_degree()
                );
            }
        }
    }

    #[test]
    fn kbinomial_completes_in_min_steps() {
        // The single-packet FPFS completion time of the constructed tree must
        // equal the analytic minimum t1(n, k) — the construction is optimal.
        for n in 1..=130u32 {
            for k in 1..=7 {
                let t = kbinomial_tree(n, k);
                let sched = fpfs_schedule(&t, 1);
                assert_eq!(
                    sched.total_steps(),
                    min_steps(u64::from(n), k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn root_degree_is_min_of_k_and_steps() {
        for n in 2..=130u32 {
            for k in 1..=7 {
                let t = kbinomial_tree(n, k);
                let s = min_steps(u64::from(n), k);
                assert!(t.root_degree() <= k.min(s), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn full_kbinomial_root_subtree_sizes_match_lemma1() {
        // When n = N(s, k) exactly, the i-th root subtree has exactly
        // N(s - i, k) nodes (Fig. 10).
        for k in 2..=4u32 {
            for s in k + 1..=k + 4 {
                let n = coverage(s, k) as u32;
                let t = kbinomial_tree(n, k);
                let sizes = t.subtree_sizes();
                let got: Vec<u128> = t
                    .root_children()
                    .iter()
                    .map(|c| u128::from(sizes[c.index()]))
                    .collect();
                let want: Vec<u128> = (1..=k).map(|i| coverage(s - i, k)).collect();
                assert_eq!(got, want, "s={s} k={k} n={n}");
            }
        }
    }

    #[test]
    fn fig9_examples_16_nodes() {
        // Paper Fig. 9: 3-binomial and 4-binomial trees on 16 nodes complete
        // in 5 and 4 steps respectively.
        let t3 = kbinomial_tree(16, 3);
        assert_eq!(fpfs_schedule(&t3, 1).total_steps(), 5);
        assert!(t3.max_degree() <= 3);
        let t4 = kbinomial_tree(16, 4);
        assert_eq!(fpfs_schedule(&t4, 1).total_steps(), 4);
        assert_eq!(t4, binomial_tree(16));
    }

    #[test]
    fn children_point_right_and_segments_nest() {
        // Every child sits to the right of its parent in the ordering, and
        // each subtree occupies a contiguous chain segment — the property the
        // contention-free construction relies on.
        for n in [7u32, 16, 23, 48, 64, 100] {
            for k in 1..=6 {
                let t = kbinomial_tree(n, k);
                let sizes = t.subtree_sizes();
                for (p, c) in t.edges() {
                    assert!(c.0 > p.0, "child {c} left of parent {p}");
                }
                // Contiguity: subtree of rank r covers [r, r + size - 1].
                for r in t.dfs_preorder() {
                    let size = sizes[r.index()];
                    for &c in t.children(r) {
                        let csz = sizes[c.index()];
                        assert!(c.0 + csz <= r.0 + size, "subtree escapes segment");
                    }
                }
            }
        }
    }

    #[test]
    fn tree_kind_dispatch() {
        assert_eq!(TreeKind::Linear.build(9), linear_tree(9));
        assert_eq!(TreeKind::Binomial.build(9), binomial_tree(9));
        assert_eq!(TreeKind::KBinomial(2).build(9), kbinomial_tree(9, 2));
        assert_eq!(TreeKind::Linear.k_for(9), 1);
        assert_eq!(TreeKind::Binomial.k_for(9), 4);
        assert_eq!(TreeKind::KBinomial(2).k_for(9), 2);
    }

    #[test]
    fn oversized_k_behaves_like_binomial() {
        for n in 2..=64 {
            let a = kbinomial_tree(n, 40);
            let b = binomial_tree(n);
            // Coverage-equivalent: same completion steps.
            assert_eq!(
                fpfs_schedule(&a, 1).total_steps(),
                fpfs_schedule(&b, 1).total_steps()
            );
        }
    }
}
