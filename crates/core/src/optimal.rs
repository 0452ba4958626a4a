//! The optimal-`k` solver (paper Theorem 3 and §4.3.1, §5.1).
//!
//! For a multicast set of `n` nodes and an `m`-packet message under FPFS, the
//! completion step count of the k-binomial tree is
//!
//! ```text
//! T(n, m, k) = t1(n, k) + (m − 1) · k
//! ```
//!
//! (Theorems 2 and 3; `t1` from [`crate::coverage::min_steps`]). There is no
//! closed form for the minimising `k`, but the search interval is only
//! `[1, ⌈log₂ n⌉]` — below 1 is meaningless and above `⌈log₂ n⌉` both terms
//! are non-improving — so the optimum is found by direct evaluation, and the
//! paper proposes precomputing it into a table of less than `O(n · log n)`
//! entries ([`OptimalKTable`]).
//!
//! Tie-breaking: several `k` can achieve the same step count (always for
//! `m = 1`, where the `(m−1)k` term vanishes and e.g. `t1(48, k) = 6` for all
//! `k ∈ {3..6}`). We resolve ties toward the **largest** `k`, which matches
//! the paper's §5.1 observation that "for m = 1 the optimal value of
//! k = ⌈log₂ n⌉" (the conventional binomial tree).

use crate::coverage::{ceil_log2, min_steps};

/// Result of an optimal-`k` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimalK {
    /// The optimal child cap.
    pub k: u32,
    /// The FPFS completion steps achieved: `t1(n, k) + (m−1)·k`.
    pub steps: u64,
}

/// FPFS completion steps of the k-binomial tree: `t1(n,k) + (m−1)·k`
/// (Theorem 2 applied to the k-binomial tree family).
///
/// # Panics
///
/// Panics if `n == 0`, `m == 0`, or `k == 0`.
pub fn total_steps(n: u64, m: u32, k: u32) -> u64 {
    assert!(m >= 1, "a message has at least one packet");
    u64::from(min_steps(n, k)) + u64::from(m - 1) * u64::from(k)
}

/// The optimal `k` for an `n`-node multicast of an `m`-packet message
/// (Theorem 3): minimises [`total_steps`] over `k ∈ [1, ⌈log₂ n⌉]`,
/// ties broken toward larger `k`.
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
///
/// # Examples
///
/// ```
/// use optimcast_core::optimal::optimal_k;
/// assert_eq!(optimal_k(64, 1).k, 6);   // single packet: binomial
/// assert_eq!(optimal_k(64, 8).k, 2);   // paper Fig. 12(b)
/// assert_eq!(optimal_k(16, 16).k, 1);  // long message, small set: linear
/// ```
pub fn optimal_k(n: u64, m: u32) -> OptimalK {
    assert!(n >= 1, "a multicast set has at least the source");
    assert!(m >= 1, "a message has at least one packet");
    if n == 1 {
        return OptimalK { k: 1, steps: 0 };
    }
    let hi = ceil_log2(n).max(1);
    let mut best = OptimalK {
        k: 1,
        steps: total_steps(n, m, 1),
    };
    for k in 2..=hi {
        let steps = total_steps(n, m, k);
        if steps <= best.steps {
            best = OptimalK { k, steps };
        }
    }
    best
}

/// Precomputed optimal-`k` table for all `(n, m)` in
/// `[2, max_n] × [1, max_m]` (paper §4.3.1: the NI firmware looks the value
/// up rather than searching at multicast time).
///
/// Rows are indexed by `n`, columns by `m`. Memory is
/// `(max_n − 1) · max_m` bytes (one `u8` per entry, since
/// `k ≤ ⌈log₂ n⌉ ≤ 63`), consistent with the paper's "less than
/// `O(n · log n)` memory" feasibility argument — the optimal `k` is constant
/// over long runs of `m` and converges to a small constant as `m` grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimalKTable {
    max_n: u64,
    max_m: u32,
    /// Entry `(n, m)` at `(n - 2) * max_m + (m - 1)`.
    entries: Vec<u8>,
}

impl OptimalKTable {
    /// Precomputes the table. Cost is `O(max_n · max_m · log max_n)` time,
    /// done once at system initialisation.
    ///
    /// # Panics
    ///
    /// Panics if `max_n < 2` or `max_m < 1`.
    pub fn build(max_n: u64, max_m: u32) -> Self {
        assert!(max_n >= 2, "table needs at least n = 2");
        assert!(max_m >= 1, "table needs at least m = 1");
        let rows = usize::try_from(max_n - 1).expect("table too large");
        let cols = max_m as usize;
        let mut entries = Vec::with_capacity(rows * cols);
        for n in 2..=max_n {
            for m in 1..=max_m {
                let k = optimal_k(n, m).k;
                debug_assert!(k <= u32::from(u8::MAX));
                entries.push(k as u8);
            }
        }
        OptimalKTable {
            max_n,
            max_m,
            entries,
        }
    }

    /// Largest multicast set size covered.
    pub fn max_n(&self) -> u64 {
        self.max_n
    }

    /// Largest packet count covered.
    pub fn max_m(&self) -> u32 {
        self.max_m
    }

    /// Looks up the optimal `k`. `m` larger than the table clamps to the last
    /// column (the optimal `k` is non-increasing in `m` and has converged by
    /// then for any practically sized table). Returns `None` if `n` is out of
    /// range.
    pub fn lookup(&self, n: u64, m: u32) -> Option<u32> {
        if n < 2 || n > self.max_n || m == 0 {
            return if n == 1 { Some(1) } else { None };
        }
        let m = m.min(self.max_m);
        let idx = usize::try_from(n - 2).unwrap() * self.max_m as usize + (m as usize - 1);
        Some(u32::from(self.entries[idx]))
    }

    /// Memory footprint of the table in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage;

    #[test]
    fn single_packet_is_binomial() {
        // §5.1: for m = 1, optimal k = ⌈log₂ n⌉.
        for n in 2..=256u64 {
            assert_eq!(optimal_k(n, 1).k, ceil_log2(n), "n={n}");
        }
    }

    #[test]
    fn paper_fig12b_convergence_to_2() {
        // §5.1: for m = 4 or 8 packets, optimal k converges to 2 as n grows.
        for n in [32u64, 48, 64] {
            assert_eq!(optimal_k(n, 4).k, 2, "n={n} m=4");
            assert_eq!(optimal_k(n, 8).k, 2, "n={n} m=8");
        }
    }

    #[test]
    fn small_sets_go_linear_before_large_sets() {
        // §5.1: the smaller n, the smaller the m at which k = 1 is optimal.
        let crossover = |n| (1..=64u32).find(|&m| optimal_k(n, m).k == 1);
        let c16 = crossover(16).expect("16 crosses over");
        let c32 = crossover(32).expect("32 crosses over");
        assert!(c16 < c32, "n=16 crossover {c16} !< n=32 crossover {c32}");
    }

    #[test]
    fn exhaustive_optimality_check() {
        // The returned steps really are the minimum over the full interval,
        // and the tie-break picks the largest minimiser.
        for n in 2..=128u64 {
            for m in 1..=24u32 {
                let got = optimal_k(n, m);
                let hi = ceil_log2(n).max(1);
                let all: Vec<(u32, u64)> = (1..=hi).map(|k| (k, total_steps(n, m, k))).collect();
                let min = all.iter().map(|&(_, s)| s).min().unwrap();
                assert_eq!(got.steps, min, "n={n} m={m}");
                let largest_min = all
                    .iter()
                    .filter(|&&(_, s)| s == min)
                    .map(|&(k, _)| k)
                    .max()
                    .unwrap();
                assert_eq!(got.k, largest_min, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn steps_formula_spot_checks() {
        // n=64, m=32: k=2 gives 8 + 31*2 = 70; binomial gives 6 + 31*6 = 192.
        assert_eq!(total_steps(64, 32, 2), 70);
        assert_eq!(total_steps(64, 32, 6), 192);
        assert_eq!(optimal_k(64, 32).k, 2);
        // Linear: (n-1) + (m-1).
        assert_eq!(total_steps(10, 5, 1), 9 + 4);
    }

    #[test]
    fn optimal_k_nonincreasing_in_m() {
        for n in [8u64, 16, 31, 48, 64, 100] {
            let mut prev = u32::MAX;
            for m in 1..=64 {
                let k = optimal_k(n, m).k;
                assert!(k <= prev, "n={n} m={m}: k={k} rose above {prev}");
                prev = k;
            }
        }
    }

    #[test]
    fn optimal_steps_nondecreasing_in_n() {
        for m in [1u32, 2, 4, 8, 16] {
            let mut prev = 0;
            for n in 2..=128 {
                let s = optimal_k(n, m).steps;
                assert!(s >= prev, "n={n} m={m}");
                prev = s;
            }
        }
    }

    #[test]
    fn beats_or_matches_binomial_and_linear() {
        for n in 2..=128u64 {
            for m in 1..=32u32 {
                let opt = optimal_k(n, m).steps;
                let bin = total_steps(n, m, ceil_log2(n).max(1));
                let lin = total_steps(n, m, 1);
                assert!(opt <= bin && opt <= lin, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn improvement_factor_reaches_2x() {
        // The headline result: k-binomial up to ~2x better than binomial.
        let mut best = 0.0f64;
        for m in 1..=32u32 {
            let bin = total_steps(64, m, 6) as f64;
            let opt = optimal_k(64, m).steps as f64;
            best = best.max(bin / opt);
        }
        assert!(best >= 2.0, "max improvement {best:.2} < 2x");
    }

    #[test]
    fn n1_degenerate() {
        assert_eq!(optimal_k(1, 5), OptimalK { k: 1, steps: 0 });
    }

    #[test]
    fn table_matches_direct_search() {
        let t = OptimalKTable::build(64, 16);
        for n in 2..=64u64 {
            for m in 1..=16u32 {
                assert_eq!(t.lookup(n, m), Some(optimal_k(n, m).k), "n={n} m={m}");
            }
        }
        assert_eq!(t.memory_bytes(), 63 * 16);
    }

    #[test]
    fn table_clamps_m_and_rejects_bad_n() {
        let t = OptimalKTable::build(64, 16);
        // m beyond the table: clamped column — k has converged there.
        assert_eq!(t.lookup(64, 1000), Some(t.lookup(64, 16).unwrap()));
        assert_eq!(t.lookup(1, 4), Some(1));
        assert_eq!(t.lookup(65, 4), None);
        assert_eq!(t.lookup(0, 4), None);
    }

    #[test]
    fn search_interval_upper_bound_justified() {
        // k above ⌈log₂ n⌉ can never improve: t1 is already minimal at
        // ⌈log₂ n⌉ (binomial) and the (m−1)k term only grows.
        for n in [5u64, 16, 48, 64] {
            let hi = ceil_log2(n);
            for m in 2..=8 {
                let at_hi = total_steps(n, m, hi);
                for k in hi + 1..hi + 6 {
                    assert!(total_steps(n, m, k) >= at_hi, "n={n} m={m} k={k}");
                }
            }
        }
    }

    /// The analytic `t1 + (m−1)·k` is an upper bound on the simulated FPFS
    /// completion of the constructed tree for every k, and *exact* at the
    /// analytic optimum — so `optimal_k` returns the true achievable optimum.
    /// (If the construction realized max degree d < k, the analytic value at
    /// k = d would already be smaller, contradicting optimality of k*.)
    #[test]
    fn analytic_optimum_is_achieved_by_construction() {
        use crate::builders::kbinomial_tree;
        use crate::schedule::fpfs_schedule;
        for n in [4u64, 9, 16, 23, 31, 48, 64, 97] {
            for m in [1u32, 2, 3, 4, 8, 16, 32] {
                let opt = optimal_k(n, m);
                // Upper bound at every k.
                for k in 1..=ceil_log2(n) {
                    let t = kbinomial_tree(n as u32, k);
                    let sim = u64::from(fpfs_schedule(&t, m).total_steps());
                    assert!(sim <= total_steps(n, m, k), "n={n} m={m} k={k}");
                    assert!(sim >= opt.steps, "construction beat the optimum?!");
                }
                // Exact at the optimum.
                let t = kbinomial_tree(n as u32, opt.k);
                let sim = u64::from(fpfs_schedule(&t, m).total_steps());
                assert_eq!(sim, opt.steps, "n={n} m={m} k*={}", opt.k);
            }
        }
    }

    #[test]
    fn tie_structure_at_m1_example() {
        // t1(48, k) = 6 for k in {3,4,5,6}: the documented m=1 tie.
        for k in 3..=6 {
            assert_eq!(min_steps(48, k), 6, "k={k}");
            assert!(coverage(6, k) >= 48);
        }
        assert_eq!(optimal_k(48, 1).k, 6);
    }
}

/// The optimal `k` under the **FCFS** discipline, found by exhaustively
/// scheduling each candidate k-binomial tree (no closed form exists: FCFS
/// completion depends on the whole tree shape, not just `t1` and `k_T`).
///
/// The paper only proves optimality of the k-binomial family under FPFS;
/// this search answers the natural follow-up of how the optimum shifts when
/// the NI forwards child-by-child instead. Ties break toward larger `k`,
/// matching [`optimal_k`].
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
pub fn optimal_k_fcfs(n: u32, m: u32) -> OptimalK {
    use crate::builders::kbinomial_tree;
    use crate::schedule::fcfs_schedule;
    assert!(n >= 1, "a multicast set has at least the source");
    assert!(m >= 1, "a message has at least one packet");
    if n == 1 {
        return OptimalK { k: 1, steps: 0 };
    }
    let hi = ceil_log2(u64::from(n)).max(1);
    let mut best = OptimalK {
        k: 1,
        steps: u64::MAX,
    };
    for k in 1..=hi {
        let tree = kbinomial_tree(n, k);
        let steps = u64::from(fcfs_schedule(&tree, m).total_steps());
        if steps <= best.steps {
            best = OptimalK { k, steps };
        }
    }
    best
}

#[cfg(test)]
mod fcfs_tests {
    use super::*;
    use crate::builders::kbinomial_tree;
    use crate::schedule::{fcfs_schedule, fpfs_schedule};

    /// Single packet: FCFS and FPFS schedules coincide, so the optima do.
    #[test]
    fn single_packet_fcfs_equals_fpfs() {
        for n in [2u32, 7, 16, 48, 64] {
            let fc = optimal_k_fcfs(n, 1);
            let fp = optimal_k(u64::from(n), 1);
            assert_eq!(fc.k, fp.k, "n={n}");
            assert_eq!(fc.steps, fp.steps, "n={n}");
        }
    }

    /// FCFS never completes sooner than FPFS at the respective optima.
    #[test]
    fn fcfs_optimum_never_beats_fpfs_optimum() {
        for n in [8u32, 16, 31, 48, 64] {
            for m in [2u32, 4, 8, 16, 32] {
                let fc = optimal_k_fcfs(n, m);
                let fp = optimal_k(u64::from(n), m);
                assert!(fc.steps >= fp.steps, "n={n} m={m}: {fc:?} vs {fp:?}");
            }
        }
    }

    /// The FCFS optimum is *not* simply narrower or wider than the FPFS
    /// one: ties can resolve wider (n=16, m=2: k ∈ {2,3,4} all take 8 FCFS
    /// steps), while for longer messages FCFS abandons fan-out sooner
    /// (n=16, m=8: FCFS picks the chain while FPFS still prefers k=2).
    #[test]
    fn fcfs_optimum_shape_witnesses() {
        use crate::schedule::fcfs_schedule;
        // Tie plateau at n=16, m=2.
        for k in 2..=4 {
            assert_eq!(fcfs_schedule(&kbinomial_tree(16, k), 2).total_steps(), 8);
        }
        assert_eq!(optimal_k_fcfs(16, 2).k, 4, "tie resolves to largest k");
        // Earlier retreat to the chain under FCFS.
        assert_eq!(optimal_k_fcfs(16, 8).k, 1);
        assert_eq!(optimal_k(16, 8).k, 2);
    }

    /// If the chain is FPFS-optimal it is FCFS-optimal too (chains schedule
    /// identically under both disciplines and every other tree is no faster
    /// under FCFS), so the FCFS crossover to linear never comes later.
    #[test]
    fn fcfs_crossover_no_later_than_fpfs() {
        for n in [8u32, 16, 31, 48] {
            let cross = |f: &dyn Fn(u32) -> u32| (1u32..=64).find(|&m| f(m) == 1);
            let fc = cross(&|m| optimal_k_fcfs(n, m).k);
            let fp = cross(&|m| optimal_k(u64::from(n), m).k);
            if let (Some(fc), Some(fp)) = (fc, fp) {
                assert!(fc <= fp, "n={n}: FCFS crossover {fc} > FPFS {fp}");
            }
        }
    }

    /// The reported steps really are achieved and minimal over the interval.
    #[test]
    fn fcfs_search_is_exact() {
        for n in [5u32, 16, 40] {
            for m in [1u32, 3, 9] {
                let got = optimal_k_fcfs(n, m);
                let hi = ceil_log2(u64::from(n)).max(1);
                let min = (1..=hi)
                    .map(|k| u64::from(fcfs_schedule(&kbinomial_tree(n, k), m).total_steps()))
                    .min()
                    .unwrap();
                assert_eq!(got.steps, min, "n={n} m={m}");
                assert_eq!(
                    u64::from(fcfs_schedule(&kbinomial_tree(n, got.k), m).total_steps()),
                    got.steps
                );
            }
        }
    }

    /// For long messages the linear tree dominates under FCFS too (both
    /// disciplines agree on chains).
    #[test]
    fn long_messages_go_linear_under_both() {
        let fc = optimal_k_fcfs(16, 32);
        let fp = optimal_k(16, 32);
        assert_eq!(fc.k, 1);
        assert_eq!(fp.k, 1);
        assert_eq!(fc.steps, fp.steps);
        assert_eq!(
            u64::from(fpfs_schedule(&kbinomial_tree(16, 1), 32).total_steps()),
            fc.steps
        );
    }
}
