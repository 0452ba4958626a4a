//! A parameterized (LogGP-style) communication model generalising the
//! paper's integer step model.
//!
//! The paper counts NI-layer time in unit *steps* (`t_step = t_send +
//! t_recv`): one packet transmission per NI per step. Related work (Park et
//! al., ICPP'96 — "Construction of Optimal Multicast Trees Based on the
//! Parameterized Communication Model") argues tree shape should follow the
//! machine's real parameters. This module provides that generalisation:
//!
//! * `send_overhead` (`o_s`) — sender NI occupancy per packet copy;
//! * `recv_overhead` (`o_r`) — receiver NI occupancy per packet;
//! * `latency` (`L`) — wire time, sender release to receiver start;
//! * `gap` (`g`) — minimum interval between consecutive sends by one NI
//!   (`g = o_s + o_r` models the paper's synchronous handshake; `g = o_s`
//!   models fully overlapped injection).
//!
//! [`param_schedule`] produces exact continuous-time schedules under either
//! forwarding discipline, and [`optimal_k_param`] re-runs the Theorem-3
//! search under the generalised cost — reducing *exactly* to the paper's
//! optimum when the parameters encode the step model (tested).

use crate::coverage::ceil_log2;
use crate::params::SystemParams;
use crate::schedule::ForwardingDiscipline;
use crate::tree::{MulticastTree, Rank};

/// Machine parameters of the generalised model (all µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamModel {
    /// Sender NI occupancy per packet copy (`o_s`).
    pub send_overhead: f64,
    /// Receiver NI occupancy per packet (`o_r`).
    pub recv_overhead: f64,
    /// Wire latency between the NIs (`L`).
    pub latency: f64,
    /// Minimum interval between consecutive sends by one NI (`g`).
    pub gap: f64,
}

impl ParamModel {
    /// The paper's synchronous step model: `g = o_s + o_r`, `L = t_prop` —
    /// one send per step, steps of `t_step`.
    pub fn step_model(p: &SystemParams) -> Self {
        ParamModel {
            send_overhead: p.t_send,
            recv_overhead: p.t_recv,
            latency: p.t_prop,
            gap: p.t_send + p.t_prop + p.t_recv,
        }
    }

    /// Overlapped injection: the NI can start the next copy as soon as the
    /// previous one left (`g = o_s`).
    pub fn overlapped(p: &SystemParams) -> Self {
        ParamModel {
            send_overhead: p.t_send,
            recv_overhead: p.t_recv,
            latency: p.t_prop,
            gap: p.t_send,
        }
    }

    /// Effective inter-send spacing: a send occupies the NI for at least
    /// `max(g, o_s)`.
    fn spacing(&self) -> f64 {
        self.gap.max(self.send_overhead)
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on negative or NaN parameters.
    pub fn validate(&self) {
        for (name, v) in [
            ("send_overhead", self.send_overhead),
            ("recv_overhead", self.recv_overhead),
            ("latency", self.latency),
            ("gap", self.gap),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and >= 0, got {v}"
            );
        }
    }
}

/// A continuous-time multicast schedule under the parameterized model.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSchedule {
    /// `recv[rank][packet]`: time the packet is fully received at the NI
    /// (0 for the source).
    recv: Vec<Vec<f64>>,
}

impl ParamSchedule {
    /// Time `rank` has the whole message.
    pub fn message_completion(&self, rank: Rank) -> f64 {
        *self.recv[rank.index()].last().expect("m >= 1")
    }

    /// NI-layer completion of the whole multicast.
    pub fn total_time(&self) -> f64 {
        self.recv
            .iter()
            .map(|r| *r.last().expect("m >= 1"))
            .fold(0.0, f64::max)
    }

    /// End-to-end latency including host overheads.
    pub fn latency_us(&self, p: &SystemParams) -> f64 {
        p.t_s + self.total_time() + p.t_r
    }
}

/// Builds the continuous-time schedule of an `m`-packet multicast over
/// `tree` under `model` and the given forwarding discipline.
///
/// Semantics: the source's packets are available at time 0 (NI layer); a
/// node may forward a packet once fully received; consecutive sends by one
/// NI are at least `max(g, o_s)` apart; a packet sent at `t` is fully
/// received at `t + o_s + L + o_r`.
///
/// # Panics
///
/// Panics if `m == 0` or the model is invalid.
pub fn param_schedule(
    tree: &MulticastTree,
    m: u32,
    discipline: ForwardingDiscipline,
    model: &ParamModel,
) -> ParamSchedule {
    assert!(m >= 1, "a message has at least one packet");
    model.validate();
    let n = tree.len();
    let mu = m as usize;
    let hop = model.send_overhead + model.latency + model.recv_overhead;
    let spacing = model.spacing();
    let mut recv = vec![vec![f64::INFINITY; mu]; n];
    recv[0] = vec![0.0; mu];
    for u in tree.dfs_preorder() {
        let kids = tree.children(u);
        if kids.is_empty() {
            continue;
        }
        let arr = recv[u.index()].clone();
        let mut next_free = f64::NEG_INFINITY;
        let mut emit = |packet: u32, child: Rank, next_free: &mut f64| {
            let start = (*next_free).max(arr[packet as usize]);
            *next_free = start + spacing;
            recv[child.index()][packet as usize] = start + hop;
        };
        match discipline {
            ForwardingDiscipline::Fpfs => {
                for p in 0..m {
                    for &c in kids {
                        emit(p, c, &mut next_free);
                    }
                }
            }
            ForwardingDiscipline::Fcfs => {
                for &c in kids {
                    for p in 0..m {
                        emit(p, c, &mut next_free);
                    }
                }
            }
        }
    }
    ParamSchedule { recv }
}

/// Result of the generalised optimal-k search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamOptimal {
    /// The minimising child cap.
    pub k: u32,
    /// NI-layer completion time achieved (µs).
    pub total_us: f64,
}

/// Finds the `k ∈ [1, ⌈log₂ n⌉]` whose k-binomial tree minimises the
/// FPFS completion time under `model` (ties to larger `k`, as in
/// [`crate::optimal::optimal_k`]).
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
pub fn optimal_k_param(n: u32, m: u32, model: &ParamModel) -> ParamOptimal {
    assert!(n >= 1, "a multicast set has at least the source");
    assert!(m >= 1, "a message has at least one packet");
    if n == 1 {
        return ParamOptimal {
            k: 1,
            total_us: 0.0,
        };
    }
    let hi = ceil_log2(u64::from(n)).max(1);
    let mut best = ParamOptimal {
        k: 1,
        total_us: f64::INFINITY,
    };
    for k in 1..=hi {
        let tree = crate::builders::kbinomial_tree(n, k);
        let total = param_schedule(&tree, m, ForwardingDiscipline::Fpfs, model).total_time();
        if total <= best.total_us {
            best = ParamOptimal { k, total_us: total };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{binomial_tree, kbinomial_tree, linear_tree};
    use crate::optimal::optimal_k;
    use crate::schedule::fpfs_schedule;

    fn step() -> ParamModel {
        ParamModel::step_model(&SystemParams::paper_1997())
    }

    #[test]
    fn reduces_to_step_model_exactly() {
        // With g = o_s + o_r and L = 0, the continuous schedule is the
        // integer schedule scaled by t_step.
        for n in [2u32, 7, 16, 48] {
            for k in [1u32, 2, 4] {
                for m in [1u32, 3, 8] {
                    let tree = kbinomial_tree(n, k);
                    let ps = param_schedule(&tree, m, ForwardingDiscipline::Fpfs, &step());
                    let is = fpfs_schedule(&tree, m);
                    for r in 0..n {
                        for p in 0..m {
                            let expect = f64::from(is.receive_step(Rank(r), p)) * 5.0;
                            let got = ps.recv[r as usize][p as usize];
                            assert!(
                                (got - expect).abs() < 1e-9,
                                "n={n} k={k} m={m} r={r} p={p}: {got} vs {expect}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn optimal_k_matches_paper_under_step_model() {
        for n in [4u32, 16, 31, 48, 64] {
            for m in [1u32, 2, 4, 8, 16, 32] {
                assert_eq!(
                    optimal_k_param(n, m, &step()).k,
                    optimal_k(u64::from(n), m).k,
                    "n={n} m={m}"
                );
            }
        }
    }

    #[test]
    fn latency_includes_host_overheads() {
        let p = SystemParams::paper_1997();
        let tree = binomial_tree(8);
        let ps = param_schedule(&tree, 1, ForwardingDiscipline::Fpfs, &step());
        assert!((ps.latency_us(&p) - (12.5 + 15.0 + 12.5)).abs() < 1e-9);
    }

    #[test]
    fn overlapped_model_prefers_wider_trees() {
        // With g = o_s < t_step, replication at one node is cheaper, so the
        // optimal k under the overlapped model is never smaller than under
        // the step model (and strictly larger somewhere).
        let p = SystemParams::paper_1997();
        let ov = ParamModel::overlapped(&p);
        let st = step();
        let mut strictly = false;
        for n in [16u32, 32, 64] {
            for m in [2u32, 4, 8, 16] {
                let ko = optimal_k_param(n, m, &ov).k;
                let ks = optimal_k_param(n, m, &st).k;
                assert!(ko >= ks, "n={n} m={m}: overlapped {ko} < step {ks}");
                strictly |= ko > ks;
            }
        }
        assert!(strictly, "overlapped should widen the optimum somewhere");
    }

    #[test]
    fn wire_latency_does_not_change_pipelining_rate() {
        // Adding pure wire latency L shifts completions but the marginal
        // cost per extra packet stays gap * k (pipeline rate).
        let mut m1 = step();
        m1.latency = 50.0;
        let tree = kbinomial_tree(32, 2);
        let t4 = param_schedule(&tree, 4, ForwardingDiscipline::Fpfs, &m1).total_time();
        let t5 = param_schedule(&tree, 5, ForwardingDiscipline::Fpfs, &m1).total_time();
        assert!((t5 - t4 - 2.0 * 5.0).abs() < 1e-9);
    }

    #[test]
    fn huge_gap_makes_linear_tree_win_early() {
        // When the gap dominates, every extra child of the root costs a full
        // gap per packet, so the linear tree wins for shorter messages than
        // under the step model.
        let model = ParamModel {
            send_overhead: 1.0,
            recv_overhead: 1.0,
            latency: 0.0,
            gap: 40.0,
        };
        let st = step();
        let n = 16;
        let first_linear =
            |mdl: &ParamModel| (1u32..64).find(|&m| optimal_k_param(n, m, mdl).k == 1);
        let g = first_linear(&model).expect("gap model crosses to linear");
        let s = first_linear(&st).expect("step model crosses to linear");
        assert!(g <= s, "gap-dominated crossover {g} should not exceed {s}");
    }

    #[test]
    fn fcfs_no_faster_than_fpfs_param() {
        for n in [8u32, 16, 48] {
            for m in [2u32, 6] {
                let tree = kbinomial_tree(n, 3);
                let fp = param_schedule(&tree, m, ForwardingDiscipline::Fpfs, &step());
                let fc = param_schedule(&tree, m, ForwardingDiscipline::Fcfs, &step());
                assert!(fp.total_time() <= fc.total_time() + 1e-9, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn linear_tree_completion_formula() {
        // Chain pipeline: under the step model (spacing == hop) the last
        // node finishes at (n - 1 + m - 1) * t_step.
        let tree = linear_tree(10);
        let ps = param_schedule(&tree, 4, ForwardingDiscipline::Fpfs, &step());
        assert!((ps.total_time() - f64::from(9 + 3) * 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_gap_rejected() {
        let mut m = step();
        m.gap = -1.0;
        m.validate();
    }

    #[test]
    fn singleton_tree() {
        let t = crate::tree::MulticastTree::singleton();
        let ps = param_schedule(&t, 3, ForwardingDiscipline::Fpfs, &step());
        assert_eq!(ps.total_time(), 0.0);
        assert_eq!(optimal_k_param(1, 5, &step()).total_us, 0.0);
    }
}
