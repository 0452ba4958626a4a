//! Analytic multicast latency models (paper §2.3–§2.6 and Fig. 4).
//!
//! * **Smart NI** (§2.5): host software overheads are paid once — `t_s` at
//!   the source, `t_r` at each destination — and the tree is executed
//!   entirely by NI coprocessors, so
//!   `L = t_s + steps · t_step + t_r`
//!   where `steps` comes from a [`Schedule`]
//!   (Theorem 2 gives `steps = t1 + (m-1)·k_T` under FPFS).
//!
//! * **Conventional NI** (§2.3): every intermediate host receives the whole
//!   message (`t_r`), then performs a full software send (`t_s` + per-packet
//!   NI transmission) for *each* child, serially. For a single-packet
//!   binomial multicast this yields the paper's
//!   `⌈log₂ n⌉ · (t_s + t_step + t_r)` (Fig. 4(a)).

use crate::params::SystemParams;
use crate::schedule::Schedule;
use crate::tree::MulticastTree;

/// Which network-interface architecture executes the multicast tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyModel {
    /// Host processors forward every copy (conventional NI, §2.3).
    ConventionalNi,
    /// NI coprocessors forward packet replicas (smart NI, §2.4).
    SmartNi,
}

/// Latency in microseconds of a multicast whose smart-NI schedule completes
/// in `steps` steps: `t_s + steps · t_step + t_r`.
pub fn smart_latency_from_steps(steps: u32, p: &SystemParams) -> f64 {
    p.t_s + f64::from(steps) * p.t_step() + p.t_r
}

/// Latency in microseconds of an `m`-packet multicast over `tree` with smart
/// NI support, using the exact step schedule `sched`.
pub fn smart_latency_us(sched: &Schedule, p: &SystemParams) -> f64 {
    smart_latency_from_steps(sched.total_steps(), p)
}

/// Latency in microseconds of an `m`-packet multicast over `tree` with
/// *conventional* NI support (host-forwarded).
///
/// Model: the host at a node owns the complete message at time `T`. It then
/// issues one software send per child, serially; the `i`-th child's host owns
/// the message at
/// `T + i·(t_s + m·t_step) + t_r`.
/// The multicast latency is the maximum over all destinations. With `m = 1`
/// and a binomial tree this reduces to the paper's
/// `⌈log₂ n⌉ · (t_s + t_step + t_r)`.
pub fn conventional_latency_us(tree: &MulticastTree, m: u32, p: &SystemParams) -> f64 {
    assert!(m >= 1, "a message has at least one packet");
    let send_cost = p.t_s + f64::from(m) * p.t_step();
    let mut own = vec![0.0f64; tree.len()];
    let mut latest = 0.0f64;
    for u in tree.dfs_preorder() {
        let base = own[u.index()];
        for (i, &c) in tree.children(u).iter().enumerate() {
            let t = base + (i as f64 + 1.0) * send_cost + p.t_r;
            own[c.index()] = t;
            latest = latest.max(t);
        }
    }
    if tree.is_empty() {
        0.0
    } else {
        latest
    }
}

/// Latency of a multicast under the requested NI model; smart-NI latency is
/// derived from the supplied schedule, conventional from the tree directly.
pub fn latency_us(
    model: LatencyModel,
    tree: &MulticastTree,
    sched: &Schedule,
    p: &SystemParams,
) -> f64 {
    match model {
        LatencyModel::SmartNi => smart_latency_us(sched, p),
        LatencyModel::ConventionalNi => conventional_latency_us(tree, sched.packets(), p),
    }
}

/// Analytic estimate of smart-NI multicast latency when each transmission
/// is independently lost with probability `drop_rate` and recovered by a
/// stop-and-wait retransmission after `ack_timeout_us`.
///
/// Each scheduled step is a transmission; a geometric number of extra
/// attempts (`d / (1 - d)` expected per step) each costs one timeout wait
/// plus a repeated step, stretching the critical path to
/// `L ≈ t_s + steps · (1 + d/(1-d) · (ack_timeout + t_step)/t_step) · t_step + t_r`.
/// At `d = 0` this is exactly [`smart_latency_from_steps`]; it grows
/// monotonically (and without bound) as `d → 1`. A first-order estimate for
/// sizing chaos sweeps, not a substitute for simulation: it ignores backoff
/// doubling and the partial overlap of independent subtree recoveries.
///
/// # Panics
///
/// Panics unless `0 ≤ drop_rate < 1` and `ack_timeout_us ≥ 0`.
pub fn degraded_smart_latency_us(
    sched: &Schedule,
    p: &SystemParams,
    drop_rate: f64,
    ack_timeout_us: f64,
) -> f64 {
    assert!(
        (0.0..1.0).contains(&drop_rate),
        "drop_rate must lie in [0, 1)"
    );
    assert!(ack_timeout_us >= 0.0, "ack_timeout_us must be non-negative");
    let base = smart_latency_from_steps(sched.total_steps(), p);
    let retries_per_step = drop_rate / (1.0 - drop_rate);
    base + f64::from(sched.total_steps()) * retries_per_step * (ack_timeout_us + p.t_step())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{binomial_tree, kbinomial_tree, linear_tree};
    use crate::schedule::{fcfs_schedule, fpfs_schedule};
    use crate::tree::Rank;

    fn p() -> SystemParams {
        SystemParams::paper_1997()
    }

    /// Paper Fig. 4: single-packet multicast to 3 destinations (binomial).
    /// Conventional: 2(t_s + t_step + t_r); smart: t_s + 2 t_step + t_r.
    #[test]
    fn fig4_three_destinations() {
        let t = binomial_tree(4);
        let s = fpfs_schedule(&t, 1);
        let conv = conventional_latency_us(&t, 1, &p());
        let smart = smart_latency_us(&s, &p());
        let ts = 12.5;
        let tr = 12.5;
        let tstep = 5.0;
        assert!((conv - 2.0 * (ts + tstep + tr)).abs() < 1e-9, "conv={conv}");
        assert!(
            (smart - (ts + 2.0 * tstep + tr)).abs() < 1e-9,
            "smart={smart}"
        );
        assert!(smart < conv);
    }

    /// Paper §2.5: for n participants, conventional = ⌈log₂n⌉(t_s+t_step+t_r),
    /// smart = t_s + ⌈log₂n⌉ t_step + t_r (single packet, binomial tree).
    #[test]
    fn single_packet_binomial_formulas() {
        for n in [2u32, 4, 8, 16, 32, 64] {
            let d = f64::from(crate::coverage::ceil_log2(u64::from(n)));
            let t = binomial_tree(n);
            let s = fpfs_schedule(&t, 1);
            let conv = conventional_latency_us(&t, 1, &p());
            let smart = smart_latency_us(&s, &p());
            assert!((conv - d * (12.5 + 5.0 + 12.5)).abs() < 1e-9, "n={n}");
            assert!((smart - (12.5 + d * 5.0 + 12.5)).abs() < 1e-9, "n={n}");
        }
    }

    /// Paper Fig. 5 latencies: binomial t_s + 6 t_step + t_r vs linear
    /// t_s + 5 t_step + t_r for m = 3, 3 destinations.
    #[test]
    fn fig5_latencies() {
        let bin = smart_latency_us(&fpfs_schedule(&binomial_tree(4), 3), &p());
        let lin = smart_latency_us(&fpfs_schedule(&linear_tree(4), 3), &p());
        assert!((bin - (12.5 + 6.0 * 5.0 + 12.5)).abs() < 1e-9);
        assert!((lin - (12.5 + 5.0 * 5.0 + 12.5)).abs() < 1e-9);
        assert!(lin < bin);
    }

    /// Smart NI always beats conventional NI for trees with intermediate
    /// forwarding (depth > 1) — the paper's motivating claim.
    #[test]
    fn smart_dominates_conventional() {
        for n in [4u32, 8, 16, 48, 64] {
            for k in 1..=5 {
                for m in [1u32, 2, 8] {
                    let t = kbinomial_tree(n, k);
                    let s = fpfs_schedule(&t, m);
                    assert!(
                        smart_latency_us(&s, &p()) < conventional_latency_us(&t, m, &p()),
                        "n={n} k={k} m={m}"
                    );
                }
            }
        }
    }

    /// Conventional latency grows linearly in m on every edge (no
    /// packet-level pipelining across hops).
    #[test]
    fn conventional_linear_in_m() {
        let t = binomial_tree(16);
        let l1 = conventional_latency_us(&t, 1, &p());
        let l2 = conventional_latency_us(&t, 2, &p());
        let l3 = conventional_latency_us(&t, 3, &p());
        assert!((l3 - l2 - (l2 - l1)).abs() < 1e-9, "constant increments");
        assert!(l2 > l1);
    }

    /// Smart latency under FPFS grows with slope `bottleneck · t_step` in m
    /// (the bottleneck is the tree's max fan-out; see schedule.rs Theorem 1
    /// tests for why that is the right reading of the paper's `k_T`).
    #[test]
    fn smart_slope_is_bottleneck_degree() {
        for k in 1..=4u32 {
            let t = kbinomial_tree(32, k);
            let l4 = smart_latency_us(&fpfs_schedule(&t, 4), &p());
            let l5 = smart_latency_us(&fpfs_schedule(&t, 5), &p());
            let slope = l5 - l4;
            assert!(
                (slope - f64::from(t.max_degree()) * 5.0).abs() < 1e-9,
                "k={k} slope={slope}"
            );
        }
    }

    #[test]
    fn host_completion_bounds_latency() {
        let t = kbinomial_tree(16, 2);
        let s = fpfs_schedule(&t, 4);
        let total = smart_latency_us(&s, &p());
        let max_host = (1..16)
            .map(|r| smart_latency_from_steps(s.message_completion(Rank(r)), &p()))
            .fold(0.0f64, f64::max);
        assert!((max_host - total).abs() < 1e-9);
    }

    #[test]
    fn latency_model_dispatch() {
        let t = binomial_tree(8);
        let s = fcfs_schedule(&t, 2);
        assert_eq!(
            latency_us(LatencyModel::SmartNi, &t, &s, &p()),
            smart_latency_us(&s, &p())
        );
        assert_eq!(
            latency_us(LatencyModel::ConventionalNi, &t, &s, &p()),
            conventional_latency_us(&t, 2, &p())
        );
    }

    /// At zero drop rate the degraded estimate collapses to the exact
    /// fault-free latency; it is monotone in the drop rate.
    #[test]
    fn degraded_latency_anchors_and_grows() {
        let t = kbinomial_tree(16, 2);
        let s = fpfs_schedule(&t, 4);
        let base = smart_latency_us(&s, &p());
        assert_eq!(degraded_smart_latency_us(&s, &p(), 0.0, 60.0), base);
        let mut prev = base;
        for d in [0.01, 0.05, 0.1, 0.25, 0.5, 0.9] {
            let est = degraded_smart_latency_us(&s, &p(), d, 60.0);
            assert!(est > prev, "d={d}: {est} <= {prev}");
            prev = est;
        }
        // A longer timeout costs more per recovery.
        assert!(
            degraded_smart_latency_us(&s, &p(), 0.1, 120.0)
                > degraded_smart_latency_us(&s, &p(), 0.1, 60.0)
        );
    }

    #[test]
    fn singleton_latency_is_overheads_only() {
        let t = crate::tree::MulticastTree::singleton();
        let s = fpfs_schedule(&t, 2);
        assert!((smart_latency_us(&s, &p()) - 25.0).abs() < 1e-9);
        assert_eq!(conventional_latency_us(&t, 2, &p()), 0.0);
    }
}
