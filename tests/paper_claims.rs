//! End-to-end checks of the paper's headline claims on the full evaluation
//! pipeline (reduced sample counts keep test time reasonable; the `figures`
//! binary runs the full 10 × 30 methodology).

use optimcast::prelude::*;
use optimcast::sweep::{fig12a, fig12b, fig5, fig8};

fn sweep() -> Sweep {
    SweepBuilder::paper()
        .topologies(3)
        .dest_sets(5)
        .parallelism(2)
        .build()
        .expect("reduced paper methodology is valid")
}

/// §5.2 / Fig. 14: "the performance of the k-binomial tree is better by a
/// factor of up to 2 when compared to the binomial tree".
#[test]
fn kbinomial_up_to_2x_better_than_binomial() {
    let s = sweep();
    let f = s.improvement_factor(47).unwrap();
    assert!(
        f >= 1.8,
        "expected ~2x max improvement for 47 dests, got {f:.2}x"
    );
    // And the same for the largest multicast set.
    let f63 = s.improvement_factor(63).unwrap();
    assert!(f63 >= 1.8, "63 dests: {f63:.2}x");
}

/// Fig. 14(b): "with increase in number of packets in the message, the
/// performance improvement of k-binomial over binomial increases".
#[test]
fn improvement_grows_with_packet_count() {
    let s = sweep();
    let ratio = |m: u32| {
        s.avg_latency(TreePolicy::Binomial, 47, m, RunConfig::default())
            .unwrap()
            / s.avg_latency(TreePolicy::OptimalKBinomial, 47, m, RunConfig::default())
                .unwrap()
    };
    let r2 = ratio(2);
    let r8 = ratio(8);
    let r32 = ratio(32);
    assert!(r8 >= r2 - 1e-9, "m=8 ratio {r8:.2} < m=2 ratio {r2:.2}");
    assert!(r32 >= r8 - 1e-9, "m=32 ratio {r32:.2} < m=8 ratio {r8:.2}");
    assert!(r2 >= 0.99, "k-binomial should never lose at m=2: {r2:.2}");
}

/// The optimal k-binomial tree also dominates the linear chain (the other
/// end of the k spectrum).
#[test]
fn optimal_tree_dominates_linear_too() {
    let s = sweep();
    for (dests, m) in [(15u32, 4u32), (47, 8), (63, 32)] {
        let lin = s
            .avg_latency(TreePolicy::Linear, dests, m, RunConfig::default())
            .unwrap();
        let opt = s
            .avg_latency(TreePolicy::OptimalKBinomial, dests, m, RunConfig::default())
            .unwrap();
        assert!(
            opt <= lin + 1e-9,
            "dests={dests} m={m}: optimal {opt:.1} > linear {lin:.1}"
        );
    }
}

/// Fig. 13: latency slope flattens once the optimal k has converged (the
/// "increase in multicast latency is less when the optimal k reduces").
#[test]
fn latency_grows_linearly_once_k_converges() {
    let s = sweep();
    // For 63 dests the optimal k is 2 from m = 4 onwards (Fig. 12). The
    // marginal per-packet latency is then constant: 2 steps = 10 us.
    let l8 = s
        .avg_latency(TreePolicy::OptimalKBinomial, 63, 8, RunConfig::default())
        .unwrap();
    let l16 = s
        .avg_latency(TreePolicy::OptimalKBinomial, 63, 16, RunConfig::default())
        .unwrap();
    let l24 = s
        .avg_latency(TreePolicy::OptimalKBinomial, 63, 24, RunConfig::default())
        .unwrap();
    let s1 = (l16 - l8) / 8.0;
    let s2 = (l24 - l16) / 8.0;
    assert!(
        (s1 - s2).abs() < 2.0,
        "slopes should stabilise: {s1:.2} vs {s2:.2} us/pkt"
    );
    assert!(
        (s1 - 10.0).abs() < 3.0,
        "slope should be ~= k*t_step = 10 us/pkt, got {s1:.2}"
    );
}

/// Fig. 5 as data: binomial 6 steps vs linear 5 steps.
#[test]
fn fig5_series() {
    let f = fig5();
    assert_eq!(f.series[0].points[0].1, 6.0);
    assert_eq!(f.series[1].points[0].1, 5.0);
}

/// Fig. 8 as data: completions at steps 3, 6, 9.
#[test]
fn fig8_series() {
    let f = fig8();
    let ys: Vec<f64> = f.series[0].points.iter().map(|p| p.1).collect();
    assert_eq!(ys, vec![3.0, 6.0, 9.0]);
}

/// Fig. 12(a): optimal k falls with m; 15-dest curve reaches 1 first.
#[test]
fn fig12a_crossover_order() {
    let f = fig12a();
    let first_k1 = |label: &str| {
        f.series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .points
            .iter()
            .find(|p| p.1 == 1.0)
            .map(|p| p.0)
    };
    let c15 = first_k1("15 dest").expect("15 dest reaches k=1");
    if let Some(c31) = first_k1("31 dest") {
        assert!(c15 < c31);
    }
    assert!(
        first_k1("63 dest").is_none(),
        "63 dest stays above k=1 to m=32"
    );
}

/// Fig. 12(b): for m = 1 the curve is the ceiling log; for m = 4, 8 it
/// settles at 2.
#[test]
fn fig12b_shapes() {
    let f = fig12b();
    let one = f.series.iter().find(|s| s.label == "1 pkt").unwrap();
    for &(x, y) in &one.points {
        assert_eq!(
            y as u32,
            optimcast::core::coverage::ceil_log2(x as u64),
            "n={x}"
        );
    }
    for label in ["4 pkts", "8 pkts"] {
        let s = f.series.iter().find(|s| s.label == label).unwrap();
        assert_eq!(s.points.last().unwrap().1, 2.0, "{label}");
    }
}

/// The simulated latency of every policy is bounded below by its analytic
/// contention-free prediction — averaging over random sets cannot dip under
/// the physics of the model.
#[test]
fn simulated_never_beats_analytic_floor() {
    let s = sweep();
    for policy in [
        TreePolicy::Linear,
        TreePolicy::Binomial,
        TreePolicy::OptimalKBinomial,
    ] {
        for (dests, m) in [(15u32, 2u32), (31, 8)] {
            let avg = s
                .avg_latency(policy, dests, m, RunConfig::default())
                .unwrap();
            let n = dests + 1;
            let tree = policy.tree(n, m);
            let floor = smart_latency_us(&fpfs_schedule(&tree, m), s.config().params());
            assert!(
                avg >= floor - 1e-6,
                "{policy:?} dests={dests} m={m}: avg {avg:.2} < floor {floor:.2}"
            );
        }
    }
}
