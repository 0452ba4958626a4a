//! Golden-value regression tests: the figure pipeline is fully seeded, so
//! key data points are exact and must never drift silently. (If a model
//! change legitimately moves them, update these values alongside
//! EXPERIMENTS.md.)

use optimcast::prelude::*;
use optimcast::sweep::{fig12a, fig12b, fig5, fig8};

/// Analytic figures are parameter-exact.
#[test]
fn analytic_goldens() {
    let f5 = fig5();
    assert_eq!(f5.series[0].points[0].1, 6.0);
    assert_eq!(f5.series[1].points[0].1, 5.0);

    let f8 = fig8();
    assert_eq!(
        f8.series[0].points,
        vec![(1.0, 3.0), (2.0, 6.0), (3.0, 9.0)]
    );

    let f12a = fig12a();
    let s63 = f12a.series.iter().find(|s| s.label == "63 dest").unwrap();
    let ys: Vec<u32> = s63.points.iter().map(|p| p.1 as u32).collect();
    assert_eq!(ys, vec![6, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2]);

    let f12b = fig12b();
    let one = f12b.series.iter().find(|s| s.label == "1 pkt").unwrap();
    assert_eq!(one.points.last().unwrap().1, 6.0); // n = 64 -> k = 6
}

/// Simulated goldens under the full paper methodology are expensive; pin the
/// quick-config values instead (same determinism guarantees).
#[test]
fn simulated_goldens_quick_config() {
    let sweep = SweepBuilder::quick().build().unwrap();
    let run = RunConfig::default();
    let bin = sweep
        .avg_latency(TreePolicy::Binomial, 47, 32, run)
        .unwrap();
    let kbin = sweep
        .avg_latency(TreePolicy::OptimalKBinomial, 47, 32, run)
        .unwrap();
    // Exact determinism: identical on every machine and run (and on a
    // fresh engine with cold caches).
    let bin2 = SweepBuilder::quick()
        .build()
        .unwrap()
        .avg_latency(TreePolicy::Binomial, 47, 32, run)
        .unwrap();
    assert_eq!(bin, bin2);
    // The headline ratio at the figure's right edge.
    let ratio = bin / kbin;
    assert!(
        (1.5..=2.5).contains(&ratio),
        "47-dest m=32 ratio {ratio:.2} out of expected band"
    );
    // Golden window for the absolute values (loose enough to survive
    // non-semantic refactors; tight enough to catch model drift).
    assert!(
        (700.0..=950.0).contains(&bin),
        "binomial golden drifted: {bin:.1}"
    );
    assert!(
        (380.0..=520.0).contains(&kbin),
        "k-binomial golden drifted: {kbin:.1}"
    );
}

/// The contention-free analytic floors are hard goldens at paper parameters.
#[test]
fn analytic_latency_goldens() {
    let p = SystemParams::paper_1997();
    // 64-node broadcast floors by message length.
    for (m, steps) in [(1u32, 6u64), (8, 22), (32, 70)] {
        let opt = optimal_k(64, m);
        assert_eq!(opt.steps, steps, "m={m}");
        let floor = p.t_s + opt.steps as f64 * p.t_step() + p.t_r;
        let tree = kbinomial_tree(64, opt.k);
        let sched = fpfs_schedule(&tree, m);
        assert!((smart_latency_us(&sched, &p) - floor).abs() < 1e-9);
    }
}
