//! The paper's headline experiment, one configuration at a time: sweep the
//! message length on the 64-node irregular cluster and watch the optimal
//! k-binomial tree pull away from the binomial baseline (Fig. 14(a)).
//!
//! ```text
//! cargo run --release --example irregular_cluster [DESTS]
//! ```

use optimcast::prelude::*;
use optimcast::sweep::{m_axis, PointSpec};

fn main() {
    let dests: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("DESTS must be a number"))
        .unwrap_or(47);
    assert!(
        (1..=63).contains(&dests),
        "DESTS must be in 1..=63 on the 64-host network"
    );

    let sweep = SweepBuilder::paper()
        .topologies(4)
        .dest_sets(10)
        .parallelism_auto()
        .build()
        .expect("preset configuration is valid");
    let cfg = sweep.config();
    println!(
        "multicast to {dests} destinations, averaged over {} topologies x {} sets ({} worker(s))",
        cfg.topologies(),
        cfg.dest_sets(),
        cfg.threads()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>8}",
        "packets", "optimal k", "bin (us)", "kbin (us)", "speedup"
    );
    // One engine pass over the whole (policy × m) grid; the memoized
    // topologies and trees are shared across every cell.
    let specs: Vec<PointSpec> = m_axis()
        .into_iter()
        .flat_map(|m| {
            [
                PointSpec::new(TreePolicy::Binomial, dests, m),
                PointSpec::new(TreePolicy::OptimalKBinomial, dests, m),
            ]
        })
        .collect();
    let means = sweep.grid(&specs).expect("points fit the 64-host network");
    for (m, pair) in m_axis().into_iter().zip(means.chunks_exact(2)) {
        let k = optimal_k(u64::from(dests) + 1, m).k;
        let (bin, kbin) = (pair[0], pair[1]);
        println!(
            "{m:>8} {k:>10} {bin:>12.2} {kbin:>12.2} {:>7.2}x",
            bin / kbin
        );
    }
    println!("\nThe speedup approaches ~2x for long messages — the paper's result.");
}
