//! Determinism guarantees of the parallel sweep engine: thread count must
//! never change results, only wall time.

use optimcast::prelude::*;
use optimcast::sweep::{PointSpec, ToJson};
use proptest::prelude::*;

/// Renders a grid result as Figure JSON, the engine's public output format.
fn grid_figure_json(sweep: &Sweep, specs: &[PointSpec]) -> String {
    let means = sweep.grid(specs).expect("specs fit the network");
    let fig = Figure {
        id: "prop".into(),
        title: "property grid".into(),
        x_label: "point".into(),
        y_label: "latency (us)".into(),
        series: vec![Series {
            label: "grid".into(),
            points: means
                .into_iter()
                .enumerate()
                .map(|(i, y)| (i as f64, y))
                .collect(),
        }],
    };
    fig.to_json().to_string_pretty()
}

proptest! {
    /// The parallel runner at 1, 2, and 8 workers produces byte-identical
    /// figure JSON for random small configurations.
    #[test]
    fn workers_1_2_8_byte_identical(
        topologies in 1u32..=2,
        dest_sets in 1u32..=2,
        base_seed in 0u64..1_000_000,
        dests in 3u32..=63,
        m in 1u32..=8,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            TreePolicy::Linear,
            TreePolicy::Binomial,
            TreePolicy::OptimalKBinomial,
            TreePolicy::FixedK(3),
        ][policy_idx];
        let specs = [
            PointSpec::new(policy, dests, m),
            PointSpec::new(policy, dests.min(15), m + 1),
        ];
        let json_for = |threads: usize| {
            let sweep = SweepBuilder::quick()
                .topologies(topologies)
                .dest_sets(dest_sets)
                .base_seed(base_seed)
                .parallelism(threads)
                .build()
                .expect("small configs are valid");
            grid_figure_json(&sweep, &specs)
        };
        let serial = json_for(1);
        prop_assert_eq!(&serial, &json_for(2), "2 workers diverged");
        prop_assert_eq!(&serial, &json_for(8), "8 workers diverged");
    }
}

proptest! {
    /// The multi-tenant job grid at 1, 2, and 8 workers produces
    /// byte-identical report JSON for random small configurations: job
    /// sampling, staggered arrivals, admission planning, and the per-cell
    /// percentile reductions must all stay schedule-independent.
    #[test]
    fn tenant_grid_workers_1_2_8_byte_identical(
        base_seed in 0u64..1_000_000,
        jobs_hi in 2u32..=4,
        group in 4u32..=12,
        ia_idx in 0usize..3,
    ) {
        let mean_ia = [10.0f64, 40.0, 160.0][ia_idx];
        let json_for = |threads: usize| {
            let sweep = SweepBuilder::quick()
                .base_seed(base_seed)
                .parallelism(threads)
                .build()
                .expect("quick config is valid");
            sweep
                .multi_tenant(&[1, jobs_hi], &[mean_ia], &[group], 2)
                .expect("small tenant grids are valid")
                .to_json()
                .to_string_pretty()
        };
        let serial = json_for(1);
        prop_assert_eq!(&serial, &json_for(2), "2 workers diverged");
        prop_assert_eq!(&serial, &json_for(8), "8 workers diverged");
    }
}

/// Every simulated figure (13a, 13b, 14a, 14b) is byte-identical across 1,
/// 2, and 8 workers on the quick methodology.
#[test]
fn full_figure_byte_identical_across_workers() {
    let json_for = |threads: usize, id: FigureId| {
        let sweep = SweepBuilder::quick().parallelism(threads).build().unwrap();
        sweep.figure(id).unwrap().to_json().to_string_pretty()
    };
    for id in FigureId::ALL.into_iter().filter(|id| id.simulated()) {
        let serial = json_for(1, id);
        assert_eq!(serial, json_for(2, id), "{id:?}: 2 workers diverged");
        assert_eq!(serial, json_for(8, id), "{id:?}: 8 workers diverged");
    }
}

/// The simulated figures of the paper, in the order `optimcast figures`
/// and perfbench's `paper_sweep` render them.
const SIMULATED: [FigureId; 4] = [
    FigureId::Fig13a,
    FigureId::Fig13b,
    FigureId::Fig14a,
    FigureId::Fig14b,
];

/// The four simulated figures on one shared sweep, at 1, 2, and 8 workers,
/// equal byte for byte each figure on a fresh serial sweep: a point served
/// from the point memo is the same f64 a fresh simulation folds.
///
/// The figures plot 160 points but only 96 distinct
/// `(dests, resolved k, m, run)` keys, so the shared sweep takes exactly
/// 96 point misses and 64 point hits:
/// * Fig. 13a (44 points) and Fig. 13b (36) share their 16 crossing
///   points (`dests + 1 ∈ {16, 32, 48, 64}`, `m ∈ {1, 2, 4, 8}`): 64 keys.
/// * Fig. 14a/b's 40 k-binomial points are all Fig. 13a/b points.
/// * Their 40 binomial points hold 36 distinct keys (Fig. 14a and 14b
///   cross at `dests ∈ {15, 47}`, `m ∈ {2, 8}`), and 4 of those are
///   Theorem 3 picking `k ≥ ⌈log₂ n⌉`, where the k-binomial tree is the
///   binomial tree: 32 new keys.
#[test]
fn shared_sweep_simulates_each_figure_point_once() {
    let fresh: Vec<String> = SIMULATED
        .into_iter()
        .map(|id| {
            let sweep = SweepBuilder::quick().parallelism(1).build().unwrap();
            sweep.figure(id).unwrap().to_json().to_string_pretty()
        })
        .collect();
    for threads in [1, 2, 8] {
        let shared = SweepBuilder::quick().parallelism(threads).build().unwrap();
        for (id, fresh) in SIMULATED.into_iter().zip(&fresh) {
            let json = shared.figure(id).unwrap().to_json().to_string_pretty();
            assert_eq!(&json, fresh, "{id:?} on a shared {threads}-worker sweep");
        }
        let stats = shared.cache_stats();
        assert_eq!(
            (stats.point_misses, stats.point_hits),
            (96, 64),
            "threads={threads}"
        );
    }
}

/// A grid whose specs repeat a point key simulates that key once: a
/// repeated spec, and a binomial spec whose fixed-k twin builds the same
/// tree, add no simulator events, and a later grid over the same points
/// adds none either.
#[test]
fn repeated_point_keys_simulate_once() {
    let single = SweepBuilder::quick().build().unwrap();
    let spec = PointSpec::new(TreePolicy::Binomial, 15, 4);
    let mean = single.grid(&[spec]).unwrap()[0];
    let events = single.sim_effort().events_processed;
    assert!(events > 0);

    let sweep = SweepBuilder::quick().parallelism(2).build().unwrap();
    let twin = PointSpec::new(TreePolicy::FixedK(4), 15, 4);
    let means = sweep.grid(&[spec, spec, twin]).unwrap();
    let bits: Vec<u64> = means.iter().map(|m| m.to_bits()).collect();
    assert_eq!(bits, [mean.to_bits(); 3]);
    assert_eq!(sweep.sim_effort().events_processed, events);
    assert_eq!(sweep.grid(&[twin]).unwrap()[0].to_bits(), mean.to_bits());
    assert_eq!(sweep.sim_effort().events_processed, events);
    let stats = sweep.cache_stats();
    assert_eq!((stats.point_misses, stats.point_hits), (1, 3));
}

/// Memoization shares one tree arena per resolved `(n, k)` across the whole
/// engine — repeated lookups are pointer-equal, not merely value-equal.
#[test]
fn memoized_trees_are_pointer_equal() {
    let sweep = SweepBuilder::quick().build().unwrap();
    let a = sweep.tree(TreePolicy::OptimalKBinomial, 48, 8);
    let b = sweep.tree(TreePolicy::OptimalKBinomial, 48, 8);
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    // A fixed-k request resolving to the same shape shares it too.
    let k = optimal_k(48, 8).k;
    let c = sweep.tree(TreePolicy::FixedK(k), 48, 8);
    assert!(std::sync::Arc::ptr_eq(&a, &c));
    let stats = sweep.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 2);
}

/// The memoized topology entries are shared across grid evaluations, so a
/// multi-point sweep generates each topology exactly once.
#[test]
fn topologies_built_once_per_sweep() {
    let sweep = SweepBuilder::quick().parallelism(2).build().unwrap();
    let specs: Vec<PointSpec> = (1..=4)
        .map(|m| PointSpec::new(TreePolicy::OptimalKBinomial, 15, m))
        .collect();
    sweep.grid(&specs).unwrap();
    let stats = sweep.cache_stats();
    // 2 topology builds + at most a handful of distinct (n, k) trees + one
    // sampled chain per (topology, dest-set) pair; all other lookups must be
    // hits.
    assert!(stats.misses <= 2 + 4 + 4, "misses: {}", stats.misses);
    assert!(stats.hits >= 16, "hits: {}", stats.hits);
    // Route tables are interned per (topology, chain, resolved k): the first
    // cell of each distinct combination builds, the rest reuse.
    assert!(
        stats.route_misses > 0,
        "route misses: {}",
        stats.route_misses
    );
    assert!(
        stats.route_hits >= stats.route_misses,
        "route hits: {} misses: {}",
        stats.route_hits,
        stats.route_misses
    );
}

/// The chaos grid is byte-identical across 1 and 8 workers — fault
/// injection (PRF-keyed drop decisions, crash-set draws, tree repair) must
/// not reintroduce scheduling dependence.
#[test]
fn chaos_grid_byte_identical_across_workers() {
    use optimcast::sweep::FaultPlanSpec;
    let json_for = |threads: usize| {
        let sweep = SweepBuilder::quick()
            .fault(FaultPlanSpec {
                seed: 7,
                corrupt_rate: 0.02,
                ..FaultPlanSpec::default()
            })
            .parallelism(threads)
            .build()
            .unwrap();
        sweep
            .chaos(&[0.0, 0.05, 0.1], &[0, 1, 2], 15, 2)
            .unwrap()
            .to_json()
            .to_string_pretty()
    };
    let serial = json_for(1);
    assert_eq!(serial, json_for(8), "8 workers diverged");
}

proptest! {
    /// The streaming grid at 1, 2, and 8 workers produces byte-identical
    /// report JSON for random small configurations: chain sampling, churn
    /// planning, frame-by-frame simulation, and the per-cell reductions
    /// must all stay schedule-independent.
    #[test]
    fn streaming_grid_workers_1_2_8_byte_identical(
        base_seed in 0u64..1_000_000,
        churn in 0u32..=6,
        load_idx in 0usize..3,
        buffer in 0u32..=3,
        dests in 3u32..=15,
    ) {
        let load = [0.5f64, 1.0, 2.0][load_idx];
        let grid = StreamGrid {
            churn_levels: vec![0, churn],
            loads: vec![load],
            buffer_depths: vec![buffer],
            dests,
            frames: 6,
            ..StreamGrid::quick()
        };
        let json_for = |threads: usize| {
            let sweep = SweepBuilder::quick()
                .base_seed(base_seed)
                .parallelism(threads)
                .build()
                .expect("quick config is valid");
            sweep
                .streaming(&grid)
                .expect("small streaming grids are valid")
                .to_json()
                .to_string_pretty()
        };
        let serial = json_for(1);
        prop_assert_eq!(&serial, &json_for(2), "2 workers diverged");
        prop_assert_eq!(&serial, &json_for(8), "8 workers diverged");
    }
}
