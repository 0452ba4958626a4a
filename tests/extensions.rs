//! Integration tests for the extension systems: mesh substrate, the
//! parameterized model, personalized (scatter) simulation,
//! and the multi-multicast workload engine — each exercised end to end
//! across crates — plus the qualitative claim of every ablation figure
//! (`optimcast figures ablation_* multi_multicast param_model
//! collectives`) that EXPERIMENTS.md quotes.

use optimcast::collectives::scatter_schedule;
use optimcast::core::param_model::{optimal_k_param, param_schedule, ParamModel};
use optimcast::core::schedule::ForwardingDiscipline;
use optimcast::netsim::{MulticastJob, PersonalizedOrder, SimRun, WorkloadConfig};
use optimcast::prelude::*;
use optimcast::sweep::{
    ablation_contention, ablation_cube, ablation_fpfs_fcfs, ablation_ordering, collectives,
    multi_multicast, param_model,
};
use optimcast::topology::mesh::{snake_ordering, MeshNetwork};

fn params() -> SystemParams {
    SystemParams::paper_1997()
}

/// Multicast over a mesh with the snake chain: single-packet k-binomial
/// trees are contention-free, matching the analytic model exactly.
#[test]
fn mesh_snake_single_packet_contention_free() {
    for (arity, dims) in [(4u32, 2u32), (8, 2), (4, 3)] {
        let net = MeshNetwork::new(arity, dims);
        let n = net.num_hosts();
        let chain =
            snake_ordering(&net).arrange(HostId(0), &(1..n).map(HostId).collect::<Vec<_>>());
        for k in [1u32, 2, 3] {
            let tree = kbinomial_tree(n, k);
            let out =
                run_multicast(&net, &tree, &chain, 1, &params(), RunConfig::default()).unwrap();
            assert_eq!(out.blocked_sends, 0, "{arity}-ary {dims}-mesh k={k}");
            let analytic = smart_latency_us(&fpfs_schedule(&tree, 1), &params());
            assert!((out.latency_us - analytic).abs() < 1e-6);
        }
    }
}

/// Mesh multi-packet multicast keeps the k-binomial advantage (the ICPP'95
/// [2] setting revisited with fixed packet sizes and NI support).
#[test]
fn mesh_kbinomial_beats_binomial_for_long_messages() {
    let net = MeshNetwork::new(8, 2); // 64 processors
    let n = net.num_hosts();
    let chain = snake_ordering(&net).arrange(HostId(0), &(1..n).map(HostId).collect::<Vec<_>>());
    let m = 16;
    let lat = |k: u32| {
        run_multicast(
            &net,
            &kbinomial_tree(n, k),
            &chain,
            m,
            &params(),
            RunConfig::default(),
        )
        .unwrap()
        .latency_us
    };
    let bin = lat(6);
    let kbin = lat(optimal_k(u64::from(n), m).k);
    assert!(
        kbin < bin / 1.5,
        "mesh: kbin {kbin:.1} should beat bin {bin:.1} clearly"
    );
}

/// The parameterized model agrees with the simulator's overlapped timing:
/// `g = o_s` continuous schedules match `NiTiming::Overlapped` runs on a
/// crossbar for chains (where FIFO and analytic orders coincide).
#[test]
fn param_model_overlapped_matches_simulator_on_chains() {
    let net = IrregularNetwork::generate(
        IrregularConfig {
            switches: 1,
            ports: 16,
            hosts: 16,
        },
        0,
    );
    let p = params();
    let model = ParamModel::overlapped(&p);
    for n in [4u32, 9, 16] {
        for m in [1u32, 3, 6] {
            let tree = linear_tree(n);
            let ps = param_schedule(&tree, m, ForwardingDiscipline::Fpfs, &model);
            let binding: Vec<HostId> = (0..n).map(HostId).collect();
            let out = run_multicast(
                &net,
                &tree,
                &binding,
                m,
                &p,
                RunConfig {
                    timing: NiTiming::Overlapped,
                    contention: ContentionMode::Ideal,
                    ..RunConfig::default()
                },
            )
            .unwrap();
            let expect = ps.latency_us(&p);
            assert!(
                (out.latency_us - expect).abs() < 1e-6,
                "n={n} m={m}: sim {} vs param {expect}",
                out.latency_us
            );
        }
    }
}

/// The generalised optimal-k under the overlapped model is achievable in
/// the simulator: the recommended tree is never slower there than the
/// step-model recommendation.
#[test]
fn overlapped_recommendation_wins_under_overlapped_timing() {
    let net = IrregularNetwork::generate(
        IrregularConfig {
            switches: 1,
            ports: 64,
            hosts: 64,
        },
        0,
    );
    let p = params();
    let run = |k: u32, m: u32| {
        let tree = kbinomial_tree(64, k);
        run_multicast(
            &net,
            &tree,
            &(0..64).map(HostId).collect::<Vec<_>>(),
            m,
            &p,
            RunConfig {
                timing: NiTiming::Overlapped,
                contention: ContentionMode::Ideal,
                ..RunConfig::default()
            },
        )
        .unwrap()
        .latency_us
    };
    for m in [4u32, 8, 16] {
        let k_ov = optimal_k_param(64, m, &ParamModel::overlapped(&p)).k;
        let k_st = optimal_k(64, m).k;
        assert!(
            run(k_ov, m) <= run(k_st, m) + 1e-9,
            "m={m}: overlapped pick k={k_ov} vs step pick k={k_st}"
        );
    }
}

/// Scatter simulation agrees with the analytic scatter schedule through
/// the public cross-crate pipeline (OwnFirst, irregular crossbar).
#[test]
fn scatter_pipeline_cross_validates() {
    let net = IrregularNetwork::generate(
        IrregularConfig {
            switches: 1,
            ports: 24,
            hosts: 24,
        },
        0,
    );
    let p = params();
    let tree = kbinomial_tree(24, 3);
    let sched = scatter_schedule(&tree, 2, PersonalizedOrder::OwnFirst);
    let binding: Vec<HostId> = (0..24).map(HostId).collect();
    let out = SimRun::new(
        &net,
        &[MulticastJob::scatter(
            tree,
            binding,
            2,
            PersonalizedOrder::OwnFirst,
        )],
        &p,
        WorkloadConfig {
            contention: ContentionMode::Ideal,
            timing: NiTiming::Handshake,
            trace: false,
            ..WorkloadConfig::default()
        },
    )
    .run()
    .unwrap();
    let expect = p.t_s + f64::from(sched.total_steps()) * p.t_step() + p.t_r;
    assert!((out.jobs[0].latency_us - expect).abs() < 1e-6);
}

/// Concurrency scaling: average per-job latency is non-decreasing in the
/// number of co-scheduled multicasts (node contention can only hurt).
#[test]
fn workload_interference_monotone() {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 31);
    let ordering = cco(&net);
    let p = params();
    let mk = |count: usize| -> Vec<MulticastJob> {
        (0..count)
            .map(|i| {
                let src = HostId((i as u32 * 7) % 64);
                let dests: Vec<HostId> =
                    (0..64).map(HostId).filter(|&h| h != src).take(31).collect();
                let chain = ordering.arrange(src, &dests);
                MulticastJob::fpfs(kbinomial_tree(32, 2), chain, 8)
            })
            .collect()
    };
    let mut prev_avg = 0.0;
    for count in [1usize, 2, 4] {
        let wl = SimRun::new(&net, &mk(count), &p, WorkloadConfig::default())
            .run()
            .unwrap();
        let avg = wl.jobs.iter().map(|o| o.latency_us).sum::<f64>() / count as f64;
        assert!(
            avg >= prev_avg - 1e-9,
            "{count} jobs: avg {avg:.1} dropped below {prev_avg:.1}"
        );
        prev_avg = avg;
    }
}

/// Scale: a 256-host irregular network (32 switches x 16 ports) runs the
/// whole pipeline — generation, CCO, optimal tree, simulation — and the
/// simulator still matches the contention-free analytic model.
#[test]
fn scales_to_256_hosts() {
    let cfg = IrregularConfig {
        switches: 32,
        ports: 16,
        hosts: 256,
    };
    let net = IrregularNetwork::generate(cfg, 1);
    assert_eq!(net.num_hosts(), 256);
    let ordering = cco(&net);
    let dests: Vec<HostId> = (1..256).map(HostId).collect();
    let chain = ordering.arrange(HostId(0), &dests);
    let m = 8;
    let k = optimal_k(256, m).k;
    let tree = kbinomial_tree(256, k);
    let ideal = run_multicast(
        &net,
        &tree,
        &chain,
        m,
        &params(),
        RunConfig {
            contention: ContentionMode::Ideal,
            ..RunConfig::default()
        },
    )
    .unwrap();
    let analytic = smart_latency_us(&fpfs_schedule(&tree, m), &params());
    assert!((ideal.latency_us - analytic).abs() < 1e-6);
    let worm = run_multicast(&net, &tree, &chain, m, &params(), RunConfig::default()).unwrap();
    assert!(worm.latency_us >= ideal.latency_us - 1e-9);
    assert!(
        worm.latency_us < analytic * 3.0,
        "contention overhead bounded"
    );
}

/// The FCFS per-message counter works with interleaved messages: two FCFS
/// multicasts relayed by the same intermediate hosts complete correctly
/// (the §3.3.1 bookkeeping concern the paper raises against FCFS).
#[test]
fn fcfs_multi_message_counters() {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 17);
    let tree = kbinomial_tree(32, 3);
    let binding_a: Vec<HostId> = (0..32).map(HostId).collect();
    let binding_b: Vec<HostId> = (0..32).rev().map(HostId).collect();
    let m = 6;
    let mk = |binding: Vec<HostId>| {
        let mut j = MulticastJob::fpfs(tree.clone(), binding, m);
        j.nic = optimcast::netsim::NicKind::Smart(ForwardingDiscipline::Fcfs);
        j
    };
    let wl = SimRun::new(
        &net,
        &[mk(binding_a), mk(binding_b)],
        &params(),
        WorkloadConfig::default(),
    )
    .run()
    .unwrap();
    for (i, out) in wl.jobs.iter().enumerate() {
        for r in 1..32 {
            assert!(out.host_done_us[r] > 0.0, "job {i} rank {r} incomplete");
        }
        // Each job moved exactly (n-1) * m packets despite interleaving.
        assert_eq!(out.total_sends, 31 * u64::from(m), "job {i}");
    }
}

/// Throughput sanity on the big network: the event engine handles a
/// full-machine broadcast workload quickly (guard against superlinear
/// regressions; generous wall-clock bound).
#[test]
fn engine_throughput_sanity() {
    let cfg = IrregularConfig {
        switches: 32,
        ports: 16,
        hosts: 256,
    };
    let net = IrregularNetwork::generate(cfg, 2);
    let ordering = cco(&net);
    let dests: Vec<HostId> = (1..256).map(HostId).collect();
    let chain = ordering.arrange(HostId(0), &dests);
    let tree = kbinomial_tree(256, 2);
    let start = std::time::Instant::now();
    let job = MulticastJob::fpfs(tree, chain, 32);
    let out = SimRun::new(
        &net,
        std::slice::from_ref(&job),
        &params(),
        WorkloadConfig::default(),
    )
    .run()
    .unwrap();
    let wall = start.elapsed();
    assert!(out.events > 0);
    assert!(
        wall.as_secs_f64() < 30.0,
        "256-host m=32 multicast took {wall:?}"
    );
}

/// The y value of `fig`'s series `label` at `x`.
fn point(fig: &Figure, label: &str, x: f64) -> f64 {
    let series = fig
        .series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("{}: no series {label}", fig.id));
    series
        .points
        .iter()
        .find(|p| p.0 == x)
        .unwrap_or_else(|| panic!("{}: {label} has no point at x = {x}", fig.id))
        .1
}

/// A1: each contention-aware ordering (CCO, switch-grouped) blocks fewer
/// sends than a random ordering of the same participants.
#[test]
fn ablation_ordering_structured_orders_block_less_than_random() {
    let f = ablation_ordering(&params());
    let random = point(&f, "blocked sends", 2.0);
    for x in [0.0, 1.0] {
        assert!(point(&f, "blocked sends", x) < random, "ordering {x}");
    }
}

/// A2 / §3.3.2: the FCFS forwarding-buffer highwater is the whole message
/// (m = 16 packets); FPFS holds fewer.
#[test]
fn ablation_fcfs_highwater_is_the_message() {
    let f = ablation_fpfs_fcfs(&params());
    assert_eq!(point(&f, "max fwd buffer", 1.0), 16.0);
    assert!(point(&f, "max fwd buffer", 0.0) < 16.0);
}

/// A3: with contention off the simulator lands exactly on the analytic
/// floor (215 µs); wormhole contention only adds to it.
#[test]
fn ablation_ideal_contention_equals_analytic_floor() {
    let f = ablation_contention(&params());
    let analytic = point(&f, "latency (us)", 0.0);
    assert!((analytic - 215.0).abs() < 1e-9, "{analytic}");
    assert!((point(&f, "latency (us)", 1.0) - analytic).abs() < 1e-9);
    assert_eq!(point(&f, "blocked sends", 1.0), 0.0);
    assert!(point(&f, "latency (us)", 2.0) >= analytic);
}

/// A4: multi-packet pipelining blocks some sends even on cubes, but costs
/// under 10% over the analytic prediction.
#[test]
fn ablation_cube_nested_contention_is_bounded() {
    let f = ablation_cube(&params());
    for arity in [2.0, 4.0, 8.0] {
        let (sim, analytic) = (
            point(&f, "latency (us)", arity),
            point(&f, "analytic (us)", arity),
        );
        assert!(point(&f, "blocked sends", arity) > 0.0, "{arity}-ary");
        assert!(sim >= analytic && sim <= 1.1 * analytic, "{arity}-ary");
    }
}

/// Multi-multicast: the optimal k-binomial tree beats the binomial tree at
/// every job count, run concurrently and alone.
#[test]
fn multi_multicast_kbinomial_wins_at_every_job_count() {
    let f = multi_multicast(&params());
    for &(jobs, _) in &f.series[0].points {
        assert!(
            point(&f, "kbin", jobs) < point(&f, "binomial", jobs),
            "{jobs}"
        );
        assert!(
            point(&f, "kbin solo", jobs) < point(&f, "binomial solo", jobs),
            "{jobs}"
        );
    }
}

/// Parameterized model: the step-model column is Theorem 3's optimal k,
/// and overlapped injection never picks a narrower tree.
#[test]
fn param_model_step_column_is_theorem3() {
    let f = param_model(&params());
    for &(m, k) in &f.series[0].points {
        assert_eq!(k, f64::from(optimal_k(64, m as u32).k), "m = {m}");
        assert!(point(&f, "overlapped", m) >= k, "m = {m}");
    }
}

/// Collectives: the chain scatter meets the source bound m(n-1) = 504 and
/// beats the k-binomial tree (619 steps); gather mirrors scatter.
#[test]
fn collectives_chain_scatter_meets_source_bound() {
    let f = collectives();
    assert_eq!(point(&f, "scatter", 0.0), 504.0);
    assert_eq!(point(&f, "source bound", 0.0), 504.0);
    assert_eq!(point(&f, "scatter", 1.0), 619.0);
    for x in [0.0, 1.0] {
        assert_eq!(point(&f, "gather", x), point(&f, "scatter", x), "tree {x}");
    }
}
