//! The ablations and extensions beyond the paper's figures, as fixed-seed
//! figures: each runs a handful of single simulations (or analytic
//! schedules) on seeded 64-host networks, so `optimcast figures <id>` pins
//! every number EXPERIMENTS.md quotes in `results/<id>.json`.
//!
//! Figures whose x axis enumerates variants (orderings, disciplines,
//! contention modes) number them in the order the `x_label` lists them.

use crate::figure::{Figure, Series};
use crate::sampling::m_axis;
use optimcast_collectives::{gather_schedule, scatter_schedule};
use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};
use optimcast_core::latency::smart_latency_us;
use optimcast_core::optimal::optimal_k;
use optimcast_core::param_model::{optimal_k_param, ParamModel};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::{fpfs_schedule, ForwardingDiscipline};
use optimcast_core::tree::MulticastTree;
use optimcast_netsim::{
    run_multicast, ContentionMode, MulticastJob, MulticastOutcome, NicKind, PersonalizedOrder,
    RunConfig, SimRun, WorkloadConfig,
};
use optimcast_rng::{ChaCha8Rng, SliceRandom};
use optimcast_topology::cube::CubeNetwork;
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use optimcast_topology::ordering::{cco, switch_grouped, Ordering};
use optimcast_topology::Network;

fn series(label: &str, points: Vec<(f64, f64)>) -> Series {
    Series {
        label: label.into(),
        points,
    }
}

/// The optimal k-binomial tree (Theorem 3) over an `n`-host chain.
fn optimal_tree(n: u32, m: u32) -> MulticastTree {
    kbinomial_tree(n, optimal_k(u64::from(n), m).k)
}

/// One fault-free multicast of `m` packets down `tree` on `chain`.
fn simulate<N: Network>(
    net: &N,
    tree: &MulticastTree,
    chain: &[HostId],
    m: u32,
    params: &SystemParams,
    config: RunConfig,
) -> MulticastOutcome {
    run_multicast(net, tree, chain, m, params, config).expect("ablation workloads are valid")
}

/// Latency (µs), blocked sends and channel stall (µs) per variant, as
/// three series over the variant index counted from `first_x`.
fn contention_series(outcomes: &[MulticastOutcome], first_x: f64) -> Vec<Series> {
    let over = |y: fn(&MulticastOutcome) -> f64| -> Vec<(f64, f64)> {
        outcomes
            .iter()
            .enumerate()
            .map(|(i, out)| (first_x + i as f64, y(out)))
            .collect()
    };
    vec![
        series("latency (us)", over(|o| o.latency_us)),
        series("blocked sends", over(|o| o.blocked_sends as f64)),
        series("stall (us)", over(|o| o.channel_wait_us)),
    ]
}

/// A1: the base ordering under the same 47-destination, 8-packet optimal
/// k-binomial multicast from host 0 (seed-13 network) — CCO,
/// switch-grouped and a random permutation (seed 777).
pub fn ablation_ordering(params: &SystemParams) -> Figure {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 13);
    let dests: Vec<HostId> = (1..48).map(HostId).collect();
    let m = 8;
    let outcomes: Vec<MulticastOutcome> = [
        cco(&net),
        switch_grouped(net.topology()),
        Ordering::random(64, 777),
    ]
    .iter()
    .map(|ordering| {
        let chain = ordering.arrange(HostId(0), &dests);
        let tree = optimal_tree(chain.len() as u32, m);
        simulate(&net, &tree, &chain, m, params, RunConfig::default())
    })
    .collect();
    Figure {
        id: "ablation_ordering".into(),
        title: "Base ordering vs wormhole contention (47 dest, 8 packets)".into(),
        x_label: "ordering (0 CCO, 1 switch-grouped, 2 random)".into(),
        y_label: "latency (us), blocked sends, stall (us)".into(),
        series: contention_series(&outcomes, 0.0),
    }
}

/// A2: FPFS vs FCFS smart-NI forwarding of a 16-packet multicast to 47
/// destinations over the binomial tree (seed-29 network, CCO): latency and
/// the largest forwarding-NI buffer highwater (the source excluded).
pub fn ablation_fpfs_fcfs(params: &SystemParams) -> Figure {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 29);
    let dests: Vec<HostId> = (1..48).map(HostId).collect();
    let chain = cco(&net).arrange(HostId(0), &dests);
    let tree = binomial_tree(chain.len() as u32);
    let m = 16;
    let (mut latency, mut buffer) = (Vec::new(), Vec::new());
    for (i, disc) in [ForwardingDiscipline::Fpfs, ForwardingDiscipline::Fcfs]
        .into_iter()
        .enumerate()
    {
        let config = RunConfig {
            nic: NicKind::Smart(disc),
            ..RunConfig::default()
        };
        let out = simulate(&net, &tree, &chain, m, params, config);
        let highwater = out.max_ni_buffer[1..].iter().copied().max().unwrap_or(0);
        latency.push((i as f64, out.latency_us));
        buffer.push((i as f64, f64::from(highwater)));
    }
    Figure {
        id: "ablation_fpfs_fcfs".into(),
        title: "FPFS vs FCFS forwarding (binomial, 47 dest, 16 packets)".into(),
        x_label: "discipline (0 FPFS, 1 FCFS)".into(),
        y_label: "latency (us), packets".into(),
        series: vec![
            series("latency (us)", latency),
            series("max fwd buffer", buffer),
        ],
    }
}

/// A3: the contention-free analytic latency against the simulator with
/// contention off (`Ideal`) and on (`Wormhole`), for a 16-packet optimal
/// k-binomial multicast to 63 destinations (seed-31 network, CCO).
pub fn ablation_contention(params: &SystemParams) -> Figure {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 31);
    let dests: Vec<HostId> = (1..64).map(HostId).collect();
    let chain = cco(&net).arrange(HostId(0), &dests);
    let m = 16;
    let tree = optimal_tree(chain.len() as u32, m);
    let analytic = smart_latency_us(&fpfs_schedule(&tree, m), params);
    let outcomes: Vec<MulticastOutcome> = [ContentionMode::Ideal, ContentionMode::Wormhole]
        .into_iter()
        .map(|contention| {
            let config = RunConfig {
                contention,
                ..RunConfig::default()
            };
            simulate(&net, &tree, &chain, m, params, config)
        })
        .collect();
    // The analytic floor is x = 0; the simulated modes follow it.
    let mut series = contention_series(&outcomes, 1.0);
    series[0].points.insert(0, (0.0, analytic));
    Figure {
        id: "ablation_contention".into(),
        title: "Contention model (optimal k-binomial, 63 dest, 16 packets)".into(),
        x_label: "model (0 analytic, 1 ideal, 2 wormhole)".into(),
        y_label: "latency (us), blocked sends, stall (us)".into(),
        series,
    }
}

/// A4: 8-packet broadcast over the optimal k-binomial tree on 64-host
/// k-ary n-cubes (2-ary 6-cube, 4-ary 3-cube, 8-ary 2-cube) with the
/// dimension-ordered chain, against the contention-free analytic latency.
pub fn ablation_cube(params: &SystemParams) -> Figure {
    let m = 8;
    let (mut latency, mut blocked, mut analytic) = (Vec::new(), Vec::new(), Vec::new());
    for (arity, dims) in [(2u32, 6u32), (4, 3), (8, 2)] {
        let net = CubeNetwork::new(arity, dims);
        let n = net.num_hosts();
        let chain: Vec<HostId> = (0..n).map(HostId).collect();
        let tree = optimal_tree(n, m);
        let out = simulate(&net, &tree, &chain, m, params, RunConfig::default());
        let x = f64::from(arity);
        latency.push((x, out.latency_us));
        blocked.push((x, out.blocked_sends as f64));
        analytic.push((x, smart_latency_us(&fpfs_schedule(&tree, m), params)));
    }
    Figure {
        id: "ablation_cube".into(),
        title: "k-binomial broadcast on 64-host k-ary n-cubes (8 packets)".into(),
        x_label: "cube arity (2-ary 6-cube, 4-ary 3-cube, 8-ary 2-cube)".into(),
        y_label: "latency (us), blocked sends".into(),
        series: vec![
            series("latency (us)", latency),
            series("blocked sends", blocked),
            series("analytic (us)", analytic),
        ],
    }
}

/// Multiple simultaneous multicasts (node contention): `jobs` concurrent
/// 31-destination, 8-packet multicasts, each from a random source over
/// random members of the same 64 hosts (job seed 7, seed-99 network, CCO),
/// under the optimal k-binomial tree and the binomial tree. Each policy
/// reports the mean job latency run concurrently and each job run alone.
pub fn multi_multicast(params: &SystemParams) -> Figure {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 99);
    let ordering = cco(&net);
    let (m, dests) = (8, 31);
    let run = |jobs: &[MulticastJob]| {
        SimRun::new(&net, jobs, params, WorkloadConfig::default())
            .run()
            .expect("ablation workloads are valid")
    };
    let mean = |latencies: Vec<f64>| latencies.iter().sum::<f64>() / latencies.len() as f64;
    // Series: kbin concurrent, binomial concurrent, kbin solo, binomial solo.
    let mut points: [Vec<(f64, f64)>; 4] = Default::default();
    for jobs in [1usize, 2, 3, 4, 8] {
        for (p, binomial) in [false, true].into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let job_list: Vec<MulticastJob> = (0..jobs)
                .map(|_| {
                    let mut hosts: Vec<HostId> = (0..64).map(HostId).collect();
                    hosts.shuffle(&mut rng);
                    let chain = ordering.arrange(hosts[0], &hosts[1..=dests]);
                    let n = chain.len() as u32;
                    let tree = if binomial {
                        binomial_tree(n)
                    } else {
                        optimal_tree(n, m)
                    };
                    MulticastJob::fpfs(tree, chain, m)
                })
                .collect();
            let solo = job_list
                .iter()
                .map(|job| run(std::slice::from_ref(job)).jobs[0].latency_us)
                .collect();
            let concurrent = run(&job_list).jobs.iter().map(|o| o.latency_us).collect();
            let x = jobs as f64;
            points[p].push((x, mean(concurrent)));
            points[p + 2].push((x, mean(solo)));
        }
    }
    let [kbin, bin, kbin_solo, bin_solo] = points;
    Figure {
        id: "multi_multicast".into(),
        title: "Concurrent multicasts on shared hosts (31 dest, 8 packets)".into(),
        x_label: "concurrent jobs".into(),
        y_label: "mean job latency (us)".into(),
        series: vec![
            series("kbin", kbin),
            series("binomial", bin),
            series("kbin solo", kbin_solo),
            series("binomial solo", bin_solo),
        ],
    }
}

/// The parameterized (LogGP-style) model: optimal `k` for a 64-host
/// multicast across message lengths, under the paper's synchronous step
/// model and under overlapped injection (gap `g = o_s`).
pub fn param_model(params: &SystemParams) -> Figure {
    let models = [
        ("step model", ParamModel::step_model(params)),
        ("overlapped", ParamModel::overlapped(params)),
    ];
    Figure {
        id: "param_model".into(),
        title: "Optimal k under the parameterized model (n = 64)".into(),
        x_label: "Number of packets (m)".into(),
        y_label: "Optimal k".into(),
        series: models
            .iter()
            .map(|(label, model)| {
                let points = m_axis()
                    .into_iter()
                    .map(|m| (f64::from(m), f64::from(optimal_k_param(64, m, model).k)))
                    .collect();
                series(label, points)
            })
            .collect(),
    }
}

/// Scatter and gather of 8-packet blocks among 64 participants with
/// deepest-first injection, over the linear chain and the 2-binomial tree,
/// against the source bound `m(n-1)`.
pub fn collectives() -> Figure {
    let m = 8;
    let (mut scatter, mut gather, mut bound) = (Vec::new(), Vec::new(), Vec::new());
    for (i, tree) in [linear_tree(64), kbinomial_tree(64, 2)].iter().enumerate() {
        let s = scatter_schedule(tree, m, PersonalizedOrder::DeepestFirst);
        let g = gather_schedule(tree, m, PersonalizedOrder::DeepestFirst);
        let x = i as f64;
        scatter.push((x, f64::from(s.total_steps())));
        gather.push((x, f64::from(g.total_steps())));
        bound.push((x, f64::from(s.source_bound())));
    }
    Figure {
        id: "collectives".into(),
        title: "Scatter and gather steps (64 participants, 8 packets per block)".into(),
        x_label: "tree (0 chain, 1 2-binomial)".into(),
        y_label: "steps".into(),
        series: vec![
            series("scatter", scatter),
            series("gather", gather),
            series("source bound", bound),
        ],
    }
}
