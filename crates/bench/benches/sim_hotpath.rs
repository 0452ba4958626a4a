//! Simulator-core hot-path microbenchmarks: steady-state event-queue churn
//! (the innermost data structure of every run), full `run_multicast`
//! calls with and without an interned route table and through a warm
//! `SimArena`, the fault plan's per-send verdict, one windowed-ARQ
//! multicast under random loss, a route table build on an 8,192-host
//! fat-tree, and a whole-fabric multicast on a 16,384-host fat-tree, large
//! enough that the event loop prefetches ahead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optimcast::netsim::engine::EventQueue;
use optimcast::netsim::{JobRoutes, NiModel, SimArena, WorkloadOutcome};
use optimcast::prelude::*;
use optimcast::sweep::sample_chain;
use optimcast::topology::fabric::{FabricConfig, FabricNetwork};
use optimcast::topology::ordering::cco_of;
use std::sync::Arc;
use std::time::Duration;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/event_queue");
    // Steady-state churn at a resident population typical of a 64-host
    // multicast: pop one, schedule one.
    for resident in [32usize, 512] {
        g.bench_function(format!("churn_resident{resident}"), |b| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..resident {
                q.schedule_in(1.0 + i as f64, i as u64);
            }
            let mut i = resident as u64;
            b.iter(|| {
                let (_, payload) = q.pop().expect("population stays resident");
                i += 1;
                q.schedule_in(1.0 + (payload % 97) as f64, black_box(i));
            });
        });
    }
    // Tie-heavy churn: many events at identical times exercises the
    // (time, seq) tie-break comparison path.
    g.bench_function("churn_all_ties", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..256u64 {
            q.schedule_in(1.0, i);
        }
        b.iter(|| {
            let (_, payload) = q.pop().expect("population stays resident");
            q.schedule_in(1.0, black_box(payload));
        });
    });
    // Step-cost lattice churn shaped like a traced 65k-host fat-tree run:
    // ~30k resident events, 45% scheduled at the current instant, the rest
    // 1-159 quarter-µs ticks ahead (≤ 160 distinct pending times).
    g.bench_function("churn_lattice_resident30k", |b| {
        let delay = |i: u64| match i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57 {
            r if r < 58 => 0.0, // 58/128 ≈ 45%
            r => 0.25 * (1 + (r * 13 + i) % 159) as f64,
        };
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..30_000u64 {
            q.schedule_in(delay(i), i);
        }
        let mut i = 30_000u64;
        b.iter(|| {
            let (_, payload) = q.pop().expect("population stays resident");
            i += 1;
            q.schedule_in(delay(i), black_box(payload));
        });
    });
    g.finish();
}

fn bench_run_multicast(c: &mut Criterion) {
    let sweep = SweepBuilder::quick().build().unwrap();
    let cfg = *sweep.config();
    let topo = sweep.topology(0);
    let chain = sample_chain(&topo.net, &topo.ordering, cfg.set_seed(0, 0), 31);
    let tree = sweep.tree(TreePolicy::OptimalKBinomial, chain.len() as u32, 8);
    let routes = Arc::new(JobRoutes::build(&topo.net, &tree, &chain));
    let run = |routes: Option<&Arc<JobRoutes>>| {
        let job = MulticastJob::fpfs(Arc::clone(&tree), black_box(&chain).clone(), 8);
        let mut run = SimRun::new(
            &topo.net,
            std::slice::from_ref(&job),
            cfg.params(),
            WorkloadConfig::default(),
        );
        if let Some(r) = routes {
            run = run.routes(vec![Arc::clone(r)]);
        }
        run.run().unwrap().jobs[0].latency_us
    };
    let mut g = c.benchmark_group("sim/run_multicast_31d_8m");
    g.bench_function("prerouted", |b| b.iter(|| run(Some(&routes))));
    g.bench_function("routing_inline", |b| b.iter(|| run(None)));
    // `prerouted` with the run's state and outcome kept across iterations,
    // as a sweep cell's samples keep them.
    let (mut arena, mut out) = (SimArena::new(), WorkloadOutcome::default());
    g.bench_function("prerouted_warm_arena", |b| {
        b.iter(|| {
            let job = MulticastJob::fpfs(Arc::clone(&tree), black_box(&chain).clone(), 8);
            SimRun::new(
                &topo.net,
                std::slice::from_ref(&job),
                cfg.params(),
                WorkloadConfig::default(),
            )
            .routes(std::slice::from_ref(&routes))
            .run_into(&mut arena, &mut out)
            .unwrap();
            out.jobs[0].latency_us
        })
    });
    g.finish();
}

fn bench_fault_verdict(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/fault_verdict");
    // With corruption off a send draws only the drop stream; with it on,
    // a send that is not dropped draws both.
    for (name, corrupt_rate) in [("drop0.05_corrupt0", 0.0), ("drop0.05_corrupt0.01", 0.01)] {
        let plan = FaultPlan {
            drop_rate: 0.05,
            corrupt_rate,
            ..FaultPlan::new(1997)
        };
        g.bench_function(name, |b| {
            let mut packet = 0u32;
            b.iter(|| {
                packet = packet.wrapping_add(1);
                black_box(&plan).tx_outcome(0, 0, 0, 5, packet, 0, &[], 0.0, 1.0, HostId(5))
            });
        });
    }
    g.finish();
}

fn bench_run_multicast_arq(c: &mut Criterion) {
    let sweep = SweepBuilder::quick().build().unwrap();
    let cfg = *sweep.config();
    let topo = sweep.topology(0);
    let salt = cfg.set_seed(0, 0);
    let chain = sample_chain(&topo.net, &topo.ordering, salt, 31);
    let tree = sweep.tree(TreePolicy::OptimalKBinomial, chain.len() as u32, 32);
    let spec = FaultPlanSpec {
        seed: 1997,
        drop_rate: 0.05,
        window: 8,
        send_units: 2,
        ..FaultPlanSpec::default()
    };
    let plan = spec.plan(salt, Vec::new());
    let config = WorkloadConfig {
        ni: NiModel {
            send_units: spec.send_units,
            queue_capacity: None,
        },
        ..WorkloadConfig::default()
    };
    let mut g = c.benchmark_group("sim/run_multicast_31d_32m_arq");
    g.bench_function("window8_units2_drop0.05", |b| {
        b.iter(|| {
            let job = MulticastJob::fpfs(Arc::clone(&tree), black_box(&chain).clone(), 32);
            SimRun::new(&topo.net, std::slice::from_ref(&job), cfg.params(), config)
                .faults(&plan)
                .run()
                .unwrap()
                .jobs[0]
                .latency_us
        })
    });
    g.finish();
}

fn bench_routes(c: &mut Criterion) {
    // A whole job's table on a k = 32 fat-tree: one bounded up*/down* BFS
    // pass per source switch, under the identity binding (every tree edge
    // crosses switches) and the CCO binding (most stay on one switch).
    let hosts = 8_192;
    let net = FabricNetwork::generate_with_hosts(FabricConfig::fat_tree_for_hosts(hosts), hosts);
    let tree = kbinomial_tree(hosts, 4);
    let identity: Vec<HostId> = (0..hosts).map(HostId).collect();
    let cco = cco_of(net.topology(), net.routing()).hosts().to_vec();
    let mut g = c.benchmark_group("routes/fat_tree_8k");
    for (name, binding) in [("identity", &identity), ("cco_of", &cco)] {
        g.bench_function(name, |b| {
            b.iter(|| JobRoutes::build(&net, &tree, black_box(binding)).total_channels())
        });
    }
    g.finish();
}

fn bench_fat_tree_16k(c: &mut Criterion) {
    // The optimal-k FPFS multicast of m = 16 packets from host 0 to every
    // other host of a k = 32 fat-tree, under wormhole contention, through a
    // warm arena: the 65k wavefront's access pattern at a quarter of its
    // size, past the size from which the event loop prefetches ahead.
    let (hosts, m) = (16_384, 16);
    let net = FabricNetwork::generate_with_hosts(FabricConfig::fat_tree_for_hosts(hosts), hosts);
    let tree = Arc::new(kbinomial_tree(hosts, optimal_k(u64::from(hosts), m).k));
    let identity: Vec<HostId> = (0..hosts).map(HostId).collect();
    let cco = cco_of(net.topology(), net.routing()).hosts().to_vec();
    let params = SystemParams::paper_1997();
    let (mut arena, mut out) = (SimArena::new(), WorkloadOutcome::default());
    let mut g = c.benchmark_group("sim/fat_tree_16k_fpfs");
    for (name, binding) in [("identity", identity), ("cco_of", cco)] {
        let jobs = [MulticastJob::fpfs(Arc::clone(&tree), binding, m)];
        let routes = [Arc::new(JobRoutes::build(
            &net,
            &jobs[0].tree,
            &jobs[0].binding,
        ))];
        g.bench_function(name, |b| {
            b.iter(|| {
                SimRun::new(&net, &jobs, &params, WorkloadConfig::default())
                    .routes(&routes[..])
                    .run_into(&mut arena, &mut out)
                    .unwrap();
                out.events
            })
        });
    }
    g.finish();
}

/// Short, stable settings: 10 samples, 1 s of measurement.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_run_multicast, bench_fault_verdict, bench_run_multicast_arq,
        bench_routes, bench_fat_tree_16k
}
criterion_main!(benches);
