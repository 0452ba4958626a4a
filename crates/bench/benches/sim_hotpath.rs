//! Simulator-core hot-path microbenchmarks: steady-state event-queue churn
//! (the innermost data structure of every run) and full `run_multicast`
//! calls with and without an interned route table.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optimcast::netsim::engine::EventQueue;
use optimcast::netsim::JobRoutes;
use optimcast::prelude::*;
use optimcast::sweep::sample_chain;
use std::sync::Arc;

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
    g.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_event_queue, bench_run_multicast
}
criterion_main!(benches);
