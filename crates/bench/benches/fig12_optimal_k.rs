//! E5/E6 — Figs. 12(a)/12(b): the optimal-k solver and its precomputed
//! table (§4.3.1). Benches the Theorem-3 search across the paper's sweep
//! ranges and the table build/lookup path an NI firmware would use.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optimcast::core::optimal::{optimal_k, OptimalKTable};
use optimcast::sweep::{fig12a, fig12b};

fn bench_optimal_k(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12/optimal_k");
    g.bench_function("single_query_n64_m8", |b| {
        b.iter(|| optimal_k(black_box(64), black_box(8)))
    });
    g.bench_function("fig12a_full_sweep", |b| b.iter(|| black_box(fig12a())));
    g.bench_function("fig12b_full_sweep", |b| b.iter(|| black_box(fig12b())));
    g.finish();
}

fn bench_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12/table");
    g.bench_function("build_64x32", |b| {
        b.iter(|| OptimalKTable::build(black_box(64), black_box(32)))
    });
    let table = OptimalKTable::build(64, 32);
    g.bench_function("lookup", |b| {
        b.iter(|| table.lookup(black_box(48), black_box(8)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_optimal_k, bench_table
}
criterion_main!(benches);
