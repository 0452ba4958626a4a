//! Tour of the collective operations built on the paper's machinery
//! (its §7 future work): broadcast, scatter/gather, all-gather, reduce,
//! and barrier on the 64-node irregular cluster.
//!
//! ```text
//! cargo run --release --example collectives_tour
//! ```

use optimcast::collectives::{
    allgather_recursive_doubling_us, allgather_ring_us, barrier_us, broadcast,
    broadcast_latency_us, gather_schedule, optimal_reduce_k, reduce_latency_us, scatter_schedule,
};
use optimcast::core::param_model::ParamModel;
use optimcast::netsim::PersonalizedOrder;
use optimcast::prelude::*;

fn main() {
    let params = SystemParams::paper_1997();
    let n = 64u32;
    let m = params.packets_for(512); // 8 packets per block/message

    println!("collectives on {n} hosts, {m}-packet blocks, paper-1997 parameters\n");

    // Broadcast: the paper's multicast with every host as destination.
    let net = IrregularNetwork::generate(IrregularConfig::default(), 64);
    let ordering = cco(&net);
    let out = broadcast(&net, &ordering, HostId(0), m, &params, RunConfig::default());
    println!(
        "broadcast : simulated {:8.2} us (contention-free floor {:.2} us, k = {})",
        out.latency_us,
        broadcast_latency_us(n, m, &params),
        optimal_k(u64::from(n), m).k
    );

    // Scatter and gather over the optimal multicast tree vs the chain.
    for (name, tree) in [
        ("kbin tree", kbinomial_tree(n, optimal_k(u64::from(n), m).k)),
        ("chain    ", linear_tree(n)),
    ] {
        let s = scatter_schedule(&tree, m, PersonalizedOrder::DeepestFirst);
        let g = gather_schedule(&tree, m, PersonalizedOrder::DeepestFirst);
        println!(
            "scatter   : {name} {:5} steps (source bound {}), gather mirrors at {:5} steps",
            s.total_steps(),
            s.source_bound(),
            g.total_steps()
        );
    }
    println!("            (scatter inverts the multicast preference: the chain wins)");

    // All-gather: ring vs recursive doubling under the step model and with
    // wire latency.
    let step = ParamModel::step_model(&params);
    let mut lat = step;
    lat.latency = 10.0;
    println!(
        "all-gather: ring {:9.1} us vs recursive doubling {:9.1} us   (step model: tie)",
        allgather_ring_us(n, m, &step),
        allgather_recursive_doubling_us(n, m, &step)
    );
    println!(
        "            ring {:9.1} us vs recursive doubling {:9.1} us   (with 10 us wire latency)",
        allgather_ring_us(n, m, &lat),
        allgather_recursive_doubling_us(n, m, &lat)
    );

    // Reduce: mirror of multicast; optimal k carries over.
    let gamma = 0.5; // us per packet combine
    let rk = optimal_reduce_k(n, m, gamma);
    println!(
        "reduce    : optimal k = {} (same as multicast), latency {:.2} us at gamma = {gamma}",
        rk.k,
        reduce_latency_us(n, m, rk.k, gamma, &params)
    );

    // Barrier.
    println!(
        "barrier   : {:.1} us (dissemination, {} rounds)",
        barrier_us(n, &params),
        6
    );
}
