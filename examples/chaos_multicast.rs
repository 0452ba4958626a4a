//! Chaos engineering for multicast: deterministic fault injection, the
//! ACK/NACK reliability layer, and k-binomial tree self-repair.
//!
//! Three escalating scenarios on the paper's 64-host platform:
//! 1. packet loss alone — recovered transparently by retransmission;
//! 2. a crashed intermediate — its subtree is unreachable, reported as a
//!    typed `SimError::DeliveryFailed` (never a hang);
//! 3. repairing the tree around the crash and re-running over survivors.
//!
//! Run with: `cargo run --example chaos_multicast`

use optimcast::prelude::*;
use std::sync::Arc;

fn main() {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 21);
    let params = SystemParams::paper_1997();
    let m = 8;
    let chain: Vec<HostId> = (0..64).map(HostId).collect();
    let opt = optimal_k(64, m);
    let tree = Arc::new(kbinomial_tree(64, opt.k));

    // 1. Loss alone: every transmission is dropped with 5% probability
    // (decided by a PRF over the packet's identity, so the run is exactly
    // reproducible), and stop-and-wait retransmission recovers all of it.
    let mut plan = FaultPlan::new(0xC0FFEE);
    plan.drop_rate = 0.05;
    let run = |job: MulticastJob, plan: &FaultPlan| {
        SimRun::new(
            &net,
            std::slice::from_ref(&job),
            &params,
            WorkloadConfig::default(),
        )
        .faults(plan)
        .run()
    };
    let out = run(MulticastJob::fpfs(tree.clone(), chain.clone(), m), &plan)
        .expect("drops alone are fully recovered");
    let counters = &out.counters;
    println!(
        "5% drop: latency {:.1} us | {} drops, {} retransmits, {:.1} us spent waiting on ACKs",
        out.jobs[0].latency_us,
        counters.packets_dropped,
        counters.retransmits,
        counters.recovery_wait_us
    );

    // 2. Crash an intermediate at time zero: its whole subtree is
    // unreachable, and the run terminates with a typed failure listing it.
    plan.crashes.push(HostCrash {
        host: HostId(13),
        at_us: 0.0,
    });
    match run(MulticastJob::fpfs(tree.clone(), chain.clone(), m), &plan) {
        Err(SimError::DeliveryFailed {
            unreached,
            counters,
        }) => println!(
            "host 13 crashed: {} destination(s) unreached, {} copies abandoned",
            unreached.len(),
            counters.deliveries_abandoned
        ),
        other => panic!("expected DeliveryFailed, got {other:?}"),
    }

    // 3. Repair: re-attach the orphaned subtrees to surviving ancestors
    // (preserving the <= k fan-out bound), rebind the survivors, and rerun
    // under the same lossy plan — the crashed host simply no longer
    // participates.
    let repair = tree.repair(&[Rank(13)]).expect("rank 13 is not the source");
    println!(
        "repair: {} orphaned subtree(s) re-attached, fan-out bound {} preserved",
        repair.reattached,
        repair.tree.max_degree()
    );
    let sched = fpfs_schedule(&repair.tree, m);
    println!(
        "analytic degraded estimate at 5% drop: {:.1} us (fault-free {:.1} us)",
        degraded_smart_latency_us(&sched, &params, plan.drop_rate, plan.ack_timeout_us),
        smart_latency_us(&sched, &params)
    );
    let binding: Vec<HostId> = repair
        .new_to_old
        .iter()
        .map(|&r| chain[r.index()])
        .collect();
    let survivors = binding.len();
    let out = run(MulticastJob::fpfs(repair.tree, binding, m), &plan)
        .expect("every survivor is reachable after repair");
    println!(
        "repaired: latency {:.1} us over {survivors} survivors ({} retransmits)",
        out.jobs[0].latency_us, out.counters.retransmits
    );
}
