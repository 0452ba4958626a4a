//! Steady-state allocation budget of the simulator hot path, measured with
//! the counting global allocator rather than assumed.
//!
//! A fault-free FPFS wormhole run allocates only at setup (host/NI state,
//! the outcome vectors, amortized growth of the event queue's slot slab,
//! bucket slab and bucket heap) — the per-event loop itself (pop, handle,
//! schedule) is allocation-free: event payloads live in reused slab slots,
//! route lookups slice an interned CSR table, and dead-sender drains pop
//! in place. Scaling the packet count therefore
//! multiplies the event count while leaving the allocation count nearly
//! unchanged; this test pins that down numerically.
//!
//! Everything runs inside ONE `#[test]` — the counters are process-wide, so
//! a second concurrently-running test would pollute the window.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_netsim::alloc::CountingAlloc;
use optimcast_netsim::{JobRoutes, MulticastJob, SimRun, WorkloadConfig, WorkloadOutcome};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_event_loop_is_allocation_free() {
    let net = IrregularNetwork::generate(IrregularConfig::default(), 7);
    let tree = Arc::new(kbinomial_tree(64, 2));
    let binding: Vec<HostId> = (0..64).map(HostId).collect();
    let routes = Arc::new(JobRoutes::build(&net, &tree, &binding));
    let params = SystemParams::paper_1997();
    let run = |m: u32| -> (WorkloadOutcome, u64) {
        let before = CountingAlloc::allocations();
        let job = MulticastJob::fpfs(Arc::clone(&tree), binding.clone(), m);
        let out = SimRun::new(
            &net,
            std::slice::from_ref(&job),
            &params,
            WorkloadConfig::default(),
        )
        .routes(vec![Arc::clone(&routes)])
        .run()
        .expect("valid fault-free run");
        (out, CountingAlloc::allocations() - before)
    };

    assert!(
        CountingAlloc::enabled(),
        "the counting allocator must serve this binary"
    );
    // Warm-up settles one-time lazy state so the measured runs are typical.
    run(8);
    let (small, small_allocs) = run(8);
    let (large, large_allocs) = run(128);
    let extra_events = large.events - small.events;
    assert!(
        extra_events > 5_000,
        "16x the packets must multiply the event count (got +{extra_events})"
    );

    // The per-event loop allocates nothing: the entire allocation delta of
    // 16x the events is a handful of amortized buffer growths (event queue
    // slab doubling, NI forwarding buffers), not a per-event cost.
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    assert!(
        extra_allocs <= 64,
        "allocations must not scale with events: +{extra_allocs} allocations \
         for +{extra_events} events (m=8: {small_allocs}, m=128: {large_allocs})"
    );
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "steady-state allocations per event must be ~0, got {per_event:.4}"
    );

    // And the fixed per-run setup cost itself stays modest — a few
    // allocations per participant, not per packet or per event.
    assert!(
        small_allocs < 1_000,
        "per-run setup allocations blew up: {small_allocs}"
    );

    // Peak-bytes high-water tracking — what the mega-scale setup budget
    // (`bench-sim --mega`) is measured with: a large allocation raises the
    // peak, freeing it does not lower the peak, and `reset_peak` rebases
    // the mark to the currently live bytes.
    let base = CountingAlloc::reset_peak();
    let spike = vec![1u8; 8 << 20];
    let peak = CountingAlloc::peak_bytes();
    assert!(
        peak >= base + (8 << 20),
        "an 8 MiB spike must raise the high-water mark: base {base}, peak {peak}"
    );
    drop(spike);
    assert!(
        CountingAlloc::peak_bytes() >= peak,
        "frees never lower the high-water mark"
    );
    assert!(
        CountingAlloc::current_bytes() < peak,
        "live bytes drop once the spike is freed"
    );
    let rebased = CountingAlloc::reset_peak();
    assert!(
        rebased < peak && CountingAlloc::peak_bytes() < peak,
        "reset_peak rebases the mark to live bytes ({rebased} vs old peak {peak})"
    );
}
