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
//! Setup allocations grow neither with the fabric nor with the number of
//! sending hosts: each host claims its block of NI in-flight send slots
//! from one shared slab at its first dispatch, so a fresh 1,024-rank run
//! allocates only a few amortized slab growths more than a 64-rank run.
//!
//! Windowed selective-repeat ARQ under loss keeps the same bound: the
//! per-edge window state is allocated once per run, and gap detection
//! reads a per-edge NACK watermark.
//!
//! A churn-free frame stream allocates nothing per frame: it is one
//! membership epoch, which `StreamRun` simulates once, and every later
//! frame of the epoch is served from that run's outcome.
//!
//! A warm [`SimArena`] removes the per-run set-up: a second `run_into` of
//! the same job over a kept outcome allocates nothing. A
//! churned stream through a warm arena splices its group in place, patches
//! its route table and simulates each epoch in the arena over the previous
//! epoch's outcome, so its later epochs allocate (almost) nothing; and its
//! route storage is the arena's, so even its first epoch routes in storage
//! an earlier stream grew.
//!
//! Everything runs inside ONE `#[test]` — the counters are process-wide, so
//! a second concurrently-running test would pollute the window.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_netsim::alloc::CountingAlloc;
use optimcast_netsim::{
    FaultPlan, JobRoutes, MulticastJob, NiModel, SimArena, SimRun, StreamRun, StreamSpec,
    WorkloadConfig, WorkloadOutcome,
};
use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
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

    // Nor per sending host: a fresh run of a 1,024-rank job on a fat-tree
    // (511 sending hosts) allocates at most a few amortized slab and queue
    // growths more than the 64-rank run above. Measured 51 against 40
    // (per-host in-flight vectors made it 677 against 75); tighten, never
    // loosen.
    let fabric = FabricNetwork::generate_with_hosts(FabricConfig::fat_tree_for_hosts(1024), 1024);
    let wide_tree = Arc::new(kbinomial_tree(1024, 2));
    let wide_binding: Vec<HostId> = (0..1024).map(HostId).collect();
    let wide_routes = Arc::new(JobRoutes::build(&fabric, &wide_tree, &wide_binding));
    let wide_job = MulticastJob::fpfs(Arc::clone(&wide_tree), wide_binding, 8);
    let wide = || -> u64 {
        let before = CountingAlloc::allocations();
        SimRun::new(
            &fabric,
            std::slice::from_ref(&wide_job),
            &params,
            WorkloadConfig::default(),
        )
        .routes(std::slice::from_ref(&wide_routes))
        .run()
        .expect("valid fault-free run");
        CountingAlloc::allocations() - before
    };
    wide();
    let wide_allocs = wide();
    assert!(
        wide_allocs <= small_allocs + 16,
        "a fresh 1,024-rank run allocated {wide_allocs} times against {small_allocs} \
         for 64 ranks: set-up must not allocate per sending host"
    );

    // Windowed ARQ under 5% loss (32 ranks, k = 2, window 8, 2 send
    // units): resends, NACK ranges and timers are events like any other,
    // so 16x the packets again adds only amortized buffer growth.
    let lossy_tree = Arc::new(kbinomial_tree(32, 2));
    let lossy_binding: Vec<HostId> = (0..32).map(HostId).collect();
    let mut plan = FaultPlan::new(3);
    plan.drop_rate = 0.05;
    plan.window = 8;
    let windowed = WorkloadConfig {
        ni: NiModel {
            send_units: 2,
            queue_capacity: None,
        },
        ..WorkloadConfig::default()
    };
    let lossy = |m: u32| -> (WorkloadOutcome, u64) {
        let before = CountingAlloc::allocations();
        let job = MulticastJob::fpfs(Arc::clone(&lossy_tree), lossy_binding.clone(), m);
        let out = SimRun::new(&net, std::slice::from_ref(&job), &params, windowed)
            .faults(&plan)
            .run()
            .expect("windowed ARQ recovers 5% loss");
        (out, CountingAlloc::allocations() - before)
    };
    lossy(8);
    let (few, few_allocs) = lossy(8);
    let (many, many_allocs) = lossy(128);
    assert!(
        many.counters.nack_ranges_sent > few.counters.nack_ranges_sent
            && few.counters.nack_ranges_sent > 0,
        "the lossy runs must exercise gap detection (NACK ranges {} / {})",
        few.counters.nack_ranges_sent,
        many.counters.nack_ranges_sent
    );
    let extra_events = many.events - few.events;
    let extra_allocs = many_allocs.saturating_sub(few_allocs);
    assert!(
        extra_allocs <= 64,
        "windowed allocations must not scale with events: +{extra_allocs} allocations \
         for +{extra_events} events (m=8: {few_allocs}, m=128: {many_allocs})"
    );

    // A churn-free stream of the same job (64 members, k = 2, 512-byte
    // frames at a 64-byte MTU = 8 packets) is one membership epoch, so
    // fifteen more frames add no simulator run: only amortized growth of
    // the stream's own frame queue and records.
    let stream = |frames: u32| -> u64 {
        let spec = StreamSpec {
            frame_bytes: 512,
            mtu_bytes: 64,
            frames,
            ..StreamSpec::default()
        };
        let before = CountingAlloc::allocations();
        let out = StreamRun::new(&net, &binding, 64, 2, &params, spec)
            .run()
            .expect("valid stream completes");
        assert_eq!(out.served, frames);
        assert_eq!(out.packets_per_frame, 8);
        CountingAlloc::allocations() - before
    };
    let one_frame = stream(1);
    let sixteen_frames = stream(16);
    let extra_frames = sixteen_frames.saturating_sub(one_frame);
    assert!(
        extra_frames <= 4,
        "frames of one epoch must not allocate per frame: +{extra_frames} \
         allocations for 15 more frames (1 frame: {one_frame}, 16 frames: \
         {sixteen_frames}; one prerouted run: {small_allocs})"
    );

    // A warm arena and a kept outcome: the second `run_into` of the same
    // prerouted 64-rank job allocates nothing at all.
    let job = MulticastJob::fpfs(Arc::clone(&tree), binding.clone(), 8);
    let jobs = std::slice::from_ref(&job);
    let table = std::slice::from_ref(&routes);
    let mut arena = SimArena::new();
    let mut kept = WorkloadOutcome::default();
    let mut into = |arena: &mut SimArena| -> u64 {
        let before = CountingAlloc::allocations();
        SimRun::new(&net, jobs, &params, WorkloadConfig::default())
            .routes(table)
            .run_into(arena, &mut kept)
            .expect("valid fault-free run");
        CountingAlloc::allocations() - before
    };
    into(&mut arena);
    let into_allocs = into(&mut arena);
    assert_eq!(kept, small, "writing over an outcome equals a fresh run");
    assert_eq!(
        into_allocs, 0,
        "a warm-arena run into a kept outcome allocated {into_allocs} times"
    );

    // A churned stream through a warm arena (64-member universe, 48 in the
    // group, 40 frames, 48 churn toggles): against the churn-free stream of
    // the same shape, each applied join or leave — each new membership
    // epoch — adds at most one allocation, the amortized growth of the
    // group's vectors past their earlier size.
    let churned = |churn_events: u32, arena: &mut SimArena| -> (u64, u32) {
        let spec = StreamSpec {
            frame_bytes: 256,
            mtu_bytes: 64,
            gap_us: 150.0,
            frames: 40,
            churn_events,
            churn_seed: 31,
            ..StreamSpec::default()
        };
        let before = CountingAlloc::allocations();
        let out = StreamRun::new(&net, &binding, 48, 2, &params, spec)
            .run_in(arena)
            .expect("valid stream completes");
        assert_eq!(out.served + out.dropped, 40);
        (
            CountingAlloc::allocations() - before,
            out.joins + out.leaves,
        )
    };
    let mut stream_arena = SimArena::new();
    churned(48, &mut stream_arena);
    let (calm_allocs, _) = churned(0, &mut stream_arena);
    let (churn_allocs, splices) = churned(48, &mut stream_arena);
    assert!(
        splices >= 30,
        "the stream must churn (only {splices} splices)"
    );
    let per_epoch = churn_allocs.saturating_sub(calm_allocs);
    assert!(
        per_epoch <= u64::from(splices),
        "{splices} epochs of a warm stream added {per_epoch} allocations \
         (churned: {churn_allocs}, churn-free: {calm_allocs})"
    );
    // The whole second churned stream through the warm arena: the arena
    // lends it the route storage (hop table, BFS state, table buffers) an
    // earlier stream grew, so what is left is the stream's own membership,
    // epoch job, frame records and outcome. Measured 48 (against 100 when
    // each stream built its route storage afresh); tighten, never loosen.
    // An unoptimized build measures 54: its `kbinomial_tree` also runs
    // `debug_assert!(tree.validate().is_ok())`, 6 allocations more.
    let bound = if cfg!(debug_assertions) { 54 } else { 48 };
    assert!(
        churn_allocs <= bound,
        "a churned stream through a warm arena allocated {churn_allocs} times (bound {bound})"
    );
    eprintln!(
        "zero_alloc: fresh run {small_allocs} (1,024 fat-tree ranks {wide_allocs}), warm-arena run into a kept outcome {into_allocs}; \
         churn-free stream {calm_allocs}, churned stream {churn_allocs} ({splices} splices +{per_epoch})"
    );

    // Peak-bytes high-water tracking — what the mega-scale setup budget
    // (`optimcast bench-mega`) is measured with: a large allocation raises the
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
