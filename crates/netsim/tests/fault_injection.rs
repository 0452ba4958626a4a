//! Behavioural tests of the fault-injection + reliability layer.
//!
//! The acceptance contract (ISSUE PR 3): under a non-trivial fault plan a
//! 64-node FPFS multicast either completes with every surviving destination
//! reached, or returns `SimError::DeliveryFailed` listing the unreached
//! ranks — it never hangs and never panics — and the structured counters
//! stay consistent with the reported outcome.

use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_netsim::fault::{FaultPlan, HostCrash, LinkFailure};
use optimcast_netsim::*;
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use optimcast_topology::Network;
use std::sync::Arc;

fn params() -> SystemParams {
    SystemParams::paper_1997()
}

fn net(seed: u64) -> IrregularNetwork {
    IrregularNetwork::generate(IrregularConfig::default(), seed)
}

fn crossbar(hosts: u32) -> IrregularNetwork {
    IrregularNetwork::generate(
        IrregularConfig {
            switches: 1,
            ports: hosts,
            hosts,
        },
        0,
    )
}

fn identity(n: u32) -> Vec<HostId> {
    (0..n).map(HostId).collect()
}

/// One smart-FPFS multicast of `m` packets from rank `r` bound to host `r`,
/// under `plan`.
fn run_faulted(
    net: &IrregularNetwork,
    tree: Arc<MulticastTree>,
    m: u32,
    plan: &FaultPlan,
) -> Result<WorkloadOutcome, SimError> {
    let hosts = identity(tree.len() as u32);
    let job = MulticastJob::fpfs(tree, hosts, m);
    SimRun::new(
        net,
        std::slice::from_ref(&job),
        &params(),
        WorkloadConfig::default(),
    )
    .faults(plan)
    .run()
}

/// Ranks of the subtree rooted at `root` (root included), ascending.
fn subtree_of(tree: &optimcast_core::tree::MulticastTree, root: Rank) -> Vec<Rank> {
    let mut out = vec![root];
    let mut i = 0;
    while i < out.len() {
        out.extend(tree.children(out[i]).iter().copied());
        i += 1;
    }
    out.sort();
    out
}

/// The headline acceptance scenario: 64-node FPFS, 5% drop, one crashed
/// destination. The crashed rank (and exactly its subtree) is reported
/// unreached; nothing hangs; counters are consistent.
#[test]
fn faulty_64_node_fpfs_reports_exactly_the_lost_subtree() {
    let n = net(21);
    let tree = Arc::new(kbinomial_tree(64, 2));
    let mut plan = FaultPlan::new(0xC0FFEE);
    plan.drop_rate = 0.05;
    plan.crashes.push(HostCrash {
        host: HostId(13),
        at_us: 0.0,
    });
    let err = run_faulted(&n, tree.clone(), 8, &plan).unwrap_err();
    let SimError::DeliveryFailed {
        unreached,
        counters,
    } = err
    else {
        panic!("expected DeliveryFailed, got {err}");
    };
    // With max_attempts = 8 and a 5% drop rate, abandonment by bad luck is
    // ~0.05^8 per copy — the unreached set is exactly the crashed subtree.
    let lost: Vec<Rank> = unreached.iter().map(|&(_, r)| r).collect();
    assert_eq!(lost, subtree_of(&tree, Rank(13)));
    assert!(counters.packets_dropped > 0, "{counters:?}");
    assert!(
        counters.deliveries_abandoned >= 1,
        "the send to the dead host must eventually be abandoned"
    );
    assert!(
        counters.packets_dropped >= counters.retransmits + counters.deliveries_abandoned,
        "every retransmit/abandonment stems from a drop: {counters:?}"
    );
}

/// Loss without crashes: the reliability layer recovers everything. All
/// destinations complete, retransmissions happened, and recovery waits were
/// accounted.
#[test]
fn drops_alone_are_fully_recovered() {
    let n = net(22);
    let tree = Arc::new(kbinomial_tree(64, 2));
    let mut plan = FaultPlan::new(99);
    plan.drop_rate = 0.08;
    let wl = run_faulted(&n, tree.clone(), 6, &plan).unwrap();
    let (out, counters) = (&wl.jobs[0], &wl.counters);
    for r in 1..64 {
        assert!(out.host_done_us[r] > 0.0, "rank {r} unreached");
    }
    assert!(counters.retransmits > 0);
    assert!(counters.recovery_wait_us > 0.0);
    assert_eq!(counters.packets_corrupted, 0);
    // Recovery costs time: the run is slower than its fault-free twin.
    let job = MulticastJob::fpfs(tree, identity(64), 6);
    let clean = SimRun::new(
        &n,
        std::slice::from_ref(&job),
        &params(),
        WorkloadConfig::default(),
    )
    .run()
    .unwrap();
    assert!(out.latency_us > clean.jobs[0].latency_us);
}

/// Corruption traverses the wire, is NACKed at the receiver, and is
/// retransmitted immediately — still fully recovered.
#[test]
fn corruption_is_nacked_and_recovered() {
    let n = crossbar(16);
    let mut plan = FaultPlan::new(5);
    plan.corrupt_rate = 0.15;
    let wl = run_faulted(&n, Arc::new(binomial_tree(16)), 8, &plan).unwrap();
    let (out, counters) = (&wl.jobs[0], &wl.counters);
    assert!(counters.packets_corrupted > 0);
    assert_eq!(counters.packets_corrupted, counters.packets_dropped);
    assert!(counters.retransmits > 0);
    for r in 1..16 {
        assert!(out.host_done_us[r] > 0.0, "rank {r} unreached");
    }
}

/// A link outage window delays delivery (retransmissions with backoff ride
/// it out) but everything completes once the window closes.
#[test]
fn link_outage_window_is_ridden_out() {
    let n = crossbar(8);
    let route = n.route(HostId(0), HostId(1));
    assert!(!route.is_empty());
    let mut plan = FaultPlan::new(1);
    plan.link_failures.push(LinkFailure {
        channel: route[0],
        from_us: 0.0,
        until_us: 200.0,
    });
    plan.max_attempts = 16;
    let wl = run_faulted(&n, Arc::new(binomial_tree(8)), 2, &plan).unwrap();
    let (out, counters) = (&wl.jobs[0], &wl.counters);
    assert!(counters.packets_dropped > 0, "outage never hit the route");
    assert!(counters.faults_triggered > 0);
    assert!(
        out.latency_us > 200.0,
        "completion {} must postdate the outage window",
        out.latency_us
    );
}

/// An exhausted NI forwarding buffer refuses packets (NACK) and the sender
/// retries until space frees; occupancy never exceeds the cap.
#[test]
fn buffer_exhaustion_stalls_then_recovers() {
    let n = crossbar(6);
    let mut plan = FaultPlan::new(2);
    plan.ni_buffer_capacity = Some(1);
    plan.max_attempts = 32;
    let wl = run_faulted(&n, Arc::new(linear_tree(6)), 4, &plan).unwrap();
    let (out, counters) = (&wl.jobs[0], &wl.counters);
    assert!(counters.faults_triggered > 0, "cap of 1 never bound");
    for r in 1..6 {
        assert!(out.host_done_us[r] > 0.0, "rank {r} unreached");
    }
    // Intermediates (ranks 1..4 forward to a child) never hold more than
    // the cap.
    for r in 1..5 {
        assert!(
            out.max_ni_buffer[r] <= 1,
            "rank {r} held {}",
            out.max_ni_buffer[r]
        );
    }
}

/// A mid-run crash of an intermediate host strands its subtree: typed
/// failure, no hang, and the dead host's queued sends are drained.
#[test]
fn mid_run_intermediate_crash_fails_typed() {
    let n = crossbar(16);
    let tree = Arc::new(binomial_tree(16));
    let inner = tree.root_children()[0];
    assert!(!tree.children(inner).is_empty());
    let mut plan = FaultPlan::new(3);
    plan.crashes.push(HostCrash {
        host: HostId(inner.0),
        at_us: 30.0,
    });
    let err = run_faulted(&n, tree.clone(), 8, &plan).unwrap_err();
    let SimError::DeliveryFailed {
        unreached,
        counters,
    } = err
    else {
        panic!("expected DeliveryFailed, got {err}");
    };
    assert!(
        unreached.iter().any(|&(_, r)| r == inner),
        "the crashed rank itself must be unreached"
    );
    // Every unreached rank lies in the crashed subtree.
    let sub = subtree_of(&tree, inner);
    for &(_, r) in &unreached {
        assert!(sub.contains(&r), "rank {r} outside the crashed subtree");
    }
    assert!(counters.faults_triggered > 0);
}

/// Identical plans produce identical outcomes — success or failure alike.
#[test]
fn fault_runs_are_deterministic() {
    let n = net(23);
    let tree = Arc::new(kbinomial_tree(48, 3));
    let mut plan = FaultPlan::new(0xFEED);
    plan.drop_rate = 0.2;
    plan.corrupt_rate = 0.05;
    plan.max_attempts = 4;
    plan.crashes.push(HostCrash {
        host: HostId(30),
        at_us: 15.0,
    });
    let run = || run_faulted(&n, tree.clone(), 5, &plan);
    assert_eq!(run(), run());
}

/// A trivial plan takes the exact fault-free code path: outcomes (including
/// the event count) are byte-identical to the plain runner.
#[test]
fn trivial_plan_is_byte_identical_to_fault_free() {
    let n = net(11);
    let tree = Arc::new(kbinomial_tree(40, 2));
    let job = MulticastJob::fpfs(tree.clone(), identity(40), 5);
    let clean = SimRun::new(
        &n,
        std::slice::from_ref(&job),
        &params(),
        WorkloadConfig::default(),
    )
    .run()
    .unwrap();
    let faulted = run_faulted(&n, tree, 5, &FaultPlan::new(0xDEAD_BEEF)).unwrap();
    assert_eq!(clean, faulted);
    assert_eq!(faulted.counters.packets_dropped, 0);
    assert_eq!(faulted.counters.retransmits, 0);
}

/// A traced faulted run records the full reliability story: `Dropped`
/// entries typed with the fault kind, `Retransmit` entries with increasing
/// attempt numbers, and — when the budget starves — `Abandoned` entries
/// with the attempt total. (Closes the ROADMAP "fault records in traces"
/// item.)
#[test]
fn traced_faulted_run_records_drop_retransmit_abandon() {
    use optimcast_netsim::fault::FaultKind;

    let n = crossbar(8);
    let mut plan = FaultPlan::new(0xACE);
    plan.drop_rate = 0.4;
    plan.max_attempts = 8;
    let job = MulticastJob {
        tree: Arc::new(binomial_tree(8)),
        binding: identity(8),
        packets: 4,
        start_us: 0.0,
        nic: NicKind::Smart(ForwardingDiscipline::Fpfs),
        payload: JobPayload::Replicated,
    };
    let config = WorkloadConfig {
        contention: ContentionMode::Wormhole,
        timing: NiTiming::Handshake,
        trace: true,
        ..WorkloadConfig::default()
    };
    let wl = match SimRun::new(&n, std::slice::from_ref(&job), &params(), config)
        .faults(&plan)
        .run()
    {
        Ok(wl) => wl,
        // At 40% loss with 8 attempts, abandonment needs ~0.4^8 bad luck
        // per copy; seed 0xACE is pinned to a completing run, so a failure
        // here is a test bug.
        Err(e) => panic!("pinned seed must complete: {e}"),
    };

    let mut drops = 0u32;
    let mut retransmits = Vec::new();
    for rec in &wl.trace {
        match rec.kind {
            TraceKind::Dropped { kind, .. } => {
                assert!(
                    matches!(kind, FaultKind::Drop | FaultKind::Corrupt),
                    "a drop-rate plan only randomly drops, got {kind:?}"
                );
                drops += 1;
            }
            TraceKind::Retransmit { attempt, .. } => retransmits.push(attempt),
            _ => {}
        }
    }
    assert!(drops > 0, "50% loss must drop something");
    assert!(!retransmits.is_empty(), "drops must trigger retransmits");
    assert!(
        retransmits.iter().any(|&a| a >= 2),
        "repeated loss must escalate the attempt number: {retransmits:?}"
    );
    assert_eq!(
        wl.trace
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Dropped { .. }))
            .count() as u64,
        wl.counters.packets_dropped,
        "every counted drop must be traced"
    );
    assert_eq!(
        retransmits.len() as u64,
        wl.counters.retransmits,
        "every counted retransmit must be traced"
    );
    // Traces arrive in nondecreasing time order.
    for pair in wl.trace.windows(2) {
        assert!(pair[0].t_us <= pair[1].t_us);
    }
}

/// When the attempt budget starves, `Abandoned` records reach the observer
/// of the failing run *before* the typed error is raised — the failure
/// story is fully witnessed, not swallowed with the outcome.
#[test]
fn abandonments_are_observed_before_failure() {
    use optimcast_core::tree::Rank;

    #[derive(Default)]
    struct AbandonLog {
        abandoned: Vec<(Rank, Rank, u32, u32)>,
        dropped: u64,
    }
    impl Observer for AbandonLog {
        fn packet_dropped(
            &mut self,
            _t_us: f64,
            _job: u32,
            _from: Rank,
            _to: Rank,
            _packet: u32,
            _kind: optimcast_netsim::fault::FaultKind,
        ) {
            self.dropped += 1;
        }
        fn delivery_abandoned(
            &mut self,
            _t_us: f64,
            _job: u32,
            from: Rank,
            to: Rank,
            packet: u32,
            attempts: u32,
        ) {
            self.abandoned.push((from, to, packet, attempts));
        }
    }

    let n = crossbar(8);
    let tree = Arc::new(binomial_tree(8));
    // A crashed leaf guarantees abandonment: every attempt to it dies.
    let dead = *subtree_of(&tree, tree.root_children()[0]).last().unwrap();
    let mut plan = FaultPlan::new(17);
    plan.max_attempts = 2;
    plan.crashes.push(HostCrash {
        host: HostId(dead.0),
        at_us: 0.0,
    });
    let job = MulticastJob {
        tree,
        binding: identity(8),
        packets: 2,
        start_us: 0.0,
        nic: NicKind::Smart(ForwardingDiscipline::Fpfs),
        payload: JobPayload::Replicated,
    };
    let config = WorkloadConfig {
        contention: ContentionMode::Wormhole,
        timing: NiTiming::Handshake,
        trace: false,
        ..WorkloadConfig::default()
    };
    let mut log = AbandonLog::default();
    let err = SimRun::new(&n, std::slice::from_ref(&job), &params(), config)
        .faults(&plan)
        .observer(&mut log)
        .run()
        .unwrap_err();
    let SimError::DeliveryFailed { counters, .. } = err else {
        panic!("a crashed destination must fail the run, got {err}");
    };
    assert_eq!(
        log.abandoned.len() as u64,
        counters.deliveries_abandoned,
        "every counted abandonment must be observed"
    );
    assert!(!log.abandoned.is_empty());
    for &(_, to, _, attempts) in &log.abandoned {
        assert_eq!(to, dead, "only the dead rank is abandoned");
        assert_eq!(attempts, plan.max_attempts, "budget must be exhausted");
    }
    assert!(log.dropped >= log.abandoned.len() as u64);
}

/// Construction-time rejections: malformed plans and overlapped timing.
#[test]
fn bad_plan_and_overlapped_timing_are_rejected() {
    let n = crossbar(4);
    let tree = Arc::new(binomial_tree(4));
    let mut bad = FaultPlan::new(0);
    bad.drop_rate = 1.5;
    let err = run_faulted(&n, tree.clone(), 1, &bad).unwrap_err();
    assert!(matches!(err, SimError::InvalidFaultPlan { .. }), "{err}");

    let mut lossy = FaultPlan::new(0);
    lossy.drop_rate = 0.1;
    let job = MulticastJob::fpfs(tree, identity(4), 1);
    let overlapped = WorkloadConfig {
        timing: NiTiming::Overlapped,
        ..WorkloadConfig::default()
    };
    let err = SimRun::new(&n, std::slice::from_ref(&job), &params(), overlapped)
        .faults(&lossy)
        .run()
        .unwrap_err();
    assert_eq!(err, SimError::FaultsNeedHandshakeTiming);
}

/// A starved attempt budget turns heavy loss into a typed failure instead
/// of a hang: every abandonment is counted.
#[test]
fn exhausted_attempts_fail_typed_not_hang() {
    let n = crossbar(8);
    let mut plan = FaultPlan::new(17);
    plan.drop_rate = 0.75;
    plan.max_attempts = 2;
    let result = run_faulted(&n, Arc::new(binomial_tree(8)), 4, &plan);
    // At 75% loss with two attempts, some copy is all but certain to die;
    // whichever way it lands, the run must terminate cleanly.
    match result {
        Ok(out) => {
            for r in 1..8 {
                assert!(out.jobs[0].host_done_us[r] > 0.0);
            }
        }
        Err(SimError::DeliveryFailed {
            unreached,
            counters,
        }) => {
            assert!(!unreached.is_empty());
            assert!(counters.deliveries_abandoned > 0);
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}
