//! Behavioural tests of the windowed selective-repeat ARQ over the
//! multi-send-unit NI model.
//!
//! The acceptance contract: a `window > 1` fault plan either completes with
//! every surviving destination reached (drops recovered by NACK-range
//! resends and per-slot retransmission timers), converts stuck deliveries
//! into typed deadline write-offs, or reports `DeliveryFailed` — never
//! hangs, never panics — and stays byte-identical across repeated runs.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_core::tree::Rank;
use optimcast_netsim::fault::{FaultPlan, HostCrash};
use optimcast_netsim::*;
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use proptest::prelude::*;
use std::sync::Arc;

fn params() -> SystemParams {
    SystemParams::paper_1997()
}

fn net(seed: u64) -> IrregularNetwork {
    IrregularNetwork::generate(IrregularConfig::default(), seed)
}

fn identity(n: u32) -> Vec<HostId> {
    (0..n).map(HostId).collect()
}

fn job(n: u32, m: u32) -> MulticastJob {
    MulticastJob {
        tree: Arc::new(kbinomial_tree(n, 2)),
        binding: identity(n),
        packets: m,
        start_us: 0.0,
        nic: NicKind::Smart(optimcast_core::schedule::ForwardingDiscipline::Fpfs),
        payload: JobPayload::Replicated,
    }
}

fn windowed_config(send_units: u32) -> WorkloadConfig {
    WorkloadConfig {
        ni: NiModel {
            send_units,
            queue_capacity: None,
        },
        ..WorkloadConfig::default()
    }
}

fn windowed_plan(seed: u64, drop_rate: f64, window: u32) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.drop_rate = drop_rate;
    plan.window = window;
    plan
}

/// Runs one windowed workload and returns its result.
fn run_windowed(
    seed: u64,
    n: u32,
    m: u32,
    drop_rate: f64,
    window: u32,
    send_units: u32,
) -> Result<WorkloadOutcome, SimError> {
    let network = net(seed ^ 7);
    let j = job(n, m);
    let plan = windowed_plan(seed, drop_rate, window);
    SimRun::new(
        &network,
        std::slice::from_ref(&j),
        &params(),
        windowed_config(send_units),
    )
    .faults(&plan)
    .run()
}

/// Pins one fixed-seed windowed run exactly: the makespan's bits, every
/// counter (fields left at `..SimCounters::default()` are pinned at zero),
/// and the written-off destinations. `results/chaos_arq.json` runs without
/// corruption, deadlines or queue bounds, so these pins are what hold the
/// windowed corrupt-NACK, deadline write-off and bounded-admission event
/// order in place.
fn assert_pinned(
    out: &WorkloadOutcome,
    makespan_bits: u64,
    counters: SimCounters,
    unreached: &[(u32, Rank)],
) {
    assert_eq!(
        out.makespan_us.to_bits(),
        makespan_bits,
        "makespan {} µs",
        out.makespan_us
    );
    assert_eq!(out.counters, counters);
    assert_eq!(out.unreached, unreached);
}

/// A lossless windowed run is pure pipelining: everything delivers, nothing
/// drops, no NACK or resend machinery fires.
#[test]
fn lossless_windowed_run_delivers_without_recovery_traffic() {
    let out = run_windowed(1, 32, 8, 0.0, 8, 2).expect("lossless run completes");
    assert!(out.unreached.is_empty());
    assert_eq!(out.counters.packets_dropped, 0);
    assert_eq!(out.counters.retransmits, 0);
    assert_eq!(out.counters.resend_requests, 0);
    assert_eq!(out.counters.nack_ranges_sent, 0);
    assert_eq!(out.counters.deadline_writeoffs, 0);
    assert!(out.jobs[0].latency_us > 0.0);
}

/// Drops alone are fully recovered: every destination completes, and the
/// recovery ran through the selective-repeat machinery (drops, resends).
#[test]
fn windowed_arq_recovers_from_drops() {
    let out = run_windowed(42, 64, 8, 0.08, 8, 2).expect("drops alone are recoverable");
    assert!(out.unreached.is_empty());
    assert!(out.counters.packets_dropped > 0, "{:?}", out.counters);
    assert!(out.counters.retransmits > 0, "{:?}", out.counters);
    // Every retransmit was asked for by a NACK, a corrupt delivery, or a
    // timer; the NACK path implies resend requests were counted.
    assert!(
        out.counters.retransmits >= out.counters.resend_requests,
        "{:?}",
        out.counters
    );
}

/// The same seed gives the same run, bit for bit — the retry jitter is
/// PRF-derived, never wall time.
#[test]
fn windowed_runs_are_deterministic() {
    let a = run_windowed(7, 64, 6, 0.1, 4, 2).expect("recoverable");
    let b = run_windowed(7, 64, 6, 0.1, 4, 2).expect("recoverable");
    assert_eq!(a, b);
}

/// A send-unit count above 1 changes scheduling, not delivery: everything
/// still completes under loss.
#[test]
fn extra_send_units_preserve_delivery() {
    for s in [1u32, 2, 4] {
        let out = run_windowed(11, 32, 8, 0.05, 8, s).expect("recoverable");
        assert!(out.unreached.is_empty(), "send_units = {s}");
    }
}

/// A dead receiver under a per-message deadline: instead of burning the
/// whole attempt budget, the stuck subtree is written off as typed
/// `unreached` entries and the run *succeeds* for the surviving membership.
#[test]
fn deadline_converts_stuck_deliveries_into_writeoffs() {
    let network = net(3);
    let j = job(32, 6);
    let dead = Rank(5);
    let subtree: Vec<Rank> = {
        let mut out = vec![dead];
        let mut i = 0;
        while i < out.len() {
            out.extend(j.tree.children(out[i]).iter().copied());
            i += 1;
        }
        out.sort();
        out
    };
    let mut plan = windowed_plan(9, 0.02, 8);
    plan.deadline_us = Some(400.0);
    plan.crashes.push(HostCrash {
        host: HostId(5),
        at_us: 0.0,
    });
    let out = SimRun::new(
        &network,
        std::slice::from_ref(&j),
        &params(),
        windowed_config(2),
    )
    .faults(&plan)
    .run()
    .expect("the deadline writes the dead subtree off; the rest completes");
    let lost: Vec<Rank> = out.unreached.iter().map(|&(_, r)| r).collect();
    assert_eq!(lost, subtree);
    assert_eq!(out.counters.deadline_writeoffs, subtree.len() as u64);
    assert_pinned(
        &out,
        0x4063_c5b6_7e1d_9789, // 158.1785269334762 µs
        SimCounters {
            total_sends: 179,
            blocked_sends: 105,
            packets_forwarded: 166,
            channel_stall_us: 372.1919609094703,
            max_send_queue: 12,
            buffer_occupancy: vec![0, 52, 31, 4, 1, 1, 2],
            events: 983,
            peak_queue_len: 57,
            packets_dropped: 25,
            retransmits: 29,
            faults_triggered: 18,
            recovery_wait_us: 1273.861102899819,
            resend_requests: 16,
            nack_ranges_sent: 22,
            late_acks: 10,
            duplicate_acks: 10,
            deadline_writeoffs: 7,
            ..SimCounters::default()
        },
        &(5..=11).map(|r| (0, Rank(r))).collect::<Vec<_>>(),
    );
}

/// Construction rejects NI models and plan combinations the windowed layer
/// cannot honour, with typed errors.
#[test]
fn invalid_ni_models_are_rejected() {
    let network = net(1);
    let j = job(8, 4);
    let plan = windowed_plan(1, 0.05, 8);
    // Zero send units: rejected outright.
    let err = SimRun::new(
        &network,
        std::slice::from_ref(&j),
        &params(),
        WorkloadConfig {
            ni: NiModel {
                send_units: 0,
                queue_capacity: None,
            },
            ..WorkloadConfig::default()
        },
    )
    .run()
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidNiModel { .. }), "{err}");
    // Stop-and-wait (window = 1) holds the single unit per handshake.
    let mut sw = FaultPlan::new(1);
    sw.drop_rate = 0.05;
    let err = SimRun::new(
        &network,
        std::slice::from_ref(&j),
        &params(),
        windowed_config(2),
    )
    .faults(&sw)
    .run()
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidNiModel { .. }), "{err}");
    // Windowed ARQ replays the FPFS replication pattern: conventional-NI
    // jobs are out of scope.
    let conv = MulticastJob {
        nic: NicKind::Conventional,
        ..job(8, 4)
    };
    let err = SimRun::new(
        &network,
        std::slice::from_ref(&conv),
        &params(),
        WorkloadConfig::default(),
    )
    .faults(&plan)
    .run()
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidNiModel { .. }), "{err}");
}

/// A bounded per-port queue defers admission instead of dropping: delivery
/// still completes under loss.
#[test]
fn bounded_port_queue_defers_but_delivers() {
    let network = net(5);
    let j = job(32, 8);
    let plan = windowed_plan(5, 0.05, 8);
    let out = SimRun::new(
        &network,
        std::slice::from_ref(&j),
        &params(),
        WorkloadConfig {
            ni: NiModel {
                send_units: 2,
                queue_capacity: Some(2),
            },
            ..WorkloadConfig::default()
        },
    )
    .faults(&plan)
    .run()
    .expect("a bounded queue defers, never drops");
    assert!(out.unreached.is_empty());
    assert_pinned(
        &out,
        0x4062_0000_0000_0000, // 144 µs
        SimCounters {
            total_sends: 260,
            blocked_sends: 155,
            packets_forwarded: 244,
            channel_stall_us: 515.0,
            max_send_queue: 3,
            buffer_occupancy: vec![0, 65, 64, 13, 6, 4, 0, 0, 1],
            events: 1466,
            peak_queue_len: 61,
            packets_dropped: 11,
            retransmits: 12,
            resend_requests: 12,
            nack_ranges_sent: 18,
            late_acks: 1,
            duplicate_acks: 1,
            ..SimCounters::default()
        },
        &[],
    );
}

/// Corruption under windowed ARQ: every damaged arrival is a per-packet
/// NACK and an immediate resend of that slot, and with 16 packets through
/// a window of 8 the senders stall on full windows. Everything delivers.
#[test]
fn corrupt_windowed_run_recovers_through_nacks() {
    let network = net(13);
    let j = job(32, 16);
    let mut plan = windowed_plan(13, 0.0, 8);
    plan.corrupt_rate = 0.1;
    let out = SimRun::new(
        &network,
        std::slice::from_ref(&j),
        &params(),
        windowed_config(2),
    )
    .faults(&plan)
    .run()
    .expect("corruption alone is recoverable");
    assert_eq!(out.counters.packets_dropped, out.counters.packets_corrupted);
    assert_pinned(
        &out,
        0x4070_5000_0000_0000, // 261 µs
        SimCounters {
            total_sends: 570,
            blocked_sends: 333,
            packets_forwarded: 532,
            channel_stall_us: 1715.0,
            max_send_queue: 17,
            buffer_occupancy: vec![0, 210, 71, 22, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            events: 3269,
            peak_queue_len: 63,
            packets_dropped: 52,
            packets_corrupted: 52,
            retransmits: 74,
            resend_requests: 74,
            nack_ranges_sent: 68,
            late_acks: 22,
            duplicate_acks: 22,
            window_stalls_us: 163.0,
            ..SimCounters::default()
        },
        &[],
    );
}

proptest! {
    /// Window invariants over randomized windowed runs: every run is
    /// deterministic, and a completed run leaves no delivery gap — each
    /// non-written-off rank received its whole message (enforced by
    /// `collect`, which panics/errors on gaps).
    #[test]
    fn randomized_windowed_runs_complete_without_gaps(
        seed in 0u64..1000,
        n in 8u32..48,
        m in 1u32..10,
        drop_bp in 0u32..1500,
        window in 2u32..12,
        send_units in 1u32..4,
    ) {
        let drop = f64::from(drop_bp) / 10_000.0;
        let a = run_windowed(seed, n, m, drop, window, send_units);
        let b = run_windowed(seed, n, m, drop, window, send_units);
        prop_assert_eq!(&a, &b, "windowed runs must be deterministic");
        match a {
            Ok(out) => {
                // No deadline in this plan: nothing may be written off.
                prop_assert!(out.unreached.is_empty());
                prop_assert!(out.counters.retransmits >= out.counters.resend_requests);
            }
            Err(SimError::DeliveryFailed { unreached, .. }) => {
                prop_assert!(!unreached.is_empty());
            }
            Err(e) => prop_assert!(false, "unexpected error: {}", e),
        }
    }
}
