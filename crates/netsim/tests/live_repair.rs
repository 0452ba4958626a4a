//! Behavioural + property tests of live mid-run tree repair.
//!
//! The tentpole contract (ISSUE PR 5): with a [`RepairPolicy`] on the fault
//! plan, an exhausted delivery no longer terminates the run. The source
//! learns of the failure at the policy's notification latency, repairs the
//! surviving membership with `MulticastTree::repair_partial`, and re-issues
//! undelivered packets over the repaired tree — inside one
//! `SimRun` (with faults) invocation. The battery checks:
//!
//! * an interior-node crash that is `SimError::DeliveryFailed` without the
//!   policy completes with every survivor reached under it, for FPFS and
//!   FCFS jobs alike, while a conventional-NI job (which repair skips)
//!   still fails;
//! * conservation: every destination is delivered exactly once (one
//!   `HostDone`) or listed in `unreached`, never both;
//! * observers never perturb a repairing run (identical outcome + trace);
//! * a fault-free plan with repair enabled stays on the trivial-plan golden
//!   path, bit-equal to the unfaulted run;
//! * a crash schedule that kills the source is a typed
//!   [`SimError::SourceCrashed`], not a silent all-abandon.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_core::tree::Rank;
use optimcast_netsim::fault::{FaultPlan, HostCrash, RepairPolicy};
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

/// A plan whose only non-default knob is the repair policy itself.
fn repair_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.repair = Some(RepairPolicy::default());
    plan
}

fn traced() -> WorkloadConfig {
    WorkloadConfig {
        trace: true,
        ..WorkloadConfig::default()
    }
}

/// The acceptance scenario: drop rate 0, an interior tree node crashes
/// before the first packet lands. Without a repair policy that is a
/// terminal `DeliveryFailed`; with one, the run completes, every survivor
/// is reached, and exactly the crashed rank is written off. Both smart-NI
/// disciplines are inputs, and each pins its latency bits and re-issue
/// count. Repair re-issues packet-major (FPFS) over the repaired tree for
/// either; the crash at rank 12 leaves a repaired tree on which an FCFS
/// re-issue would finish later.
#[test]
fn live_repair_rescues_an_interior_crash() {
    let n = net(21);
    let tree = Arc::new(kbinomial_tree(64, 2));
    let fpfs = MulticastJob::fpfs(tree.clone(), identity(64), 8);
    let fcfs = MulticastJob {
        nic: NicKind::Smart(ForwardingDiscipline::Fcfs),
        ..fpfs.clone()
    };
    for (job, crashed, latency_bits, reissued) in [
        (&fpfs, Rank(13), 0x40e2a53000000000u64, 8u64),
        (&fcfs, Rank(13), 0x40e2ae9000000000, 8),
        (&fcfs, Rank(12), 0x40e2aef000000000, 16),
    ] {
        assert!(
            !tree.children(crashed).is_empty(),
            "{crashed} must be interior for this scenario"
        );
        let mut plan = repair_plan(0xC0FFEE);
        plan.crashes.push(HostCrash {
            host: HostId(crashed.0),
            at_us: 5.0,
        });
        let mut bare = plan.clone();
        bare.repair = None;
        let run = |plan: &FaultPlan| {
            SimRun::new(
                &n,
                std::slice::from_ref(job),
                &params(),
                WorkloadConfig::default(),
            )
            .faults(plan)
            .run()
        };
        // Contrast: the identical schedule without the policy is terminal.
        let err = run(&bare).unwrap_err();
        assert!(
            matches!(err, SimError::DeliveryFailed { .. }),
            "{:?}: expected DeliveryFailed without repair, got {err}",
            job.nic
        );

        let out = run(&plan).expect("live repair must rescue the run");
        assert_eq!(out.unreached, vec![(0, crashed)]);
        let done = &out.jobs[0].host_done_us;
        for (r, &t) in done.iter().enumerate().skip(1) {
            if r == crashed.index() {
                assert_eq!(t, 0.0, "a crashed rank cannot complete");
            } else {
                assert!(t > 0.0, "{:?}: survivor rank {r} never reached", job.nic);
            }
        }
        assert!(out.counters.repairs >= 1, "{:?}", out.counters);
        assert!(out.counters.repair_wait_us > 0.0, "{:?}", out.counters);
        assert_eq!(
            (
                out.jobs[0].latency_us.to_bits(),
                out.counters.reissued_packets
            ),
            (latency_bits, reissued),
            "{:?}, crash at {crashed}: latency {} µs",
            job.nic,
            out.jobs[0].latency_us
        );
    }
}

/// Repair replays the smart-NI replication pattern, so it skips
/// conventional-NI jobs: the same interior crash stays a terminal
/// `DeliveryFailed` under a repair plan.
#[test]
fn live_repair_skips_conventional_jobs() {
    let n = net(21);
    let job = MulticastJob {
        nic: NicKind::Conventional,
        ..MulticastJob::fpfs(kbinomial_tree(64, 2), identity(64), 8)
    };
    let mut plan = repair_plan(0xC0FFEE);
    plan.crashes.push(HostCrash {
        host: HostId(13),
        at_us: 5.0,
    });
    let err = SimRun::new(
        &n,
        std::slice::from_ref(&job),
        &params(),
        WorkloadConfig::default(),
    )
    .faults(&plan)
    .run()
    .unwrap_err();
    assert!(
        matches!(err, SimError::DeliveryFailed { .. }),
        "expected DeliveryFailed, got {err}"
    );
}

#[test]
fn crashing_the_source_is_a_typed_error() {
    let n = crossbar(16);
    let job = MulticastJob::fpfs(kbinomial_tree(16, 2), identity(16), 2);
    let mut plan = repair_plan(1);
    plan.crashes.push(HostCrash {
        host: HostId(0),
        at_us: 10.0,
    });
    let err = SimRun::new(
        &n,
        std::slice::from_ref(&job),
        &params(),
        WorkloadConfig::default(),
    )
    .faults(&plan)
    .run()
    .unwrap_err();
    assert_eq!(
        err,
        SimError::SourceCrashed {
            job: 0,
            host: HostId(0)
        }
    );
}

proptest! {
    /// Conservation: for any crash subset (at 5 µs, before the first
    /// arrival) every destination rank either completes exactly once —
    /// one `HostDone` trace record, positive `host_done_us` — or is listed
    /// in `unreached`, never both; and only crashed ranks are written off.
    #[test]
    fn destinations_are_delivered_once_or_written_off(
        n in 8u32..40,
        k in 1u32..4,
        m in 1u32..4,
        cmask in 0u64..(1 << 40),
        seed in 0u64..(1 << 32),
    ) {
        let net = crossbar(n);
        let tree = kbinomial_tree(n, k);
        let crashed: Vec<Rank> =
            (1..n).filter(|&r| (cmask >> r) & 1 == 1).map(Rank).collect();
        let mut plan = repair_plan(seed);
        for &r in &crashed {
            plan.crashes.push(HostCrash {
                host: HostId(r.0),
                at_us: 5.0,
            });
        }
        let job = MulticastJob::fpfs(tree, identity(n), m);
        let out = SimRun::new(&net, std::slice::from_ref(&job), &params(), traced()).faults(&plan).run()
        .expect("drop-free crashes must always be repairable");

        let mut host_dones = vec![0u32; n as usize];
        for ev in &out.trace {
            if let SimEvent::HostDone { rank, .. } = *ev {
                host_dones[rank.index()] += 1;
            }
        }
        for r in 1..n {
            let rank = Rank(r);
            let delivered = out.jobs[0].host_done_us[rank.index()] > 0.0;
            let written_off = out.unreached.contains(&(0, rank));
            prop_assert!(
                delivered ^ written_off,
                "rank {} delivered={} written_off={}",
                rank, delivered, written_off
            );
            prop_assert_eq!(
                host_dones[rank.index()],
                u32::from(delivered),
                "rank {} completed {} times",
                rank, host_dones[rank.index()]
            );
            if written_off {
                prop_assert!(crashed.contains(&rank), "{} written off but alive", rank);
            }
        }
        prop_assert_eq!(out.unreached.len(), crashed.len());
    }

    /// Observers see plain values and cannot perturb the run: a repairing,
    /// lossy workload produces a bit-identical outcome (trace included)
    /// with and without a dynamic observer attached.
    #[test]
    fn observers_never_perturb_a_repairing_run(
        seed in 0u64..(1 << 32),
        cmask in 0u64..(1 << 24),
    ) {
        let n = 24u32;
        let net = crossbar(n);
        let crashed: Vec<u32> = (1..n).filter(|&r| (cmask >> r) & 1 == 1).collect();
        let mut plan = repair_plan(seed);
        plan.drop_rate = 0.02;
        for &r in &crashed {
            plan.crashes.push(HostCrash {
                host: HostId(r),
                at_us: 5.0,
            });
        }
        let job = MulticastJob::fpfs(kbinomial_tree(n, 2), identity(n), 2);
        let unobserved = SimRun::new(&net, std::slice::from_ref(&job), &params(), traced()).faults(&plan).run();

        #[derive(Default)]
        struct Spy {
            repairs: u64,
            reissues: u64,
        }
        impl Observer for Spy {
            fn on(&mut self, ev: &SimEvent) {
                match ev {
                    SimEvent::RepairTriggered { .. } => self.repairs += 1,
                    SimEvent::PacketReissued { .. } => self.reissues += 1,
                    _ => {}
                }
            }
        }
        let mut spy = Spy::default();
        let observed = SimRun::new(&net, std::slice::from_ref(&job), &params(), traced()).faults(&plan).observer(&mut spy).run();
        prop_assert_eq!(&unobserved, &observed, "observer perturbed the run");
        if let Ok(out) = &observed {
            prop_assert_eq!(spy.repairs, out.counters.repairs);
            prop_assert_eq!(spy.reissues, out.counters.reissued_packets);
        }
    }

    /// A plan with no fault source is trivial even with repair enabled, so
    /// it must normalise onto the exact fault-free golden path: outcome,
    /// counters, event count, and trace all bit-equal to the fault-free
    /// `SimRun` path.
    #[test]
    fn fault_free_plan_with_repair_is_bit_equal_to_the_golden_path(
        n in 4u32..48,
        k in 1u32..4,
        m in 1u32..5,
    ) {
        let net = crossbar(n);
        let job = MulticastJob::fpfs(kbinomial_tree(n, k), identity(n), m);
        let plan = repair_plan(7);
        prop_assert!(plan.is_trivial(), "repair alone must not untrivialise");
        let plain = SimRun::new(
            &net,
            std::slice::from_ref(&job),
            &params(),
            traced(),
        ).run()
        .expect("fault-free run failed");
        let repaired = SimRun::new(&net, std::slice::from_ref(&job), &params(), traced()).faults(&plan).run()
        .expect("trivial plan failed");
        prop_assert_eq!(&plain, &repaired);
        prop_assert_eq!(repaired.counters.repairs, 0);
        prop_assert!(repaired.unreached.is_empty());
    }
}
