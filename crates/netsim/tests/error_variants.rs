//! One end-to-end test per [`SimError`] variant: every rejection the
//! validator can produce must come back as a typed `Err`, never a panic,
//! and must identify the offending job.

use optimcast_core::builders::binomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_netsim::workload::{MulticastJob, PersonalizedOrder};
use optimcast_netsim::*;
use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use optimcast_topology::Network;
use std::sync::Arc;

fn net() -> IrregularNetwork {
    IrregularNetwork::generate(IrregularConfig::default(), 7)
}

fn run(jobs: &[MulticastJob]) -> Result<WorkloadOutcome, SimError> {
    SimRun::new(
        &net(),
        jobs,
        &SystemParams::paper_1997(),
        WorkloadConfig::default(),
    )
    .run()
}

fn fpfs_job(hosts: std::ops::Range<u32>, m: u32) -> MulticastJob {
    let binding: Vec<HostId> = hosts.map(HostId).collect();
    MulticastJob::fpfs(binomial_tree(binding.len() as u32), binding, m)
}

#[test]
fn empty_workload() {
    assert_eq!(run(&[]), Err(SimError::EmptyWorkload));
}

#[test]
fn zero_packets() {
    // The second job is the malformed one: the index must point at it.
    let jobs = [fpfs_job(0..4, 2), fpfs_job(4..8, 0)];
    assert_eq!(run(&jobs), Err(SimError::ZeroPackets { job: 1 }));
}

#[test]
fn binding_mismatch() {
    let mut job = fpfs_job(0..8, 2);
    job.binding.truncate(5);
    assert_eq!(
        run(&[job]),
        Err(SimError::BindingMismatch {
            job: 0,
            bound: 5,
            ranks: 8
        })
    );
}

#[test]
fn negative_start() {
    let mut job = fpfs_job(0..4, 2);
    job.start_us = -1.5;
    assert_eq!(
        run(&[job]),
        Err(SimError::NegativeStart {
            job: 0,
            start_us: -1.5
        })
    );
}

#[test]
fn nan_start_is_rejected_too() {
    // NaN fails the `start_us >= 0` check just like a negative value; it
    // must not leak into the event queue's time ordering.
    let mut job = fpfs_job(0..4, 2);
    job.start_us = f64::NAN;
    match run(&[job]) {
        Err(SimError::NegativeStart { job: 0, start_us }) => {
            assert!(start_us.is_nan());
        }
        other => panic!("expected NegativeStart, got {other:?}"),
    }
}

#[test]
fn personalized_needs_smart_nic() {
    let binding: Vec<HostId> = (0..4).map(HostId).collect();
    let mut job = MulticastJob::scatter(binomial_tree(4), binding, 4, PersonalizedOrder::OwnFirst);
    job.nic = NicKind::Conventional;
    assert_eq!(
        run(&[job]),
        Err(SimError::PersonalizedNeedsSmartNic { job: 0 })
    );
}

#[test]
fn host_out_of_range() {
    let hosts = net().num_hosts();
    let mut job = fpfs_job(0..4, 2);
    job.binding[2] = HostId(hosts + 3);
    assert_eq!(
        run(&[job]),
        Err(SimError::HostOutOfRange {
            job: 0,
            host: HostId(hosts + 3),
            hosts: hosts as usize,
        })
    );
}

#[test]
fn duplicate_host() {
    let mut job = fpfs_job(0..4, 2);
    job.binding[3] = job.binding[1];
    assert_eq!(
        run(&[job]),
        Err(SimError::DuplicateHost {
            job: 0,
            host: HostId(1)
        })
    );
}

/// Runs `jobs` with caller-supplied route tables, one per entry of
/// `tables`, each built for the given job of `jobs`.
fn run_prerouted(
    jobs: &[MulticastJob],
    tables: &[&MulticastJob],
) -> Result<WorkloadOutcome, SimError> {
    let n = net();
    let routes: Vec<_> = tables
        .iter()
        .map(|job| Arc::new(JobRoutes::build(&n, &job.tree, &job.binding)))
        .collect();
    SimRun::new(
        &n,
        jobs,
        &SystemParams::paper_1997(),
        WorkloadConfig::default(),
    )
    .routes(routes)
    .run()
}

#[test]
fn route_count_mismatch() {
    let jobs = [fpfs_job(0..8, 2), fpfs_job(8..16, 2)];
    assert_eq!(
        run_prerouted(&jobs, &[&jobs[0]]),
        Err(SimError::RouteCountMismatch { jobs: 2, routes: 1 })
    );
}

#[test]
fn route_table_mismatch() {
    // The second job's table was built for a 5-rank tree, not its 8 ranks.
    let jobs = [fpfs_job(0..8, 2), fpfs_job(8..16, 2)];
    let short = fpfs_job(8..13, 2);
    assert_eq!(
        run_prerouted(&jobs, &[&jobs[0], &short]),
        Err(SimError::RouteTableMismatch {
            job: 1,
            covered: 5,
            ranks: 8
        })
    );
}

#[test]
fn run_multicast_surfaces_the_same_errors() {
    // The single-multicast wrapper forwards validation errors untouched.
    let n = net();
    let params = SystemParams::paper_1997();
    let binding: Vec<HostId> = (0..4).map(HostId).collect();
    let err = run_multicast(
        &n,
        &binomial_tree(4),
        &binding,
        0,
        &params,
        RunConfig::default(),
    )
    .unwrap_err();
    assert_eq!(err, SimError::ZeroPackets { job: 0 });
}

#[test]
fn errors_do_not_depend_on_nic_kind() {
    // Validation runs before any engine is consulted: the same malformed
    // binding is rejected identically under every NIC model.
    for nic in [
        NicKind::Smart(ForwardingDiscipline::Fpfs),
        NicKind::Smart(ForwardingDiscipline::Fcfs),
        NicKind::Conventional,
    ] {
        let mut job = fpfs_job(0..4, 2);
        job.nic = nic;
        job.binding[3] = job.binding[0];
        assert_eq!(
            run(&[job]),
            Err(SimError::DuplicateHost {
                job: 0,
                host: HostId(0)
            }),
            "nic {nic:?}"
        );
    }
}

/// A caller's tree that leaves a rank unattached to the source can never
/// reach it. Without a fault plan that used to panic at collection; it is a
/// typed `DeliveryFailed` naming the rank, under every engine.
#[test]
fn unattached_rank_is_a_delivery_failure() {
    use optimcast_core::tree::{MulticastTree, Rank};
    let mut tree = MulticastTree::with_capacity(4);
    tree.attach(Rank(0), Rank(1));
    tree.attach(Rank(0), Rank(2));
    let fpfs = MulticastJob::fpfs(tree, (0..4).map(HostId).collect(), 2);
    let conv = MulticastJob {
        nic: NicKind::Conventional,
        ..fpfs.clone()
    };
    let scatter = MulticastJob::scatter(
        fpfs.tree.clone(),
        fpfs.binding.clone(),
        2,
        PersonalizedOrder::OwnFirst,
    );
    for job in [fpfs, conv, scatter] {
        match run(std::slice::from_ref(&job)) {
            Err(SimError::DeliveryFailed { unreached, .. }) => {
                assert_eq!(unreached, vec![(0, Rank(3))], "{:?}", job.nic)
            }
            other => panic!("{:?}: expected DeliveryFailed, got {other:?}", job.nic),
        }
    }
}

/// A 65,537-rank job on a fat-tree that seats it, every rank on its own
/// host, with `wide` children under the source and the remaining ranks
/// chained under rank 1.
fn wide_job(wide: u32) -> (FabricNetwork, MulticastJob) {
    use optimcast_core::tree::{MulticastTree, Rank};
    const RANKS: u32 = 65_537;
    let net = FabricNetwork::generate_with_hosts(FabricConfig::fat_tree_for_hosts(RANKS), RANKS);
    let mut tree = MulticastTree::with_capacity(RANKS);
    for r in 1..=wide {
        tree.attach(Rank::SOURCE, Rank(r));
    }
    for r in wide + 1..RANKS {
        tree.attach(Rank(r - wide), Rank(r));
    }
    (
        net,
        MulticastJob::fpfs(tree, (0..RANKS).map(HostId).collect(), 1),
    )
}

/// Each rank counts a packet's outstanding copies in a `u16`: a replicated
/// job with a rank of 65,536 children is rejected at validation, with or
/// without a repair policy, instead of wrapping the counter mid-run.
#[test]
fn fan_out_beyond_the_copy_counter_is_rejected() {
    use optimcast_core::tree::Rank;
    let (net, job) = wide_job(65_536);
    let params = SystemParams::paper_1997();
    let jobs = std::slice::from_ref(&job);
    let want = Err(SimError::FanOutTooWide {
        job: 0,
        rank: Rank::SOURCE,
        children: 65_536,
    });
    let plain = SimRun::new(&net, jobs, &params, WorkloadConfig::default()).run();
    assert_eq!(plain, want);
    let mut plan = FaultPlan::new(1);
    plan.drop_rate = 0.01;
    plan.repair = Some(RepairPolicy::default());
    let repaired = SimRun::new(&net, jobs, &params, WorkloadConfig::default())
        .faults(&plan)
        .run();
    assert_eq!(repaired, want);
}

/// A 65,537-rank replicated job whose widest rank has exactly `u16::MAX`
/// children fits the counter and runs to completion.
#[test]
fn fan_out_at_the_copy_counter_limit_runs() {
    let (net, job) = wide_job(u32::from(u16::MAX));
    let out = SimRun::new(
        &net,
        std::slice::from_ref(&job),
        &SystemParams::paper_1997(),
        WorkloadConfig::default(),
    )
    .run()
    .expect("a fan-out of u16::MAX fits the copy counter");
    let done = &out.jobs[0].host_done_us;
    assert!(done[1..].iter().all(|&t| t > 0.0), "every rank is reached");
    assert_eq!(
        out.jobs[0].max_ni_buffer[0], 1,
        "the source stages its one packet"
    );
    assert_eq!(out.jobs[0].total_sends, 65_536);
}
