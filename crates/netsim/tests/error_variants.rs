//! One end-to-end test per [`SimError`] variant: every rejection the
//! validator can produce must come back as a typed `Err`, never a panic,
//! and must identify the offending job.

use optimcast_core::builders::binomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_netsim::workload::{MulticastJob, PersonalizedOrder};
use optimcast_netsim::*;
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
    let routes = tables
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
