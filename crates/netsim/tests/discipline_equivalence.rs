//! Property tests of discipline equivalence and observer neutrality.
//!
//! FPFS and FCFS order the *same* per-node send set differently
//! (packet-major vs child-major, paper §3.3), so whenever that ordering
//! cannot differ the two engines must produce bit-identical outcomes:
//!
//! * `m = 1` — one packet per child leaves nothing to reorder;
//! * linear trees — one child per node, ditto.
//!
//! Observability must be free: enabling `--trace` or attaching a user
//! observer may not perturb a single simulated timestamp (acceptance
//! criterion of the component refactor).

use optimcast_core::builders::{kbinomial_tree, linear_tree};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_netsim::workload::MulticastJob;
use optimcast_netsim::*;
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use proptest::prelude::*;

fn net(seed: u64) -> IrregularNetwork {
    IrregularNetwork::generate(IrregularConfig::default(), seed)
}

fn run_with(
    net: &IrregularNetwork,
    mut job: MulticastJob,
    disc: ForwardingDiscipline,
    config: WorkloadConfig,
) -> WorkloadOutcome {
    job.nic = NicKind::Smart(disc);
    SimRun::new(net, &[job], &SystemParams::paper_1997(), config)
        .run()
        .unwrap()
}

proptest! {
    /// Single packet: packet-major and child-major coincide on every tree
    /// shape, under both contention models.
    #[test]
    fn fpfs_equals_fcfs_single_packet(
        n in 2u32..48,
        k in 1u32..6,
        seed in 0u64..8,
        ideal in proptest::bool::ANY,
    ) {
        let network = net(seed);
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let job = MulticastJob::fpfs(kbinomial_tree(n, k), binding, 1);
        let config = WorkloadConfig {
            contention: if ideal { ContentionMode::Ideal } else { ContentionMode::Wormhole },
            ..WorkloadConfig::default()
        };
        let fpfs = run_with(&network, job.clone(), ForwardingDiscipline::Fpfs, config);
        let fcfs = run_with(&network, job, ForwardingDiscipline::Fcfs, config);
        prop_assert_eq!(fpfs, fcfs);
    }

    /// Linear trees: one child per node, so the disciplines coincide for
    /// every message length.
    #[test]
    fn fpfs_equals_fcfs_linear_tree(
        n in 2u32..20,
        m in 1u32..12,
        seed in 0u64..8,
    ) {
        let network = net(seed);
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let job = MulticastJob::fpfs(linear_tree(n), binding, m);
        let config = WorkloadConfig::default();
        let fpfs = run_with(&network, job.clone(), ForwardingDiscipline::Fpfs, config);
        let fcfs = run_with(&network, job, ForwardingDiscipline::Fcfs, config);
        prop_assert_eq!(fpfs, fcfs);
    }

    /// Tracing is observation only: the outcome with `trace: true` equals
    /// the untraced outcome in every field except the timeline itself.
    #[test]
    fn trace_never_changes_timing(
        n in 2u32..40,
        k in 1u32..5,
        m in 1u32..8,
        seed in 0u64..8,
    ) {
        let network = net(seed);
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let job = MulticastJob::fpfs(kbinomial_tree(n, k), binding, m);
        let params = SystemParams::paper_1997();
        let quiet = SimRun::new(&network, std::slice::from_ref(&job), &params, WorkloadConfig::default()).run()
            .unwrap();
        let mut traced = SimRun::new(
            &network,
            &[job],
            &params,
            WorkloadConfig { trace: true, ..WorkloadConfig::default() },
        ).run()
        .unwrap();
        prop_assert!(!traced.trace.is_empty());
        traced.trace.clear();
        prop_assert_eq!(quiet, traced);
    }
}

/// A user observer that counts every event of the kinds it tracks.
#[derive(Default)]
struct CountingObserver {
    send_starts: u64,
    recv_dones: u64,
    host_dones: u64,
    enqueues: u64,
    buffer_grows: u64,
    unit_waits: u64,
}

impl Observer for CountingObserver {
    fn on(&mut self, ev: &SimEvent) {
        let count = match ev {
            SimEvent::SendStart { .. } => &mut self.send_starts,
            SimEvent::RecvDone { .. } => &mut self.recv_dones,
            SimEvent::HostDone { .. } => &mut self.host_dones,
            SimEvent::RecvUnitWait { .. } => &mut self.unit_waits,
            SimEvent::SendEnqueued { .. } => &mut self.enqueues,
            SimEvent::BufferGrew { .. } => &mut self.buffer_grows,
            _ => return,
        };
        *count += 1;
    }
}

/// Attaching a user observer changes nothing about the simulation, and the
/// observer sees exactly as many sends as the run reports.
#[test]
fn user_observer_is_pure_observation() {
    let network = net(11);
    let binding: Vec<HostId> = (0..24).map(HostId).collect();
    let job = MulticastJob::fpfs(kbinomial_tree(24, 2), binding, 5);
    let params = SystemParams::paper_1997();
    let config = WorkloadConfig::default();
    let plain = SimRun::new(&network, std::slice::from_ref(&job), &params, config)
        .run()
        .unwrap();
    let mut obs = CountingObserver::default();
    let observed = SimRun::new(&network, &[job], &params, config)
        .observer(&mut obs)
        .run()
        .unwrap();
    assert_eq!(plain, observed);
    assert_eq!(obs.send_starts, observed.jobs[0].total_sends);
    assert_eq!(obs.host_dones, 23, "every destination host completes once");
    assert!(obs.recv_dones >= obs.host_dones);
    assert_eq!(
        obs.enqueues, obs.send_starts,
        "every enqueued send is dispatched"
    );
}
