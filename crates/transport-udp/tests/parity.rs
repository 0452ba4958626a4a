//! The sim-vs-wire parity contract: for the same `(n, k, m)`, the
//! per-receiver delivery order observed on clean loopback UDP must equal
//! the order the discrete-event simulator predicts for the same k-binomial
//! tree and FPFS schedule — which in turn must equal the analytic
//! [`Schedule::arrival_order`] oracle.
//!
//! Loopback is FIFO per socket pair and lossless, and FPFS forwards each
//! packet the moment it completes, so all three views of "when does packet
//! `p` reach rank `r`" have to agree; any divergence means either the wire
//! runner or the simulator has drifted from the schedule.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_core::tree::Rank;
use optimcast_netsim::{MulticastJob, SimEvent, SimRun, WorkloadConfig, WorkloadOutcome};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use optimcast_transport_udp::{loopback_demo, WirePlan};
use std::time::Duration;

const N: u32 = 12;
const K: u32 = 2;
const M: u32 = 3;

/// Per-rank packet order in first-completion sequence, from the sim trace.
fn sim_orders(wl: &WorkloadOutcome, n: u32) -> Vec<Vec<u32>> {
    let mut orders = vec![Vec::new(); n as usize];
    for ev in &wl.trace {
        if let SimEvent::RecvDone { at, packet, .. } = *ev {
            orders[at.index()].push(packet);
        }
    }
    orders
}

#[test]
fn wire_order_matches_simulator_prediction() {
    // Simulator side: the same tree bound to hosts 0..N on the paper's
    // irregular network, full wormhole contention, trace on.
    let net = IrregularNetwork::generate(IrregularConfig::default(), 42);
    let binding: Vec<HostId> = (0..N).map(HostId).collect();
    let wl = SimRun::new(
        &net,
        &[MulticastJob::fpfs(kbinomial_tree(N, K), binding, M)],
        &SystemParams::paper_1997(),
        WorkloadConfig {
            trace: true,
            ..WorkloadConfig::default()
        },
    )
    .run()
    .expect("sim runs");
    let sim = sim_orders(&wl, N);

    // Wire side: the same (n, k, m) over real loopback datagrams.
    let plan = WirePlan::new(N, K, M, 900, 200);
    let reports =
        loopback_demo(N, K, M, 900, 200, Duration::from_secs(30)).expect("wire demo runs");
    assert_eq!(reports.len(), (N - 1) as usize);

    for report in &reports {
        let rank = Rank(report.rank);
        let predicted = plan.expected_order(rank);
        assert!(
            report.parity(),
            "rank {} wire run failed parity: {:?}",
            report.rank,
            report
        );
        assert_eq!(
            report.order, predicted,
            "rank {} wire order diverged from the schedule oracle",
            report.rank
        );
        assert_eq!(
            sim[rank.index()],
            predicted,
            "rank {} simulated order diverged from the schedule oracle",
            report.rank
        );
    }
}
