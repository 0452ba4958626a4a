//! The `SimTransport` adapter contract: routing every send through the
//! object-safe [`Transport`] trait must leave the simulator's behaviour
//! bit-identical.
//!
//! The golden-equivalence suite pins full outcome structs; this suite pins
//! the three scenarios' *event counts and makespans* as the adapter's own
//! regression tripwire (711 / 940 / 1641 events), and exercises the
//! `SimTransport` backend directly as a `&mut dyn Transport` — the
//! dispatch shape wire-backend callers use (the event loop itself calls
//! the same send arithmetic without the trait object).

use optimcast_core::builders::{binomial_tree, kbinomial_tree};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_netsim::transport::{
    LinkContext, PacketView, SimTransport, Transport, TransportResult,
};
use optimcast_netsim::workload::{MulticastJob, PersonalizedOrder};
use optimcast_netsim::*;
use optimcast_topology::graph::{ChannelId, HostId};
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

fn hosts(r: std::ops::Range<u32>) -> Vec<HostId> {
    r.map(HostId).collect()
}

/// The three golden scenarios' `(events, makespan_us)` through the
/// simulator transport — the same numbers the pre-refactor inline hot
/// path produced (staggered smart-NI scenarios carry one extra `JobStart`
/// staging event per deferred job since the multi-tenant scheduler
/// landed).
#[test]
fn golden_scenarios_pin_through_the_trait_object() {
    let params = SystemParams::paper_1997();

    let n11 = IrregularNetwork::generate(IrregularConfig::default(), 11);
    let wl = SimRun::new(
        &n11,
        &[MulticastJob::fpfs(kbinomial_tree(40, 2), hosts(0..40), 5)],
        &params,
        WorkloadConfig::default(),
    )
    .run()
    .unwrap();
    assert_eq!((wl.events, wl.makespan_us), (711, 100.0));

    let n12 = IrregularNetwork::generate(IrregularConfig::default(), 12);
    let mut j_fcfs = MulticastJob::fpfs(binomial_tree(24), hosts(20..44), 4);
    j_fcfs.nic = NicKind::Smart(ForwardingDiscipline::Fcfs);
    j_fcfs.start_us = 40.0;
    let mut j_conv = MulticastJob::fpfs(binomial_tree(16), hosts(48..64), 3);
    j_conv.nic = NicKind::Conventional;
    j_conv.start_us = 80.0;
    let wl = SimRun::new(
        &n12,
        &[
            MulticastJob::fpfs(kbinomial_tree(32, 3), hosts(0..32), 4),
            j_fcfs,
            j_conv,
        ],
        &params,
        WorkloadConfig::default(),
    )
    .run()
    .unwrap();
    assert_eq!((wl.events, wl.makespan_us), (940, 240.0));

    let n13 = IrregularNetwork::generate(IrregularConfig::default(), 13);
    let s1 = MulticastJob::scatter(
        kbinomial_tree(24, 2),
        hosts(0..24),
        3,
        PersonalizedOrder::OwnFirst,
    );
    let mut s2 = MulticastJob::scatter(
        binomial_tree(24),
        hosts(24..48),
        3,
        PersonalizedOrder::DeepestFirst,
    );
    s2.start_us = 25.0;
    let wl = SimRun::new(&n13, &[s1, s2], &params, WorkloadConfig::default())
        .run()
        .unwrap();
    assert_eq!((wl.events, wl.makespan_us), (1641, 407.0));
}

/// `SimTransport` driven directly as `&mut dyn Transport` reproduces the
/// wormhole channel-reservation semantics: shared-route worms serialize,
/// disjoint routes run concurrently, and the (start, arrival) instants
/// carry the exact `t_send + t_prop` arithmetic of the inline hot path.
#[test]
fn sim_transport_wormhole_semantics_via_dyn() {
    let params = SystemParams::paper_1997();
    let hold = params.t_send + params.t_prop;
    let mut boxed: Box<dyn Transport> = Box::new(SimTransport::new(
        ContentionMode::Wormhole,
        6,
        &params,
        None,
    ));
    static SHARED: [ChannelId; 2] = [ChannelId(0), ChannelId(2)];
    let view = |packet: u32| PacketView {
        stream: 0,
        epoch: 0,
        packet,
        attempt: 0,
        payload: &[],
    };
    let link = |now_us: f64, route: &'static [ChannelId]| LinkContext {
        now_us,
        route,
        from_rank: 0,
        to_rank: 1,
    };
    let starts: Vec<f64> = (0..3)
        .map(|p| {
            match boxed
                .send(HostId(0), HostId(1), view(p), link(0.0, &SHARED))
                .unwrap()
            {
                TransportResult::Delivered {
                    start_us,
                    arrival_us,
                    corrupt,
                } => {
                    assert!(!corrupt);
                    assert_eq!(arrival_us, start_us + hold);
                    start_us
                }
                other => panic!("unexpected {other:?}"),
            }
        })
        .collect();
    assert_eq!(starts, vec![0.0, hold, 2.0 * hold]);
    // A disjoint route is unaffected by the busy shared channels.
    static OTHER: [ChannelId; 1] = [ChannelId(5)];
    match boxed
        .send(HostId(0), HostId(2), view(0), link(3.0, &OTHER))
        .unwrap()
    {
        TransportResult::Delivered { start_us, .. } => assert_eq!(start_us, 3.0),
        other => panic!("unexpected {other:?}"),
    }
}

/// Under `ContentionMode::Ideal` the transport never stalls: every send
/// starts at its dispatch instant, matching the analytic step model.
#[test]
fn sim_transport_ideal_never_stalls() {
    let params = SystemParams::paper_1997();
    let mut t = SimTransport::new(ContentionMode::Ideal, 2, &params, None);
    static ROUTE: [ChannelId; 1] = [ChannelId(0)];
    for p in 0..4u32 {
        let r = t
            .send(
                HostId(0),
                HostId(1),
                PacketView {
                    stream: 0,
                    epoch: 0,
                    packet: p,
                    attempt: 0,
                    payload: &[],
                },
                LinkContext {
                    now_us: 10.0,
                    route: &ROUTE,
                    from_rank: 0,
                    to_rank: 1,
                },
            )
            .unwrap();
        match r {
            TransportResult::Delivered { start_us, .. } => assert_eq!(start_us, 10.0),
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A certain-loss plan surfaces `Lost` verdicts with the plan's backoff
/// schedule: `retry_at = start + ack_timeout * 2^min(attempt, cap)`.
#[test]
fn sim_transport_loss_verdicts_follow_backoff() {
    let params = SystemParams::paper_1997();
    let mut plan = FaultPlan::new(3);
    plan.drop_rate = 1.0;
    let mut t = SimTransport::new(ContentionMode::Ideal, 1, &params, Some(&plan));
    static ROUTE: [ChannelId; 1] = [ChannelId(0)];
    for attempt in 0..4u32 {
        let r = t
            .send(
                HostId(0),
                HostId(1),
                PacketView {
                    stream: 0,
                    epoch: 0,
                    packet: 0,
                    attempt,
                    payload: &[],
                },
                LinkContext {
                    now_us: 100.0,
                    route: &ROUTE,
                    from_rank: 0,
                    to_rank: 1,
                },
            )
            .unwrap();
        match r {
            TransportResult::Lost {
                start_us,
                kind,
                retry_at_us,
            } => {
                assert_eq!(start_us, 100.0);
                assert_eq!(kind, FaultKind::Drop);
                assert_eq!(retry_at_us, 100.0 + plan.rto(attempt));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
