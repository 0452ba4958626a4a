//! Reused storage changes no result.
//!
//! **Patched routes** — along a random churn sequence over a group with
//! stable member ids, the [`EpochRoutes`] table after every splice equals
//! [`JobRoutes::build`] of the current tree and binding, although only the
//! new edges were routed.
//!
//! **Reused arenas** — streams run one after another through one
//! [`SimArena`] (different groups, sizes, specs and configurations, so the
//! arena's storage shrinks and grows between them) equal the same streams
//! run each over a fresh arena by [`StreamRun::run`], field for field; and
//! a [`SimRun`] through an arena that a stream has used equals a fresh run.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::membership::Membership;
use optimcast_core::params::SystemParams;
use optimcast_netsim::{
    ContentionMode, EpochRoutes, JobRoutes, MulticastJob, NiModel, NiTiming, SimArena, SimRun,
    StreamRun, StreamSpec, WorkloadConfig, WorkloadOutcome,
};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use proptest::prelude::*;

/// Full-width `u64` strategy (the vendored proptest has no `num` module).
const ANY_U64: std::ops::Range<u64> = 0..u64::MAX;

fn params() -> SystemParams {
    SystemParams::paper_1997()
}

/// The configuration of draw `pick`: wormhole or ideal contention, one or
/// two send units, handshake or overlapped timing.
fn config(pick: u64) -> WorkloadConfig {
    WorkloadConfig {
        contention: if pick.is_multiple_of(2) {
            ContentionMode::Wormhole
        } else {
            ContentionMode::Ideal
        },
        timing: if pick.is_multiple_of(3) {
            NiTiming::Overlapped
        } else {
            NiTiming::Handshake
        },
        ni: NiModel {
            send_units: 1 + (pick / 6 % 2) as u32,
            queue_capacity: None,
        },
        trace: false,
    }
}

proptest! {
    /// Every epoch's patched table equals a table built from scratch.
    #[test]
    fn patched_routes_equal_a_fresh_build_along_churn(
        seed in 0u64..20,
        n in 2u32..33,
        extra in 1u32..32,
        k in 1u32..6,
        opstream in ANY_U64,
        steps in 1u32..40,
    ) {
        let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
        let universe = n + extra;
        // Members bound to scattered hosts, all distinct.
        let hosts: Vec<HostId> = (0..universe).map(|u| HostId((u * 7 + seed as u32) % 64)).collect();
        let members: Vec<u32> = (0..n).collect();
        let mut group = Membership::new(kbinomial_tree(n, k), &members, universe, k).unwrap();
        let mut routes = EpochRoutes::new();
        for i in 0..=steps {
            if i > 0 {
                let member = 1 + (opstream.rotate_left(i * 11) % u64::from(universe - 1)) as u32;
                if group.is_member(member) {
                    if group.len() > 2 {
                        group.leave(member).unwrap();
                    }
                } else {
                    group.join(member).unwrap();
                }
            }
            let binding: Vec<HostId> = group.members().iter().map(|&u| hosts[u as usize]).collect();
            let table = routes.update(&net, group.tree(), group.members(), &hosts);
            prop_assert_eq!(
                &**table,
                &JobRoutes::build(&net, group.tree(), &binding),
                "step {}", i
            );
            if i > 0 {
                prop_assert!(routes.routed() < group.len(), "step {} routed every edge", i);
            }
        }
    }

    /// Streams through one arena equal fresh-arena streams field for field,
    /// and the arena then serves a plain run exactly like a new one.
    #[test]
    fn reused_arena_streams_equal_fresh_runs(
        seed in 0u64..20,
        shapes in ANY_U64,
        streams in 1u32..5,
    ) {
        let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
        let p = params();
        let mut arena = SimArena::new();
        for s in 0..streams {
            let draw = shapes.rotate_left(s * 16);
            let universe = 3 + (draw % 40) as u32;
            let initial = 2 + (draw >> 8) as u32 % (universe - 1);
            let k = 1 + (draw >> 16) as u32 % 4;
            let binding: Vec<HostId> = (0..universe).map(|u| HostId((u * 5 + s) % 64)).collect();
            let spec = StreamSpec {
                frame_bytes: 64 + (draw >> 24) as u32 % 400,
                mtu_bytes: 64,
                gap_us: 20.0 + (draw >> 32) as f64 % 200.0,
                frames: 1 + (draw >> 40) as u32 % 12,
                buffer_frames: (draw >> 44) as u32 % 4,
                churn_events: (draw >> 48) as u32 % 10,
                churn_seed: draw,
                keep_frame_outcomes: draw.is_multiple_of(5),
            };
            let run = || {
                StreamRun::new(&net, &binding, initial, k, &p, spec).config(config(draw))
            };
            let fresh = run().run().expect("valid stream completes");
            let reused = run().run_in(&mut arena).expect("valid stream completes");
            prop_assert_eq!(&reused, &fresh, "stream {}", s);
        }
        let job = MulticastJob::fpfs(kbinomial_tree(16, 2), (0..16).map(HostId).collect(), 3);
        let jobs = std::slice::from_ref(&job);
        let run = || SimRun::new(&net, jobs, &p, WorkloadConfig::default());
        let mut out = WorkloadOutcome::default();
        run().run_into(&mut arena, &mut out).unwrap();
        prop_assert_eq!(out, run().run().unwrap());
    }
}
