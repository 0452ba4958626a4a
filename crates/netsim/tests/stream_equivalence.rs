//! `StreamRun` equivalence battery.
//!
//! **Differential** — a stream of exactly one frame, no churn, and
//! unbounded buffers is the degenerate case of the streaming driver: the
//! single frame's simulator outcome must be **bit-identical** to the
//! equivalent [`SimRun`] over the same tree, binding, packet count, and
//! configuration. This pins `StreamRun` to every existing golden the
//! `SimRun` path is pinned to.
//!
//! **Across epochs** — with many frames, live churn, and bounded or
//! unbounded buffers, every delivered frame's outcome must equal an
//! un-prerouted [`SimRun`] over the membership that was current at its
//! service start, rebuilt here from scratch by replaying [`churn_plan`].
//! `StreamRun` simulates each membership epoch once and serves its later
//! frames from that outcome; this pins that the epoch ends at every join
//! and applied leave, and that the stream's `events` count each epoch's
//! run exactly once.
//!
//! **Within an epoch** — a churn-free stream is one epoch: sixteen frames
//! report the effort of one, and every frame's outcome is the first's.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::membership::Membership;
use optimcast_core::params::SystemParams;
use optimcast_netsim::stream::{churn_plan, FrameFate, StreamOutcome, StreamRun, StreamSpec};
use optimcast_netsim::workload::{MulticastJob, SimRun, WorkloadConfig};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
use proptest::prelude::*;

fn params() -> SystemParams {
    SystemParams::paper_1997()
}

fn stream(
    net: &IrregularNetwork,
    binding: &[HostId],
    n: u32,
    k: u32,
    spec: StreamSpec,
    cfg: WorkloadConfig,
) -> StreamOutcome {
    StreamRun::new(net, binding, n, k, &params(), spec)
        .config(cfg)
        .run()
        .expect("valid stream completes")
}

proptest! {
    /// One frame, no churn, unbounded buffers: the frame's
    /// `WorkloadOutcome` is bit-identical to the equivalent `SimRun`.
    #[test]
    fn single_frame_stream_equals_simrun(
        seed in 0u64..40,
        n in 2u32..48,
        k in 1u32..5,
        frame_bytes in 1u32..512,
        mtu in 1u32..128,
    ) {
        let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let spec = StreamSpec {
            frame_bytes,
            mtu_bytes: mtu,
            frames: 1,
            buffer_frames: 0,
            churn_events: 0,
            keep_frame_outcomes: true,
            ..StreamSpec::default()
        };
        let out = stream(&net, &binding, n, k, spec, WorkloadConfig::default());
        prop_assert_eq!(out.served, 1);
        prop_assert_eq!(out.frame_outcomes.len(), 1);

        let packets = frame_bytes.div_ceil(mtu);
        prop_assert_eq!(out.packets_per_frame, packets);
        let job = MulticastJob::fpfs(kbinomial_tree(n, k), binding, packets);
        let direct = SimRun::new(&net, std::slice::from_ref(&job), &params(),
                                 WorkloadConfig::default())
            .run()
            .expect("fault-free run completes");
        prop_assert_eq!(&out.frame_outcomes[0], &direct);
        prop_assert_eq!(out.duration_us, direct.makespan_us.max(0.0));
        prop_assert_eq!(out.events, direct.events);
    }
}

proptest! {
    /// Many frames with churn: each delivered frame's `WorkloadOutcome`
    /// equals an un-prerouted `SimRun` over the membership current at its
    /// service start.
    #[test]
    fn churned_stream_frames_equal_simrun_per_epoch(
        seed in 0u64..40,
        universe in 3u32..40,
        initial_pick in 0u32..40,
        k in 1u32..5,
        frames in 2u32..14,
        churn_events in 1u32..16,
        churn_seed in 0u64..1_000,
        buffer_frames in 0u32..4,
        gap_us in 1u32..400,
        mtu in 16u32..128,
    ) {
        let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
        // Reverse the host order so routes differ from the identity binding.
        let binding: Vec<HostId> = (0..universe).map(|u| HostId(63 - u)).collect();
        let initial = 2 + initial_pick % (universe - 1);
        let spec = StreamSpec {
            frame_bytes: 256,
            mtu_bytes: mtu,
            gap_us: f64::from(gap_us),
            frames,
            buffer_frames,
            churn_events,
            churn_seed,
            keep_frame_outcomes: true,
        };
        let out = stream(&net, &binding, initial, k, spec, WorkloadConfig::default());
        prop_assert_eq!(out.frame_outcomes.len(), out.served as usize);

        let members: Vec<u32> = (0..initial).collect();
        let mut group = Membership::new(kbinomial_tree(initial, k), &members, universe, k)
            .expect("valid initial group");
        let plan = churn_plan(&spec, universe);
        let mut next_event = 0;
        let delivered = out.frames.iter().filter_map(|f| match f.fate {
            FrameFate::Delivered { service_start_us, receivers, .. } => {
                Some((service_start_us, receivers))
            }
            FrameFate::Dropped { .. } => None,
        });
        // Effort of the direct runs, counted once per membership epoch: the
        // first frame opens one, and so does every join or applied leave.
        let mut epoch_events = 0u64;
        let mut fresh = true;
        for ((start, receivers), frame_out) in delivered.zip(&out.frame_outcomes) {
            while next_event < plan.len() && plan[next_event].at_us <= start {
                let member = plan[next_event].member;
                next_event += 1;
                if !group.is_member(member) {
                    group.join(member).expect("absent member joins");
                    fresh = true;
                } else if group.len() > 2 {
                    group.leave(member).expect("present member leaves");
                    fresh = true;
                }
            }
            prop_assert_eq!(receivers as usize, group.len() - 1);
            let job_binding: Vec<HostId> =
                group.members().iter().map(|&u| binding[u as usize]).collect();
            let job = MulticastJob::fpfs(
                group.tree().clone(),
                job_binding,
                out.packets_per_frame,
            );
            let direct = SimRun::new(&net, std::slice::from_ref(&job), &params(),
                                     WorkloadConfig::default())
                .run()
                .expect("fault-free run completes");
            prop_assert_eq!(frame_out, &direct);
            if fresh {
                epoch_events += direct.events;
                fresh = false;
            }
        }
        prop_assert_eq!(out.events, epoch_events);
    }
}

proptest! {
    /// A churn-free stream is one membership epoch, simulated once: sixteen
    /// frames report the events and queue peak of one frame, and every
    /// kept frame outcome equals the first.
    #[test]
    fn epoch_frames_simulate_once(
        seed in 0u64..40,
        n in 2u32..48,
        k in 1u32..5,
        buffer_frames in 0u32..4,
        gap_us in 1u32..400,
        mtu in 16u32..128,
    ) {
        let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let spec = |frames| StreamSpec {
            mtu_bytes: mtu,
            gap_us: f64::from(gap_us),
            frames,
            buffer_frames,
            churn_events: 0,
            keep_frame_outcomes: true,
            ..StreamSpec::default()
        };
        let cfg = WorkloadConfig::default();
        let one = stream(&net, &binding, n, k, spec(1), cfg);
        let many = stream(&net, &binding, n, k, spec(16), cfg);
        prop_assert_eq!(many.events, one.events);
        prop_assert_eq!(many.peak_queue_len, one.peak_queue_len);
        prop_assert_eq!(many.frame_outcomes.len(), many.served as usize);
        for frame_out in &many.frame_outcomes {
            prop_assert_eq!(frame_out, &one.frame_outcomes[0]);
        }
    }
}
