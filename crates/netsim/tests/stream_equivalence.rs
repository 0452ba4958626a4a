//! `StreamRun` equivalence battery.
//!
//! **Differential** — a stream of exactly one frame, no churn, and
//! unbounded buffers is the degenerate case of the streaming driver: the
//! single frame's simulator outcome must be **bit-identical** to the
//! equivalent [`SimRun`] over the same tree, binding, packet count, and
//! configuration. This pins `StreamRun` to every existing golden the
//! `SimRun` path is pinned to.

use optimcast_core::builders::kbinomial_tree;
use optimcast_core::params::SystemParams;
use optimcast_netsim::stream::{StreamOutcome, StreamRun, StreamSpec};
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
