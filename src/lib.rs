//! # optimcast
//!
//! A full reproduction of *"Optimal Multicast with Packetization and Network
//! Interface Support"* (Ram Kesavan and Dhabaleswar K. Panda, ICPP 1997):
//! k-binomial multicast trees, smart network-interface forwarding (FCFS and
//! FPFS), contention-free tree construction on node orderings, and the
//! simulation apparatus — irregular switch networks with up\*/down\* routing,
//! CCO orderings, and a wormhole discrete-event simulator — that regenerates
//! every figure of the paper's evaluation.
//!
//! The workspace is layered:
//!
//! * `optimcast_core` (re-exported as [`core`](mod@crate::core)) — trees,
//!   schedules, the optimal-`k` solver, analytic latency and buffer models;
//! * `optimcast_topology` (re-exported as [`topology`]) — networks,
//!   routing, orderings, contention analysis;
//! * `optimcast_netsim` (re-exported as [`netsim`]) — the discrete-event
//!   simulator, and the object-safe `Transport` trait every packet-motion
//!   decision flows through;
//! * `optimcast_transport_udp` (re-exported as [`transport_udp`]) — the
//!   real-wire backend: the same trees and FPFS schedules driven over
//!   `std::net::UdpSocket` datagrams (`optimcast wire`);
//! * `optimcast_sweep` (re-exported as [`sweep`]) — the deterministic
//!   parallel sweep engine: the validated [`SweepBuilder`](prelude::SweepBuilder)
//!   API, memoized topology/tree construction, figure regeneration, and the
//!   unified figure JSON schema;
//! * this crate — the experiment facade ([`experiments`]), the static
//!   schedule/route contention analysis ([`analysis`]), and the `figures`
//!   binary that prints every paper figure as a data table.
//!
//! ## Regenerating figures
//!
//! ```
//! use optimcast::prelude::*;
//!
//! // 2 topologies × 3 destination sets on 2 workers; results are
//! // bit-identical for every thread count.
//! let sweep = SweepBuilder::quick().parallelism(2).build().unwrap();
//! let fig = sweep.figure(FigureId::Fig13a).unwrap();
//! assert_eq!(fig.series[0].label, "15 dest");
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use optimcast::prelude::*;
//!
//! // The paper's platform: 64 hosts on 16 eight-port switches.
//! let net = IrregularNetwork::generate(IrregularConfig::default(), 42);
//! let ordering = cco(&net);
//!
//! // Multicast a 512-byte message (8 packets of 64 B) from host 0 to 31
//! // destinations.
//! let params = SystemParams::paper_1997();
//! let dests: Vec<HostId> = (1..32).map(HostId).collect();
//! let chain = ordering.arrange(HostId(0), &dests);
//! let m = params.packets_for(512);
//!
//! // Optimal k-binomial tree (Theorem 3), built contention-free on the
//! // chain (Fig. 11 construction).
//! let opt = optimal_k(chain.len() as u64, m);
//! let tree = kbinomial_tree(chain.len() as u32, opt.k);
//!
//! let out = run_multicast(&net, &tree, &chain, m, &params, RunConfig::default()).unwrap();
//! assert!(out.latency_us > 0.0);
//! ```

pub use optimcast_collectives as collectives;
pub use optimcast_core as core;
pub use optimcast_netsim as netsim;
pub use optimcast_sweep as sweep;
pub use optimcast_topology as topology;
pub use optimcast_transport_udp as transport_udp;

pub mod analysis;
pub mod comm;
pub mod experiments;
pub mod jsonout;

/// One-stop imports for applications.
pub mod prelude {
    pub use optimcast_core::prelude::*;
    pub use optimcast_netsim::{
        run_multicast, ContentionAware, ContentionMode, FaultKind, FaultPlan, FaultPlanSpec,
        FifoAdmission, HostCrash, JobScheduler, LinkFailure, MulticastJob, MulticastOutcome,
        NiTiming, NicKind, RunConfig, ScheduledOutcome, ScheduledRun, SimError, SimRun,
        WorkloadConfig,
    };
    pub use optimcast_sweep::{
        ChaosCell, ChaosFigureId, ChaosReport, Figure, FigureId, Series, StreamCell, StreamGrid,
        StreamReport, Sweep, SweepBuilder, SweepError, TenantCell, TenantPolicyStats, TenantReport,
        TreePolicy,
    };
    pub use optimcast_topology::cube::CubeNetwork;
    pub use optimcast_topology::graph::{ChannelId, HostId, LinkId, SwitchId};
    pub use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
    pub use optimcast_topology::ordering::{cco, dimension_ordered, Ordering};
    pub use optimcast_topology::Network;

    pub use crate::analysis::schedule_conflicts;
    pub use crate::comm::Communicator;
}
