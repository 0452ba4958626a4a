//! # optimcast-netsim
//!
//! Discrete-event simulator for packetized multicast over switch-based
//! wormhole networks with network-interface support — the experimental
//! apparatus of the paper's §5.
//!
//! The simulator models, per participating node:
//!
//! * a **host processor** with software overheads `t_s` (send start-up) and
//!   `t_r` (receive) — involved per *message*, and per *copy* under the
//!   conventional NI;
//! * a **network interface** with an independent send unit (`t_send` per
//!   packet copy) and receive unit (`t_recv` per packet), a send queue, and
//!   a packet buffer whose occupancy is tracked;
//! * the **forwarding engine**: conventional (host forwards),
//!   smart-FCFS, or smart-FPFS (paper §2–§3);
//! * the **network**: every transmission follows the topology's
//!   deterministic route and, under [`sim::ContentionMode::Wormhole`],
//!   must hold every directed channel of that route exclusively — a blocked
//!   head stalls the sending NI (wormhole back-pressure).
//!
//! In the paper's step model successive sends from one NI are one *step*
//! (`t_send + t_prop + t_recv`) apart; the simulator reproduces this with a
//! synchronous NI handshake (the send unit is released when the receiving NI
//! finishes receiving the packet), so with contention disabled its latencies
//! match the analytic model of `optimcast-core` *exactly* — a cross-check
//! the integration tests enforce. The overlapped mode
//! ([`sim::NiTiming::Overlapped`]) relaxes this for ablation.

pub mod alloc;
pub mod arq;
pub mod bytes;
mod channel;
mod discipline;
pub mod engine;
pub mod error;
mod event;
pub mod fault;
mod host;
pub mod observe;
pub mod packet;
pub mod routes;
pub mod scheduler;
pub mod sim;
mod simulation;
pub mod stream;
pub mod time;
pub mod transport;
pub mod workload;

pub use alloc::CountingAlloc;
pub use arq::{coalesce_missing, NiModel};
pub use error::SimError;
pub use fault::{FaultKind, FaultPlan, FaultPlanSpec, HostCrash, LinkFailure, RepairPolicy};
pub use observe::{Observer, SimCounters};
pub use routes::JobRoutes;
pub use scheduler::{
    AdmissionRequest, ContentionAware, FifoAdmission, InFlight, JobScheduler, JobStats,
    ScheduledOutcome, ScheduledRun,
};
pub use sim::{run_multicast, ContentionMode, MulticastOutcome, NiTiming, NicKind, RunConfig};
pub use stream::{
    churn_plan, ChurnEvent, FrameFate, FrameRecord, ReceiverStats, StreamError, StreamOutcome,
    StreamRun, StreamSpec,
};
pub use time::SimTime;
pub use transport::{
    Delivery, LinkContext, PacketView, SimTransport, Transport, TransportError, TransportResult,
};
pub use workload::{
    JobPayload, MulticastJob, PersonalizedOrder, SimRun, TraceKind, TraceRecord, WorkloadConfig,
    WorkloadOutcome,
};
