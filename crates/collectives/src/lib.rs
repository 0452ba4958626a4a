//! # optimcast-collectives
//!
//! Collective communication operations under packetization and smart
//! network-interface support — the ICPP'97 paper closes by calling the
//! design of "optimal algorithms for other collective communication
//! operations with such packetization and network interface support"
//! future work (§7); this crate builds them on the same foundations:
//!
//! * [`mod@broadcast`] — multicast to all participants, optimal k-binomial tree,
//!   with both the analytic model and end-to-end execution on the
//!   `optimcast-netsim` simulator;
//! * [`scatter`] — personalized per-destination blocks forwarded down a
//!   tree, with an exact per-packet step schedule and a send-order policy
//!   study (own-block-first vs deepest-first);
//! * [`gather`] — the time-reversed dual of scatter (equal completion time
//!   by schedule reversal, which the tests verify numerically);
//! * [`allgather`] — ring vs recursive-doubling under the parameterized
//!   model, with the latency/bandwidth crossover;
//! * [`reduce`] — reduction over k-binomial trees with per-packet combining
//!   cost, the mirror image of FPFS multicast;
//! * [`barrier`] — dissemination barrier in the step model.
//!
//! All step/time models use the same `optimcast-core` primitives (trees,
//! `N(s,k)`, the parameterized model), so the multicast results of the
//! paper and these extensions are directly comparable.

pub mod allgather;
pub mod barrier;
pub mod broadcast;
pub mod gather;
pub mod reduce;
pub mod scatter;

pub use allgather::{
    allgather_latency_us, allgather_recursive_doubling_us, allgather_ring_us, allgather_us,
    AllgatherAlgo,
};
pub use barrier::{barrier_partners, barrier_rounds, barrier_us};
pub use broadcast::{broadcast, broadcast_latency_us};
pub use gather::{gather_schedule, GatherEvent, GatherSchedule};
pub use reduce::{optimal_reduce_k, reduce_latency_us, reduce_plan, ReducePlan};
pub use scatter::{
    scatter_schedule, scatter_schedule_with_hops, OrderPolicy, ScatterHop, ScatterSchedule,
};
