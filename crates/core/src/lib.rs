//! # optimcast-core
//!
//! Core algorithms from *"Optimal Multicast with Packetization and Network
//! Interface Support"* (Ram Kesavan and Dhabaleswar K. Panda, ICPP 1997).
//!
//! Modern networks packetize long messages and provide a programmable
//! network interface (NI) at every node. With *smart* NI support the NI
//! coprocessor — not the host — forwards multicast packet replicas, and a
//! packet can be forwarded as soon as it arrives, independent of the rest of
//! the message. Under the *First-Packet-First-Served* (FPFS) forwarding
//! discipline the completion time of an `m`-packet multicast over a tree `T`
//! is
//!
//! ```text
//! T_total = t1(T) + (m - 1) * k_T        (steps)
//! ```
//!
//! where `t1` is the single-packet completion step count and `k_T` the number
//! of children of the root (paper Theorems 1 and 2). The tree minimising this
//! is the **k-binomial tree** — a recursively doubling tree in which every
//! vertex has at most `k` children — for the best `k ∈ [1, ⌈log₂ n⌉]`
//! (Theorem 3).
//!
//! This crate provides:
//!
//! * [`mod@coverage`] — the coverage function `N(s, k)` (Lemma 1) and its
//!   inverse, the minimum step count `t1(n, k)`;
//! * [`optimal`] — the optimal-`k` solver and the precomputed
//!   [`optimal::OptimalKTable`] of §4.3.1;
//! * [`tree`] — the multicast-tree arena used everywhere else;
//! * [`builders`] — linear, binomial, and k-binomial tree construction on a
//!   (contention-free) ordering of the participants, per the paper's Fig. 11;
//! * [`schedule`] — exact per-step send schedules for FPFS and FCFS smart-NI
//!   forwarding, from which the paper's Figs. 5 and 8 are regenerated;
//! * [`latency`] — analytic latency in microseconds for conventional and
//!   smart network interfaces;
//! * [`buffer`] — the §3.3.2 buffer-occupancy comparison of FCFS vs. FPFS;
//! * [`params`] — the system parameters used throughout the paper's §5.
//!
//! ## Quick example
//!
//! ```
//! use optimcast_core::prelude::*;
//!
//! // 64 participants (1 source + 63 destinations), 8-packet message.
//! let opt = optimal_k(64, 8);
//! assert_eq!(opt.k, 2);                      // paper Fig. 12(b)
//! let tree = kbinomial_tree(64, opt.k);
//! let sched = fpfs_schedule(&tree, 8);
//! assert_eq!(u64::from(sched.total_steps()), opt.steps);
//! ```

pub mod buffer;
pub mod builders;
pub mod coverage;
pub mod latency;
pub mod membership;
pub mod optimal;
pub mod param_model;
pub mod params;
pub mod schedule;
pub mod tree;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::buffer::{fcfs_buffer_steps, fpfs_buffer_steps, BufferAnalysis};
    pub use crate::builders::{binomial_tree, kbinomial_tree, linear_tree, TreeKind};
    pub use crate::coverage::{coverage, min_steps, MAX_K};
    pub use crate::latency::{
        conventional_latency_us, degraded_smart_latency_us, smart_latency_us, LatencyModel,
    };
    pub use crate::membership::{Membership, MembershipError};
    pub use crate::optimal::{optimal_k, total_steps, OptimalK, OptimalKTable};
    pub use crate::param_model::{optimal_k_param, param_schedule, ParamModel, ParamOptimal};
    pub use crate::params::SystemParams;
    pub use crate::schedule::{
        fcfs_schedule, fpfs_schedule, ForwardingDiscipline, Schedule, SendEvent,
    };
    pub use crate::tree::{MulticastTree, Rank, RepairError, TreeRepair};
}

pub use prelude::*;
