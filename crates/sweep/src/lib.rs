//! Deterministic parallel sweep engine for the paper's evaluation (§5).
//!
//! The crate reproduces the paper's figures by sweeping `(topology,
//! destination set, message size)` grids through the wormhole simulator,
//! with three guarantees the historic serial runner could not give at once:
//!
//! * **Determinism under parallelism** — the unit of work is one
//!   `(point, topology)` cell; cells are self-scheduled across a
//!   `std::thread::scope` worker pool, results land in index-addressed
//!   slots, and every floating-point reduction runs in a fixed order. The
//!   output is bit-identical for every thread count, pinned by golden tests
//!   against the committed `results/*.json`.
//! * **Memoized construction** — random topologies (with their up\*/down\*
//!   routing tables and CCO orderings) and k-binomial tree arenas are built
//!   once per sweep and shared behind [`Arc`](std::sync::Arc)s; the
//!   simulator borrows them without cloning.
//! * **Validated configuration** — [`SweepBuilder`] is the only route to a
//!   [`SweepConfig`], so invalid sample counts or network shapes are
//!   [`SweepError`]s at build time, not panics mid-sweep.
//!
//! ```
//! use optimcast_sweep::{FigureId, SweepBuilder, TreePolicy};
//!
//! let sweep = SweepBuilder::quick().parallelism(2).build().unwrap();
//! let fig13a = sweep.figure(FigureId::Fig13a).unwrap();
//! assert_eq!(fig13a.series.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ablations;
mod chaos;
mod chaos_arq;
mod chaos_figures;
mod compare;
mod config;
mod engine;
mod error;
mod figure;
mod figures;
mod json;
mod mega;
mod memo;
mod sampling;
mod streaming;
mod tenants;

pub use ablations::{
    ablation_contention, ablation_cube, ablation_fpfs_fcfs, ablation_ordering, collectives,
    multi_multicast, param_model,
};
pub use chaos::{ChaosCell, ChaosReport};
pub use chaos_arq::{ArqCell, ArqReport};
pub use compare::{mega_digest_check, mega_rate_checks, DigestCheck, DigestMismatch, RateCheck};
pub use config::{SweepBuilder, SweepConfig};
pub use engine::{PointSpec, SimEffort, Sweep};
pub use error::SweepError;
pub use figure::{Figure, FigureId, Series};
pub use figures::{buffer_figure, fig12a, fig12b, fig4, fig5, fig8, fig_disciplines};
pub use json::{Json, JsonError, ToJson};
pub use mega::{
    bench_mega, MegaBenchReport, MegaPoint, MEGA_M, MEGA_QUICK_SIZES, MEGA_SETUP_BUDGET_BYTES,
    MEGA_SIZES,
};
pub use memo::{CacheStats, TopologyEntry};
pub use optimcast_netsim::FaultPlanSpec;
pub use sampling::{
    m_axis, sample_chain, sample_instance, Instance, TreePolicy, DEST_COUNTS, M_SWEEP, N_SWEEP,
    PACKET_COUNTS,
};
pub use streaming::{StreamCell, StreamGrid, StreamReport};
pub use tenants::{TenantCell, TenantPolicyStats, TenantReport};
