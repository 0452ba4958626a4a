//! # optimcast-bench
//!
//! Criterion microbenchmarks of the analytic figures, the ablations and the
//! simulator hot path. The content lives in the `benches/` targets, which
//! drive the APIs exported by the umbrella `optimcast` crate; the simulated
//! Figs. 13–14 sweeps are timed end to end by the perfbench package.
