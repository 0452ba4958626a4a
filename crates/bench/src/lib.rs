//! # optimcast-bench
//!
//! Criterion microbenchmarks of the simulator hot path, in the
//! `benches/sim_hotpath.rs` target: event-queue churn and single
//! `SimRun` multicasts with and without an interned route table. Every
//! number the evaluation quotes comes from `optimcast figures` goldens
//! instead; end-to-end timings come from the perfbench package.
