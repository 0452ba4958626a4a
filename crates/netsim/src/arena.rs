//! Reusable simulator state for many runs in a row.
//!
//! A sweep cell runs dozens of small simulations and a stream runs one per
//! membership epoch; each used to build its host table, event queue,
//! channel table, per-rank state and metric vectors from scratch and free
//! them on return. A [`SimArena`] keeps that storage between runs:
//! [`SimRun::run_into`](crate::workload::SimRun::run_into) lends it to one
//! run, which resets every part to the state a fresh run starts from, and
//! takes it back when the run ends — on success and on error alike. A run
//! over a warm arena of the same shape that writes over a kept outcome
//! allocates nothing (`crates/netsim/tests/zero_alloc.rs` pins it). A stream's
//! route storage ([`EpochRoutes`]) lives here too, so the streams of one
//! sweep work item share one hop table and BFS state.
//!
//! The arena changes no result: every run starts from exactly the state
//! [`SimRun::run`](crate::workload::SimRun::run) builds afresh, which is a
//! run over a new arena. Its memory is bounded by the largest run it served:
//! the send queues and the in-flight send slots of all hosts each share one
//! slab (see `host.rs`), so a reused arena holds no queue or slot capacity
//! per host that ever sent.

use crate::engine::EventQueue;
use crate::event::Ev;
use crate::host::HostModel;
use crate::observe::{MetricsCollector, SimCounters};
use crate::routes::{EpochRoutes, JobRoutes};
use crate::simulation::{Forwarding, PartState};
use crate::time::SimTime;
use std::fmt;
use std::sync::Arc;

/// Storage one simulation run borrows and hands back; see the module docs.
///
/// ```ignore
/// let (mut arena, mut out) = (SimArena::new(), WorkloadOutcome::default());
/// for job in &jobs {
///     SimRun::new(&net, std::slice::from_ref(job), &params, config)
///         .run_into(&mut arena, &mut out)?;
/// }
/// ```
#[derive(Default)]
pub struct SimArena {
    pub(crate) hosts: HostModel,
    pub(crate) queue: EventQueue<Ev>,
    /// The channel manager's per-channel free times.
    pub(crate) channels: Vec<SimTime>,
    pub(crate) parts: Vec<Vec<PartState>>,
    pub(crate) copies_left: Vec<Vec<u16>>,
    /// Empty between runs, so the tables a caller passed are not kept
    /// alive (or shared) after the run returns.
    pub(crate) routes: Vec<Arc<JobRoutes>>,
    /// Empty between runs, for the same reason as `routes`.
    pub(crate) forwarding: Vec<Forwarding>,
    pub(crate) metrics: MetricsCollector,
    pub(crate) counters: SimCounters,
    /// Validation scratch: the hosts one job's binding has named.
    pub(crate) seen: Vec<bool>,
    /// A stream's route storage (hop table, BFS state, table buffers),
    /// lent to each [`StreamRun::run_in`](crate::StreamRun::run_in) and
    /// returned when the stream ends; `None` until a stream used it.
    pub(crate) epoch_routes: Option<EpochRoutes>,
}

impl SimArena {
    /// An empty arena; the first run through it sizes its storage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl fmt::Debug for SimArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimArena")
            .field("channels", &self.channels.len())
            .field("jobs", &self.parts.len())
            .finish_non_exhaustive()
    }
}

/// Reshapes `rows` to one row per entry of `lens`, each row `len` copies
/// of `fill`, reusing the rows' storage.
pub(crate) fn refill<T: Clone>(rows: &mut Vec<Vec<T>>, lens: impl Iterator<Item = usize>, fill: T) {
    let mut used = 0;
    for len in lens {
        if used == rows.len() {
            rows.push(Vec::new());
        }
        let row = &mut rows[used];
        row.clear();
        row.resize(len, fill.clone());
        used += 1;
    }
    rows.truncate(used);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_reshapes_in_place() {
        let mut rows = vec![vec![7u32; 4], vec![7; 9], vec![7; 2]];
        let first = rows[0].as_ptr();
        refill(&mut rows, [3usize, 1].into_iter(), 0);
        assert_eq!(rows, vec![vec![0, 0, 0], vec![0]]);
        assert_eq!(rows[0].as_ptr(), first, "a row that fits keeps its storage");
        refill(&mut rows, [0usize, 2, 1].into_iter(), 5);
        assert_eq!(rows, vec![vec![], vec![5, 5], vec![5]]);
    }
}
