//! Static contention analysis of multicast schedules on routed networks.
//!
//! Bridges the analytic step schedules of `optimcast-core` with the channel
//! model of `optimcast-topology`: for every step of a schedule, count pairs
//! of simultaneously active transmissions whose routes share a directed
//! channel ([`concurrent_conflicts`] over that step's sends). A *depth contention-free* tree embedding (paper §4.3.2) has zero
//! such pairs; the count quantifies how far an ordering/tree combination
//! falls short, independent of the event-driven simulator.

use optimcast_core::schedule::Schedule;
use optimcast_topology::contention::concurrent_conflicts;
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;

/// Per-step and aggregate conflict counts for a schedule embedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// Conflicting transmission pairs per step (index 0 = step 1).
    pub per_step: Vec<u64>,
    /// Total conflicting pairs over all steps.
    pub total: u64,
    /// Steps with at least one conflict.
    pub dirty_steps: u32,
}

impl ConflictReport {
    /// True if the embedding is depth contention-free.
    pub fn is_contention_free(&self) -> bool {
        self.total == 0
    }
}

/// Counts channel conflicts between same-step sends of `schedule`, with tree
/// ranks bound to hosts by `binding` (rank `i` runs on `binding[i]`).
///
/// # Panics
///
/// Panics if the binding is shorter than the schedule's participant count.
pub fn schedule_conflicts<N: Network>(
    net: &N,
    schedule: &Schedule,
    binding: &[HostId],
) -> ConflictReport {
    assert!(
        binding.len() >= schedule.participants(),
        "binding must cover every participant"
    );
    let mut per_step = vec![0u64; schedule.total_steps() as usize];
    // Events are sorted by step, so each chunk is one step's sends.
    for sends in schedule.events().chunk_by(|a, b| a.step == b.step) {
        let transfers: Vec<(HostId, HostId)> = sends
            .iter()
            .map(|e| (binding[e.from.index()], binding[e.to.index()]))
            .collect();
        per_step[(sends[0].step - 1) as usize] = concurrent_conflicts(net, &transfers);
    }
    let total = per_step.iter().sum();
    let dirty_steps = per_step.iter().filter(|&&c| c > 0).count() as u32;
    ConflictReport {
        per_step,
        total,
        dirty_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::builders::binomial_tree;
    use optimcast_core::schedule::fpfs_schedule;
    use optimcast_topology::cube::CubeNetwork;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
    use optimcast_topology::ordering::{cco, Ordering};

    #[test]
    fn hypercube_binomial_is_contention_free() {
        // The classic TPDS'94 embedding: binomial tree on the id-ordered
        // hypercube with e-cube routing never shares a channel in a step.
        let net = CubeNetwork::new(2, 4);
        let tree = binomial_tree(16);
        let binding: Vec<HostId> = (0..16).map(HostId).collect();
        for m in [1u32, 4] {
            let report = schedule_conflicts(&net, &fpfs_schedule(&tree, m), &binding);
            assert!(report.is_contention_free(), "m={m}: {report:?}");
        }
    }

    #[test]
    fn cco_no_worse_than_random_on_irregular() {
        let mut cco_total = 0u64;
        let mut rnd_total = 0u64;
        for seed in 0..5u64 {
            let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
            let tree = binomial_tree(64);
            let sched = fpfs_schedule(&tree, 4);
            let c = cco(&net);
            cco_total += schedule_conflicts(&net, &sched, c.hosts()).total;
            let r = Ordering::random(64, seed + 1000);
            rnd_total += schedule_conflicts(&net, &sched, r.hosts()).total;
        }
        assert!(
            cco_total <= rnd_total,
            "CCO {cco_total} conflicts vs random {rnd_total}"
        );
    }

    #[test]
    fn per_step_sums_to_total() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 3);
        let tree = binomial_tree(64);
        let sched = fpfs_schedule(&tree, 2);
        let binding: Vec<HostId> = (0..64).map(HostId).collect();
        let report = schedule_conflicts(&net, &sched, &binding);
        assert_eq!(report.per_step.iter().sum::<u64>(), report.total);
        assert_eq!(report.per_step.len(), sched.total_steps() as usize);
        assert_eq!(
            report.per_step.iter().filter(|&&c| c > 0).count() as u32,
            report.dirty_steps
        );
    }
}
