//! The four workloads and what they share.
//!
//! Every workload is a closed-loop batch job in one process. An untraced
//! pass drives it through the library's composite public calls and checks
//! every output against a pin; the traced replay re-drives the same inputs
//! through the lower public calls, inside spans, and must reproduce the
//! composite's outputs bit for bit.

pub mod arq;
pub mod fabric;
pub mod paper;
pub mod stream;

use crate::ledger::Ledger;
use crate::trace::Tracer;
use optimcast_sweep::{CacheStats, Sweep, SweepBuilder};
use optimcast_topology::irregular::IrregularNetwork;
use optimcast_topology::ordering::{cco, Ordering};

/// Outcome of one pass over a workload's items.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Items attempted: multicasts, frames, or the one fabric multicast.
    pub items: u64,
    /// Items whose run returned `Err` or whose output missed its pin.
    pub failed: u64,
    /// Receiver-packet deliveries of the items that passed: one
    /// destination receiving one packet counts once.
    pub deliveries: u64,
    /// The modelled latency the workload charts (simulated µs).
    pub sim_latency_us: f64,
    /// Timing-free digest of every output, folded in item-index order so it
    /// does not depend on the order the seed picked.
    pub digest: u64,
    /// Simulated events processed.
    pub events: u64,
    /// Memo-cache counters of the sweep engine, where one ran.
    pub cache: Option<CacheStats>,
}

/// The reference an output must equal.
#[derive(Debug, Clone, Copy)]
pub enum Pin {
    /// A committed file, byte for byte.
    Text(&'static str),
    /// The FNV-1a digest of the rendered output, recorded at the commit
    /// that defined the benchmark.
    Fnv(u64),
}

impl Pin {
    pub fn matches(&self, text: &str) -> bool {
        match *self {
            Pin::Text(expected) => text == expected,
            Pin::Fnv(digest) => crate::stats::fnv_text(text) == digest,
        }
    }

    /// A pin no output can meet (for the self-test).
    #[cfg(test)]
    pub fn perturbed(self) -> Pin {
        match self {
            Pin::Text(_) => Pin::Fnv(0),
            Pin::Fnv(d) => Pin::Fnv(d ^ 1),
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one pass runs on.
    type Inputs;
    /// Worker threads of the composite calls.
    fn workers(&self) -> usize;
    /// The same workload at another worker count; outputs are identical at
    /// any count.
    fn with_workers(&self, workers: usize) -> Self;
    /// Builds the inputs of one pass; this is what `setup_s` times.
    fn setup(&self) -> Self::Inputs;
    /// True when a pass fills caches in its inputs, so every pass needs
    /// fresh ones.
    fn fresh_inputs_per_pass(&self) -> bool;
    /// Items of a pass; the seed permutes the order they run in.
    fn items(&self) -> usize;
    /// One untraced pass through the composite public calls, in `order`,
    /// with every output checked against its pin.
    fn pass(&self, inputs: &Self::Inputs, order: &[usize]) -> Pass;
    /// One traced pass through the lower public calls. Opens the roots
    /// `bench.setup` (building what [`Self::setup`] builds) and
    /// `bench.pass` (the work [`Self::pass`] times).
    fn replay(&self, order: &[usize], tr: &mut Tracer, ledger: &mut Ledger) -> Pass;
}

/// The order items run in on pass `pass` of a run with `seed`: a
/// Fisher-Yates shuffle driven by SplitMix64.
pub fn item_order(items: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..items).collect();
    for i in (1..items).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Worker threads a sweep workload's builder configures.
pub fn sweep_workers(builder: &SweepBuilder) -> usize {
    builder.config().map_or(1, |cfg| cfg.threads())
}

/// The set-up of the sweep workloads: a sweep with its topologies built
/// and every other memo cache empty.
pub fn fresh_sweep(builder: &SweepBuilder) -> Sweep {
    let sweep = builder.build().expect("the sweep methodology is valid");
    for t in 0..sweep.config().topologies() {
        sweep.topology(t);
    }
    sweep
}

/// The replayed set-up of the sweep workloads, inside a `bench.setup`
/// root: a fresh sweep (for its tree memo) and its random topologies with
/// their CCO orderings, generated as the memo layer does, one
/// `topology.irregular_gen` span each.
pub fn replay_sweep_setup(
    builder: &SweepBuilder,
    tr: &mut Tracer,
) -> (Sweep, Vec<(IrregularNetwork, Ordering)>) {
    let setup = tr.enter("bench.setup", 0);
    let sweep = builder.build().expect("the sweep methodology is valid");
    let cfg = *sweep.config();
    let topologies = (0..cfg.topologies())
        .map(|t| {
            tr.leaf("topology.irregular_gen", u64::from(t), || {
                let net = IrregularNetwork::generate(cfg.net(), cfg.topology_seed(t));
                let ordering = cco(&net);
                (net, ordering)
            })
        })
        .collect();
    tr.exit(setup);
    (sweep, topologies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_order_is_a_seeded_permutation() {
        let a = item_order(27, 5, 0);
        assert_eq!(a, item_order(27, 5, 0));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..27).collect::<Vec<_>>());
        assert_ne!(a, item_order(27, 6, 0));
        assert_ne!(a, item_order(27, 5, 1));
    }
}
