//! `paper_sweep`: the four simulated figures of the paper's §5 (Figs. 13a,
//! 13b, 14a, 14b) at `SweepBuilder::paper()` — 10 topologies × 30
//! destination sets, 48,000 multicasts on 64 hosts — with two workers.
//! Every pass starts from a fresh sweep (topologies built, memo caches
//! empty); each figure is one item.

use super::{fresh_sweep, replay_sweep_setup, sweep_workers, Pass, Pin, Workload};
use crate::ledger::{HookCounter, Ledger};
use crate::stats::{fnv_text, Fnv};
use crate::trace::Tracer;
use optimcast_core::optimal::optimal_k;
use optimcast_netsim::{JobPayload, JobRoutes, MulticastJob, SimRun, WorkloadConfig};
use optimcast_sweep::{
    m_axis, sample_chain, Figure, FigureId, PointSpec, Sweep, SweepBuilder, ToJson, TreePolicy,
    DEST_COUNTS, N_SWEEP, PACKET_COUNTS,
};
use optimcast_topology::graph::HostId;
use std::collections::HashMap;
use std::sync::Arc;

const FIGURES: [FigureId; 4] = [
    FigureId::Fig13a,
    FigureId::Fig13b,
    FigureId::Fig14a,
    FigureId::Fig14b,
];

/// The paper sweep and the reference each figure must equal.
pub struct PaperSweep {
    builder: SweepBuilder,
    pins: [Pin; 4],
}

impl PaperSweep {
    /// The paper's methodology, pinned to the committed figure goldens.
    pub fn full() -> Self {
        PaperSweep {
            builder: SweepBuilder::paper().parallelism(2),
            pins: [
                Pin::Text(include_str!("../../../results/fig13a.json")),
                Pin::Text(include_str!("../../../results/fig13b.json")),
                Pin::Text(include_str!("../../../results/fig14a.json")),
                Pin::Text(include_str!("../../../results/fig14b.json")),
            ],
        }
    }

    /// The quick methodology (2 topologies × 3 destination sets).
    #[cfg(test)]
    pub fn tiny() -> Self {
        PaperSweep {
            builder: SweepBuilder::quick().parallelism(2),
            pins: [
                Pin::Fnv(0xfbc0_1fd3_32fb_f39e),
                Pin::Fnv(0x7af9_0086_e7c3_a5c9),
                Pin::Fnv(0x7231_aa05_9295_89e0),
                Pin::Fnv(0xcff8_ae55_3fdd_ad8f),
            ],
        }
    }

    #[cfg(test)]
    pub fn with_pins(mut self, pins: [Pin; 4]) -> Self {
        self.pins = pins;
        self
    }

    #[cfg(test)]
    pub fn pins(&self) -> [Pin; 4] {
        self.pins
    }
}

/// Figure `id`'s points, series by series, as `Sweep::figure` lays them
/// out: `(x, spec)`.
fn figure_grid(id: FigureId) -> Vec<Vec<(f64, PointSpec)>> {
    let (bin, opt) = (TreePolicy::Binomial, TreePolicy::OptimalKBinomial);
    let by_m = |policy: TreePolicy, dests: u32| -> Vec<(f64, PointSpec)> {
        m_axis()
            .into_iter()
            .map(|m| (f64::from(m), PointSpec::new(policy, dests, m)))
            .collect()
    };
    let by_n = |policy: TreePolicy, m: u32| -> Vec<(f64, PointSpec)> {
        N_SWEEP
            .iter()
            .map(|&n| (f64::from(n), PointSpec::new(policy, n - 1, m)))
            .collect()
    };
    match id {
        FigureId::Fig13a => DEST_COUNTS.iter().map(|&d| by_m(opt, d)).collect(),
        FigureId::Fig13b => PACKET_COUNTS.iter().rev().map(|&m| by_n(opt, m)).collect(),
        FigureId::Fig14a => [47, 15]
            .iter()
            .flat_map(|&d| [bin, opt].map(|p| by_m(p, d)))
            .collect(),
        FigureId::Fig14b => [8, 2]
            .iter()
            .flat_map(|&m| [bin, opt].map(|p| by_n(p, m)))
            .collect(),
        _ => unreachable!("paper_sweep runs the simulated figures only"),
    }
}

/// `(multicasts, receiver-packet deliveries)` of one figure's grid.
fn grid_load(grid: &[Vec<(f64, PointSpec)>], samples: u64) -> (u64, u64) {
    grid.iter()
        .flatten()
        .fold((0, 0), |(multicasts, deliveries), (_, spec)| {
            (
                multicasts + samples,
                deliveries + samples * u64::from(spec.dests) * u64::from(spec.m),
            )
        })
}

/// Canonical tree shape of a policy at `(n, m)`, the key the sweep's memo
/// layer interns route tables under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Linear,
    Binomial,
    KBinomial(u32),
}

fn shape_of(policy: TreePolicy, n: u32, m: u32) -> Shape {
    match policy {
        TreePolicy::Linear => Shape::Linear,
        TreePolicy::Binomial => Shape::Binomial,
        TreePolicy::OptimalKBinomial => Shape::KBinomial(optimal_k(u64::from(n), m).k),
        TreePolicy::FixedK(k) => Shape::KBinomial(k),
    }
}

/// Folds the figures' `(x, y)` values (in figure-index order) into the
/// pass digest, and their mean latency into `sim_latency_us`.
fn finish(pass: &mut Pass, values: &[Vec<(f64, f64)>; 4]) {
    let mut digest = Fnv::default();
    let (mut sum, mut count) = (0.0, 0u32);
    for &(x, y) in values.iter().flatten() {
        digest.word(x.to_bits());
        digest.word(y.to_bits());
        sum += y;
        count += 1;
    }
    pass.digest = digest.finish();
    pass.sim_latency_us = if count > 0 {
        sum / f64::from(count)
    } else {
        0.0
    };
}

fn points(fig: &Figure) -> Vec<(f64, f64)> {
    fig.series.iter().flat_map(|s| s.points.clone()).collect()
}

impl Workload for PaperSweep {
    type Inputs = Sweep;

    fn workers(&self) -> usize {
        sweep_workers(&self.builder)
    }

    fn with_workers(&self, workers: usize) -> Self {
        PaperSweep {
            builder: self.builder.parallelism(workers),
            pins: self.pins,
        }
    }

    fn setup(&self) -> Sweep {
        fresh_sweep(&self.builder)
    }

    fn fresh_inputs_per_pass(&self) -> bool {
        true
    }

    fn items(&self) -> usize {
        FIGURES.len()
    }

    fn pass(&self, sweep: &Sweep, order: &[usize]) -> Pass {
        let samples = u64::from(sweep.config().samples());
        let mut pass = Pass::default();
        let mut values: [Vec<(f64, f64)>; 4] = Default::default();
        for &i in order {
            let (multicasts, deliveries) = grid_load(&figure_grid(FIGURES[i]), samples);
            pass.items += multicasts;
            let figure = sweep.figure(FIGURES[i]);
            match figure.map(|fig| (fig.to_json().to_string_pretty(), fig)) {
                Ok((text, fig)) if self.pins[i].matches(&text) => {
                    pass.deliveries += deliveries;
                    values[i] = points(&fig);
                }
                Ok((text, _)) => {
                    eprintln!(
                        "# {} missed its pin: digest {:016x}",
                        FIGURES[i],
                        fnv_text(&text)
                    );
                    pass.failed += multicasts;
                }
                Err(e) => {
                    eprintln!("# {} failed: {e}", FIGURES[i]);
                    pass.failed += multicasts;
                }
            }
        }
        finish(&mut pass, &values);
        pass.events = sweep.sim_effort().events_processed;
        pass.cache = Some(sweep.cache_stats());
        pass
    }

    fn replay(&self, order: &[usize], tr: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let (sweep, topologies) = replay_sweep_setup(&self.builder, tr);
        let cfg = *sweep.config();

        let root = tr.enter("bench.pass", 0);
        let samples = u64::from(cfg.samples());
        let mut chains: HashMap<(u32, u32, u32), Arc<Vec<HostId>>> = HashMap::new();
        let mut routes: HashMap<(u32, u32, u32, Shape), Arc<JobRoutes>> = HashMap::new();
        let mut pass = Pass::default();
        let mut values: [Vec<(f64, f64)>; 4] = Default::default();
        let mut item = 0u64;
        for &i in order {
            let figure = tr.enter("bench.figure", i as u64);
            let grid = figure_grid(FIGURES[i]);
            let (multicasts, deliveries) = grid_load(&grid, samples);
            pass.items += multicasts;
            let mut ok = true;
            let mut ys = Vec::new();
            for &(x, spec) in grid.iter().flatten() {
                let mut per_topology = Vec::with_capacity(topologies.len());
                for (t, (net, ordering)) in (0u32..).zip(&topologies) {
                    let mut latencies = Vec::with_capacity(cfg.dest_sets() as usize);
                    for s in 0..cfg.dest_sets() {
                        item += 1;
                        let chain =
                            Arc::clone(chains.entry((t, s, spec.dests)).or_insert_with(|| {
                                tr.leaf("sweep.sample_chain", item, || {
                                    Arc::new(sample_chain(
                                        net,
                                        ordering,
                                        cfg.set_seed(t, s),
                                        spec.dests,
                                    ))
                                })
                            }));
                        let n = chain.len() as u32;
                        let (tree, shape) = tr.leaf("core.tree_build", item, || {
                            (
                                sweep.tree(spec.policy, n, spec.m),
                                shape_of(spec.policy, n, spec.m),
                            )
                        });
                        let table = Arc::clone(
                            routes.entry((t, s, spec.dests, shape)).or_insert_with(|| {
                                let built = tr.leaf("routes.build", item, || {
                                    JobRoutes::build(net, &tree, &chain)
                                });
                                ledger.routes_built(&built);
                                Arc::new(built)
                            }),
                        );
                        let mut hooks = HookCounter::default();
                        let run = tr.leaf("netsim.sim", item, || {
                            let job = MulticastJob {
                                tree,
                                binding: chain.to_vec(),
                                packets: spec.m,
                                start_us: 0.0,
                                nic: spec.run.nic,
                                payload: JobPayload::Replicated,
                            };
                            let config = WorkloadConfig {
                                contention: spec.run.contention,
                                timing: spec.run.timing,
                                ..WorkloadConfig::default()
                            };
                            SimRun::new(net, std::slice::from_ref(&job), cfg.params(), config)
                                .routes(vec![table])
                                .observer(&mut hooks)
                                .run()
                        });
                        match run {
                            Ok(out) => {
                                ledger.sim_ran(&out.counters, hooks.hooks);
                                pass.events += out.events;
                                latencies.push(out.jobs[0].latency_us);
                            }
                            Err(_) => {
                                ledger.failed_runs += 1;
                                ok = false;
                            }
                        }
                    }
                    per_topology.push(latencies.iter().sum::<f64>() / f64::from(cfg.dest_sets()));
                }
                ys.push((
                    x,
                    per_topology.iter().sum::<f64>() / topologies.len() as f64,
                ));
            }
            if ok {
                pass.deliveries += deliveries;
                values[i] = ys;
            } else {
                pass.failed += multicasts;
            }
            tr.exit(figure);
        }
        finish(&mut pass, &values);
        tr.exit(root);
        pass
    }
}
