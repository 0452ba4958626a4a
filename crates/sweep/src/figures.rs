//! Every figure of the paper as data: analytic figures as free functions,
//! simulated figures as grid sweeps on the [`Sweep`] engine.
//!
//! Methodology reproduced from §5.2: for each data point the multicast
//! latency is averaged over `dest_sets` random destination sets on each of
//! `topologies` random irregular switch topologies (paper: 30 × 10), using
//! CCO as the base ordering, on a 64-host/16-switch/8-port network with
//! `t_s = t_r = 12.5 µs`, 64-byte packets, `t_send = 3 µs`, `t_recv = 2 µs`.

use crate::ablations::{
    ablation_contention, ablation_cube, ablation_fpfs_fcfs, ablation_ordering, collectives,
    multi_multicast, param_model,
};
use crate::engine::{PointSpec, Sweep};
use crate::error::SweepError;
use crate::figure::{Figure, FigureId, Series};
use crate::sampling::{m_axis, TreePolicy, DEST_COUNTS, N_SWEEP, PACKET_COUNTS};
use optimcast_core::buffer::BufferAnalysis;
use optimcast_core::builders::{binomial_tree, linear_tree};
use optimcast_core::latency::{conventional_latency_us, smart_latency_us};
use optimcast_core::optimal::{optimal_k, optimal_k_fcfs};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::fpfs_schedule;
use optimcast_core::tree::MulticastTree;

/// Fig. 4: conventional vs smart NI, single-packet multicast to 3
/// destinations over the binomial tree (analytic; latency in µs).
pub fn fig4(params: &SystemParams) -> Figure {
    let tree = binomial_tree(4);
    let sched = fpfs_schedule(&tree, 1);
    Figure {
        id: "fig4".into(),
        title: "Conventional vs smart NI (binomial, 3 dest, 1 packet)".into(),
        x_label: "NI architecture".into(),
        y_label: "latency (us)".into(),
        series: vec![
            Series {
                label: "conventional".into(),
                points: vec![(0.0, conventional_latency_us(&tree, 1, params))],
            },
            Series {
                label: "smart".into(),
                points: vec![(1.0, smart_latency_us(&sched, params))],
            },
        ],
    }
}

/// Fig. 5: steps to multicast 3 packets to 3 destinations over the binomial
/// vs the linear tree (6 vs 5 steps) — the motivating counterexample.
pub fn fig5() -> Figure {
    let steps = |tree: &MulticastTree| f64::from(fpfs_schedule(tree, 3).total_steps());
    Figure {
        id: "fig5".into(),
        title: "Binomial vs linear tree, 3 packets to 3 destinations".into(),
        x_label: "tree".into(),
        y_label: "steps".into(),
        series: vec![
            Series {
                label: "binomial".into(),
                points: vec![(0.0, steps(&binomial_tree(4)))],
            },
            Series {
                label: "linear".into(),
                points: vec![(1.0, steps(&linear_tree(4)))],
            },
        ],
    }
}

/// Fig. 8: per-packet completion steps of a 3-packet multicast to 7
/// destinations over the binomial tree (pipelining with lag `k_T = 3`).
pub fn fig8() -> Figure {
    let sched = fpfs_schedule(&binomial_tree(8), 3);
    Figure {
        id: "fig8".into(),
        title: "Pipelined packet completions (binomial, 7 dest, 3 packets)".into(),
        x_label: "packet".into(),
        y_label: "completion step".into(),
        series: vec![Series {
            label: "completion".into(),
            points: (0..3)
                .map(|p| (f64::from(p + 1), f64::from(sched.packet_completion(p))))
                .collect(),
        }],
    }
}

/// §3.3.2: FCFS vs FPFS per-packet buffer residency (in `t_sq` units) as the
/// message length grows, for an intermediate node with `k` children.
pub fn buffer_figure(k: u32) -> Figure {
    let mut fcfs = Vec::new();
    let mut fpfs = Vec::new();
    for m in m_axis() {
        let a = BufferAnalysis::new(k, m);
        fcfs.push((f64::from(m), a.fcfs_residency as f64));
        fpfs.push((f64::from(m), a.fpfs_residency as f64));
    }
    Figure {
        id: "buffers".into(),
        title: format!("Buffer residency per packet, k = {k} children (t_sq units)"),
        x_label: "packets (m)".into(),
        y_label: "residency (t_sq)".into(),
        series: vec![
            Series {
                label: "FCFS".into(),
                points: fcfs,
            },
            Series {
                label: "FPFS".into(),
                points: fpfs,
            },
        ],
    }
}

/// Fig. 12(a): optimal `k` vs number of packets, for 15/31/47/63
/// destinations (analytic).
pub fn fig12a() -> Figure {
    let series = DEST_COUNTS
        .iter()
        .map(|&d| Series {
            label: format!("{d} dest"),
            points: m_axis()
                .into_iter()
                .map(|m| (f64::from(m), f64::from(optimal_k(u64::from(d) + 1, m).k)))
                .collect(),
        })
        .collect();
    Figure {
        id: "fig12a".into(),
        title: "Optimal k value for k-binomial tree (fixed n, varying m)".into(),
        x_label: "Number of packets (m)".into(),
        y_label: "Optimal k".into(),
        series,
    }
}

/// Fig. 12(b): optimal `k` vs multicast set size, for 1/2/4/8 packets
/// (analytic).
pub fn fig12b() -> Figure {
    let series = PACKET_COUNTS
        .iter()
        .map(|&m| Series {
            label: format!("{m} pkt{}", if m == 1 { "" } else { "s" }),
            points: (2..=64)
                .map(|n: u64| (n as f64, f64::from(optimal_k(n, m).k)))
                .collect(),
        })
        .collect();
    Figure {
        id: "fig12b".into(),
        title: "Optimal k value for k-binomial tree (fixed m, varying n)".into(),
        x_label: "Multicast set size (n)".into(),
        y_label: "Optimal k".into(),
        series,
    }
}

/// Extension figure: total steps at the per-discipline optimal `k` for
/// FPFS vs FCFS smart NIs across message lengths (the paper proves
/// optimality only under FPFS; this quantifies what FCFS leaves on the
/// table and where its optimum retreats to the chain).
pub fn fig_disciplines(n: u32) -> Figure {
    let mut fpfs = Vec::new();
    let mut fcfs = Vec::new();
    for m in m_axis() {
        fpfs.push((f64::from(m), optimal_k(u64::from(n), m).steps as f64));
        fcfs.push((f64::from(m), optimal_k_fcfs(n, m).steps as f64));
    }
    Figure {
        id: "disciplines".into(),
        title: format!("Optimal-tree steps, FPFS vs FCFS (n = {n})"),
        x_label: "Number of packets (m)".into(),
        y_label: "steps at optimal k".into(),
        series: vec![
            Series {
                label: "FPFS".into(),
                points: fpfs,
            },
            Series {
                label: "FCFS".into(),
                points: fcfs,
            },
        ],
    }
}

/// One simulated figure as a flat grid: per-series point specs plus the
/// x value of every spec, assembled back into series after one engine pass.
struct GridFigure {
    labels: Vec<String>,
    /// `(series index, x value, spec)` in evaluation order.
    cells: Vec<(usize, f64, PointSpec)>,
}

impl GridFigure {
    fn new() -> Self {
        GridFigure {
            labels: Vec::new(),
            cells: Vec::new(),
        }
    }

    fn series(&mut self, label: String) -> usize {
        self.labels.push(label);
        self.labels.len() - 1
    }

    fn point(&mut self, series: usize, x: f64, spec: PointSpec) {
        self.cells.push((series, x, spec));
    }

    fn run(self, sweep: &Sweep) -> Result<Vec<Series>, SweepError> {
        let specs: Vec<PointSpec> = self.cells.iter().map(|&(_, _, spec)| spec).collect();
        let means = sweep.grid(&specs)?;
        let mut series: Vec<Series> = self
            .labels
            .into_iter()
            .map(|label| Series {
                label,
                points: Vec::new(),
            })
            .collect();
        for (&(s, x, _), &y) in self.cells.iter().zip(&means) {
            series[s].points.push((x, y));
        }
        Ok(series)
    }
}

impl Sweep {
    /// Regenerates one figure. Analytic figures compute directly; simulated
    /// figures fan their full `points × topologies` grid out across the
    /// configured workers.
    ///
    /// # Errors
    ///
    /// [`SweepError::TooManyDests`] if the configured network is too small
    /// for the figure's destination counts; the chaos-axis figures also
    /// follow the contract of [`Self::chaos`].
    pub fn figure(&self, id: FigureId) -> Result<Figure, SweepError> {
        match id {
            FigureId::Fig4 => Ok(fig4(self.config().params())),
            FigureId::Fig5 => Ok(fig5()),
            FigureId::Fig8 => Ok(fig8()),
            FigureId::Buffers => Ok(buffer_figure(3)),
            FigureId::Fig12a => Ok(fig12a()),
            FigureId::Fig12b => Ok(fig12b()),
            FigureId::Fig13a => self.fig13a(),
            FigureId::Fig13b => self.fig13b(),
            FigureId::Fig14a => self.fig14a(),
            FigureId::Fig14b => self.fig14b(),
            FigureId::Disciplines => Ok(fig_disciplines(64)),
            FigureId::AblationOrdering => Ok(ablation_ordering(self.config().params())),
            FigureId::AblationFpfsFcfs => Ok(ablation_fpfs_fcfs(self.config().params())),
            FigureId::AblationContention => Ok(ablation_contention(self.config().params())),
            FigureId::AblationCube => Ok(ablation_cube(self.config().params())),
            FigureId::MultiMulticast => Ok(multi_multicast(self.config().params())),
            FigureId::ParamModel => Ok(param_model(self.config().params())),
            FigureId::Collectives => Ok(collectives()),
            // The fault-extension axes at the `optimcast chaos` grid
            // defaults: 31 destinations, 4-packet messages.
            FigureId::ChaosOutage => self.chaos_outage_figure(31, 4),
            FigureId::ChaosCorrupt => self.chaos_corrupt_figure(31, 4),
            FigureId::ChaosBuffer => self.chaos_buffer_figure(31, 4),
        }
    }

    /// Fig. 13(a): simulated k-binomial multicast latency vs packets, for
    /// 15/31/47/63 destinations.
    fn fig13a(&self) -> Result<Figure, SweepError> {
        let mut grid = GridFigure::new();
        for &d in &DEST_COUNTS {
            let s = grid.series(format!("{d} dest"));
            for m in m_axis() {
                grid.point(
                    s,
                    f64::from(m),
                    PointSpec::new(TreePolicy::OptimalKBinomial, d, m),
                );
            }
        }
        Ok(Figure {
            id: "fig13a".into(),
            title: "Multicast latency using k-binomial tree (fixed n, varying m)".into(),
            x_label: "Number of packets (m)".into(),
            y_label: "latency (us)".into(),
            series: grid.run(self)?,
        })
    }

    /// Fig. 13(b): simulated k-binomial multicast latency vs multicast set
    /// size, for 1/2/4/8 packets.
    fn fig13b(&self) -> Result<Figure, SweepError> {
        let mut grid = GridFigure::new();
        // Paper legend lists 8 pkts first.
        for &m in PACKET_COUNTS.iter().rev() {
            let s = grid.series(format!("{m} pkt{}", if m == 1 { "" } else { "s" }));
            for &n in &N_SWEEP {
                grid.point(
                    s,
                    f64::from(n),
                    PointSpec::new(TreePolicy::OptimalKBinomial, n - 1, m),
                );
            }
        }
        Ok(Figure {
            id: "fig13b".into(),
            title: "Multicast latency using k-binomial tree (fixed m, varying n)".into(),
            x_label: "Multicast set size (n)".into(),
            y_label: "latency (us)".into(),
            series: grid.run(self)?,
        })
    }

    /// Fig. 14(a): binomial vs optimal k-binomial latency vs packets, for
    /// 15 and 47 destinations.
    fn fig14a(&self) -> Result<Figure, SweepError> {
        let mut grid = GridFigure::new();
        for &d in &[47u32, 15] {
            for policy in [TreePolicy::Binomial, TreePolicy::OptimalKBinomial] {
                let s = grid.series(format!("{d} dest {}", policy.label()));
                for m in m_axis() {
                    grid.point(s, f64::from(m), PointSpec::new(policy, d, m));
                }
            }
        }
        Ok(Figure {
            id: "fig14a".into(),
            title: "Binomial vs k-binomial latency (fixed n, varying m)".into(),
            x_label: "Number of packets (m)".into(),
            y_label: "latency (us)".into(),
            series: grid.run(self)?,
        })
    }

    /// Fig. 14(b): binomial vs optimal k-binomial latency vs multicast set
    /// size, for 2 and 8 packets.
    fn fig14b(&self) -> Result<Figure, SweepError> {
        let mut grid = GridFigure::new();
        for &m in &[8u32, 2] {
            for policy in [TreePolicy::Binomial, TreePolicy::OptimalKBinomial] {
                let s = grid.series(format!("{m} pkts {}", policy.label()));
                for &n in &N_SWEEP {
                    grid.point(s, f64::from(n), PointSpec::new(policy, n - 1, m));
                }
            }
        }
        Ok(Figure {
            id: "fig14b".into(),
            title: "Binomial vs k-binomial latency (fixed m, varying n)".into(),
            x_label: "Multicast set size (n)".into(),
            y_label: "latency (us)".into(),
            series: grid.run(self)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::coverage::ceil_log2;

    #[test]
    fn fig12a_matches_paper_claims() {
        let f = fig12a();
        assert_eq!(f.series.len(), 4);
        for s in &f.series {
            // m = 1 point: optimal k = ceil(log2 n) (binomial).
            let d: u32 = s.label.split_whitespace().next().unwrap().parse().unwrap();
            assert_eq!(
                s.points[0].1 as u32,
                ceil_log2(u64::from(d) + 1),
                "{}",
                s.label
            );
            // k is non-increasing along m.
            for w in s.points.windows(2) {
                assert!(w[1].1 <= w[0].1, "{} rose with m", s.label);
            }
        }
        // 15 dest reaches k = 1 within the sweep (paper: crossover to linear).
        let s15 = f.series.iter().find(|s| s.label == "15 dest").unwrap();
        assert_eq!(s15.points.last().unwrap().1, 1.0);
    }

    #[test]
    fn fig12b_converges_to_2() {
        let f = fig12b();
        for s in &f.series {
            if s.label.starts_with('4') || s.label.starts_with('8') {
                let last = s.points.last().unwrap();
                assert_eq!(last.1, 2.0, "{} at n=64", s.label);
            }
        }
    }

    #[test]
    fn discipline_figure_shapes() {
        let f = fig_disciplines(64);
        let fpfs = &f.series[0].points;
        let fcfs = &f.series[1].points;
        for (a, b) in fpfs.iter().zip(fcfs) {
            assert!(b.1 >= a.1, "FCFS cannot beat FPFS at m={}", a.0);
        }
        // m = 1: identical.
        assert_eq!(fpfs[0].1, fcfs[0].1);
    }
}
