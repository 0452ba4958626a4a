//! Figures for the PR 5 fault axes the chaos grid records but never
//! charted: link-outage windows, corruption rate, and NI forwarding-buffer
//! capacity.
//!
//! Each figure sweeps one [`FaultPlanSpec`] field along its x-axis through
//! [`Sweep::chaos_with_spec`] as a 1×1 grid per point, so every data point
//! is a full `topologies × dest_sets` sample under the same §5.2
//! methodology as the latency figures, and the y-value is the cell's mean
//! *delivered* latency. One engine serves all points: topologies, trees,
//! and the worker pool are shared, and like every sweep product the
//! rendered figure is byte-identical for any thread count.

use crate::engine::Sweep;
use crate::error::SweepError;
use crate::figure::{Figure, Series};
use optimcast_netsim::FaultPlanSpec;
use std::fmt;
use std::str::FromStr;

/// Typed identifier of the chaos-axis figures (kept apart from
/// [`crate::FigureId`]: these chart the reproduction's fault extension,
/// not a figure of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosFigureId {
    /// Mean latency vs link-outage window length, one series per number of
    /// concurrently failed channels.
    Outage,
    /// Mean latency vs corruption rate, one series per background drop
    /// rate (corrupt packets arrive, get NACKed, and retransmit — the same
    /// recovery path as a drop, paid one propagation later).
    Corrupt,
    /// Mean latency vs NI forwarding-buffer capacity, one series per
    /// message size (deeper messages need more resident packets, so tight
    /// buffers refuse more arrivals).
    Buffer,
}

impl ChaosFigureId {
    /// Every chaos-axis figure, in the order `optimcast figures` prints
    /// them.
    pub const ALL: [ChaosFigureId; 3] = [
        ChaosFigureId::Outage,
        ChaosFigureId::Corrupt,
        ChaosFigureId::Buffer,
    ];

    /// The artifact id used in filenames and the `id` field of the JSON
    /// schema.
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosFigureId::Outage => "chaos_outage",
            ChaosFigureId::Corrupt => "chaos_corrupt",
            ChaosFigureId::Buffer => "chaos_buffer",
        }
    }
}

impl fmt::Display for ChaosFigureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ChaosFigureId {
    type Err = SweepError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ChaosFigureId::ALL
            .into_iter()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| SweepError::UnknownFigure(s.to_string()))
    }
}

/// The fault seed the chaos figures pin (the `optimcast chaos` default, so
/// figure points and grid cells draw from the same fault streams).
const FAULT_SEED: u64 = 1997;

impl Sweep {
    /// Renders one chaos-axis figure for `dests` destinations. `m` is the
    /// packets-per-message of the outage and corruption figures; the
    /// buffer figure charts `m` and `2m` as its two series.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::chaos`].
    pub fn chaos_figure(
        &self,
        id: ChaosFigureId,
        dests: u32,
        m: u32,
    ) -> Result<Figure, SweepError> {
        match id {
            ChaosFigureId::Outage => self.outage_figure(dests, m),
            ChaosFigureId::Corrupt => self.corrupt_figure(dests, m),
            ChaosFigureId::Buffer => self.buffer_figure(dests, m),
        }
    }

    /// The mean delivered latency of a 1×1 chaos grid under `spec`.
    fn chaos_point(&self, spec: FaultPlanSpec, dests: u32, m: u32) -> Result<f64, SweepError> {
        let report = self.chaos_with_spec(spec, &[spec.drop_rate], &[0], dests, m)?;
        Ok(report.cell(0, 0).mean_latency_us)
    }

    fn base_spec(&self) -> FaultPlanSpec {
        FaultPlanSpec {
            seed: FAULT_SEED,
            ..self.config().fault()
        }
    }

    fn outage_figure(&self, dests: u32, m: u32) -> Result<Figure, SweepError> {
        let windows = [0.0, 20.0, 40.0, 80.0];
        let outage_counts = [1u32, 2, 4];
        let mut series = Vec::with_capacity(outage_counts.len());
        for &links in &outage_counts {
            let mut points = Vec::with_capacity(windows.len());
            for &window in &windows {
                // A zero-length window is the fault-free baseline; the spec
                // validator (rightly) rejects an empty outage interval, so
                // express it as zero failed links.
                let spec = FaultPlanSpec {
                    link_outages: if window > 0.0 { links } else { 0 },
                    outage_from_us: 0.0,
                    outage_until_us: window,
                    ..self.base_spec()
                };
                points.push((window, self.chaos_point(spec, dests, m)?));
            }
            series.push(Series {
                label: format!("{links} links down"),
                points,
            });
        }
        Ok(Figure {
            id: ChaosFigureId::Outage.as_str().into(),
            title: "Mean delivered latency vs link-outage window".into(),
            x_label: "outage window (us)".into(),
            y_label: "latency (us)".into(),
            series,
        })
    }

    fn corrupt_figure(&self, dests: u32, m: u32) -> Result<Figure, SweepError> {
        let rates = [0.0, 0.02, 0.05, 0.1];
        let drop_rates = [0.0, 0.05];
        let mut series = Vec::with_capacity(drop_rates.len());
        for &drop in &drop_rates {
            let mut points = Vec::with_capacity(rates.len());
            for &rate in &rates {
                let spec = FaultPlanSpec {
                    drop_rate: drop,
                    corrupt_rate: rate,
                    ..self.base_spec()
                };
                points.push((rate, self.chaos_point(spec, dests, m)?));
            }
            series.push(Series {
                label: format!("{drop:.2} drop rate"),
                points,
            });
        }
        Ok(Figure {
            id: ChaosFigureId::Corrupt.as_str().into(),
            title: "Mean delivered latency vs corruption rate".into(),
            x_label: "corruption rate".into(),
            y_label: "latency (us)".into(),
            series,
        })
    }

    fn buffer_figure(&self, dests: u32, m: u32) -> Result<Figure, SweepError> {
        let capacities = [1u32, 2, 3, 4, 6, 8];
        let sizes = [m, 2 * m];
        let mut series = Vec::with_capacity(sizes.len());
        for &pkts in &sizes {
            let mut points = Vec::with_capacity(capacities.len());
            for &cap in &capacities {
                let spec = FaultPlanSpec {
                    ni_buffer_capacity: Some(cap),
                    ..self.base_spec()
                };
                points.push((f64::from(cap), self.chaos_point(spec, dests, pkts)?));
            }
            series.push(Series {
                label: format!("{pkts} packets"),
                points,
            });
        }
        Ok(Figure {
            id: ChaosFigureId::Buffer.as_str().into(),
            title: "Mean delivered latency vs NI buffer capacity".into(),
            x_label: "NI buffer capacity (packets)".into(),
            y_label: "latency (us)".into(),
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    #[test]
    fn names_round_trip() {
        for id in ChaosFigureId::ALL {
            assert_eq!(id.as_str().parse::<ChaosFigureId>().unwrap(), id);
            assert_eq!(id.to_string(), id.as_str());
        }
        assert_eq!(
            "chaos_nope".parse::<ChaosFigureId>(),
            Err(SweepError::UnknownFigure("chaos_nope".into()))
        );
    }

    #[test]
    fn axis_figures_have_the_documented_shape() {
        let sweep = SweepBuilder::quick().build().unwrap();

        let outage = sweep.chaos_figure(ChaosFigureId::Outage, 15, 2).unwrap();
        assert_eq!(outage.id, "chaos_outage");
        assert_eq!(outage.series.len(), 3);
        for s in &outage.series {
            let xs: Vec<f64> = s.points.iter().map(|&(x, _)| x).collect();
            assert_eq!(xs, vec![0.0, 20.0, 40.0, 80.0]);
        }
        // Window 0 is the shared fault-free baseline of every series.
        let base = outage.series[0].points[0].1;
        assert!(base > 0.0);
        for s in &outage.series {
            assert_eq!(s.points[0].1.to_bits(), base.to_bits());
        }

        let corrupt = sweep.chaos_figure(ChaosFigureId::Corrupt, 15, 2).unwrap();
        assert_eq!(corrupt.series.len(), 2);
        let clean = corrupt.series[0].points[0].1;
        let corrupted = corrupt.series[0].points[3].1;
        assert!(
            corrupted > clean,
            "10% corruption must slow the multicast: {corrupted} <= {clean}"
        );

        let buffer = sweep.chaos_figure(ChaosFigureId::Buffer, 15, 2).unwrap();
        assert_eq!(buffer.series.len(), 2);
        assert_eq!(buffer.series[0].label, "2 packets");
        assert_eq!(buffer.series[1].label, "4 packets");
        let tight = buffer.series[1].points[0].1;
        let roomy = buffer.series[1].points[5].1;
        assert!(
            tight >= roomy,
            "a 1-packet buffer cannot beat an 8-packet buffer: {tight} < {roomy}"
        );
    }

    #[test]
    fn axis_figures_are_byte_identical_across_workers() {
        let render = |threads: usize| {
            let sweep = SweepBuilder::quick().parallelism(threads).build().unwrap();
            ChaosFigureId::ALL
                .into_iter()
                .map(|id| {
                    crate::json::ToJson::to_json(&sweep.chaos_figure(id, 15, 2).unwrap())
                        .to_string_pretty()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(1), render(4), "worker count changed figure bytes");
    }
}
