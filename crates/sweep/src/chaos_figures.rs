//! The bodies of the fault-extension figures ([`FigureId::ChaosOutage`],
//! [`FigureId::ChaosCorrupt`], [`FigureId::ChaosBuffer`]): the link-outage
//! window, corruption rate, and NI forwarding-buffer capacity axes the
//! chaos grid records but never charts.
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
use crate::figure::{Figure, FigureId, Series};
use optimcast_netsim::FaultPlanSpec;

/// The fault seed the chaos figures pin (the `optimcast chaos` default, so
/// figure points and grid cells draw from the same fault streams).
const FAULT_SEED: u64 = 1997;

impl Sweep {
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

    /// Mean latency vs link-outage window length for `dests`
    /// destinations and `m`-packet messages.
    pub(crate) fn chaos_outage_figure(&self, dests: u32, m: u32) -> Result<Figure, SweepError> {
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
            id: FigureId::ChaosOutage.as_str().into(),
            title: "Mean delivered latency vs link-outage window".into(),
            x_label: "outage window (us)".into(),
            y_label: "latency (us)".into(),
            series,
        })
    }

    /// Mean latency vs corruption rate: corrupt packets arrive, get
    /// NACKed, and retransmit — the same recovery path as a drop, paid one
    /// propagation later.
    pub(crate) fn chaos_corrupt_figure(&self, dests: u32, m: u32) -> Result<Figure, SweepError> {
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
            id: FigureId::ChaosCorrupt.as_str().into(),
            title: "Mean delivered latency vs corruption rate".into(),
            x_label: "corruption rate".into(),
            y_label: "latency (us)".into(),
            series,
        })
    }

    /// Mean latency vs NI buffer capacity, for `m` and `2m` packets:
    /// deeper messages need more resident packets, so tight buffers refuse
    /// more arrivals.
    pub(crate) fn chaos_buffer_figure(&self, dests: u32, m: u32) -> Result<Figure, SweepError> {
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
            id: FigureId::ChaosBuffer.as_str().into(),
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
        for name in ["chaos_outage", "chaos_corrupt", "chaos_buffer"] {
            let id = name.parse::<FigureId>().unwrap();
            assert_eq!(id.as_str(), name);
            assert!(id.simulated(), "{name} samples the topology grid");
        }
        assert_eq!(
            "chaos_nope".parse::<FigureId>(),
            Err(SweepError::UnknownFigure("chaos_nope".into()))
        );
    }

    #[test]
    fn axis_figures_have_the_documented_shape() {
        let sweep = SweepBuilder::quick().build().unwrap();

        let outage = sweep.chaos_outage_figure(15, 2).unwrap();
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

        let corrupt = sweep.chaos_corrupt_figure(15, 2).unwrap();
        assert_eq!(corrupt.series.len(), 2);
        let clean = corrupt.series[0].points[0].1;
        let corrupted = corrupt.series[0].points[3].1;
        assert!(
            corrupted > clean,
            "10% corruption must slow the multicast: {corrupted} <= {clean}"
        );

        let buffer = sweep.chaos_buffer_figure(15, 2).unwrap();
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
            [
                sweep.chaos_outage_figure(15, 2),
                sweep.chaos_corrupt_figure(15, 2),
                sweep.chaos_buffer_figure(15, 2),
            ]
            .map(|fig| crate::json::ToJson::to_json(&fig.unwrap()).to_string_pretty())
        };
        assert_eq!(render(1), render(4), "worker count changed figure bytes");
    }
}
