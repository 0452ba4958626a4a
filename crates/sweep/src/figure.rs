//! The figure/series vocabulary shared by the engine, the CLI `--json`
//! path, and the committed `results/*.json` goldens.

use crate::error::SweepError;
use std::fmt;
use std::str::FromStr;

/// One labelled data series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "47 dest kbin").
    pub label: String,
    /// `(x, y)` points in sweep order.
    pub points: Vec<(f64, f64)>,
}

/// A reproduced figure: labelled series plus axis metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Paper artifact id, e.g. "fig14a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
}

/// Typed identifier of every figure the reproduction regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Fig. 4: conventional vs smart NI (analytic).
    Fig4,
    /// Fig. 5: binomial vs linear tree counterexample (analytic).
    Fig5,
    /// Fig. 8: pipelined packet completions (analytic).
    Fig8,
    /// §3.3.2 buffer residency, FCFS vs FPFS (analytic).
    Buffers,
    /// Fig. 12(a): optimal k vs packets (analytic).
    Fig12a,
    /// Fig. 12(b): optimal k vs multicast set size (analytic).
    Fig12b,
    /// Fig. 13(a): k-binomial latency vs packets (simulated).
    Fig13a,
    /// Fig. 13(b): k-binomial latency vs set size (simulated).
    Fig13b,
    /// Fig. 14(a): binomial vs k-binomial vs packets (simulated).
    Fig14a,
    /// Fig. 14(b): binomial vs k-binomial vs set size (simulated).
    Fig14b,
    /// Extension: FPFS vs FCFS optimal-tree steps (analytic).
    Disciplines,
    /// Ablation A1: base ordering vs wormhole contention (fixed seed).
    AblationOrdering,
    /// Ablation A2: FPFS vs FCFS latency and buffer highwater (fixed seed).
    AblationFpfsFcfs,
    /// Ablation A3: analytic vs ideal vs wormhole latency (fixed seed).
    AblationContention,
    /// Ablation A4: k-binomial broadcast on k-ary n-cubes.
    AblationCube,
    /// Extension: concurrent multicasts on shared hosts (fixed seed).
    MultiMulticast,
    /// Extension: optimal k under the parameterized model (analytic).
    ParamModel,
    /// Extension: scatter/gather steps, chain vs k-binomial (analytic).
    Collectives,
    /// Fault extension: mean latency vs link-outage window, one series per
    /// number of concurrently failed channels (simulated).
    ChaosOutage,
    /// Fault extension: mean latency vs corruption rate, one series per
    /// background drop rate (simulated).
    ChaosCorrupt,
    /// Fault extension: mean latency vs NI forwarding-buffer capacity, one
    /// series per message size (simulated).
    ChaosBuffer,
}

impl FigureId {
    /// Every figure, in the order `optimcast figures` prints them.
    pub const ALL: [FigureId; 21] = [
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig8,
        FigureId::Buffers,
        FigureId::Fig12a,
        FigureId::Fig12b,
        FigureId::Fig13a,
        FigureId::Fig13b,
        FigureId::Fig14a,
        FigureId::Fig14b,
        FigureId::Disciplines,
        FigureId::AblationOrdering,
        FigureId::AblationFpfsFcfs,
        FigureId::AblationContention,
        FigureId::AblationCube,
        FigureId::MultiMulticast,
        FigureId::ParamModel,
        FigureId::Collectives,
        FigureId::ChaosOutage,
        FigureId::ChaosCorrupt,
        FigureId::ChaosBuffer,
    ];

    /// The artifact id used in filenames and the `id` field of the JSON
    /// schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig8 => "fig8",
            FigureId::Buffers => "buffers",
            FigureId::Fig12a => "fig12a",
            FigureId::Fig12b => "fig12b",
            FigureId::Fig13a => "fig13a",
            FigureId::Fig13b => "fig13b",
            FigureId::Fig14a => "fig14a",
            FigureId::Fig14b => "fig14b",
            FigureId::Disciplines => "disciplines",
            FigureId::AblationOrdering => "ablation_ordering",
            FigureId::AblationFpfsFcfs => "ablation_fpfs_fcfs",
            FigureId::AblationContention => "ablation_contention",
            FigureId::AblationCube => "ablation_cube",
            FigureId::MultiMulticast => "multi_multicast",
            FigureId::ParamModel => "param_model",
            FigureId::Collectives => "collectives",
            FigureId::ChaosOutage => "chaos_outage",
            FigureId::ChaosCorrupt => "chaos_corrupt",
            FigureId::ChaosBuffer => "chaos_buffer",
        }
    }

    /// True for the figures sampled over the configured topology × destination
    /// set grid (and therefore run on the parallel engine); false for
    /// analytic figures and the fixed-seed ablations.
    pub fn simulated(self) -> bool {
        matches!(
            self,
            FigureId::Fig13a
                | FigureId::Fig13b
                | FigureId::Fig14a
                | FigureId::Fig14b
                | FigureId::ChaosOutage
                | FigureId::ChaosCorrupt
                | FigureId::ChaosBuffer
        )
    }
}

impl fmt::Display for FigureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FigureId {
    type Err = SweepError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FigureId::ALL
            .into_iter()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| SweepError::UnknownFigure(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in FigureId::ALL {
            assert_eq!(id.as_str().parse::<FigureId>().unwrap(), id);
            assert_eq!(id.to_string(), id.as_str());
        }
        assert_eq!(
            "fig99".parse::<FigureId>(),
            Err(SweepError::UnknownFigure("fig99".into()))
        );
    }

    #[test]
    fn simulated_split() {
        let sim: Vec<_> = FigureId::ALL
            .into_iter()
            .filter(|f| f.simulated())
            .collect();
        assert_eq!(
            sim,
            vec![
                FigureId::Fig13a,
                FigureId::Fig13b,
                FigureId::Fig14a,
                FigureId::Fig14b,
                FigureId::ChaosOutage,
                FigureId::ChaosCorrupt,
                FigureId::ChaosBuffer,
            ]
        );
    }
}
