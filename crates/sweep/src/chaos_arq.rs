//! The ARQ chaos sweep: recovery latency vs. drop rate, stop-and-wait
//! against windowed selective-repeat.
//!
//! The grid re-runs the §5.2 sampling methodology (same topologies,
//! destination sets, optimal-k trees as the latency figures) under packet
//! loss, once per reliability mode:
//!
//! * **stop-and-wait** — the PR-3 handshake protocol: `window = 1`, a
//!   single send unit, each copy held until its round trip completes;
//! * **windowed** — the selective-repeat layer: `window > 1` outstanding
//!   packets per tree edge, NACK-range gap repair, and a multi-send-unit
//!   NI (`send_units` concurrent wire transmissions per port).
//!
//! The quantity charted is **recovery latency**: a cell's mean delivered
//! latency minus the same mode's latency at drop rate zero. Subtracting
//! each mode's own lossless baseline isolates what the loss recovery
//! costs — the stop-and-wait baseline is the fault-free pipeline (a
//! trivial plan normalizes onto the exact fault-free path), while the
//! windowed baseline carries the windowed machinery, so neither series is
//! charged for its steady-state overhead. The first swept drop rate must
//! therefore be `0.0`.
//!
//! Like every sweep, cells fan out over the worker pool with a fixed
//! floating-point reduction order: the emitted JSON is byte-identical for
//! every thread count and records no thread count.

use crate::chaos::{Tally, WriteOffs};
use crate::engine::{unravel, Sweep};
use crate::error::SweepError;
use crate::figure::{Figure, Series};
use crate::json::{Json, ToJson};
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_netsim::{
    FaultPlanSpec, MulticastJob, NiModel, SimArena, SimRun, WorkloadConfig, WorkloadOutcome,
};

/// Aggregated outcome of one `(mode, drop rate)` ARQ chaos cell over the
/// full `topologies × dest_sets` sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct ArqCell {
    /// Per-transmission loss probability of this cell.
    pub drop_rate: f64,
    /// `true` for the windowed selective-repeat series, `false` for
    /// stop-and-wait.
    pub windowed: bool,
    /// Samples evaluated (`topologies × dest_sets`).
    pub samples: u32,
    /// Samples that reached every destination.
    pub delivered: u32,
    /// Samples that exhausted the retransmission budget
    /// (`SimError::DeliveryFailed`).
    pub failed: u32,
    /// Total destinations left unreached across failed samples.
    pub unreached: u64,
    /// Mean latency (µs) over *delivered* samples; `0.0` if none delivered.
    pub mean_latency_us: f64,
    /// `mean_latency_us` minus the same mode's drop-rate-zero mean: the
    /// added cost of loss recovery. `0.0` when nothing delivered.
    pub recovery_latency_us: f64,
    /// Transmissions lost (dropped or corrupted) across all samples.
    pub packets_dropped: u64,
    /// Retransmissions scheduled.
    pub retransmits: u64,
    /// Packet copies abandoned after the attempt budget.
    pub deliveries_abandoned: u64,
    /// Time (µs) stop-and-wait spent blocked on acknowledgement timeouts.
    pub recovery_wait_us: f64,
    /// Windowed resends asked for by NACK ranges or corrupt deliveries.
    pub resend_requests: u64,
    /// Coalesced NACK ranges sent by receivers.
    pub nack_ranges_sent: u64,
    /// Acknowledgements that arrived after their slot was already retired.
    pub late_acks: u64,
    /// Duplicate deliveries acknowledged and discarded by receivers.
    pub duplicate_acks: u64,
    /// Time (µs) senders spent admission-blocked on a full send window.
    pub window_stalls_us: f64,
    /// Stuck deliveries converted into typed write-offs by the deadline.
    pub deadline_writeoffs: u64,
}

/// The full ARQ grid: both reliability modes at every swept drop rate,
/// plus the methodology that produced them, renderable as the unified
/// figure JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ArqReport {
    /// Destination count per sample (participants = `dests + 1`).
    pub dests: u32,
    /// Packets per message.
    pub m: u32,
    /// Topologies averaged per cell.
    pub topologies: u32,
    /// Destination sets per topology.
    pub dest_sets: u32,
    /// Base RNG seed of the sweep.
    pub base_seed: u64,
    /// The base fault spec (its seed feeds every sample's fault stream;
    /// its `window`/`send_units` are overridden per mode).
    pub fault: FaultPlanSpec,
    /// Selective-repeat window of the windowed series.
    pub window: u32,
    /// NI send units of the windowed series (stop-and-wait always uses 1).
    pub send_units: u32,
    /// The swept drop rates, in input order; the first is the `0.0`
    /// baseline.
    pub drop_rates: Vec<f64>,
    /// Mode-major cells: `cells[mode * drop_rates.len() + d]`, mode 0 =
    /// stop-and-wait, mode 1 = windowed.
    pub cells: Vec<ArqCell>,
}

impl ArqReport {
    /// The cell at drop-rate index `d` of the given mode.
    pub fn cell(&self, windowed: bool, d: usize) -> &ArqCell {
        &self.cells[usize::from(windowed) * self.drop_rates.len() + d]
    }

    /// True when every sample of every cell reached all destinations.
    pub fn all_reached(&self) -> bool {
        self.cells.iter().all(|cell| cell.failed == 0)
    }

    /// The chart behind the report: recovery latency against drop rate,
    /// one series per reliability mode.
    pub fn figure(&self) -> Figure {
        let series = [false, true]
            .iter()
            .map(|&windowed| Series {
                label: mode_label(windowed).into(),
                points: self
                    .drop_rates
                    .iter()
                    .enumerate()
                    .map(|(d, &rate)| (rate, self.cell(windowed, d).recovery_latency_us))
                    .collect(),
            })
            .collect();
        Figure {
            id: "chaos_arq".into(),
            title: "Loss recovery latency: stop-and-wait vs. windowed ARQ".into(),
            x_label: "drop rate".into(),
            y_label: "recovery latency (us)".into(),
            series,
        }
    }

    /// Renders the report in the unified figure JSON schema: `meta` with
    /// the methodology, a `cells` table, and a `figure` charting recovery
    /// latency against drop rate, one series per reliability mode. The
    /// document deliberately omits worker/thread counts: identical seeds
    /// must produce byte-identical reports at any parallelism.
    pub fn to_json(&self) -> Json {
        let chart = self.figure();
        let mut meta = vec![
            ("dests", Json::from(self.dests)),
            ("m", Json::from(self.m)),
            ("topologies", Json::from(self.topologies)),
            ("dest_sets", Json::from(self.dest_sets)),
            ("base_seed", Json::from(self.base_seed)),
            ("fault_seed", Json::from(self.fault.seed)),
            ("corrupt_rate", Json::from(self.fault.corrupt_rate)),
            ("max_attempts", Json::from(self.fault.max_attempts)),
            ("ack_timeout_us", Json::from(self.fault.ack_timeout_us)),
            ("window", Json::from(self.window)),
            ("send_units", Json::from(self.send_units)),
        ];
        if let Some(d) = self.fault.deadline_us {
            meta.push(("deadline_us", Json::from(d)));
        }
        meta.push(("drop_rates", Json::from(self.drop_rates.as_slice())));
        meta.push(("all_reached", Json::from(self.all_reached())));
        Json::obj(vec![
            ("id", Json::from("chaos_arq")),
            ("meta", Json::obj(meta)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(arq_cell_json).collect()),
            ),
            ("figure", chart.to_json()),
        ])
    }
}

fn mode_label(windowed: bool) -> &'static str {
    if windowed {
        "windowed"
    } else {
        "stop-and-wait"
    }
}

fn arq_cell_json(cell: &ArqCell) -> Json {
    Json::obj(vec![
        ("mode", Json::from(mode_label(cell.windowed))),
        ("drop_rate", Json::from(cell.drop_rate)),
        ("samples", Json::from(cell.samples)),
        ("delivered", Json::from(cell.delivered)),
        ("failed", Json::from(cell.failed)),
        ("unreached", Json::from(cell.unreached)),
        ("mean_latency_us", Json::from(cell.mean_latency_us)),
        ("recovery_latency_us", Json::from(cell.recovery_latency_us)),
        ("packets_dropped", Json::from(cell.packets_dropped)),
        ("retransmits", Json::from(cell.retransmits)),
        (
            "deliveries_abandoned",
            Json::from(cell.deliveries_abandoned),
        ),
        ("recovery_wait_us", Json::from(cell.recovery_wait_us)),
        ("resend_requests", Json::from(cell.resend_requests)),
        ("nack_ranges_sent", Json::from(cell.nack_ranges_sent)),
        ("late_acks", Json::from(cell.late_acks)),
        ("duplicate_acks", Json::from(cell.duplicate_acks)),
        ("window_stalls_us", Json::from(cell.window_stalls_us)),
        ("deadline_writeoffs", Json::from(cell.deadline_writeoffs)),
    ])
}

impl ArqCell {
    /// The cell at `(windowed, drop_rate)` from its folded tally; its
    /// recovery latency is filled in once the mode's baseline is known.
    fn from_tally(drop_rate: f64, windowed: bool, samples: u32, tally: Tally) -> Self {
        let c = &tally.counters;
        ArqCell {
            drop_rate,
            windowed,
            samples,
            delivered: tally.delivered,
            failed: tally.failed,
            unreached: tally.unreached,
            mean_latency_us: tally.mean_latency_us(),
            recovery_latency_us: 0.0,
            packets_dropped: c.packets_dropped,
            retransmits: c.retransmits,
            deliveries_abandoned: c.deliveries_abandoned,
            recovery_wait_us: c.recovery_wait_us,
            resend_requests: c.resend_requests,
            nack_ranges_sent: c.nack_ranges_sent,
            late_acks: c.late_acks,
            duplicate_acks: c.duplicate_acks,
            window_stalls_us: c.window_stalls_us,
            deadline_writeoffs: c.deadline_writeoffs,
        }
    }
}

impl Sweep {
    /// Evaluates the ARQ chaos grid: both reliability modes at every swept
    /// drop rate, sampled with the §5.2 methodology on the optimal
    /// k-binomial tree. The base fault spec comes from
    /// [`crate::SweepConfig::fault`]; per mode the sweep overrides
    /// `window`/`send_units` (stop-and-wait pins both to 1) and zeroes the
    /// crash axis. Cells fan out across the configured workers; the report
    /// is bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// [`SweepError::ZeroPackets`], [`SweepError::TooManyDests`], or
    /// [`SweepError::InvalidFaultSpec`]: a swept drop rate outside
    /// `[0, 1)`, a first drop rate that is not the `0.0` baseline,
    /// `window < 2`, `send_units == 0`, or a base spec carrying axes the
    /// windowed layer rejects (live repair, NI forwarding-buffer caps).
    pub fn chaos_arq(
        &self,
        drop_rates: &[f64],
        dests: u32,
        m: u32,
        window: u32,
        send_units: u32,
    ) -> Result<ArqReport, SweepError> {
        let cfg = *self.config();
        let fault = cfg.fault();
        crate::config::validate_fault_spec(&fault)?;
        self.check_point(m, dests, drop_rates)?;
        if drop_rates.first() != Some(&0.0) {
            return Err(SweepError::InvalidFaultSpec(
                "the first drop rate must be the 0.0 recovery baseline",
            ));
        }
        if window < 2 {
            return Err(SweepError::InvalidFaultSpec(
                "the windowed series needs window >= 2",
            ));
        }
        if send_units == 0 {
            return Err(SweepError::InvalidFaultSpec(
                "send_units must be at least 1",
            ));
        }
        if fault.live_repair {
            return Err(SweepError::InvalidFaultSpec(
                "windowed ARQ does not combine with live repair; use deadline_us",
            ));
        }
        if fault.ni_buffer_capacity.is_some() {
            return Err(SweepError::InvalidFaultSpec(
                "windowed ARQ bounds queues via NiModel::queue_capacity, not ni_buffer_capacity",
            ));
        }
        let drops = drop_rates.len();
        let dims = [2, drops];
        let mut cells: Vec<ArqCell> = self
            .fold_cells(2 * drops, |cell, t| {
                let [mode, d] = unravel(cell, dims);
                let windowed = mode == 1;
                let spec = FaultPlanSpec {
                    drop_rate: drop_rates[d],
                    crashes: 0,
                    window: if windowed { window } else { 1 },
                    send_units: if windowed { send_units } else { 1 },
                    ..fault
                };
                self.arq_topology(spec, dests, m, t)
            })
            .into_iter()
            .enumerate()
            .map(|(cell, tally)| {
                let [mode, d] = unravel(cell, dims);
                ArqCell::from_tally(drop_rates[d], mode == 1, cfg.samples(), tally)
            })
            .collect();
        // Recovery latency: each cell against its own mode's lossless
        // baseline (index 0 of the mode's row), in fixed index order.
        for mode in 0..2 {
            let baseline = cells[mode * drops].mean_latency_us;
            for d in 0..drops {
                let cell = &mut cells[mode * drops + d];
                if cell.delivered > 0 {
                    cell.recovery_latency_us = cell.mean_latency_us - baseline;
                }
            }
        }
        Ok(ArqReport {
            dests,
            m,
            topologies: cfg.topologies(),
            dest_sets: cfg.dest_sets(),
            base_seed: cfg.base_seed(),
            fault,
            window,
            send_units,
            drop_rates: drop_rates.to_vec(),
            cells,
        })
    }

    /// One ARQ cell's samples on topology `t`, evaluated sequentially in
    /// destination-set order (the fixed floating-point order). The spec
    /// already carries the cell's mode (`window`, `send_units`).
    fn arq_topology(&self, spec: FaultPlanSpec, dests: u32, m: u32, t: u32) -> Tally {
        let cfg = *self.config();
        let topo = self.topology(t);
        let config = WorkloadConfig {
            ni: NiModel {
                send_units: spec.send_units,
                queue_capacity: None,
            },
            ..WorkloadConfig::default()
        };
        let mut tally = Tally::default();
        let (mut arena, mut out) = (SimArena::new(), WorkloadOutcome::default());
        for s in 0..cfg.dest_sets() {
            let salt = cfg.set_seed(t, s);
            let chain = sample_chain(&topo.net, &topo.ordering, salt, dests);
            let n = chain.len() as u32;
            let tree = self.tree(TreePolicy::OptimalKBinomial, n, m);
            let plan = spec.plan(salt, Vec::new());
            let job = MulticastJob::fpfs(tree, chain, m);
            let run = SimRun::new(&topo.net, std::slice::from_ref(&job), cfg.params(), config)
                .faults(&plan)
                .run_into(&mut arena, &mut out)
                .map(|()| &out);
            tally.record(self, run, WriteOffs::Unreached);
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    fn sweep_with(seed: u64, threads: usize) -> Sweep {
        SweepBuilder::quick()
            .fault(FaultPlanSpec {
                seed,
                ..FaultPlanSpec::default()
            })
            .parallelism(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn lossless_baseline_rows_anchor_recovery_at_zero() {
        let sweep = sweep_with(7, 1);
        let report = sweep.chaos_arq(&[0.0, 0.05], 15, 4, 8, 2).unwrap();
        for windowed in [false, true] {
            let base = report.cell(windowed, 0);
            assert_eq!(base.failed, 0);
            assert_eq!(base.delivered, sweep.config().samples());
            assert_eq!(base.recovery_latency_us, 0.0);
            assert_eq!((base.packets_dropped, base.retransmits), (0, 0));
            assert!(base.mean_latency_us > 0.0);
        }
        // The lossless windowed row pipelines: no recovery traffic at all.
        let base = report.cell(true, 0);
        assert_eq!((base.resend_requests, base.nack_ranges_sent), (0, 0));
    }

    #[test]
    fn windowed_recovery_beats_stop_and_wait_under_loss() {
        // The acceptance criterion behind the committed golden: at every
        // drop rate >= 2%, the windowed series recovers faster than
        // stop-and-wait, and its recovery ran through the selective-repeat
        // machinery.
        let sweep = sweep_with(1997, 1);
        let drops = [0.0, 0.02, 0.05, 0.1];
        let report = sweep.chaos_arq(&drops, 15, 4, 8, 2).unwrap();
        for (d, &rate) in drops.iter().enumerate().skip(1) {
            let sw = report.cell(false, d);
            let win = report.cell(true, d);
            assert!(
                win.recovery_latency_us < sw.recovery_latency_us,
                "windowed must beat stop-and-wait at drop {rate}: {} >= {}",
                win.recovery_latency_us,
                sw.recovery_latency_us
            );
            assert!(win.retransmits > 0, "no loss recovered at drop {rate}");
            assert_eq!((sw.resend_requests, sw.nack_ranges_sent), (0, 0));
        }
        assert!(
            report.cells.iter().any(|c| c.nack_ranges_sent > 0),
            "no receiver ever NACKed a gap"
        );
    }

    #[test]
    fn arq_chaos_is_byte_identical_across_workers() {
        let json_for = |threads: usize| {
            sweep_with(42, threads)
                .chaos_arq(&[0.0, 0.02, 0.08], 15, 2, 8, 2)
                .unwrap()
                .to_json()
                .to_string_pretty()
        };
        let serial = json_for(1);
        assert_eq!(serial, json_for(4), "4 workers diverged");
        assert_eq!(serial, json_for(8), "8 workers diverged");
    }

    #[test]
    fn arq_chaos_rejects_bad_axes() {
        let sweep = sweep_with(1, 1);
        assert_eq!(
            sweep.chaos_arq(&[0.0], 15, 0, 8, 2),
            Err(SweepError::ZeroPackets)
        );
        assert_eq!(
            sweep.chaos_arq(&[0.0], 64, 2, 8, 2),
            Err(SweepError::TooManyDests {
                dests: 64,
                hosts: 64
            })
        );
        assert_eq!(
            sweep.chaos_arq(&[0.0, 1.0], 15, 2, 8, 2),
            Err(SweepError::InvalidFaultSpec("drop_rate must lie in [0, 1)"))
        );
        assert_eq!(
            sweep.chaos_arq(&[0.05], 15, 2, 8, 2),
            Err(SweepError::InvalidFaultSpec(
                "the first drop rate must be the 0.0 recovery baseline"
            ))
        );
        assert_eq!(
            sweep.chaos_arq(&[0.0], 15, 2, 1, 2),
            Err(SweepError::InvalidFaultSpec(
                "the windowed series needs window >= 2"
            ))
        );
        assert_eq!(
            sweep.chaos_arq(&[0.0], 15, 2, 8, 0),
            Err(SweepError::InvalidFaultSpec(
                "send_units must be at least 1"
            ))
        );
        let repairing = SweepBuilder::quick()
            .fault(FaultPlanSpec {
                live_repair: true,
                ..FaultPlanSpec::default()
            })
            .build()
            .unwrap();
        assert_eq!(
            repairing.chaos_arq(&[0.0], 15, 2, 8, 2),
            Err(SweepError::InvalidFaultSpec(
                "windowed ARQ does not combine with live repair; use deadline_us"
            ))
        );
    }
}
