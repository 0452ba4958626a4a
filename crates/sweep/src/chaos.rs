//! Chaos sweeps: the robustness evaluation grid (drop rate × crash count).
//!
//! Each cell of the grid re-runs the paper's §5.2 sampling methodology —
//! the same topologies, destination sets, and optimal-k trees as the
//! latency figures — under a deterministic fault plan: every transmission
//! is dropped with the cell's probability, and the cell's crash count of
//! destination hosts fail. The base [`FaultPlanSpec`] adds further axes on
//! top of the grid: corruption rate, link-outage windows, and NI
//! forwarding-buffer capacity.
//!
//! Crashed participants are handled one of two ways, selected by
//! [`FaultPlanSpec::live_repair`]:
//!
//! * **off** (default): the tree is repaired *around* the crashes with
//!   [`MulticastTree::repair`] before the run, so a cell's failures measure
//!   exhausted retransmission budgets, not the crashes themselves;
//! * **on**: the full tree is bound and the drawn hosts crash mid-run at
//!   [`FaultPlanSpec::crash_at_us`]; the simulator detects the abandonment,
//!   repairs the surviving membership live, and re-issues undelivered
//!   packets. The cell then reports repair epochs, re-issued packets, and
//!   the crashed destinations written off as `unreachable_crashed`.
//!
//! The all-reached invariant is enforced per run by the simulator: a run
//! either reaches every surviving destination or returns
//! `SimError::DeliveryFailed`, which the cell counts and reports as
//! `unreached`.
//!
//! Like the figure grids, chaos cells fan out over the worker pool with a
//! fixed floating-point reduction order, so the emitted JSON is
//! byte-identical for every thread count (and deliberately records no
//! thread count, so reports from different machines diff clean).

use crate::engine::{unravel, Sweep};
use crate::error::SweepError;
use crate::figure::{Figure, Series};
use crate::json::{Json, ToJson};
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_core::tree::Rank;
use optimcast_netsim::fault::{HostCrash, LinkFailure};
use optimcast_netsim::{
    FaultPlanSpec, MulticastJob, SimArena, SimCounters, SimError, SimRun, WorkloadConfig,
    WorkloadOutcome,
};
use optimcast_rng::{ChaCha8Rng, Rng, SliceRandom};
use optimcast_topology::graph::{ChannelId, HostId};
use optimcast_topology::Network;
use std::ops::AddAssign;

/// Aggregated outcome of one `(drop rate, crash count)` chaos cell over the
/// full `topologies × dest_sets` sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Per-transmission loss probability of this cell.
    pub drop_rate: f64,
    /// Destination hosts crashed (and repaired around, up front or live)
    /// per sample.
    pub crashes: u32,
    /// Samples evaluated (`topologies × dest_sets`).
    pub samples: u32,
    /// Samples that reached every surviving destination.
    pub delivered: u32,
    /// Samples that exhausted the retransmission budget
    /// (`SimError::DeliveryFailed`).
    pub failed: u32,
    /// Total destinations left unreached across failed samples.
    pub unreached: u64,
    /// Mean latency (µs) over *delivered* samples; `0.0` if none delivered.
    pub mean_latency_us: f64,
    /// Transmissions lost (dropped, corrupted, or refused) across all
    /// samples.
    pub packets_dropped: u64,
    /// Transmissions that arrived corrupted and were NACKed.
    pub packets_corrupted: u64,
    /// Retransmissions scheduled.
    pub retransmits: u64,
    /// Packet copies abandoned after the attempt budget.
    pub deliveries_abandoned: u64,
    /// Total time (µs) spent waiting on acknowledgement timeouts.
    pub recovery_wait_us: f64,
    /// Orphaned subtrees re-attached by *pre-run* tree repair across all
    /// samples (zero under live repair, whose re-attachments happen inside
    /// the run).
    pub reattached: u64,
    /// Live repair epochs triggered across all samples (zero unless
    /// [`FaultPlanSpec::live_repair`]).
    pub repairs: u64,
    /// Packets re-issued by the source over repaired trees.
    pub reissued_packets: u64,
    /// Total time (µs) between failure and the source triggering repair.
    pub repair_wait_us: f64,
    /// Delivered samples that needed at least one live repair epoch.
    pub reached_after_repair: u32,
    /// Crashed destinations written off by live repair across delivered
    /// samples (they were unreachable, not abandoned: the run still
    /// succeeds for the surviving membership).
    pub unreachable_crashed: u64,
}

/// The full chaos grid: every `(drop rate, crash count)` cell plus the
/// methodology that produced it, renderable as the unified figure JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
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
    /// The base fault spec (its seed feeds every sample's fault stream).
    pub fault: FaultPlanSpec,
    /// The swept drop rates, in input order.
    pub drop_rates: Vec<f64>,
    /// The swept crash counts, in input order.
    pub crash_counts: Vec<u32>,
    /// Row-major cells: `cells[d * crash_counts.len() + c]`.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// The cell at drop-rate index `d` and crash-count index `c`.
    pub fn cell(&self, d: usize, c: usize) -> &ChaosCell {
        &self.cells[d * self.crash_counts.len() + c]
    }

    /// True when every sample of every cell reached all surviving
    /// destinations — the grid-wide all-reached invariant.
    pub fn all_reached(&self) -> bool {
        self.cells.iter().all(|cell| cell.failed == 0)
    }

    /// Renders the report in the unified figure JSON schema: `meta` with
    /// the methodology, a `cells` table, and a `figure` charting mean
    /// delivered latency against drop rate (one series per crash count).
    ///
    /// Keys for the newer fault axes (live repair, crash instant, link
    /// outages, buffer capacity) are emitted only when the axis is active,
    /// so reports from a default spec stay byte-identical to the committed
    /// goldens. The document deliberately omits worker/thread counts:
    /// identical seeds must produce byte-identical reports at any
    /// parallelism.
    pub fn to_json(&self) -> Json {
        let series = self
            .crash_counts
            .iter()
            .enumerate()
            .map(|(c, &crashes)| Series {
                label: format!("{crashes} crashed"),
                points: self
                    .drop_rates
                    .iter()
                    .enumerate()
                    .map(|(d, &rate)| (rate, self.cell(d, c).mean_latency_us))
                    .collect(),
            })
            .collect();
        let chart = Figure {
            id: "chaos".into(),
            title: "Mean delivered multicast latency under faults".into(),
            x_label: "drop rate".into(),
            y_label: "latency (us)".into(),
            series,
        };
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
        ];
        if self.fault.live_repair {
            meta.push(("live_repair", Json::from(true)));
            meta.push(("crash_at_us", Json::from(self.fault.crash_at_us)));
        }
        if self.fault.link_outages > 0 {
            meta.push(("link_outages", Json::from(self.fault.link_outages)));
            meta.push(("outage_from_us", Json::from(self.fault.outage_from_us)));
            meta.push(("outage_until_us", Json::from(self.fault.outage_until_us)));
        }
        if let Some(cap) = self.fault.ni_buffer_capacity {
            meta.push(("ni_buffer_capacity", Json::from(cap)));
        }
        meta.push(("drop_rates", Json::from(self.drop_rates.as_slice())));
        meta.push(("crash_counts", Json::from(self.crash_counts.as_slice())));
        meta.push(("all_reached", Json::from(self.all_reached())));
        Json::obj(vec![
            ("id", Json::from("chaos")),
            ("meta", Json::obj(meta)),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|cell| cell_json(cell, self.fault.live_repair))
                        .collect(),
                ),
            ),
            ("figure", chart.to_json()),
        ])
    }
}

fn cell_json(cell: &ChaosCell, live_repair: bool) -> Json {
    let mut fields = vec![
        ("drop_rate", Json::from(cell.drop_rate)),
        ("crashes", Json::from(cell.crashes)),
        ("samples", Json::from(cell.samples)),
        ("delivered", Json::from(cell.delivered)),
        ("failed", Json::from(cell.failed)),
        ("unreached", Json::from(cell.unreached)),
        ("mean_latency_us", Json::from(cell.mean_latency_us)),
        ("packets_dropped", Json::from(cell.packets_dropped)),
        ("packets_corrupted", Json::from(cell.packets_corrupted)),
        ("retransmits", Json::from(cell.retransmits)),
        (
            "deliveries_abandoned",
            Json::from(cell.deliveries_abandoned),
        ),
        ("recovery_wait_us", Json::from(cell.recovery_wait_us)),
        ("reattached", Json::from(cell.reattached)),
    ];
    if live_repair {
        fields.push(("repairs", Json::from(cell.repairs)));
        fields.push(("reissued_packets", Json::from(cell.reissued_packets)));
        fields.push(("repair_wait_us", Json::from(cell.repair_wait_us)));
        fields.push((
            "reached_after_repair",
            Json::from(cell.reached_after_repair),
        ));
        fields.push(("unreachable_crashed", Json::from(cell.unreachable_crashed)));
    }
    Json::obj(fields)
}

impl ChaosCell {
    /// The cell at `(drop_rate, crashes)` from its folded tally.
    fn from_tally(drop_rate: f64, crashes: u32, samples: u32, tally: Tally) -> Self {
        let c = &tally.counters;
        ChaosCell {
            drop_rate,
            crashes,
            samples,
            delivered: tally.delivered,
            failed: tally.failed,
            unreached: tally.unreached,
            mean_latency_us: tally.mean_latency_us(),
            packets_dropped: c.packets_dropped,
            packets_corrupted: c.packets_corrupted,
            retransmits: c.retransmits,
            deliveries_abandoned: c.deliveries_abandoned,
            recovery_wait_us: c.recovery_wait_us,
            reattached: tally.reattached,
            repairs: c.repairs,
            reissued_packets: c.reissued_packets,
            repair_wait_us: c.repair_wait_us,
            reached_after_repair: tally.reached_after_repair,
            unreachable_crashed: tally.unreachable_crashed,
        }
    }
}

/// Where [`Tally::record`] counts the destinations a *delivered* run wrote
/// off (`WorkloadOutcome::unreached`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum WriteOffs {
    /// Offline repair: not counted (the crashed hosts were never bound).
    Ignore,
    /// Live repair: crashed destinations, as `unreachable_crashed`.
    Crashed,
    /// Windowed ARQ: deadline write-offs, as `unreached`.
    Unreached,
}

/// The fault-grid aggregate: one topology's samples, then (folded with
/// `+=` in topology order) one whole cell.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) delivered: u32,
    pub(crate) failed: u32,
    pub(crate) unreached: u64,
    pub(crate) latency_sum: f64,
    pub(crate) reattached: u64,
    pub(crate) reached_after_repair: u32,
    pub(crate) unreachable_crashed: u64,
    pub(crate) counters: SimCounters,
}

impl Tally {
    /// Folds one sample's run in: its effort into the engine totals, its
    /// counters (delivered or not), and its verdict.
    pub(crate) fn record(
        &mut self,
        sweep: &Sweep,
        run: Result<&WorkloadOutcome, SimError>,
        write_offs: WriteOffs,
    ) {
        let counters = match &run {
            Ok(out) => {
                self.delivered += 1;
                self.latency_sum += out.jobs[0].latency_us;
                let written_off = out.unreached.len() as u64;
                match write_offs {
                    WriteOffs::Ignore => {}
                    WriteOffs::Crashed => {
                        if out.counters.repairs > 0 {
                            self.reached_after_repair += 1;
                        }
                        self.unreachable_crashed += written_off;
                    }
                    WriteOffs::Unreached => self.unreached += written_off,
                }
                &out.counters
            }
            Err(SimError::DeliveryFailed {
                unreached,
                counters,
            }) => {
                self.failed += 1;
                self.unreached += unreached.len() as u64;
                &**counters
            }
            Err(other) => unreachable!("validated fault plan rejected: {other}"),
        };
        sweep.record_effort(counters.events, counters.peak_queue_len);
        self.counters += counters;
    }

    /// Mean latency (µs) over delivered samples; `0.0` if none delivered.
    pub(crate) fn mean_latency_us(&self) -> f64 {
        if self.delivered > 0 {
            self.latency_sum / f64::from(self.delivered)
        } else {
            0.0
        }
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.delivered += rhs.delivered;
        self.failed += rhs.failed;
        self.unreached += rhs.unreached;
        self.latency_sum += rhs.latency_sum;
        self.reattached += rhs.reattached;
        self.reached_after_repair += rhs.reached_after_repair;
        self.unreachable_crashed += rhs.unreachable_crashed;
        self.counters += &rhs.counters;
    }
}

impl Sweep {
    /// Evaluates the chaos grid: every `(drop rate, crash count)` pair from
    /// the cartesian product of the two axes, sampled with the §5.2
    /// methodology on the optimal k-binomial tree, under the base fault
    /// spec from [`crate::SweepConfig::fault`]. Cells fan out across the
    /// configured workers; the report is bit-identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`SweepError::ZeroPackets`], [`SweepError::TooManyDests`],
    /// [`SweepError::InvalidFaultSpec`] (a swept drop rate outside
    /// `[0, 1)`), or [`SweepError::TooManyCrashes`] (a crash count must
    /// leave at least one destination alive).
    pub fn chaos(
        &self,
        drop_rates: &[f64],
        crash_counts: &[u32],
        dests: u32,
        m: u32,
    ) -> Result<ChaosReport, SweepError> {
        self.chaos_with_spec(self.config().fault(), drop_rates, crash_counts, dests, m)
    }

    /// [`Self::chaos`] with an explicit base fault spec overriding the
    /// builder's [`crate::SweepConfig::fault`]. The chaos-axis figures use
    /// this to sweep spec fields (outage windows, corruption rates, buffer
    /// capacities) point by point while reusing one engine's memoized
    /// topologies, trees, and worker pool.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::chaos`], plus
    /// [`SweepError::InvalidFaultSpec`] for a malformed override spec.
    pub fn chaos_with_spec(
        &self,
        fault: FaultPlanSpec,
        drop_rates: &[f64],
        crash_counts: &[u32],
        dests: u32,
        m: u32,
    ) -> Result<ChaosReport, SweepError> {
        crate::config::validate_fault_spec(&fault)?;
        self.check_point(m, dests, drop_rates)?;
        for &c in crash_counts {
            if c >= dests {
                return Err(SweepError::TooManyCrashes { crashes: c, dests });
            }
        }
        let cfg = *self.config();
        let dims = [drop_rates.len(), crash_counts.len()];
        let cells = self
            .fold_cells(dims.iter().product(), |cell, t| {
                let [d, c] = unravel(cell, dims);
                let spec = FaultPlanSpec {
                    drop_rate: drop_rates[d],
                    crashes: crash_counts[c],
                    ..fault
                };
                self.chaos_topology(spec, dests, m, t)
            })
            .into_iter()
            .enumerate()
            .map(|(cell, tally)| {
                let [d, c] = unravel(cell, dims);
                ChaosCell::from_tally(drop_rates[d], crash_counts[c], cfg.samples(), tally)
            })
            .collect();
        Ok(ChaosReport {
            dests,
            m,
            topologies: cfg.topologies(),
            dest_sets: cfg.dest_sets(),
            base_seed: cfg.base_seed(),
            fault,
            drop_rates: drop_rates.to_vec(),
            crash_counts: crash_counts.to_vec(),
            cells,
        })
    }

    /// One cell's samples on topology `t`, evaluated sequentially in
    /// destination-set order (the fixed floating-point order).
    fn chaos_topology(&self, spec: FaultPlanSpec, dests: u32, m: u32, t: u32) -> Tally {
        let cfg = *self.config();
        let topo = self.topology(t);
        let mut tally = Tally::default();
        let (mut arena, mut out) = (SimArena::new(), WorkloadOutcome::default());
        for s in 0..cfg.dest_sets() {
            let salt = cfg.set_seed(t, s);
            let chain = sample_chain(&topo.net, &topo.ordering, salt, dests);
            let n = chain.len() as u32;
            let tree = self.tree(TreePolicy::OptimalKBinomial, n, m);

            // Crash a deterministic subset of the destination ranks. The
            // draw depends only on (salt, fault seed) — not on the drop
            // rate — so cells in one column share crash sets and a shuffle
            // prefix makes them nested across crash counts: the grid uses
            // common random numbers along both axes.
            let mut ranks: Vec<Rank> = (1..n).map(Rank).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(
                salt.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(spec.seed),
            );
            ranks.shuffle(&mut rng);
            let failed: Vec<Rank> = ranks[..spec.crashes as usize].to_vec();

            // Link-outage channels come from the same stream *after* the
            // crash shuffle, so enabling the outage axis never changes a
            // cell's crash sets.
            let outages: Vec<LinkFailure> = if spec.link_outages > 0 {
                let channels = u64::from(topo.net.num_channels());
                let wanted = u64::from(spec.link_outages).min(channels) as usize;
                let mut chosen: Vec<ChannelId> = Vec::with_capacity(wanted);
                while chosen.len() < wanted {
                    let c = ChannelId((rng.next_u64() % channels) as u32);
                    if !chosen.contains(&c) {
                        chosen.push(c);
                    }
                }
                chosen
                    .into_iter()
                    .map(|channel| LinkFailure {
                        channel,
                        from_us: spec.outage_from_us,
                        until_us: spec.outage_until_us,
                    })
                    .collect()
            } else {
                Vec::new()
            };

            let crashes: Vec<HostCrash> = failed
                .iter()
                .map(|&r| HostCrash {
                    host: chain[r.index()],
                    at_us: spec.crash_at_us,
                })
                .collect();
            let plan = spec.plan_with_outages(salt, crashes, outages);

            let (job, write_offs) = if spec.live_repair {
                // Bind the FULL membership: the drawn hosts crash mid-run
                // and the simulator repairs around them live.
                (MulticastJob::fpfs(tree, chain, m), WriteOffs::Crashed)
            } else {
                let repair = tree
                    .repair(&failed)
                    .expect("crash sets exclude the source and are in range");
                tally.reattached += u64::from(repair.reattached);
                let binding: Vec<HostId> = repair
                    .new_to_old
                    .iter()
                    .map(|&old| chain[old.index()])
                    .collect();
                (
                    MulticastJob::fpfs(repair.tree, binding, m),
                    WriteOffs::Ignore,
                )
            };
            let run = SimRun::new(
                &topo.net,
                std::slice::from_ref(&job),
                cfg.params(),
                WorkloadConfig::default(),
            )
            .faults(&plan)
            .run_into(&mut arena, &mut out)
            .map(|()| &out);
            tally.record(self, run, write_offs);
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;
    use optimcast_netsim::RunConfig;

    fn lossy(seed: u64) -> FaultPlanSpec {
        FaultPlanSpec {
            seed,
            ..FaultPlanSpec::default()
        }
    }

    #[test]
    fn clean_cell_matches_the_fault_free_engine() {
        let sweep = SweepBuilder::quick().fault(lossy(7)).build().unwrap();
        let report = sweep.chaos(&[0.0], &[0], 15, 2).unwrap();
        let cell = report.cell(0, 0);
        assert_eq!(cell.failed, 0);
        assert_eq!(cell.delivered, sweep.config().samples());
        assert_eq!(
            (cell.packets_dropped, cell.retransmits, cell.reattached),
            (0, 0, 0)
        );
        // The (d = 0, c = 0) corner is the ordinary optimal-k sweep: its
        // mean must equal the fault-free engine's bit-for-bit.
        let clean = sweep
            .avg_latency(TreePolicy::OptimalKBinomial, 15, 2, RunConfig::default())
            .unwrap();
        assert_eq!(cell.mean_latency_us.to_bits(), clean.to_bits());
        // A default-spec report must not leak the live-repair JSON schema:
        // the committed goldens pin the old key set byte-for-byte.
        let json = report.to_json().to_string_pretty();
        for key in ["live_repair", "repairs", "unreachable_crashed"] {
            assert!(!json.contains(key), "default report leaked {key:?}");
        }
    }

    #[test]
    fn drops_cost_latency_and_crashes_shrink_the_tree() {
        let sweep = SweepBuilder::quick().fault(lossy(11)).build().unwrap();
        let report = sweep.chaos(&[0.0, 0.1], &[0, 3], 15, 2).unwrap();
        let clean = report.cell(0, 0);
        let dropped = report.cell(1, 0);
        assert!(dropped.retransmits > 0);
        assert!(dropped.recovery_wait_us > 0.0);
        assert!(
            dropped.mean_latency_us > clean.mean_latency_us,
            "10% loss must slow the multicast: {} <= {}",
            dropped.mean_latency_us,
            clean.mean_latency_us
        );
        let crashed = report.cell(0, 1);
        assert!(crashed.reattached > 0, "3 crashes never orphaned a subtree");
        assert_eq!(crashed.failed, 0, "repaired runs must still deliver");
    }

    #[test]
    fn chaos_is_byte_identical_across_workers() {
        let json_for = |threads: usize| {
            let sweep = SweepBuilder::quick()
                .fault(lossy(42))
                .parallelism(threads)
                .build()
                .unwrap();
            sweep
                .chaos(&[0.0, 0.08], &[0, 2], 15, 2)
                .unwrap()
                .to_json()
                .to_string_pretty()
        };
        let serial = json_for(1);
        assert_eq!(serial, json_for(4), "4 workers diverged");
    }

    #[test]
    fn live_repair_rescues_mid_run_crashes() {
        // Acceptance scenario: drop rate 0, hosts crash mid-run *before*
        // any packet lands (t_s = 12.5 µs > crash at 5 µs). Without a
        // repair policy every crashed interior node would strand its
        // subtree as SimError::DeliveryFailed; with live repair every run
        // completes, reaching all survivors and writing off the crashed.
        let spec = FaultPlanSpec {
            seed: 7,
            live_repair: true,
            crash_at_us: 5.0,
            ..FaultPlanSpec::default()
        };
        let sweep = SweepBuilder::quick().fault(spec).build().unwrap();
        let report = sweep.chaos(&[0.0], &[0, 2], 15, 2).unwrap();
        let samples = sweep.config().samples();

        let clean = report.cell(0, 0);
        assert_eq!(clean.delivered, samples);
        assert_eq!((clean.repairs, clean.unreachable_crashed), (0, 0));

        let crashed = report.cell(0, 1);
        assert_eq!(crashed.failed, 0, "live repair must rescue every run");
        assert_eq!(crashed.delivered, samples);
        assert!(crashed.repairs > 0, "no sample drew an interior crash");
        assert!(crashed.reissued_packets > 0);
        assert!(crashed.repair_wait_us > 0.0);
        assert!(crashed.reached_after_repair > 0);
        // Both crashed destinations of every sample are written off: they
        // died before the first arrival, so none can have been reached.
        assert_eq!(crashed.unreachable_crashed, u64::from(2 * samples));
        assert!(report.all_reached());
        let json = report.to_json().to_string_pretty();
        for key in ["live_repair", "repairs", "reached_after_repair"] {
            assert!(json.contains(key), "live-repair report missing {key:?}");
        }
    }

    #[test]
    fn live_repair_chaos_is_byte_identical_across_workers() {
        let json_for = |threads: usize| {
            let spec = FaultPlanSpec {
                seed: 42,
                live_repair: true,
                crash_at_us: 5.0,
                ..FaultPlanSpec::default()
            };
            let sweep = SweepBuilder::quick()
                .fault(spec)
                .parallelism(threads)
                .build()
                .unwrap();
            sweep
                .chaos(&[0.0, 0.05], &[0, 2], 15, 2)
                .unwrap()
                .to_json()
                .to_string_pretty()
        };
        let serial = json_for(1);
        assert_eq!(serial, json_for(8), "8 workers diverged under repair");
    }

    #[test]
    fn chaos_axes_cover_outages_corruption_and_buffer_pressure() {
        // The remaining FaultPlan axes — link-outage windows, corruption,
        // and NI buffer capacity — ride on the base spec under the grid.
        let spec = FaultPlanSpec {
            seed: 13,
            corrupt_rate: 0.05,
            link_outages: 2,
            outage_from_us: 0.0,
            outage_until_us: 40.0,
            ni_buffer_capacity: Some(2),
            ..FaultPlanSpec::default()
        };
        let sweep = SweepBuilder::quick().fault(spec).build().unwrap();
        let report = sweep.chaos(&[0.0], &[0], 15, 4).unwrap();
        let cell = report.cell(0, 0);
        assert!(cell.packets_corrupted > 0, "5% corruption never fired");
        assert!(
            cell.retransmits > 0,
            "outage windows and corruption never forced a retransmit"
        );
        let json = report.to_json().to_string_pretty();
        for key in ["link_outages", "outage_until_us", "ni_buffer_capacity"] {
            assert!(json.contains(key), "axis metadata missing {key:?}");
        }
        // The same spec at two worker counts stays byte-identical.
        let rerun = SweepBuilder::quick()
            .fault(spec)
            .parallelism(4)
            .build()
            .unwrap();
        let parallel = rerun.chaos(&[0.0], &[0], 15, 4).unwrap();
        assert_eq!(
            json,
            parallel.to_json().to_string_pretty(),
            "4 workers diverged on the extended axes"
        );
    }

    #[test]
    fn chaos_rejects_bad_axes() {
        let sweep = SweepBuilder::quick().build().unwrap();
        assert_eq!(
            sweep.chaos(&[0.0], &[0], 15, 0),
            Err(SweepError::ZeroPackets)
        );
        assert_eq!(
            sweep.chaos(&[0.0], &[0], 64, 2),
            Err(SweepError::TooManyDests {
                dests: 64,
                hosts: 64
            })
        );
        assert_eq!(
            sweep.chaos(&[1.0], &[0], 15, 2),
            Err(SweepError::InvalidFaultSpec("drop_rate must lie in [0, 1)"))
        );
        assert_eq!(
            sweep.chaos(&[0.0], &[15], 15, 2),
            Err(SweepError::TooManyCrashes {
                crashes: 15,
                dests: 15
            })
        );
    }
}
