//! The streaming sweep: churn rate × offered load × buffer depth.
//!
//! The grid drives [`optimcast_netsim::StreamRun`] with the §5.2 sampling
//! methodology (same topologies, destination sets, optimal-k trees as the
//! latency figures): each sample streams `frames` frames of `frame_bytes`
//! bytes, fragmented at `mtu_bytes`, to the sampled destination chain.
//!
//! * **Offered load** is normalised to the sample's nominal frame service
//!   time `T` — the analytic FPFS latency of one frame on the sample's
//!   optimal k-binomial tree. The inter-frame gap is `T / load`, so
//!   `load < 1` underloads the source, `load = 1` saturates it, and
//!   `load > 1` overloads it (frames queue and, with a bound, drop).
//! * **Buffer depth** bounds the source's frame buffer; admitting to a
//!   full buffer evicts the **oldest** queued frame (drop-oldest; `0`
//!   means unbounded).
//! * **Churn** schedules that many PRF-deterministic membership toggles
//!   per stream (the churn seed is derived from the sample salt), spliced
//!   live through `Membership` (`add_rank` joins, `repair` leaves).
//!
//! The charted quantities are the streaming analogues of latency:
//! per-receiver **sustained goodput** (Mbit/s over the stream duration),
//! **frame staleness** (delivery completion minus emission — queueing
//! delay included), and the **drop rate** the backpressure policy paid.
//!
//! Like every sweep, cells fan out over the worker pool with a fixed
//! floating-point reduction order: the emitted JSON is byte-identical for
//! every thread count and records no thread count.

use crate::engine::{unravel, Sweep};
use crate::error::SweepError;
use crate::figure::{Figure, Series};
use crate::json::{Json, ToJson};
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_core::latency::smart_latency_us;
use optimcast_core::schedule::fpfs_schedule;
use optimcast_core::tree::MulticastTree;
use optimcast_netsim::{FrameFate, SimArena, StreamRun, StreamSpec};
use std::ops::AddAssign;
use std::sync::Arc;

/// Seed salt mixed into each sample's churn plan so the membership stream
/// is independent of the fault and topology streams.
const CHURN_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// The streaming grid axes and per-sample stream shape.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamGrid {
    /// Churn events per stream (axis).
    pub churn_levels: Vec<u32>,
    /// Offered load relative to the nominal frame service time (axis).
    pub loads: Vec<f64>,
    /// Source buffer bounds in frames, `0` = unbounded (axis).
    pub buffer_depths: Vec<u32>,
    /// Destinations per sample (participants = `dests + 1`).
    pub dests: u32,
    /// Bytes per frame.
    pub frame_bytes: u32,
    /// MTU in bytes; a frame is `ceil(frame_bytes / mtu_bytes)` packets.
    pub mtu_bytes: u32,
    /// Frames emitted per stream.
    pub frames: u32,
}

impl StreamGrid {
    /// The committed-figure grid: three churn levels × three loads
    /// (under, at, and past saturation) × three buffer depths, on the
    /// §5 message shape (256-byte frames at the paper's 64-byte MTU).
    pub fn paper() -> Self {
        StreamGrid {
            churn_levels: vec![0, 4, 8],
            loads: vec![0.5, 1.0, 2.0],
            buffer_depths: vec![1, 4, 16],
            dests: 31,
            frame_bytes: 256,
            mtu_bytes: 64,
            frames: 16,
        }
    }

    /// A smoke-sized grid for CI and `--quick` runs.
    pub fn quick() -> Self {
        StreamGrid {
            churn_levels: vec![0, 4],
            loads: vec![0.5, 1.5],
            buffer_depths: vec![1, 4],
            dests: 15,
            frame_bytes: 256,
            mtu_bytes: 64,
            frames: 8,
        }
    }

    fn validate(&self, hosts: u32) -> Result<(), SweepError> {
        let err = SweepError::InvalidStreamAxis;
        if self.churn_levels.is_empty() || self.loads.is_empty() || self.buffer_depths.is_empty() {
            return Err(err("every axis needs at least one value"));
        }
        for &load in &self.loads {
            if !(load > 0.0 && load.is_finite()) {
                return Err(err("offered load must be positive and finite"));
            }
        }
        if self.frame_bytes == 0 || self.mtu_bytes == 0 {
            return Err(err("frame and MTU sizes must be at least one byte"));
        }
        if self.frames == 0 {
            return Err(err("a stream emits at least one frame"));
        }
        if self.dests == 0 {
            return Err(err("a stream needs at least one destination"));
        }
        if self.dests >= hosts {
            return Err(SweepError::TooManyDests {
                dests: self.dests,
                hosts,
            });
        }
        Ok(())
    }
}

/// Aggregated outcome of one `(churn, load, buffer)` cell over the full
/// `topologies × dest_sets` sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCell {
    /// Churn events per stream of this cell.
    pub churn_events: u32,
    /// Offered load of this cell.
    pub load: f64,
    /// Source buffer bound of this cell (`0` = unbounded).
    pub buffer_frames: u32,
    /// Samples evaluated (`topologies × dest_sets`).
    pub samples: u32,
    /// Frames emitted across all samples.
    pub emitted: u64,
    /// Frames multicast to the group.
    pub served: u64,
    /// Frames evicted by the drop-oldest policy.
    pub dropped: u64,
    /// `dropped / emitted`.
    pub drop_rate: f64,
    /// Churn joins applied across all samples.
    pub joins: u64,
    /// Churn leaves applied across all samples.
    pub leaves: u64,
    /// Churn leaves skipped at the minimum group size.
    pub churn_skipped: u64,
    /// Mean over samples of the per-sample receiver-mean sustained
    /// goodput (Mbit/s).
    pub mean_goodput_mbps: f64,
    /// Mean staleness of delivered frames (µs), averaged per sample then
    /// over samples.
    pub mean_staleness_us: f64,
    /// Worst staleness of any delivered frame in any sample (µs).
    pub max_staleness_us: f64,
}

/// The full streaming grid plus the methodology that produced it,
/// renderable as the unified figure JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The grid evaluated.
    pub grid: StreamGrid,
    /// Topologies averaged per cell.
    pub topologies: u32,
    /// Destination sets per topology.
    pub dest_sets: u32,
    /// Base RNG seed of the sweep.
    pub base_seed: u64,
    /// Axis-major cells:
    /// `cells[(c * loads.len() + l) * buffer_depths.len() + b]`.
    pub cells: Vec<StreamCell>,
}

impl StreamReport {
    /// The cell at churn index `c`, load index `l`, buffer index `b`.
    pub fn cell(&self, c: usize, l: usize, b: usize) -> &StreamCell {
        &self.cells[(c * self.grid.loads.len() + l) * self.grid.buffer_depths.len() + b]
    }

    /// The chart behind the report: mean frame staleness against offered
    /// load, one series per `(churn, buffer)` combination.
    pub fn figure(&self) -> Figure {
        let mut series = Vec::new();
        for (c, &churn) in self.grid.churn_levels.iter().enumerate() {
            for (b, &buffer) in self.grid.buffer_depths.iter().enumerate() {
                series.push(Series {
                    label: format!("churn={churn} buf={}", buffer_label(buffer)),
                    points: self
                        .grid
                        .loads
                        .iter()
                        .enumerate()
                        .map(|(l, &load)| (load, self.cell(c, l, b).mean_staleness_us))
                        .collect(),
                });
            }
        }
        Figure {
            id: "streaming".into(),
            title: "Frame staleness under churn, load, and backpressure".into(),
            x_label: "offered load (x nominal service)".into(),
            y_label: "mean staleness (us)".into(),
            series,
        }
    }

    /// Renders the report in the unified figure JSON schema: `meta` with
    /// the methodology, a `cells` table, and the staleness figure. The
    /// document deliberately omits worker/thread counts: identical seeds
    /// must produce byte-identical reports at any parallelism.
    pub fn to_json(&self) -> Json {
        let chart = self.figure();
        let meta = vec![
            ("dests", Json::from(self.grid.dests)),
            ("frame_bytes", Json::from(self.grid.frame_bytes)),
            ("mtu_bytes", Json::from(self.grid.mtu_bytes)),
            ("frames", Json::from(self.grid.frames)),
            ("topologies", Json::from(self.topologies)),
            ("dest_sets", Json::from(self.dest_sets)),
            ("base_seed", Json::from(self.base_seed)),
            (
                "churn_levels",
                Json::from(self.grid.churn_levels.as_slice()),
            ),
            ("loads", Json::from(self.grid.loads.as_slice())),
            (
                "buffer_depths",
                Json::from(self.grid.buffer_depths.as_slice()),
            ),
        ];
        Json::obj(vec![
            ("id", Json::from("streaming")),
            ("meta", Json::obj(meta)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(stream_cell_json).collect()),
            ),
            ("figure", chart.to_json()),
        ])
    }
}

fn buffer_label(frames: u32) -> String {
    if frames == 0 {
        "inf".into()
    } else {
        frames.to_string()
    }
}

fn stream_cell_json(cell: &StreamCell) -> Json {
    Json::obj(vec![
        ("churn_events", Json::from(cell.churn_events)),
        ("load", Json::from(cell.load)),
        ("buffer_frames", Json::from(cell.buffer_frames)),
        ("samples", Json::from(cell.samples)),
        ("emitted", Json::from(cell.emitted)),
        ("served", Json::from(cell.served)),
        ("dropped", Json::from(cell.dropped)),
        ("drop_rate", Json::from(cell.drop_rate)),
        ("joins", Json::from(cell.joins)),
        ("leaves", Json::from(cell.leaves)),
        ("churn_skipped", Json::from(cell.churn_skipped)),
        ("mean_goodput_mbps", Json::from(cell.mean_goodput_mbps)),
        ("mean_staleness_us", Json::from(cell.mean_staleness_us)),
        ("max_staleness_us", Json::from(cell.max_staleness_us)),
    ])
}

/// Per-topology partial aggregate of one cell; combined across topologies
/// in index order so reductions are independent of scheduling.
#[derive(Default)]
struct StreamAgg {
    emitted: u64,
    served: u64,
    dropped: u64,
    joins: u64,
    leaves: u64,
    churn_skipped: u64,
    /// Sum over samples of the per-sample receiver-mean goodput.
    goodput_sum: f64,
    /// Sum over samples of the per-sample mean staleness.
    stale_sum: f64,
    stale_max: f64,
}

impl AddAssign for StreamAgg {
    fn add_assign(&mut self, rhs: StreamAgg) {
        self.emitted += rhs.emitted;
        self.served += rhs.served;
        self.dropped += rhs.dropped;
        self.joins += rhs.joins;
        self.leaves += rhs.leaves;
        self.churn_skipped += rhs.churn_skipped;
        self.goodput_sum += rhs.goodput_sum;
        self.stale_sum += rhs.stale_sum;
        self.stale_max = self.stale_max.max(rhs.stale_max);
    }
}

impl StreamCell {
    /// The cell at `(churn, load, buffer)` from its folded aggregate.
    fn from_agg(
        churn_events: u32,
        load: f64,
        buffer_frames: u32,
        samples: u32,
        agg: StreamAgg,
    ) -> Self {
        StreamCell {
            churn_events,
            load,
            buffer_frames,
            samples,
            emitted: agg.emitted,
            served: agg.served,
            dropped: agg.dropped,
            drop_rate: agg.dropped as f64 / agg.emitted as f64,
            joins: agg.joins,
            leaves: agg.leaves,
            churn_skipped: agg.churn_skipped,
            mean_goodput_mbps: agg.goodput_sum / f64::from(samples),
            mean_staleness_us: agg.stale_sum / f64::from(samples),
            max_staleness_us: agg.stale_max,
        }
    }
}

impl Sweep {
    /// Evaluates the streaming grid: churn rate × offered load × buffer
    /// depth, sampled with the §5.2 methodology on the optimal k-binomial
    /// tree. Cells fan out across the configured workers; the report is
    /// bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// [`SweepError::InvalidStreamAxis`] for an empty axis, a non-positive
    /// or non-finite load, a zero-byte frame or MTU, zero frames, or zero
    /// destinations; [`SweepError::TooManyDests`] when the network cannot
    /// seat `dests + 1` participants.
    pub fn streaming(&self, grid: &StreamGrid) -> Result<StreamReport, SweepError> {
        let cfg = *self.config();
        grid.validate(cfg.net().hosts)?;
        let dims = [
            grid.churn_levels.len(),
            grid.loads.len(),
            grid.buffer_depths.len(),
        ];
        let cells = self
            .fold_cells(dims.iter().product(), |cell, t| {
                let [c, l, b] = unravel(cell, dims);
                self.stream_topology(
                    grid,
                    grid.churn_levels[c],
                    grid.loads[l],
                    grid.buffer_depths[b],
                    t,
                )
            })
            .into_iter()
            .enumerate()
            .map(|(cell, agg)| {
                let [c, l, b] = unravel(cell, dims);
                StreamCell::from_agg(
                    grid.churn_levels[c],
                    grid.loads[l],
                    grid.buffer_depths[b],
                    cfg.samples(),
                    agg,
                )
            })
            .collect();

        Ok(StreamReport {
            grid: grid.clone(),
            topologies: cfg.topologies(),
            dest_sets: cfg.dest_sets(),
            base_seed: cfg.base_seed(),
            cells,
        })
    }

    /// One streaming cell's samples on topology `t`, evaluated
    /// sequentially in destination-set order (the fixed floating-point
    /// order).
    fn stream_topology(
        &self,
        grid: &StreamGrid,
        churn: u32,
        load: f64,
        buffer: u32,
        t: u32,
    ) -> StreamAgg {
        let cfg = *self.config();
        let topo = self.topology(t);
        let packets = grid.frame_bytes.div_ceil(grid.mtu_bytes);
        let mut agg = StreamAgg::default();
        // The last sample's memoized tree and its nominal service time: the
        // samples share one group size, hence one tree, so the schedule is
        // computed once per call rather than once per sample.
        let mut nominal: Option<(Arc<MulticastTree>, f64)> = None;
        // One simulator arena serves every epoch of every sample.
        let mut arena = SimArena::new();
        for s in 0..cfg.dest_sets() {
            let salt = cfg.set_seed(t, s);
            let chain = sample_chain(&topo.net, &topo.ordering, salt, grid.dests);
            let n = chain.len() as u32;
            // Nominal frame service time on the optimal tree for this
            // sample's shape, as the latency figures chart it.
            let tree = self.tree(TreePolicy::OptimalKBinomial, n, packets);
            let k = tree.max_degree().max(1);
            let nominal_us = match &nominal {
                Some((seen, us)) if Arc::ptr_eq(seen, &tree) => *us,
                _ => {
                    let us = smart_latency_us(&fpfs_schedule(&tree, packets), cfg.params());
                    nominal = Some((tree, us));
                    us
                }
            };
            let spec = StreamSpec {
                frame_bytes: grid.frame_bytes,
                mtu_bytes: grid.mtu_bytes,
                gap_us: nominal_us / load,
                frames: grid.frames,
                buffer_frames: buffer,
                churn_events: churn,
                churn_seed: salt.wrapping_mul(CHURN_SALT).wrapping_add(u64::from(churn)),
                keep_frame_outcomes: false,
            };
            let out = StreamRun::new(&topo.net, &chain, n, k, cfg.params(), spec)
                .run_in(&mut arena)
                .expect("validated streaming sample completes");
            self.record_effort(out.events, out.peak_queue_len);

            agg.emitted += u64::from(grid.frames);
            agg.served += u64::from(out.served);
            agg.dropped += u64::from(out.dropped);
            agg.joins += u64::from(out.joins);
            agg.leaves += u64::from(out.leaves);
            agg.churn_skipped += u64::from(out.churn_skipped);
            if !out.receivers.is_empty() {
                agg.goodput_sum += out.receivers.iter().map(|r| r.goodput_mbps).sum::<f64>()
                    / out.receivers.len() as f64;
            }
            let (mut stale_sum, mut served) = (0.0, 0u32);
            for f in &out.frames {
                if let FrameFate::Delivered { completion_us, .. } = f.fate {
                    let staleness = completion_us - f.emitted_us;
                    stale_sum += staleness;
                    served += 1;
                    agg.stale_max = agg.stale_max.max(staleness);
                }
            }
            if served > 0 {
                agg.stale_sum += stale_sum / f64::from(served);
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    fn sweep(threads: usize) -> Sweep {
        SweepBuilder::quick().parallelism(threads).build().unwrap()
    }

    #[test]
    fn streaming_report_is_byte_identical_across_workers() {
        let grid = StreamGrid::quick();
        let baseline = sweep(1).streaming(&grid).unwrap();
        let base_json = baseline.to_json().to_string_pretty();
        for threads in [4usize, 8] {
            let other = sweep(threads).streaming(&grid).unwrap();
            assert_eq!(baseline, other, "{threads} workers diverged");
            assert_eq!(base_json, other.to_json().to_string_pretty());
        }
    }

    #[test]
    fn streaming_rejects_bad_axes() {
        let s = sweep(1);
        let bad = |f: &dyn Fn(&mut StreamGrid)| {
            let mut g = StreamGrid::quick();
            f(&mut g);
            s.streaming(&g).unwrap_err()
        };
        assert!(matches!(
            bad(&|g| g.loads.clear()),
            SweepError::InvalidStreamAxis(_)
        ));
        assert!(matches!(
            bad(&|g| g.loads = vec![0.0]),
            SweepError::InvalidStreamAxis(_)
        ));
        assert!(matches!(
            bad(&|g| g.loads = vec![f64::INFINITY]),
            SweepError::InvalidStreamAxis(_)
        ));
        assert!(matches!(
            bad(&|g| g.mtu_bytes = 0),
            SweepError::InvalidStreamAxis(_)
        ));
        assert!(matches!(
            bad(&|g| g.frames = 0),
            SweepError::InvalidStreamAxis(_)
        ));
        assert!(matches!(
            bad(&|g| g.dests = 10_000),
            SweepError::TooManyDests { .. }
        ));
    }

    #[test]
    fn backpressure_and_load_behave_physically() {
        let s = sweep(1);
        let mut grid = StreamGrid::quick();
        grid.churn_levels = vec![0];
        grid.loads = vec![0.5, 2.0];
        grid.buffer_depths = vec![0, 1];
        let report = s.streaming(&grid).unwrap();
        // Unbounded buffers never drop, at any load.
        for l in 0..2 {
            assert_eq!(report.cell(0, l, 0).dropped, 0);
        }
        // Overload with a one-frame buffer drops; underload drops less.
        let under = report.cell(0, 0, 1);
        let over = report.cell(0, 1, 1);
        assert!(over.dropped > 0, "overload with buf=1 must drop");
        assert!(over.drop_rate >= under.drop_rate);
        // Staleness grows with load when frames queue.
        assert!(report.cell(0, 1, 0).mean_staleness_us > report.cell(0, 0, 0).mean_staleness_us);
        // Goodput is positive everywhere (every stream serves frames).
        for cell in &report.cells {
            assert!(cell.mean_goodput_mbps > 0.0);
            assert_eq!(cell.served + cell.dropped, cell.emitted);
        }
    }

    #[test]
    fn churn_cells_splice_members() {
        let s = sweep(1);
        let mut grid = StreamGrid::quick();
        grid.churn_levels = vec![0, 6];
        grid.loads = vec![1.0];
        grid.buffer_depths = vec![0];
        let report = s.streaming(&grid).unwrap();
        let calm = report.cell(0, 0, 0);
        assert_eq!(calm.joins + calm.leaves + calm.churn_skipped, 0);
        let churny = report.cell(1, 0, 0);
        assert!(
            churny.joins + churny.leaves + churny.churn_skipped > 0,
            "churn level 6 must apply events"
        );
    }
}
