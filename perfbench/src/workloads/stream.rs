//! `stream_churn`: `Sweep::streaming` over the paper's streaming grid —
//! churn {0, 4, 8} × load {0.5, 1, 2} × buffer {1, 4, 16}, 31 destinations,
//! 256-byte frames at the 64-byte MTU — with one worker, at paper sampling.
//! Each grid cell is one item; every pass starts from a fresh sweep.
//!
//! Each frame is one small un-prerouted `SimRun` over the current
//! membership tree, so per-frame set-up (route resolution, tree clone)
//! weighs far more here than in the paper sweep.

use super::{fresh_sweep, replay_sweep_setup, sweep_workers, Pass, Pin, Workload};
use crate::ledger::{HookCounter, Ledger};
use crate::stats::fnv_text;
use crate::trace::Tracer;
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::latency::smart_latency_us;
use optimcast_core::membership::Membership;
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::fpfs_schedule;
use optimcast_netsim::{
    churn_plan, FrameFate, FrameRecord, JobRoutes, MulticastJob, ReceiverStats, SimError, SimRun,
    StreamOutcome, StreamSpec, WorkloadConfig,
};
use optimcast_sweep::{
    sample_chain, StreamCell, StreamGrid, StreamReport, Sweep, SweepBuilder, SweepConfig,
    TreePolicy,
};
use optimcast_topology::graph::HostId;
use optimcast_topology::irregular::IrregularNetwork;
use std::collections::VecDeque;
use std::sync::Arc;

/// Seed salt the sweep mixes into each sample's churn plan.
const CHURN_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// The streaming grid and its pinned outcome.
pub struct StreamChurn {
    builder: SweepBuilder,
    grid: StreamGrid,
    pin: Pin,
    /// Receiver-packet deliveries of one pass, recorded with the pin (the
    /// report does not carry per-frame group sizes).
    deliveries: u64,
}

impl StreamChurn {
    /// The paper's streaming grid at 8 frames per stream.
    pub fn full() -> Self {
        StreamChurn {
            builder: SweepBuilder::paper().parallelism(1),
            grid: StreamGrid {
                frames: 8,
                ..StreamGrid::paper()
            },
            pin: Pin::Fnv(0xe6ed_f373_8586_398e),
            deliveries: 7_222_888,
        }
    }

    /// The quick grid at quick sampling.
    #[cfg(test)]
    pub fn tiny() -> Self {
        StreamChurn {
            builder: SweepBuilder::quick().parallelism(1),
            grid: StreamGrid::quick(),
            pin: Pin::Fnv(0xc3cb_1b32_ca91_477f),
            deliveries: 20_344,
        }
    }

    #[cfg(test)]
    pub fn with_pin(mut self, pin: Pin) -> Self {
        self.pin = pin;
        self
    }

    #[cfg(test)]
    pub fn pin(&self) -> Pin {
        self.pin
    }

    /// `(churn, load, buffer)` axis indices of cell `i`.
    fn axes(&self, i: usize) -> (usize, usize, usize) {
        let (loads, buffers) = (self.grid.loads.len(), self.grid.buffer_depths.len());
        (i / (loads * buffers), (i / buffers) % loads, i % buffers)
    }

    /// The one-cell grid of cell `i`.
    fn cell_grid(&self, i: usize) -> StreamGrid {
        let (c, l, b) = self.axes(i);
        StreamGrid {
            churn_levels: vec![self.grid.churn_levels[c]],
            loads: vec![self.grid.loads[l]],
            buffer_depths: vec![self.grid.buffer_depths[b]],
            ..self.grid.clone()
        }
    }

    /// Assembles the cells into the full grid's report and checks it
    /// against the pin. `counted` is the replay's own delivery count,
    /// which must equal the recorded one.
    fn finish(
        &self,
        cells: Vec<Option<StreamCell>>,
        cfg: &SweepConfig,
        counted: Option<u64>,
    ) -> Pass {
        let items = cells.len() as u64 * u64::from(cfg.samples()) * u64::from(self.grid.frames);
        let mut pass = Pass {
            items,
            failed: items,
            ..Pass::default()
        };
        let Some(cells) = cells.into_iter().collect::<Option<Vec<_>>>() else {
            return pass;
        };
        pass.sim_latency_us =
            cells.iter().map(|c| c.mean_staleness_us).sum::<f64>() / cells.len() as f64;
        let report = StreamReport {
            grid: self.grid.clone(),
            topologies: cfg.topologies(),
            dest_sets: cfg.dest_sets(),
            base_seed: cfg.base_seed(),
            cells,
        };
        let text = report.to_json().to_string_pretty();
        pass.digest = fnv_text(&text);
        if self.pin.matches(&text) && counted.is_none_or(|c| c == self.deliveries) {
            pass.failed = 0;
            pass.deliveries = self.deliveries;
        } else {
            eprintln!(
                "# stream_churn missed its pin: digest {:016x}, deliveries {counted:?}",
                pass.digest
            );
        }
        pass
    }
}

/// Per-topology partial aggregate of one cell, folded in the sweep's order.
#[derive(Default)]
struct Agg {
    emitted: u64,
    served: u64,
    dropped: u64,
    joins: u64,
    leaves: u64,
    churn_skipped: u64,
    goodput_sum: f64,
    stale_sum: f64,
    stale_max: f64,
}

impl Workload for StreamChurn {
    type Inputs = Sweep;

    fn workers(&self) -> usize {
        sweep_workers(&self.builder)
    }

    fn with_workers(&self, workers: usize) -> Self {
        StreamChurn {
            builder: self.builder.parallelism(workers),
            grid: self.grid.clone(),
            pin: self.pin,
            deliveries: self.deliveries,
        }
    }

    fn setup(&self) -> Sweep {
        fresh_sweep(&self.builder)
    }

    fn fresh_inputs_per_pass(&self) -> bool {
        true
    }

    fn items(&self) -> usize {
        self.grid.churn_levels.len() * self.grid.loads.len() * self.grid.buffer_depths.len()
    }

    fn pass(&self, sweep: &Sweep, order: &[usize]) -> Pass {
        let mut cells = vec![None; self.items()];
        for &i in order {
            cells[i] = sweep
                .streaming(&self.cell_grid(i))
                .ok()
                .and_then(|report| report.cells.into_iter().next());
        }
        let mut pass = self.finish(cells, sweep.config(), None);
        pass.events = sweep.sim_effort().events_processed;
        pass.cache = Some(sweep.cache_stats());
        pass
    }

    fn replay(&self, order: &[usize], tr: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let (sweep, topologies) = replay_sweep_setup(&self.builder, tr);
        let cfg = *sweep.config();

        let root = tr.enter("bench.pass", 0);
        let grid = &self.grid;
        let packets = grid.frame_bytes.div_ceil(grid.mtu_bytes);
        let mut cells = vec![None; self.items()];
        let (mut counted, mut events, mut frame) = (0u64, 0u64, 0u64);
        for &i in order {
            let group = tr.enter("bench.cell", i as u64);
            let (c, l, b) = self.axes(i);
            let (churn, load, buffer) =
                (grid.churn_levels[c], grid.loads[l], grid.buffer_depths[b]);
            let mut aggs = Vec::with_capacity(topologies.len());
            for (t, (net, ordering)) in (0u32..).zip(&topologies) {
                let mut agg = Agg::default();
                for s in 0..cfg.dest_sets() {
                    let salt = cfg.set_seed(t, s);
                    let chain = tr.leaf("sweep.sample_chain", frame, || {
                        sample_chain(net, ordering, salt, grid.dests)
                    });
                    let n = chain.len() as u32;
                    let tree = tr.leaf("core.tree_build", frame, || {
                        sweep.tree(TreePolicy::OptimalKBinomial, n, packets)
                    });
                    let k = tree.max_degree().max(1);
                    let nominal_us = tr.leaf("core.schedule", frame, || {
                        smart_latency_us(&fpfs_schedule(&tree, packets), cfg.params())
                    });
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
                    let Ok(out) =
                        stream_run(net, &chain, k, cfg.params(), &spec, tr, ledger, &mut frame)
                    else {
                        ledger.failed_runs += 1;
                        continue;
                    };
                    events += out.events;
                    counted += out
                        .frames
                        .iter()
                        .map(|f| match f.fate {
                            FrameFate::Delivered { receivers, .. } => u64::from(receivers),
                            FrameFate::Dropped { .. } => 0,
                        })
                        .sum::<u64>()
                        * u64::from(packets);
                    ledger.frames_emitted += u64::from(grid.frames);
                    ledger.frames_served += u64::from(out.served);
                    ledger.frames_dropped += u64::from(out.dropped);
                    ledger.joins += u64::from(out.joins);
                    ledger.leaves += u64::from(out.leaves);

                    agg.emitted += u64::from(grid.frames);
                    agg.served += u64::from(out.served);
                    agg.dropped += u64::from(out.dropped);
                    agg.joins += u64::from(out.joins);
                    agg.leaves += u64::from(out.leaves);
                    agg.churn_skipped += u64::from(out.churn_skipped);
                    if !out.receivers.is_empty() {
                        agg.goodput_sum +=
                            out.receivers.iter().map(|r| r.goodput_mbps).sum::<f64>()
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
                aggs.push(agg);
            }
            cells[i] = Some(fold_cell(&aggs, churn, load, buffer, cfg.samples()));
            tr.exit(group);
        }
        let report = tr.enter("sweep.report", 0);
        let mut pass = self.finish(cells, &cfg, Some(counted));
        tr.exit(report);
        pass.events = events;
        tr.exit(root);
        pass
    }
}

/// Combines a cell's per-topology aggregates in topology order, as the
/// sweep does.
fn fold_cell(aggs: &[Agg], churn: u32, load: f64, buffer: u32, samples: u32) -> StreamCell {
    let mut out = StreamCell {
        churn_events: churn,
        load,
        buffer_frames: buffer,
        samples,
        emitted: 0,
        served: 0,
        dropped: 0,
        drop_rate: 0.0,
        joins: 0,
        leaves: 0,
        churn_skipped: 0,
        mean_goodput_mbps: 0.0,
        mean_staleness_us: 0.0,
        max_staleness_us: 0.0,
    };
    let (mut goodput_sum, mut stale_sum) = (0.0, 0.0);
    for agg in aggs {
        out.emitted += agg.emitted;
        out.served += agg.served;
        out.dropped += agg.dropped;
        out.joins += agg.joins;
        out.leaves += agg.leaves;
        out.churn_skipped += agg.churn_skipped;
        goodput_sum += agg.goodput_sum;
        stale_sum += agg.stale_sum;
        out.max_staleness_us = out.max_staleness_us.max(agg.stale_max);
    }
    out.drop_rate = out.dropped as f64 / out.emitted as f64;
    out.mean_goodput_mbps = goodput_sum / f64::from(samples);
    out.mean_staleness_us = stale_sum / f64::from(samples);
    out
}

/// `StreamRun::run` for the sweep's stream shape (the whole chain is the
/// initial group), re-driven through `Membership`, `churn_plan`,
/// `JobRoutes::build`, and `SimRun` so each layer gets its own span. Frame
/// ids continue from `frame`.
#[allow(clippy::too_many_arguments)]
fn stream_run(
    net: &IrregularNetwork,
    binding: &[HostId],
    k: u32,
    params: &SystemParams,
    spec: &StreamSpec,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    frame: &mut u64,
) -> Result<StreamOutcome, SimError> {
    let universe = binding.len() as u32;
    let packets = spec.frame_bytes.div_ceil(spec.mtu_bytes);
    let emit = |i: u32| f64::from(i) * spec.gap_us;

    let mut group = tr.leaf("core.tree_build", *frame, || {
        let members: Vec<u32> = (0..universe).collect();
        Membership::new(kbinomial_tree(universe, k), &members, universe, k)
            .expect("the sampled chain is a valid group")
    });
    let plan = tr.leaf("stream.churn_plan", *frame, || churn_plan(spec, universe));
    let mut next_event = 0usize;

    let mut fates: Vec<Option<FrameRecord>> = vec![None; spec.frames as usize];
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut next_emit = 0u32;
    let mut t_free = 0.0f64;
    let mut out = StreamOutcome {
        packets_per_frame: packets,
        frames: Vec::new(),
        receivers: Vec::new(),
        served: 0,
        dropped: 0,
        joins: 0,
        leaves: 0,
        churn_skipped: 0,
        duration_us: 0.0,
        events: 0,
        peak_queue_len: 0,
        frame_outcomes: Vec::new(),
    };
    let mut delivered = vec![0u32; universe as usize];
    let mut stale_sum = vec![0.0f64; universe as usize];
    let mut stale_max = vec![0.0f64; universe as usize];

    while !queue.is_empty() || next_emit < spec.frames {
        if queue.is_empty() {
            queue.push_back(next_emit);
            t_free = t_free.max(emit(next_emit));
            next_emit += 1;
        }
        let mut start = t_free.max(emit(queue[0]));
        loop {
            let before = next_emit;
            while next_emit < spec.frames && emit(next_emit) <= start {
                if spec.buffer_frames > 0 && queue.len() >= spec.buffer_frames as usize {
                    let victim = queue.pop_front().expect("bounded buffer is non-empty");
                    fates[victim as usize] = Some(FrameRecord {
                        emitted_us: emit(victim),
                        fate: FrameFate::Dropped {
                            at_us: emit(next_emit),
                        },
                    });
                    out.dropped += 1;
                }
                queue.push_back(next_emit);
                next_emit += 1;
            }
            let now = t_free.max(emit(queue[0]));
            if next_emit == before && now == start {
                break;
            }
            start = now;
        }
        while next_event < plan.len() && plan[next_event].at_us <= start {
            let ev = plan[next_event];
            next_event += 1;
            if group.is_member(ev.member) {
                if group.len() > 2 {
                    tr.leaf("core.membership", *frame, || group.leave(ev.member))
                        .expect("present member can leave");
                    ledger.membership_ops += 1;
                    out.leaves += 1;
                } else {
                    out.churn_skipped += 1;
                }
            } else {
                tr.leaf("core.membership", *frame, || group.join(ev.member))
                    .expect("absent member can join");
                ledger.membership_ops += 1;
                out.joins += 1;
            }
        }

        let head = queue.pop_front().expect("loop guard");
        *frame += 1;
        let job = tr.leaf("core.tree_build", *frame, || {
            let job_binding = group
                .members()
                .iter()
                .map(|&u| binding[u as usize])
                .collect();
            MulticastJob::fpfs(Arc::new(group.tree().clone()), job_binding, packets)
        });
        let routes = tr.leaf("routes.per_run", *frame, || {
            JobRoutes::build(net, &job.tree, &job.binding)
        });
        ledger.routes_built(&routes);
        let mut hooks = HookCounter::default();
        let sim = tr.leaf("netsim.sim", *frame, || {
            SimRun::new(
                net,
                std::slice::from_ref(&job),
                params,
                WorkloadConfig::default(),
            )
            .routes(vec![Arc::new(routes)])
            .observer(&mut hooks)
            .run()
        })?;
        ledger.sim_ran(&sim.counters, hooks.hooks);

        let completion = start + sim.jobs[0].latency_us;
        let staleness = completion - emit(head);
        for &u in &group.members()[1..] {
            let i = u as usize;
            delivered[i] += 1;
            stale_sum[i] += staleness;
            stale_max[i] = stale_max[i].max(staleness);
        }
        fates[head as usize] = Some(FrameRecord {
            emitted_us: emit(head),
            fate: FrameFate::Delivered {
                service_start_us: start,
                completion_us: completion,
                receivers: group.len() as u32 - 1,
            },
        });
        out.served += 1;
        out.events += sim.events;
        out.peak_queue_len = out.peak_queue_len.max(sim.counters.peak_queue_len);
        t_free = completion;
    }

    out.duration_us = t_free.max(emit(spec.frames - 1));
    out.frames = fates
        .into_iter()
        .map(|f| f.expect("every frame resolves to delivered or dropped"))
        .collect();
    out.receivers = (1..universe)
        .filter(|&u| delivered[u as usize] > 0)
        .map(|u| {
            let i = u as usize;
            let bytes = u64::from(delivered[i]) * u64::from(spec.frame_bytes);
            ReceiverStats {
                member: u,
                frames_delivered: delivered[i],
                bytes_delivered: bytes,
                goodput_mbps: 8.0 * bytes as f64 / out.duration_us,
                mean_staleness_us: stale_sum[i] / f64::from(delivered[i]),
                max_staleness_us: stale_max[i],
            }
        })
        .collect();
    Ok(out)
}
