//! `lossy_arq`: `Sweep::chaos_arq` at paper sampling — drop rates
//! {0, 0.02, 0.05, 0.1}, stop-and-wait and windowed selective repeat
//! (window 8, 2 send units), 31 destinations, m = 32 — with one worker.
//! The one composite call is the pass's only item: 2,400 faulted,
//! un-prerouted multicasts.

use super::{fresh_sweep, replay_sweep_setup, sweep_workers, Pass, Pin, Workload};
use crate::ledger::{HookCounter, Ledger};
use crate::stats::fnv_text;
use crate::trace::Tracer;
use optimcast_netsim::{
    FaultPlanSpec, JobRoutes, MulticastJob, NiModel, SimCounters, SimError, SimRun, WorkloadConfig,
};
use optimcast_sweep::{sample_chain, ArqCell, ArqReport, Sweep, SweepBuilder, TreePolicy};
use std::sync::Arc;

/// The ARQ chaos grid and its pinned report.
#[derive(Debug, Clone, Copy)]
pub struct LossyArq {
    builder: SweepBuilder,
    drop_rates: [f64; 4],
    dests: u32,
    m: u32,
    window: u32,
    send_units: u32,
    pin: Pin,
}

impl LossyArq {
    /// The paper-sampled grid.
    pub fn full() -> Self {
        LossyArq {
            builder: SweepBuilder::paper().parallelism(1).fault(FaultPlanSpec {
                seed: 1997,
                ..FaultPlanSpec::default()
            }),
            drop_rates: [0.0, 0.02, 0.05, 0.1],
            dests: 31,
            m: 32,
            window: 8,
            send_units: 2,
            pin: Pin::Fnv(0xeae4_b9c5_b159_ea6c),
        }
    }

    /// Quick sampling, 15 destinations, m = 4.
    #[cfg(test)]
    pub fn tiny() -> Self {
        LossyArq {
            builder: SweepBuilder::quick().parallelism(1).fault(FaultPlanSpec {
                seed: 1997,
                ..FaultPlanSpec::default()
            }),
            dests: 15,
            m: 4,
            pin: Pin::Fnv(0x3679_3b6c_1eaf_6f04),
            ..Self::full()
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

    /// Checks a report against the pin: failed samples, and every sample of
    /// a report that misses the pin, count as failed items.
    fn finish(&self, report: Option<ArqReport>, samples: u32) -> Pass {
        let items = 2 * self.drop_rates.len() as u64 * u64::from(samples);
        let mut pass = Pass {
            items,
            failed: items,
            ..Pass::default()
        };
        let Some(report) = report else {
            return pass;
        };
        let text = report.to_json().to_string_pretty();
        pass.digest = fnv_text(&text);
        let delivered: u32 = report.cells.iter().map(|c| c.delivered).sum();
        pass.sim_latency_us = report
            .cells
            .iter()
            .map(|c| c.mean_latency_us * f64::from(c.delivered))
            .sum::<f64>()
            / f64::from(delivered.max(1));
        if self.pin.matches(&text) {
            pass.failed = report.cells.iter().map(|c| u64::from(c.failed)).sum();
            pass.deliveries = u64::from(delivered) * u64::from(self.dests) * u64::from(self.m);
        } else {
            eprintln!("# lossy_arq missed its pin: digest {:016x}", pass.digest);
        }
        pass
    }
}

/// Per-topology partial aggregate of one cell, folded in the sweep's order.
#[derive(Default)]
struct Agg {
    delivered: u32,
    failed: u32,
    unreached: u64,
    latency_sum: f64,
    packets_dropped: u64,
    retransmits: u64,
    deliveries_abandoned: u64,
    recovery_wait_us: f64,
    resend_requests: u64,
    nack_ranges_sent: u64,
    late_acks: u64,
    duplicate_acks: u64,
    window_stalls_us: f64,
    deadline_writeoffs: u64,
}

impl Agg {
    fn add_counters(&mut self, c: &SimCounters) {
        self.packets_dropped += c.packets_dropped;
        self.retransmits += c.retransmits;
        self.deliveries_abandoned += c.deliveries_abandoned;
        self.recovery_wait_us += c.recovery_wait_us;
        self.resend_requests += c.resend_requests;
        self.nack_ranges_sent += c.nack_ranges_sent;
        self.late_acks += c.late_acks;
        self.duplicate_acks += c.duplicate_acks;
        self.window_stalls_us += c.window_stalls_us;
        self.deadline_writeoffs += c.deadline_writeoffs;
    }
}

impl Workload for LossyArq {
    type Inputs = Sweep;

    fn workers(&self) -> usize {
        sweep_workers(&self.builder)
    }

    fn with_workers(&self, workers: usize) -> Self {
        LossyArq {
            builder: self.builder.parallelism(workers),
            ..*self
        }
    }

    fn setup(&self) -> Sweep {
        fresh_sweep(&self.builder)
    }

    fn fresh_inputs_per_pass(&self) -> bool {
        true
    }

    fn items(&self) -> usize {
        1
    }

    fn pass(&self, sweep: &Sweep, _order: &[usize]) -> Pass {
        let report = sweep.chaos_arq(
            &self.drop_rates,
            self.dests,
            self.m,
            self.window,
            self.send_units,
        );
        let mut pass = self.finish(report.ok(), sweep.config().samples());
        pass.events = sweep.sim_effort().events_processed;
        pass.cache = Some(sweep.cache_stats());
        pass
    }

    fn replay(&self, _order: &[usize], tr: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let (sweep, topologies) = replay_sweep_setup(&self.builder, tr);
        let cfg = *sweep.config();

        let root = tr.enter("bench.pass", 0);
        let drops = self.drop_rates.len();
        let fault = cfg.fault();
        let mut cells = Vec::with_capacity(2 * drops);
        let (mut item, mut events) = (0u64, 0u64);
        for cell in 0..2 * drops {
            let group = tr.enter("bench.cell", cell as u64);
            let windowed = cell / drops == 1;
            let spec = FaultPlanSpec {
                drop_rate: self.drop_rates[cell % drops],
                crashes: 0,
                window: if windowed { self.window } else { 1 },
                send_units: if windowed { self.send_units } else { 1 },
                ..fault
            };
            let config = WorkloadConfig {
                ni: NiModel {
                    send_units: spec.send_units,
                    queue_capacity: None,
                },
                ..WorkloadConfig::default()
            };
            let mut aggs = Vec::with_capacity(topologies.len());
            for (t, (net, ordering)) in (0u32..).zip(&topologies) {
                let mut agg = Agg::default();
                for s in 0..cfg.dest_sets() {
                    item += 1;
                    let salt = cfg.set_seed(t, s);
                    let chain = tr.leaf("sweep.sample_chain", item, || {
                        sample_chain(net, ordering, salt, self.dests)
                    });
                    let n = chain.len() as u32;
                    let tree = tr.leaf("core.tree_build", item, || {
                        sweep.tree(TreePolicy::OptimalKBinomial, n, self.m)
                    });
                    let plan = tr.leaf("fault.plan", item, || spec.plan(salt, Vec::new()));
                    let routes = tr.leaf("routes.per_run", item, || {
                        JobRoutes::build(net, &tree, &chain)
                    });
                    ledger.routes_built(&routes);
                    let mut hooks = HookCounter::default();
                    let run = tr.leaf("netsim.sim", item, || {
                        let job = MulticastJob::fpfs(tree, chain, self.m);
                        SimRun::new(net, std::slice::from_ref(&job), cfg.params(), config)
                            .faults(&plan)
                            .routes(vec![Arc::new(routes)])
                            .observer(&mut hooks)
                            .run()
                    });
                    match run {
                        Ok(out) => {
                            ledger.sim_ran(&out.counters, hooks.hooks);
                            events += out.counters.events;
                            agg.delivered += 1;
                            agg.latency_sum += out.jobs[0].latency_us;
                            agg.unreached += out.unreached.len() as u64;
                            agg.add_counters(&out.counters);
                        }
                        Err(SimError::DeliveryFailed {
                            unreached,
                            counters,
                        }) => {
                            ledger.sim_ran(&counters, hooks.hooks);
                            ledger.failed_runs += 1;
                            events += counters.events;
                            agg.failed += 1;
                            agg.unreached += unreached.len() as u64;
                            agg.add_counters(&counters);
                        }
                        Err(_) => {
                            ledger.failed_runs += 1;
                            agg.failed += 1;
                        }
                    }
                }
                aggs.push(agg);
            }
            cells.push(fold_cell(
                &aggs,
                self.drop_rates[cell % drops],
                windowed,
                cfg.samples(),
            ));
            tr.exit(group);
        }
        // Recovery latency: each cell against its own mode's lossless
        // baseline, in fixed index order.
        for mode in 0..2 {
            let baseline = cells[mode * drops].mean_latency_us;
            for cell in &mut cells[mode * drops..(mode + 1) * drops] {
                if cell.delivered > 0 {
                    cell.recovery_latency_us = cell.mean_latency_us - baseline;
                }
            }
        }
        let report_span = tr.enter("sweep.report", 0);
        let report = ArqReport {
            dests: self.dests,
            m: self.m,
            topologies: cfg.topologies(),
            dest_sets: cfg.dest_sets(),
            base_seed: cfg.base_seed(),
            fault,
            window: self.window,
            send_units: self.send_units,
            drop_rates: self.drop_rates.to_vec(),
            cells,
        };
        let mut pass = self.finish(Some(report), cfg.samples());
        tr.exit(report_span);
        pass.events = events;
        tr.exit(root);
        pass
    }
}

/// Combines a cell's per-topology aggregates in topology order, as the
/// sweep does.
fn fold_cell(aggs: &[Agg], drop_rate: f64, windowed: bool, samples: u32) -> ArqCell {
    let mut out = ArqCell {
        drop_rate,
        windowed,
        samples,
        delivered: 0,
        failed: 0,
        unreached: 0,
        mean_latency_us: 0.0,
        recovery_latency_us: 0.0,
        packets_dropped: 0,
        retransmits: 0,
        deliveries_abandoned: 0,
        recovery_wait_us: 0.0,
        resend_requests: 0,
        nack_ranges_sent: 0,
        late_acks: 0,
        duplicate_acks: 0,
        window_stalls_us: 0.0,
        deadline_writeoffs: 0,
    };
    let mut latency_sum = 0.0;
    for agg in aggs {
        out.delivered += agg.delivered;
        out.failed += agg.failed;
        out.unreached += agg.unreached;
        latency_sum += agg.latency_sum;
        out.packets_dropped += agg.packets_dropped;
        out.retransmits += agg.retransmits;
        out.deliveries_abandoned += agg.deliveries_abandoned;
        out.recovery_wait_us += agg.recovery_wait_us;
        out.resend_requests += agg.resend_requests;
        out.nack_ranges_sent += agg.nack_ranges_sent;
        out.late_acks += agg.late_acks;
        out.duplicate_acks += agg.duplicate_acks;
        out.window_stalls_us += agg.window_stalls_us;
        out.deadline_writeoffs += agg.deadline_writeoffs;
    }
    if out.delivered > 0 {
        out.mean_latency_us = latency_sum / f64::from(out.delivered);
    }
    out
}
