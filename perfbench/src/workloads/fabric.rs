//! `fabric65k`: one optimal-k FPFS multicast of m = 16 packets from host 0
//! to all 65,535 other hosts of the k = 64 fat-tree (5,120 switches), on
//! the serial engine. Set-up — fabric generation with up\*/down\*
//! orientation, the optimal tree, and the interned route table — is built
//! once per run and reused by every pass; a pass is the one multicast.

use super::{Pass, Workload};
use crate::ledger::{HookCounter, Ledger};
use crate::stats::Fnv;
use crate::trace::Tracer;
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::optimal::optimal_k;
use optimcast_core::params::SystemParams;
use optimcast_netsim::{JobRoutes, MulticastJob, SimRun, WorkloadConfig, WorkloadOutcome};
use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
use optimcast_topology::graph::HostId;
use std::sync::Arc;

/// The fabric multicast and its reference outcome.
#[derive(Debug, Clone, Copy)]
pub struct Fabric {
    hosts: u32,
    m: u32,
    pin: FabricPin,
}

/// The committed `BENCH_mega.json` point the outcome must match.
#[derive(Debug, Clone, Copy)]
pub struct FabricPin {
    pub events: u64,
    pub makespan_us: f64,
    pub digest: u64,
}

/// What a pass runs on.
pub struct FabricInputs {
    net: FabricNetwork,
    jobs: [MulticastJob; 1],
    routes: Arc<JobRoutes>,
}

impl Fabric {
    /// The 65,536-host point of `BENCH_mega.json`.
    pub fn full() -> Self {
        Fabric {
            hosts: 65_536,
            m: 16,
            pin: FabricPin {
                events: 3_793_761,
                makespan_us: 11_252.0,
                digest: 0x26c7_30d1_2af2_71ab,
            },
        }
    }

    /// The 1,024-host point of `BENCH_mega.json`.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Fabric {
            hosts: 1024,
            m: 16,
            pin: FabricPin {
                events: 59_249,
                makespan_us: 1750.0,
                digest: 0x9030_21e6_bf40_f1ad,
            },
        }
    }

    #[cfg(test)]
    pub fn with_pin(mut self, pin: FabricPin) -> Self {
        self.pin = pin;
        self
    }

    #[cfg(test)]
    pub fn pin(&self) -> FabricPin {
        self.pin
    }

    fn network(&self) -> FabricNetwork {
        FabricNetwork::generate_with_hosts(FabricConfig::fat_tree_for_hosts(self.hosts), self.hosts)
    }

    fn tree(&self) -> Arc<optimcast_core::tree::MulticastTree> {
        Arc::new(kbinomial_tree(
            self.hosts,
            optimal_k(u64::from(self.hosts), self.m).k,
        ))
    }

    fn job(&self, tree: Arc<optimcast_core::tree::MulticastTree>) -> MulticastJob {
        MulticastJob::fpfs(tree, (0..self.hosts).map(HostId).collect(), self.m)
    }

    /// Checks one simulated outcome against the pin.
    fn check(&self, run: Result<WorkloadOutcome, optimcast_netsim::SimError>) -> Pass {
        let mut pass = Pass {
            items: 1,
            ..Pass::default()
        };
        match run {
            Ok(out) => {
                pass.digest = outcome_digest(&out);
                pass.events = out.events;
                pass.sim_latency_us = out.makespan_us;
                let pinned = out.events == self.pin.events
                    && out.makespan_us == self.pin.makespan_us
                    && pass.digest == self.pin.digest;
                if pinned {
                    pass.deliveries = u64::from(self.hosts - 1) * u64::from(self.m);
                } else {
                    eprintln!(
                        "# fabric missed its pin: {} events, makespan {} us, digest {:016x}",
                        out.events, out.makespan_us, pass.digest
                    );
                    pass.failed = 1;
                }
            }
            Err(_) => pass.failed = 1,
        }
        pass
    }
}

/// Timing-free FNV-1a digest over every deterministic outcome field, in
/// the order `optimcast-sweep`'s mega benchmark records in
/// `BENCH_mega.json`.
fn outcome_digest(wl: &WorkloadOutcome) -> u64 {
    let mut h = Fnv::default();
    h.word(wl.events);
    h.word(wl.makespan_us.to_bits());
    h.word(wl.channel_wait_us.to_bits());
    for job in &wl.jobs {
        h.word(job.latency_us.to_bits());
        h.word(job.total_sends);
        h.word(job.blocked_sends);
        for &t in &job.host_done_us {
            h.word(t.to_bits());
        }
        for &b in &job.max_ni_buffer {
            h.word(u64::from(b));
        }
    }
    for &b in &wl.max_host_buffer {
        h.word(u64::from(b));
    }
    let c = &wl.counters;
    h.word(c.total_sends);
    h.word(c.packets_forwarded);
    h.word(c.channel_stall_us.to_bits());
    h.word(c.recv_unit_waits);
    h.word(c.recv_unit_wait_us.to_bits());
    h.word(c.max_send_queue as u64);
    h.word(c.events);
    h.finish()
}

impl Workload for Fabric {
    type Inputs = FabricInputs;

    fn workers(&self) -> usize {
        1
    }

    fn with_workers(&self, _workers: usize) -> Self {
        *self
    }

    fn setup(&self) -> FabricInputs {
        let net = self.network();
        let tree = self.tree();
        let job = self.job(tree);
        let routes = Arc::new(JobRoutes::build(&net, &job.tree, &job.binding));
        FabricInputs {
            net,
            jobs: [job],
            routes,
        }
    }

    fn fresh_inputs_per_pass(&self) -> bool {
        false
    }

    fn items(&self) -> usize {
        1
    }

    fn pass(&self, inputs: &FabricInputs, _order: &[usize]) -> Pass {
        let params = SystemParams::paper_1997();
        let run = SimRun::new(
            &inputs.net,
            &inputs.jobs,
            &params,
            WorkloadConfig::default(),
        )
        .routes(vec![Arc::clone(&inputs.routes)])
        .run();
        self.check(run)
    }

    fn replay(&self, _order: &[usize], tr: &mut Tracer, ledger: &mut Ledger) -> Pass {
        let setup = tr.enter("bench.setup", 0);
        let net = tr.leaf("topology.fabric_gen", 0, || self.network());
        let job = tr.leaf("core.tree_build", 0, || self.job(self.tree()));
        let routes = tr.leaf("routes.build", 0, || {
            JobRoutes::build(&net, &job.tree, &job.binding)
        });
        ledger.routes_built(&routes);
        tr.exit(setup);

        let root = tr.enter("bench.pass", 0);
        let params = SystemParams::paper_1997();
        let mut hooks = HookCounter::default();
        let run = tr.leaf("netsim.sim", 0, || {
            SimRun::new(
                &net,
                std::slice::from_ref(&job),
                &params,
                WorkloadConfig::default(),
            )
            .routes(vec![Arc::new(routes)])
            .observer(&mut hooks)
            .run()
        });
        match &run {
            Ok(out) => ledger.sim_ran(&out.counters, hooks.hooks),
            Err(_) => ledger.failed_runs += 1,
        }
        let pass = self.check(run);
        tr.exit(root);
        pass
    }
}
