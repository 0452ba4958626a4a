//! Multi-tenant job admission scheduling: N independent multicast streams
//! sharing one network.
//!
//! The paper evaluates one multicast at a time; production fabrics carry
//! many concurrent streams. Following *Near-Optimal Schedules for
//! Simultaneous Multicasts* (Haeupler, Hershkowitz & Wajc), the dominant
//! cost at scale is the admission discipline: letting every job enter the
//! network on arrival (FIFO) interleaves trees on shared wormhole channels
//! and stretches everyone's completion, while a congestion-aware schedule
//! defers jobs that would oversubscribe a channel and completes each
//! admitted job near its solo latency.
//!
//! This module is the admission layer over the workload engine:
//!
//! 1. each [`MulticastJob`]'s `start_us` is interpreted as its **arrival**
//!    time (when the tenant asks to multicast);
//! 2. a [`JobScheduler`] policy walks the jobs in arrival order and picks
//!    each job's **admission** time (≥ arrival), seeing the job's channel
//!    footprint (from its interned [`JobRoutes`]), an analytic duration
//!    estimate, and the previously admitted jobs;
//! 3. one [`SimRun`] executes all jobs with their admission times as start
//!    times on the shared network — real interleaved discrete-event
//!    contention decides the actual completions.
//!
//! The split keeps the layer deterministic and cheap: admission is a pure
//! function of arrivals, routes, and analytic estimates (no feedback from
//! simulated completions), so a scheduled run is byte-identical across
//! hosts and thread counts, and the simulator remains the single source of
//! truth for what the policy's plan actually costs.
//!
//! Two policies ship: [`FifoAdmission`] (admit on arrival — the naive
//! baseline) and [`ContentionAware`] (bound the number of concurrently
//! admitted jobs crossing any one wormhole channel, deferring jobs that
//! would oversubscribe). Both agree whenever at most one job is in flight.

use crate::error::SimError;
use crate::routes::JobRoutes;
use crate::workload::{JobPayload, MulticastJob, SimRun, WorkloadConfig, WorkloadOutcome};
use optimcast_core::latency::{conventional_latency_us, smart_latency_from_steps};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::fpfs_schedule;
use optimcast_topology::graph::ChannelId;
use optimcast_topology::Network;
use std::sync::Arc;

/// A previously admitted job, as seen by an admission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlight {
    /// Job index into the workload (and into
    /// [`AdmissionRequest::footprint`]).
    pub job: u32,
    /// Chosen admission time (µs).
    pub admit_us: f64,
    /// Estimated completion time `admit_us + estimate` (µs). An estimate —
    /// the simulator decides the real completion.
    pub est_end_us: f64,
}

/// Everything an admission policy may consult when placing one job.
///
/// All fields are pure functions of the workload description (arrivals,
/// trees, bindings, routes) — never of simulated completions — so any
/// policy implemented on top is automatically deterministic.
#[derive(Debug)]
pub struct AdmissionRequest<'a> {
    /// Index of the job being admitted.
    pub job: u32,
    /// The job's arrival time (µs); admission may not precede it.
    pub arrival_us: f64,
    /// Analytic solo-latency estimate for the job (µs): FPFS step count ×
    /// `t_step` plus `t_s`/`t_r` for smart-NI multicasts, the host-forward
    /// recurrence for conventional NIs, the source-injection bound for
    /// scatters.
    pub est_duration_us: f64,
    /// Per-job wormhole channel footprints (sorted, deduplicated), indexed
    /// by job — the union of the job's parent→child routes from its
    /// [`JobRoutes`] table.
    channels: &'a [Vec<ChannelId>],
    /// Jobs admitted before this one, in admission (= arrival) order.
    pub inflight: &'a [InFlight],
}

impl AdmissionRequest<'_> {
    /// The sorted channel footprint of `job`.
    pub fn footprint(&self, job: u32) -> &[ChannelId] {
        &self.channels[job as usize]
    }
}

/// An admission policy: where the multi-tenant layer is pluggable.
///
/// `admit` returns the job's admission time; the driver clamps it to the
/// arrival (admission may not travel back in time) and treats a non-finite
/// return as "admit on arrival".
pub trait JobScheduler {
    /// Stable policy name (used in reports and JSON).
    fn name(&self) -> &'static str;

    /// Picks the admission time for the job described by `req`.
    fn admit(&self, req: &AdmissionRequest<'_>) -> f64;
}

/// Naive FIFO admission: every job enters the network the moment it
/// arrives, regardless of what is already in flight.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoAdmission;

impl JobScheduler for FifoAdmission {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn admit(&self, req: &AdmissionRequest<'_>) -> f64 {
        req.arrival_us
    }
}

/// Contention-aware admission: bound the number of concurrently admitted
/// jobs crossing any one wormhole channel.
///
/// A job is admitted at the earliest time `t ≥ arrival` at which every
/// channel of its footprint is used by fewer than `max_channel_load` other
/// in-flight jobs throughout the job's estimated window `[t, t + est)`;
/// otherwise it is deferred to the earliest estimated completion that
/// could unblock it and re-examined. Overlap is judged on the *estimated*
/// windows of the in-flight jobs, so the policy needs no feedback from the
/// simulator and stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionAware {
    /// Maximum in-flight jobs allowed per wormhole channel, counting the
    /// candidate itself. `1` gives each admitted job exclusive use of its
    /// channels (strongest shaping); larger values admit bounded sharing.
    pub max_channel_load: u32,
}

impl Default for ContentionAware {
    fn default() -> Self {
        ContentionAware {
            max_channel_load: 1,
        }
    }
}

impl JobScheduler for ContentionAware {
    fn name(&self) -> &'static str {
        "contention-aware"
    }

    fn admit(&self, req: &AdmissionRequest<'_>) -> f64 {
        let mine = req.footprint(req.job);
        if mine.is_empty() {
            return req.arrival_us;
        }
        let mut t = req.arrival_us;
        // Each round either admits at `t` or advances `t` to a strictly
        // later in-flight estimated end, so the loop runs at most
        // `inflight.len()` rounds.
        loop {
            let end = t + req.est_duration_us;
            let mut next_free = f64::INFINITY;
            for ch in mine {
                let mut load = 0;
                let mut earliest_end = f64::INFINITY;
                for f in req.inflight {
                    if f.est_end_us > t
                        && f.admit_us < end
                        && req.footprint(f.job).binary_search(ch).is_ok()
                    {
                        load += 1;
                        earliest_end = earliest_end.min(f.est_end_us);
                    }
                }
                // `load` excludes the candidate, so the channel is over
                // budget once `load + 1 > max_channel_load`.
                if load + 1 > self.max_channel_load {
                    next_free = next_free.min(earliest_end);
                }
            }
            if next_free == f64::INFINITY {
                return t;
            }
            t = next_free;
        }
    }
}

/// Per-job scheduling metrics of one multi-tenant run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStats {
    /// Job index into the workload.
    pub job: u32,
    /// When the tenant asked to multicast (µs).
    pub arrival_us: f64,
    /// When the policy let the job into the network (µs).
    pub admit_us: f64,
    /// Queueing delay `admit − arrival` (µs).
    pub queue_us: f64,
    /// Simulated in-network latency from admission to last delivery (µs).
    pub service_us: f64,
    /// Completion latency the tenant observes: `queue + service` (µs).
    pub completion_us: f64,
    /// Destinations that received the complete message.
    pub delivered: u32,
    /// Destinations written off by live repair (0 without faults).
    pub unreached: u32,
}

/// Results of a scheduled multi-tenant run: the per-job admission metrics
/// plus the underlying simulated [`WorkloadOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOutcome {
    /// Name of the policy that planned the admissions.
    pub policy: &'static str,
    /// Per-job metrics, in job-index order.
    pub stats: Vec<JobStats>,
    /// The simulated outcome of the admitted workload (per-job latencies,
    /// makespan from time zero, counters, events).
    pub outcome: WorkloadOutcome,
}

impl ScheduledOutcome {
    /// Nearest-rank percentile (`q` in `[0, 100]`) of the per-job
    /// completion latencies.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 100]`.
    pub fn completion_percentile(&self, q: f64) -> f64 {
        assert!((0.0..=100.0).contains(&q), "percentile in [0, 100]");
        let mut xs: Vec<f64> = self.stats.iter().map(|s| s.completion_us).collect();
        xs.sort_by(f64::total_cmp);
        let rank = ((q / 100.0) * xs.len() as f64).ceil() as usize;
        xs[rank.max(1) - 1]
    }

    /// Mean queueing delay across jobs (µs).
    pub fn mean_queue_us(&self) -> f64 {
        self.stats.iter().map(|s| s.queue_us).sum::<f64>() / self.stats.len() as f64
    }

    /// Jobs the policy admitted strictly later than their arrival.
    pub fn deferred(&self) -> u32 {
        self.stats.iter().filter(|s| s.queue_us > 0.0).count() as u32
    }

    /// Aggregate simulator throughput in events per simulated millisecond
    /// (deterministic, unlike wall-clock throughput).
    pub fn events_per_sim_ms(&self) -> f64 {
        if self.outcome.makespan_us > 0.0 {
            self.outcome.events as f64 / (self.outcome.makespan_us / 1000.0)
        } else {
            0.0
        }
    }
}

/// Builder for one multi-tenant scheduled run, mirroring [`SimRun`].
///
/// ```ignore
/// let out = ScheduledRun::new(&net, &jobs, &params, config, &ContentionAware::default())
///     .routes(route_tables) // optional: memoized CSR route tables
///     .run()?;
/// println!("p99 completion: {} µs", out.completion_percentile(99.0));
/// ```
pub struct ScheduledRun<'a, N: Network> {
    net: &'a N,
    jobs: &'a [MulticastJob],
    params: &'a SystemParams,
    config: WorkloadConfig,
    policy: &'a dyn JobScheduler,
    routes: Option<Vec<Arc<JobRoutes>>>,
}

impl<'a, N: Network> ScheduledRun<'a, N> {
    /// Describes a scheduled run: `jobs[i].start_us` is job `i`'s arrival
    /// time; `policy` decides the admissions.
    pub fn new(
        net: &'a N,
        jobs: &'a [MulticastJob],
        params: &'a SystemParams,
        config: WorkloadConfig,
        policy: &'a dyn JobScheduler,
    ) -> Self {
        ScheduledRun {
            net,
            jobs,
            params,
            config,
            policy,
            routes: None,
        }
    }

    /// Supplies interned route tables, one per job (same contract as
    /// [`SimRun::routes`]). The scheduler derives channel footprints from
    /// these instead of recomputing routes.
    #[must_use]
    pub fn routes(mut self, routes: Vec<Arc<JobRoutes>>) -> Self {
        self.routes = Some(routes);
        self
    }

    /// Plans admissions with the policy, then executes the admitted
    /// workload in one simulation.
    ///
    /// # Errors
    ///
    /// Same validation contract as [`SimRun::run`], including the checks on
    /// supplied route tables.
    pub fn run(self) -> Result<ScheduledOutcome, SimError> {
        crate::simulation::validate(self.net, self.jobs)?;
        let routes = crate::simulation::resolve_routes(self.net, self.jobs, self.routes)?;

        // Sorted channel footprints, one per job.
        let channels: Vec<Vec<ChannelId>> = routes
            .iter()
            .map(|r| {
                let mut set: Vec<ChannelId> =
                    (0..r.len()).flat_map(|k| r.route(k)).copied().collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();

        // Analytic solo-duration estimates (admission planning only; the
        // simulator decides actual completions).
        let estimates: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| estimate_duration_us(j, self.params))
            .collect();

        // Admit in arrival order (ties broken by job index, so the walk is
        // deterministic).
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by(|&a, &b| {
            self.jobs[a]
                .start_us
                .total_cmp(&self.jobs[b].start_us)
                .then(a.cmp(&b))
        });

        let mut inflight: Vec<InFlight> = Vec::with_capacity(self.jobs.len());
        let mut admit_us = vec![0.0f64; self.jobs.len()];
        for &j in &order {
            let arrival = self.jobs[j].start_us;
            let req = AdmissionRequest {
                job: j as u32,
                arrival_us: arrival,
                est_duration_us: estimates[j],
                channels: &channels,
                inflight: &inflight,
            };
            let chosen = self.policy.admit(&req);
            let admit = if chosen.is_finite() {
                chosen.max(arrival)
            } else {
                arrival
            };
            admit_us[j] = admit;
            inflight.push(InFlight {
                job: j as u32,
                admit_us: admit,
                est_end_us: admit + estimates[j],
            });
        }

        let mut admitted = self.jobs.to_vec();
        for (j, job) in admitted.iter_mut().enumerate() {
            job.start_us = admit_us[j];
        }
        let outcome = SimRun::new(self.net, &admitted, self.params, self.config)
            .routes(routes)
            .run()?;

        let stats = (0..self.jobs.len())
            .map(|j| {
                let arrival = self.jobs[j].start_us;
                let service = outcome.jobs[j].latency_us;
                let delivered = outcome.jobs[j]
                    .host_done_us
                    .iter()
                    .skip(1)
                    .filter(|&&t| t > 0.0)
                    .count() as u32;
                let unreached = outcome
                    .unreached
                    .iter()
                    .filter(|&&(job, _)| job as usize == j)
                    .count() as u32;
                JobStats {
                    job: j as u32,
                    arrival_us: arrival,
                    admit_us: admit_us[j],
                    queue_us: admit_us[j] - arrival,
                    service_us: service,
                    completion_us: (admit_us[j] - arrival) + service,
                    delivered,
                    unreached,
                }
            })
            .collect();

        Ok(ScheduledOutcome {
            policy: self.policy.name(),
            stats,
            outcome,
        })
    }
}

/// Analytic solo-latency estimate of one job (µs), used only to plan
/// admissions.
fn estimate_duration_us(job: &MulticastJob, params: &SystemParams) -> f64 {
    match (&job.payload, &job.nic) {
        (JobPayload::Personalized { .. }, _) => {
            // Source-injection bound: m packets per destination leave the
            // source serially.
            let steps = job.packets * (job.tree.len() as u32 - 1);
            smart_latency_from_steps(steps, params)
        }
        (JobPayload::Replicated, crate::sim::NicKind::Conventional) => {
            conventional_latency_us(&job.tree, job.packets, params)
        }
        (JobPayload::Replicated, crate::sim::NicKind::Smart(_)) => {
            // FPFS step count; FCFS differs slightly but the estimate only
            // shapes admission windows.
            let steps = fpfs_schedule(&job.tree, job.packets).total_steps();
            smart_latency_from_steps(steps, params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::builders::binomial_tree;
    use optimcast_topology::graph::HostId;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    fn params() -> SystemParams {
        SystemParams::paper_1997()
    }

    fn net(seed: u64) -> IrregularNetwork {
        IrregularNetwork::generate(IrregularConfig::default(), seed)
    }

    fn job_at(hosts: std::ops::Range<u32>, m: u32, arrival: f64) -> MulticastJob {
        let n = hosts.len() as u32;
        let mut j = MulticastJob::fpfs(binomial_tree(n), hosts.map(HostId).collect(), m);
        j.start_us = arrival;
        j
    }

    #[test]
    fn fifo_admits_every_job_at_arrival() {
        let n = net(1);
        let jobs = [
            job_at(0..16, 4, 0.0),
            job_at(8..24, 4, 10.0),
            job_at(16..32, 4, 20.0),
        ];
        let out = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &FifoAdmission,
        )
        .run()
        .unwrap();
        for s in &out.stats {
            assert_eq!(s.queue_us, 0.0, "job {} queued under FIFO", s.job);
            assert_eq!(s.admit_us, s.arrival_us);
            assert!((s.completion_us - s.service_us).abs() < 1e-12);
        }
        assert_eq!(out.deferred(), 0);
        assert_eq!(out.policy, "fifo");
    }

    /// FIFO scheduling is exactly the plain workload with arrival = start:
    /// the layer adds bookkeeping, never perturbs the simulation.
    #[test]
    fn fifo_equals_plain_simrun() {
        let n = net(2);
        let jobs = [job_at(0..16, 4, 0.0), job_at(4..20, 4, 35.0)];
        let scheduled = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &FifoAdmission,
        )
        .run()
        .unwrap();
        let plain = SimRun::new(&n, &jobs, &params(), WorkloadConfig::default())
            .run()
            .unwrap();
        assert_eq!(scheduled.outcome, plain);
    }

    /// With a single job in flight the two shipped policies are
    /// byte-identical: nothing can contend, so contention-aware admission
    /// degenerates to FIFO.
    #[test]
    fn policies_agree_on_single_job() {
        let n = net(3);
        let jobs = [job_at(0..32, 6, 42.5)];
        let fifo = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &FifoAdmission,
        )
        .run()
        .unwrap();
        let shaped = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &ContentionAware::default(),
        )
        .run()
        .unwrap();
        assert_eq!(fifo.outcome, shaped.outcome);
        assert_eq!(fifo.stats, shaped.stats);
    }

    /// Two identical overlapping jobs: the contention-aware policy defers
    /// the second past the first's estimated completion; FIFO does not.
    #[test]
    fn contention_aware_defers_identical_overlap() {
        let n = net(4);
        let jobs = [job_at(0..16, 8, 0.0), job_at(0..16, 8, 5.0)];
        // Identical bindings share every channel, so max_channel_load = 1
        // forces serialization.
        let shaped = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &ContentionAware::default(),
        )
        .run()
        .unwrap();
        assert_eq!(shaped.stats[0].queue_us, 0.0);
        let est = estimate_duration_us(&jobs[0], &params());
        assert!(
            (shaped.stats[1].admit_us - est).abs() < 1e-9,
            "second job admitted at {} (solo estimate {est})",
            shaped.stats[1].admit_us
        );
        assert_eq!(shaped.deferred(), 1);

        let fifo = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &FifoAdmission,
        )
        .run()
        .unwrap();
        assert_eq!(fifo.deferred(), 0);
    }

    /// Jobs with disjoint channel footprints are never deferred, no matter
    /// how tightly their windows overlap.
    #[test]
    fn disjoint_footprints_admit_on_arrival() {
        // A crossbar gives each host its own pair of channels, so jobs on
        // disjoint hosts have disjoint footprints.
        let n = IrregularNetwork::generate(
            IrregularConfig {
                switches: 1,
                ports: 32,
                hosts: 32,
            },
            0,
        );
        let jobs = [job_at(0..8, 4, 0.0), job_at(8..16, 4, 1.0)];
        let shaped = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &ContentionAware::default(),
        )
        .run()
        .unwrap();
        assert_eq!(shaped.deferred(), 0);
    }

    /// Per-job accounting conserves the destination set: delivered +
    /// unreached = group size for every job.
    #[test]
    fn per_job_counters_conserve_group_size() {
        let n = net(6);
        let jobs = [
            job_at(0..16, 3, 0.0),
            job_at(8..24, 3, 7.0),
            job_at(16..32, 3, 14.0),
        ];
        for policy in [
            &FifoAdmission as &dyn JobScheduler,
            &ContentionAware::default(),
        ] {
            let out = ScheduledRun::new(&n, &jobs, &params(), WorkloadConfig::default(), policy)
                .run()
                .unwrap();
            for s in &out.stats {
                let group = jobs[s.job as usize].tree.len() as u32 - 1;
                assert_eq!(
                    s.delivered + s.unreached,
                    group,
                    "job {} conservation under {}",
                    s.job,
                    policy.name()
                );
                assert_eq!(s.unreached, 0, "fault-free run reached everyone");
            }
        }
    }

    /// Percentile helper: nearest-rank semantics on the completion set.
    #[test]
    fn completion_percentiles_are_nearest_rank() {
        let n = net(7);
        let jobs = [
            job_at(0..8, 2, 0.0),
            job_at(8..16, 2, 3.0),
            job_at(16..24, 2, 6.0),
            job_at(24..32, 2, 9.0),
        ];
        let out = ScheduledRun::new(
            &n,
            &jobs,
            &params(),
            WorkloadConfig::default(),
            &FifoAdmission,
        )
        .run()
        .unwrap();
        let mut xs: Vec<f64> = out.stats.iter().map(|s| s.completion_us).collect();
        xs.sort_by(f64::total_cmp);
        assert_eq!(out.completion_percentile(50.0), xs[1]);
        assert_eq!(out.completion_percentile(99.0), xs[3]);
        assert_eq!(out.completion_percentile(0.0), xs[0]);
    }

    /// Route-table mismatches are typed errors, not panics: too few tables,
    /// and a table built for a smaller tree than its job's.
    #[test]
    fn route_count_mismatch_is_reported() {
        let n = net(8);
        let jobs = [job_at(0..8, 2, 0.0), job_at(8..16, 2, 0.0)];
        let table = |job: &MulticastJob| Arc::new(JobRoutes::build(&n, &job.tree, &job.binding));
        let run = |routes| {
            ScheduledRun::new(
                &n,
                &jobs,
                &params(),
                WorkloadConfig::default(),
                &FifoAdmission,
            )
            .routes(routes)
            .run()
            .unwrap_err()
        };
        assert_eq!(
            run(vec![table(&jobs[0])]),
            SimError::RouteCountMismatch { jobs: 2, routes: 1 }
        );
        assert_eq!(
            run(vec![table(&jobs[0]), table(&job_at(8..13, 2, 0.0))]),
            SimError::RouteTableMismatch {
                job: 1,
                covered: 5,
                ranks: 8
            }
        );
    }
}
