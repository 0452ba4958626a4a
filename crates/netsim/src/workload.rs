//! Multi-multicast workloads: several multicasts sharing one network.
//!
//! The paper's companion problem (Kesavan & Panda, ICPP'96: *Minimizing Node
//! Contention in Multiple Multicast*) is what happens when several multicast
//! jobs run concurrently: they contend both for **channels** (wormhole links)
//! and for **nodes** (a host's NI send/receive units are shared by every job
//! it participates in). This module generalises the single-multicast
//! simulator to a workload of jobs with per-job trees, bindings, packet
//! counts, start times, and NI disciplines; the [`SimRun`] builder executes
//! them on one shared network and reports per-job and aggregate metrics.
//!
//! The execution itself lives in the private simulator core, which composes
//! the per-job forwarding engines, the shared NI state, wormhole channel
//! reservation, and the observability hub ([`crate::observe`]). This module owns the public
//! workload vocabulary and [`SimRun`], the one driver over that core.
//!
//! [`crate::sim::run_multicast`] is a one-job [`SimRun`] with no options,
//! so every exactness test of the analytic models also validates this
//! engine. Per-job results ([`MulticastOutcome`]) carry what belongs to one
//! job; simulator effort (events processed, event-queue high-water mark) is
//! a property of the whole run and is reported only here, in
//! [`WorkloadOutcome::events`] and [`WorkloadOutcome::counters`].

use crate::arena::SimArena;
use crate::arq::NiModel;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::observe::{Observer, SimCounters, SimEvent};
use crate::sim::{ContentionMode, MulticastOutcome, NiTiming, NicKind};
use crate::simulation::Simulation;
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;
use std::borrow::Cow;
use std::sync::Arc;

/// What the job's packets carry (replication vs personalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPayload {
    /// Multicast: every destination receives the same `m` packets;
    /// intermediate NIs replicate per child.
    Replicated,
    /// Scatter: every non-source rank receives its *own* `m` packets;
    /// intermediate NIs relay each packet toward its destination's subtree
    /// (no replication). Requires a smart NI.
    Personalized {
        /// Source injection order.
        order: PersonalizedOrder,
    },
}

/// Source send-order for personalized payloads (see
/// `optimcast-collectives::scatter` for the policy study). Intermediate
/// nodes always forward in arrival order (FIFO), as a real NI would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersonalizedOrder {
    /// Per child block, the child's own packets first, then its subtree in
    /// preorder.
    OwnFirst,
    /// Per child block, deepest destinations first (ties in preorder).
    DeepestFirst,
}

impl PersonalizedOrder {
    /// The destinations of child `c`'s block, in send order: `c`'s subtree
    /// in preorder, stably re-sorted deepest first under
    /// [`Self::DeepestFirst`]. `depths` is [`MulticastTree::depths`].
    pub fn subtree_order(self, tree: &MulticastTree, depths: &[u32], c: Rank) -> Vec<Rank> {
        let mut dests = Vec::new();
        let mut stack = vec![c];
        while let Some(r) = stack.pop() {
            dests.push(r);
            stack.extend(tree.children(r).iter().rev());
        }
        if self == PersonalizedOrder::DeepestFirst {
            dests.sort_by_key(|&r| std::cmp::Reverse(depths[r.index()]));
        }
        dests
    }
}

/// One multicast job within a workload.
#[derive(Debug, Clone)]
pub struct MulticastJob {
    /// The multicast tree over ranks (rank 0 = source), shared by reference
    /// count so sweep engines can reuse one memoized tree across thousands
    /// of jobs without deep-cloning the arena.
    pub tree: Arc<MulticastTree>,
    /// Physical host of each rank. Must be duplicate-free *within* the job;
    /// different jobs may (and usually do) share hosts.
    pub binding: Vec<HostId>,
    /// Packets in the message (per destination, for personalized payloads).
    pub packets: u32,
    /// Time (µs) at which the source host initiates the multicast.
    pub start_us: f64,
    /// NI architecture executing this job's tree.
    pub nic: NicKind,
    /// Replicated (multicast) or personalized (scatter) payload.
    pub payload: JobPayload,
}

impl MulticastJob {
    /// A smart-FPFS multicast job starting at time zero. Accepts either an
    /// owned [`MulticastTree`] or a shared `Arc<MulticastTree>`.
    pub fn fpfs(tree: impl Into<Arc<MulticastTree>>, binding: Vec<HostId>, packets: u32) -> Self {
        MulticastJob {
            tree: tree.into(),
            binding,
            packets,
            start_us: 0.0,
            nic: NicKind::Smart(ForwardingDiscipline::Fpfs),
            payload: JobPayload::Replicated,
        }
    }

    /// A smart-NI scatter job starting at time zero.
    pub fn scatter(
        tree: impl Into<Arc<MulticastTree>>,
        binding: Vec<HostId>,
        packets: u32,
        order: PersonalizedOrder,
    ) -> Self {
        MulticastJob {
            tree: tree.into(),
            binding,
            packets,
            start_us: 0.0,
            nic: NicKind::Smart(ForwardingDiscipline::Fpfs),
            payload: JobPayload::Personalized { order },
        }
    }
}

/// Workload-level configuration shared by every job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Channel contention model.
    pub contention: ContentionMode,
    /// NI send-unit release policy.
    pub timing: NiTiming,
    /// Per-host NI resources (send units, send-queue bound). The default
    /// single-unit model is the paper's NI and what every committed golden
    /// was pinned under.
    pub ni: NiModel,
    /// Record a [`SimEvent`] timeline in the outcome (off by default —
    /// traces grow with `jobs × packets × depth`).
    pub trace: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            contention: ContentionMode::Wormhole,
            timing: NiTiming::Handshake,
            ni: NiModel::default(),
            trace: false,
        }
    }
}

/// Results of a workload run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadOutcome {
    /// Per-job outcomes, in job order. `latency_us` is measured from the
    /// job's own `start_us`.
    pub jobs: Vec<MulticastOutcome>,
    /// Completion time of the last job, from time zero (µs).
    pub makespan_us: f64,
    /// Total sender stall time on busy channels, all jobs (µs).
    pub channel_wait_us: f64,
    /// Per-host maximum packets resident in the NI forwarding buffer,
    /// aggregated over all jobs the host serves.
    pub max_host_buffer: Vec<u32>,
    /// Discrete events processed.
    pub events: u64,
    /// Structured aggregate counters (always collected; never affects
    /// simulated timing).
    pub counters: SimCounters,
    /// Destinations written off as lost causes, as `(job, rank)` in
    /// job-then-rank order: crashed ranks written off by live repair
    /// epochs, plus ranks a windowed-ARQ per-message deadline expired on.
    /// Always empty without a [`crate::fault::RepairPolicy`] or
    /// `deadline_us`: otherwise an undelivered destination is a
    /// [`SimError::DeliveryFailed`], not an outcome.
    pub unreached: Vec<(u32, Rank)>,
    /// Timeline (empty unless [`WorkloadConfig::trace`] is set): the sends,
    /// receives, host completions, losses, retries, abandonments, repair
    /// epochs and reissues, stably sorted by time.
    pub trace: Vec<SimEvent>,
}

/// Builder for one workload execution — the single entry point to the
/// simulator.
///
/// Construct with the four mandatory inputs, chain any subset of
/// [`routes`](SimRun::routes), [`faults`](SimRun::faults) and
/// [`observer`](SimRun::observer), then [`run`](SimRun::run), or
/// [`run_into`](SimRun::run_into) to reuse one [`SimArena`] and one
/// [`WorkloadOutcome`] across many runs.
/// Each option is orthogonal to the others, so a new one adds one builder
/// method rather than a family of entry points.
///
/// ```ignore
/// let outcome = SimRun::new(&net, &jobs, &params, config)
///     .routes(route_tables)   // optional: memoized CSR route tables
///     .faults(&plan)          // optional: deterministic fault injection
///     .observer(&mut probe)   // optional: simulation event subscriber
///     .run()?;
/// ```
pub struct SimRun<'a, N: Network> {
    net: &'a N,
    jobs: &'a [MulticastJob],
    params: &'a SystemParams,
    config: WorkloadConfig,
    routes: Option<Cow<'a, [Arc<crate::routes::JobRoutes>]>>,
    fault: Option<&'a FaultPlan>,
    observer: Option<&'a mut dyn Observer>,
}

impl<'a, N: Network> SimRun<'a, N> {
    /// Starts a run description from the mandatory inputs: the shared
    /// network, the job list, the system timing parameters, and the
    /// workload-level configuration.
    pub fn new(
        net: &'a N,
        jobs: &'a [MulticastJob],
        params: &'a SystemParams,
        config: WorkloadConfig,
    ) -> Self {
        SimRun {
            net,
            jobs,
            params,
            config,
            routes: None,
            fault: None,
            observer: None,
        }
    }

    /// Supplies interned route tables, one per job, each built by
    /// [`crate::routes::JobRoutes::build`] from the job's `(tree, binding)`
    /// on the same network. Sweep engines memoize the tables across cells
    /// (the same `(topology, chain, tree)` triple recurs for every
    /// packet-count point of a series) and skip the per-run route
    /// computation; the outcome is identical to an un-routed run. Takes
    /// the tables as a `Vec` or, with no allocation, as a borrowed slice
    /// (`std::slice::from_ref(&table)` for one job).
    #[must_use]
    pub fn routes(mut self, routes: impl Into<Cow<'a, [Arc<crate::routes::JobRoutes>]>>) -> Self {
        self.routes = Some(routes.into());
        self
    }

    /// Runs under a [`FaultPlan`]: packets may be dropped, corrupted, or
    /// refused per the plan, the stop-and-wait reliability layer
    /// retransmits with capped exponential backoff, and crashed hosts stay
    /// silent. A trivial (fault-free) plan follows the exact fault-free
    /// code path, so outcomes are byte-identical to an un-faulted run.
    #[must_use]
    pub fn faults(mut self, fault: &'a FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attaches a caller-supplied [`Observer`] receiving every [`SimEvent`]
    /// alongside the built-in metric/counter/trace sinks. Observers see
    /// plain values and cannot perturb the simulation; unlike the trace in
    /// [`WorkloadOutcome`] they also witness *failing* runs — the events
    /// fire before [`SimError::DeliveryFailed`] is raised.
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Executes the described workload.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for an empty workload, a job with zero
    /// packets, a binding that does not cover its tree, repeats a host
    /// within one job, names a host outside the network, starts at a
    /// negative time, or pairs a personalized payload with a conventional
    /// NI. With [`routes`](SimRun::routes), additionally
    /// [`SimError::RouteCountMismatch`] unless there is one table per job
    /// and [`SimError::RouteTableMismatch`] for a table whose rank count
    /// differs from its job's tree. With [`faults`](SimRun::faults),
    /// additionally [`SimError::InvalidFaultPlan`] for a malformed plan,
    /// [`SimError::FaultsNeedHandshakeTiming`] when a non-trivial plan is
    /// paired with overlapped NI timing, and [`SimError::DeliveryFailed`]
    /// when the plan's losses exceed the retransmission budget. A tree that
    /// leaves a rank unattached to the source fails with
    /// [`SimError::DeliveryFailed`] naming it, plan or not, and a
    /// replicated smart-NI job with a rank of more than `u16::MAX`
    /// children with [`SimError::FanOutTooWide`].
    pub fn run(self) -> Result<WorkloadOutcome, SimError> {
        let mut out = WorkloadOutcome::default();
        self.run_into(&mut SimArena::new(), &mut out)?;
        Ok(out)
    }

    /// [`run`](SimRun::run) over `arena`'s storage, writing the outcome
    /// over `out`: the run resets what it borrows to a fresh run's state,
    /// so `out` ends equal to `run()`'s outcome, and with a warm arena and
    /// an `out` from a run as large the run allocates nothing. On error
    /// `out` is left as it was.
    ///
    /// # Errors
    ///
    /// As [`run`](SimRun::run). The arena stays usable after an error.
    pub fn run_into(self, arena: &mut SimArena, out: &mut WorkloadOutcome) -> Result<(), SimError> {
        Simulation::new(
            self.net,
            self.jobs,
            self.params,
            self.config,
            self.fault,
            self.observer,
            self.routes.as_deref(),
            arena,
        )?
        .run(arena, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_multicast;
    use crate::sim::RunConfig;
    use optimcast_core::builders::{binomial_tree, kbinomial_tree};
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    fn params() -> SystemParams {
        SystemParams::paper_1997()
    }

    fn net(seed: u64) -> IrregularNetwork {
        IrregularNetwork::generate(IrregularConfig::default(), seed)
    }

    fn job(tree: optimcast_core::tree::MulticastTree, hosts: Vec<u32>, m: u32) -> MulticastJob {
        MulticastJob::fpfs(tree, hosts.into_iter().map(HostId).collect(), m)
    }

    /// A single-job workload reproduces run_multicast exactly, field for
    /// field, and supplying the job's interned route table (an irregular
    /// net under wormhole contention) leaves the whole outcome unchanged.
    #[test]
    fn single_job_equals_run_multicast() {
        let n = net(1);
        let p = params();
        let tree = kbinomial_tree(32, 2);
        let binding: Vec<HostId> = (0..32).map(HostId).collect();
        let direct = run_multicast(&n, &tree, &binding, 6, &p, RunConfig::default()).unwrap();
        let jobs = [job(tree, (0..32).collect(), 6)];
        let run = || SimRun::new(&n, &jobs, &p, WorkloadConfig::default());
        let wl = run().run().unwrap();
        assert_eq!(wl.jobs[0], direct);
        assert_eq!(wl.makespan_us, direct.latency_us);
        let routes = Arc::new(crate::routes::JobRoutes::build(
            &n,
            &jobs[0].tree,
            &jobs[0].binding,
        ));
        assert_eq!(run().routes(vec![routes]).run().unwrap(), wl);
    }

    /// Disjoint jobs on disjoint hosts with ideal contention do not affect
    /// each other at all.
    #[test]
    fn disjoint_jobs_are_independent() {
        let n = net(2);
        let t1 = binomial_tree(16);
        let t2 = kbinomial_tree(16, 2);
        let solo1 = run_multicast(
            &n,
            &t1,
            &(0..16).map(HostId).collect::<Vec<_>>(),
            4,
            &params(),
            RunConfig {
                contention: ContentionMode::Ideal,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let solo2 = run_multicast(
            &n,
            &t2,
            &(16..32).map(HostId).collect::<Vec<_>>(),
            4,
            &params(),
            RunConfig {
                contention: ContentionMode::Ideal,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let wl = SimRun::new(
            &n,
            &[
                job(t1, (0..16).collect(), 4),
                job(t2, (16..32).collect(), 4),
            ],
            &params(),
            WorkloadConfig {
                contention: ContentionMode::Ideal,
                timing: NiTiming::Handshake,
                ..WorkloadConfig::default()
            },
        )
        .run()
        .unwrap();
        assert_eq!(wl.jobs[0].latency_us, solo1.latency_us);
        assert_eq!(wl.jobs[1].latency_us, solo2.latency_us);
    }

    /// Node contention: two jobs sharing every host slow each other down
    /// relative to running alone (the ICPP'96 companion problem). The
    /// topology seed is chosen so the two bindings' routes actually collide;
    /// some seeds yield enough path diversity that neither job is delayed.
    #[test]
    fn overlapping_jobs_interfere() {
        let n = net(5);
        let tree = binomial_tree(32);
        let binding: Vec<u32> = (0..32).collect();
        let rev: Vec<u32> = (0..32).rev().collect();
        let m = 8;
        let solo = run_multicast(
            &n,
            &tree,
            &binding.iter().map(|&h| HostId(h)).collect::<Vec<_>>(),
            m,
            &params(),
            RunConfig::default(),
        )
        .unwrap();
        let wl = SimRun::new(
            &n,
            &[job(tree.clone(), binding, m), job(tree.clone(), rev, m)],
            &params(),
            WorkloadConfig::default(),
        )
        .run()
        .unwrap();
        for out in &wl.jobs {
            assert!(
                out.latency_us >= solo.latency_us - 1e-9,
                "shared-host job faster than solo?"
            );
        }
        assert!(
            wl.jobs
                .iter()
                .any(|o| o.latency_us > solo.latency_us + 1e-9),
            "expected at least one job to be slowed by node contention"
        );
    }

    /// Staggered start times shift completions accordingly.
    #[test]
    fn start_time_offsets_respected() {
        let n = net(4);
        let tree = binomial_tree(8);
        let mut j2 = job(tree.clone(), (8..16).collect(), 2);
        j2.start_us = 1000.0;
        let wl = SimRun::new(
            &n,
            &[job(tree, (0..8).collect(), 2), j2],
            &params(),
            WorkloadConfig {
                contention: ContentionMode::Ideal,
                timing: NiTiming::Handshake,
                ..WorkloadConfig::default()
            },
        )
        .run()
        .unwrap();
        // Per-job latency is measured from the job's own start.
        assert!((wl.jobs[0].latency_us - wl.jobs[1].latency_us).abs() < 1e-9);
        assert!((wl.makespan_us - (1000.0 + wl.jobs[1].latency_us)).abs() < 1e-9);
    }

    /// Aggregate host buffers cover all jobs a host serves.
    #[test]
    fn shared_host_buffers_aggregate() {
        let n = net(5);
        let tree = binomial_tree(16);
        let m = 8;
        let wl = SimRun::new(
            &n,
            &[
                job(tree.clone(), (0..16).collect(), m),
                job(tree.clone(), (0..16).collect(), m),
            ],
            &params(),
            WorkloadConfig::default(),
        )
        .run()
        .unwrap();
        // The shared source NI stages both messages.
        assert!(wl.max_host_buffer[0] >= m);
        // Workload-level determinism.
        let wl2 = SimRun::new(
            &n,
            &[
                job(tree.clone(), (0..16).collect(), m),
                job(tree, (0..16).collect(), m),
            ],
            &params(),
            WorkloadConfig::default(),
        )
        .run()
        .unwrap();
        assert_eq!(wl, wl2);
    }

    /// Mixed NI kinds in one workload.
    #[test]
    fn mixed_nic_kinds() {
        let n = net(6);
        let tree = binomial_tree(8);
        let mut conv = job(tree.clone(), (8..16).collect(), 3);
        conv.nic = NicKind::Conventional;
        let wl = SimRun::new(
            &n,
            &[job(tree, (0..8).collect(), 3), conv],
            &params(),
            WorkloadConfig {
                contention: ContentionMode::Ideal,
                timing: NiTiming::Handshake,
                ..WorkloadConfig::default()
            },
        )
        .run()
        .unwrap();
        assert!(wl.jobs[1].latency_us > wl.jobs[0].latency_us);
    }

    /// Traces record every send, receive, and completion in time order.
    #[test]
    fn trace_timeline_is_complete_and_ordered() {
        let n = net(7);
        let tree = binomial_tree(8);
        let m = 3;
        let wl = SimRun::new(
            &n,
            &[job(tree, (0..8).collect(), m)],
            &params(),
            WorkloadConfig {
                trace: true,
                ..WorkloadConfig::default()
            },
        )
        .run()
        .unwrap();
        let sends = wl
            .trace
            .iter()
            .filter(|ev| matches!(ev, SimEvent::SendStart { .. }))
            .count();
        let recvs = wl
            .trace
            .iter()
            .filter(|ev| matches!(ev, SimEvent::RecvDone { .. }))
            .count();
        let dones = wl
            .trace
            .iter()
            .filter(|ev| matches!(ev, SimEvent::HostDone { .. }))
            .count();
        assert_eq!(sends, 7 * m as usize);
        assert_eq!(recvs, 7 * m as usize);
        assert_eq!(dones, 7);
        for w in wl.trace.windows(2) {
            let t = |ev: &SimEvent| ev.t_us().unwrap();
            assert!(t(&w[1]) >= t(&w[0]) - 1e-9, "trace out of order");
        }
        // Untraced runs stay lean.
        let quiet = SimRun::new(
            &n,
            &[job(binomial_tree(8), (0..8).collect(), m)],
            &params(),
            WorkloadConfig::default(),
        )
        .run()
        .unwrap();
        assert!(quiet.trace.is_empty());
    }

    #[test]
    fn empty_workload_is_an_error() {
        let err = SimRun::new(&net(0), &[], &params(), WorkloadConfig::default())
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::EmptyWorkload);
        assert!(err.to_string().contains("at least one job"));
    }
}

#[cfg(test)]
mod scatter_tests {
    use super::*;

    use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};
    use optimcast_core::tree::Rank;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    fn params() -> SystemParams {
        SystemParams::paper_1997()
    }

    fn crossbar(hosts: u32) -> IrregularNetwork {
        IrregularNetwork::generate(
            IrregularConfig {
                switches: 1,
                ports: hosts,
                hosts,
            },
            0,
        )
    }

    fn ideal() -> WorkloadConfig {
        WorkloadConfig {
            contention: ContentionMode::Ideal,
            timing: NiTiming::Handshake,
            ..WorkloadConfig::default()
        }
    }

    fn run_scatter(
        net: &IrregularNetwork,
        tree: optimcast_core::tree::MulticastTree,
        m: u32,
        order: PersonalizedOrder,
        cfg: WorkloadConfig,
    ) -> MulticastOutcome {
        let n = tree.len() as u32;
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        SimRun::new(
            net,
            &[MulticastJob::scatter(tree, binding, m, order)],
            &params(),
            cfg,
        )
        .run()
        .unwrap()
        .jobs
        .swap_remove(0)
    }

    /// Chain scatter with deepest-first injection hits the source bound:
    /// latency = t_s + m(n-1) steps * t_step + t_r, matching the analytic
    /// scatter schedule exactly.
    #[test]
    fn chain_scatter_matches_source_bound() {
        let net = crossbar(9);
        for m in [1u32, 2, 4] {
            let out = run_scatter(
                &net,
                linear_tree(9),
                m,
                PersonalizedOrder::DeepestFirst,
                ideal(),
            );
            let steps = f64::from(m * 8);
            let expect = 12.5 + steps * 5.0 + 12.5;
            assert!(
                (out.latency_us - expect).abs() < 1e-6,
                "m={m}: {} vs {expect}",
                out.latency_us
            );
        }
    }

    /// Every rank receives exactly its m packets; transit packets do not
    /// count towards completion.
    #[test]
    fn scatter_delivery_is_personalized() {
        let net = crossbar(16);
        let out = run_scatter(
            &net,
            binomial_tree(16),
            3,
            PersonalizedOrder::OwnFirst,
            ideal(),
        );
        for r in 1..16 {
            assert!(out.host_done_us[r] > 0.0, "rank {r} incomplete");
        }
        // Total transmissions = sum over dests of depth * m.
        let expect: u64 = binomial_tree(16)
            .depths()
            .iter()
            .map(|&d| u64::from(d) * 3)
            .sum();
        assert_eq!(out.total_sends, expect);
    }

    /// OwnFirst scatter simulation equals the analytic scatter schedule on
    /// a crossbar (FIFO relay preserves the per-child preorder the analytic
    /// scheduler uses).
    #[test]
    fn own_first_matches_analytic_schedule() {
        // The analytic scatter scheduler lives in optimcast-collectives,
        // which depends on this crate; to avoid a cycle the equality test
        // lives there (`collectives::scatter` integration). Here: the step
        // identity for a star tree, computable by hand — the source sends
        // m(n-1) packets, one per step, and the i-th enqueued packet lands
        // at step i.
        let net = crossbar(6);
        let mut star = optimcast_core::tree::MulticastTree::with_capacity(6);
        for i in 1..6 {
            star.attach(Rank::SOURCE, Rank(i));
        }
        assert_eq!(star.depth(), 1);
        let m = 2;
        let out = run_scatter(&net, star, m, PersonalizedOrder::OwnFirst, ideal());
        let expect = 12.5 + f64::from(m * 5) * 5.0 + 12.5;
        assert!((out.latency_us - expect).abs() < 1e-6);
    }

    /// Scatter under wormhole contention never beats the ideal run.
    #[test]
    fn scatter_wormhole_no_faster() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 12);
        let tree = kbinomial_tree(32, 2);
        let binding: Vec<HostId> = (0..32).map(HostId).collect();
        let job = |order| MulticastJob::scatter(tree.clone(), binding.clone(), 4, order);
        for order in [PersonalizedOrder::OwnFirst, PersonalizedOrder::DeepestFirst] {
            let ideal_out = SimRun::new(&net, &[job(order)], &params(), ideal())
                .run()
                .unwrap();
            let worm = SimRun::new(&net, &[job(order)], &params(), WorkloadConfig::default())
                .run()
                .unwrap();
            assert!(
                worm.jobs[0].latency_us >= ideal_out.jobs[0].latency_us - 1e-9,
                "{order:?}"
            );
        }
    }

    /// Mixed workload: a multicast and a scatter share the network.
    #[test]
    fn multicast_and_scatter_coexist() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 13);
        let mc = MulticastJob::fpfs(binomial_tree(16), (0..16).map(HostId).collect(), 4);
        let sc = MulticastJob::scatter(
            linear_tree(16),
            (16..32).map(HostId).collect(),
            4,
            PersonalizedOrder::DeepestFirst,
        );
        let wl = SimRun::new(&net, &[mc, sc], &params(), WorkloadConfig::default())
            .run()
            .unwrap();
        assert!(wl.jobs[0].latency_us > 0.0);
        assert!(wl.jobs[1].latency_us > 0.0);
        assert_eq!(wl.jobs.len(), 2);
    }

    /// The source NI buffer holds the full personalized payload; relays
    /// hold single packets briefly.
    #[test]
    fn scatter_buffer_accounting() {
        let net = crossbar(8);
        let tree = linear_tree(8);
        let m = 2;
        let n = tree.len() as u32;
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let wl = SimRun::new(
            &net,
            &[MulticastJob::scatter(
                tree,
                binding,
                m,
                PersonalizedOrder::DeepestFirst,
            )],
            &params(),
            ideal(),
        )
        .run()
        .unwrap();
        assert_eq!(wl.max_host_buffer[0], m * 7, "source stages everything");
        for h in 1..7 {
            assert!(
                wl.max_host_buffer[h] <= 2,
                "relay {h} held {}",
                wl.max_host_buffer[h]
            );
        }
    }

    #[test]
    fn conventional_scatter_is_an_error() {
        let net = crossbar(4);
        let mut job = MulticastJob::scatter(
            linear_tree(4),
            (0..4).map(HostId).collect(),
            1,
            PersonalizedOrder::OwnFirst,
        );
        job.nic = NicKind::Conventional;
        let err = SimRun::new(&net, &[job], &params(), WorkloadConfig::default())
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::PersonalizedNeedsSmartNic { job: 0 });
        assert!(err.to_string().contains("require smart NI"));
    }
}
