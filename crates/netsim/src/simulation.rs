//! The component-based simulator core.
//!
//! [`Simulation`] wires the pieces together and owns the event loop:
//!
//! * [`crate::host::HostModel`] — NI send/receive units and
//!   forwarding-buffer occupancy, shared across jobs (node contention);
//! * [`crate::channel::ChannelManager`] — wormhole route reservation
//!   (channel contention);
//! * [`crate::discipline`] — one [`ForwardingDiscipline`] engine per job,
//!   selected from its `(NicKind, JobPayload)`;
//! * [`crate::observe::ObserverHub`] — metrics, counters, and the optional
//!   trace timeline, all fed from the same hooks.
//!
//! The core handles what every engine shares — dispatching queued sends
//! through channel reservation, serializing arrivals on receive units,
//! handshake send-unit release — and delegates policy to the engines. Event
//! scheduling order is part of the simulator's contract: ties in simulated
//! time resolve by insertion order, so the golden-equivalence tests pin the
//! exact sequence this module produces.

use crate::arq::{self, ArqState, Slot};
use crate::discipline::{conventional::Conventional, fcfs::Fcfs, fpfs::Fpfs, scatter::Scatter};
use crate::discipline::{record_receive, release_replicated_copy, ForwardingDiscipline};
use crate::engine::EventQueue;
use crate::error::SimError;
use crate::event::{Ev, SendItem};
use crate::fault::{FaultKind, FaultPlan};
use crate::host::HostModel;
use crate::observe::{Observer, ObserverHub};
use crate::routes::JobRoutes;
use crate::sim::{MulticastOutcome, NiTiming, NicKind};
use crate::time::SimTime;
use crate::transport::{LinkContext, PacketView, SimTransport, Transport, TransportResult};
use crate::workload::{JobPayload, MulticastJob, WorkloadConfig, WorkloadOutcome};
use optimcast_core::params::SystemParams;
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;
use std::sync::Arc;

/// Per-(job, rank) participant state.
pub(crate) struct PartState {
    /// Packets received so far (for personalized payloads: own packets).
    pub received: u32,
    /// NI completion time of the latest received packet.
    pub last_recv: SimTime,
    /// Host completion time, once the full message is in.
    pub host_done: Option<SimTime>,
    /// Conventional NI: index of the child message being prepared.
    pub conv_child: usize,
    /// Conventional NI: packets of the current child message still in
    /// flight.
    pub conv_pending: u32,
}

/// All mutable simulation state, shared with the engines.
///
/// Kept separate from the engine table so the event loop can hold `&mut
/// SimState` and `&dyn ForwardingDiscipline` simultaneously (disjoint field
/// borrows).
pub(crate) struct SimState<'a> {
    pub jobs: &'a [MulticastJob],
    pub params: &'a SystemParams,
    pub config: WorkloadConfig,
    /// `routes[job].route(rank)`: channel route from `rank`'s parent to
    /// `rank`, interned CSR-style (shared with the sweep cache when the
    /// caller passed prebuilt tables).
    pub routes: Vec<Arc<JobRoutes>>,
    pub hosts: HostModel,
    pub parts: Vec<Vec<PartState>>,
    /// Replicated payloads: outstanding copies per packet at each rank's
    /// NI (the packet leaves the forwarding buffer when its count hits
    /// zero). One rank-major table per job, `packets` entries per rank;
    /// reach it through [`SimState::rank_copies`].
    copies_left: Vec<Vec<u32>>,
    /// The packet-motion backend. Every send decision — channel stall,
    /// arrival instant, loss verdict — flows through this trait object; the
    /// default is [`SimTransport`] over the wormhole channel manager.
    pub transport: Box<dyn Transport + 'a>,
    pub queue: EventQueue<Ev>,
    pub obs: ObserverHub<'a>,
    /// Active fault plan, if any. `None` (including trivial plans, filtered
    /// at construction) follows the exact fault-free code path, so fault-free
    /// runs stay byte-identical to the pre-fault simulator.
    pub fault: Option<&'a FaultPlan>,
}

impl<'a> SimState<'a> {
    /// The job's descriptor, borrowed for the workload's lifetime (not the
    /// state borrow), so engines can read it while mutating state.
    pub fn job(&self, job: u32) -> &'a MulticastJob {
        &self.jobs[job as usize]
    }

    /// The physical host bound to `(job, rank)`.
    pub fn host_of(&self, job: u32, r: Rank) -> HostId {
        self.jobs[job as usize].binding[r.index()]
    }

    /// Queues a transmission on the host's send unit (with queue-depth
    /// observation).
    pub fn enqueue_send(&mut self, h: HostId, item: SendItem) {
        let depth = self.hosts.enqueue(h, item);
        self.obs.send_enqueued(h, depth);
    }

    /// Stages `n` packets in the host's forwarding buffer (with occupancy
    /// observation).
    pub fn stage(&mut self, h: HostId, n: u32) {
        let resident = self.hosts.stage(h, n);
        self.obs.buffer_grew(h, resident);
    }

    /// Releases one staged packet.
    pub fn unstage(&mut self, h: HostId) {
        self.hosts.unstage(h);
    }

    /// `(job, rank)`'s outstanding-copy counters, one per packet.
    pub fn rank_copies(&mut self, job: u32, r: Rank) -> &mut [u32] {
        let packets = self.jobs[job as usize].packets as usize;
        let start = r.index() * packets;
        &mut self.copies_left[job as usize][start..start + packets]
    }

    /// Marks `(job, rank)` complete `t_r` after its last receive; returns
    /// the completion time.
    pub fn finish_host(&mut self, now: SimTime, job: u32, rank: Rank) -> SimTime {
        let done = now + self.params.t_r;
        self.parts[job as usize][rank.index()].host_done = Some(done);
        self.obs.host_done(done.as_us(), job, rank);
        done
    }
}

/// Rejects malformed workloads with a typed error (the former panic set).
pub(crate) fn validate<N: Network>(net: &N, jobs: &[MulticastJob]) -> Result<(), SimError> {
    if jobs.is_empty() {
        return Err(SimError::EmptyWorkload);
    }
    let n_hosts = net.num_hosts() as usize;
    for (j, job) in jobs.iter().enumerate() {
        if job.packets < 1 {
            return Err(SimError::ZeroPackets { job: j });
        }
        if job.binding.len() != job.tree.len() {
            return Err(SimError::BindingMismatch {
                job: j,
                bound: job.binding.len(),
                ranks: job.tree.len(),
            });
        }
        // NaN must be rejected too: it would poison the event-queue order.
        if job.start_us < 0.0 || job.start_us.is_nan() {
            return Err(SimError::NegativeStart {
                job: j,
                start_us: job.start_us,
            });
        }
        if matches!(job.payload, JobPayload::Personalized { .. })
            && !matches!(job.nic, NicKind::Smart(_))
        {
            return Err(SimError::PersonalizedNeedsSmartNic { job: j });
        }
        let mut seen = vec![false; n_hosts];
        for &h in &job.binding {
            if h.index() >= n_hosts {
                return Err(SimError::HostOutOfRange {
                    job: j,
                    host: h,
                    hosts: n_hosts,
                });
            }
            if seen[h.index()] {
                return Err(SimError::DuplicateHost { job: j, host: h });
            }
            seen[h.index()] = true;
        }
    }
    Ok(())
}

/// A validated workload's route tables: the supplied ones, checked to hold
/// one table per job covering that job's tree, or fresh tables built by
/// [`JobRoutes::build`] from each job's `(tree, binding)` on `net`.
pub(crate) fn resolve_routes<N: Network>(
    net: &N,
    jobs: &[MulticastJob],
    routes: Option<Vec<Arc<JobRoutes>>>,
) -> Result<Vec<Arc<JobRoutes>>, SimError> {
    let Some(tables) = routes else {
        return Ok(jobs
            .iter()
            .map(|job| Arc::new(JobRoutes::build(net, &job.tree, &job.binding)))
            .collect());
    };
    if tables.len() != jobs.len() {
        return Err(SimError::RouteCountMismatch {
            jobs: jobs.len(),
            routes: tables.len(),
        });
    }
    for (j, (table, job)) in tables.iter().zip(jobs).enumerate() {
        if table.len() != job.tree.len() {
            return Err(SimError::RouteTableMismatch {
                job: j,
                covered: table.len(),
                ranks: job.tree.len(),
            });
        }
    }
    Ok(tables)
}

/// Selects the forwarding engine for a job's `(NicKind, JobPayload)`.
fn engine_for(job: &MulticastJob) -> Box<dyn ForwardingDiscipline> {
    use optimcast_core::schedule::ForwardingDiscipline as Kind;
    match (job.nic, job.payload) {
        (NicKind::Smart(Kind::Fpfs), JobPayload::Replicated) => Box::new(Fpfs),
        (NicKind::Smart(Kind::Fcfs), JobPayload::Replicated) => Box::new(Fcfs),
        (NicKind::Smart(_), JobPayload::Personalized { order }) => Box::new(Scatter { order }),
        (NicKind::Conventional, JobPayload::Replicated) => Box::new(Conventional),
        (NicKind::Conventional, JobPayload::Personalized { .. }) => {
            unreachable!("validate() rejects personalized payloads on conventional NIs")
        }
    }
}

/// One repair epoch's forwarding structure for a job: a sparse tree over
/// the job's *original* rank space spanning the source plus the undelivered
/// survivors, and its channel routes. Built at the epoch boundary, so the
/// zero-alloc steady state of fault-free runs is untouched.
struct EpochOverlay {
    tree: Arc<MulticastTree>,
    routes: Arc<JobRoutes>,
}

/// One workload execution: the engine table plus all mutable state.
pub(crate) struct Simulation<'a, N: Network> {
    st: SimState<'a>,
    engines: Vec<Box<dyn ForwardingDiscipline>>,
    /// The topology, retained so repair epochs can rebuild routes for the
    /// repaired tree.
    net: &'a N,
    /// Current repair epoch (0 = the initial issue; folded into the fault
    /// PRF so every epoch redraws independently and deterministically).
    epoch: u32,
    /// Per-(job, rank) flags for destinations written off as crashed by a
    /// repair epoch — reported in `WorkloadOutcome::unreached`, not as
    /// `DeliveryFailed`. Empty until the first exclusion (fault-free runs
    /// never allocate it).
    excluded: Vec<Vec<bool>>,
    /// Per-job overlay for the current repair epoch (`None` until a job's
    /// first repair). Empty until the first repair.
    overlay: Vec<Option<EpochOverlay>>,
    /// Selective-repeat window state, present when the fault plan sets
    /// `window > 1`. The windowed path replays the FPFS replication pattern
    /// with per-edge send windows and bypasses the per-job engines.
    arq: Option<ArqState>,
}

impl<'a, N: Network> Simulation<'a, N> {
    /// Validates the workload and assembles the components.
    /// `routes`, when given, must hold one table per job, each built by
    /// [`JobRoutes::build`] from the job's `(tree, binding)` on `net` —
    /// the sweep engine passes memoized tables here so repeated cells skip
    /// the route computation. `None` builds the tables from scratch (see
    /// [`resolve_routes`]).
    pub fn new(
        net: &'a N,
        jobs: &'a [MulticastJob],
        params: &'a SystemParams,
        config: WorkloadConfig,
        fault: Option<&'a FaultPlan>,
        user_observer: Option<&'a mut dyn Observer>,
        routes: Option<Vec<Arc<JobRoutes>>>,
    ) -> Result<Self, SimError> {
        validate(net, jobs)?;
        config
            .ni
            .validate()
            .map_err(|reason| SimError::InvalidNiModel { reason })?;
        // A trivial plan is indistinguishable from no plan; normalizing it to
        // `None` keeps fault-free runs on the exact golden-pinned code path.
        let fault = fault.filter(|f| !f.is_trivial());
        if let Some(f) = fault {
            f.validate()
                .map_err(|reason| SimError::InvalidFaultPlan { reason })?;
            if config.timing == NiTiming::Overlapped {
                return Err(SimError::FaultsNeedHandshakeTiming);
            }
            if f.window == 1 && config.ni.send_units > 1 {
                return Err(SimError::InvalidNiModel {
                    reason: "stop-and-wait reliability holds the single send unit per \
                             handshake; multiple send units require window > 1",
                });
            }
            if f.window > 1 {
                // The windowed path replays the FPFS replication pattern
                // (like live repair does), so it supports exactly the
                // replicated smart-NI job shape.
                for job in jobs {
                    if !matches!(
                        (job.nic, job.payload),
                        (NicKind::Smart(_), JobPayload::Replicated)
                    ) {
                        return Err(SimError::InvalidNiModel {
                            reason: "windowed ARQ supports only replicated smart-NI jobs",
                        });
                    }
                }
            }
            // A crashed source has nothing to repair around and nothing to
            // send: reject the plan up front instead of silently abandoning
            // the whole destination set.
            for (j, job) in jobs.iter().enumerate() {
                if f.crashes.iter().any(|c| c.host == job.binding[0]) {
                    return Err(SimError::SourceCrashed {
                        job: j,
                        host: job.binding[0],
                    });
                }
            }
        }
        let routes = resolve_routes(net, jobs, routes)?;
        // Prewarm the trees' packed-children tables: `children()` is on the
        // event loop's hot path, and the lazy pack would otherwise charge
        // its one-time allocation to the zero-alloc steady-state budget.
        for job in jobs {
            job.tree.pack();
        }
        let parts = jobs
            .iter()
            .map(|job| {
                (0..job.tree.len())
                    .map(|_| PartState {
                        received: 0,
                        last_recv: SimTime::ZERO,
                        host_done: None,
                        conv_child: 0,
                        conv_pending: 0,
                    })
                    .collect()
            })
            .collect();
        let copies_left = jobs
            .iter()
            .map(|job| vec![0; job.tree.len() * job.packets as usize])
            .collect();
        let engines = jobs.iter().map(engine_for).collect();
        let arq = fault
            .filter(|f| f.window > 1)
            .map(|f| ArqState::new(jobs, net.num_hosts() as usize, f.window, f.deadline_us));
        Ok(Simulation {
            st: SimState {
                jobs,
                params,
                config,
                routes,
                hosts: HostModel::new(net.num_hosts() as usize, config.ni),
                parts,
                copies_left,
                transport: Box::new(SimTransport::new(
                    config.contention,
                    net.num_channels() as usize,
                    params,
                    fault,
                )),
                queue: EventQueue::new(),
                obs: ObserverHub::new(jobs.len(), config.trace, user_observer),
                fault,
            },
            engines,
            net,
            epoch: 0,
            excluded: Vec::new(),
            overlay: Vec::new(),
            arq,
        })
    }

    /// Runs the workload to completion and collects the outcome.
    ///
    /// With an active fault plan, a run whose losses exceed the
    /// retransmission budget terminates (the attempt cap guarantees event
    /// exhaustion) and reports [`SimError::DeliveryFailed`] instead of
    /// hanging or panicking — unless the plan carries a
    /// [`crate::fault::RepairPolicy`], in which case each queue exhaustion
    /// with undelivered destinations opens a *repair epoch* (see
    /// [`Self::start_repair_epoch`]) until every surviving destination is
    /// reached or the epoch budget is spent.
    pub fn run(mut self) -> Result<WorkloadOutcome, SimError> {
        for j in 0..self.st.jobs.len() {
            let job = &self.st.jobs[j];
            // Windowed ARQ bypasses the engines end-to-end. Its kickoff only
            // activates window state and schedules the source's TrySend at
            // the job's staging time — no packets surface in the shared
            // queues early, so staggered starts need no JobStart
            // indirection.
            if self.arq.is_some() {
                self.arq_kickoff(j as u32);
                continue;
            }
            // Smart-NI kickoff surfaces the job's packets in the shared
            // host send queues immediately; for a staggered job that would
            // let a host already relaying another job dispatch them before
            // the job arrives. Defer those kickoffs behind a JobStart
            // event at the end of the job's `t_s` source staging (the
            // moment its packets become sendable). Zero-start jobs keep
            // the original pre-seeded path byte-for-byte, and the
            // conventional NI is already fully event-driven (kickoff only
            // schedules `HostReady` at the job's start).
            if job.start_us == 0.0 || matches!(job.nic, NicKind::Conventional) {
                self.engines[j].kickoff(&mut self.st, j as u32);
            } else {
                self.st.queue.schedule(
                    SimTime::us(job.start_us + self.st.params.t_s),
                    Ev::JobStart(j as u32),
                );
            }
        }
        let mut last = SimTime::ZERO;
        loop {
            while let Some((now, ev)) = self.st.queue.pop() {
                last = now;
                match ev {
                    Ev::JobStart(j) => self.engines[j as usize].kickoff(&mut self.st, j),
                    Ev::TrySend(h) => self.handle_try_send(now, h),
                    Ev::Arrive { item, corrupt } => self.handle_arrive(now, item, corrupt),
                    Ev::RecvDone { item, corrupt } => self.handle_recv_done(now, item, corrupt),
                    Ev::HostReady { job, at } => {
                        self.engines[job as usize].on_host_ready(&mut self.st, now, job, at)
                    }
                    Ev::SendPrepared { job, at, child_idx } => self.engines[job as usize]
                        .on_send_prepared(&mut self.st, now, job, at, child_idx),
                    Ev::SendRelease { host, seq } => self.handle_send_release(now, host, seq),
                    Ev::AckTimeout { host, seq } => self.handle_ack_timeout(now, host, seq),
                    Ev::ArqRelease { host, seq } => self.handle_arq_release(now, host, seq),
                    Ev::ArqTimeout {
                        job,
                        child,
                        packet,
                        attempt,
                    } => self.handle_arq_timeout(now, job, child, packet, attempt),
                    Ev::ArqNack {
                        job,
                        at,
                        first,
                        last,
                    } => self.handle_arq_nack(now, job, at, first, last),
                }
            }
            if !self.start_repair_epoch(last) {
                break;
            }
        }
        self.collect()
    }

    /// The event queue drained. With a repair policy on the fault plan and
    /// destinations still undelivered, this is an epoch boundary rather
    /// than the end of the run: the source learns of the failure at
    /// `notify_us` after the last delivery activity, writes off the crashed
    /// destinations, repairs the surviving membership
    /// ([`MulticastTree::repair_partial`] — delivered ranks are not
    /// re-bound), and re-issues all packets over the repaired tree.
    /// Returns `true` when a new epoch was opened (events are queued again).
    ///
    /// Every decision here is a pure function of delivery state, which is
    /// itself deterministic, and the fault PRF keys off
    /// `(stream, job, epoch)` — so repair runs stay byte-identical at any
    /// worker count.
    fn start_repair_epoch(&mut self, last: SimTime) -> bool {
        let Some(f) = self.st.fault else {
            return false;
        };
        let Some(policy) = f.repair else {
            return false;
        };
        if self.epoch >= policy.max_epochs {
            return false;
        }
        let detect = last + policy.notify_us;
        let epoch = self.epoch + 1;
        let mut reissued = false;
        for j in 0..self.st.jobs.len() {
            let job = self.st.job(j as u32);
            // Live repair replays the FPFS replication pattern over the
            // repaired tree; only replicated smart-NI jobs support it.
            if !matches!(
                (job.nic, job.payload),
                (NicKind::Smart(_), JobPayload::Replicated)
            ) {
                continue;
            }
            let n = job.tree.len();
            let mut delivered: Vec<Rank> = Vec::new();
            let mut failed: Vec<Rank> = Vec::new();
            let mut pending = false;
            for r in 1..n {
                if self.st.parts[j][r].host_done.is_some() {
                    delivered.push(Rank(r as u32));
                } else if f.host_crashed(job.binding[r], detect.as_us()) {
                    // Crashes are permanent, so ranks written off in an
                    // earlier epoch land here again (idempotent).
                    failed.push(Rank(r as u32));
                } else {
                    pending = true;
                }
            }
            if failed.is_empty() && !pending {
                continue; // job fully delivered
            }
            if f.host_crashed(job.binding[0], detect.as_us()) {
                continue; // dead source: unrecoverable, surfaces at collect()
            }
            // Crashed destinations leave the membership for good; they are
            // reported in the outcome's `unreached`, not as a failure.
            if !failed.is_empty() {
                if self.excluded.is_empty() {
                    self.excluded = self
                        .st
                        .jobs
                        .iter()
                        .map(|jb| vec![false; jb.tree.len()])
                        .collect();
                }
                for &r in &failed {
                    self.excluded[j][r.index()] = true;
                }
            }
            if !pending {
                continue; // pure exclusion: nothing left to re-issue
            }
            let rep = job
                .tree
                .repair_partial(&failed, &delivered)
                .expect("surviving membership is repairable");
            // Re-express the repaired tree over the job's *original* rank
            // space (sparse: crashed and delivered ranks stay unattached,
            // which `JobRoutes::build` skips), preserving each parent's
            // child send order.
            let mut ov_tree = MulticastTree::with_capacity(n as u32);
            for u in rep.tree.dfs_preorder() {
                for &c in rep.tree.children(u) {
                    ov_tree.attach(rep.new_to_old[u.index()], rep.new_to_old[c.index()]);
                }
            }
            ov_tree.pack();
            let routes = Arc::new(JobRoutes::build(self.net, &ov_tree, &job.binding));
            if self.overlay.is_empty() {
                self.overlay = (0..self.st.jobs.len()).map(|_| None).collect();
            }
            self.overlay[j] = Some(EpochOverlay {
                tree: Arc::new(ov_tree),
                routes,
            });
            self.st.obs.repair_triggered(
                detect.as_us(),
                j as u32,
                epoch,
                failed.len() as u32,
                rep.reattached.len() as u32,
                policy.notify_us,
            );
            // Message-level re-issue: partial fragments at the undelivered
            // survivors are discarded, and the source restages the whole
            // message packet-major (FPFS order) over the repaired tree.
            for r in 1..n {
                let p = &mut self.st.parts[j][r];
                if p.host_done.is_none() {
                    p.received = 0;
                }
            }
            let ov = self.overlay[j].as_ref().expect("just installed");
            let kids = ov.tree.root_children();
            debug_assert!(!kids.is_empty(), "a pending survivor implies a child");
            let src_host = job.binding[0];
            for p in 0..job.packets {
                for &c in kids {
                    self.st.obs.packet_reissued(detect.as_us(), j as u32, c, p);
                    self.st.enqueue_send(
                        src_host,
                        SendItem {
                            job: j as u32,
                            packet: p,
                            from: Rank::SOURCE,
                            child: c,
                            dest: c,
                            attempt: 0,
                        },
                    );
                }
            }
            self.st.stage(src_host, job.packets);
            self.st
                .rank_copies(j as u32, Rank::SOURCE)
                .fill(kids.len() as u32);
            self.st
                .queue
                .schedule(detect + self.st.params.t_s, Ev::TrySend(src_host));
            reissued = true;
        }
        if reissued {
            self.epoch = epoch;
        }
        reissued
    }

    /// Dispatches the host's queued transmissions onto its free send units
    /// (one per `TrySend` with the paper's single-unit NI), then — under
    /// windowed ARQ — admits more pending packets into the freed queue
    /// space and dispatches those too. Crashed senders drain their queues
    /// instead.
    fn handle_try_send(&mut self, now: SimTime, h: HostId) {
        if let Some(f) = self.st.fault {
            if f.host_crashed(h, now.as_us()) {
                self.drain_dead_sender(now, h);
                return;
            }
        }
        loop {
            while let Some(item) = self.st.hosts.try_dispatch(h) {
                self.dispatch_one(now, h, item);
            }
            // Units exhausted or queue drained; window admission may
            // surface more queued work (only the windowed path ever does).
            if self.arq.is_none() || !self.arq_admit_host(now, h) {
                return;
            }
        }
    }

    /// One claimed send unit fires: reserve the route (stalling on busy
    /// channels under wormhole contention), notify observers, and schedule
    /// the arrival. Under an active fault plan the transmission's fate is
    /// decided here, at dispatch: stop-and-wait holds the unit and schedules
    /// an acknowledgement timeout for lost packets, while windowed ARQ frees
    /// the unit `t_send` after dispatch and arms a per-slot retransmission
    /// timer instead.
    fn dispatch_one(&mut self, now: SimTime, h: HostId, item: SendItem) {
        let st = &mut self.st;
        let j = item.job as usize;
        // During a repair epoch the job's forwarding structure is its
        // overlay (tree + routes over the original rank space); epoch 0
        // takes the unchanged hot path.
        let overlay = if self.epoch > 0 {
            self.overlay.get(j).and_then(Option::as_ref)
        } else {
            None
        };
        let route = match overlay {
            Some(ov) => ov.routes.route(item.child.index()),
            None => st.routes[j].route(item.child.index()),
        };
        debug_assert!(!route.is_empty());
        debug_assert_eq!(
            match overlay {
                Some(ov) => ov.tree.parent(item.child),
                None => st.jobs[j].tree.parent(item.child),
            },
            Some(item.from)
        );
        let dest_host = st.jobs[j].binding[item.child.index()];
        let view = PacketView {
            stream: item.job,
            epoch: self.epoch,
            packet: item.packet,
            attempt: item.attempt,
            payload: &[],
        };
        let ctx = LinkContext {
            now_us: now.as_us(),
            route,
            from_rank: item.from.0,
            to_rank: item.child.0,
        };
        let outcome = st
            .transport
            .send(h, dest_host, view, ctx)
            .expect("the simulator transport is infallible");
        let start_us = match outcome {
            TransportResult::Delivered { start_us, .. }
            | TransportResult::Lost { start_us, .. } => start_us,
        };
        st.obs.send_start(
            start_us,
            item.job,
            item.from,
            item.child,
            item.packet,
            start_us - now.as_us(),
        );
        if self.arq.is_some() {
            // Windowed ARQ: the unit frees once the wire is clear, whatever
            // the packet's fate — the window slot (and the parent's buffer
            // copy) stay charged until the handshake retires it.
            let seq = st.hosts.last_dispatched_seq(h);
            st.queue.schedule(
                SimTime::us(start_us) + st.params.t_send,
                Ev::ArqRelease { host: h, seq },
            );
            match outcome {
                TransportResult::Delivered {
                    arrival_us,
                    corrupt,
                    ..
                } => st
                    .queue
                    .schedule(SimTime::us(arrival_us), Ev::Arrive { item, corrupt }),
                TransportResult::Lost {
                    kind, retry_at_us, ..
                } => {
                    st.obs.packet_dropped(
                        start_us,
                        item.job,
                        item.from,
                        item.child,
                        item.packet,
                        kind,
                    );
                    if matches!(kind, FaultKind::LinkDown | FaultKind::ReceiverDead) {
                        let affected = if kind == FaultKind::ReceiverDead {
                            dest_host
                        } else {
                            h
                        };
                        st.obs.fault_triggered(start_us, kind, affected);
                    }
                    // The slot's retransmission timer; the PRF-derived
                    // jitter decorrelates simultaneous expirations while
                    // keeping the schedule byte-identical at any worker
                    // count.
                    let f = st.fault.expect("windowed ARQ runs under a fault plan");
                    let jitter = f.retry_jitter_us(
                        item.job,
                        item.from.0,
                        item.child.0,
                        item.packet,
                        item.attempt,
                    );
                    st.queue.schedule(
                        SimTime::us(retry_at_us + jitter),
                        Ev::ArqTimeout {
                            job: item.job,
                            child: item.child,
                            packet: item.packet,
                            attempt: item.attempt,
                        },
                    );
                }
            }
            return;
        }
        match outcome {
            TransportResult::Delivered {
                arrival_us,
                corrupt,
                ..
            } => {
                // A corrupt arrival still occupies the wire and receive
                // unit; the receiver NACKs it at RecvDone.
                st.queue
                    .schedule(SimTime::us(arrival_us), Ev::Arrive { item, corrupt })
            }
            TransportResult::Lost {
                kind, retry_at_us, ..
            } => {
                // Lost in the network: no arrival. The sender's unit stays
                // held until its acknowledgement timeout fires (handshake
                // timing is guaranteed here — construction rejects
                // overlapped timing with faults).
                st.obs
                    .packet_dropped(start_us, item.job, item.from, item.child, item.packet, kind);
                if matches!(kind, FaultKind::LinkDown | FaultKind::ReceiverDead) {
                    let affected = if kind == FaultKind::ReceiverDead {
                        dest_host
                    } else {
                        h
                    };
                    st.obs.fault_triggered(start_us, kind, affected);
                }
                let seq = st.hosts.last_dispatched_seq(h);
                st.queue
                    .schedule(SimTime::us(retry_at_us), Ev::AckTimeout { host: h, seq });
            }
        }
        if st.config.timing == NiTiming::Overlapped {
            let seq = st.hosts.last_dispatched_seq(h);
            st.queue.schedule(
                SimTime::us(start_us) + st.params.t_send,
                Ev::SendRelease { host: h, seq },
            );
        }
    }

    /// A crashed host reached its send turn: discard every queued
    /// transmission. Its unreached subtree surfaces as
    /// [`SimError::DeliveryFailed`] at collection.
    fn drain_dead_sender(&mut self, now: SimTime, h: HostId) {
        let st = &mut self.st;
        if st.hosts.send_queue_is_empty(h) {
            return;
        }
        st.obs
            .fault_triggered(now.as_us(), FaultKind::SenderDead, h);
        // Pop in place — no scratch Vec per drained host.
        while let Some(item) = st.hosts.pop_queued(h) {
            st.obs.packet_dropped(
                now.as_us(),
                item.job,
                item.from,
                item.child,
                item.packet,
                FaultKind::SenderDead,
            );
        }
    }

    /// Serializes the arrival on the receiver's NI receive unit. Under a
    /// fault plan with an NI buffer capacity, an arrival that would need
    /// forwarding-buffer space on a full NI is refused (negative
    /// acknowledgement) and the sender retransmits.
    fn handle_arrive(&mut self, now: SimTime, item: SendItem, corrupt: bool) {
        let st = &mut self.st;
        let h = st.host_of(item.job, item.child);
        if let Some(cap) = st.fault.and_then(|f| f.ni_buffer_capacity) {
            let jobd = st.job(item.job);
            // Only packets the NI must hold for forwarding compete for
            // buffer space — leaf deliveries and relayed personalized
            // packets stream through. In a repair epoch the forwarding
            // structure is the job's overlay tree.
            let overlay = if self.epoch > 0 {
                self.overlay.get(item.job as usize).and_then(Option::as_ref)
            } else {
                None
            };
            let would_stage = match jobd.payload {
                JobPayload::Replicated => match overlay {
                    Some(ov) => !ov.tree.children(item.child).is_empty(),
                    None => !jobd.tree.children(item.child).is_empty(),
                },
                JobPayload::Personalized { .. } => item.dest != item.child,
            };
            if would_stage && st.hosts.resident(h) >= cap {
                st.obs.packet_dropped(
                    now.as_us(),
                    item.job,
                    item.from,
                    item.child,
                    item.packet,
                    FaultKind::BufferOverflow,
                );
                st.obs
                    .fault_triggered(now.as_us(), FaultKind::BufferOverflow, h);
                let u_host = st.host_of(item.job, item.from);
                let released = st.hosts.release_send_unit(u_host);
                debug_assert_eq!(released.packet, item.packet);
                self.retransmit_or_abandon(now, u_host, released, 0.0);
                self.st.queue.schedule(now, Ev::TrySend(u_host));
                return;
            }
        }
        let (done, wait) = st.hosts.occupy_recv_unit(h, now, st.params.t_recv);
        if wait > 0.0 {
            st.obs.recv_unit_wait(item.job, wait);
        }
        st.queue.schedule(done, Ev::RecvDone { item, corrupt });
    }

    /// A packet finished arriving: complete the sender's handshake, deliver
    /// the sender acknowledgement, then hand the packet to the receiving
    /// job's engine. A corrupted packet is instead NACKed: the sender's unit
    /// frees (keeping its buffer copy) and the packet is re-enqueued.
    fn handle_recv_done(&mut self, now: SimTime, item: SendItem, corrupt: bool) {
        if self.arq.is_some() {
            self.arq_recv_done(now, item, corrupt);
            return;
        }
        let j = item.job as usize;
        if corrupt {
            debug_assert_eq!(self.st.config.timing, NiTiming::Handshake);
            let u_host = self.st.host_of(item.job, item.from);
            let released = self.st.hosts.release_send_unit(u_host);
            self.st.obs.packet_dropped(
                now.as_us(),
                item.job,
                item.from,
                item.child,
                item.packet,
                FaultKind::Corrupt,
            );
            self.retransmit_or_abandon(now, u_host, released, 0.0);
            self.st.queue.schedule(now, Ev::TrySend(u_host));
            return;
        }
        if self.st.config.timing == NiTiming::Handshake {
            // The handshake frees exactly the unit that carried this
            // transmission (with `s > 1` an out-of-order completion must not
            // release a sibling's unit).
            let u_host = self.st.host_of(item.job, item.from);
            self.st.hosts.release_matching(u_host, &item);
            self.engines[item.job as usize].on_copy_released(&mut self.st, item);
            self.st.queue.schedule(now, Ev::TrySend(u_host));
        }
        self.engines[j].sender_ack(&mut self.st, now, item.job, item.from);
        self.st
            .obs
            .recv_done(now.as_us(), item.job, item.child, item.packet);
        if self.epoch > 0 && self.overlay.get(j).and_then(Option::as_ref).is_some() {
            self.overlay_recv_done(now, item.job, item.child, item.packet);
        } else {
            self.engines[j].on_recv_done(
                &mut self.st,
                now,
                item.job,
                item.child,
                item.packet,
                item.dest,
            );
        }
    }

    /// Repair-epoch receive handling: the FPFS replication pattern over the
    /// job's overlay tree — forward the packet to every overlay child
    /// immediately, complete the host once the whole message is in.
    fn overlay_recv_done(&mut self, now: SimTime, job: u32, at: Rank, packet: u32) {
        let j = job as usize;
        let jobd = self.st.job(job);
        let packets = jobd.packets;
        let v_host = jobd.binding[at.index()];
        let ov = self.overlay[j].as_ref().expect("overlay epoch");
        let kids = ov.tree.children(at);
        let received = record_receive(&mut self.st, now, job, at);
        if !kids.is_empty() {
            self.st.rank_copies(job, at)[packet as usize] = kids.len() as u32;
            self.st.stage(v_host, 1);
            for &c in kids {
                self.st.enqueue_send(
                    v_host,
                    SendItem {
                        job,
                        packet,
                        from: at,
                        child: c,
                        dest: c,
                        attempt: 0,
                    },
                );
            }
            self.st.queue.schedule(now, Ev::TrySend(v_host));
        }
        if received == packets {
            self.st.finish_host(now, job, at);
        }
    }

    /// The acknowledgement for a (presumed lost) transmission never came:
    /// free the send unit and retransmit with backoff, or abandon the
    /// destination once the attempt budget is spent.
    fn handle_ack_timeout(&mut self, now: SimTime, h: HostId, seq: u64) {
        // A stale timeout (armed for an earlier transmission that has since
        // been acknowledged or NACKed) must not release a newer send.
        if self.st.hosts.in_flight_seq(h) != Some(seq) {
            return;
        }
        let item = self.st.hosts.release_send_unit(h);
        let waited = self
            .st
            .fault
            .expect("AckTimeout without a fault plan")
            .rto(item.attempt);
        self.retransmit_or_abandon(now, h, item, waited);
        self.st.queue.schedule(now, Ev::TrySend(h));
    }

    /// Re-enqueues a failed transmission with its attempt count bumped, or —
    /// once `max_attempts` is exhausted — abandons the destination, freeing
    /// the sender's buffer copy so the rest of the multicast can drain.
    fn retransmit_or_abandon(&mut self, now: SimTime, h: HostId, item: SendItem, waited_us: f64) {
        let f = self
            .st
            .fault
            .expect("reliability path requires a fault plan");
        if item.attempt + 1 >= f.max_attempts {
            self.st.obs.delivery_abandoned(
                now.as_us(),
                item.job,
                item.from,
                item.child,
                item.packet,
                item.attempt + 1,
            );
            self.engines[item.job as usize].on_copy_released(&mut self.st, item);
        } else {
            let next = SendItem {
                attempt: item.attempt + 1,
                ..item
            };
            self.st.obs.retransmit_scheduled(
                now.as_us(),
                next.job,
                next.from,
                next.child,
                next.packet,
                next.attempt,
                waited_us,
            );
            self.st.enqueue_send(h, next);
        }
    }

    /// Overlapped-timing release: the named dispatch frees its unit `t_send`
    /// after start, independent of the receiver. Applies the released job's
    /// buffer policy and lets the host dispatch its next queued packet.
    fn handle_send_release(&mut self, now: SimTime, h: HostId, seq: u64) {
        let item = self
            .st
            .hosts
            .release_by_seq(h, seq)
            .expect("overlapped release without its dispatch");
        self.engines[item.job as usize].on_copy_released(&mut self.st, item);
        self.st.queue.schedule(now, Ev::TrySend(h));
    }

    /// Windowed-ARQ unit release: the wire is clear `t_send` after dispatch,
    /// so the unit frees — but the packet's window slot (and the parent's
    /// buffer copy) stay charged until the handshake or an abandonment
    /// retires it.
    fn handle_arq_release(&mut self, now: SimTime, h: HostId, seq: u64) {
        if self.st.hosts.release_by_seq(h, seq).is_some() {
            self.st.queue.schedule(now, Ev::TrySend(h));
        }
    }

    /// Whether `now` lies past the job's per-message delivery deadline.
    fn arq_past_deadline(&self, now: SimTime, job: u32) -> bool {
        let Some(d) = self.arq.as_ref().and_then(|a| a.deadline_us) else {
            return false;
        };
        now.as_us() > self.st.job(job).start_us + d
    }

    /// Whether `(job, rank)` has been written off (deadline or repair
    /// exclusion).
    fn is_rank_excluded(&self, j: usize, r: Rank) -> bool {
        self.excluded.get(j).is_some_and(|e| e[r.index()])
    }

    /// Windowed-ARQ kickoff: stage the whole message at the source, activate
    /// the root's outgoing links with every packet pending, and schedule the
    /// source's first dispatch at the end of `t_s` staging. Window admission
    /// (round-robin, one packet per link per round) then meters the pending
    /// sets out — at unlimited window that reproduces the FPFS packet-major
    /// kickoff order.
    fn arq_kickoff(&mut self, j: u32) {
        let jobd = self.st.job(j);
        let kids = jobd.tree.root_children();
        if kids.is_empty() {
            return; // single-rank job: nothing to transmit
        }
        let src_host = jobd.binding[0];
        self.st.stage(src_host, jobd.packets);
        self.st.rank_copies(j, Rank::SOURCE).fill(kids.len() as u32);
        let arq = self.arq.as_mut().expect("windowed path");
        for &c in kids {
            let link = arq.link(j, c);
            link.pending.extend(0..jobd.packets);
            link.active = true;
            arq.host_links[src_host.index()].push((j, c));
        }
        self.st.queue.schedule(
            SimTime::us(jobd.start_us) + self.st.params.t_s,
            Ev::TrySend(src_host),
        );
    }

    /// Attempts to admit one pending packet of the edge `parent(child) →
    /// child` into its send window and the parent host's send queue.
    /// Returns whether a packet was admitted; a full window stamps the
    /// stall start for the `window_stalls_us` counter.
    fn arq_admit_one(&mut self, now: SimTime, job: u32, child: Rank) -> bool {
        let jobd = self.st.job(job);
        let parent = jobd.tree.parent(child).expect("non-root rank");
        let parent_host = jobd.binding[parent.index()];
        let cap = self.st.config.ni.queue_capacity;
        let arq = self.arq.as_mut().expect("windowed path");
        let window = arq.window;
        let link = arq.link(job, child);
        if link.pending.is_empty() {
            return false;
        }
        if link.in_flight >= window {
            if link.blocked_since_us.is_none() {
                link.blocked_since_us = Some(now.as_us());
            }
            return false;
        }
        if let Some(cap) = cap {
            if self.st.hosts.queue_len(parent_host) >= cap as usize {
                return false; // bounded port queue: defer, don't drop
            }
        }
        let p = link.pending.pop_front().expect("checked non-empty");
        debug_assert_eq!(link.slots[p as usize], Slot::NotSent);
        link.slots[p as usize] = Slot::InFlight { attempt: 0 };
        link.in_flight += 1;
        self.st.enqueue_send(
            parent_host,
            SendItem {
                job,
                packet: p,
                from: parent,
                child,
                dest: child,
                attempt: 0,
            },
        );
        true
    }

    /// Round-robin admission across the host's active outgoing edges: one
    /// packet per link per round until a full round admits nothing.
    /// Returns whether anything was admitted.
    fn arq_admit_host(&mut self, now: SimTime, h: HostId) -> bool {
        let arq = self.arq.as_ref().expect("windowed path");
        let n = arq.host_links[h.index()].len();
        let mut any = false;
        loop {
            let mut progressed = false;
            for i in 0..n {
                let (job, child) =
                    self.arq.as_ref().expect("windowed path").host_links[h.index()][i];
                if self.arq_admit_one(now, job, child) {
                    progressed = true;
                    any = true;
                }
            }
            if !progressed {
                return any;
            }
        }
    }

    /// Retires the window slot of edge `parent(child) → child` for `packet`:
    /// marks it done, frees the window credit (finalizing any stall), and
    /// releases the parent's buffer copy.
    fn arq_retire_slot(&mut self, now: SimTime, job: u32, child: Rank, packet: u32) {
        let arq = self.arq.as_mut().expect("windowed path");
        let link = arq.link(job, child);
        debug_assert!(matches!(link.slots[packet as usize], Slot::InFlight { .. }));
        link.slots[packet as usize] = Slot::Done;
        link.in_flight -= 1;
        let stalled = link.blocked_since_us.take();
        if let Some(t0) = stalled {
            self.st.obs.window_stalled(job, now.as_us() - t0);
        }
        let parent = self.st.job(job).tree.parent(child).expect("non-root rank");
        release_replicated_copy(
            &mut self.st,
            SendItem {
                job,
                packet,
                from: parent,
                child,
                dest: child,
                attempt: 0,
            },
        );
    }

    /// Windowed retransmit-or-abandon for one in-flight slot: bumps the
    /// slot's attempt and re-enqueues the packet, or — once the attempt
    /// budget is spent — retires the slot as abandoned (the destination then
    /// surfaces as unreached unless a deadline writes it off first).
    #[allow(clippy::too_many_arguments)]
    fn arq_resend_or_abandon(
        &mut self,
        now: SimTime,
        job: u32,
        parent: Rank,
        child: Rank,
        packet: u32,
        attempt: u32,
        waited_us: f64,
    ) {
        let f = self.st.fault.expect("windowed ARQ runs under a fault plan");
        if attempt + 1 >= f.max_attempts {
            self.st
                .obs
                .delivery_abandoned(now.as_us(), job, parent, child, packet, attempt + 1);
            self.arq_retire_slot(now, job, child, packet);
        } else {
            self.st.obs.retransmit_scheduled(
                now.as_us(),
                job,
                parent,
                child,
                packet,
                attempt + 1,
                waited_us,
            );
            let arq = self.arq.as_mut().expect("windowed path");
            arq.link(job, child).slots[packet as usize] = Slot::InFlight {
                attempt: attempt + 1,
            };
            let h = self.st.host_of(job, parent);
            self.st.enqueue_send(
                h,
                SendItem {
                    job,
                    packet,
                    from: parent,
                    child,
                    dest: child,
                    attempt: attempt + 1,
                },
            );
        }
    }

    /// A window slot's retransmission timer fired: resend (with the timer's
    /// rto + jitter as the reported wait) or abandon — unless the timeout is
    /// stale (the slot was acknowledged, resent under a newer attempt, or
    /// written off meanwhile).
    fn handle_arq_timeout(
        &mut self,
        now: SimTime,
        job: u32,
        child: Rank,
        packet: u32,
        attempt: u32,
    ) {
        let parent = self.st.job(job).tree.parent(child).expect("non-root rank");
        {
            let arq = self.arq.as_mut().expect("windowed path");
            if arq.link(job, child).slots[packet as usize] != (Slot::InFlight { attempt }) {
                return;
            }
        }
        if self.arq_past_deadline(now, job) {
            self.write_off_deadline(now, job, child);
            return;
        }
        let f = self.st.fault.expect("windowed ARQ runs under a fault plan");
        let waited = f.rto(attempt) + f.retry_jitter_us(job, parent.0, child.0, packet, attempt);
        self.arq_resend_or_abandon(now, job, parent, child, packet, attempt, waited);
        let h = self.st.host_of(job, parent);
        self.st.queue.schedule(now, Ev::TrySend(h));
    }

    /// The receiver at `at` NACKed the inclusive packet range `[first,
    /// last]`: resend every packet of the range that is still
    /// unacknowledged. NACKs ride the modelled control channel —
    /// instantaneous and reliable, like the acknowledgements.
    fn handle_arq_nack(&mut self, now: SimTime, job: u32, at: Rank, first: u32, last: u32) {
        let parent = self.st.job(job).tree.parent(at).expect("non-root rank");
        for p in first..=last {
            let slot = self.arq.as_ref().expect("windowed path").links[job as usize][at.index()]
                .slots[p as usize];
            let Slot::InFlight { attempt } = slot else {
                continue; // retired (acknowledged or abandoned) meanwhile
            };
            self.st
                .obs
                .resend_requested(now.as_us(), job, parent, at, p);
            if self.arq_past_deadline(now, job) {
                self.write_off_deadline(now, job, at);
                return;
            }
            self.arq_resend_or_abandon(now, job, parent, at, p, attempt, 0.0);
        }
        let h = self.st.host_of(job, parent);
        self.st.queue.schedule(now, Ev::TrySend(h));
    }

    /// Windowed-ARQ receive completion: retire the sender-side window slot
    /// (the modelled acknowledgement), accept the packet out of order, NACK
    /// any new gap as a coalesced range, replicate to the subtree, and
    /// complete the host once the message is whole. Corrupt arrivals are
    /// per-packet NACKs: an immediate resend of exactly that slot.
    fn arq_recv_done(&mut self, now: SimTime, item: SendItem, corrupt: bool) {
        let j = item.job as usize;
        let job = item.job;
        let at = item.child;
        let p = item.packet;
        if corrupt {
            self.st
                .obs
                .packet_dropped(now.as_us(), job, item.from, at, p, FaultKind::Corrupt);
            let slot =
                self.arq.as_ref().expect("windowed path").links[j][at.index()].slots[p as usize];
            // Only the newest attempt resends — a stale corrupt arrival
            // means a fresher transmission (with its own timer) is already
            // out.
            if slot
                == (Slot::InFlight {
                    attempt: item.attempt,
                })
            {
                self.st
                    .obs
                    .resend_requested(now.as_us(), job, item.from, at, p);
                if self.arq_past_deadline(now, job) {
                    self.write_off_deadline(now, job, at);
                    return;
                }
                self.arq_resend_or_abandon(now, job, item.from, at, p, item.attempt, 0.0);
                let h = self.st.host_of(job, item.from);
                self.st.queue.schedule(now, Ev::TrySend(h));
            }
            return;
        }
        // Sender side — the handshake acknowledges the slot.
        let u_host = self.st.host_of(job, item.from);
        let slot = self.arq.as_ref().expect("windowed path").links[j][at.index()].slots[p as usize];
        match slot {
            Slot::InFlight { .. } => {
                self.arq_retire_slot(now, job, at, p);
                // Freed window credit: let the parent admit and dispatch.
                self.st.queue.schedule(now, Ev::TrySend(u_host));
            }
            Slot::Done => {
                // A resend raced its original past the handshake; the
                // acknowledgement arrives late and retires nothing.
                self.st.obs.late_ack(now.as_us(), job, at, p);
            }
            Slot::NotSent => unreachable!("an arrival implies a transmission"),
        }
        // Receiver side — out-of-order acceptance.
        if self.is_rank_excluded(j, at) {
            return; // written off by a deadline: the subtree is retired
        }
        {
            let arq = self.arq.as_mut().expect("windowed path");
            let rs = &mut arq.recv[j][at.index()];
            if arq::mask_test(&rs.mask, p) {
                self.st.obs.duplicate_ack(now.as_us(), job, at, p);
                return;
            }
            arq::mask_set(&mut rs.mask, p);
            rs.last_seen = Some(rs.last_seen.map_or(p, |l| l.max(p)));
        }
        self.st.obs.recv_done(now.as_us(), job, at, p);
        let received = record_receive(&mut self.st, now, job, at);
        // Gap detection: per-edge delivery is FIFO, so anything missing
        // below the packet just received was lost. NACK each missing run
        // once (the sender's timer covers a lost recovery).
        let ranges = {
            let arq = self.arq.as_mut().expect("windowed path");
            let rs = &mut arq.recv[j][at.index()];
            let combined: Vec<u64> = rs.mask.iter().zip(&rs.nacked).map(|(a, b)| a | b).collect();
            let ranges = arq::coalesce_missing(&combined, p);
            for &(first, last) in &ranges {
                for q in first..=last {
                    arq::mask_set(&mut rs.nacked, q);
                }
            }
            ranges
        };
        for (first, last) in ranges {
            self.st
                .obs
                .nack_range_sent(now.as_us(), job, at, first, last);
            self.st.queue.schedule(
                now,
                Ev::ArqNack {
                    job,
                    at,
                    first,
                    last,
                },
            );
        }
        // Forwarding: replicate to every live child as soon as the packet
        // lands (the FPFS pattern), windowed per edge.
        let jobd = self.st.job(job);
        let packets = jobd.packets;
        let v_host = jobd.binding[at.index()];
        let kids = jobd.tree.children(at);
        if !kids.is_empty() {
            let live = kids
                .iter()
                .filter(|&&c| !self.is_rank_excluded(j, c))
                .count() as u32;
            if live > 0 {
                self.st.rank_copies(job, at)[p as usize] = live;
                self.st.stage(v_host, 1);
                let excluded = &self.excluded;
                let arq = self.arq.as_mut().expect("windowed path");
                for &c in kids {
                    if excluded.get(j).is_some_and(|e| e[c.index()]) {
                        continue;
                    }
                    let link = arq.link(job, c);
                    link.pending.push_back(p);
                    if !link.active {
                        link.active = true;
                        arq.host_links[v_host.index()].push((job, c));
                    }
                }
                self.st.queue.schedule(now, Ev::TrySend(v_host));
            }
        }
        if received == packets {
            self.st.finish_host(now, job, at);
        }
    }

    /// The job's delivery deadline passed with `child`'s delivery still
    /// incomplete: write off the whole undelivered subtree under (and
    /// including) `child` as typed `unreached` entries instead of letting
    /// retries run the attempt budget down. Reuses the repair-epoch
    /// exclusion mechanism, so `collect` reports the run as a success for
    /// the surviving membership.
    fn write_off_deadline(&mut self, now: SimTime, job: u32, child: Rank) {
        let j = job as usize;
        if self.excluded.is_empty() {
            self.excluded = self
                .st
                .jobs
                .iter()
                .map(|jb| vec![false; jb.tree.len()])
                .collect();
        }
        let jobd = self.st.job(job);
        let mut stack = vec![child];
        while let Some(v) = stack.pop() {
            if self.st.parts[j][v.index()].host_done.is_some() || self.excluded[j][v.index()] {
                continue;
            }
            self.excluded[j][v.index()] = true;
            self.st.obs.deadline_writeoff(now.as_us(), job, v);
            // Retire the incoming edge wholesale: pending (undispatched)
            // packets and in-flight slots each still hold a parent buffer
            // copy.
            let parent = jobd.tree.parent(v).expect("non-root rank");
            let (to_release, stalled) = {
                let arq = self.arq.as_mut().expect("windowed path");
                let link = arq.link(job, v);
                let mut to_release: Vec<u32> = link.pending.drain(..).collect();
                for (pi, s) in link.slots.iter_mut().enumerate() {
                    if matches!(*s, Slot::InFlight { .. }) {
                        to_release.push(pi as u32);
                    }
                    *s = Slot::Done;
                }
                link.in_flight = 0;
                (to_release, link.blocked_since_us.take())
            };
            if let Some(t0) = stalled {
                self.st.obs.window_stalled(job, now.as_us() - t0);
            }
            for p in to_release {
                release_replicated_copy(
                    &mut self.st,
                    SendItem {
                        job,
                        packet: p,
                        from: parent,
                        child: v,
                        dest: v,
                        attempt: 0,
                    },
                );
            }
            for &c in jobd.tree.children(v) {
                stack.push(c);
            }
        }
    }

    /// Collects per-job outcomes and workload aggregates.
    ///
    /// With an active fault plan, unreached destinations produce
    /// [`SimError::DeliveryFailed`] (carrying the run's counters).
    ///
    /// # Panics
    ///
    /// Panics if any rank never completed in a *fault-free* run — the
    /// simulator never deadlocks on validated input, so this indicates an
    /// engine bug.
    fn collect(self) -> Result<WorkloadOutcome, SimError> {
        let Simulation { st, excluded, .. } = self;
        let params = st.params;
        let is_excluded = |j: usize, r: usize| excluded.get(j).is_some_and(|e| e[r]);
        let mut unreached = Vec::new();
        for (j, job) in st.jobs.iter().enumerate() {
            for r in 1..job.tree.len() {
                if st.parts[j][r].host_done.is_none() && !is_excluded(j, r) {
                    unreached.push((j as u32, Rank(r as u32)));
                }
            }
        }
        if !unreached.is_empty() {
            if st.fault.is_some() {
                let mut counters = st.obs.counters.counters;
                counters.events = st.queue.processed();
                counters.peak_queue_len = st.queue.peak_len();
                return Err(SimError::DeliveryFailed {
                    unreached,
                    counters: Box::new(counters),
                });
            }
            let (j, r) = unreached[0];
            panic!("job {j}: rank {} never completed", r.index());
        }
        // Destinations written off as crashed by repair epochs: the run
        // *succeeded* for the surviving membership; these are reported in
        // the outcome, with zeroed per-rank times.
        let mut written_off = Vec::new();
        for (j, e) in excluded.iter().enumerate() {
            for (r, &dead) in e.iter().enumerate() {
                if dead && st.parts[j][r].host_done.is_none() {
                    written_off.push((j as u32, Rank(r as u32)));
                }
            }
        }
        let mut outcomes = Vec::with_capacity(st.jobs.len());
        let mut makespan = 0.0f64;
        for (j, job) in st.jobs.iter().enumerate() {
            let n = job.tree.len();
            let mut host_done = vec![0.0f64; n];
            let mut last_recv = vec![0.0f64; n];
            let mut latency = if n == 1 { params.t_s + params.t_r } else { 0.0 };
            for r in 1..n {
                let p = &st.parts[j][r];
                let Some(done) = p.host_done else {
                    continue; // written off as crashed by a repair epoch
                };
                host_done[r] = done.as_us() - job.start_us;
                last_recv[r] = p.last_recv.as_us() - job.start_us;
                latency = latency.max(host_done[r]);
            }
            makespan = makespan.max(latency + job.start_us);
            let max_ni_buffer = job
                .binding
                .iter()
                .map(|&h| st.hosts.max_resident(h))
                .collect();
            outcomes.push(MulticastOutcome {
                latency_us: latency,
                host_done_us: host_done,
                ni_last_recv_us: last_recv,
                channel_wait_us: st.obs.metrics.waits_us[j],
                blocked_sends: st.obs.metrics.blocked[j],
                total_sends: st.obs.metrics.sends[j],
                max_ni_buffer,
            });
        }
        let mut counters = st.obs.counters.counters;
        counters.events = st.queue.processed();
        counters.peak_queue_len = st.queue.peak_len();
        Ok(WorkloadOutcome {
            jobs: outcomes,
            makespan_us: makespan,
            channel_wait_us: st.obs.metrics.channel_wait_us,
            max_host_buffer: st.hosts.all_max_resident(),
            events: st.queue.processed(),
            counters,
            unreached: written_off,
            trace: st
                .obs
                .trace
                .map(crate::observe::TraceCollector::into_sorted)
                .unwrap_or_default(),
        })
    }
}
