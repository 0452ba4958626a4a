//! The component-based simulator core.
//!
//! [`Simulation`] wires the pieces together and owns the event loop:
//!
//! * [`crate::host::HostModel`] — NI send/receive units and
//!   forwarding-buffer occupancy, shared across jobs (node contention);
//! * [`crate::channel::ChannelManager`] — wormhole route reservation
//!   (channel contention);
//! * [`crate::discipline`] — one [`Engine`] per job, selected from its
//!   `(NicKind, JobPayload)`, held beside the tree the job currently
//!   forwards over;
//! * [`crate::transport::SimTransport`] — each send's channel stall,
//!   arrival instant and loss verdict, called directly (no trait object);
//! * [`crate::observe::ObserverHub`] — one [`SimEvent`] per occurrence,
//!   folded into the metrics, the counters and the optional trace timeline,
//!   and passed to an optional caller observer;
//! * [`crate::arq`] — windowed selective-repeat ARQ, which takes over
//!   kickoff, dispatch, admission and receive completion for every job when
//!   the fault plan sets `window > 1`.
//!
//! The core handles what every engine shares — dispatching queued sends
//! through channel reservation, serializing arrivals on receive units,
//! handshake send-unit release, stop-and-wait retransmission — and
//! delegates policy to the engines. A
//! repair epoch is no second path: it swaps the job's tree, routes and
//! engine, then restages the source exactly as an FPFS kickoff does. Event
//! scheduling order is part of the simulator's contract: ties in simulated
//! time resolve by insertion order, so the golden-equivalence tests pin the
//! exact sequence this module produces.

use crate::arena::{refill, SimArena};
use crate::arq::{self, ArqState};
use crate::channel::ChannelManager;
use crate::discipline::{conventional, replicated, Engine};
use crate::engine::EventQueue;
use crate::error::SimError;
use crate::event::{Ev, SendItem};
use crate::fault::{FaultKind, FaultPlan};
use crate::host::{prefetch, HostModel};
use crate::observe::{Observer, ObserverHub, SimEvent};
use crate::routes::JobRoutes;
use crate::sim::{NiTiming, NicKind};
use crate::time::SimTime;
use crate::transport::{LinkContext, PacketView, SimTransport, TransportResult};
use crate::workload::{JobPayload, MulticastJob, WorkloadConfig, WorkloadOutcome};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline as Order;
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;
use std::sync::Arc;

/// Per-(job, rank) participant state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartState {
    /// Packets received so far (for personalized payloads: own packets).
    pub received: u32,
    /// Conventional NI: packets of the current child message still in
    /// flight.
    pub conv_pending: u32,
    /// Conventional NI: index of the child message being prepared.
    pub conv_child: u32,
    /// Whether the full message is in; `done_at` is meaningful only then.
    done: bool,
    /// NI completion time of the latest received packet.
    pub last_recv: SimTime,
    /// Host completion time, once `done`.
    done_at: SimTime,
}

// One record per (job, rank) of a 65,536-rank job: two to a cache line.
const _: () = assert!(std::mem::size_of::<PartState>() <= 32);

impl PartState {
    /// A participant before the run starts.
    const IDLE: PartState = PartState {
        received: 0,
        conv_pending: 0,
        conv_child: 0,
        done: false,
        last_recv: SimTime::ZERO,
        done_at: SimTime::ZERO,
    };

    /// Host completion time, once the full message is in.
    pub(crate) fn host_done(&self) -> Option<SimTime> {
        self.done.then_some(self.done_at)
    }

    /// Whether the host has the full message.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }
}

/// All mutable simulation state, shared with the engines.
///
/// Kept separate from the per-job [`Forwarding`] table so the event loop
/// can hold `&mut SimState` and a job's current tree simultaneously
/// (disjoint field borrows).
pub(crate) struct SimState<'a> {
    pub jobs: &'a [MulticastJob],
    pub params: &'a SystemParams,
    pub config: WorkloadConfig,
    /// `routes[job].route(rank)`: channel route from `rank`'s parent to
    /// `rank` in the job's current tree, interned CSR-style (shared with
    /// the sweep cache when the caller passed prebuilt tables; replaced by
    /// the repaired tree's table at a repair epoch).
    pub routes: Vec<Arc<JobRoutes>>,
    pub hosts: HostModel,
    pub parts: Vec<Vec<PartState>>,
    /// Replicated payloads: outstanding copies per packet at each rank's
    /// NI (the packet leaves the forwarding buffer when its count hits
    /// zero). One rank-major table per job, `packets` entries per rank;
    /// reach it through [`SimState::rank_copies`]. A count is at most the
    /// rank's fan-out, which [`check_fan_out`] holds to `u16::MAX`.
    copies_left: Vec<Vec<u16>>,
    /// The packet-motion backend: every send decision — channel stall,
    /// arrival instant, loss verdict — comes from the wormhole channel
    /// manager and the fault plan behind [`SimTransport::transmit`].
    pub transport: SimTransport<'a>,
    pub queue: EventQueue<Ev>,
    pub obs: ObserverHub<'a>,
    /// Active fault plan, if any. `None` (including trivial plans, filtered
    /// at construction) follows the exact fault-free code path, so fault-free
    /// runs stay byte-identical to the pre-fault simulator.
    pub fault: Option<&'a FaultPlan>,
    /// Per-(job, rank) flags for destinations written off — crashed under a
    /// repair epoch, or past a windowed-ARQ deadline — and reported in
    /// `WorkloadOutcome::unreached`, not as `DeliveryFailed`. Empty until
    /// the first [`SimState::exclude`] (fault-free runs never allocate it).
    excluded: Vec<Vec<bool>>,
}

impl<'a> SimState<'a> {
    /// The job's descriptor, borrowed for the workload's lifetime (not the
    /// state borrow), so engines can read it while mutating state.
    pub(crate) fn job(&self, job: u32) -> &'a MulticastJob {
        &self.jobs[job as usize]
    }

    /// The physical host bound to `(job, rank)`.
    pub(crate) fn host_of(&self, job: u32, r: Rank) -> HostId {
        self.jobs[job as usize].binding[r.index()]
    }

    /// Queues a transmission on the host's send unit (with queue-depth
    /// observation).
    pub(crate) fn enqueue_send(&mut self, h: HostId, item: SendItem) {
        let depth = self.hosts.enqueue(h, item);
        self.obs.emit(SimEvent::SendEnqueued { host: h, depth });
    }

    /// Stages `n` packets in the host's forwarding buffer (with occupancy
    /// observation).
    pub(crate) fn stage(&mut self, h: HostId, n: u32) {
        let resident = self.hosts.stage(h, n);
        self.obs.emit(SimEvent::BufferGrew { host: h, resident });
    }

    /// Releases one staged packet.
    pub(crate) fn unstage(&mut self, h: HostId) {
        self.hosts.unstage(h);
    }

    /// `(job, rank)`'s outstanding-copy counters, one per packet.
    pub(crate) fn rank_copies(&mut self, job: u32, r: Rank) -> &mut [u16] {
        let packets = self.jobs[job as usize].packets as usize;
        let start = r.index() * packets;
        &mut self.copies_left[job as usize][start..start + packets]
    }

    /// Prefetches the host records `ev`'s handler reads first: a
    /// `TrySend`'s host, an `Arrive`'s receiver, and a `RecvDone`'s sender
    /// and receiver.
    fn prefetch_hosts(&self, ev: &Ev) {
        match *ev {
            Ev::TrySend(h) => self.hosts.prefetch_host(h),
            Ev::Arrive { item, .. } => self.hosts.prefetch_host(self.host_of(item.job, item.child)),
            Ev::RecvDone { item, .. } => {
                self.hosts.prefetch_host(self.host_of(item.job, item.from));
                self.hosts.prefetch_host(self.host_of(item.job, item.child));
            }
            _ => {}
        }
    }

    /// Prefetches what handling `item`'s `RecvDone` touches past the two
    /// host records: the sender's queue head and in-flight block, the
    /// receiver's participant record, and the sender's and the receiver's
    /// copy counters for the packet.
    fn prefetch_recv_done(&self, item: SendItem) {
        let (j, packet) = (item.job as usize, item.packet as usize);
        let job = &self.jobs[j];
        self.hosts.prefetch_dispatch(job.binding[item.from.index()]);
        for r in [item.from, item.child] {
            let counter = r.index() * job.packets as usize + packet;
            if let Some(c) = self.copies_left[j].get(counter) {
                prefetch(c);
            }
        }
        if let Some(part) = self.parts[j].get(item.child.index()) {
            prefetch(part);
        }
    }

    /// Writes `(job, rank)` off the membership.
    pub(crate) fn exclude(&mut self, job: u32, r: Rank) {
        if self.excluded.is_empty() {
            self.excluded = self
                .jobs
                .iter()
                .map(|jb| vec![false; jb.tree.len()])
                .collect();
        }
        self.excluded[job as usize][r.index()] = true;
    }

    /// Whether `(job, rank)` has been written off (deadline or repair
    /// exclusion).
    pub(crate) fn is_excluded(&self, job: u32, r: Rank) -> bool {
        self.excluded
            .get(job as usize)
            .is_some_and(|e| e[r.index()])
    }

    /// Reports `item` lost or refused at `t_us`.
    pub(crate) fn report_drop(&mut self, t_us: f64, item: SendItem, kind: FaultKind) {
        self.obs.emit(SimEvent::PacketDropped {
            t_us,
            job: item.job,
            from: item.from,
            to: item.child,
            packet: item.packet,
            kind,
        });
    }

    /// Reports `item` lost in the network at `t_us`, plus the fault that
    /// caused it when that was a link outage or the dead receiver.
    pub(crate) fn report_loss(
        &mut self,
        t_us: f64,
        item: SendItem,
        kind: FaultKind,
        sender: HostId,
        receiver: HostId,
    ) {
        self.report_drop(t_us, item, kind);
        let host = match kind {
            FaultKind::LinkDown => sender,
            FaultKind::ReceiverDead => receiver,
            _ => return,
        };
        self.obs.emit(SimEvent::FaultTriggered { t_us, kind, host });
    }

    /// Marks `(job, rank)` complete `t_r` after its last receive; returns
    /// the completion time.
    pub(crate) fn finish_host(&mut self, now: SimTime, job: u32, rank: Rank) -> SimTime {
        let done = now + self.params.t_r;
        let part = &mut self.parts[job as usize][rank.index()];
        part.done = true;
        part.done_at = done;
        self.obs.emit(SimEvent::HostDone {
            t_us: done.as_us(),
            job,
            rank,
        });
        done
    }
}

/// Rejects malformed workloads with a typed error (the former panic set).
/// `seen` is scratch storage; its contents are overwritten.
pub(crate) fn validate<N: Network>(
    net: &N,
    jobs: &[MulticastJob],
    seen: &mut Vec<bool>,
) -> Result<(), SimError> {
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
        seen.clear();
        seen.resize(n_hosts, false);
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
        check_fan_out(j, job)?;
    }
    Ok(())
}

/// Rejects a replicated smart-NI job with a rank of more than `u16::MAX`
/// children: each rank counts a packet's outstanding copies in a `u16`.
/// A rank's fan-out is below its tree's size, so only a job of more than
/// 65,536 ranks is scanned. A repair epoch re-attaches orphans within the
/// tree's own largest fan-out ([`MulticastTree::repair_partial`]), so the
/// job's tree bounds every tree the run forwards over.
fn check_fan_out(j: usize, job: &MulticastJob) -> Result<(), SimError> {
    let counted = matches!(
        (job.nic, job.payload),
        (NicKind::Smart(_), JobPayload::Replicated)
    );
    if !counted || job.tree.len() <= usize::from(u16::MAX) + 1 {
        return Ok(());
    }
    let wide = (0..job.tree.len() as u32)
        .map(Rank)
        .find(|&r| job.tree.child_count(r) > u32::from(u16::MAX));
    match wide {
        Some(rank) => Err(SimError::FanOutTooWide {
            job: j,
            rank,
            children: job.tree.child_count(rank),
        }),
        None => Ok(()),
    }
}

/// A validated workload's route tables, written over `out`: the supplied
/// ones, checked to hold one table per job covering that job's tree, or
/// fresh tables built by [`JobRoutes::build`] from each job's
/// `(tree, binding)` on `net`.
pub(crate) fn resolve_routes<N: Network>(
    net: &N,
    jobs: &[MulticastJob],
    routes: Option<&[Arc<JobRoutes>]>,
    out: &mut Vec<Arc<JobRoutes>>,
) -> Result<(), SimError> {
    out.clear();
    let Some(tables) = routes else {
        out.extend(
            jobs.iter()
                .map(|job| Arc::new(JobRoutes::build(net, &job.tree, &job.binding))),
        );
        return Ok(());
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
    out.extend(tables.iter().cloned());
    Ok(())
}

/// Participants, summed over a run's jobs, from which the event loop
/// prefetches ahead ([`Simulation::prefetch_next`]). The state a run's
/// wavefront touches grows with its participants; below this it stays in
/// cache, and the prefetch step is pure overhead. See DESIGN.md
/// "Lookahead prefetch" for the measurements behind the value.
const LOOKAHEAD_MIN_RANKS: usize = 8_192;

/// One job's forwarding state: its engine and the tree it forwards over —
/// the job's own tree until a repair epoch swaps in the repaired one.
pub(crate) struct Forwarding {
    engine: Engine,
    tree: Arc<MulticastTree>,
}

/// One workload execution: the per-job forwarding table plus all mutable
/// state.
pub(crate) struct Simulation<'a, N: Network> {
    st: SimState<'a>,
    forwarding: Vec<Forwarding>,
    /// The topology, retained so repair epochs can rebuild routes for the
    /// repaired tree.
    net: &'a N,
    /// Current repair epoch (0 = the initial issue; folded into the fault
    /// PRF so every epoch redraws independently and deterministically).
    epoch: u32,
    /// Selective-repeat window state, present when the fault plan sets
    /// `window > 1`. Its handlers live in [`crate::arq`]; the core hands
    /// each windowed event over at one `if let Some(arq)` per event kind.
    arq: Option<ArqState<'a>>,
    /// Whether the event loop prefetches ahead: fixed at construction from
    /// the run's size ([`LOOKAHEAD_MIN_RANKS`]).
    lookahead: bool,
}

impl<'a, N: Network> Simulation<'a, N> {
    /// Validates the workload and assembles the components from `arena`'s
    /// storage, each reset to a fresh run's state.
    /// `routes`, when given, must hold one table per job, each built by
    /// [`JobRoutes::build`] from the job's `(tree, binding)` on `net` —
    /// the sweep engine passes memoized tables here so repeated cells skip
    /// the route computation. `None` builds the tables from scratch (see
    /// [`resolve_routes`]). On error the arena keeps its storage.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        net: &'a N,
        jobs: &'a [MulticastJob],
        params: &'a SystemParams,
        config: WorkloadConfig,
        fault: Option<&'a FaultPlan>,
        user_observer: Option<&'a mut dyn Observer>,
        routes: Option<&[Arc<JobRoutes>]>,
        arena: &mut SimArena,
    ) -> Result<Self, SimError> {
        validate(net, jobs, &mut arena.seen)?;
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
                // Windowed ARQ replays the FPFS replication pattern
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
        resolve_routes(net, jobs, routes, &mut arena.routes)?;
        // Prewarm the trees' packed-children tables: `children()` is on the
        // event loop's hot path, and the lazy pack would otherwise charge
        // its one-time allocation to the zero-alloc steady-state budget.
        for job in jobs {
            job.tree.pack();
        }
        let mut parts = std::mem::take(&mut arena.parts);
        refill(
            &mut parts,
            jobs.iter().map(|j| j.tree.len()),
            PartState::IDLE,
        );
        let mut copies_left = std::mem::take(&mut arena.copies_left);
        let copies = jobs.iter().map(|j| j.tree.len() * j.packets as usize);
        refill(&mut copies_left, copies, 0);
        let mut forwarding = std::mem::take(&mut arena.forwarding);
        forwarding.extend(jobs.iter().map(|job| Forwarding {
            engine: Engine::for_job(job),
            tree: Arc::clone(&job.tree),
        }));
        let mut hosts = std::mem::take(&mut arena.hosts);
        hosts.reset(net.num_hosts() as usize, config.ni);
        let mut queue = std::mem::take(&mut arena.queue);
        queue.clear();
        let channels = ChannelManager::reuse(
            config.contention,
            net.num_channels() as usize,
            std::mem::take(&mut arena.channels),
        );
        let mut metrics = std::mem::take(&mut arena.metrics);
        metrics.reset(jobs.len());
        let mut counters = std::mem::take(&mut arena.counters);
        counters.reset();
        let arq = fault
            .filter(|f| f.window > 1)
            .map(|f| ArqState::new(jobs, net.num_hosts() as usize, f));
        let ranks: usize = jobs.iter().map(|j| j.tree.len()).sum();
        Ok(Simulation {
            st: SimState {
                jobs,
                params,
                config,
                routes: std::mem::take(&mut arena.routes),
                hosts,
                parts,
                copies_left,
                transport: SimTransport::over(channels, params, fault),
                queue,
                obs: ObserverHub::new(metrics, counters, config.trace, user_observer),
                fault,
                excluded: Vec::new(),
            },
            forwarding,
            net,
            epoch: 0,
            arq,
            lookahead: ranks >= LOOKAHEAD_MIN_RANKS,
        })
    }

    /// Runs the workload to completion, collects the outcome into `out`
    /// (reusing its vectors) and hands the run's storage back to `arena`.
    ///
    /// With an active fault plan, a run whose losses exceed the
    /// retransmission budget terminates (the attempt cap guarantees event
    /// exhaustion) and reports [`SimError::DeliveryFailed`] instead of
    /// hanging or panicking — unless the plan carries a
    /// [`crate::fault::RepairPolicy`], in which case each queue exhaustion
    /// with undelivered destinations opens a *repair epoch* (see
    /// [`Self::start_repair_epoch`]) until every surviving destination is
    /// reached or the epoch budget is spent.
    pub(crate) fn run(
        mut self,
        arena: &mut SimArena,
        out: &mut WorkloadOutcome,
    ) -> Result<(), SimError> {
        for j in 0..self.st.jobs.len() {
            if let Some(arq) = &mut self.arq {
                arq::kickoff(&mut self.st, arq, j as u32);
                continue;
            }
            let job = &self.st.jobs[j];
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
                self.kickoff(j as u32);
            } else {
                self.st.queue.schedule(
                    SimTime::us(job.start_us + self.st.params.t_s),
                    Ev::JobStart(j as u32),
                );
            }
        }
        let mut last = SimTime::ZERO;
        loop {
            last = if self.lookahead {
                self.drain::<true>(last)
            } else {
                self.drain::<false>(last)
            };
            if !self.start_repair_epoch(last) {
                break;
            }
        }
        let Simulation {
            mut st, forwarding, ..
        } = self;
        let result = st.collect(out);
        st.recycle(forwarding, arena);
        result
    }

    /// Handles events until the queue is empty; returns the time of the
    /// last one (`last` if there was none). With `LOOKAHEAD`, each pop first
    /// prefetches for the events behind it ([`Self::prefetch_next`]).
    fn drain<const LOOKAHEAD: bool>(&mut self, mut last: SimTime) -> SimTime {
        while let Some((now, ev)) = self.st.queue.pop() {
            if LOOKAHEAD {
                self.prefetch_next();
            }
            last = now;
            match ev {
                Ev::JobStart(j) => self.kickoff(j),
                Ev::TrySend(h) => self.handle_try_send(now, h),
                Ev::Arrive { item, corrupt } => self.handle_arrive(now, item, corrupt),
                Ev::RecvDone { item, corrupt } => self.handle_recv_done(now, item, corrupt),
                Ev::HostReady { job, at } => {
                    let tree = &self.forwarding[job as usize].tree;
                    conventional::on_host_ready(&mut self.st, tree, now, job, at)
                }
                Ev::SendPrepared { job, at, child_idx } => {
                    let tree = &self.forwarding[job as usize].tree;
                    conventional::on_send_prepared(&mut self.st, tree, now, job, at, child_idx)
                }
                Ev::SendRelease { host, seq } => self.handle_send_release(now, host, seq),
                Ev::AckTimeout { host, seq } => self.handle_ack_timeout(now, host, seq),
                Ev::ArqRelease { host, seq } => arq::on_release(&mut self.st, now, host, seq),
                Ev::ArqTimeout(item) => {
                    let (st, arq) = self.windowed();
                    arq::on_timeout(st, arq, now, item)
                }
                Ev::ArqNack {
                    job,
                    at,
                    first,
                    last,
                } => {
                    let (st, arq) = self.windowed();
                    arq::on_nack(st, arq, now, job, at, first, last)
                }
            }
        }
        last
    }

    /// Prefetches for the events behind the one just popped, in two
    /// stages. For the event after next, when it shares the next one's
    /// bucket: the host records its handler reads first. For the next
    /// event: those records, then what its handler reads through or beside
    /// them — a `TrySend`'s queue head and in-flight block; for a
    /// `RecvDone`, the sender's queue head and in-flight block, the
    /// receiver's participant record, both copy counters and the
    /// receiver's child list. A record fetched for the event after next is
    /// in cache one pop later, when the slots behind it are looked up
    /// through it. Changes no state.
    fn prefetch_next(&self) {
        let st = &self.st;
        let [next, after] = st.queue.lookahead();
        if let Some(ev) = after {
            st.prefetch_hosts(ev);
        }
        let Some(ev) = next else {
            return;
        };
        st.prefetch_hosts(ev);
        match *ev {
            Ev::TrySend(h) => st.hosts.prefetch_dispatch(h),
            Ev::RecvDone { item, .. } => {
                st.prefetch_recv_done(item);
                let tree = &self.forwarding[item.job as usize].tree;
                if let Some(kid) = tree.children(item.child).first() {
                    prefetch(kid);
                }
            }
            _ => {}
        }
    }

    /// Hands the job's kickoff to its engine.
    fn kickoff(&mut self, j: u32) {
        let fwd = &self.forwarding[j as usize];
        fwd.engine.kickoff(&mut self.st, &fwd.tree, j);
    }

    /// The simulation state beside the window state, for the events only
    /// windowed ARQ schedules (`ArqTimeout`, `ArqNack`).
    fn windowed(&mut self) -> (&mut SimState<'a>, &mut ArqState<'a>) {
        let Some(arq) = &mut self.arq else {
            // Invariant: windowed events imply windowed state.
            unreachable!("windowed event without ARQ state");
        };
        (&mut self.st, arq)
    }

    /// The plan behind a stop-and-wait reliability event. Only an active
    /// plan loses, corrupts or refuses a packet, so an acknowledgement
    /// timeout or a corrupt arrival implies one.
    fn reliability_plan(&self) -> &'a FaultPlan {
        // Invariant: reliability events imply a fault plan.
        self.st
            .fault
            .expect("reliability event without a fault plan")
    }

    /// The event queue drained. With a repair policy on the fault plan and
    /// destinations still undelivered, this is an epoch boundary rather
    /// than the end of the run: the source learns of the failure at
    /// `notify_us` after the last delivery activity, writes off the crashed
    /// destinations, repairs the surviving membership
    /// ([`MulticastTree::repair_partial`] — delivered ranks are not
    /// re-bound), swaps the repaired tree, its routes and the FPFS engine
    /// in as the job's forwarding state, and re-issues all packets through
    /// the same source staging an FPFS kickoff uses.
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
                if self.st.parts[j][r].is_done() {
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
            for &r in &failed {
                self.st.exclude(j as u32, r);
            }
            if !pending {
                continue; // pure exclusion: nothing left to re-issue
            }
            // Invariant: `failed` and `delivered` hold in-range non-source
            // ranks, the only inputs `repair_partial` rejects.
            let rep = job
                .tree
                .repair_partial(&failed, &delivered)
                .expect("surviving membership is repairable");
            // Re-express the repaired tree over the job's *original* rank
            // space (sparse: crashed and delivered ranks stay unattached,
            // which `JobRoutes::build` skips), preserving each parent's
            // child send order.
            let mut tree = MulticastTree::with_capacity(n as u32);
            for u in rep.tree.dfs_preorder() {
                for &c in rep.tree.children(u) {
                    tree.attach(rep.new_to_old[u.index()], rep.new_to_old[c.index()]);
                }
            }
            tree.pack();
            self.st.obs.emit(SimEvent::RepairTriggered {
                t_us: detect.as_us(),
                job: j as u32,
                epoch,
                failed: failed.len() as u32,
                reattached: rep.reattached,
                waited_us: policy.notify_us,
            });
            // Message-level re-issue: partial fragments at the undelivered
            // survivors are discarded, and the source restages the whole
            // message packet-major (FPFS order) over the repaired tree,
            // which from now on is the job's tree, routes and engine.
            for r in 1..n {
                let p = &mut self.st.parts[j][r];
                if !p.is_done() {
                    p.received = 0;
                }
            }
            for p in 0..job.packets {
                for &c in tree.root_children() {
                    self.st.obs.emit(SimEvent::PacketReissued {
                        t_us: detect.as_us(),
                        job: j as u32,
                        to: c,
                        packet: p,
                    });
                }
            }
            self.st.routes[j] = Arc::new(JobRoutes::build(self.net, &tree, &job.binding));
            let fwd = &mut self.forwarding[j];
            fwd.engine = Engine::Fpfs;
            fwd.tree = Arc::new(tree);
            let ready = detect + self.st.params.t_s;
            replicated::stage_source(&mut self.st, &fwd.tree, Order::Fpfs, j as u32, ready);
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
            // surface more queued work (only windowed ARQ ever does).
            let Some(arq) = &mut self.arq else {
                return;
            };
            if !arq::admit_host(&mut self.st, arq, now, h) {
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
        let route = st.routes[j].route(item.child.index());
        debug_assert!(!route.is_empty());
        debug_assert_eq!(self.forwarding[j].tree.parent(item.child), Some(item.from));
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
        let outcome = st.transport.transmit(dest_host, view, ctx);
        let start_us = match outcome {
            TransportResult::Delivered { start_us, .. }
            | TransportResult::Lost { start_us, .. } => start_us,
        };
        st.obs.emit(SimEvent::SendStart {
            t_us: start_us,
            job: item.job,
            from: item.from,
            to: item.child,
            packet: item.packet,
            stalled_us: start_us - now.as_us(),
        });
        if let Some(arq) = &self.arq {
            arq::on_dispatch(st, arq, h, item, outcome, start_us);
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
                st.report_loss(start_us, item, kind, h, dest_host);
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
        st.obs.emit(SimEvent::FaultTriggered {
            t_us: now.as_us(),
            kind: FaultKind::SenderDead,
            host: h,
        });
        // Pop in place — no scratch Vec per drained host.
        while let Some(item) = st.hosts.pop_queued(h) {
            st.report_drop(now.as_us(), item, FaultKind::SenderDead);
        }
    }

    /// Serializes the arrival on the receiver's NI receive unit. Under a
    /// fault plan with an NI buffer capacity, an arrival that would need
    /// forwarding-buffer space on a full NI is refused (negative
    /// acknowledgement) and the sender retransmits.
    fn handle_arrive(&mut self, now: SimTime, item: SendItem, corrupt: bool) {
        let st = &mut self.st;
        let h = st.host_of(item.job, item.child);
        if let Some((f, cap)) = st.fault.and_then(|f| Some((f, f.ni_buffer_capacity?))) {
            // Only packets the NI must hold for forwarding compete for
            // buffer space — leaf deliveries and relayed personalized
            // packets stream through.
            let would_stage = match st.job(item.job).payload {
                JobPayload::Replicated => {
                    let tree = &self.forwarding[item.job as usize].tree;
                    !tree.children(item.child).is_empty()
                }
                JobPayload::Personalized { .. } => item.dest != item.child,
            };
            if would_stage && st.hosts.resident(h) >= cap {
                st.report_drop(now.as_us(), item, FaultKind::BufferOverflow);
                st.obs.emit(SimEvent::FaultTriggered {
                    t_us: now.as_us(),
                    kind: FaultKind::BufferOverflow,
                    host: h,
                });
                let u_host = st.host_of(item.job, item.from);
                let released = st.hosts.release_send_unit(u_host);
                debug_assert_eq!(released.packet, item.packet);
                self.retransmit_or_abandon(f, now, u_host, released, 0.0);
                self.st.queue.schedule(now, Ev::TrySend(u_host));
                return;
            }
        }
        let (done, wait) = st.hosts.occupy_recv_unit(h, now, st.params.t_recv);
        if wait > 0.0 {
            st.obs.emit(SimEvent::RecvUnitWait {
                job: item.job,
                wait_us: wait,
            });
        }
        st.queue.schedule(done, Ev::RecvDone { item, corrupt });
    }

    /// A packet finished arriving: complete the sender's handshake, deliver
    /// the sender acknowledgement, then hand the packet to the receiving
    /// job's engine. A corrupted packet is instead NACKed: the sender's unit
    /// frees (keeping its buffer copy) and the packet is re-enqueued.
    fn handle_recv_done(&mut self, now: SimTime, item: SendItem, corrupt: bool) {
        if let Some(arq) = &mut self.arq {
            arq::on_recv_done(&mut self.st, arq, now, item, corrupt);
            return;
        }
        if corrupt {
            debug_assert_eq!(self.st.config.timing, NiTiming::Handshake);
            let f = self.reliability_plan();
            let u_host = self.st.host_of(item.job, item.from);
            let released = self.st.hosts.release_send_unit(u_host);
            self.st.report_drop(now.as_us(), item, FaultKind::Corrupt);
            self.retransmit_or_abandon(f, now, u_host, released, 0.0);
            self.st.queue.schedule(now, Ev::TrySend(u_host));
            return;
        }
        let fwd = &self.forwarding[item.job as usize];
        if self.st.config.timing == NiTiming::Handshake {
            // The handshake frees exactly the unit that carried this
            // transmission (with `s > 1` an out-of-order completion must not
            // release a sibling's unit).
            let u_host = self.st.host_of(item.job, item.from);
            self.st.hosts.release_matching(u_host, &item);
            fwd.engine.on_copy_released(&mut self.st, item);
            self.st.queue.schedule(now, Ev::TrySend(u_host));
        }
        if fwd.engine == Engine::Conventional {
            conventional::sender_ack(&mut self.st, &fwd.tree, now, item.job, item.from);
        }
        self.st.obs.emit(SimEvent::RecvDone {
            t_us: now.as_us(),
            job: item.job,
            at: item.child,
            packet: item.packet,
        });
        fwd.engine.on_recv_done(&mut self.st, &fwd.tree, now, item);
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
        let f = self.reliability_plan();
        self.retransmit_or_abandon(f, now, h, item, f.rto(item.attempt));
        self.st.queue.schedule(now, Ev::TrySend(h));
    }

    /// Re-enqueues a failed transmission with its attempt count bumped, or —
    /// once `max_attempts` is exhausted — abandons the destination, freeing
    /// the sender's buffer copy so the rest of the multicast can drain.
    fn retransmit_or_abandon(
        &mut self,
        f: &FaultPlan,
        now: SimTime,
        h: HostId,
        item: SendItem,
        waited_us: f64,
    ) {
        match arq::retry_or_abandon(&mut self.st, f, now, item, waited_us) {
            Some(next) => self.st.enqueue_send(h, next),
            None => self.forwarding[item.job as usize]
                .engine
                .on_copy_released(&mut self.st, item),
        }
    }

    /// Overlapped-timing release: the named dispatch frees its unit `t_send`
    /// after start, independent of the receiver. Applies the released job's
    /// buffer policy and lets the host dispatch its next queued packet.
    fn handle_send_release(&mut self, now: SimTime, h: HostId, seq: u64) {
        // Invariant: overlapped timing runs without faults, so nothing but
        // this event releases the dispatch it was scheduled for.
        let item = self
            .st
            .hosts
            .release_by_seq(h, seq)
            .expect("overlapped release without its dispatch");
        self.forwarding[item.job as usize]
            .engine
            .on_copy_released(&mut self.st, item);
        self.st.queue.schedule(now, Ev::TrySend(h));
    }
}

impl SimState<'_> {
    /// Collects per-job outcomes and workload aggregates into `out`,
    /// reusing its vectors.
    ///
    /// Unreached destinations produce [`SimError::DeliveryFailed`]
    /// (carrying the run's counters): under a fault plan, losses the
    /// reliability layer could not recover; without one, only ranks a
    /// caller's tree leaves unattached to the source.
    fn collect(&mut self, out: &mut WorkloadOutcome) -> Result<(), SimError> {
        let st = self;
        let params = st.params;
        let mut unreached = Vec::new();
        for (j, job) in st.jobs.iter().enumerate() {
            for r in 1..job.tree.len() {
                let r = Rank(r as u32);
                if !st.parts[j][r.index()].is_done() && !st.is_excluded(j as u32, r) {
                    unreached.push((j as u32, r));
                }
            }
        }
        if !unreached.is_empty() {
            let mut counters = st.obs.counters.clone();
            counters.events = st.queue.processed();
            counters.peak_queue_len = st.queue.peak_len();
            return Err(SimError::DeliveryFailed {
                unreached,
                counters: Box::new(counters),
            });
        }
        // Destinations written off by repair epochs or deadlines: the run
        // *succeeded* for the surviving membership; these are reported in
        // the outcome, with zeroed per-rank times.
        out.unreached.clear();
        for (j, e) in st.excluded.iter().enumerate() {
            for (r, &dead) in e.iter().enumerate() {
                if dead && !st.parts[j][r].is_done() {
                    out.unreached.push((j as u32, Rank(r as u32)));
                }
            }
        }
        out.jobs.truncate(st.jobs.len());
        out.jobs.resize_with(st.jobs.len(), Default::default);
        let mut makespan = 0.0f64;
        for (j, (job, o)) in st.jobs.iter().zip(&mut out.jobs).enumerate() {
            let n = job.tree.len();
            for v in [&mut o.host_done_us, &mut o.ni_last_recv_us] {
                v.clear();
                v.resize(n, 0.0);
            }
            let mut latency = if n == 1 { params.t_s + params.t_r } else { 0.0 };
            for r in 1..n {
                let p = &st.parts[j][r];
                let Some(done) = p.host_done() else {
                    continue; // written off as crashed by a repair epoch
                };
                o.host_done_us[r] = done.as_us() - job.start_us;
                o.ni_last_recv_us[r] = p.last_recv.as_us() - job.start_us;
                latency = latency.max(o.host_done_us[r]);
            }
            makespan = makespan.max(latency + job.start_us);
            o.max_ni_buffer.clear();
            o.max_ni_buffer
                .extend(job.binding.iter().map(|&h| st.hosts.max_resident(h)));
            o.latency_us = latency;
            o.channel_wait_us = st.obs.metrics.waits_us[j];
            o.blocked_sends = st.obs.metrics.blocked[j];
            o.total_sends = st.obs.metrics.sends[j];
        }
        out.counters.copy_from(&st.obs.counters);
        out.counters.events = st.queue.processed();
        out.counters.peak_queue_len = st.queue.peak_len();
        out.makespan_us = makespan;
        out.channel_wait_us = st.obs.metrics.channel_wait_us;
        st.hosts.all_max_resident_into(&mut out.max_host_buffer);
        out.events = st.queue.processed();
        out.trace = st
            .obs
            .trace
            .take()
            .map(crate::observe::TraceCollector::into_sorted)
            .unwrap_or_default();
        Ok(())
    }

    /// Hands the run's storage back to `arena`. The route tables and trees
    /// are released, so a caller's tables are no longer shared.
    fn recycle(self, mut forwarding: Vec<Forwarding>, arena: &mut SimArena) {
        let SimState {
            mut routes,
            hosts,
            parts,
            copies_left,
            transport,
            queue,
            obs,
            ..
        } = self;
        routes.clear();
        forwarding.clear();
        arena.routes = routes;
        arena.forwarding = forwarding;
        arena.hosts = hosts;
        arena.parts = parts;
        arena.copies_left = copies_left;
        arena.channels = transport.into_channels().into_storage();
        arena.queue = queue;
        arena.metrics = obs.metrics;
        arena.counters = obs.counters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq::NiModel;
    use optimcast_core::builders::kbinomial_tree;
    use optimcast_core::optimal::optimal_k;
    use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
    use optimcast_topology::ordering::cco_of;

    /// Runs `jobs` once with the event loop's lookahead forced on or off.
    fn run_with_lookahead<N: Network>(
        net: &N,
        jobs: &[MulticastJob],
        config: WorkloadConfig,
        fault: Option<&FaultPlan>,
        lookahead: bool,
    ) -> WorkloadOutcome {
        let params = SystemParams::paper_1997();
        let (mut arena, mut out) = (SimArena::new(), WorkloadOutcome::default());
        let mut sim = Simulation::new(net, jobs, &params, config, fault, None, None, &mut arena)
            .expect("valid workload");
        sim.lookahead = lookahead;
        sim.run(&mut arena, &mut out).expect("run completes");
        out
    }

    /// Both event-loop instantiations give the same outcome: the optimal-k
    /// FPFS multicast over a 1,024-host fat-tree under wormhole contention,
    /// bound by identity and by `cco_of`, and once more under random loss
    /// with windowed ARQ.
    #[test]
    fn lookahead_changes_no_outcome() {
        let (hosts, m) = (1024, 16);
        let net =
            FabricNetwork::generate_with_hosts(FabricConfig::fat_tree_for_hosts(hosts), hosts);
        let tree = Arc::new(kbinomial_tree(hosts, optimal_k(u64::from(hosts), m).k));
        let identity: Vec<HostId> = (0..hosts).map(HostId).collect();
        let cco = cco_of(net.topology(), net.routing()).hosts().to_vec();
        let plan = FaultPlan {
            drop_rate: 0.05,
            window: 8,
            ..FaultPlan::new(7)
        };
        let windowed = WorkloadConfig {
            ni: NiModel {
                send_units: 2,
                queue_capacity: None,
            },
            ..WorkloadConfig::default()
        };
        let plain = WorkloadConfig::default();
        for (binding, config, fault) in [
            (identity.clone(), plain, None),
            (cco, plain, None),
            (identity, windowed, Some(&plan)),
        ] {
            let jobs = [MulticastJob::fpfs(Arc::clone(&tree), binding, m)];
            let off = run_with_lookahead(&net, &jobs, config, fault, false);
            assert_eq!(off.counters.retransmits > 0, fault.is_some());
            assert_eq!(run_with_lookahead(&net, &jobs, config, fault, true), off);
        }
    }
}
