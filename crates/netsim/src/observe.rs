//! The observability layer: one hook vocabulary, several sinks.
//!
//! The simulator core reports what happens — dispatches, receives,
//! completions, stalls, queue/buffer occupancy — through the [`Observer`]
//! trait. The `--trace` timeline ([`TraceCollector`]), the per-job outcome
//! metrics ([`MetricsCollector`]), and the structured counters
//! ([`CountersCollector`] → [`SimCounters`]) are three implementations of
//! that one hook set; none of them can affect simulated timing, which the
//! trace-neutrality integration test pins down.

use crate::fault::FaultKind;
use crate::workload::{TraceKind, TraceRecord};
use optimcast_core::tree::Rank;
use optimcast_topology::graph::HostId;
use std::ops::AddAssign;

/// Receiver of simulation occurrences.
///
/// All methods default to no-ops so an implementation only handles what it
/// cares about. Hooks receive plain values — an observer cannot perturb
/// simulation state.
pub trait Observer {
    /// A transmission entered the network at `t_us` after `stalled_us` of
    /// channel stall (0 when the route was free).
    fn send_start(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        stalled_us: f64,
    ) {
        let _ = (t_us, job, from, to, packet, stalled_us);
    }

    /// A rank's NI finished receiving a packet.
    fn recv_done(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        let _ = (t_us, job, at, packet);
    }

    /// A rank's host holds its complete message (timestamp may lie in the
    /// simulated future: host completion is `t_r` after the last receive).
    fn host_done(&mut self, t_us: f64, job: u32, rank: Rank) {
        let _ = (t_us, job, rank);
    }

    /// An arrival waited `wait_us > 0` for the receive unit.
    fn recv_unit_wait(&mut self, job: u32, wait_us: f64) {
        let _ = (job, wait_us);
    }

    /// A transmission was appended to a host's send queue, leaving `depth`
    /// entries pending.
    fn send_enqueued(&mut self, host: HostId, depth: usize) {
        let _ = (host, depth);
    }

    /// A host's forwarding buffer changed occupancy (grew to `resident`).
    fn buffer_grew(&mut self, host: HostId, resident: u32) {
        let _ = (host, resident);
    }

    /// A transmission was lost or refused: `kind` says how (random drop,
    /// corruption, link outage, dead peer, buffer exhaustion).
    fn packet_dropped(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        kind: FaultKind,
    ) {
        let _ = (t_us, job, from, to, packet, kind);
    }

    /// The reliability layer re-enqueued a failed transmission as `attempt`
    /// after `waited_us` of recovery stall (the ACK timeout for losses, 0
    /// for immediate NACKs).
    #[allow(clippy::too_many_arguments)]
    fn retransmit_scheduled(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempt: u32,
        waited_us: f64,
    ) {
        let _ = (t_us, job, from, to, packet, attempt, waited_us);
    }

    /// An injected infrastructure fault fired (link outage hit, host crash
    /// took effect, buffer exhausted) at `host`.
    fn fault_triggered(&mut self, t_us: f64, kind: FaultKind, host: HostId) {
        let _ = (t_us, kind, host);
    }

    /// The sender gave up on a packet copy after exhausting its
    /// transmission attempts.
    fn delivery_abandoned(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempts: u32,
    ) {
        let _ = (t_us, job, from, to, packet, attempts);
    }

    /// The source learned of undelivered destinations and opened repair
    /// epoch `epoch`: `failed` ranks were written off as crashed,
    /// `reattached` orphaned subtrees were re-bound, after `waited_us` of
    /// notification latency.
    fn repair_triggered(
        &mut self,
        t_us: f64,
        job: u32,
        epoch: u32,
        failed: u32,
        reattached: u32,
        waited_us: f64,
    ) {
        let _ = (t_us, job, epoch, failed, reattached, waited_us);
    }

    /// A repair epoch re-enqueued packet `packet` for overlay child `to` at
    /// the source.
    fn packet_reissued(&mut self, t_us: f64, job: u32, to: Rank, packet: u32) {
        let _ = (t_us, job, to, packet);
    }

    /// A windowed-ARQ receiver asked its parent to resend packet `packet`
    /// (one hook per packet a NACK range covers).
    fn resend_requested(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32) {
        let _ = (t_us, job, from, to, packet);
    }

    /// A windowed-ARQ receiver detected a delivery gap and sent the
    /// coalesced NACK range `[first, last]` to its parent.
    fn nack_range_sent(&mut self, t_us: f64, job: u32, at: Rank, first: u32, last: u32) {
        let _ = (t_us, job, at, first, last);
    }

    /// An acknowledgement arrived for a window slot already retired
    /// (acknowledged, abandoned, or written off) — the recovery machinery
    /// raced a slow handshake.
    fn late_ack(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        let _ = (t_us, job, at, packet);
    }

    /// A receiver accepted a packet it already held (a retransmission
    /// crossed the original's handshake).
    fn duplicate_ack(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        let _ = (t_us, job, at, packet);
    }

    /// A sender's window admission unblocked after `stalled_us` with the
    /// full window charged and work pending.
    fn window_stalled(&mut self, job: u32, stalled_us: f64) {
        let _ = (job, stalled_us);
    }

    /// A per-message deadline expired: `rank` (with its undelivered
    /// subtree written off separately, one hook each) will never be
    /// delivered in this run.
    fn deadline_writeoff(&mut self, t_us: f64, job: u32, rank: Rank) {
        let _ = (t_us, job, rank);
    }
}

/// Builds the `--trace` timeline.
#[derive(Debug, Default)]
pub(crate) struct TraceCollector {
    records: Vec<TraceRecord>,
}

impl TraceCollector {
    /// The timeline ordered by timestamp (stable: simultaneous records keep
    /// emission order). Some records carry future timestamps (host
    /// completion at `now + t_r`), hence the final sort.
    pub fn into_sorted(mut self) -> Vec<TraceRecord> {
        self.records.sort_by(|a, b| {
            a.t_us
                .partial_cmp(&b.t_us)
                .expect("trace times are never NaN")
        });
        self.records
    }
}

impl Observer for TraceCollector {
    fn send_start(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        stalled_us: f64,
    ) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::SendStart {
                from,
                to,
                packet,
                stalled_us,
            },
        });
    }

    fn recv_done(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::RecvDone { at, packet },
        });
    }

    fn host_done(&mut self, t_us: f64, job: u32, rank: Rank) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::HostDone { rank },
        });
    }

    fn packet_dropped(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        kind: FaultKind,
    ) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::Dropped {
                from,
                to,
                packet,
                kind,
            },
        });
    }

    fn retransmit_scheduled(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempt: u32,
        _waited_us: f64,
    ) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::Retransmit {
                from,
                to,
                packet,
                attempt,
            },
        });
    }

    fn delivery_abandoned(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempts: u32,
    ) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::Abandoned {
                from,
                to,
                packet,
                attempts,
            },
        });
    }

    fn repair_triggered(
        &mut self,
        t_us: f64,
        job: u32,
        epoch: u32,
        failed: u32,
        reattached: u32,
        _waited_us: f64,
    ) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::RepairTriggered {
                epoch,
                failed,
                reattached,
            },
        });
    }

    fn packet_reissued(&mut self, t_us: f64, job: u32, to: Rank, packet: u32) {
        self.records.push(TraceRecord {
            t_us,
            job,
            kind: TraceKind::Reissued { to, packet },
        });
    }
}

/// Accumulates the per-job outcome metrics (`channel_wait_us`,
/// `blocked_sends`, `total_sends`).
#[derive(Debug)]
pub(crate) struct MetricsCollector {
    pub channel_wait_us: f64,
    pub waits_us: Vec<f64>,
    pub blocked: Vec<u64>,
    pub sends: Vec<u64>,
}

impl MetricsCollector {
    pub fn new(jobs: usize) -> Self {
        MetricsCollector {
            channel_wait_us: 0.0,
            waits_us: vec![0.0; jobs],
            blocked: vec![0; jobs],
            sends: vec![0; jobs],
        }
    }
}

impl Observer for MetricsCollector {
    fn send_start(
        &mut self,
        _t_us: f64,
        job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        stalled_us: f64,
    ) {
        let j = job as usize;
        self.sends[j] += 1;
        if stalled_us > 0.0 {
            self.channel_wait_us += stalled_us;
            self.waits_us[j] += stalled_us;
            self.blocked[j] += 1;
        }
    }
}

/// Structured aggregate counters of one workload run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimCounters {
    /// Packet transmissions dispatched into the network.
    pub total_sends: u64,
    /// Sends that found at least one route channel busy.
    pub blocked_sends: u64,
    /// Packets forwarded by non-source NIs (replication or relay traffic).
    pub packets_forwarded: u64,
    /// Total sender stall time on busy channels (µs).
    pub channel_stall_us: f64,
    /// Arrivals that queued behind an earlier receive.
    pub recv_unit_waits: u64,
    /// Total arrival wait on busy receive units (µs).
    pub recv_unit_wait_us: f64,
    /// Deepest send queue observed on any host.
    pub max_send_queue: usize,
    /// `buffer_occupancy[n]` counts how often some host's forwarding buffer
    /// grew to exactly `n` resident packets (index 0 unused: only growth is
    /// sampled).
    pub buffer_occupancy: Vec<u64>,
    /// Discrete events processed.
    pub events: u64,
    /// Largest number of events simultaneously pending in the event queue.
    pub peak_queue_len: usize,
    /// Transmissions lost or refused by the fault plan (all
    /// [`FaultKind`]s, corruption included).
    pub packets_dropped: u64,
    /// The corrupted subset of `packets_dropped` (arrived but NACKed).
    pub packets_corrupted: u64,
    /// Failed transmissions re-enqueued by the reliability layer.
    pub retransmits: u64,
    /// Packet copies abandoned after exhausting their attempt budget.
    pub deliveries_abandoned: u64,
    /// Infrastructure faults that fired (link outages hit, dead peers
    /// addressed, buffer exhaustions).
    pub faults_triggered: u64,
    /// Total send-unit stall spent waiting out ACK timeouts (µs) — the
    /// recovery latency the fault plan cost this run.
    pub recovery_wait_us: f64,
    /// Live repair epochs opened (one per `(job, epoch)` the source
    /// repaired and re-issued for).
    pub repairs: u64,
    /// Packet transmissions re-enqueued at the source by repair epochs.
    pub reissued_packets: u64,
    /// Total modeled failure-notification latency spent opening repair
    /// epochs (µs).
    pub repair_wait_us: f64,
    /// Windowed ARQ: per-packet resend requests carried by NACK ranges.
    pub resend_requests: u64,
    /// Windowed ARQ: coalesced NACK ranges sent by gap-detecting receivers.
    pub nack_ranges_sent: u64,
    /// Windowed ARQ: acknowledgements that arrived for already-retired
    /// window slots.
    pub late_acks: u64,
    /// Windowed ARQ: packets accepted that the receiver already held.
    pub duplicate_acks: u64,
    /// Windowed ARQ: total time senders spent with a full window and work
    /// pending (µs).
    pub window_stalls_us: f64,
    /// Destinations written off by an expired per-message deadline.
    pub deadline_writeoffs: u64,
}

impl AddAssign<&SimCounters> for SimCounters {
    /// Folds another run's counters in: counts and times add, the two
    /// high-water marks (`max_send_queue`, `peak_queue_len`) keep the
    /// larger, and the occupancy histograms add bucket by bucket.
    fn add_assign(&mut self, rhs: &SimCounters) {
        // Destructured so a new counter cannot be silently left out.
        let SimCounters {
            total_sends,
            blocked_sends,
            packets_forwarded,
            channel_stall_us,
            recv_unit_waits,
            recv_unit_wait_us,
            max_send_queue,
            buffer_occupancy,
            events,
            peak_queue_len,
            packets_dropped,
            packets_corrupted,
            retransmits,
            deliveries_abandoned,
            faults_triggered,
            recovery_wait_us,
            repairs,
            reissued_packets,
            repair_wait_us,
            resend_requests,
            nack_ranges_sent,
            late_acks,
            duplicate_acks,
            window_stalls_us,
            deadline_writeoffs,
        } = rhs;
        self.total_sends += total_sends;
        self.blocked_sends += blocked_sends;
        self.packets_forwarded += packets_forwarded;
        self.channel_stall_us += channel_stall_us;
        self.recv_unit_waits += recv_unit_waits;
        self.recv_unit_wait_us += recv_unit_wait_us;
        self.max_send_queue = self.max_send_queue.max(*max_send_queue);
        if self.buffer_occupancy.len() < buffer_occupancy.len() {
            self.buffer_occupancy.resize(buffer_occupancy.len(), 0);
        }
        for (mine, theirs) in self.buffer_occupancy.iter_mut().zip(buffer_occupancy) {
            *mine += theirs;
        }
        self.events += events;
        self.peak_queue_len = self.peak_queue_len.max(*peak_queue_len);
        self.packets_dropped += packets_dropped;
        self.packets_corrupted += packets_corrupted;
        self.retransmits += retransmits;
        self.deliveries_abandoned += deliveries_abandoned;
        self.faults_triggered += faults_triggered;
        self.recovery_wait_us += recovery_wait_us;
        self.repairs += repairs;
        self.reissued_packets += reissued_packets;
        self.repair_wait_us += repair_wait_us;
        self.resend_requests += resend_requests;
        self.nack_ranges_sent += nack_ranges_sent;
        self.late_acks += late_acks;
        self.duplicate_acks += duplicate_acks;
        self.window_stalls_us += window_stalls_us;
        self.deadline_writeoffs += deadline_writeoffs;
    }
}

/// Fills a [`SimCounters`].
#[derive(Debug, Default)]
pub(crate) struct CountersCollector {
    pub counters: SimCounters,
}

impl Observer for CountersCollector {
    fn send_start(
        &mut self,
        _t_us: f64,
        _job: u32,
        from: Rank,
        _to: Rank,
        _packet: u32,
        stalled_us: f64,
    ) {
        let c = &mut self.counters;
        c.total_sends += 1;
        if from != Rank::SOURCE {
            c.packets_forwarded += 1;
        }
        if stalled_us > 0.0 {
            c.blocked_sends += 1;
            c.channel_stall_us += stalled_us;
        }
    }

    fn recv_unit_wait(&mut self, _job: u32, wait_us: f64) {
        if wait_us > 0.0 {
            self.counters.recv_unit_waits += 1;
            self.counters.recv_unit_wait_us += wait_us;
        }
    }

    fn send_enqueued(&mut self, _host: HostId, depth: usize) {
        self.counters.max_send_queue = self.counters.max_send_queue.max(depth);
    }

    fn buffer_grew(&mut self, _host: HostId, resident: u32) {
        let c = &mut self.counters;
        let idx = resident as usize;
        if c.buffer_occupancy.len() <= idx {
            c.buffer_occupancy.resize(idx + 1, 0);
        }
        c.buffer_occupancy[idx] += 1;
    }

    fn packet_dropped(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        kind: FaultKind,
    ) {
        self.counters.packets_dropped += 1;
        if kind == FaultKind::Corrupt {
            self.counters.packets_corrupted += 1;
        }
    }

    fn retransmit_scheduled(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        _attempt: u32,
        waited_us: f64,
    ) {
        self.counters.retransmits += 1;
        self.counters.recovery_wait_us += waited_us;
    }

    fn fault_triggered(&mut self, _t_us: f64, _kind: FaultKind, _host: HostId) {
        self.counters.faults_triggered += 1;
    }

    fn delivery_abandoned(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        _attempts: u32,
    ) {
        self.counters.deliveries_abandoned += 1;
    }

    fn repair_triggered(
        &mut self,
        _t_us: f64,
        _job: u32,
        _epoch: u32,
        _failed: u32,
        _reattached: u32,
        waited_us: f64,
    ) {
        self.counters.repairs += 1;
        self.counters.repair_wait_us += waited_us;
    }

    fn packet_reissued(&mut self, _t_us: f64, _job: u32, _to: Rank, _packet: u32) {
        self.counters.reissued_packets += 1;
    }

    fn resend_requested(&mut self, _t_us: f64, _job: u32, _from: Rank, _to: Rank, _packet: u32) {
        self.counters.resend_requests += 1;
    }

    fn nack_range_sent(&mut self, _t_us: f64, _job: u32, _at: Rank, _first: u32, _last: u32) {
        self.counters.nack_ranges_sent += 1;
    }

    fn late_ack(&mut self, _t_us: f64, _job: u32, _at: Rank, _packet: u32) {
        self.counters.late_acks += 1;
    }

    fn duplicate_ack(&mut self, _t_us: f64, _job: u32, _at: Rank, _packet: u32) {
        self.counters.duplicate_acks += 1;
    }

    fn window_stalled(&mut self, _job: u32, stalled_us: f64) {
        self.counters.window_stalls_us += stalled_us;
    }

    fn deadline_writeoff(&mut self, _t_us: f64, _job: u32, _rank: Rank) {
        self.counters.deadline_writeoffs += 1;
    }
}

/// The statically composed observer set of one run: outcome metrics and
/// counters always; a trace timeline when requested; optionally one caller
/// sink ([`SimRun::observer`](crate::workload::SimRun::observer)).
pub(crate) struct ObserverHub<'a> {
    pub metrics: MetricsCollector,
    pub counters: CountersCollector,
    pub trace: Option<TraceCollector>,
    pub user: Option<&'a mut dyn Observer>,
}

impl<'a> ObserverHub<'a> {
    pub fn new(jobs: usize, trace: bool, user: Option<&'a mut dyn Observer>) -> Self {
        ObserverHub {
            metrics: MetricsCollector::new(jobs),
            counters: CountersCollector::default(),
            trace: trace.then(TraceCollector::default),
            user,
        }
    }

    /// True when a dynamically dispatched sink (trace timeline or caller
    /// observer) is installed. The built-in metric/counter sinks are always
    /// called statically, so hooks only they consume never touch a vtable;
    /// hooks consumed by *no* built-in sink become a branch and return on
    /// the common (untraced, unobserved) fast path.
    #[inline]
    fn has_dyn_sinks(&self) -> bool {
        self.trace.is_some() || self.user.is_some()
    }

    /// Applies `f` to the dynamically dispatched sinks (cold path).
    fn each_dyn(&mut self, mut f: impl FnMut(&mut dyn Observer)) {
        if let Some(t) = self.trace.as_mut() {
            f(t);
        }
        if let Some(u) = self.user.as_deref_mut() {
            f(u);
        }
    }

    pub fn send_start(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        stalled_us: f64,
    ) {
        self.metrics
            .send_start(t_us, job, from, to, packet, stalled_us);
        self.counters
            .send_start(t_us, job, from, to, packet, stalled_us);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.send_start(t_us, job, from, to, packet, stalled_us));
        }
    }

    pub fn recv_done(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.recv_done(t_us, job, at, packet));
        }
    }

    pub fn host_done(&mut self, t_us: f64, job: u32, rank: Rank) {
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.host_done(t_us, job, rank));
        }
    }

    pub fn recv_unit_wait(&mut self, job: u32, wait_us: f64) {
        self.counters.recv_unit_wait(job, wait_us);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.recv_unit_wait(job, wait_us));
        }
    }

    pub fn send_enqueued(&mut self, host: HostId, depth: usize) {
        self.counters.send_enqueued(host, depth);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.send_enqueued(host, depth));
        }
    }

    pub fn buffer_grew(&mut self, host: HostId, resident: u32) {
        self.counters.buffer_grew(host, resident);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.buffer_grew(host, resident));
        }
    }

    pub fn packet_dropped(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        kind: FaultKind,
    ) {
        self.counters
            .packet_dropped(t_us, job, from, to, packet, kind);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.packet_dropped(t_us, job, from, to, packet, kind));
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn retransmit_scheduled(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempt: u32,
        waited_us: f64,
    ) {
        self.counters
            .retransmit_scheduled(t_us, job, from, to, packet, attempt, waited_us);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| {
                o.retransmit_scheduled(t_us, job, from, to, packet, attempt, waited_us)
            });
        }
    }

    pub fn fault_triggered(&mut self, t_us: f64, kind: FaultKind, host: HostId) {
        self.counters.fault_triggered(t_us, kind, host);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.fault_triggered(t_us, kind, host));
        }
    }

    pub fn delivery_abandoned(
        &mut self,
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempts: u32,
    ) {
        self.counters
            .delivery_abandoned(t_us, job, from, to, packet, attempts);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.delivery_abandoned(t_us, job, from, to, packet, attempts));
        }
    }

    pub fn repair_triggered(
        &mut self,
        t_us: f64,
        job: u32,
        epoch: u32,
        failed: u32,
        reattached: u32,
        waited_us: f64,
    ) {
        self.counters
            .repair_triggered(t_us, job, epoch, failed, reattached, waited_us);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.repair_triggered(t_us, job, epoch, failed, reattached, waited_us));
        }
    }

    pub fn packet_reissued(&mut self, t_us: f64, job: u32, to: Rank, packet: u32) {
        self.counters.packet_reissued(t_us, job, to, packet);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.packet_reissued(t_us, job, to, packet));
        }
    }

    pub fn resend_requested(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32) {
        self.counters.resend_requested(t_us, job, from, to, packet);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.resend_requested(t_us, job, from, to, packet));
        }
    }

    pub fn nack_range_sent(&mut self, t_us: f64, job: u32, at: Rank, first: u32, last: u32) {
        self.counters.nack_range_sent(t_us, job, at, first, last);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.nack_range_sent(t_us, job, at, first, last));
        }
    }

    pub fn late_ack(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        self.counters.late_ack(t_us, job, at, packet);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.late_ack(t_us, job, at, packet));
        }
    }

    pub fn duplicate_ack(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
        self.counters.duplicate_ack(t_us, job, at, packet);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.duplicate_ack(t_us, job, at, packet));
        }
    }

    pub fn window_stalled(&mut self, job: u32, stalled_us: f64) {
        self.counters.window_stalled(job, stalled_us);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.window_stalled(job, stalled_us));
        }
    }

    pub fn deadline_writeoff(&mut self, t_us: f64, job: u32, rank: Rank) {
        self.counters.deadline_writeoff(t_us, job, rank);
        if self.has_dyn_sinks() {
            self.each_dyn(|o| o.deadline_writeoff(t_us, job, rank));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_sends_and_stalls() {
        let mut c = CountersCollector::default();
        c.send_start(0.0, 0, Rank::SOURCE, Rank(1), 0, 0.0);
        c.send_start(5.0, 0, Rank(1), Rank(2), 0, 2.5);
        let k = &c.counters;
        assert_eq!(k.total_sends, 2);
        assert_eq!(k.packets_forwarded, 1);
        assert_eq!(k.blocked_sends, 1);
        assert!((k.channel_stall_us - 2.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_histogram_grows_on_demand() {
        let mut c = CountersCollector::default();
        c.buffer_grew(HostId(0), 2);
        c.buffer_grew(HostId(1), 2);
        c.buffer_grew(HostId(0), 4);
        assert_eq!(c.counters.buffer_occupancy, vec![0, 0, 2, 0, 1]);
    }

    #[test]
    fn trace_collector_sorts_stably() {
        let mut t = TraceCollector::default();
        t.host_done(10.0, 0, Rank(3)); // future-dated completion
        t.recv_done(5.0, 0, Rank(1), 0);
        t.recv_done(5.0, 0, Rank(2), 0);
        let out = t.into_sorted();
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0].kind,
            TraceKind::RecvDone {
                at: Rank(1),
                packet: 0
            }
        );
        assert_eq!(
            out[1].kind,
            TraceKind::RecvDone {
                at: Rank(2),
                packet: 0
            }
        );
        assert_eq!(out[2].kind, TraceKind::HostDone { rank: Rank(3) });
    }

    #[test]
    fn counters_track_faults_and_recovery() {
        let mut c = CountersCollector::default();
        c.packet_dropped(1.0, 0, Rank::SOURCE, Rank(1), 0, FaultKind::Drop);
        c.packet_dropped(2.0, 0, Rank::SOURCE, Rank(1), 1, FaultKind::Corrupt);
        c.retransmit_scheduled(3.0, 0, Rank::SOURCE, Rank(1), 0, 1, 60.0);
        c.retransmit_scheduled(3.5, 0, Rank::SOURCE, Rank(1), 1, 1, 0.0);
        c.fault_triggered(4.0, FaultKind::LinkDown, HostId(0));
        c.delivery_abandoned(5.0, 0, Rank::SOURCE, Rank(1), 0, 8);
        let k = &c.counters;
        assert_eq!(k.packets_dropped, 2);
        assert_eq!(k.packets_corrupted, 1);
        assert_eq!(k.retransmits, 2);
        assert!((k.recovery_wait_us - 60.0).abs() < 1e-12);
        assert_eq!(k.faults_triggered, 1);
        assert_eq!(k.deliveries_abandoned, 1);
    }

    #[test]
    fn counters_track_repair_epochs() {
        let mut c = CountersCollector::default();
        c.repair_triggered(100.0, 0, 1, 2, 1, 120.0);
        c.packet_reissued(100.0, 0, Rank(3), 0);
        c.packet_reissued(100.0, 0, Rank(5), 0);
        let k = &c.counters;
        assert_eq!(k.repairs, 1);
        assert_eq!(k.reissued_packets, 2);
        assert!((k.repair_wait_us - 120.0).abs() < 1e-12);
        // The trace sink mirrors the same hooks.
        let mut t = TraceCollector::default();
        t.repair_triggered(100.0, 0, 1, 2, 1, 120.0);
        t.packet_reissued(100.0, 0, Rank(3), 0);
        let out = t.into_sorted();
        assert_eq!(
            out[0].kind,
            TraceKind::RepairTriggered {
                epoch: 1,
                failed: 2,
                reattached: 1
            }
        );
        assert_eq!(
            out[1].kind,
            TraceKind::Reissued {
                to: Rank(3),
                packet: 0
            }
        );
    }

    #[test]
    fn counters_track_windowed_arq() {
        let mut c = CountersCollector::default();
        c.nack_range_sent(10.0, 0, Rank(2), 3, 5);
        for p in 3..=5 {
            c.resend_requested(10.0, 0, Rank::SOURCE, Rank(2), p);
        }
        c.late_ack(11.0, 0, Rank(2), 3);
        c.duplicate_ack(12.0, 0, Rank(2), 4);
        c.window_stalled(0, 7.5);
        c.window_stalled(0, 2.5);
        c.deadline_writeoff(99.0, 0, Rank(6));
        let k = &c.counters;
        assert_eq!(k.nack_ranges_sent, 1);
        assert_eq!(k.resend_requests, 3);
        assert_eq!(k.late_acks, 1);
        assert_eq!(k.duplicate_acks, 1);
        assert!((k.window_stalls_us - 10.0).abs() < 1e-12);
        assert_eq!(k.deadline_writeoffs, 1);
    }

    #[test]
    fn counters_add_assign_sums_maxes_and_merges_histograms() {
        let mut a = SimCounters {
            total_sends: 3,
            channel_stall_us: 1.5,
            max_send_queue: 4,
            peak_queue_len: 10,
            buffer_occupancy: vec![0, 2],
            retransmits: 1,
            window_stalls_us: 0.5,
            ..SimCounters::default()
        };
        let b = SimCounters {
            total_sends: 2,
            channel_stall_us: 2.0,
            max_send_queue: 2,
            peak_queue_len: 12,
            buffer_occupancy: vec![0, 1, 0, 5],
            retransmits: 4,
            window_stalls_us: 0.25,
            deadline_writeoffs: 1,
            ..SimCounters::default()
        };
        a += &b;
        assert_eq!(a.total_sends, 5);
        assert_eq!(a.channel_stall_us, 3.5);
        assert_eq!(a.max_send_queue, 4, "high-water marks take the max");
        assert_eq!(a.peak_queue_len, 12);
        assert_eq!(a.buffer_occupancy, vec![0, 3, 0, 5]);
        assert_eq!(a.retransmits, 5);
        assert_eq!(a.window_stalls_us, 0.75);
        assert_eq!(a.deadline_writeoffs, 1);
        // Folding into the default is the identity, and a shorter
        // histogram on the right leaves the longer tail intact.
        let mut sum = SimCounters::default();
        sum += &a;
        assert_eq!(sum, a);
        sum += &SimCounters {
            buffer_occupancy: vec![0, 1],
            ..SimCounters::default()
        };
        assert_eq!(sum.buffer_occupancy, vec![0, 4, 0, 5]);
    }

    #[test]
    fn metrics_split_by_job() {
        let mut m = MetricsCollector::new(2);
        m.send_start(0.0, 0, Rank::SOURCE, Rank(1), 0, 0.0);
        m.send_start(1.0, 1, Rank::SOURCE, Rank(1), 0, 3.0);
        assert_eq!(m.sends, vec![1, 1]);
        assert_eq!(m.blocked, vec![0, 1]);
        assert!((m.waits_us[1] - 3.0).abs() < 1e-12);
        assert!((m.channel_wait_us - 3.0).abs() < 1e-12);
    }
}
