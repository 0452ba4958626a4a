//! The observability layer: one event vocabulary, several folds.
//!
//! The simulator core reports what happens — dispatches, receives,
//! completions, stalls, queue/buffer occupancy, faults and recovery — as
//! one [`SimEvent`] per occurrence. The per-job outcome metrics
//! (`MetricsCollector`), the structured counters ([`SimCounters`]) and the
//! `--trace` timeline (`TraceCollector`) are each one `match` over that
//! event, and a caller's [`Observer`] receives it through [`Observer::on`].
//! None of them can affect simulated timing, which the trace-neutrality
//! integration test pins down.

use crate::fault::FaultKind;
use optimcast_core::tree::Rank;
use optimcast_topology::graph::HostId;
use std::ops::AddAssign;

/// One simulation occurrence. Times are simulated µs; `job` is the job
/// index and ranks are the job's tree ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A transmission entered the network at `t_us` after `stalled_us` of
    /// channel stall (0 when the route was free).
    SendStart {
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        stalled_us: f64,
    },
    /// A rank's NI finished receiving a packet.
    RecvDone {
        t_us: f64,
        job: u32,
        at: Rank,
        packet: u32,
    },
    /// A rank's host holds its complete message (the time may lie in the
    /// simulated future: host completion is `t_r` after the last receive).
    HostDone { t_us: f64, job: u32, rank: Rank },
    /// An arrival waited `wait_us > 0` for the receive unit.
    RecvUnitWait { job: u32, wait_us: f64 },
    /// A transmission was appended to a host's send queue, leaving `depth`
    /// entries pending.
    SendEnqueued { host: HostId, depth: usize },
    /// A host's forwarding buffer grew to `resident` packets.
    BufferGrew { host: HostId, resident: u32 },
    /// A transmission was lost or refused: `kind` says how (random drop,
    /// corruption, link outage, dead peer, buffer exhaustion).
    PacketDropped {
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        kind: FaultKind,
    },
    /// The reliability layer re-enqueued a failed transmission as `attempt`
    /// (first retry = 1) after `waited_us` of recovery stall (the ACK
    /// timeout for losses, 0 for immediate NACKs).
    RetransmitScheduled {
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempt: u32,
        waited_us: f64,
    },
    /// An injected infrastructure fault fired (link outage hit, host crash
    /// took effect, buffer exhausted) at `host`.
    FaultTriggered {
        t_us: f64,
        kind: FaultKind,
        host: HostId,
    },
    /// The sender gave up on a packet copy after `attempts` transmissions.
    DeliveryAbandoned {
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
        attempts: u32,
    },
    /// The source learned of undelivered destinations and opened repair
    /// epoch `epoch` (first repair = 1): `failed` ranks were written off as
    /// crashed, `reattached` orphaned subtrees were re-bound, after
    /// `waited_us` of notification latency.
    RepairTriggered {
        t_us: f64,
        job: u32,
        epoch: u32,
        failed: u32,
        reattached: u32,
        waited_us: f64,
    },
    /// A repair epoch re-enqueued packet `packet` for overlay child `to` at
    /// the source.
    PacketReissued {
        t_us: f64,
        job: u32,
        to: Rank,
        packet: u32,
    },
    /// A windowed-ARQ receiver asked its parent to resend `packet` (one
    /// event per packet a NACK range covers).
    ResendRequested {
        t_us: f64,
        job: u32,
        from: Rank,
        to: Rank,
        packet: u32,
    },
    /// A windowed-ARQ receiver detected a delivery gap and sent the
    /// coalesced NACK range `[first, last]` to its parent.
    NackRangeSent {
        t_us: f64,
        job: u32,
        at: Rank,
        first: u32,
        last: u32,
    },
    /// An acknowledgement arrived for a window slot already retired
    /// (acknowledged, abandoned, or written off) — the recovery machinery
    /// raced a slow handshake.
    LateAck {
        t_us: f64,
        job: u32,
        at: Rank,
        packet: u32,
    },
    /// A receiver accepted a packet it already held (a retransmission
    /// crossed the original's handshake).
    DuplicateAck {
        t_us: f64,
        job: u32,
        at: Rank,
        packet: u32,
    },
    /// A sender's window admission unblocked after `stalled_us` with the
    /// full window charged and work pending.
    WindowStalled { job: u32, stalled_us: f64 },
    /// A per-message deadline expired: `rank` (with its undelivered subtree
    /// written off separately, one event each) will never be delivered in
    /// this run.
    DeadlineWriteoff { t_us: f64, job: u32, rank: Rank },
}

impl SimEvent {
    /// The simulated time the event carries (µs), or `None` for the four
    /// untimed samples (`RecvUnitWait`, `SendEnqueued`, `BufferGrew`,
    /// `WindowStalled`).
    pub fn t_us(&self) -> Option<f64> {
        match *self {
            SimEvent::SendStart { t_us, .. }
            | SimEvent::RecvDone { t_us, .. }
            | SimEvent::HostDone { t_us, .. }
            | SimEvent::PacketDropped { t_us, .. }
            | SimEvent::RetransmitScheduled { t_us, .. }
            | SimEvent::FaultTriggered { t_us, .. }
            | SimEvent::DeliveryAbandoned { t_us, .. }
            | SimEvent::RepairTriggered { t_us, .. }
            | SimEvent::PacketReissued { t_us, .. }
            | SimEvent::ResendRequested { t_us, .. }
            | SimEvent::NackRangeSent { t_us, .. }
            | SimEvent::LateAck { t_us, .. }
            | SimEvent::DuplicateAck { t_us, .. }
            | SimEvent::DeadlineWriteoff { t_us, .. } => Some(t_us),
            SimEvent::RecvUnitWait { .. }
            | SimEvent::SendEnqueued { .. }
            | SimEvent::BufferGrew { .. }
            | SimEvent::WindowStalled { .. } => None,
        }
    }
}

/// Receiver of simulation events.
///
/// The simulator calls [`Observer::on`] once per [`SimEvent`]. An observer
/// receives plain values, so it cannot perturb simulation state.
///
/// The per-event methods are the older form of the same vocabulary, one per
/// `SimEvent` variant with its fields as arguments: the default `on` calls
/// the matching one, and all of them default to no-ops.
#[allow(clippy::too_many_arguments)]
pub trait Observer {
    /// Receives one event. Override this to see every event in one place;
    /// the default calls the per-event method matching `ev`.
    fn on(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::SendStart {
                t_us,
                job,
                from,
                to,
                packet,
                stalled_us,
            } => self.send_start(t_us, job, from, to, packet, stalled_us),
            SimEvent::RecvDone {
                t_us,
                job,
                at,
                packet,
            } => self.recv_done(t_us, job, at, packet),
            SimEvent::HostDone { t_us, job, rank } => self.host_done(t_us, job, rank),
            SimEvent::RecvUnitWait { job, wait_us } => self.recv_unit_wait(job, wait_us),
            SimEvent::SendEnqueued { host, depth } => self.send_enqueued(host, depth),
            SimEvent::BufferGrew { host, resident } => self.buffer_grew(host, resident),
            SimEvent::PacketDropped {
                t_us,
                job,
                from,
                to,
                packet,
                kind,
            } => self.packet_dropped(t_us, job, from, to, packet, kind),
            SimEvent::RetransmitScheduled {
                t_us,
                job,
                from,
                to,
                packet,
                attempt,
                waited_us,
            } => self.retransmit_scheduled(t_us, job, from, to, packet, attempt, waited_us),
            SimEvent::FaultTriggered { t_us, kind, host } => self.fault_triggered(t_us, kind, host),
            SimEvent::DeliveryAbandoned {
                t_us,
                job,
                from,
                to,
                packet,
                attempts,
            } => self.delivery_abandoned(t_us, job, from, to, packet, attempts),
            SimEvent::RepairTriggered {
                t_us,
                job,
                epoch,
                failed,
                reattached,
                waited_us,
            } => self.repair_triggered(t_us, job, epoch, failed, reattached, waited_us),
            SimEvent::PacketReissued {
                t_us,
                job,
                to,
                packet,
            } => self.packet_reissued(t_us, job, to, packet),
            SimEvent::ResendRequested {
                t_us,
                job,
                from,
                to,
                packet,
            } => self.resend_requested(t_us, job, from, to, packet),
            SimEvent::NackRangeSent {
                t_us,
                job,
                at,
                first,
                last,
            } => self.nack_range_sent(t_us, job, at, first, last),
            SimEvent::LateAck {
                t_us,
                job,
                at,
                packet,
            } => self.late_ack(t_us, job, at, packet),
            SimEvent::DuplicateAck {
                t_us,
                job,
                at,
                packet,
            } => self.duplicate_ack(t_us, job, at, packet),
            SimEvent::WindowStalled { job, stalled_us } => self.window_stalled(job, stalled_us),
            SimEvent::DeadlineWriteoff { t_us, job, rank } => {
                self.deadline_writeoff(t_us, job, rank)
            }
        }
    }

    /// [`SimEvent::SendStart`].
    fn send_start(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        _stalled_us: f64,
    ) {
    }
    /// [`SimEvent::RecvDone`].
    fn recv_done(&mut self, _t_us: f64, _job: u32, _at: Rank, _packet: u32) {}
    /// [`SimEvent::HostDone`].
    fn host_done(&mut self, _t_us: f64, _job: u32, _rank: Rank) {}
    /// [`SimEvent::RecvUnitWait`].
    fn recv_unit_wait(&mut self, _job: u32, _wait_us: f64) {}
    /// [`SimEvent::SendEnqueued`].
    fn send_enqueued(&mut self, _host: HostId, _depth: usize) {}
    /// [`SimEvent::BufferGrew`].
    fn buffer_grew(&mut self, _host: HostId, _resident: u32) {}
    /// [`SimEvent::PacketDropped`].
    fn packet_dropped(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        _kind: FaultKind,
    ) {
    }
    /// [`SimEvent::RetransmitScheduled`].
    fn retransmit_scheduled(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        _attempt: u32,
        _waited_us: f64,
    ) {
    }
    /// [`SimEvent::FaultTriggered`].
    fn fault_triggered(&mut self, _t_us: f64, _kind: FaultKind, _host: HostId) {}
    /// [`SimEvent::DeliveryAbandoned`].
    fn delivery_abandoned(
        &mut self,
        _t_us: f64,
        _job: u32,
        _from: Rank,
        _to: Rank,
        _packet: u32,
        _attempts: u32,
    ) {
    }
    /// [`SimEvent::RepairTriggered`].
    fn repair_triggered(
        &mut self,
        _t_us: f64,
        _job: u32,
        _epoch: u32,
        _failed: u32,
        _reattached: u32,
        _waited_us: f64,
    ) {
    }
    /// [`SimEvent::PacketReissued`].
    fn packet_reissued(&mut self, _t_us: f64, _job: u32, _to: Rank, _packet: u32) {}
    /// [`SimEvent::ResendRequested`].
    fn resend_requested(&mut self, _t_us: f64, _job: u32, _from: Rank, _to: Rank, _packet: u32) {}
    /// [`SimEvent::NackRangeSent`].
    fn nack_range_sent(&mut self, _t_us: f64, _job: u32, _at: Rank, _first: u32, _last: u32) {}
    /// [`SimEvent::LateAck`].
    fn late_ack(&mut self, _t_us: f64, _job: u32, _at: Rank, _packet: u32) {}
    /// [`SimEvent::DuplicateAck`].
    fn duplicate_ack(&mut self, _t_us: f64, _job: u32, _at: Rank, _packet: u32) {}
    /// [`SimEvent::WindowStalled`].
    fn window_stalled(&mut self, _job: u32, _stalled_us: f64) {}
    /// [`SimEvent::DeadlineWriteoff`].
    fn deadline_writeoff(&mut self, _t_us: f64, _job: u32, _rank: Rank) {}
}

/// Builds the `--trace` timeline from the sends, receives, completions,
/// losses, retries, abandonments, repair epochs and reissues.
#[derive(Debug, Default)]
pub(crate) struct TraceCollector {
    events: Vec<SimEvent>,
}

impl TraceCollector {
    pub(crate) fn on(&mut self, ev: &SimEvent) {
        match ev {
            SimEvent::SendStart { .. }
            | SimEvent::RecvDone { .. }
            | SimEvent::HostDone { .. }
            | SimEvent::PacketDropped { .. }
            | SimEvent::RetransmitScheduled { .. }
            | SimEvent::DeliveryAbandoned { .. }
            | SimEvent::RepairTriggered { .. }
            | SimEvent::PacketReissued { .. } => self.events.push(*ev),
            _ => {}
        }
    }

    /// The timeline ordered by time (stable: simultaneous events keep
    /// emission order). Some events carry future times (host completion at
    /// `now + t_r`), hence the final sort. Every recorded kind is timed, and
    /// simulated times are finite and never `-0.0`, so `total_cmp` orders
    /// them as numbers.
    pub(crate) fn into_sorted(mut self) -> Vec<SimEvent> {
        let t = |ev: &SimEvent| ev.t_us().unwrap_or(0.0);
        self.events.sort_by(|a, b| t(a).total_cmp(&t(b)));
        self.events
    }
}

/// Accumulates the per-job outcome metrics (`channel_wait_us`,
/// `blocked_sends`, `total_sends`).
#[derive(Debug, Default)]
pub(crate) struct MetricsCollector {
    pub channel_wait_us: f64,
    pub waits_us: Vec<f64>,
    pub blocked: Vec<u64>,
    pub sends: Vec<u64>,
}

impl MetricsCollector {
    #[cfg(test)]
    pub(crate) fn new(jobs: usize) -> Self {
        let mut m = MetricsCollector::default();
        m.reset(jobs);
        m
    }

    /// Zeroes the metrics of `jobs` jobs, keeping the vectors' storage.
    pub(crate) fn reset(&mut self, jobs: usize) {
        self.channel_wait_us = 0.0;
        for v in [&mut self.blocked, &mut self.sends] {
            v.clear();
            v.resize(jobs, 0);
        }
        self.waits_us.clear();
        self.waits_us.resize(jobs, 0.0);
    }

    #[inline(always)]
    pub(crate) fn on(&mut self, ev: &SimEvent) {
        if let SimEvent::SendStart {
            job, stalled_us, ..
        } = *ev
        {
            let j = job as usize;
            self.sends[j] += 1;
            if stalled_us > 0.0 {
                self.channel_wait_us += stalled_us;
                self.waits_us[j] += stalled_us;
                self.blocked[j] += 1;
            }
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

impl SimCounters {
    /// Zeroes every counter, keeping the occupancy histogram's storage.
    pub(crate) fn reset(&mut self) {
        self.copy_from(&SimCounters::default());
    }

    /// Overwrites `self` with `src`, reusing `self`'s histogram storage.
    pub(crate) fn copy_from(&mut self, src: &SimCounters) {
        let mut occupancy = std::mem::take(&mut self.buffer_occupancy);
        occupancy.clone_from(&src.buffer_occupancy);
        *self = SimCounters {
            buffer_occupancy: occupancy,
            ..*src
        };
    }

    /// Folds one event into the counters.
    #[inline(always)]
    pub(crate) fn on(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::SendStart {
                from, stalled_us, ..
            } => {
                self.total_sends += 1;
                if from != Rank::SOURCE {
                    self.packets_forwarded += 1;
                }
                if stalled_us > 0.0 {
                    self.blocked_sends += 1;
                    self.channel_stall_us += stalled_us;
                }
            }
            SimEvent::RecvUnitWait { wait_us, .. } => {
                if wait_us > 0.0 {
                    self.recv_unit_waits += 1;
                    self.recv_unit_wait_us += wait_us;
                }
            }
            SimEvent::SendEnqueued { depth, .. } => {
                self.max_send_queue = self.max_send_queue.max(depth);
            }
            SimEvent::BufferGrew { resident, .. } => {
                let idx = resident as usize;
                if self.buffer_occupancy.len() <= idx {
                    self.buffer_occupancy.resize(idx + 1, 0);
                }
                self.buffer_occupancy[idx] += 1;
            }
            SimEvent::PacketDropped { kind, .. } => {
                self.packets_dropped += 1;
                if kind == FaultKind::Corrupt {
                    self.packets_corrupted += 1;
                }
            }
            SimEvent::RetransmitScheduled { waited_us, .. } => {
                self.retransmits += 1;
                self.recovery_wait_us += waited_us;
            }
            SimEvent::FaultTriggered { .. } => self.faults_triggered += 1,
            SimEvent::DeliveryAbandoned { .. } => self.deliveries_abandoned += 1,
            SimEvent::RepairTriggered { waited_us, .. } => {
                self.repairs += 1;
                self.repair_wait_us += waited_us;
            }
            SimEvent::PacketReissued { .. } => self.reissued_packets += 1,
            SimEvent::ResendRequested { .. } => self.resend_requests += 1,
            SimEvent::NackRangeSent { .. } => self.nack_ranges_sent += 1,
            SimEvent::LateAck { .. } => self.late_acks += 1,
            SimEvent::DuplicateAck { .. } => self.duplicate_acks += 1,
            SimEvent::WindowStalled { stalled_us, .. } => self.window_stalls_us += stalled_us,
            SimEvent::DeadlineWriteoff { .. } => self.deadline_writeoffs += 1,
            SimEvent::RecvDone { .. } | SimEvent::HostDone { .. } => {}
        }
    }
}

/// The statically composed sinks of one run: outcome metrics and counters
/// always; a trace timeline when requested; optionally one caller observer
/// ([`SimRun::observer`](crate::workload::SimRun::observer)).
pub(crate) struct ObserverHub<'a> {
    pub metrics: MetricsCollector,
    pub counters: SimCounters,
    pub trace: Option<TraceCollector>,
    pub user: Option<&'a mut dyn Observer>,
}

impl<'a> ObserverHub<'a> {
    /// A hub over already reset metrics and counters (see
    /// [`MetricsCollector::reset`] and [`SimCounters::reset`]).
    pub(crate) fn new(
        metrics: MetricsCollector,
        counters: SimCounters,
        trace: bool,
        user: Option<&'a mut dyn Observer>,
    ) -> Self {
        ObserverHub {
            metrics,
            counters,
            trace: trace.then(TraceCollector::default),
            user,
        }
    }

    /// Passes `ev` to every sink. The metric and counter folds inline into
    /// the call site, where their `match` reduces to the one variant built
    /// there; the optional sinks cost one branch on the common (untraced,
    /// unobserved) path, which makes no dynamically dispatched call.
    // `always`: under a plain `#[inline]` the compiler kept out-of-line
    // copies of `emit`, so those call sites built the event in memory and
    // switched on its kind.
    #[inline(always)]
    pub(crate) fn emit(&mut self, ev: SimEvent) {
        self.metrics.on(&ev);
        self.counters.on(&ev);
        if self.trace.is_some() || self.user.is_some() {
            self.emit_optional(&ev);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_optional(&mut self, ev: &SimEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.on(ev);
        }
        if let Some(u) = self.user.as_deref_mut() {
            u.on(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(t_us: f64, job: u32, from: Rank, to: Rank, stalled_us: f64) -> SimEvent {
        SimEvent::SendStart {
            t_us,
            job,
            from,
            to,
            packet: 0,
            stalled_us,
        }
    }

    fn counters(events: &[SimEvent]) -> SimCounters {
        let mut c = SimCounters::default();
        for ev in events {
            c.on(ev);
        }
        c
    }

    /// One event of every variant, in declaration order.
    fn one_of_each() -> Vec<SimEvent> {
        use SimEvent::*;
        let (t_us, job, from, to, packet) = (7.5, 1, Rank(2), Rank(3), 4);
        vec![
            SendStart {
                t_us,
                job,
                from,
                to,
                packet,
                stalled_us: 0.5,
            },
            RecvDone {
                t_us,
                job,
                at: to,
                packet,
            },
            HostDone {
                t_us,
                job,
                rank: to,
            },
            RecvUnitWait { job, wait_us: 1.5 },
            SendEnqueued {
                host: HostId(5),
                depth: 6,
            },
            BufferGrew {
                host: HostId(5),
                resident: 2,
            },
            PacketDropped {
                t_us,
                job,
                from,
                to,
                packet,
                kind: FaultKind::Corrupt,
            },
            RetransmitScheduled {
                t_us,
                job,
                from,
                to,
                packet,
                attempt: 3,
                waited_us: 60.0,
            },
            FaultTriggered {
                t_us,
                kind: FaultKind::LinkDown,
                host: HostId(9),
            },
            DeliveryAbandoned {
                t_us,
                job,
                from,
                to,
                packet,
                attempts: 8,
            },
            RepairTriggered {
                t_us,
                job,
                epoch: 1,
                failed: 2,
                reattached: 3,
                waited_us: 120.0,
            },
            PacketReissued {
                t_us,
                job,
                to,
                packet,
            },
            ResendRequested {
                t_us,
                job,
                from,
                to,
                packet,
            },
            NackRangeSent {
                t_us,
                job,
                at: to,
                first: 4,
                last: 6,
            },
            LateAck {
                t_us,
                job,
                at: to,
                packet,
            },
            DuplicateAck {
                t_us,
                job,
                at: to,
                packet,
            },
            WindowStalled {
                job,
                stalled_us: 2.5,
            },
            DeadlineWriteoff {
                t_us,
                job,
                rank: to,
            },
        ]
    }

    /// Rebuilds the event from each per-event method's arguments, so a
    /// call to the wrong method, or with shuffled arguments, shows up as a
    /// different event.
    #[derive(Default)]
    struct Legacy(Vec<SimEvent>);

    #[rustfmt::skip]
    impl Observer for Legacy {
        fn send_start(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32, stalled_us: f64) {
            self.0.push(SimEvent::SendStart { t_us, job, from, to, packet, stalled_us });
        }
        fn recv_done(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
            self.0.push(SimEvent::RecvDone { t_us, job, at, packet });
        }
        fn host_done(&mut self, t_us: f64, job: u32, rank: Rank) {
            self.0.push(SimEvent::HostDone { t_us, job, rank });
        }
        fn recv_unit_wait(&mut self, job: u32, wait_us: f64) {
            self.0.push(SimEvent::RecvUnitWait { job, wait_us });
        }
        fn send_enqueued(&mut self, host: HostId, depth: usize) {
            self.0.push(SimEvent::SendEnqueued { host, depth });
        }
        fn buffer_grew(&mut self, host: HostId, resident: u32) {
            self.0.push(SimEvent::BufferGrew { host, resident });
        }
        fn packet_dropped(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32, kind: FaultKind) {
            self.0.push(SimEvent::PacketDropped { t_us, job, from, to, packet, kind });
        }
        fn retransmit_scheduled(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32, attempt: u32, waited_us: f64) {
            self.0.push(SimEvent::RetransmitScheduled { t_us, job, from, to, packet, attempt, waited_us });
        }
        fn fault_triggered(&mut self, t_us: f64, kind: FaultKind, host: HostId) {
            self.0.push(SimEvent::FaultTriggered { t_us, kind, host });
        }
        fn delivery_abandoned(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32, attempts: u32) {
            self.0.push(SimEvent::DeliveryAbandoned { t_us, job, from, to, packet, attempts });
        }
        fn repair_triggered(&mut self, t_us: f64, job: u32, epoch: u32, failed: u32, reattached: u32, waited_us: f64) {
            self.0.push(SimEvent::RepairTriggered { t_us, job, epoch, failed, reattached, waited_us });
        }
        fn packet_reissued(&mut self, t_us: f64, job: u32, to: Rank, packet: u32) {
            self.0.push(SimEvent::PacketReissued { t_us, job, to, packet });
        }
        fn resend_requested(&mut self, t_us: f64, job: u32, from: Rank, to: Rank, packet: u32) {
            self.0.push(SimEvent::ResendRequested { t_us, job, from, to, packet });
        }
        fn nack_range_sent(&mut self, t_us: f64, job: u32, at: Rank, first: u32, last: u32) {
            self.0.push(SimEvent::NackRangeSent { t_us, job, at, first, last });
        }
        fn late_ack(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
            self.0.push(SimEvent::LateAck { t_us, job, at, packet });
        }
        fn duplicate_ack(&mut self, t_us: f64, job: u32, at: Rank, packet: u32) {
            self.0.push(SimEvent::DuplicateAck { t_us, job, at, packet });
        }
        fn window_stalled(&mut self, job: u32, stalled_us: f64) {
            self.0.push(SimEvent::WindowStalled { job, stalled_us });
        }
        fn deadline_writeoff(&mut self, t_us: f64, job: u32, rank: Rank) {
            self.0.push(SimEvent::DeadlineWriteoff { t_us, job, rank });
        }
    }

    #[test]
    fn default_on_calls_exactly_the_matching_per_event_method() {
        let events = one_of_each();
        let variants: std::collections::HashSet<_> =
            events.iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), 18, "one event of each variant");
        for ev in events {
            let mut legacy = Legacy::default();
            legacy.on(&ev);
            assert_eq!(legacy.0, vec![ev]);
        }
    }

    #[test]
    fn counters_classify_sends_and_stalls() {
        let k = counters(&[
            send(0.0, 0, Rank::SOURCE, Rank(1), 0.0),
            send(5.0, 0, Rank(1), Rank(2), 2.5),
        ]);
        assert_eq!(k.total_sends, 2);
        assert_eq!(k.packets_forwarded, 1);
        assert_eq!(k.blocked_sends, 1);
        assert!((k.channel_stall_us - 2.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_histogram_grows_on_demand() {
        let grew = |host, resident| SimEvent::BufferGrew {
            host: HostId(host),
            resident,
        };
        let k = counters(&[grew(0, 2), grew(1, 2), grew(0, 4)]);
        assert_eq!(k.buffer_occupancy, vec![0, 0, 2, 0, 1]);
    }

    #[test]
    fn trace_collector_sorts_stably() {
        let recv = |at| SimEvent::RecvDone {
            t_us: 5.0,
            job: 0,
            at: Rank(at),
            packet: 0,
        };
        let done = SimEvent::HostDone {
            t_us: 10.0, // future-dated completion
            job: 0,
            rank: Rank(3),
        };
        let mut t = TraceCollector::default();
        for ev in [done, recv(1), recv(2)] {
            t.on(&ev);
        }
        assert_eq!(t.into_sorted(), vec![recv(1), recv(2), done]);
    }

    #[test]
    fn counters_track_faults_and_recovery() {
        let drop = |t_us, packet, kind| SimEvent::PacketDropped {
            t_us,
            job: 0,
            from: Rank::SOURCE,
            to: Rank(1),
            packet,
            kind,
        };
        let retry = |t_us, packet, waited_us| SimEvent::RetransmitScheduled {
            t_us,
            job: 0,
            from: Rank::SOURCE,
            to: Rank(1),
            packet,
            attempt: 1,
            waited_us,
        };
        let k = counters(&[
            drop(1.0, 0, FaultKind::Drop),
            drop(2.0, 1, FaultKind::Corrupt),
            retry(3.0, 0, 60.0),
            retry(3.5, 1, 0.0),
            SimEvent::FaultTriggered {
                t_us: 4.0,
                kind: FaultKind::LinkDown,
                host: HostId(0),
            },
            SimEvent::DeliveryAbandoned {
                t_us: 5.0,
                job: 0,
                from: Rank::SOURCE,
                to: Rank(1),
                packet: 0,
                attempts: 8,
            },
        ]);
        assert_eq!(k.packets_dropped, 2);
        assert_eq!(k.packets_corrupted, 1);
        assert_eq!(k.retransmits, 2);
        assert!((k.recovery_wait_us - 60.0).abs() < 1e-12);
        assert_eq!(k.faults_triggered, 1);
        assert_eq!(k.deliveries_abandoned, 1);
    }

    #[test]
    fn counters_track_repair_epochs() {
        let repair = SimEvent::RepairTriggered {
            t_us: 100.0,
            job: 0,
            epoch: 1,
            failed: 2,
            reattached: 1,
            waited_us: 120.0,
        };
        let reissue = |to| SimEvent::PacketReissued {
            t_us: 100.0,
            job: 0,
            to: Rank(to),
            packet: 0,
        };
        let k = counters(&[repair, reissue(3), reissue(5)]);
        assert_eq!(k.repairs, 1);
        assert_eq!(k.reissued_packets, 2);
        assert!((k.repair_wait_us - 120.0).abs() < 1e-12);
        // The trace records the same events.
        let mut t = TraceCollector::default();
        t.on(&repair);
        t.on(&reissue(3));
        assert_eq!(t.into_sorted(), vec![repair, reissue(3)]);
    }

    #[test]
    fn counters_track_windowed_arq() {
        let mut events = vec![SimEvent::NackRangeSent {
            t_us: 10.0,
            job: 0,
            at: Rank(2),
            first: 3,
            last: 5,
        }];
        events.extend((3..=5).map(|packet| SimEvent::ResendRequested {
            t_us: 10.0,
            job: 0,
            from: Rank::SOURCE,
            to: Rank(2),
            packet,
        }));
        events.extend([
            SimEvent::LateAck {
                t_us: 11.0,
                job: 0,
                at: Rank(2),
                packet: 3,
            },
            SimEvent::DuplicateAck {
                t_us: 12.0,
                job: 0,
                at: Rank(2),
                packet: 4,
            },
            SimEvent::WindowStalled {
                job: 0,
                stalled_us: 7.5,
            },
            SimEvent::WindowStalled {
                job: 0,
                stalled_us: 2.5,
            },
            SimEvent::DeadlineWriteoff {
                t_us: 99.0,
                job: 0,
                rank: Rank(6),
            },
        ]);
        let k = counters(&events);
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
        m.on(&send(0.0, 0, Rank::SOURCE, Rank(1), 0.0));
        m.on(&send(1.0, 1, Rank::SOURCE, Rank(1), 3.0));
        assert_eq!(m.sends, vec![1, 1]);
        assert_eq!(m.blocked, vec![0, 1]);
        assert!((m.waits_us[1] - 3.0).abs() < 1e-12);
        assert!((m.channel_wait_us - 3.0).abs() < 1e-12);
    }
}
