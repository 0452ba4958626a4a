//! Windowed selective-repeat ARQ: the NI send-unit model and the
//! sliding-window reliability state.
//!
//! The paper's NI has exactly one send unit per host; the stop-and-wait
//! reliability layer mirrors that — one outstanding transmission per host,
//! with the unit held until the receiver's handshake. This module
//! generalises both sides:
//!
//! * [`NiModel`] — `s` send units per host and an optional per-port send
//!   queue bound, threaded through [`crate::workload::WorkloadConfig`]. The
//!   default (`s = 1`, unbounded) reproduces the paper model bit-for-bit.
//! * The selective-repeat state (`ArqState`): one `LinkState` per tree
//!   edge holding both ends — the sender's window, with at most `window`
//!   unacknowledged packets in flight, and the receiver's out-of-order
//!   acceptance buffer, whose gap detection emits **coalesced NACK ranges**
//!   (inclusive runs of missing packets below the newest arrival, not
//!   per-packet NACKs).
//!
//! The window machinery activates when a [`crate::fault::FaultPlan`] sets
//! `window > 1`. Its event handlers live here too, as free functions over
//! the simulator state and the `ArqState` (the way the forwarding engines
//! are): the core hands each windowed event over at one `if let Some(arq)`
//! and never looks inside. The windowed path replays the FPFS replication
//! pattern itself, with a send window per tree edge. Every retry decision
//! is driven by the fault plan's PRF (stream 3 for the retransmission
//! jitter), so windowed runs stay byte-identical at any worker count.
//! Stop-and-wait keeps its handlers in the core and shares one rule with
//! the windowed path: `retry_or_abandon`, the attempt budget.

use crate::discipline::{record_receive, release_replicated_copy};
use crate::event::{Ev, SendItem};
use crate::fault::{FaultKind, FaultPlan};
use crate::observe::SimEvent;
use crate::simulation::SimState;
use crate::time::SimTime;
use crate::transport::TransportResult;
use crate::workload::MulticastJob;
use optimcast_core::tree::Rank;
use optimcast_topology::graph::HostId;
use std::collections::VecDeque;

/// Per-host network-interface resources.
///
/// Part of [`crate::workload::WorkloadConfig`]; the default is the paper's
/// single-send-unit NI with an unbounded send queue, which the committed
/// goldens pin bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiModel {
    /// Independent send units per host (`s ≥ 1`). Each unit holds one
    /// outstanding transmission; with handshake timing a unit frees on the
    /// receiver's handshake, under windowed ARQ it frees `t_send` after
    /// dispatch.
    pub send_units: u32,
    /// Per-host send-queue bound in packets (`None` = unbounded). Enforced
    /// by the windowed-ARQ admission path only: window admission defers
    /// packets that would overflow the queue. The legacy stop-and-wait and
    /// fault-free paths never exceed their historic queue depths, so the
    /// bound does not apply there.
    pub queue_capacity: Option<u32>,
}

impl Default for NiModel {
    fn default() -> Self {
        NiModel {
            send_units: 1,
            queue_capacity: None,
        }
    }
}

impl NiModel {
    /// Checks the model's parameters (`send_units ≥ 1`, a present queue
    /// bound ≥ 1).
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.send_units == 0 {
            return Err("send_units must be at least 1");
        }
        if self.queue_capacity == Some(0) {
            return Err("queue_capacity must be at least 1 packet when bounded");
        }
        Ok(())
    }
}

/// Tests bit `p` of a packet bitmask.
#[inline]
fn mask_test(mask: &[u64], p: u32) -> bool {
    mask[(p / 64) as usize] & (1u64 << (p % 64)) != 0
}

/// Sets bit `p` of a packet bitmask.
#[inline]
fn mask_set(mask: &mut [u64], p: u32) {
    mask[(p / 64) as usize] |= 1u64 << (p % 64);
}

/// Words needed for an `m`-packet bitmask.
#[inline]
fn mask_words(m: u32) -> usize {
    (m as usize).div_ceil(64)
}

/// Sender-side transmission state of one packet on one tree edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Not yet admitted to the window.
    NotSent,
    /// Transmitted and unacknowledged; `attempt` identifies the newest
    /// transmission so stale timeouts are ignored.
    InFlight { attempt: u32 },
    /// Retired: acknowledged, abandoned, or written off.
    Done,
}

/// Window state of one tree edge (parent → child), both ends.
#[derive(Debug)]
struct LinkState {
    /// Sender: per-packet transmission state (`packets` entries).
    slots: Vec<Slot>,
    /// Sender: packets awaiting window admission, in send order.
    pending: VecDeque<u32>,
    /// Sender: unacknowledged packets currently charged against the window.
    in_flight: u32,
    /// Sender: instant admission stalled on a full window (µs); accumulated
    /// into `window_stalls_us` when the window next slides.
    blocked_since_us: Option<f64>,
    /// Registered in its sender host's `ArqState::host_links` (set when
    /// the link first gets pending work).
    active: bool,
    /// Receiver: packets received (acceptance buffer occupancy).
    mask: Vec<u64>,
    /// Receiver: one past the highest packet accepted. Every packet below
    /// it is received or already NACKed, and none at or above it has
    /// arrived. Each missing packet is NACKed at most once — the sender's
    /// retransmission timeout covers a lost recovery, so repeating the NACK
    /// would only multiply duplicate resends.
    nack_upto: u32,
}

impl LinkState {
    fn new(packets: u32) -> Self {
        LinkState {
            slots: vec![Slot::NotSent; packets as usize],
            pending: VecDeque::new(),
            in_flight: 0,
            blocked_since_us: None,
            active: false,
            mask: vec![0; mask_words(packets)],
            nack_upto: 0,
        }
    }

    /// Accepts packet `p` at the receiver and returns the gap it reveals:
    /// the inclusive run `(first, last)` of packets below `p` that are
    /// neither received nor NACKed yet. That run is `[nack_upto, p)`, so an
    /// arrival reveals at most one run and costs no scan.
    fn accept(&mut self, p: u32) -> Option<(u32, u32)> {
        mask_set(&mut self.mask, p);
        let gap = (p > self.nack_upto).then(|| (self.nack_upto, p - 1));
        self.nack_upto = self.nack_upto.max(p + 1);
        gap
    }
}

/// The whole workload's selective-repeat state, indexed `[job][rank]`
/// (rank 0 rows are unused: rank 0 has no incoming edge), beside the `window > 1` fault plan it was built from. The plan supplies
/// the window, the deadline, the attempt budget, the rto and the retry
/// jitter, so no handler below looks a plan up or unwraps one.
pub(crate) struct ArqState<'a> {
    plan: &'a FaultPlan,
    /// `links[job][rank]`: state of the edge parent(rank) → rank.
    links: Vec<Vec<LinkState>>,
    /// Active outgoing edges per physical host, in activation order — lets
    /// a freed send unit or drained queue re-attempt admission for the
    /// host's links without scanning every job.
    host_links: Vec<Vec<(u32, Rank)>>,
}

impl<'a> ArqState<'a> {
    pub(crate) fn new(jobs: &[MulticastJob], n_hosts: usize, plan: &'a FaultPlan) -> Self {
        debug_assert!(plan.window > 1);
        ArqState {
            plan,
            links: jobs
                .iter()
                .map(|j| {
                    (0..j.tree.len())
                        .map(|_| LinkState::new(j.packets))
                        .collect()
                })
                .collect(),
            host_links: vec![Vec::new(); n_hosts],
        }
    }

    fn link(&mut self, job: u32, child: Rank) -> &mut LinkState {
        &mut self.links[job as usize][child.index()]
    }

    fn slot(&self, job: u32, child: Rank, packet: u32) -> Slot {
        self.links[job as usize][child.index()].slots[packet as usize]
    }

    /// Whether `item` is its slot's newest transmission, still
    /// unacknowledged (anything else makes its timer or NACK stale).
    fn is_newest(&self, item: SendItem) -> bool {
        self.slot(item.job, item.child, item.packet)
            == (Slot::InFlight {
                attempt: item.attempt,
            })
    }

    /// The plan's retransmission jitter for `item`'s transmission.
    fn retry_jitter_us(&self, item: SendItem) -> f64 {
        let SendItem {
            job,
            packet,
            from,
            child,
            attempt,
            ..
        } = item;
        self.plan
            .retry_jitter_us(job, from.0, child.0, packet, attempt)
    }

    /// Whether `now` lies past the job's per-message delivery deadline.
    fn past_deadline(&self, st: &SimState<'_>, now: SimTime, job: u32) -> bool {
        self.plan
            .deadline_us
            .is_some_and(|d| now.as_us() > st.job(job).start_us + d)
    }
}

/// The one attempt-budget rule of both reliability modes: once `item`'s
/// next attempt would reach the plan's `max_attempts` the copy is abandoned
/// (`None`); otherwise the retransmission is reported and the copy comes
/// back with its attempt bumped. The caller releases or re-enqueues it.
pub(crate) fn retry_or_abandon(
    st: &mut SimState<'_>,
    plan: &FaultPlan,
    now: SimTime,
    item: SendItem,
    waited_us: f64,
) -> Option<SendItem> {
    let SendItem {
        job,
        packet,
        from,
        child,
        ..
    } = item;
    let attempt = item.attempt + 1;
    if attempt >= plan.max_attempts {
        st.obs.emit(SimEvent::DeliveryAbandoned {
            t_us: now.as_us(),
            job,
            from,
            to: child,
            packet,
            attempts: attempt,
        });
        return None;
    }
    st.obs.emit(SimEvent::RetransmitScheduled {
        t_us: now.as_us(),
        job,
        from,
        to: child,
        packet,
        attempt,
        waited_us,
    });
    Some(SendItem { attempt, ..item })
}

/// The sender of the window link into `child`. Window links run along the
/// job's own tree edges (windowed plans never repair), so `child` is never
/// the source.
fn parent_of(st: &SimState<'_>, job: u32, child: Rank) -> Rank {
    st.job(job)
        .tree
        .parent(child)
        .expect("window links end at non-root ranks")
}

/// One replicated copy of `packet` on the edge `from → child`.
fn copy(job: u32, packet: u32, from: Rank, child: Rank, attempt: u32) -> SendItem {
    SendItem {
        job,
        packet,
        from,
        child,
        dest: child,
        attempt,
    }
}

/// Windowed-ARQ kickoff: stage the whole message at the source, activate
/// the root's outgoing links with every packet pending, and schedule the
/// source's first dispatch at the end of `t_s` staging. Window admission
/// (round-robin, one packet per link per round) then meters the pending
/// sets out — at unlimited window that reproduces the FPFS packet-major
/// kickoff order. No packet surfaces in the shared queues before the job
/// starts, so staggered starts need no `JobStart` indirection.
pub(crate) fn kickoff(st: &mut SimState<'_>, arq: &mut ArqState<'_>, j: u32) {
    let jobd = st.job(j);
    let kids = jobd.tree.root_children();
    if kids.is_empty() {
        return; // single-rank job: nothing to transmit
    }
    let src_host = jobd.binding[0];
    st.stage(src_host, jobd.packets);
    st.rank_copies(j, Rank::SOURCE).fill(kids.len() as u16);
    for &c in kids {
        let link = arq.link(j, c);
        link.pending.extend(0..jobd.packets);
        link.active = true;
        arq.host_links[src_host.index()].push((j, c));
    }
    st.queue.schedule(
        SimTime::us(jobd.start_us) + st.params.t_s,
        Ev::TrySend(src_host),
    );
}

/// Attempts to admit one pending packet of the edge `parent(child) →
/// child` into its send window and the parent host's send queue.
/// Returns whether a packet was admitted; a full window stamps the
/// stall start for the `window_stalls_us` counter.
fn admit_one(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    job: u32,
    child: Rank,
) -> bool {
    let window = arq.plan.window;
    let link = arq.link(job, child);
    let Some(&p) = link.pending.front() else {
        return false;
    };
    if link.in_flight >= window {
        if link.blocked_since_us.is_none() {
            link.blocked_since_us = Some(now.as_us());
        }
        return false;
    }
    let parent = parent_of(st, job, child);
    let parent_host = st.host_of(job, parent);
    if let Some(cap) = st.config.ni.queue_capacity {
        if st.hosts.queue_len(parent_host) >= cap as usize {
            return false; // bounded port queue: defer, don't drop
        }
    }
    link.pending.pop_front();
    debug_assert_eq!(link.slots[p as usize], Slot::NotSent);
    link.slots[p as usize] = Slot::InFlight { attempt: 0 };
    link.in_flight += 1;
    st.enqueue_send(parent_host, copy(job, p, parent, child, 0));
    true
}

/// Round-robin admission across the host's active outgoing edges: one
/// packet per link per round until a full round admits nothing.
/// Returns whether anything was admitted.
pub(crate) fn admit_host(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    h: HostId,
) -> bool {
    let n = arq.host_links[h.index()].len();
    let mut any = false;
    loop {
        let mut progressed = false;
        for i in 0..n {
            let (job, child) = arq.host_links[h.index()][i];
            if admit_one(st, arq, now, job, child) {
                progressed = true;
                any = true;
            }
        }
        if !progressed {
            return any;
        }
    }
}

/// A windowed send unit fired: the unit frees once the wire is clear,
/// whatever the packet's fate — the window slot (and the parent's buffer
/// copy) stay charged until the handshake retires it. A lost copy arms
/// the slot's retransmission timer instead of an arrival.
pub(crate) fn on_dispatch(
    st: &mut SimState<'_>,
    arq: &ArqState<'_>,
    h: HostId,
    item: SendItem,
    outcome: TransportResult,
    start_us: f64,
) {
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
            let dest_host = st.host_of(item.job, item.child);
            st.report_loss(start_us, item, kind, h, dest_host);
            // The PRF-derived jitter decorrelates simultaneous expirations
            // while keeping the schedule byte-identical at any worker count.
            let at = SimTime::us(retry_at_us + arq.retry_jitter_us(item));
            st.queue.schedule(at, Ev::ArqTimeout(item));
        }
    }
}

/// Windowed-ARQ unit release: the wire is clear `t_send` after dispatch,
/// so the unit frees — but the packet's window slot (and the parent's
/// buffer copy) stay charged until the handshake or an abandonment
/// retires it.
pub(crate) fn on_release(st: &mut SimState<'_>, now: SimTime, h: HostId, seq: u64) {
    if st.hosts.release_by_seq(h, seq).is_some() {
        st.queue.schedule(now, Ev::TrySend(h));
    }
}

/// Retires `item`'s window slot: marks it done, frees the window credit
/// (finalizing any stall), and releases the parent's buffer copy.
fn retire_slot(st: &mut SimState<'_>, arq: &mut ArqState<'_>, now: SimTime, item: SendItem) {
    let link = arq.link(item.job, item.child);
    let slot = &mut link.slots[item.packet as usize];
    debug_assert!(matches!(*slot, Slot::InFlight { .. }));
    *slot = Slot::Done;
    link.in_flight -= 1;
    if let Some(t0) = link.blocked_since_us.take() {
        st.obs.emit(SimEvent::WindowStalled {
            job: item.job,
            stalled_us: now.as_us() - t0,
        });
    }
    release_replicated_copy(st, item);
}

/// Windowed retransmit-or-abandon for one in-flight slot: bumps the
/// slot's attempt and re-enqueues the packet, or — once the attempt
/// budget is spent — retires the slot as abandoned (the destination then
/// surfaces as unreached unless a deadline writes it off first).
fn resend_or_abandon(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    item: SendItem,
    waited_us: f64,
) {
    match retry_or_abandon(st, arq.plan, now, item, waited_us) {
        Some(next) => {
            arq.link(item.job, item.child).slots[item.packet as usize] = Slot::InFlight {
                attempt: next.attempt,
            };
            let h = st.host_of(item.job, item.from);
            st.enqueue_send(h, next);
        }
        None => retire_slot(st, arq, now, item),
    }
}

/// A window slot's retransmission timer fired: resend (with the timer's
/// rto + jitter as the reported wait) or abandon — unless the timeout is
/// stale (the slot was acknowledged, resent under a newer attempt, or
/// written off meanwhile).
pub(crate) fn on_timeout(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    item: SendItem,
) {
    if !arq.is_newest(item) {
        return;
    }
    if arq.past_deadline(st, now, item.job) {
        write_off_deadline(st, arq, now, item.job, item.child);
        return;
    }
    let waited = arq.plan.rto(item.attempt) + arq.retry_jitter_us(item);
    resend_or_abandon(st, arq, now, item, waited);
    let h = st.host_of(item.job, item.from);
    st.queue.schedule(now, Ev::TrySend(h));
}

/// The receiver at `at` NACKed the inclusive packet range `[first,
/// last]`: resend every packet of the range that is still
/// unacknowledged. NACKs ride the modelled control channel —
/// instantaneous and reliable, like the acknowledgements.
pub(crate) fn on_nack(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    job: u32,
    at: Rank,
    first: u32,
    last: u32,
) {
    let parent = parent_of(st, job, at);
    for p in first..=last {
        let Slot::InFlight { attempt } = arq.slot(job, at, p) else {
            continue; // retired (acknowledged or abandoned) meanwhile
        };
        st.obs.emit(SimEvent::ResendRequested {
            t_us: now.as_us(),
            job,
            from: parent,
            to: at,
            packet: p,
        });
        if arq.past_deadline(st, now, job) {
            write_off_deadline(st, arq, now, job, at);
            return;
        }
        resend_or_abandon(st, arq, now, copy(job, p, parent, at, attempt), 0.0);
    }
    let h = st.host_of(job, parent);
    st.queue.schedule(now, Ev::TrySend(h));
}

/// Windowed-ARQ receive completion: retire the sender-side window slot
/// (the modelled acknowledgement), accept the packet out of order, NACK
/// any new gap as a coalesced range, replicate to the subtree, and
/// complete the host once the message is whole. Corrupt arrivals are
/// per-packet NACKs: an immediate resend of exactly that slot.
pub(crate) fn on_recv_done(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    item: SendItem,
    corrupt: bool,
) {
    let job = item.job;
    let at = item.child;
    let p = item.packet;
    if corrupt {
        st.report_drop(now.as_us(), item, FaultKind::Corrupt);
        // Only the newest attempt resends — a stale corrupt arrival means
        // a fresher transmission (with its own timer) is already out.
        if arq.is_newest(item) {
            st.obs.emit(SimEvent::ResendRequested {
                t_us: now.as_us(),
                job,
                from: item.from,
                to: at,
                packet: p,
            });
            if arq.past_deadline(st, now, job) {
                write_off_deadline(st, arq, now, job, at);
                return;
            }
            resend_or_abandon(st, arq, now, item, 0.0);
            let h = st.host_of(job, item.from);
            st.queue.schedule(now, Ev::TrySend(h));
        }
        return;
    }
    // Sender side — the handshake acknowledges the slot.
    match arq.slot(job, at, p) {
        Slot::InFlight { .. } => {
            retire_slot(st, arq, now, item);
            // Freed window credit: let the parent admit and dispatch.
            let u_host = st.host_of(job, item.from);
            st.queue.schedule(now, Ev::TrySend(u_host));
        }
        Slot::Done => {
            // A resend raced its original past the handshake; the
            // acknowledgement arrives late and retires nothing.
            st.obs.emit(SimEvent::LateAck {
                t_us: now.as_us(),
                job,
                at,
                packet: p,
            });
        }
        // Admission marks a slot in flight before its copy is queued.
        Slot::NotSent => unreachable!("an arrival implies a transmission"),
    }
    // Receiver side — out-of-order acceptance.
    if st.is_excluded(job, at) {
        return; // written off by a deadline: the subtree is retired
    }
    let link = arq.link(job, at);
    if mask_test(&link.mask, p) {
        st.obs.emit(SimEvent::DuplicateAck {
            t_us: now.as_us(),
            job,
            at,
            packet: p,
        });
        return;
    }
    let gap = link.accept(p);
    st.obs.emit(SimEvent::RecvDone {
        t_us: now.as_us(),
        job,
        at,
        packet: p,
    });
    let received = record_receive(st, now, job, at);
    // Gap detection: per-edge delivery is FIFO, so anything missing below
    // the packet just received was lost. NACK the new missing run once
    // (the sender's timer covers a lost recovery).
    if let Some((first, last)) = gap {
        st.obs.emit(SimEvent::NackRangeSent {
            t_us: now.as_us(),
            job,
            at,
            first,
            last,
        });
        st.queue.schedule(
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
    let jobd = st.job(job);
    let v_host = jobd.binding[at.index()];
    let kids = jobd.tree.children(at);
    let live = kids.iter().filter(|&&c| !st.is_excluded(job, c)).count() as u16;
    if live > 0 {
        st.rank_copies(job, at)[p as usize] = live;
        st.stage(v_host, 1);
        for &c in kids {
            if st.is_excluded(job, c) {
                continue;
            }
            let link = arq.link(job, c);
            link.pending.push_back(p);
            if !link.active {
                link.active = true;
                arq.host_links[v_host.index()].push((job, c));
            }
        }
        st.queue.schedule(now, Ev::TrySend(v_host));
    }
    if received == jobd.packets {
        st.finish_host(now, job, at);
    }
}

/// The job's delivery deadline passed with `child`'s delivery still
/// incomplete: write off the whole undelivered subtree under (and
/// including) `child` as typed `unreached` entries instead of letting
/// retries run the attempt budget down. Uses the repair epochs' exclusion
/// flags, so `collect` reports the run as a success for the surviving
/// membership.
fn write_off_deadline(
    st: &mut SimState<'_>,
    arq: &mut ArqState<'_>,
    now: SimTime,
    job: u32,
    child: Rank,
) {
    let jobd = st.job(job);
    let mut stack = vec![child];
    while let Some(v) = stack.pop() {
        if st.parts[job as usize][v.index()].is_done() || st.is_excluded(job, v) {
            continue;
        }
        st.exclude(job, v);
        st.obs.emit(SimEvent::DeadlineWriteoff {
            t_us: now.as_us(),
            job,
            rank: v,
        });
        // Retire the incoming edge wholesale: pending (undispatched)
        // packets and in-flight slots each still hold a parent buffer
        // copy.
        let parent = parent_of(st, job, v);
        let link = arq.link(job, v);
        let mut to_release: Vec<u32> = link.pending.drain(..).collect();
        for (pi, s) in link.slots.iter_mut().enumerate() {
            if matches!(*s, Slot::InFlight { .. }) {
                to_release.push(pi as u32);
            }
            *s = Slot::Done;
        }
        link.in_flight = 0;
        if let Some(t0) = link.blocked_since_us.take() {
            st.obs.emit(SimEvent::WindowStalled {
                job,
                stalled_us: now.as_us() - t0,
            });
        }
        for p in to_release {
            release_replicated_copy(st, copy(job, p, parent, v, 0));
        }
        stack.extend_from_slice(jobd.tree.children(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ni_model_is_the_paper_nic() {
        let ni = NiModel::default();
        assert_eq!(ni.send_units, 1);
        assert_eq!(ni.queue_capacity, None);
        ni.validate().unwrap();
    }

    #[test]
    fn ni_model_validation_rejects_nonsense() {
        let err = NiModel {
            send_units: 0,
            queue_capacity: None,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("send_units"));
        let err = NiModel {
            send_units: 2,
            queue_capacity: Some(0),
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("queue_capacity"));
    }

    #[test]
    fn coalesce_produces_inclusive_runs() {
        // Arrivals 1, 4, 5, 8 reveal the missing runs {0}, {2, 3}, {6, 7}.
        let mut link = LinkState::new(9);
        let gaps: Vec<_> = [1, 4, 5, 8].map(|p| link.accept(p)).into();
        assert_eq!(gaps, [Some((0, 0)), Some((2, 3)), None, Some((6, 7))]);
        // Late arrivals of NACKed packets reveal nothing new, and a
        // NACKed packet is never NACKed again.
        assert_eq!(link.accept(2), None);
        assert_eq!(link.accept(0), None);
        assert!(mask_test(&link.mask, 2) && !mask_test(&link.mask, 3));
        // In order from 0: nothing is ever missing.
        let mut link = LinkState::new(4);
        assert!((0..4).all(|p| link.accept(p).is_none()));
    }

    #[test]
    fn coalesce_crosses_word_boundaries() {
        let mut link = LinkState::new(128);
        assert_eq!(link.accept(61), Some((0, 60)));
        // 62..=66 missing: one run across the word boundary.
        assert_eq!(link.accept(67), Some((62, 66)));
        assert!(mask_test(&link.mask, 67) && !mask_test(&link.mask, 64));
    }

    #[test]
    fn mask_ops_round_trip() {
        let mut mask = vec![0u64; 2];
        for p in [0u32, 63, 64, 100] {
            assert!(!mask_test(&mask, p));
            mask_set(&mut mask, p);
            assert!(mask_test(&mask, p));
        }
    }
}
