//! Pluggable NI forwarding engines.
//!
//! Each engine implements [`ForwardingDiscipline`]: the simulator core
//! ([`crate::simulation`]) owns time, channels, send/receive units, and
//! observers, and delegates every *policy* decision — what the source
//! stages, what an NI does with a received packet, when a buffered copy is
//! freed — to the job's engine:
//!
//! * [`fpfs::Fpfs`] — smart NI, first-packet-first-served (paper §3.2);
//! * [`fcfs::Fcfs`] — smart NI, first-child-first-served (paper §3.1);
//! * [`conventional::Conventional`] — host-forwarded replication (§2.3);
//! * [`scatter::Scatter`] — smart-NI personalized (scatter) relay.
//!
//! Engines are stateless (`&self` everywhere): all mutable simulation state
//! lives in [`SimState`], so one engine instance serves a job for the whole
//! run and the core can hold the engine table and the state as disjoint
//! borrows.

pub(crate) mod conventional;
pub(crate) mod fcfs;
pub(crate) mod fpfs;
pub(crate) mod scatter;

use crate::event::SendItem;
use crate::simulation::SimState;
use crate::time::SimTime;
use optimcast_core::tree::Rank;

/// One job's forwarding policy.
///
/// The core invokes hooks in a fixed order per event (see
/// [`crate::simulation`]); engines mutate [`SimState`] through its helper
/// methods so observer notifications stay consistent.
pub(crate) trait ForwardingDiscipline {
    /// Stages the job's initial work at its source and schedules the first
    /// event(s).
    fn kickoff(&self, st: &mut SimState<'_>, job: u32);

    /// A packet for this job finished arriving at rank `at`'s NI.
    ///
    /// Called after the core has released the sender's unit (handshake
    /// timing), delivered the sender acknowledgement, and notified
    /// observers of the receive.
    fn on_recv_done(
        &self,
        st: &mut SimState<'_>,
        now: SimTime,
        job: u32,
        at: Rank,
        packet: u32,
        dest: Rank,
    );

    /// The transmission `at` → (some child) completed its handshake; the
    /// sending rank learns its packet was consumed. Only the conventional
    /// NI acts on this (its host pipelines per-child message preparation).
    fn sender_ack(&self, st: &mut SimState<'_>, now: SimTime, job: u32, at: Rank) {
        let _ = (st, now, job, at);
    }

    /// A conventional host processor became ready to prepare child
    /// messages. Unreachable for smart engines.
    fn on_host_ready(&self, st: &mut SimState<'_>, now: SimTime, job: u32, at: Rank) {
        let _ = (st, now, job, at);
        debug_assert!(false, "HostReady event reached a smart engine");
    }

    /// A conventional host finished staging one child's message.
    /// Unreachable for smart engines.
    fn on_send_prepared(
        &self,
        st: &mut SimState<'_>,
        now: SimTime,
        job: u32,
        at: Rank,
        child_idx: usize,
    ) {
        let _ = (st, now, job, at, child_idx);
        debug_assert!(false, "SendPrepared event reached a smart engine");
    }

    /// The send unit finished transmitting `item`; apply the engine's
    /// buffer-release policy.
    fn on_copy_released(&self, st: &mut SimState<'_>, item: SendItem);
}

/// Shared replicated-payload buffer release: a packet stays resident at the
/// forwarding NI until its *last* copy is out, tracked by the sending
/// participant's per-packet counter.
pub(crate) fn release_replicated_copy(st: &mut SimState<'_>, item: SendItem) {
    let counter = &mut st.rank_copies(item.job, item.from)[item.packet as usize];
    if *counter > 0 {
        *counter -= 1;
        if *counter == 0 {
            let h = st.jobs[item.job as usize].binding[item.from.index()];
            st.unstage(h);
        }
    }
}

/// Shared receive bookkeeping: counts the packet and records the NI receive
/// time. Returns the new received count.
pub(crate) fn record_receive(st: &mut SimState<'_>, now: SimTime, job: u32, at: Rank) -> u32 {
    let part = &mut st.parts[job as usize][at.index()];
    part.received += 1;
    part.last_recv = now;
    part.received
}
