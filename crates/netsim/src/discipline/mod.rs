//! NI forwarding engines.
//!
//! The simulator core ([`crate::simulation`]) owns time, channels,
//! send/receive units, and observers, and delegates every *policy*
//! decision — what the source stages, what an NI does with a received
//! packet, when a buffered copy is freed — to the job's [`Engine`]:
//!
//! * [`Engine::Fpfs`] / [`Engine::Fcfs`] — smart-NI replication, first
//!   packet / first child first served (paper §3.2 / §3.1): one routine
//!   ([`replicated`]) whose service order is the only branch;
//! * [`Engine::Conventional`] — host-forwarded replication (§2.3);
//! * [`Engine::Scatter`] — smart-NI personalized (scatter) relay.
//!
//! Engines are plain values: all mutable simulation state lives in
//! [`SimState`], and every call is handed the tree the job currently
//! forwards over (its own tree, or the repaired tree once a repair epoch
//! has swapped it in). The core holds that tree beside the engine, outside
//! the state, so both can be borrowed while the state is mutated.

pub(crate) mod conventional;
pub(crate) mod replicated;
pub(crate) mod scatter;

use crate::event::SendItem;
use crate::sim::NicKind;
use crate::simulation::SimState;
use crate::time::SimTime;
use crate::workload::{JobPayload, MulticastJob, PersonalizedOrder};
use optimcast_core::schedule::ForwardingDiscipline as Order;
use optimcast_core::tree::{MulticastTree, Rank};

/// One job's forwarding policy. Conventional-only events (`HostReady`,
/// `SendPrepared`, the sender acknowledgement) go straight to
/// [`conventional`]; the core dispatches everything else here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    Fpfs,
    Fcfs,
    Conventional,
    Scatter { order: PersonalizedOrder },
}

impl Engine {
    /// The engine for a job's `(NicKind, JobPayload)`.
    pub(crate) fn for_job(job: &MulticastJob) -> Engine {
        match (job.nic, job.payload) {
            (NicKind::Smart(Order::Fpfs), JobPayload::Replicated) => Engine::Fpfs,
            (NicKind::Smart(Order::Fcfs), JobPayload::Replicated) => Engine::Fcfs,
            (NicKind::Smart(_), JobPayload::Personalized { order }) => Engine::Scatter { order },
            (NicKind::Conventional, JobPayload::Replicated) => Engine::Conventional,
            (NicKind::Conventional, JobPayload::Personalized { .. }) => {
                unreachable!("validate() rejects personalized payloads on conventional NIs")
            }
        }
    }

    /// Stages the job's initial work at its source and schedules the first
    /// event(s).
    pub(crate) fn kickoff(self, st: &mut SimState<'_>, tree: &MulticastTree, job: u32) {
        let ready = SimTime::us(st.job(job).start_us + st.params.t_s);
        match self {
            Engine::Fpfs => replicated::stage_source(st, tree, Order::Fpfs, job, ready),
            Engine::Fcfs => replicated::stage_source(st, tree, Order::Fcfs, job, ready),
            Engine::Conventional => conventional::kickoff(st, job),
            Engine::Scatter { order } => scatter::kickoff(st, tree, order, job, ready),
        }
    }

    /// A packet for this job finished arriving at `item.child`'s NI.
    ///
    /// Called after the core has released the sender's unit (handshake
    /// timing), delivered the sender acknowledgement, and notified
    /// observers of the receive.
    pub(crate) fn on_recv_done(
        self,
        st: &mut SimState<'_>,
        tree: &MulticastTree,
        now: SimTime,
        item: SendItem,
    ) {
        match self {
            Engine::Fpfs => replicated::on_recv_done(st, tree, Order::Fpfs, now, item),
            Engine::Fcfs => replicated::on_recv_done(st, tree, Order::Fcfs, now, item),
            Engine::Conventional => conventional::on_recv_done(st, tree, now, item),
            Engine::Scatter { .. } => scatter::on_recv_done(st, tree, now, item),
        }
    }

    /// The send unit finished transmitting `item`: apply the engine's
    /// buffer-release policy.
    pub(crate) fn on_copy_released(self, st: &mut SimState<'_>, item: SendItem) {
        match self {
            Engine::Fpfs | Engine::Fcfs => release_replicated_copy(st, item),
            // A relayed packet frees its buffer slot as soon as its onward
            // copy is out (exactly one copy per packet — no replication).
            Engine::Scatter { .. } => {
                let h = st.host_of(item.job, item.from);
                st.unstage(h);
            }
            // The conventional NI never stages packets in a forwarding
            // buffer (the host owns the message).
            Engine::Conventional => {}
        }
    }
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
