//! Conventional-NI forwarding (paper §2.3): the host processor replicates.
//!
//! The NI does not forward. A participant's *host* receives the complete
//! message (`t_r`), then prepares a copy for each child in turn — `t_s` of
//! host time per child — handing the NI one child's packets at a time. The
//! per-child `t_s`/`t_r` involvement is exactly why the paper's smart NI
//! wins; this engine reproduces the cost model the analytic
//! `conventional_latency_us` predicts. Only conventional jobs produce
//! `HostReady` and `SendPrepared` events and act on the sender
//! acknowledgement, so the core calls those handlers directly.

use super::record_receive;
use crate::event::{Ev, SendItem};
use crate::simulation::SimState;
use crate::time::SimTime;
use optimcast_core::tree::{MulticastTree, Rank};

/// The source host starts preparing its first child's message at the
/// job's start time; `HostReady` applies the `t_s` staging cost.
pub(crate) fn kickoff(st: &mut SimState<'_>, job: u32) {
    let start = st.job(job).start_us;
    st.queue.schedule(
        SimTime::us(start),
        Ev::HostReady {
            job,
            at: Rank::SOURCE,
        },
    );
}

/// A packet landed: once the whole message is in, the host completes and
/// (if it has children) starts preparing their messages.
pub(crate) fn on_recv_done(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    now: SimTime,
    item: SendItem,
) {
    let (job, at) = (item.job, item.child);
    let received = record_receive(st, now, job, at);
    if received == st.job(job).packets {
        let done = st.finish_host(now, job, at);
        if !tree.children(at).is_empty() {
            st.queue.schedule(done, Ev::HostReady { job, at });
        }
    }
}

/// The handshake of one of our packets completed: count down the
/// in-progress child message and, when it is fully delivered, start
/// preparing the next child (another `t_s` of host time).
pub(crate) fn sender_ack(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    now: SimTime,
    job: u32,
    at: Rank,
) {
    let kids_len = tree.children(at).len();
    let up = &mut st.parts[job as usize][at.index()];
    debug_assert!(up.conv_pending > 0, "ack without pending child message");
    up.conv_pending -= 1;
    if up.conv_pending == 0 && up.conv_child as usize + 1 < kids_len {
        up.conv_child += 1;
        let idx = up.conv_child as usize;
        st.queue.schedule(
            now + st.params.t_s,
            Ev::SendPrepared {
                job,
                at,
                child_idx: idx,
            },
        );
    }
}

/// The host processor became ready to prepare child messages.
pub(crate) fn on_host_ready(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    now: SimTime,
    job: u32,
    at: Rank,
) {
    if tree.children(at).is_empty() {
        return;
    }
    st.parts[job as usize][at.index()].conv_child = 0;
    st.queue.schedule(
        now + st.params.t_s,
        Ev::SendPrepared {
            job,
            at,
            child_idx: 0,
        },
    );
}

/// The host finished staging child `child_idx`'s message: hand its packets
/// to the NI.
pub(crate) fn on_send_prepared(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    now: SimTime,
    job: u32,
    at: Rank,
    child_idx: usize,
) {
    let jobd = st.job(job);
    let c = tree.children(at)[child_idx];
    let h = jobd.binding[at.index()];
    for p in 0..jobd.packets {
        st.enqueue_send(
            h,
            SendItem {
                job,
                packet: p,
                from: at,
                child: c,
                dest: c,
                attempt: 0,
            },
        );
    }
    st.parts[job as usize][at.index()].conv_pending = jobd.packets;
    st.queue.schedule(now, Ev::TrySend(h));
}
