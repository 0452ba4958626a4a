//! Smart-NI replicated forwarding: FPFS (paper §3.2) and FCFS (§3.1) as one
//! routine. The two disciplines differ only in service order, exactly as in
//! `optimcast_core::schedule::build_schedule`:
//!
//! * **FPFS** serves packet-major: the source queues packet 0 to every
//!   child, then packet 1, …, and an intermediate NI forwards each packet
//!   to *all* of its children as soon as it lands, so at most a couple of
//!   packets are ever resident (§3.3.2) — the discipline behind the paper's
//!   optimal k-binomial schedules.
//! * **FCFS** serves child-major: the source gives the first child every
//!   packet, then the second child, …, and an intermediate NI forwards each
//!   packet to its first child immediately but serves the remaining
//!   children only once the whole message has arrived — so its forwarding
//!   buffer grows to the full message and deep children see the message
//!   later.

use super::record_receive;
use crate::event::{Ev, SendItem};
use crate::simulation::SimState;
use crate::time::SimTime;
use optimcast_core::schedule::ForwardingDiscipline as Order;
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_topology::graph::HostId;

/// Queues one copy of `packet` from `from` (bound to host `h`) to `child`.
fn enqueue_copy(st: &mut SimState<'_>, h: HostId, job: u32, packet: u32, from: Rank, child: Rank) {
    st.enqueue_send(
        h,
        SendItem {
            job,
            packet,
            from,
            child,
            dest: child,
            attempt: 0,
        },
    );
}

/// Stages the whole message at the source NI, queues one copy per
/// `(packet, root child)` of `tree` in `order`'s service order, and
/// schedules the source's first dispatch at `ready` (the end of its `t_s`
/// staging). Both the job's kickoff and a repair epoch's re-issue start
/// here.
pub(crate) fn stage_source(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    order: Order,
    job: u32,
    ready: SimTime,
) {
    let jobd = st.job(job);
    let src_host = jobd.binding[0];
    let kids = tree.root_children();
    match order {
        Order::Fpfs => {
            for p in 0..jobd.packets {
                for &c in kids {
                    enqueue_copy(st, src_host, job, p, Rank::SOURCE, c);
                }
            }
        }
        Order::Fcfs => {
            for &c in kids {
                for p in 0..jobd.packets {
                    enqueue_copy(st, src_host, job, p, Rank::SOURCE, c);
                }
            }
        }
    }
    if !kids.is_empty() {
        st.stage(src_host, jobd.packets);
        st.rank_copies(job, Rank::SOURCE).fill(kids.len() as u16);
    }
    st.queue.schedule(ready, Ev::TrySend(src_host));
}

/// `item` finished arriving at `item.child`: buffer it until every child's
/// copy is out, queue the copies `order` serves now, and complete the host
/// once the whole message is in.
pub(crate) fn on_recv_done(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    order: Order,
    now: SimTime,
    item: SendItem,
) {
    let (job, at, packet) = (item.job, item.child, item.packet);
    let jobd = st.job(job);
    let kids = tree.children(at);
    let packets = jobd.packets;
    let v_host = jobd.binding[at.index()];
    let received = record_receive(st, now, job, at);
    if !kids.is_empty() {
        st.rank_copies(job, at)[packet as usize] = kids.len() as u16;
        st.stage(v_host, 1);
        match order {
            Order::Fpfs => {
                for &c in kids {
                    enqueue_copy(st, v_host, job, packet, at, c);
                }
            }
            Order::Fcfs => {
                enqueue_copy(st, v_host, job, packet, at, kids[0]);
                if received == packets {
                    for &c in &kids[1..] {
                        for p in 0..packets {
                            enqueue_copy(st, v_host, job, p, at, c);
                        }
                    }
                }
            }
        }
        st.queue.schedule(now, Ev::TrySend(v_host));
    }
    if received == packets {
        st.finish_host(now, job, at);
    }
}
