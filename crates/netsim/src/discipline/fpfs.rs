//! First-Packet-First-Served smart-NI forwarding (paper §3.2).
//!
//! The source NI stages the whole message and queues its copies
//! **packet-major**: all children get packet 0, then all get packet 1, …
//! An intermediate NI forwards each packet to *all* of its children as soon
//! as the packet is received, so at most a couple of packets are ever
//! resident (§3.3.2) — the discipline behind the paper's optimal
//! k-binomial schedules.

use super::{record_receive, release_replicated_copy, ForwardingDiscipline};
use crate::event::{Ev, SendItem};
use crate::simulation::SimState;
use crate::time::SimTime;
use optimcast_core::tree::Rank;

/// The FPFS engine (stateless).
pub(crate) struct Fpfs;

impl ForwardingDiscipline for Fpfs {
    fn kickoff(&self, st: &mut SimState<'_>, job: u32) {
        let jobd = st.job(job);
        let src_host = jobd.binding[0];
        let kids = jobd.tree.root_children();
        for p in 0..jobd.packets {
            for &c in kids {
                st.enqueue_send(
                    src_host,
                    SendItem {
                        job,
                        packet: p,
                        from: Rank::SOURCE,
                        child: c,
                        dest: c,
                        attempt: 0,
                    },
                );
            }
        }
        if !kids.is_empty() {
            st.stage(src_host, jobd.packets);
            st.rank_copies(job, Rank::SOURCE).fill(kids.len() as u32);
        }
        st.queue.schedule(
            SimTime::us(jobd.start_us + st.params.t_s),
            Ev::TrySend(src_host),
        );
    }

    fn on_recv_done(
        &self,
        st: &mut SimState<'_>,
        now: SimTime,
        job: u32,
        at: Rank,
        packet: u32,
        _dest: Rank,
    ) {
        let jobd = st.job(job);
        let kids = jobd.tree.children(at);
        let packets = jobd.packets;
        let v_host = jobd.binding[at.index()];
        let received = record_receive(st, now, job, at);
        if !kids.is_empty() {
            st.rank_copies(job, at)[packet as usize] = kids.len() as u32;
            st.stage(v_host, 1);
            for &c in kids {
                st.enqueue_send(
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
            st.queue.schedule(now, Ev::TrySend(v_host));
        }
        if received == packets {
            st.finish_host(now, job, at);
        }
    }

    fn on_copy_released(&self, st: &mut SimState<'_>, item: SendItem) {
        release_replicated_copy(st, item);
    }
}
