//! First-Child-First-Served smart-NI forwarding (paper §3.1).
//!
//! The source NI queues its copies **child-major**: the first child gets
//! every packet, then the second child, … An intermediate NI forwards each
//! received packet to its first child immediately, but serves its remaining
//! children only once the whole message has arrived — so an FCFS forwarding
//! buffer grows to the full message (§3.3.2), and deep children see the
//! message later than under FPFS.

use super::{record_receive, release_replicated_copy, ForwardingDiscipline};
use crate::event::{Ev, SendItem};
use crate::simulation::SimState;
use crate::time::SimTime;
use optimcast_core::tree::Rank;

/// The FCFS engine (stateless).
pub(crate) struct Fcfs;

impl ForwardingDiscipline for Fcfs {
    fn kickoff(&self, st: &mut SimState<'_>, job: u32) {
        let jobd = st.job(job);
        let src_host = jobd.binding[0];
        let kids = jobd.tree.root_children();
        for &c in kids {
            for p in 0..jobd.packets {
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
            // The first child is served in arrival order; the rest wait for
            // the complete message.
            st.enqueue_send(
                v_host,
                SendItem {
                    job,
                    packet,
                    from: at,
                    child: kids[0],
                    dest: kids[0],
                    attempt: 0,
                },
            );
            if received == packets {
                for &c in &kids[1..] {
                    for p in 0..packets {
                        st.enqueue_send(
                            v_host,
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
                }
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
