//! Smart-NI personalized (scatter) forwarding.
//!
//! Every non-source rank receives its *own* packets: intermediate NIs relay
//! each packet one hop toward its destination's subtree instead of
//! replicating it. The whole payload is staged at the source NI; a relay
//! occupies one forwarding-buffer slot from receive until its onward copy
//! has left. The source injection order ([`PersonalizedOrder`]) is the
//! policy under study in `optimcast-collectives::scatter`; intermediate
//! nodes always forward in arrival order, as a real NI would.

use super::record_receive;
use crate::event::{Ev, SendItem};
use crate::simulation::SimState;
use crate::time::SimTime;
use crate::workload::PersonalizedOrder;
use optimcast_core::tree::{MulticastTree, Rank};

/// Stages the whole personalized payload at the source NI, queues it in
/// `order`, and schedules the source's first dispatch at `ready`.
pub(crate) fn kickoff(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    order: PersonalizedOrder,
    job: u32,
    ready: SimTime,
) {
    let jobd = st.job(job);
    let src_host = jobd.binding[0];
    let items = source_order(tree, jobd.packets, order);
    let staged = items.len() as u32;
    for (dest, p) in items {
        let child = first_hop(tree, dest);
        st.enqueue_send(
            src_host,
            SendItem {
                job,
                packet: p,
                from: Rank::SOURCE,
                child,
                dest,
                attempt: 0,
            },
        );
    }
    // The whole personalized payload is staged at the source NI.
    if staged > 0 {
        st.stage(src_host, staged);
    }
    st.queue.schedule(ready, Ev::TrySend(src_host));
}

/// A packet landed: count it if it is ours, else relay it one hop toward
/// its destination.
pub(crate) fn on_recv_done(
    st: &mut SimState<'_>,
    tree: &MulticastTree,
    now: SimTime,
    item: SendItem,
) {
    let (job, at) = (item.job, item.child);
    let jobd = st.job(job);
    if item.dest == at {
        if record_receive(st, now, job, at) == jobd.packets {
            st.finish_host(now, job, at);
        }
    } else {
        let next = next_hop_rank(tree, at, item.dest);
        let v_host = jobd.binding[at.index()];
        st.stage(v_host, 1);
        st.enqueue_send(
            v_host,
            SendItem {
                from: at,
                child: next,
                attempt: 0,
                ..item
            },
        );
        st.queue.schedule(now, Ev::TrySend(v_host));
    }
}

/// The source-order of a personalized payload: per root-child blocks (in
/// child order), each block ordered by the policy.
pub(crate) fn source_order(
    tree: &MulticastTree,
    m: u32,
    order: PersonalizedOrder,
) -> Vec<(Rank, u32)> {
    let depths = tree.depths();
    let mut items = Vec::new();
    for &c in tree.root_children() {
        for d in order.subtree_order(tree, &depths, c) {
            items.extend((0..m).map(|p| (d, p)));
        }
    }
    items
}

/// The root child whose subtree contains `dest`.
fn first_hop(tree: &MulticastTree, dest: Rank) -> Rank {
    next_hop_rank(tree, Rank::SOURCE, dest)
}

/// The child of `at` on the tree path towards `dest`.
///
/// # Panics
///
/// Panics if `dest` is not in `at`'s strict subtree — an engine routing bug,
/// impossible for destinations drawn from the validated tree.
fn next_hop_rank(tree: &MulticastTree, at: Rank, dest: Rank) -> Rank {
    let mut cur = dest;
    loop {
        let parent = tree
            .parent(cur)
            .unwrap_or_else(|| panic!("{dest} is not below {at}"));
        if parent == at {
            return cur;
        }
        cur = parent;
    }
}
