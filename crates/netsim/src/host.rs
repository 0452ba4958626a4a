//! The host model: per-host NI send/receive units and forwarding-buffer
//! occupancy.
//!
//! Each physical host owns one NI with `s` independent **send units**
//! ([`NiModel::send_units`]; the paper's NI has `s = 1`) fed by a FIFO of
//! queued [`SendItem`]s, a **receive unit** (serializes arrivals, `t_recv`
//! each), and a **forwarding buffer** whose occupancy high-water mark the
//! paper's §3.3.2 buffer analysis is checked against. All jobs a host
//! participates in share these units — that sharing *is* the node-contention
//! model.
//!
//! Every dispatch is tagged with a monotonically increasing per-host
//! sequence number; occupied units are released by sequence (wire-time
//! releases, retransmission timeouts) or by item identity (handshake
//! completions), so with `s > 1` a completion frees exactly the unit that
//! carried it.
//!
//! Per-host state is one fixed-size record with no heap pointer (pinned at
//! 48 bytes below), so a 65,536-host fabric keeps its NI state in 3 MiB of
//! one array. The variable-length parts live in two slabs the model owns,
//! and a [`crate::SimArena`] keeps both between runs:
//!
//! * **In-flight slots.** A host claims one block of `s` slots from the
//!   in-flight slab at its first dispatch, not when the model is built:
//!   most hosts of a large fabric never send in a given run, so the slab
//!   holds `s` slots per *sending* host, and a small run repeated per
//!   stream epoch or per sample pays no slot storage for every host of the
//!   network. The host record keeps only the block's index and how many of
//!   its slots are occupied, oldest dispatch first.
//! * **Send queues.** The send queues of all hosts share one slab of queued
//!   items, each queue a FIFO chain through it with freed slots reused. Its
//!   size is the most items queued at once across the network, so a model
//!   reused across runs (see [`HostModel::reset`]) holds no per-host queue
//!   capacity for every host that ever sent.

use crate::arq::NiModel;
use crate::event::SendItem;
use crate::time::SimTime;
use optimcast_core::tree::Rank;
use optimcast_topology::graph::HostId;

/// End of a send-queue chain.
const NIL: u32 = u32::MAX;

/// One host's NI state.
#[derive(Debug, Clone, Copy)]
struct HostState {
    /// Oldest and newest queued item in [`HostModel::queued`], `NIL` when
    /// the queue is empty.
    head: u32,
    tail: u32,
    /// Items queued (not yet dispatched).
    queue_len: u32,
    /// Index of the host's block of slots in [`HostModel::in_flight`] (one
    /// per sending host, so it fits a `u32` as `HostId` does), `NIL` until
    /// its first dispatch claims one.
    block: u32,
    /// Occupied slots of the block: the first `busy` hold `(seq, item)` in
    /// dispatch order. At most the NI's `send_units`.
    busy: u32,
    resident: u32,
    max_resident: u32,
    /// Dispatch counter; each dispatch takes the next sequence number.
    /// Retransmission timeouts are armed against a dispatch's sequence so a
    /// stale timeout cannot release a newer transmission.
    next_seq: u64,
    recv_free: SimTime,
}

// The host table is the simulator's largest per-host array: keep each
// record within 48 bytes and free of heap pointers.
const _: () = assert!(std::mem::size_of::<HostState>() <= 48);

/// A queued transmission and the next item of its host's queue (or of the
/// free list once the slot is vacated).
#[derive(Debug, Clone, Copy)]
struct Queued {
    item: SendItem,
    next: u32,
}

/// Send/receive-unit occupancy and buffer accounting for every host.
#[derive(Debug, Default)]
pub(crate) struct HostModel {
    hosts: Vec<HostState>,
    /// Every sending host's block of `units` in-flight slots, in the order
    /// the hosts first dispatched; see the module docs.
    in_flight: Vec<(u64, SendItem)>,
    /// Every host's queued items; see the module docs.
    queued: Vec<Queued>,
    /// Head of the vacated-slot list in `queued`.
    free: u32,
    units: usize,
}

impl HostState {
    const IDLE: HostState = HostState {
        head: NIL,
        tail: NIL,
        queue_len: 0,
        block: NIL,
        busy: 0,
        resident: 0,
        max_resident: 0,
        next_seq: 0,
        recv_free: SimTime::ZERO,
    };
}

/// Asks the CPU to pull the cache line holding `*p` toward L1 ahead of
/// use. A hint only: it changes no state the program can see, and on
/// targets other than x86_64 it does nothing.
#[inline(always)]
pub(crate) fn prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` performs no architectural load or store and
    // cannot fault, whatever the address; `p` is a live reference besides.
    // SSE, which the intrinsic needs, is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(p).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Filler of a freshly claimed block's slots, overwritten at dispatch.
const VACANT: (u64, SendItem) = (
    0,
    SendItem {
        job: 0,
        packet: 0,
        from: Rank::SOURCE,
        child: Rank::SOURCE,
        dest: Rank::SOURCE,
        attempt: 0,
    },
);

impl HostModel {
    #[cfg(test)]
    pub(crate) fn new(n_hosts: usize, ni: NiModel) -> Self {
        let mut model = HostModel::default();
        model.reset(n_hosts, ni);
        model
    }

    /// Returns every host to its idle state for a new run over `n_hosts`
    /// hosts, keeping the storage: the host table, the queue slab and the
    /// in-flight slab, whose blocks the new run's senders claim afresh.
    pub(crate) fn reset(&mut self, n_hosts: usize, ni: NiModel) {
        self.units = ni.send_units as usize;
        self.hosts.clear();
        self.hosts.resize(n_hosts, HostState::IDLE);
        self.in_flight.clear();
        self.queued.clear();
        self.free = NIL;
    }

    /// Prefetches the host's record.
    pub(crate) fn prefetch_host(&self, h: HostId) {
        if let Some(hs) = self.hosts.get(h.index()) {
            prefetch(hs);
        }
    }

    /// Prefetches what a dispatch from the host reads past its record: the
    /// head of its send queue and its block of in-flight slots. Reads the
    /// record to find them, so it pays once [`Self::prefetch_host`] has
    /// brought the record in.
    pub(crate) fn prefetch_dispatch(&self, h: HostId) {
        let hs = &self.hosts[h.index()];
        if let Some(q) = self.queued.get(hs.head as usize) {
            prefetch(q);
        }
        if hs.block != NIL {
            if let Some(slot) = self.in_flight.get(hs.block as usize * self.units) {
                prefetch(slot);
            }
        }
    }

    /// Appends a transmission to the host's send queue; returns the queue
    /// depth after the push (for queue-depth observation).
    pub(crate) fn enqueue(&mut self, h: HostId, item: SendItem) -> usize {
        let node = Queued { item, next: NIL };
        let slot = if self.free == NIL {
            self.queued.push(node);
            (self.queued.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.queued[slot as usize].next;
            self.queued[slot as usize] = node;
            slot
        };
        let hs = &mut self.hosts[h.index()];
        if hs.tail == NIL {
            hs.head = slot;
        } else {
            self.queued[hs.tail as usize].next = slot;
        }
        hs.tail = slot;
        hs.queue_len += 1;
        hs.queue_len as usize
    }

    /// Removes and returns the host's oldest queued item.
    fn pop_front(&mut self, h: HostId) -> Option<SendItem> {
        let hs = &mut self.hosts[h.index()];
        let slot = hs.head;
        if slot == NIL {
            return None;
        }
        let Queued { item, next } = self.queued[slot as usize];
        hs.head = next;
        if next == NIL {
            hs.tail = NIL;
        }
        hs.queue_len -= 1;
        self.queued[slot as usize].next = self.free;
        self.free = slot;
        Some(item)
    }

    /// Claims a free send unit for the next queued item, if one is free and
    /// work is pending. A host's first dispatch claims its block of slots.
    pub(crate) fn try_dispatch(&mut self, h: HostId) -> Option<SendItem> {
        if self.hosts[h.index()].busy as usize >= self.units {
            return None;
        }
        let item = self.pop_front(h)?;
        let hs = &mut self.hosts[h.index()];
        if hs.block == NIL {
            hs.block = (self.in_flight.len() / self.units) as u32;
            self.in_flight
                .resize(self.in_flight.len() + self.units, VACANT);
        }
        hs.next_seq += 1;
        let slot = hs.block as usize * self.units + hs.busy as usize;
        self.in_flight[slot] = (hs.next_seq, item);
        hs.busy += 1;
        Some(item)
    }

    /// The host's occupied in-flight slots, oldest dispatch first.
    fn slots(&self, h: HostId) -> &[(u64, SendItem)] {
        let hs = &self.hosts[h.index()];
        if hs.busy == 0 {
            return &[];
        }
        let start = hs.block as usize * self.units;
        &self.in_flight[start..start + hs.busy as usize]
    }

    /// Frees the host's `at`-th occupied slot, keeping the rest in dispatch
    /// order, and returns the transmission it carried.
    fn free_slot(&mut self, h: HostId, at: usize) -> SendItem {
        let hs = &mut self.hosts[h.index()];
        let start = hs.block as usize * self.units;
        let end = start + hs.busy as usize;
        let item = self.in_flight[start + at].1;
        self.in_flight.copy_within(start + at + 1..end, start + at);
        hs.busy -= 1;
        item
    }

    /// Sequence number of the oldest in-flight send (`None` if every unit is
    /// free). With a single send unit this is *the* in-flight send.
    pub(crate) fn in_flight_seq(&self, h: HostId) -> Option<u64> {
        self.slots(h).first().map(|&(seq, _)| seq)
    }

    /// Sequence number of the newest in-flight send — the one `try_dispatch`
    /// just claimed a unit for.
    ///
    /// # Panics
    ///
    /// Panics if no send is in flight — an engine sequencing bug.
    pub(crate) fn last_dispatched_seq(&self, h: HostId) -> u64 {
        self.slots(h)
            .last()
            .map(|&(seq, _)| seq)
            .expect("last_dispatched_seq without in-flight send")
    }

    /// True while the dispatch tagged `seq` still occupies a send unit.
    #[cfg(test)]
    pub(crate) fn has_seq(&self, h: HostId, seq: u64) -> bool {
        self.slots(h).iter().any(|&(s, _)| s == seq)
    }

    /// Number of queued (not yet dispatched) transmissions.
    pub(crate) fn queue_len(&self, h: HostId) -> usize {
        self.hosts[h.index()].queue_len as usize
    }

    /// True when the host has no queued transmissions.
    pub(crate) fn send_queue_is_empty(&self, h: HostId) -> bool {
        self.hosts[h.index()].queue_len == 0
    }

    /// Removes and returns the host's next queued transmission, bypassing
    /// the send units. Lets a crashed host's queue be discarded item by item
    /// with no scratch allocation (the caller accounts for each).
    pub(crate) fn pop_queued(&mut self, h: HostId) -> Option<SendItem> {
        self.pop_front(h)
    }

    /// Frees the oldest occupied send unit, returning the transmission it
    /// carried. Stop-and-wait paths (one unit, one outstanding send) use
    /// this; multi-unit paths release by sequence or by item instead.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in flight — an engine sequencing bug.
    pub(crate) fn release_send_unit(&mut self, h: HostId) -> SendItem {
        if self.hosts[h.index()].busy == 0 {
            panic!("release without in-flight send");
        }
        self.free_slot(h, 0)
    }

    /// Frees the unit carrying the dispatch tagged `seq`, returning its
    /// transmission (`None` if that dispatch already completed).
    pub(crate) fn release_by_seq(&mut self, h: HostId, seq: u64) -> Option<SendItem> {
        let at = self.slots(h).iter().position(|&(s, _)| s == seq)?;
        Some(self.free_slot(h, at))
    }

    /// Frees the oldest unit carrying exactly `item` (handshake completion:
    /// the receiver names the transmission it acknowledges).
    ///
    /// # Panics
    ///
    /// Panics if no unit carries `item` — an engine sequencing bug.
    pub(crate) fn release_matching(&mut self, h: HostId, item: &SendItem) {
        let at = self
            .slots(h)
            .iter()
            .position(|(_, i)| i == item)
            .expect("release without in-flight send");
        self.free_slot(h, at);
    }

    /// Serializes an arrival on the receive unit: the receive completes
    /// `t_recv` after the unit frees (or after `now`, whichever is later).
    /// Returns `(completion, wait)` where `wait` is the time the packet
    /// spent queued behind earlier receives.
    pub(crate) fn occupy_recv_unit(
        &mut self,
        h: HostId,
        now: SimTime,
        t_recv: f64,
    ) -> (SimTime, f64) {
        let hs = &mut self.hosts[h.index()];
        let start = hs.recv_free.max(now);
        let done = start + t_recv;
        hs.recv_free = done;
        (done, start - now)
    }

    /// Stages `n` packets in the host's forwarding buffer; returns the new
    /// occupancy (for histogram observation).
    pub(crate) fn stage(&mut self, h: HostId, n: u32) -> u32 {
        let hs = &mut self.hosts[h.index()];
        hs.resident += n;
        hs.max_resident = hs.max_resident.max(hs.resident);
        hs.resident
    }

    /// Releases one buffered packet (saturating — the conventional NI never
    /// stages, so its releases are no-ops).
    pub(crate) fn unstage(&mut self, h: HostId) {
        let hs = &mut self.hosts[h.index()];
        if hs.resident > 0 {
            hs.resident -= 1;
        }
    }

    /// Packets currently resident in the host's forwarding buffer.
    pub(crate) fn resident(&self, h: HostId) -> u32 {
        self.hosts[h.index()].resident
    }

    /// The host's buffer high-water mark.
    pub(crate) fn max_resident(&self, h: HostId) -> u32 {
        self.hosts[h.index()].max_resident
    }

    /// Buffer high-water marks for every host, in host order, written over
    /// `out`.
    pub(crate) fn all_max_resident_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.hosts.iter().map(|h| h.max_resident));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(packet: u32) -> SendItem {
        SendItem {
            job: 0,
            packet,
            from: Rank::SOURCE,
            child: Rank(1),
            dest: Rank(1),
            attempt: 0,
        }
    }

    fn one_unit(n_hosts: usize) -> HostModel {
        HostModel::new(n_hosts, NiModel::default())
    }

    #[test]
    fn send_unit_is_exclusive_and_fifo() {
        let mut hm = one_unit(2);
        let h = HostId(0);
        assert_eq!(hm.enqueue(h, item(0)), 1);
        assert_eq!(hm.enqueue(h, item(1)), 2);
        let first = hm.try_dispatch(h).unwrap();
        assert_eq!(first.packet, 0);
        // Busy: no second dispatch until release.
        assert!(hm.try_dispatch(h).is_none());
        assert_eq!(hm.release_send_unit(h).packet, 0);
        assert_eq!(hm.try_dispatch(h).unwrap().packet, 1);
    }

    #[test]
    fn multi_unit_dispatches_up_to_s_sends() {
        let ni = NiModel {
            send_units: 2,
            queue_capacity: None,
        };
        let mut hm = HostModel::new(1, ni);
        let h = HostId(0);
        for p in 0..3 {
            hm.enqueue(h, item(p));
        }
        assert_eq!(hm.queue_len(h), 3);
        assert_eq!(hm.try_dispatch(h).unwrap().packet, 0);
        assert_eq!(hm.try_dispatch(h).unwrap().packet, 1);
        // Both units busy.
        assert!(hm.try_dispatch(h).is_none());
        assert_eq!(hm.queue_len(h), 1);
        // Out-of-order completion: the second dispatch's handshake lands
        // first and frees exactly the unit that carried packet 1.
        hm.release_matching(h, &item(1));
        assert_eq!(hm.in_flight_seq(h), Some(1));
        assert_eq!(hm.try_dispatch(h).unwrap().packet, 2);
    }

    #[test]
    fn release_by_seq_frees_the_named_dispatch() {
        let ni = NiModel {
            send_units: 2,
            queue_capacity: None,
        };
        let mut hm = HostModel::new(1, ni);
        let h = HostId(0);
        hm.enqueue(h, item(0));
        hm.enqueue(h, item(1));
        hm.try_dispatch(h).unwrap();
        let seq1 = hm.last_dispatched_seq(h);
        hm.try_dispatch(h).unwrap();
        let seq2 = hm.last_dispatched_seq(h);
        assert_eq!((seq1, seq2), (1, 2));
        assert!(hm.has_seq(h, seq1) && hm.has_seq(h, seq2));
        assert_eq!(hm.release_by_seq(h, seq1).unwrap().packet, 0);
        assert!(!hm.has_seq(h, seq1));
        // Releasing the same dispatch twice is a stale no-op.
        assert!(hm.release_by_seq(h, seq1).is_none());
        assert_eq!(hm.release_by_seq(h, seq2).unwrap().packet, 1);
    }

    #[test]
    fn recv_unit_serializes() {
        let mut hm = one_unit(1);
        let h = HostId(0);
        let (done1, wait1) = hm.occupy_recv_unit(h, SimTime::us(10.0), 2.5);
        assert_eq!(done1, SimTime::us(12.5));
        assert_eq!(wait1, 0.0);
        // Second arrival at t=11 queues behind the first.
        let (done2, wait2) = hm.occupy_recv_unit(h, SimTime::us(11.0), 2.5);
        assert_eq!(done2, SimTime::us(15.0));
        assert!((wait2 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn buffer_tracks_high_water() {
        let mut hm = one_unit(1);
        let h = HostId(0);
        assert_eq!(hm.stage(h, 3), 3);
        hm.unstage(h);
        assert_eq!(hm.stage(h, 1), 3);
        assert_eq!(hm.max_resident(h), 3);
        let mut all = vec![7, 7];
        hm.all_max_resident_into(&mut all);
        assert_eq!(all, vec![3]);
        // Saturating release.
        for _ in 0..5 {
            hm.unstage(h);
        }
        assert_eq!(hm.stage(h, 1), 1);
    }

    #[test]
    fn dispatch_sequence_tracks_in_flight_sends() {
        let mut hm = one_unit(1);
        let h = HostId(0);
        assert_eq!(hm.in_flight_seq(h), None);
        hm.enqueue(h, item(0));
        hm.enqueue(h, item(1));
        hm.try_dispatch(h).unwrap();
        assert_eq!(hm.in_flight_seq(h), Some(1));
        assert_eq!(hm.last_dispatched_seq(h), 1);
        hm.release_send_unit(h);
        assert_eq!(hm.in_flight_seq(h), None);
        hm.try_dispatch(h).unwrap();
        assert_eq!(hm.in_flight_seq(h), Some(2));
    }

    #[test]
    fn pop_queued_discards_queued_sends_in_order() {
        let mut hm = one_unit(1);
        let h = HostId(0);
        assert!(hm.send_queue_is_empty(h));
        hm.enqueue(h, item(0));
        hm.enqueue(h, item(1));
        assert!(!hm.send_queue_is_empty(h));
        assert_eq!(hm.pop_queued(h).unwrap().packet, 0);
        assert_eq!(hm.pop_queued(h).unwrap().packet, 1);
        assert!(hm.pop_queued(h).is_none());
        assert!(hm.send_queue_is_empty(h));
        assert!(hm.try_dispatch(h).is_none());
    }

    /// A first dispatch claims one block of `s` slots, an idle host claims
    /// none, later dispatches reuse the block, and a reset keeps the slab's
    /// storage while every host's block is claimed afresh.
    #[test]
    fn in_flight_blocks_are_claimed_at_first_dispatch() {
        let ni = NiModel {
            send_units: 3,
            queue_capacity: None,
        };
        let mut hm = HostModel::new(3, ni);
        let (idle, a, b) = (HostId(0), HostId(1), HostId(2));
        for p in 0..4 {
            hm.enqueue(a, item(p));
        }
        hm.enqueue(b, item(9));
        assert!(hm.in_flight.is_empty(), "queueing claims no slots");
        hm.try_dispatch(a).unwrap();
        assert_eq!(hm.in_flight.len(), 3, "one block of s slots");
        hm.try_dispatch(b).unwrap();
        hm.try_dispatch(a).unwrap();
        hm.try_dispatch(a).unwrap();
        assert!(hm.try_dispatch(a).is_none(), "all s units busy");
        assert_eq!(hm.in_flight.len(), 6, "one block per sending host");
        assert_eq!(hm.hosts[idle.index()].block, NIL);
        assert_eq!(
            (hm.hosts[a.index()].block, hm.hosts[b.index()].block),
            (0, 1)
        );
        // A release in the middle keeps the others in dispatch order.
        hm.release_matching(a, &item(1));
        let packets: Vec<u32> = hm.slots(a).iter().map(|(_, i)| i.packet).collect();
        assert_eq!(packets, vec![0, 2]);
        assert_eq!(hm.try_dispatch(a).unwrap().packet, 3);
        assert_eq!(
            hm.in_flight.len(),
            6,
            "a sender's later dispatches reuse its block"
        );
        assert_eq!(hm.slots(b), &[(1, item(9))]);

        hm.reset(3, ni);
        assert!(hm.in_flight.is_empty());
        assert!(hm.in_flight.capacity() >= 6, "the slab survives a reset");
        assert!(hm.hosts.iter().all(|h| h.block == NIL && h.busy == 0));
        hm.enqueue(b, item(0));
        hm.try_dispatch(b).unwrap();
        assert_eq!(hm.hosts[b.index()].block, 0, "blocks are claimed afresh");
    }

    /// Queues of different hosts interleave in the shared slab without
    /// mixing, freed slots are reused, and a reset returns every host to
    /// idle while keeping the slab.
    #[test]
    fn shared_slab_keeps_per_host_fifo_and_reset_keeps_storage() {
        let mut hm = one_unit(3);
        let (a, b) = (HostId(0), HostId(2));
        hm.enqueue(a, item(0));
        hm.enqueue(b, item(10));
        hm.enqueue(a, item(1));
        assert_eq!(hm.pop_queued(a).unwrap().packet, 0);
        assert_eq!(hm.enqueue(b, item(11)), 2);
        assert_eq!(hm.queued.len(), 3, "the vacated slot is reused");
        assert_eq!(hm.try_dispatch(b).unwrap().packet, 10);
        assert_eq!(hm.pop_queued(b).unwrap().packet, 11);
        assert_eq!(hm.pop_queued(a).unwrap().packet, 1);
        assert!(hm.pop_queued(a).is_none() && hm.send_queue_is_empty(b));
        hm.stage(a, 2);

        hm.reset(2, NiModel::default());
        assert_eq!(hm.hosts.len(), 2);
        assert_eq!(hm.queued.capacity(), 4, "slab storage survives a reset");
        assert!(hm.queued.is_empty());
        assert_eq!((hm.resident(a), hm.max_resident(a)), (0, 0));
        assert_eq!(hm.in_flight_seq(a), None);
        hm.enqueue(a, item(5));
        assert_eq!(hm.try_dispatch(a).unwrap().packet, 5);
        assert_eq!(hm.last_dispatched_seq(a), 1, "sequence numbers restart");
    }

    #[test]
    #[should_panic(expected = "release without in-flight send")]
    fn release_without_dispatch_is_a_bug() {
        let mut hm = one_unit(1);
        hm.release_send_unit(HostId(0));
    }
}
