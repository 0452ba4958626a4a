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
//! A host's in-flight slots are reserved at its first dispatch, not when
//! the model is built: most hosts of a large fabric never send in a given
//! run, and a small run repeated per stream epoch or per sample should not pay a
//! slot allocation for every host of the network.

use crate::arq::NiModel;
use crate::event::SendItem;
use crate::time::SimTime;
use optimcast_topology::graph::HostId;
use std::collections::VecDeque;

/// One host's NI state.
#[derive(Debug)]
struct HostState {
    send_queue: VecDeque<SendItem>,
    /// Occupied send units: `(seq, item)` in dispatch order. Length is
    /// bounded by the NI's `send_units`; exactly that many slots are
    /// reserved at the host's first dispatch.
    in_flight: Vec<(u64, SendItem)>,
    /// Dispatch counter; each dispatch takes the next sequence number.
    /// Retransmission timeouts are armed against a dispatch's sequence so a
    /// stale timeout cannot release a newer transmission.
    next_seq: u64,
    recv_free: SimTime,
    resident: u32,
    max_resident: u32,
}

/// Send/receive-unit occupancy and buffer accounting for every host.
#[derive(Debug)]
pub(crate) struct HostModel {
    hosts: Vec<HostState>,
    units: usize,
}

impl HostModel {
    pub fn new(n_hosts: usize, ni: NiModel) -> Self {
        let units = ni.send_units as usize;
        HostModel {
            hosts: (0..n_hosts)
                .map(|_| HostState {
                    send_queue: VecDeque::new(),
                    in_flight: Vec::new(),
                    next_seq: 0,
                    recv_free: SimTime::ZERO,
                    resident: 0,
                    max_resident: 0,
                })
                .collect(),
            units,
        }
    }

    /// Appends a transmission to the host's send queue; returns the queue
    /// depth after the push (for queue-depth observation).
    pub fn enqueue(&mut self, h: HostId, item: SendItem) -> usize {
        let q = &mut self.hosts[h.index()].send_queue;
        q.push_back(item);
        q.len()
    }

    /// Claims a free send unit for the next queued item, if one is free and
    /// work is pending.
    pub fn try_dispatch(&mut self, h: HostId) -> Option<SendItem> {
        let units = self.units;
        let hs = &mut self.hosts[h.index()];
        if hs.in_flight.len() >= units {
            return None;
        }
        let item = hs.send_queue.pop_front()?;
        if hs.next_seq == 0 {
            hs.in_flight.reserve_exact(units);
        }
        hs.next_seq += 1;
        hs.in_flight.push((hs.next_seq, item));
        Some(item)
    }

    /// Sequence number of the oldest in-flight send (`None` if every unit is
    /// free). With a single send unit this is *the* in-flight send.
    pub fn in_flight_seq(&self, h: HostId) -> Option<u64> {
        self.hosts[h.index()].in_flight.first().map(|&(seq, _)| seq)
    }

    /// Sequence number of the newest in-flight send — the one `try_dispatch`
    /// just claimed a unit for.
    ///
    /// # Panics
    ///
    /// Panics if no send is in flight — an engine sequencing bug.
    pub fn last_dispatched_seq(&self, h: HostId) -> u64 {
        self.hosts[h.index()]
            .in_flight
            .last()
            .map(|&(seq, _)| seq)
            .expect("last_dispatched_seq without in-flight send")
    }

    /// True while the dispatch tagged `seq` still occupies a send unit.
    #[cfg(test)]
    pub fn has_seq(&self, h: HostId, seq: u64) -> bool {
        self.hosts[h.index()]
            .in_flight
            .iter()
            .any(|&(s, _)| s == seq)
    }

    /// Number of queued (not yet dispatched) transmissions.
    pub fn queue_len(&self, h: HostId) -> usize {
        self.hosts[h.index()].send_queue.len()
    }

    /// True when the host has no queued transmissions.
    pub fn send_queue_is_empty(&self, h: HostId) -> bool {
        self.hosts[h.index()].send_queue.is_empty()
    }

    /// Removes and returns the host's next queued transmission, bypassing
    /// the send units. Lets a crashed host's queue be discarded item by item
    /// with no scratch allocation (the caller accounts for each).
    pub fn pop_queued(&mut self, h: HostId) -> Option<SendItem> {
        self.hosts[h.index()].send_queue.pop_front()
    }

    /// Frees the oldest occupied send unit, returning the transmission it
    /// carried. Stop-and-wait paths (one unit, one outstanding send) use
    /// this; multi-unit paths release by sequence or by item instead.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in flight — an engine sequencing bug.
    pub fn release_send_unit(&mut self, h: HostId) -> SendItem {
        let hs = &mut self.hosts[h.index()];
        if hs.in_flight.is_empty() {
            panic!("release without in-flight send");
        }
        hs.in_flight.remove(0).1
    }

    /// Frees the unit carrying the dispatch tagged `seq`, returning its
    /// transmission (`None` if that dispatch already completed).
    pub fn release_by_seq(&mut self, h: HostId, seq: u64) -> Option<SendItem> {
        let hs = &mut self.hosts[h.index()];
        let at = hs.in_flight.iter().position(|&(s, _)| s == seq)?;
        Some(hs.in_flight.remove(at).1)
    }

    /// Frees the oldest unit carrying exactly `item` (handshake completion:
    /// the receiver names the transmission it acknowledges).
    ///
    /// # Panics
    ///
    /// Panics if no unit carries `item` — an engine sequencing bug.
    pub fn release_matching(&mut self, h: HostId, item: &SendItem) {
        let hs = &mut self.hosts[h.index()];
        let at = hs
            .in_flight
            .iter()
            .position(|(_, i)| i == item)
            .expect("release without in-flight send");
        hs.in_flight.remove(at);
    }

    /// Serializes an arrival on the receive unit: the receive completes
    /// `t_recv` after the unit frees (or after `now`, whichever is later).
    /// Returns `(completion, wait)` where `wait` is the time the packet
    /// spent queued behind earlier receives.
    pub fn occupy_recv_unit(&mut self, h: HostId, now: SimTime, t_recv: f64) -> (SimTime, f64) {
        let hs = &mut self.hosts[h.index()];
        let start = hs.recv_free.max(now);
        let done = start + t_recv;
        hs.recv_free = done;
        (done, start - now)
    }

    /// Stages `n` packets in the host's forwarding buffer; returns the new
    /// occupancy (for histogram observation).
    pub fn stage(&mut self, h: HostId, n: u32) -> u32 {
        let hs = &mut self.hosts[h.index()];
        hs.resident += n;
        hs.max_resident = hs.max_resident.max(hs.resident);
        hs.resident
    }

    /// Releases one buffered packet (saturating — the conventional NI never
    /// stages, so its releases are no-ops).
    pub fn unstage(&mut self, h: HostId) {
        let hs = &mut self.hosts[h.index()];
        if hs.resident > 0 {
            hs.resident -= 1;
        }
    }

    /// Packets currently resident in the host's forwarding buffer.
    pub fn resident(&self, h: HostId) -> u32 {
        self.hosts[h.index()].resident
    }

    /// The host's buffer high-water mark.
    pub fn max_resident(&self, h: HostId) -> u32 {
        self.hosts[h.index()].max_resident
    }

    /// Buffer high-water marks for every host, in host order.
    pub fn all_max_resident(&self) -> Vec<u32> {
        self.hosts.iter().map(|h| h.max_resident).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::tree::Rank;

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
        assert_eq!(hm.all_max_resident(), vec![3]);
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

    #[test]
    fn in_flight_slots_are_reserved_at_first_dispatch() {
        let ni = NiModel {
            send_units: 3,
            queue_capacity: None,
        };
        let mut hm = HostModel::new(2, ni);
        let (idle, sender) = (HostId(0), HostId(1));
        hm.enqueue(sender, item(0));
        assert_eq!(hm.hosts[sender.index()].in_flight.capacity(), 0);
        hm.try_dispatch(sender).unwrap();
        assert_eq!(hm.hosts[sender.index()].in_flight.capacity(), 3);
        assert_eq!(hm.hosts[idle.index()].in_flight.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "release without in-flight send")]
    fn release_without_dispatch_is_a_bug() {
        let mut hm = one_unit(1);
        hm.release_send_unit(HostId(0));
    }
}
