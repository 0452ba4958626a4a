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
//! * The selective-repeat state (`ArqState`): per-destination send
//!   windows (`LinkState`) with at most `window` unacknowledged packets
//!   in flight per tree edge, and out-of-order acceptance buffers
//!   (`RecvState`) whose gap detection emits **coalesced NACK ranges**
//!   (`[first_missing, last_seen]` runs, not per-packet NACKs).
//!
//! The window machinery activates when a [`crate::fault::FaultPlan`] sets
//! `window > 1`; the event handlers live in the simulator core. Every
//! retry decision there is driven by the fault plan's PRF (stream 3 for the
//! retransmission jitter), so windowed runs stay byte-identical at any
//! worker count.

use optimcast_core::tree::Rank;
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

/// Coalesces the unreceived packets below `upto` into inclusive
/// `(first, last)` ranges — the NACK-range computation of the selective-
/// repeat receiver. `received` is a packet bitmask (`bit p` of word
/// `p / 64` set when packet `p` has arrived); packets at or above `upto`
/// are not considered missing.
///
/// The returned ranges are disjoint, ascending, and their union is exactly
/// the missing set — properties the proptest battery pins down.
pub fn coalesce_missing(received: &[u64], upto: u32) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut run_start: Option<u32> = None;
    for p in 0..upto {
        if mask_test(received, p) {
            if let Some(s) = run_start.take() {
                ranges.push((s, p - 1));
            }
        } else if run_start.is_none() {
            run_start = Some(p);
        }
    }
    if let Some(s) = run_start {
        ranges.push((s, upto - 1));
    }
    ranges
}

/// Tests bit `p` of a packet bitmask.
#[inline]
pub(crate) fn mask_test(mask: &[u64], p: u32) -> bool {
    mask[(p / 64) as usize] & (1u64 << (p % 64)) != 0
}

/// Sets bit `p` of a packet bitmask.
#[inline]
pub(crate) fn mask_set(mask: &mut [u64], p: u32) {
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

/// Sender-side window state of one tree edge (parent → child).
#[derive(Debug)]
pub(crate) struct LinkState {
    /// Per-packet transmission state (`packets` entries).
    pub slots: Vec<Slot>,
    /// Packets awaiting window admission, in send order.
    pub pending: VecDeque<u32>,
    /// Unacknowledged packets currently charged against the window.
    pub in_flight: u32,
    /// Instant admission stalled on a full window (µs); accumulated into
    /// `window_stalls_us` when the window next slides.
    pub blocked_since_us: Option<f64>,
    /// Registered in its sender host's [`ArqState::host_links`] (set when
    /// the link first gets pending work).
    pub active: bool,
}

impl LinkState {
    fn new(packets: u32) -> Self {
        LinkState {
            slots: vec![Slot::NotSent; packets as usize],
            pending: VecDeque::new(),
            in_flight: 0,
            blocked_since_us: None,
            active: false,
        }
    }
}

/// Receiver-side out-of-order acceptance state of one `(job, rank)`.
#[derive(Debug)]
pub(crate) struct RecvState {
    /// Packets received (acceptance buffer occupancy).
    pub mask: Vec<u64>,
    /// Packets already NACKed once. Each missing packet is NACKed at most
    /// once — the sender's retransmission timeout covers a lost recovery,
    /// so repeating the NACK would only multiply duplicate resends.
    pub nacked: Vec<u64>,
    /// Highest packet index seen so far (gap detection boundary).
    pub last_seen: Option<u32>,
}

impl RecvState {
    fn new(packets: u32) -> Self {
        RecvState {
            mask: vec![0; mask_words(packets)],
            nacked: vec![0; mask_words(packets)],
            last_seen: None,
        }
    }
}

/// The whole workload's selective-repeat state, indexed `[job][rank]`
/// (rank 0 rows are unused on the link side: rank 0 has no incoming edge).
pub(crate) struct ArqState {
    /// Window size (unacknowledged packets per tree edge), from the fault
    /// plan (`window > 1`).
    pub window: u32,
    /// Per-message delivery deadline (µs past the job's start), if any.
    pub deadline_us: Option<f64>,
    /// `links[job][rank]`: sender-side state of the edge parent(rank) → rank.
    pub links: Vec<Vec<LinkState>>,
    /// `recv[job][rank]`: receiver-side acceptance state.
    pub recv: Vec<Vec<RecvState>>,
    /// Active outgoing edges per physical host, in activation order — lets
    /// a freed send unit or drained queue re-attempt admission for the
    /// host's links without scanning every job.
    pub host_links: Vec<Vec<(u32, Rank)>>,
}

impl ArqState {
    pub fn new(
        jobs: &[crate::workload::MulticastJob],
        n_hosts: usize,
        window: u32,
        deadline_us: Option<f64>,
    ) -> Self {
        ArqState {
            window,
            deadline_us,
            links: jobs
                .iter()
                .map(|j| {
                    (0..j.tree.len())
                        .map(|_| LinkState::new(j.packets))
                        .collect()
                })
                .collect(),
            recv: jobs
                .iter()
                .map(|j| {
                    (0..j.tree.len())
                        .map(|_| RecvState::new(j.packets))
                        .collect()
                })
                .collect(),
            host_links: vec![Vec::new(); n_hosts],
        }
    }

    pub fn link(&mut self, job: u32, child: Rank) -> &mut LinkState {
        &mut self.links[job as usize][child.index()]
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
        // received = {1, 4, 5}; upto = 8 → missing {0, 2, 3, 6, 7}.
        let mask = [0b0011_0010u64];
        assert_eq!(coalesce_missing(&mask, 8), vec![(0, 0), (2, 3), (6, 7)]);
        // Nothing missing.
        assert_eq!(coalesce_missing(&[0b1111], 4), vec![]);
        // Everything missing.
        assert_eq!(coalesce_missing(&[0], 4), vec![(0, 3)]);
        // upto bounds the scan.
        assert_eq!(coalesce_missing(&[0], 0), vec![]);
    }

    #[test]
    fn coalesce_crosses_word_boundaries() {
        let mut mask = vec![u64::MAX, u64::MAX];
        // Clear 62..=66: one run across the word boundary.
        for p in 62..=66 {
            mask[(p / 64) as usize] &= !(1u64 << (p % 64));
        }
        assert_eq!(coalesce_missing(&mask, 128), vec![(62, 66)]);
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
