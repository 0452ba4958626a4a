//! Simulation event vocabulary shared by the component core and the
//! forwarding engines.

use optimcast_core::tree::Rank;
use optimcast_topology::graph::HostId;

/// A discrete simulation event.
///
/// Host-level events (`TrySend`, `SendRelease`, `AckTimeout`) address
/// physical hosts, because a host's NI send unit is shared by every job it
/// participates in; the remaining events are scoped to one (job, rank).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A smart-NI job with a deferred start finished its `t_s` source
    /// staging: enqueue its packets and let the source send unit go. Jobs
    /// starting at time zero skip this event and stage before the run
    /// (their packets cannot be dispatched early — no send unit fires
    /// before `t_s`); a staggered job must not surface packets in the
    /// shared host queues before it starts, or a host serving an
    /// already-running job would relay them ahead of arrival.
    JobStart(u32),
    /// The host's send unit may dispatch its next queued packet.
    TrySend(HostId),
    /// A packet's head reached the receiving NI; queue it on the receive
    /// unit. `corrupt` marks a transmission the fault plan damaged in
    /// flight — it still occupies the wire and the receive unit, then is
    /// NACKed instead of delivered.
    Arrive { item: SendItem, corrupt: bool },
    /// The receive unit finished pulling the packet in.
    RecvDone { item: SendItem, corrupt: bool },
    /// A conventional-NI host processor is ready to prepare its next child
    /// message.
    HostReady { job: u32, at: Rank },
    /// A conventional-NI host finished `t_s` staging the message for one
    /// child; enqueue its packets.
    SendPrepared {
        job: u32,
        at: Rank,
        child_idx: usize,
    },
    /// Overlapped timing: the send unit frees `t_send` after dispatch.
    /// `seq` names the dispatch the release belongs to, so with several
    /// send units the release frees exactly the unit that fired it.
    SendRelease { host: HostId, seq: u64 },
    /// Reliability layer: the acknowledgement for the host's in-flight send
    /// did not arrive in time. `seq` is the dispatch sequence number the
    /// timeout was armed for, so a stale timeout cannot release a newer
    /// transmission.
    AckTimeout { host: HostId, seq: u64 },
    /// Windowed ARQ: a send unit frees `t_send` after dispatch (the wire is
    /// clear) *without* retiring the packet's window slot — the slot stays
    /// charged until the handshake or an abandonment retires it.
    ArqRelease { host: HostId, seq: u64 },
    /// Windowed ARQ: the retransmission timer of the lost transmission
    /// `item` fired (armed with PRF-derived jitter). Stale if its slot has
    /// since been retired or retransmitted under a newer attempt.
    ArqTimeout(SendItem),
    /// Windowed ARQ: the receiver at `at` detected a gap and NACKs the
    /// coalesced missing range `[first, last]` back to its parent.
    ArqNack {
        job: u32,
        at: Rank,
        first: u32,
        last: u32,
    },
}

/// A queued packet transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendItem {
    pub job: u32,
    pub packet: u32,
    /// Sending participant (the child's parent in the job's tree).
    pub from: Rank,
    /// Next-hop rank the packet is transmitted to.
    pub child: Rank,
    /// Final destination rank (for personalized payloads; equals `child`
    /// for replicated copies, whose identity is just the packet index).
    pub dest: Rank,
    /// Transmission attempt, 0 on first dispatch; the reliability layer
    /// re-enqueues failed sends with the attempt bumped.
    pub attempt: u32,
}
