//! The transport abstraction: every packet-motion decision behind one
//! object-safe trait.
//!
//! A [`Transport`] answers the single question at the heart of the packet
//! path — *given a transmission from one host to another, when (and
//! whether) does it arrive?* — and, for backends with a real receive side,
//! surfaces inbound packets through [`Transport::poll_deliveries`]. Two
//! backends implement it:
//!
//! * [`SimTransport`] — the simulator's channel-reservation hot path
//!   (the channel manager's wormhole holds plus the
//!   [`FaultPlan`] transmission verdict), returning *simulated* start and
//!   arrival instants. The event loop realizes those instants on its event
//!   queue, so `poll_deliveries` is a no-op: in the simulator, the delivery
//!   decision is made at send time and the queue is the wire.
//! * `UdpTransport` (crate `optimcast-transport-udp`) — real
//!   `std::net::UdpSocket` datagrams with an MTU-aware wire codec;
//!   deliveries surface asynchronously through bounded-timeout
//!   `poll_deliveries` calls.
//!
//! The trait is dispatched dynamically (`Box<dyn Transport>`) on the
//! simulator's per-send hot path, so its vocabulary types are all `Copy`
//! and a send performs no allocation — the golden-equivalence and
//! zero-alloc suites pin that the indirection changes nothing.

use crate::channel::ChannelManager;
use crate::fault::{FaultKind, FaultPlan};
use crate::sim::ContentionMode;
use crate::time::SimTime;
use optimcast_core::params::SystemParams;
use optimcast_topology::graph::{ChannelId, HostId};

/// A borrowed view of one packet transmission: the identity tuple the wire
/// header carries, plus the payload bytes. The simulator moves packet
/// *counts*, not bytes, so its payloads are empty; the UDP backend
/// fragments the payload to MTU-sized frames.
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    /// Stream (job) the packet belongs to.
    pub stream: u32,
    /// Repair epoch the transmission was issued under (0 = initial issue).
    pub epoch: u32,
    /// 0-based packet sequence number within the message.
    pub packet: u32,
    /// Transmission attempt, 0 on first dispatch.
    pub attempt: u32,
    /// Payload bytes (empty in the simulator).
    pub payload: &'a [u8],
}

/// Link-level context of a send decision: where the transmission sits in
/// simulated time and topology. Wire backends ignore the route (their
/// network routes for them) and treat `now_us` as a logical timestamp.
#[derive(Debug, Clone, Copy)]
pub struct LinkContext<'a> {
    /// Dispatch instant, µs of simulated (or logical) time.
    pub now_us: f64,
    /// Directed channels of the deterministic route (empty on the wire).
    pub route: &'a [ChannelId],
    /// Sending participant's rank in the job's tree.
    pub from_rank: u32,
    /// Receiving participant's rank.
    pub to_rank: u32,
}

/// The transport's verdict on one transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportResult {
    /// The packet will arrive (possibly damaged): `start_us` is the instant
    /// the head entered the network after any channel stall, `arrival_us`
    /// the instant the head reaches the receiving NI. A `corrupt` arrival
    /// still occupies the wire and receive unit, then is NACKed.
    Delivered {
        /// Actual network entry instant (µs).
        start_us: f64,
        /// Head arrival instant at the receiving NI (µs).
        arrival_us: f64,
        /// Damaged in flight by the fault plan.
        corrupt: bool,
    },
    /// The packet was lost in the network: no arrival. `retry_at_us` is the
    /// instant the sender's acknowledgement timeout for this attempt fires.
    Lost {
        /// Actual network entry instant (µs).
        start_us: f64,
        /// How the packet was lost.
        kind: FaultKind,
        /// Acknowledgement-timeout instant for this attempt (µs).
        retry_at_us: f64,
    },
}

/// One inbound packet surfaced by [`Transport::poll_deliveries`].
#[derive(Debug, Clone, Copy)]
pub struct Delivery<'a> {
    /// Stream (job) the packet belongs to.
    pub stream: u32,
    /// Repair epoch carried in the wire header.
    pub epoch: u32,
    /// Packet sequence number within the message.
    pub packet: u32,
    /// Transmission attempt of the copy that completed the packet.
    pub attempt: u32,
    /// Sending participant's rank.
    pub from_rank: u32,
    /// Reassembled packet payload.
    pub payload: &'a [u8],
}

/// Transport failures. [`SimTransport`] is infallible; the variants exist
/// for wire backends, whose sockets can fail underneath them.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The transport was closed (or never opened).
    Closed,
    /// A peer table or frame invariant was violated.
    Invalid(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Closed => write!(f, "transport is closed"),
            TransportError::Invalid(what) => write!(f, "invalid transport use: {what}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// An object-safe packet transport: the seam between the multicast
/// forwarding logic (trees, schedules, disciplines) and the mechanism that
/// moves packets — simulated channels or real sockets.
pub trait Transport {
    /// Prepares the transport for traffic (bind/join on wire backends).
    fn open(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Decides (simulator) or performs (wire) one packet transmission from
    /// host `from` to host `to`.
    fn send(
        &mut self,
        from: HostId,
        to: HostId,
        packet: PacketView<'_>,
        link: LinkContext<'_>,
    ) -> Result<TransportResult, TransportError>;

    /// Drains inbound deliveries, blocking at most `budget_us` wall-clock
    /// microseconds, and hands each completed packet to `sink`. Returns the
    /// number of packets delivered. Backends whose deliveries are realized
    /// elsewhere (the simulator's event queue) return `Ok(0)`.
    fn poll_deliveries(
        &mut self,
        budget_us: u64,
        sink: &mut dyn FnMut(Delivery<'_>),
    ) -> Result<usize, TransportError>;

    /// Releases the transport's resources (leave/close on wire backends).
    fn close(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// The simulator backend: a thin adapter over the wormhole channel manager
/// and the fault plan's transmission verdict. One instance serves one
/// workload run; it owns the run's channel-occupancy state.
///
/// `send` reproduces the historic inline hot path *exactly* — reserve the
/// route with a `t_send + t_prop` hold, derive the head arrival, then ask
/// the fault plan for a verdict keyed by the transmission identity — so
/// routing every send through the trait object leaves the golden event
/// sequences bit-identical.
pub struct SimTransport<'a> {
    channels: ChannelManager,
    t_send: f64,
    t_prop: f64,
    fault: Option<&'a FaultPlan>,
}

impl<'a> SimTransport<'a> {
    /// A simulator transport over `n_channels` directed channels under the
    /// given contention mode and NI timing parameters.
    pub fn new(
        contention: ContentionMode,
        n_channels: usize,
        params: &SystemParams,
        fault: Option<&'a FaultPlan>,
    ) -> Self {
        SimTransport {
            channels: ChannelManager::new(contention, n_channels),
            t_send: params.t_send,
            t_prop: params.t_prop,
            fault,
        }
    }
}

impl Transport for SimTransport<'_> {
    fn send(
        &mut self,
        _from: HostId,
        to: HostId,
        packet: PacketView<'_>,
        link: LinkContext<'_>,
    ) -> Result<TransportResult, TransportError> {
        let now = SimTime::us(link.now_us);
        let hold = self.t_send + self.t_prop;
        let t0 = self.channels.reserve(link.route, now, hold);
        let arrival = t0 + self.t_send + self.t_prop;
        let verdict = match self.fault {
            Some(f) => f.tx_outcome(
                packet.stream,
                packet.epoch,
                link.from_rank,
                link.to_rank,
                packet.packet,
                packet.attempt,
                link.route,
                t0.as_us(),
                arrival.as_us(),
                to,
            ),
            None => None,
        };
        Ok(match verdict {
            None => TransportResult::Delivered {
                start_us: t0.as_us(),
                arrival_us: arrival.as_us(),
                corrupt: false,
            },
            Some(FaultKind::Corrupt) => TransportResult::Delivered {
                start_us: t0.as_us(),
                arrival_us: arrival.as_us(),
                corrupt: true,
            },
            Some(kind) => {
                let f = self.fault.expect("fault verdict without a plan");
                TransportResult::Lost {
                    start_us: t0.as_us(),
                    kind,
                    retry_at_us: (t0 + f.rto(packet.attempt)).as_us(),
                }
            }
        })
    }

    /// Simulated deliveries ride the event queue, not the transport.
    fn poll_deliveries(
        &mut self,
        _budget_us: u64,
        _sink: &mut dyn FnMut(Delivery<'_>),
    ) -> Result<usize, TransportError> {
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn params() -> SystemParams {
        SystemParams::paper_1997()
    }

    fn view(packet: u32, attempt: u32) -> PacketView<'static> {
        PacketView {
            stream: 0,
            epoch: 0,
            packet,
            attempt,
            payload: &[],
        }
    }

    fn link(now_us: f64, route: &[ChannelId]) -> LinkContext<'_> {
        LinkContext {
            now_us,
            route,
            from_rank: 0,
            to_rank: 1,
        }
    }

    /// Dyn-dispatched sends reproduce the channel manager's wormhole
    /// serialization: a second worm on a shared channel starts only when
    /// the first has drained.
    #[test]
    fn dyn_send_serializes_shared_routes() {
        let p = params();
        let hold = p.t_send + p.t_prop;
        let mut boxed: Box<dyn Transport> =
            Box::new(SimTransport::new(ContentionMode::Wormhole, 4, &p, None));
        let route = [ChannelId(0), ChannelId(1)];
        let first = boxed.send(HostId(0), HostId(1), view(0, 0), link(0.0, &route));
        match first.unwrap() {
            TransportResult::Delivered {
                start_us,
                arrival_us,
                corrupt,
            } => {
                assert_eq!(start_us, 0.0);
                assert_eq!(arrival_us, hold);
                assert!(!corrupt);
            }
            other => panic!("unexpected {other:?}"),
        }
        let second = boxed.send(HostId(0), HostId(1), view(1, 0), link(0.0, &route));
        match second.unwrap() {
            TransportResult::Delivered { start_us, .. } => assert_eq!(start_us, hold),
            other => panic!("unexpected {other:?}"),
        }
        // Disjoint route: no stall.
        let third = boxed.send(HostId(0), HostId(2), view(0, 0), link(1.0, &[ChannelId(3)]));
        match third.unwrap() {
            TransportResult::Delivered { start_us, .. } => assert_eq!(start_us, 1.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A certain-loss fault plan turns every send into `Lost` with the
    /// plan's retransmission timeout, dyn-dispatched.
    #[test]
    fn dyn_send_surfaces_fault_verdicts() {
        let p = params();
        let mut plan = FaultPlan::new(7);
        plan.drop_rate = 1.0;
        let mut boxed: Box<dyn Transport> = Box::new(SimTransport::new(
            ContentionMode::Wormhole,
            2,
            &p,
            Some(&plan),
        ));
        let route = [ChannelId(0)];
        match boxed
            .send(HostId(0), HostId(1), view(0, 0), link(5.0, &route))
            .unwrap()
        {
            TransportResult::Lost {
                start_us,
                kind,
                retry_at_us,
            } => {
                assert_eq!(start_us, 5.0);
                assert_eq!(kind, FaultKind::Drop);
                assert_eq!(retry_at_us, 5.0 + plan.rto(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The simulator backend has no asynchronous receive side.
        let mut seen = 0usize;
        let n = boxed.poll_deliveries(10, &mut |_d| seen += 1).unwrap();
        assert_eq!((n, seen), (0, 0));
    }
}
