//! The real-wire backend: [`UdpTransport`] implements the netsim
//! [`Transport`] trait over a std-only `std::net::UdpSocket`.
//!
//! The multicast itself is *software* multicast, exactly as in the paper:
//! each participant forwards packets to its children in the k-binomial tree
//! over per-peer unicast datagrams, so the wire traffic is the tree's edge
//! set — the same sends the simulator schedules.
//!
//! `send` fragments the packet to MTU-sized [`WireFrame`]s and writes each
//! as one datagram; `poll_deliveries` runs a bounded-timeout receive loop,
//! reassembling fragments per transmission identity and handing completed
//! packets to the caller's sink. Malformed datagrams are counted and
//! skipped, never fatal: a wire transport must survive garbage.

use crate::frame::{fragment_packet, PacketAssembler, WireFrame, HEADER_LEN};
use optimcast_netsim::bytes::Bytes;
use optimcast_netsim::transport::{
    Delivery, LinkContext, PacketView, Transport, TransportError, TransportResult,
};
use optimcast_topology::graph::HostId;
use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// Largest UDP payload the receive path accepts (one datagram).
const MAX_DATAGRAM: usize = 65_536;

/// Default MTU: conservative Ethernet payload budget.
pub const DEFAULT_MTU: usize = 1400;

/// Reassembly key: one in-flight packet per transmission identity
/// (`stream`, `epoch`, `packet`, `attempt`, `from_rank`), so a
/// retransmitted packet never mixes fragments with its earlier attempt.
type AssemblyKey = (u32, u32, u32, u32, u32);

/// A [`Transport`] that moves packets as real UDP datagrams.
pub struct UdpTransport {
    socket: UdpSocket,
    /// Destination address per participant, indexed by `HostId`/rank.
    peers: Vec<SocketAddr>,
    mtu: usize,
    /// Reused per-frame encode buffer (the transmit path allocates only
    /// when a payload outgrows it).
    scratch: Vec<u8>,
    /// Reused datagram receive buffer.
    recv_buf: Vec<u8>,
    assemblers: HashMap<AssemblyKey, PacketAssembler>,
    malformed: u64,
    closed: bool,
}

impl UdpTransport {
    /// Binds a transport socket to `addr` (use port 0 for an ephemeral
    /// port) with the default MTU.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        let socket = UdpSocket::bind(addr)?;
        Ok(UdpTransport {
            socket,
            peers: Vec::new(),
            mtu: DEFAULT_MTU,
            scratch: Vec::with_capacity(DEFAULT_MTU),
            recv_buf: vec![0u8; MAX_DATAGRAM],
            assemblers: HashMap::new(),
            malformed: 0,
            closed: false,
        })
    }

    /// The socket's local address (the ephemeral port once bound to `:0`).
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        Ok(self.socket.local_addr()?)
    }

    /// Installs the participant address table: `peers[rank]` is where
    /// packets for `HostId(rank)` go.
    pub fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        self.peers = peers;
    }

    /// Overrides the MTU (datagram budget per frame, header included).
    ///
    /// # Panics
    ///
    /// Panics if `mtu` leaves no payload room after the header.
    pub fn set_mtu(&mut self, mtu: usize) {
        assert!(mtu > HEADER_LEN, "mtu {mtu} must exceed the header");
        self.mtu = mtu;
    }

    /// Datagrams that failed to decode (bad magic, truncation, length
    /// mismatch) or whose fragments violated reassembly invariants.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }
}

impl Transport for UdpTransport {
    fn open(&mut self) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        // The receive loop manages its own deadline slices; start blocking
        // with a timeout rather than spinning nonblocking.
        self.socket.set_nonblocking(false)?;
        Ok(())
    }

    fn send(
        &mut self,
        _from: HostId,
        to: HostId,
        packet: PacketView<'_>,
        link: LinkContext<'_>,
    ) -> Result<TransportResult, TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let Some(&addr) = self.peers.get(to.index()) else {
            return Err(TransportError::Invalid(
                "destination rank has no peer address",
            ));
        };
        let frames = fragment_packet(
            packet.stream,
            packet.epoch,
            packet.packet,
            packet.attempt,
            link.from_rank,
            Bytes::from(packet.payload),
            self.mtu,
        )
        .map_err(|_| TransportError::Invalid("mtu leaves no payload room"))?;
        for frame in &frames {
            let len = frame
                .encode_into(&mut self.scratch)
                .map_err(|_| TransportError::Invalid("unencodable frame"))?;
            let written = self.socket.send_to(&self.scratch[..len], addr)?;
            if written != len {
                return Err(TransportError::Invalid("short datagram write"));
            }
        }
        // The wire has no simulated clock: the packet left now, and UDP
        // promises nothing about arrival. Report the logical dispatch
        // instant; actual delivery surfaces at the receiver's poll loop.
        Ok(TransportResult::Delivered {
            start_us: link.now_us,
            arrival_us: link.now_us,
            corrupt: false,
        })
    }

    fn poll_deliveries(
        &mut self,
        budget_us: u64,
        sink: &mut dyn FnMut(Delivery<'_>),
    ) -> Result<usize, TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let deadline = Instant::now() + Duration::from_micros(budget_us);
        let mut delivered = 0usize;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(delivered);
            }
            // Never block past the budget (minimum 1ms: a zero Duration
            // would mean "no timeout" on std sockets).
            self.socket
                .set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))?;
            let n = match self.socket.recv_from(&mut self.recv_buf) {
                Ok((n, _peer)) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(delivered);
                }
                Err(e) => return Err(TransportError::Io(e)),
            };
            let frame = match WireFrame::decode(&self.recv_buf[..n]) {
                Ok(f) => f,
                Err(_) => {
                    self.malformed += 1;
                    continue;
                }
            };
            let key = (
                frame.stream,
                frame.epoch,
                frame.packet,
                frame.attempt,
                frame.from_rank,
            );
            let frag_total = frame.frag_total;
            let asm = self
                .assemblers
                .entry(key)
                .or_insert_with(|| PacketAssembler::new(frag_total));
            match asm.accept(frame) {
                Ok(Some(payload)) => {
                    self.assemblers.remove(&key);
                    delivered += 1;
                    sink(Delivery {
                        stream: key.0,
                        epoch: key.1,
                        packet: key.2,
                        attempt: key.3,
                        from_rank: key.4,
                        payload: &payload,
                    });
                }
                Ok(None) => {}
                Err(_) => {
                    // Inconsistent fragment (duplicate, range, total
                    // mismatch): drop the datagram, keep the assembly.
                    self.malformed += 1;
                }
            }
        }
    }

    fn close(&mut self) -> Result<(), TransportError> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpTransport, UdpTransport) {
        let a = UdpTransport::bind("127.0.0.1:0").unwrap();
        let b = UdpTransport::bind("127.0.0.1:0").unwrap();
        let addrs = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
        let (mut a, mut b) = (a, b);
        a.set_peers(addrs.clone());
        b.set_peers(addrs);
        (a, b)
    }

    fn view(packet: u32, payload: &[u8]) -> PacketView<'_> {
        PacketView {
            stream: 1,
            epoch: 0,
            packet,
            attempt: 0,
            payload,
        }
    }

    fn ctx() -> LinkContext<'static> {
        LinkContext {
            now_us: 0.0,
            route: &[],
            from_rank: 0,
            to_rank: 1,
        }
    }

    #[test]
    fn unicast_packet_roundtrip() {
        let (mut a, mut b) = pair();
        a.open().unwrap();
        b.open().unwrap();
        let payload: Vec<u8> = (0..5000).map(|i| (i % 253) as u8).collect();
        a.set_mtu(HEADER_LEN + 100); // force 50 fragments
        a.send(HostId(0), HostId(1), view(7, &payload), ctx())
            .unwrap();
        let mut got: Vec<(u32, Vec<u8>)> = Vec::new();
        let n = b
            .poll_deliveries(2_000_000, &mut |d| got.push((d.packet, d.payload.to_vec())))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 7);
        assert_eq!(got[0].1, payload);
        assert_eq!(b.malformed(), 0);
        a.close().unwrap();
        b.close().unwrap();
    }

    #[test]
    fn garbage_datagrams_are_counted_not_fatal() {
        let (mut a, mut b) = pair();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(b"not a frame", b.local_addr().unwrap())
            .unwrap();
        raw.send_to(&[0u8; 64], b.local_addr().unwrap()).unwrap();
        a.send(HostId(0), HostId(1), view(0, b"ok"), ctx()).unwrap();
        let mut got = 0usize;
        // Budget generous enough for three datagrams on loopback.
        b.poll_deliveries(2_000_000, &mut |_d| got += 1).unwrap();
        assert_eq!(got, 1);
        assert_eq!(b.malformed(), 2);
    }

    #[test]
    fn send_without_peer_table_is_invalid() {
        let mut t = UdpTransport::bind("127.0.0.1:0").unwrap();
        let err = t.send(HostId(0), HostId(3), view(0, b"x"), ctx());
        assert!(matches!(err, Err(TransportError::Invalid(_))));
    }

    #[test]
    fn closed_transport_refuses_traffic() {
        let (mut a, _b) = pair();
        a.close().unwrap();
        assert!(matches!(
            a.send(HostId(0), HostId(1), view(0, b"x"), ctx()),
            Err(TransportError::Closed)
        ));
        assert!(matches!(
            a.poll_deliveries(10, &mut |_d| {}),
            Err(TransportError::Closed)
        ));
        assert!(matches!(a.open(), Err(TransportError::Closed)));
    }
}
