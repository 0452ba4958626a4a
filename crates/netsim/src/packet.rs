//! Packetization: fragmenting messages into fixed-size packets and
//! reassembling them (paper §2.1).
//!
//! "If a node needs to send a large message to another node, the message is
//! broken up into packets of fixed size. … The destination collects the
//! packets and assembles them into the complete message." The simulator
//! itself only needs packet *counts*, but the fragmentation/reassembly layer
//! is implemented for real (zero-copy via [`Bytes`]) so the NI model
//! rests on a working packetization substrate.

use crate::bytes::Bytes;

/// One fixed-size fragment of a message. `index` is its position in the
/// message; the last packet may be shorter than the network's packet size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// 0-based position within the message.
    pub index: u32,
    /// Total number of packets in the message (carried in every header).
    pub total: u32,
    /// Payload bytes (zero-copy slice of the original message).
    pub payload: Bytes,
}

/// Fragments `message` into packets of at most `packet_bytes` payload each.
/// An empty message still produces one (empty) packet — the multicast must
/// deliver at least a header.
///
/// # Panics
///
/// Panics if `packet_bytes == 0` or the fragment count overflows `u32`.
pub fn fragment(message: Bytes, packet_bytes: u32) -> Vec<Packet> {
    assert!(packet_bytes > 0, "packet size must be positive");
    let per = packet_bytes as usize;
    let total = message.len().div_ceil(per).max(1);
    let total32 = u32::try_from(total).expect("too many packets");
    (0..total)
        .map(|i| {
            let lo = i * per;
            let hi = ((i + 1) * per).min(message.len());
            Packet {
                index: i as u32,
                total: total32,
                payload: message.slice(lo..hi),
            }
        })
        .collect()
}

/// Reassembles packets (any arrival order) back into the message.
#[derive(Debug, Clone)]
pub struct Reassembly {
    total: u32,
    slots: Vec<Option<Bytes>>,
    received: u32,
}

/// Errors surfaced while reassembling a packetized message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyError {
    /// A packet advertised a different total than the stream so far.
    TotalMismatch {
        /// Total the reassembler was created with.
        expected: u32,
        /// Total carried by the offending packet.
        got: u32,
    },
    /// Packet index out of range.
    IndexOutOfRange {
        /// The offending index.
        index: u32,
        /// The message's packet count.
        total: u32,
    },
    /// The same packet index arrived twice.
    Duplicate {
        /// The duplicated index.
        index: u32,
    },
}

impl std::fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassemblyError::TotalMismatch { expected, got } => {
                write!(f, "packet total {got} != stream total {expected}")
            }
            ReassemblyError::IndexOutOfRange { index, total } => {
                write!(f, "packet index {index} out of range (total {total})")
            }
            ReassemblyError::Duplicate { index } => {
                write!(f, "duplicate packet {index}")
            }
        }
    }
}

impl std::error::Error for ReassemblyError {}

impl Reassembly {
    /// A reassembler expecting `total` packets.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn new(total: u32) -> Self {
        assert!(total >= 1, "a message has at least one packet");
        Reassembly {
            total,
            slots: vec![None; total as usize],
            received: 0,
        }
    }

    /// Accepts one packet.
    pub fn accept(&mut self, p: Packet) -> Result<(), ReassemblyError> {
        if p.total != self.total {
            return Err(ReassemblyError::TotalMismatch {
                expected: self.total,
                got: p.total,
            });
        }
        if p.index >= self.total {
            return Err(ReassemblyError::IndexOutOfRange {
                index: p.index,
                total: self.total,
            });
        }
        let slot = &mut self.slots[p.index as usize];
        if slot.is_some() {
            return Err(ReassemblyError::Duplicate { index: p.index });
        }
        *slot = Some(p.payload);
        self.received += 1;
        Ok(())
    }

    /// Packets received so far.
    pub fn received(&self) -> u32 {
        self.received
    }

    /// True once every packet has arrived.
    pub fn is_complete(&self) -> bool {
        self.received == self.total
    }

    /// Concatenates the payloads into the original message.
    ///
    /// # Panics
    ///
    /// Panics if the message is not yet complete.
    pub fn assemble(self) -> Bytes {
        assert!(self.is_complete(), "message incomplete");
        let mut buf =
            Vec::with_capacity(self.slots.iter().map(|s| s.as_ref().unwrap().len()).sum());
        for s in self.slots {
            buf.extend_from_slice(&s.unwrap());
        }
        Bytes::from(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counts_and_sizes() {
        let msg = Bytes::from(vec![7u8; 130]);
        let pkts = fragment(msg, 64);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].payload.len(), 64);
        assert_eq!(pkts[1].payload.len(), 64);
        assert_eq!(pkts[2].payload.len(), 2);
        assert!(pkts.iter().all(|p| p.total == 3));
        assert_eq!(pkts[2].index, 2);
    }

    #[test]
    fn empty_message_is_one_packet() {
        let pkts = fragment(Bytes::new(), 64);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].payload.is_empty());
    }

    #[test]
    fn roundtrip_in_order() {
        let msg = Bytes::from((0u8..=255).collect::<Vec<_>>());
        let pkts = fragment(msg.clone(), 64);
        let mut r = Reassembly::new(pkts.len() as u32);
        for p in pkts {
            r.accept(p).unwrap();
        }
        assert!(r.is_complete());
        assert_eq!(r.assemble(), msg);
    }

    #[test]
    fn roundtrip_out_of_order() {
        let msg = Bytes::from(vec![3u8; 1000]);
        let mut pkts = fragment(msg.clone(), 64);
        pkts.reverse();
        let mut r = Reassembly::new(pkts.len() as u32);
        for p in pkts {
            r.accept(p).unwrap();
        }
        assert_eq!(r.assemble(), msg);
    }

    #[test]
    fn duplicate_rejected() {
        let pkts = fragment(Bytes::from(vec![1u8; 10]), 4);
        let mut r = Reassembly::new(3);
        r.accept(pkts[0].clone()).unwrap();
        assert_eq!(
            r.accept(pkts[0].clone()),
            Err(ReassemblyError::Duplicate { index: 0 })
        );
    }

    #[test]
    fn mismatched_total_rejected() {
        let mut r = Reassembly::new(2);
        let p = Packet {
            index: 0,
            total: 3,
            payload: Bytes::new(),
        };
        assert!(matches!(
            r.accept(p),
            Err(ReassemblyError::TotalMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut r = Reassembly::new(2);
        let p = Packet {
            index: 5,
            total: 2,
            payload: Bytes::new(),
        };
        assert!(matches!(
            r.accept(p),
            Err(ReassemblyError::IndexOutOfRange { index: 5, total: 2 })
        ));
    }

    #[test]
    fn zero_copy_fragments() {
        // Fragments share the original buffer (no copies).
        let msg = Bytes::from(vec![9u8; 128]);
        let pkts = fragment(msg.clone(), 64);
        assert_eq!(pkts[0].payload.as_ptr(), msg.as_ptr());
        assert_eq!(pkts[1].payload.as_ptr(), unsafe { msg.as_ptr().add(64) });
    }
}
