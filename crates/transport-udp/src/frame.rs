//! The wire codec: one UDP datagram per frame, one or more frames per
//! multicast packet.
//!
//! A frame is a fixed 30-byte little-endian header followed by up to
//! `mtu - HEADER_LEN` payload bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x4F4D4358 ("OMCX" little-endian)
//!      4     4  stream       job index within the workload
//!      8     4  epoch        repair epoch (0 = initial issue)
//!     12     4  packet       0-based packet sequence within the message
//!     16     4  attempt      transmission attempt (0 = first)
//!     20     4  from_rank    sender's rank in the multicast tree
//!     24     2  frag         0-based fragment index within the packet
//!     26     2  frag_total   fragments in the packet (>= 1)
//!     28     2  payload_len  payload bytes following the header
//!     30     …  payload
//! ```
//!
//! The identity quintuple `(stream, epoch, packet, attempt, from_rank)` is
//! exactly the simulator's transmission identity — the same tuple the fault
//! PRF keys off — so a wire trace and a simulator trace describe the same
//! events in the same vocabulary. Fragmentation reuses the packetization
//! substrate ([`optimcast_netsim::packet`]) and the zero-copy
//! [`Bytes`] buffer, so a fragmented packet never copies its payload until
//! reassembly concatenates it.
//!
//! Decoding is strict: short buffers, bad magic, fragment indices out of
//! range, and length mismatches (including trailing garbage) all return
//! typed [`FrameError`]s rather than truncating silently.

use optimcast_netsim::bytes::Bytes;
use optimcast_netsim::packet::{fragment, Reassembly, ReassemblyError};

/// Frame magic: "OMCX" read as a little-endian `u32`.
pub const MAGIC: u32 = 0x4F4D_4358;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 30;

/// One frame: the unit that fits in a single UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Job index within the workload.
    pub stream: u32,
    /// Repair epoch the transmission was issued under.
    pub epoch: u32,
    /// 0-based packet sequence within the message.
    pub packet: u32,
    /// Transmission attempt, 0 on first dispatch.
    pub attempt: u32,
    /// Sender's rank in the multicast tree.
    pub from_rank: u32,
    /// 0-based fragment index within the packet.
    pub frag: u16,
    /// Fragments in the packet (>= 1).
    pub frag_total: u16,
    /// Fragment payload (zero-copy view of the packet payload).
    pub payload: Bytes,
}

/// Typed wire-codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer is shorter than the header (or its declared payload).
    TooShort {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// The first four bytes are not the frame magic.
    BadMagic {
        /// The value found instead of [`MAGIC`].
        got: u32,
    },
    /// `frag_total` was zero — a packet always has at least one fragment.
    ZeroFragments,
    /// `frag >= frag_total`.
    FragOutOfRange {
        /// The offending fragment index.
        frag: u16,
        /// The packet's fragment count.
        total: u16,
    },
    /// Declared payload length disagrees with the buffer (trailing garbage
    /// is rejected, not ignored).
    LengthMismatch {
        /// Bytes the header declared.
        declared: usize,
        /// Bytes actually present after the header.
        got: usize,
    },
    /// The payload cannot be described by the u16 length field.
    PayloadTooLarge {
        /// The oversized payload length.
        len: usize,
    },
    /// The MTU leaves no room for payload after the header.
    MtuTooSmall {
        /// The offending MTU.
        mtu: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort { need, got } => {
                write!(f, "frame too short: need {need} bytes, got {got}")
            }
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:#010x} (expected {MAGIC:#010x})")
            }
            FrameError::ZeroFragments => write!(f, "frame declares zero fragments"),
            FrameError::FragOutOfRange { frag, total } => {
                write!(f, "fragment {frag} out of range (total {total})")
            }
            FrameError::LengthMismatch { declared, got } => {
                write!(f, "payload length mismatch: declared {declared}, got {got}")
            }
            FrameError::PayloadTooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds the u16 length field")
            }
            FrameError::MtuTooSmall { mtu } => {
                write!(
                    f,
                    "mtu {mtu} leaves no payload room (header is {HEADER_LEN} bytes)"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl WireFrame {
    /// Encoded size of this frame in bytes.
    fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Serializes the frame into `buf` (cleared first) and returns the
    /// encoded length. Reusing one scratch buffer across sends keeps the
    /// transmit path allocation-free.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<usize, FrameError> {
        if self.payload.len() > usize::from(u16::MAX) {
            return Err(FrameError::PayloadTooLarge {
                len: self.payload.len(),
            });
        }
        if self.frag_total == 0 {
            return Err(FrameError::ZeroFragments);
        }
        if self.frag >= self.frag_total {
            return Err(FrameError::FragOutOfRange {
                frag: self.frag,
                total: self.frag_total,
            });
        }
        buf.clear();
        buf.reserve(self.encoded_len());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&self.stream.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.packet.to_le_bytes());
        buf.extend_from_slice(&self.attempt.to_le_bytes());
        buf.extend_from_slice(&self.from_rank.to_le_bytes());
        buf.extend_from_slice(&self.frag.to_le_bytes());
        buf.extend_from_slice(&self.frag_total.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        buf.extend_from_slice(&self.payload);
        Ok(buf.len())
    }

    /// Serializes the frame into a fresh buffer.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Parses one frame from `buf`. Strict: the buffer must contain exactly
    /// the header plus the declared payload.
    pub fn decode(buf: &[u8]) -> Result<WireFrame, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::TooShort {
                need: HEADER_LEN,
                got: buf.len(),
            });
        }
        let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
        let u16_at = |o: usize| u16::from_le_bytes(buf[o..o + 2].try_into().expect("2 bytes"));
        let magic = u32_at(0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let frag = u16_at(24);
        let frag_total = u16_at(26);
        if frag_total == 0 {
            return Err(FrameError::ZeroFragments);
        }
        if frag >= frag_total {
            return Err(FrameError::FragOutOfRange {
                frag,
                total: frag_total,
            });
        }
        let declared = usize::from(u16_at(28));
        let got = buf.len() - HEADER_LEN;
        if declared != got {
            return Err(FrameError::LengthMismatch { declared, got });
        }
        Ok(WireFrame {
            stream: u32_at(4),
            epoch: u32_at(8),
            packet: u32_at(12),
            attempt: u32_at(16),
            from_rank: u32_at(20),
            frag,
            frag_total,
            payload: Bytes::from(&buf[HEADER_LEN..]),
        })
    }
}

/// Fragments one multicast packet's payload into MTU-sized frames, all
/// carrying the same transmission identity. Zero-copy: each frame's payload
/// is a view of `payload`. An empty payload still yields one (empty) frame —
/// the multicast must deliver at least a header.
#[allow(clippy::too_many_arguments)]
pub fn fragment_packet(
    stream: u32,
    epoch: u32,
    packet: u32,
    attempt: u32,
    from_rank: u32,
    payload: Bytes,
    mtu: usize,
) -> Result<Vec<WireFrame>, FrameError> {
    if mtu <= HEADER_LEN {
        return Err(FrameError::MtuTooSmall { mtu });
    }
    let room = (mtu - HEADER_LEN).min(usize::from(u16::MAX));
    let pieces = fragment(payload, room as u32);
    let total = u16::try_from(pieces.len())
        .map_err(|_| FrameError::PayloadTooLarge { len: pieces.len() })?;
    Ok(pieces
        .into_iter()
        .map(|p| WireFrame {
            stream,
            epoch,
            packet,
            attempt,
            from_rank,
            frag: p.index as u16,
            frag_total: total,
            payload: p.payload,
        })
        .collect())
}

/// Reassembles one packet from its fragments (any arrival order,
/// duplicates rejected), wrapping [`Reassembly`] with wire-level identity
/// checks.
#[derive(Debug)]
pub struct PacketAssembler {
    frag_total: u16,
    inner: Reassembly,
}

/// Reassembly failures at the wire level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A fragment advertised a different fragment count than the first.
    FragTotalMismatch {
        /// Count the assembler was created with.
        expected: u16,
        /// Count the offending fragment carried.
        got: u16,
    },
    /// The underlying reassembly rejected the fragment.
    Reassembly(ReassemblyError),
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::FragTotalMismatch { expected, got } => {
                write!(f, "fragment total {got} != stream total {expected}")
            }
            AssembleError::Reassembly(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AssembleError {}

impl PacketAssembler {
    /// An assembler for a packet split into `frag_total` fragments.
    ///
    /// # Panics
    ///
    /// Panics if `frag_total == 0` (decode rejects such frames first).
    pub fn new(frag_total: u16) -> Self {
        PacketAssembler {
            frag_total,
            inner: Reassembly::new(u32::from(frag_total)),
        }
    }

    /// Accepts one fragment; returns the reassembled payload once the last
    /// fragment lands.
    pub fn accept(&mut self, frame: WireFrame) -> Result<Option<Bytes>, AssembleError> {
        if frame.frag_total != self.frag_total {
            return Err(AssembleError::FragTotalMismatch {
                expected: self.frag_total,
                got: frame.frag_total,
            });
        }
        self.inner
            .accept(optimcast_netsim::packet::Packet {
                index: u32::from(frame.frag),
                total: u32::from(self.frag_total),
                payload: frame.payload,
            })
            .map_err(AssembleError::Reassembly)?;
        if self.inner.is_complete() {
            let done = std::mem::replace(&mut self.inner, Reassembly::new(1));
            Ok(Some(done.assemble()))
        } else {
            Ok(None)
        }
    }

    /// Fragments received so far.
    pub fn received(&self) -> u32 {
        self.inner.received()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> WireFrame {
        WireFrame {
            stream: 3,
            epoch: 1,
            packet: 9,
            attempt: 2,
            from_rank: 4,
            frag: 0,
            frag_total: 1,
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let f = WireFrame {
            stream: u32::MAX,
            epoch: 7,
            packet: 12345,
            attempt: 3,
            from_rank: 63,
            frag: 5,
            frag_total: 9,
            payload: Bytes::from(&b"hello multicast"[..]),
        };
        let buf = f.encode().unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 15);
        assert_eq!(WireFrame::decode(&buf).unwrap(), f);
    }

    #[test]
    fn truncated_and_garbage_are_typed_errors() {
        let buf = frame(b"abc").encode().unwrap();
        assert_eq!(
            WireFrame::decode(&buf[..10]),
            Err(FrameError::TooShort {
                need: HEADER_LEN,
                got: 10
            })
        );
        assert_eq!(
            WireFrame::decode(&buf[..HEADER_LEN + 1]),
            Err(FrameError::LengthMismatch {
                declared: 3,
                got: 1
            })
        );
        let mut extra = buf.clone();
        extra.push(0xAA);
        assert_eq!(
            WireFrame::decode(&extra),
            Err(FrameError::LengthMismatch {
                declared: 3,
                got: 4
            })
        );
        let mut bad = buf;
        bad[0] ^= 0xFF;
        assert!(matches!(
            WireFrame::decode(&bad),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn fragment_reassemble_shuffled() {
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let frames =
            fragment_packet(0, 0, 4, 0, 2, Bytes::from(payload.clone()), HEADER_LEN + 64).unwrap();
        assert_eq!(frames.len(), 1000usize.div_ceil(64));
        let mut shuffled = frames.clone();
        shuffled.reverse();
        shuffled.swap(0, 3);
        let mut asm = PacketAssembler::new(frames[0].frag_total);
        let mut out = None;
        for f in shuffled {
            if let Some(msg) = asm.accept(f).unwrap() {
                out = Some(msg);
            }
        }
        assert_eq!(&*out.expect("complete"), &payload[..]);
    }

    #[test]
    fn empty_payload_is_one_frame() {
        let frames = fragment_packet(0, 0, 0, 0, 0, Bytes::new(), 1500).unwrap();
        assert_eq!(frames.len(), 1);
        let buf = frames[0].encode().unwrap();
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(WireFrame::decode(&buf).unwrap(), frames[0]);
    }

    #[test]
    fn tiny_mtu_rejected() {
        assert_eq!(
            fragment_packet(0, 0, 0, 0, 0, Bytes::from(&[1u8][..]), HEADER_LEN),
            Err(FrameError::MtuTooSmall { mtu: HEADER_LEN })
        );
    }

    #[test]
    fn duplicate_fragment_rejected() {
        let frames =
            fragment_packet(0, 0, 0, 0, 0, Bytes::from(vec![5u8; 100]), HEADER_LEN + 40).unwrap();
        let mut asm = PacketAssembler::new(frames[0].frag_total);
        asm.accept(frames[0].clone()).unwrap();
        assert_eq!(
            asm.accept(frames[0].clone()),
            Err(AssembleError::Reassembly(ReassemblyError::Duplicate {
                index: 0
            }))
        );
    }
}
