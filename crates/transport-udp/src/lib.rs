//! # optimcast-transport-udp
//!
//! The real-wire backend for the optimcast [`Transport`] abstraction:
//! the same k-binomial trees and FPFS schedules the paper analyses and the
//! simulator executes, driven over `std::net::UdpSocket` datagrams.
//!
//! Three layers:
//!
//! * [`frame`] — the MTU-aware wire codec: a 30-byte little-endian header
//!   carrying the transmission identity (`stream`, `epoch`, `packet`,
//!   `attempt`, `from_rank`) plus fragmentation/reassembly built on the
//!   netsim packetization substrate;
//! * [`udp`] — [`UdpTransport`], implementing the netsim `Transport` trait
//!   with per-peer unicast (software multicast along the tree),
//!   bounded-timeout receive loops and malformed-datagram accounting;
//! * [`runner`] — [`WirePlan`] / [`run_source`] / [`run_sink`] /
//!   [`loopback_demo`]: the schedule-driven roles whose per-receiver
//!   delivery order is checked against [`Schedule::arrival_order`] — the
//!   sim-vs-wire parity contract.
//!
//! Std-only by design: the build environment is offline, so everything
//! here rests on `std::net` and the workspace's own crates.
//!
//! [`Transport`]: optimcast_netsim::transport::Transport
//! [`Schedule::arrival_order`]: optimcast_core::schedule::Schedule::arrival_order

#![warn(unreachable_pub)]

pub mod frame;
pub mod runner;
pub mod udp;

pub use frame::{
    fragment_packet, AssembleError, FrameError, PacketAssembler, WireFrame, HEADER_LEN, MAGIC,
};
pub use runner::{loopback_demo, run_sink, run_source, SinkReport, WirePlan};
pub use udp::{UdpTransport, DEFAULT_MTU};
