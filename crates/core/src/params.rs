//! System and technological parameters (paper §5.2).
//!
//! The paper evaluates with parameters "representing the current trend in
//! technology" (1997): host software start-up `t_s = 12.5 µs`, host receive
//! overhead `t_r = 12.5 µs`, 64-byte packets, NI send overhead
//! `t_send = 3.0 µs` and NI receive overhead `t_recv = 2.0 µs`. One *step* —
//! the transmission of a packet from one NI to another — therefore costs
//! `t_step = t_send + t_prop + t_recv`, with propagation folded into the
//! constants (wormhole networks make it distance-insensitive).

/// Timing and sizing parameters of the modelled system.
///
/// All times are in microseconds. The [`Default`] instance is the paper's
/// §5.2 configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// Software start-up overhead at the source host processor (`t_s`), µs.
    pub t_s: f64,
    /// Software receive overhead at each destination host processor (`t_r`), µs.
    pub t_r: f64,
    /// Overhead at the network interface for sending one packet (`t_send`), µs.
    pub t_send: f64,
    /// Overhead at the network interface for receiving one packet (`t_recv`), µs.
    pub t_recv: f64,
    /// Wire/propagation time per packet, µs. The paper folds this into
    /// `t_step`; we keep it explicit (default 0) so the simulator can model
    /// per-hop costs.
    pub t_prop: f64,
    /// Maximum packet payload size in bytes (the fixed packet size the
    /// network dictates).
    pub packet_bytes: u32,
}

impl Default for SystemParams {
    fn default() -> Self {
        Self::paper_1997()
    }
}

impl SystemParams {
    /// The exact parameter set of the paper's §5.2.
    pub const fn paper_1997() -> Self {
        SystemParams {
            t_s: 12.5,
            t_r: 12.5,
            t_send: 3.0,
            t_recv: 2.0,
            t_prop: 0.0,
            packet_bytes: 64,
        }
    }

    /// The cost of one *step*: NI-to-NI transmission of a single packet
    /// (`t_send + t_prop + t_recv`), µs.
    pub fn t_step(&self) -> f64 {
        self.t_send + self.t_prop + self.t_recv
    }

    /// Number of fixed-size packets needed for a `message_bytes`-byte
    /// message (at least 1: a zero-byte multicast still sends a header).
    pub fn packets_for(&self, message_bytes: u64) -> u32 {
        debug_assert!(self.packet_bytes > 0, "packet size must be positive");
        let per = u64::from(self.packet_bytes);
        let n = message_bytes.div_ceil(per).max(1);
        u32::try_from(n).expect("message produces more than u32::MAX packets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = SystemParams::default();
        assert_eq!(p.t_s, 12.5);
        assert_eq!(p.t_r, 12.5);
        assert_eq!(p.t_send, 3.0);
        assert_eq!(p.t_recv, 2.0);
        assert_eq!(p.packet_bytes, 64);
        assert!((p.t_step() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn packetization_rounds_up() {
        let p = SystemParams::default();
        assert_eq!(p.packets_for(0), 1, "empty message is one header packet");
        assert_eq!(p.packets_for(1), 1);
        assert_eq!(p.packets_for(64), 1);
        assert_eq!(p.packets_for(65), 2);
        assert_eq!(p.packets_for(128), 2);
        assert_eq!(p.packets_for(129), 3);
        assert_eq!(p.packets_for(64 * 32), 32);
    }

    #[test]
    fn bytes_for_packets_roundtrip() {
        let p = SystemParams::default();
        for m in 1..=64 {
            assert_eq!(p.packets_for(u64::from(m) * u64::from(p.packet_bytes)), m);
        }
    }

    #[test]
    fn t_step_includes_propagation() {
        let p = SystemParams {
            t_prop: 1.5,
            ..SystemParams::default()
        };
        assert!((p.t_step() - 6.5).abs() < 1e-12);
    }
}
