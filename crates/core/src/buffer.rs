//! Buffer-requirement analysis of FCFS vs FPFS smart-NI forwarding
//! (paper §3.3.2).
//!
//! Consider an intermediate node with `k` children forwarding an `m`-packet
//! multicast, with `t_sq` the time to push one packet copy from the NI queue
//! to the network adaptor, and best-case zero delay between incoming packets.
//!
//! * Under **FCFS** the `j`-th packet (1-based) must stay buffered until the
//!   first child has received packets `j..=m` (that is `m − j + 1` sends),
//!   the middle `k − 2` children have received all `m` packets, and the last
//!   child has received packets `1..=j`:
//!
//!   ```text
//!   c_c(j) = ((m − j + 1) + (k − 2)·m + j) · t_sq = ((k − 1)·m + 1) · t_sq
//!   ```
//!
//!   — independent of `j`, and linear in the *message* length.
//!
//! * Under **FPFS** a packet leaves the buffer as soon as its `k` copies are
//!   out: `c_f = k · t_sq`, independent of the message length.
//!
//! Hence `c_f ≤ c_c` always (equality only for `m = 1`), which is the paper's
//! argument for FPFS being the practical implementation. The functions below
//! expose both the closed forms and a worst-case *capacity* estimate (how
//! many packets must be resident simultaneously), and
//! [`BufferAnalysis`] packages the comparison for sweeps.

/// FCFS residency time of any one packet at an intermediate node with `k`
/// children and an `m`-packet message, in units of `t_sq`
/// (`c_c = (k−1)·m + 1`). For `k = 1` this degenerates to a single copy's
/// residency of 1, matching FPFS.
///
/// # Panics
///
/// Panics if `k == 0` or `m == 0`.
pub fn fcfs_buffer_steps(k: u32, m: u32) -> u64 {
    assert!(k >= 1, "an intermediate node has at least one child");
    assert!(m >= 1, "a message has at least one packet");
    u64::from(k - 1) * u64::from(m) + 1
}

/// FPFS residency time of any one packet at an intermediate node with `k`
/// children, in units of `t_sq` (`c_f = k`), independent of message length.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn fpfs_buffer_steps(k: u32, _m: u32) -> u64 {
    assert!(k >= 1, "an intermediate node has at least one child");
    u64::from(k)
}

/// Worst-case number of packets simultaneously resident at the NI of an
/// intermediate node (zero inter-arrival delay, arrivals one per `t_sq`).
///
/// A packet arriving at time `j` (in `t_sq` units) leaves at `j + c`, where
/// `c` is the residency time; with one arrival per unit, the steady-state
/// occupancy is `min(c, m)` packets.
fn resident_packets(residency: u64, m: u32) -> u64 {
    residency.min(u64::from(m))
}

/// Side-by-side buffer comparison for one `(k, m)` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferAnalysis {
    /// Children of the intermediate node.
    pub k: u32,
    /// Packets in the message.
    pub m: u32,
    /// FCFS per-packet residency (`t_sq` units).
    pub fcfs_residency: u64,
    /// FPFS per-packet residency (`t_sq` units).
    pub fpfs_residency: u64,
    /// FCFS worst-case resident packets.
    pub fcfs_capacity: u64,
    /// FPFS worst-case resident packets.
    pub fpfs_capacity: u64,
}

impl BufferAnalysis {
    /// Computes the §3.3.2 comparison for an intermediate node with `k`
    /// children and an `m`-packet message.
    pub fn new(k: u32, m: u32) -> Self {
        let cc = fcfs_buffer_steps(k, m);
        let cf = fpfs_buffer_steps(k, m);
        BufferAnalysis {
            k,
            m,
            fcfs_residency: cc,
            fpfs_residency: cf,
            fcfs_capacity: resident_packets(cc, m),
            fpfs_capacity: resident_packets(cf, m),
        }
    }

    /// Ratio of FCFS to FPFS residency; ≥ 1 always (paper's conclusion).
    pub fn residency_ratio(&self) -> f64 {
        self.fcfs_residency as f64 / self.fpfs_residency as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_formula_independent_of_packet_index() {
        // Derivation check: (m - j + 1) + (k - 2) m + j == (k-1) m + 1 for all j.
        for k in 2..=8u64 {
            for m in 1..=32u64 {
                for j in 1..=m {
                    let per_packet = (m - j + 1) + (k - 2) * m + j;
                    assert_eq!(per_packet, (k - 1) * m + 1);
                    assert_eq!(fcfs_buffer_steps(k as u32, m as u32), (k - 1) * m + 1);
                }
            }
        }
    }

    #[test]
    fn fpfs_never_exceeds_fcfs() {
        for k in 1..=10 {
            for m in 1..=64 {
                assert!(
                    fpfs_buffer_steps(k, m) <= fcfs_buffer_steps(k, m),
                    "k={k} m={m}"
                );
            }
        }
    }

    #[test]
    fn equality_only_at_single_packet_single_child() {
        // c_f = k, c_c = (k-1)m + 1: equal iff k = (k-1)m + 1 iff m = 1 or k = 1.
        for k in 1..=10 {
            for m in 1..=32 {
                let eq = fpfs_buffer_steps(k, m) == fcfs_buffer_steps(k, m);
                assert_eq!(eq, m == 1 || k == 1, "k={k} m={m}");
            }
        }
    }

    #[test]
    fn fpfs_residency_independent_of_m() {
        for k in 1..=8 {
            let r1 = fpfs_buffer_steps(k, 1);
            for m in 2..=64 {
                assert_eq!(fpfs_buffer_steps(k, m), r1);
            }
        }
    }

    #[test]
    fn fcfs_residency_linear_in_m() {
        for k in 2..=8u32 {
            let d1 = fcfs_buffer_steps(k, 2) - fcfs_buffer_steps(k, 1);
            for m in 2..=20 {
                assert_eq!(fcfs_buffer_steps(k, m + 1) - fcfs_buffer_steps(k, m), d1);
            }
            assert_eq!(d1, u64::from(k) - 1);
        }
    }

    #[test]
    fn capacity_bounded_by_message() {
        for k in 1..=8 {
            for m in 1..=32 {
                let a = BufferAnalysis::new(k, m);
                assert!(a.fcfs_capacity <= u64::from(m));
                assert!(a.fpfs_capacity <= u64::from(m));
                assert!(a.fpfs_capacity <= a.fcfs_capacity);
            }
        }
    }

    #[test]
    fn ratio_grows_with_m() {
        let k = 4;
        let mut prev = 0.0;
        for m in 1..=32 {
            let r = BufferAnalysis::new(k, m).residency_ratio();
            assert!(r >= prev, "m={m}");
            prev = r;
        }
        assert!(prev > 5.0, "FCFS should need much more buffering at m=32");
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn zero_children_panics() {
        fcfs_buffer_steps(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_packets_panics() {
        fcfs_buffer_steps(2, 0);
    }
}
