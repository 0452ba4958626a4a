//! Driving a k-binomial multicast over a real transport.
//!
//! The simulator executes a [`Schedule`] against simulated time; this
//! module executes the *same* schedule against a [`Transport`]: the source
//! walks `sends_from_iter(SOURCE)` in step order, and every interior node
//! applies the FPFS forwarding rule — forward each packet to all tree
//! children the moment it completes reassembly. On a clean loopback link
//! (FIFO per socket pair, no loss) the per-receiver completion order must
//! therefore equal [`Schedule::arrival_order`] — the parity contract the
//! sim-vs-wire test and the `wire-smoke` CI job assert.

use crate::udp::UdpTransport;
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::schedule::{fpfs_schedule, Schedule};
use optimcast_core::tree::{MulticastTree, Rank};
use optimcast_netsim::bytes::Bytes;
use optimcast_netsim::transport::{LinkContext, PacketView, Transport, TransportError};
use optimcast_topology::graph::HostId;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One wire run's complete description: the tree, the step schedule, and
/// the deterministic message every participant can independently verify.
#[derive(Debug, Clone)]
pub struct WirePlan {
    /// Participants (source + n-1 destinations).
    pub n: u32,
    /// k-binomial tree parameter.
    pub k: u32,
    /// Packets per message.
    pub m: u32,
    /// Payload bytes per packet (every packet the same size, so packet
    /// boundaries are implied by index).
    pub packet_payload: usize,
    /// Datagram budget per frame, header included.
    pub mtu: usize,
    /// The multicast tree (rank space, source = rank 0).
    pub tree: MulticastTree,
    /// The FPFS step schedule the wire run replays.
    pub schedule: Schedule,
}

impl WirePlan {
    /// Plans an `m`-packet multicast to `n` participants over the
    /// k-binomial tree. `payload_len` is rounded up so the message splits
    /// into exactly `m` equal packets.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `k < 1`, or `m < 1`.
    pub fn new(n: u32, k: u32, m: u32, payload_len: usize, mtu: usize) -> WirePlan {
        assert!(n >= 2, "a multicast needs at least one destination");
        assert!(k >= 1, "k-binomial trees need k >= 1");
        assert!(m >= 1, "a message has at least one packet");
        let tree = kbinomial_tree(n, k);
        let schedule = fpfs_schedule(&tree, m);
        let packet_payload = payload_len.div_ceil(m as usize).max(1);
        WirePlan {
            n,
            k,
            m,
            packet_payload,
            mtu,
            tree,
            schedule,
        }
    }

    /// The full message: a deterministic byte pattern every participant
    /// regenerates locally to verify reassembly without any side channel.
    pub fn message(&self) -> Bytes {
        let len = self.packet_payload * self.m as usize;
        Bytes::from(
            (0..len)
                .map(|i| (i.wrapping_mul(131).wrapping_add(17) % 256) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    /// Zero-copy payload of packet `p`.
    fn packet_payload_of(&self, message: &Bytes, p: u32) -> Bytes {
        let per = self.packet_payload;
        message.slice(p as usize * per..(p as usize + 1) * per)
    }

    /// The predicted per-receiver delivery order (the parity oracle).
    pub fn expected_order(&self, rank: Rank) -> Vec<u32> {
        self.schedule.arrival_order(rank)
    }
}

/// What one sink observed, against what the schedule predicted.
#[derive(Debug, Clone)]
pub struct SinkReport {
    /// The sink's rank.
    pub rank: u32,
    /// Packet indices in first-completion order.
    pub order: Vec<u32>,
    /// [`Schedule::arrival_order`] for this rank.
    pub predicted: Vec<u32>,
    /// The reassembled message matched the plan's deterministic pattern.
    pub message_ok: bool,
    /// The deadline expired before all packets arrived.
    pub timed_out: bool,
}

impl SinkReport {
    /// True when the wire run matched the simulator's prediction exactly:
    /// every packet arrived, in predicted order, with correct bytes.
    pub fn parity(&self) -> bool {
        !self.timed_out && self.message_ok && self.order == self.predicted
    }

    /// One-line JSON rendering for scripting (the CLI prints this).
    pub fn to_json_line(&self) -> String {
        let fmt_order = |v: &[u32]| {
            let items: Vec<String> = v.iter().map(u32::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"rank\": {}, \"order\": {}, \"predicted\": {}, \"message_ok\": {}, \"timed_out\": {}, \"parity\": {}}}",
            self.rank,
            fmt_order(&self.order),
            fmt_order(&self.predicted),
            self.message_ok,
            self.timed_out,
            self.parity()
        )
    }
}

fn link_ctx(from: Rank, to: Rank, now_us: f64) -> LinkContext<'static> {
    LinkContext {
        now_us,
        route: &[],
        from_rank: from.0,
        to_rank: to.0,
    }
}

/// Runs the source role: walk the schedule's root sends in step order,
/// putting each packet on the wire. Returns the number of sends performed.
pub fn run_source(plan: &WirePlan, transport: &mut dyn Transport) -> Result<u32, TransportError> {
    transport.open()?;
    let message = plan.message();
    let mut sent = 0u32;
    for e in plan.schedule.sends_from_iter(Rank::SOURCE) {
        let payload = plan.packet_payload_of(&message, e.packet);
        transport.send(
            HostId(0),
            HostId(e.to.0),
            PacketView {
                stream: 0,
                epoch: 0,
                packet: e.packet,
                attempt: 0,
                payload: &payload,
            },
            link_ctx(Rank::SOURCE, e.to, f64::from(e.step)),
        )?;
        sent += 1;
    }
    Ok(sent)
}

/// Runs one sink role: poll for deliveries until the whole message is in
/// (or `timeout` expires), applying the FPFS rule — each packet is
/// forwarded to all tree children the moment it first completes. Duplicate
/// completions (UDP is at-least-once here) are ignored.
pub fn run_sink(
    plan: &WirePlan,
    rank: Rank,
    transport: &mut dyn Transport,
    timeout: Duration,
) -> Result<SinkReport, TransportError> {
    transport.open()?;
    let m = plan.m as usize;
    let kids = plan.tree.children(rank);
    let mut seen = vec![false; m];
    let mut order: Vec<u32> = Vec::with_capacity(m);
    let mut payloads: Vec<Option<Vec<u8>>> = vec![None; m];
    let deadline = Instant::now() + timeout;
    let mut timed_out = false;
    while order.len() < m {
        let now = Instant::now();
        if now >= deadline {
            timed_out = true;
            break;
        }
        let slice = (deadline - now).min(Duration::from_millis(50));
        // Completions are buffered and forwarded after the poll returns
        // (the transport is busy inside its own receive loop).
        let mut fresh: Vec<(u32, Vec<u8>)> = Vec::new();
        transport.poll_deliveries(slice.as_micros() as u64, &mut |d| {
            if d.stream != 0 || d.epoch != 0 {
                return;
            }
            let p = d.packet as usize;
            if p >= m || seen[p] {
                return;
            }
            seen[p] = true;
            order.push(d.packet);
            payloads[p] = Some(d.payload.to_vec());
            fresh.push((d.packet, d.payload.to_vec()));
        })?;
        for (p, payload) in &fresh {
            for &c in kids {
                transport.send(
                    HostId(rank.0),
                    HostId(c.0),
                    PacketView {
                        stream: 0,
                        epoch: 0,
                        packet: *p,
                        attempt: 0,
                        payload,
                    },
                    link_ctx(rank, c, 0.0),
                )?;
            }
        }
    }
    let message_ok = !timed_out && {
        let expect = plan.message();
        let mut whole: Vec<u8> = Vec::with_capacity(expect.len());
        for p in &payloads {
            match p {
                Some(bytes) => whole.extend_from_slice(bytes),
                None => break,
            }
        }
        whole[..] == *expect
    };
    transport.close()?;
    Ok(SinkReport {
        rank: rank.0,
        order,
        predicted: plan.expected_order(rank),
        message_ok,
        timed_out,
    })
}

/// Single-process loopback demo: one [`UdpTransport`] per rank on an
/// ephemeral `127.0.0.1` port, sinks on threads, source on the caller's
/// thread — the same tree, the same schedule, real datagrams. Returns the
/// sink reports sorted by rank.
pub fn loopback_demo(
    n: u32,
    k: u32,
    m: u32,
    payload_len: usize,
    mtu: usize,
    timeout: Duration,
) -> Result<Vec<SinkReport>, TransportError> {
    let plan = Arc::new(WirePlan::new(n, k, m, payload_len, mtu));
    let mut transports = Vec::with_capacity(n as usize);
    for _ in 0..n {
        transports.push(UdpTransport::bind("127.0.0.1:0")?);
    }
    let peers: Vec<SocketAddr> = transports
        .iter()
        .map(UdpTransport::local_addr)
        .collect::<Result<_, _>>()?;
    for t in &mut transports {
        t.set_peers(peers.clone());
        t.set_mtu(mtu);
    }
    let mut iter = transports.into_iter();
    let mut source = iter.next().expect("n >= 2");
    let handles: Vec<_> = iter
        .enumerate()
        .map(|(i, mut t)| {
            let plan = Arc::clone(&plan);
            std::thread::spawn(move || run_sink(&plan, Rank(i as u32 + 1), &mut t, timeout))
        })
        .collect();
    run_source(&plan, &mut source)?;
    source.close()?;
    let mut reports = Vec::with_capacity(handles.len());
    for h in handles {
        reports.push(h.join().expect("sink thread panicked")?);
    }
    reports.sort_by_key(|r| r.rank);
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_LEN;

    #[test]
    fn plan_rounds_payload_to_packet_multiple() {
        let plan = WirePlan::new(8, 2, 3, 1000, 1400);
        assert_eq!(plan.packet_payload, 334);
        assert_eq!(plan.message().len(), 1002);
        let msg = plan.message();
        let p2 = plan.packet_payload_of(&msg, 2);
        assert_eq!(p2.len(), 334);
        assert_eq!(&*p2, &msg[668..]);
    }

    #[test]
    fn loopback_demo_reaches_parity() {
        let reports = loopback_demo(
            10,
            2,
            4,
            2000,
            HEADER_LEN + 200, // force multi-fragment packets
            Duration::from_secs(20),
        )
        .expect("demo runs");
        assert_eq!(reports.len(), 9);
        for r in &reports {
            assert!(
                r.parity(),
                "rank {} diverged: got {:?}, predicted {:?}, message_ok {}, timed_out {}",
                r.rank,
                r.order,
                r.predicted,
                r.message_ok,
                r.timed_out
            );
        }
    }

    #[test]
    fn sink_report_json_line_shape() {
        let r = SinkReport {
            rank: 3,
            order: vec![0, 1],
            predicted: vec![0, 1],
            message_ok: true,
            timed_out: false,
        };
        assert_eq!(
            r.to_json_line(),
            "{\"rank\": 3, \"order\": [0,1], \"predicted\": [0,1], \"message_ok\": true, \"timed_out\": false, \"parity\": true}"
        );
    }
}
