//! One multicast over a routed network with a chosen NI architecture and
//! contention model: its configuration ([`RunConfig`]), its per-job result
//! ([`MulticastOutcome`]), and [`run_multicast`], the single-job
//! convenience over [`SimRun`].
//!
//! A run takes a [`MulticastTree`] over ranks, a *binding* from ranks to
//! physical [`HostId`]s (normally produced by
//! `optimcast_topology::ordering::Ordering::arrange`), the packet count, the
//! [`SystemParams`], and a [`RunConfig`]; it returns a
//! [`MulticastOutcome`] with the multicast latency and detailed metrics.
//!
//! ## Timing model
//!
//! * The source host spends `t_s` once transferring the message to its NI
//!   (smart NI), or `t_s` *per child send operation* (conventional NI).
//! * Each NI has an independent **send unit** and **receive unit**. A send
//!   occupies the send unit from dispatch until *release*: under
//!   [`NiTiming::Handshake`] (default) release happens when the receiving
//!   NI finishes receiving the packet — successive sends are then exactly
//!   one paper *step* (`t_send + t_prop + t_recv`) apart, which makes the
//!   contention-free simulator agree with `optimcast-core`'s analytic
//!   schedules to the microsecond; under [`NiTiming::Overlapped`] the send
//!   unit is released after `t_send` (ablation).
//! * The receive unit serializes arrivals, `t_recv` each.
//! * Under [`ContentionMode::Wormhole`], a transmission holds every directed
//!   channel of its route for `t_send + t_prop` starting at dispatch; if any
//!   channel is still held the worm stalls the sending NI until the route is
//!   free (head-of-line blocking, conservative wormhole).
//! * Each destination's host spends `t_r` after its NI has received the last
//!   packet; the multicast latency is the latest such completion.

use crate::error::SimError;
use crate::workload::{MulticastJob, SimRun, WorkloadConfig};
use optimcast_core::params::SystemParams;
use optimcast_core::schedule::ForwardingDiscipline;
use optimcast_core::tree::MulticastTree;
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;

/// Network-interface architecture for a run (paper §2.3 vs §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicKind {
    /// Host processors forward every copy (conventional NI).
    Conventional,
    /// The NI coprocessor forwards packet replicas (smart NI) under the
    /// given discipline (FCFS or FPFS).
    Smart(ForwardingDiscipline),
}

/// Whether transmissions contend for physical channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentionMode {
    /// Infinite network capacity: transfers never block (the paper's
    /// analytic step model).
    Ideal,
    /// Wormhole path reservation: a transfer holds all channels of its
    /// route; overlapping routes serialize.
    Wormhole,
}

/// Send-unit release policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NiTiming {
    /// Release on receiver handshake — one paper step per send (default).
    Handshake,
    /// Release after `t_send` — sender-side pipelining (ablation).
    Overlapped,
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// NI architecture.
    pub nic: NicKind,
    /// Channel contention model.
    pub contention: ContentionMode,
    /// Send-unit release policy.
    pub timing: NiTiming,
}

impl Default for RunConfig {
    /// The paper's evaluation setup: smart FPFS NI, wormhole contention,
    /// step-accurate handshake timing.
    fn default() -> Self {
        RunConfig {
            nic: NicKind::Smart(ForwardingDiscipline::Fpfs),
            contention: ContentionMode::Wormhole,
            timing: NiTiming::Handshake,
        }
    }
}

impl From<RunConfig> for WorkloadConfig {
    /// The workload-level half of a single-job configuration (the NI kind
    /// is per job); every other field keeps its default.
    fn from(config: RunConfig) -> Self {
        WorkloadConfig {
            contention: config.contention,
            timing: config.timing,
            ..WorkloadConfig::default()
        }
    }
}

/// Results and metrics of one simulated multicast.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MulticastOutcome {
    /// Multicast latency in µs: the latest destination-host completion.
    pub latency_us: f64,
    /// Per-rank host completion time (µs); 0 for the source.
    pub host_done_us: Vec<f64>,
    /// Per-rank time the NI finished receiving the last packet (µs); 0 for
    /// the source.
    pub ni_last_recv_us: Vec<f64>,
    /// Total time senders spent stalled on busy channels (µs).
    pub channel_wait_us: f64,
    /// Number of sends that found at least one busy channel.
    pub blocked_sends: u64,
    /// Total packet transmissions performed.
    pub total_sends: u64,
    /// Per-rank maximum number of packets resident in the NI forwarding
    /// buffer (smart NIs only; zeros under the conventional NI).
    pub max_ni_buffer: Vec<u32>,
}

/// Simulates one multicast and returns its outcome.
///
/// `binding[rank]` is the physical host of tree rank `rank`; `binding[0]` is
/// the source. This is a one-job [`SimRun`] with no options; all
/// analytic-exactness tests in this module therefore validate the workload
/// engine too. Callers that need memoized route tables, fault injection,
/// an observer, or the run's effort counters (`events`, `counters` of
/// [`WorkloadOutcome`](crate::workload::WorkloadOutcome)) drive [`SimRun`]
/// directly.
///
/// # Errors
///
/// Returns a [`SimError`] if `m == 0`, the binding length differs from the
/// tree size, a bound host is out of range, or the binding repeats a host.
pub fn run_multicast<N: Network>(
    net: &N,
    tree: &MulticastTree,
    binding: &[HostId],
    m: u32,
    params: &SystemParams,
    config: RunConfig,
) -> Result<MulticastOutcome, SimError> {
    let job = MulticastJob {
        nic: config.nic,
        ..MulticastJob::fpfs(tree.clone(), binding.to_vec(), m)
    };
    let wl = SimRun::new(net, std::slice::from_ref(&job), params, config.into()).run()?;
    Ok(wl.jobs.into_iter().next().expect("one job in, one out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_core::builders::{binomial_tree, kbinomial_tree, linear_tree};
    use optimcast_core::latency::{conventional_latency_us, smart_latency_us};
    use optimcast_core::schedule::{fcfs_schedule, fpfs_schedule};
    use optimcast_core::tree::Rank;
    use optimcast_topology::cube::CubeNetwork;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    fn params() -> SystemParams {
        SystemParams::paper_1997()
    }

    fn smart_ideal(disc: ForwardingDiscipline) -> RunConfig {
        RunConfig {
            nic: NicKind::Smart(disc),
            contention: ContentionMode::Ideal,
            timing: NiTiming::Handshake,
        }
    }

    /// A single-switch network never contends beyond NI serialization, so
    /// the simulator must match the analytic model exactly.
    fn crossbar(hosts: u32) -> IrregularNetwork {
        IrregularNetwork::generate(
            IrregularConfig {
                switches: 1,
                ports: hosts,
                hosts,
            },
            0,
        )
    }

    fn identity_binding(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn matches_analytic_fpfs_exactly() {
        let net = crossbar(16);
        for k in 1..=4u32 {
            for m in [1u32, 2, 5, 8] {
                let tree = kbinomial_tree(16, k);
                let sched = fpfs_schedule(&tree, m);
                let out = run_multicast(
                    &net,
                    &tree,
                    &identity_binding(16),
                    m,
                    &params(),
                    smart_ideal(ForwardingDiscipline::Fpfs),
                )
                .unwrap();
                let analytic = smart_latency_us(&sched, &params());
                assert!(
                    (out.latency_us - analytic).abs() < 1e-6,
                    "k={k} m={m}: sim {} vs analytic {analytic}",
                    out.latency_us
                );
                // Per-rank NI receive times match the schedule too.
                for r in 1..16u32 {
                    let expect = params().t_s
                        + f64::from(sched.message_completion(Rank(r))) * params().t_step();
                    assert!(
                        (out.ni_last_recv_us[r as usize] - expect).abs() < 1e-6,
                        "k={k} m={m} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_analytic_fcfs_exactly() {
        let net = crossbar(12);
        for m in [1u32, 3, 6] {
            let tree = binomial_tree(12);
            let sched = fcfs_schedule(&tree, m);
            let out = run_multicast(
                &net,
                &tree,
                &identity_binding(12),
                m,
                &params(),
                smart_ideal(ForwardingDiscipline::Fcfs),
            )
            .unwrap();
            let analytic = smart_latency_us(&sched, &params());
            assert!(
                (out.latency_us - analytic).abs() < 1e-6,
                "m={m}: sim {} vs analytic {analytic}",
                out.latency_us
            );
        }
    }

    #[test]
    fn matches_analytic_conventional_exactly() {
        let net = crossbar(8);
        for m in [1u32, 2, 4] {
            let tree = binomial_tree(8);
            let out = run_multicast(
                &net,
                &tree,
                &identity_binding(8),
                m,
                &params(),
                RunConfig {
                    nic: NicKind::Conventional,
                    contention: ContentionMode::Ideal,
                    timing: NiTiming::Handshake,
                },
            )
            .unwrap();
            let analytic = conventional_latency_us(&tree, m, &params());
            assert!(
                (out.latency_us - analytic).abs() < 1e-6,
                "m={m}: sim {} vs analytic {analytic}",
                out.latency_us
            );
        }
    }

    #[test]
    fn fig5_step_counts_in_microseconds() {
        // Paper Fig. 5: binomial = 6 steps, linear = 5 steps (m = 3, 3 dest).
        let net = crossbar(4);
        let p = params();
        let run = |tree| {
            run_multicast(
                &net,
                &tree,
                &identity_binding(4),
                3,
                &p,
                smart_ideal(ForwardingDiscipline::Fpfs),
            )
            .unwrap()
            .latency_us
        };
        assert!((run(binomial_tree(4)) - (12.5 + 30.0 + 12.5)).abs() < 1e-6);
        assert!((run(linear_tree(4)) - (12.5 + 25.0 + 12.5)).abs() < 1e-6);
    }

    #[test]
    fn smart_beats_conventional_in_sim() {
        let net = crossbar(16);
        let tree = binomial_tree(16);
        let smart = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            4,
            &params(),
            smart_ideal(ForwardingDiscipline::Fpfs),
        )
        .unwrap();
        let conv = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            4,
            &params(),
            RunConfig {
                nic: NicKind::Conventional,
                contention: ContentionMode::Ideal,
                timing: NiTiming::Handshake,
            },
        )
        .unwrap();
        assert!(smart.latency_us < conv.latency_us);
    }

    #[test]
    fn wormhole_equals_ideal_without_conflicts() {
        // On a crossbar (single switch), distinct tree edges share only
        // injection channels of a common sender, which NI serialization
        // already spaces out — wormhole adds no delay.
        let net = crossbar(16);
        let tree = kbinomial_tree(16, 2);
        let ideal = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            4,
            &params(),
            smart_ideal(ForwardingDiscipline::Fpfs),
        )
        .unwrap();
        let worm = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            4,
            &params(),
            RunConfig {
                contention: ContentionMode::Wormhole,
                ..smart_ideal(ForwardingDiscipline::Fpfs)
            },
        )
        .unwrap();
        assert_eq!(worm.blocked_sends, 0);
        assert!((worm.latency_us - ideal.latency_us).abs() < 1e-9);
    }

    #[test]
    fn wormhole_never_faster_than_ideal() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 5);
        let tree = kbinomial_tree(24, 2);
        let binding: Vec<HostId> = (0..24).map(|i| HostId(i * 2)).collect();
        for disc in [ForwardingDiscipline::Fpfs, ForwardingDiscipline::Fcfs] {
            let ideal =
                run_multicast(&net, &tree, &binding, 6, &params(), smart_ideal(disc)).unwrap();
            let worm = run_multicast(
                &net,
                &tree,
                &binding,
                6,
                &params(),
                RunConfig {
                    contention: ContentionMode::Wormhole,
                    ..smart_ideal(disc)
                },
            )
            .unwrap();
            assert!(worm.latency_us >= ideal.latency_us - 1e-9);
        }
    }

    #[test]
    fn buffer_occupancy_fcfs_vs_fpfs() {
        // §3.3.2: an FPFS intermediate node holds at most a couple of
        // packets; FCFS holds up to the whole message.
        let net = crossbar(16);
        let tree = binomial_tree(16);
        let m = 8;
        let inner = tree.root_children()[0]; // 3 children
        let fpfs = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            m,
            &params(),
            smart_ideal(ForwardingDiscipline::Fpfs),
        )
        .unwrap();
        let fcfs = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            m,
            &params(),
            smart_ideal(ForwardingDiscipline::Fcfs),
        )
        .unwrap();
        assert!(fpfs.max_ni_buffer[inner.index()] <= 2);
        assert_eq!(fcfs.max_ni_buffer[inner.index()], m);
    }

    #[test]
    fn overlapped_timing_is_no_slower() {
        let net = crossbar(16);
        let tree = kbinomial_tree(16, 3);
        let hs = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            4,
            &params(),
            smart_ideal(ForwardingDiscipline::Fpfs),
        )
        .unwrap();
        let ov = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            4,
            &params(),
            RunConfig {
                timing: NiTiming::Overlapped,
                ..smart_ideal(ForwardingDiscipline::Fpfs)
            },
        )
        .unwrap();
        assert!(ov.latency_us <= hs.latency_us + 1e-9);
        assert!(ov.latency_us < hs.latency_us, "t_send < t_step must help");
    }

    #[test]
    fn works_on_cubes() {
        let net = CubeNetwork::new(2, 4);
        let tree = binomial_tree(16);
        let out = run_multicast(
            &net,
            &tree,
            &identity_binding(16),
            2,
            &params(),
            RunConfig::default(),
        )
        .unwrap();
        // Hypercube id-order binomial multicast is contention-free.
        assert_eq!(out.blocked_sends, 0);
        let sched = fpfs_schedule(&tree, 2);
        let analytic = smart_latency_us(&sched, &params());
        assert!((out.latency_us - analytic).abs() < 1e-6);
    }

    #[test]
    fn deterministic_runs() {
        let net = IrregularNetwork::generate(IrregularConfig::default(), 8);
        let tree = kbinomial_tree(40, 2);
        let binding: Vec<HostId> = (0..40).map(HostId).collect();
        let a = run_multicast(&net, &tree, &binding, 8, &params(), RunConfig::default()).unwrap();
        let b = run_multicast(&net, &tree, &binding, 8, &params(), RunConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn counts_total_sends() {
        let net = crossbar(8);
        let tree = binomial_tree(8);
        let out = run_multicast(
            &net,
            &tree,
            &identity_binding(8),
            5,
            &params(),
            smart_ideal(ForwardingDiscipline::Fpfs),
        )
        .unwrap();
        assert_eq!(out.total_sends, 7 * 5);
    }

    #[test]
    fn singleton_multicast() {
        let net = crossbar(2);
        let tree = optimcast_core::tree::MulticastTree::singleton();
        let out = run_multicast(
            &net,
            &tree,
            &[HostId(0)],
            3,
            &params(),
            RunConfig::default(),
        )
        .unwrap();
        assert!((out.latency_us - 25.0).abs() < 1e-9);
        assert_eq!(out.total_sends, 0);
    }

    #[test]
    fn duplicate_binding_is_an_error() {
        let net = crossbar(4);
        let tree = linear_tree(3);
        let err = run_multicast(
            &net,
            &tree,
            &[HostId(0), HostId(1), HostId(1)],
            1,
            &params(),
            RunConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::DuplicateHost {
                job: 0,
                host: HostId(1)
            }
        );
        assert!(err.to_string().contains("bound twice"));
    }

    #[test]
    fn short_binding_is_an_error() {
        let net = crossbar(4);
        let tree = linear_tree(3);
        let err = run_multicast(
            &net,
            &tree,
            &[HostId(0)],
            1,
            &params(),
            RunConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::BindingMismatch {
                job: 0,
                bound: 1,
                ranks: 3
            }
        );
        assert!(err.to_string().contains("cover every tree rank"));
    }
}

#[cfg(test)]
mod doc_like_tests {
    use super::*;
    use optimcast_core::builders::binomial_tree;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};
    use optimcast_topology::ordering::cco;

    /// The README/quickstart pipeline as a test: generate the paper's
    /// platform, order with CCO, pick the Theorem-3 tree, simulate.
    #[test]
    fn end_to_end_quickstart_pipeline() {
        use optimcast_core::optimal::optimal_k;
        use optimcast_topology::graph::HostId;
        let net = IrregularNetwork::generate(IrregularConfig::default(), 42);
        let ordering = cco(&net);
        let params = SystemParams::paper_1997();
        let dests: Vec<HostId> = (1..32).map(HostId).collect();
        let chain = ordering.arrange(HostId(0), &dests);
        let m = params.packets_for(1024);
        let k = optimal_k(chain.len() as u64, m).k;
        let tree = optimcast_core::builders::kbinomial_tree(chain.len() as u32, k);
        let out = run_multicast(&net, &tree, &chain, m, &params, RunConfig::default()).unwrap();
        assert!(out.latency_us > 0.0);
        assert_eq!(out.total_sends, 31 * u64::from(m));
    }

    /// Outcomes serialize (the figures pipeline depends on it).
    #[test]
    fn outcome_fields_are_consistent() {
        let net = IrregularNetwork::generate(
            IrregularConfig {
                switches: 1,
                ports: 8,
                hosts: 8,
            },
            0,
        );
        let tree = binomial_tree(8);
        let binding: Vec<_> = (0..8).map(optimcast_topology::graph::HostId).collect();
        let out = run_multicast(
            &net,
            &tree,
            &binding,
            2,
            &SystemParams::paper_1997(),
            RunConfig::default(),
        )
        .unwrap();
        // latency is the max host completion.
        let max = out.host_done_us.iter().copied().fold(0.0f64, f64::max);
        assert_eq!(out.latency_us, max);
        // NI receive always precedes host completion by exactly t_r.
        for r in 1..8 {
            assert!((out.host_done_us[r] - out.ni_last_recv_us[r] - 12.5).abs() < 1e-9);
        }
    }
}
