//! Typed simulation errors.
//!
//! Workload validation failures — malformed bindings, impossible
//! configurations — are reported as [`SimError`] values from
//! [`crate::workload::SimRun`] / [`crate::run_multicast`] instead of panics, so
//! callers embedding the simulator (CLIs, services, property tests) can
//! handle bad inputs without unwinding. Internal invariant violations
//! (scheduling into the past, an event for a non-existent rank) still panic:
//! they indicate simulator bugs, not caller mistakes.

use crate::observe::SimCounters;
use optimcast_core::tree::Rank;
use optimcast_topology::graph::HostId;

/// A rejected simulation input.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The workload contains no jobs.
    EmptyWorkload,
    /// A job's message has zero packets.
    ZeroPackets {
        /// Offending job index.
        job: usize,
    },
    /// A job's binding length differs from its tree size.
    BindingMismatch {
        /// Offending job index.
        job: usize,
        /// Hosts in the binding.
        bound: usize,
        /// Ranks in the tree.
        ranks: usize,
    },
    /// A job starts before time zero.
    NegativeStart {
        /// Offending job index.
        job: usize,
        /// The (negative) start time in µs.
        start_us: f64,
    },
    /// A personalized (scatter) payload was paired with a conventional NI,
    /// which cannot relay per-destination packets.
    PersonalizedNeedsSmartNic {
        /// Offending job index.
        job: usize,
    },
    /// A binding names a host outside the network.
    HostOutOfRange {
        /// Offending job index.
        job: usize,
        /// The out-of-range host.
        host: HostId,
        /// Number of hosts in the network.
        hosts: usize,
    },
    /// A binding names the same host for two ranks of one job.
    DuplicateHost {
        /// Offending job index.
        job: usize,
        /// The host bound twice.
        host: HostId,
    },
    /// A prerouted run supplied a route-table count that does not match
    /// its job count.
    RouteCountMismatch {
        /// Jobs in the workload.
        jobs: usize,
        /// Route tables supplied.
        routes: usize,
    },
    /// A prerouted run supplied a route table whose rank count differs
    /// from its job's tree size.
    RouteTableMismatch {
        /// Offending job index.
        job: usize,
        /// Ranks the table covers.
        covered: usize,
        /// Ranks in the job's tree.
        ranks: usize,
    },
    /// A fault plan failed validation (probability out of range, zero
    /// attempt budget, negative times).
    InvalidFaultPlan {
        /// What was wrong.
        reason: &'static str,
    },
    /// The NI model failed validation (zero send units, zero queue bound)
    /// or the workload cannot run on it (stop-and-wait reliability needs a
    /// single send unit; windowed ARQ supports only replicated smart-NI
    /// jobs).
    InvalidNiModel {
        /// What was wrong.
        reason: &'static str,
    },
    /// The fault plan's crash schedule kills a job's source host. A crashed
    /// source has nothing to send and nothing to repair around, so the plan
    /// is rejected up front instead of silently abandoning every
    /// destination mid-run.
    SourceCrashed {
        /// Offending job index.
        job: usize,
        /// The job's source host, present in the crash schedule.
        host: HostId,
    },
    /// A replicated smart-NI job's tree gives one rank more children than
    /// the simulator's per-packet copy counter holds (`u16::MAX`). Only a
    /// tree of more than 65,536 ranks can; the paper's k-binomial trees
    /// give every rank at most ⌈log₂ n⌉ children.
    FanOutTooWide {
        /// Offending job index.
        job: usize,
        /// The first rank with too many children.
        rank: Rank,
        /// Its number of children.
        children: u32,
    },
    /// A non-trivial fault plan was paired with overlapped NI timing.
    /// Reliable delivery is stop-and-wait: the sender must hold each
    /// packet's buffer copy until the receiver's acknowledgement, which is
    /// exactly handshake timing — overlapped release would free the copy
    /// before a retransmission could need it.
    FaultsNeedHandshakeTiming,
    /// The run terminated with destinations never reached: the fault plan's
    /// losses and crashes exceeded what the reliability layer could recover
    /// from, or (with or without a plan) a job's tree leaves a rank
    /// unattached to the source. Carries the unreached `(job, rank)` set and
    /// the run's counters so callers can report drops/retransmits even for
    /// failed runs.
    DeliveryFailed {
        /// Every `(job, rank)` whose host never completed, in job-then-rank
        /// order.
        unreached: Vec<(u32, Rank)>,
        /// Structured counters of the failed run (boxed: the variant would
        /// otherwise dominate the enum's size).
        counters: Box<SimCounters>,
    },
}

// NegativeStart carries an f64 only for diagnostics; errors are still
// comparable enough for tests via the derived PartialEq.
impl Eq for SimError {}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyWorkload => write!(f, "a workload has at least one job"),
            SimError::ZeroPackets { job } => {
                write!(f, "job {job}: a message has at least one packet")
            }
            SimError::BindingMismatch { job, bound, ranks } => write!(
                f,
                "job {job}: binding must cover every tree rank ({bound} hosts for {ranks} ranks)"
            ),
            SimError::NegativeStart { job, start_us } => {
                write!(f, "job {job}: negative start time ({start_us} us)")
            }
            SimError::PersonalizedNeedsSmartNic { job } => {
                write!(
                    f,
                    "job {job}: personalized payloads require smart NI support"
                )
            }
            SimError::HostOutOfRange { job, host, hosts } => {
                write!(f, "job {job}: host {host} not in network ({hosts} hosts)")
            }
            SimError::DuplicateHost { job, host } => {
                write!(f, "job {job}: host {host} bound twice")
            }
            SimError::RouteCountMismatch { jobs, routes } => {
                write!(
                    f,
                    "expected one route table per job ({jobs} job(s), {routes} table(s))"
                )
            }
            SimError::RouteTableMismatch {
                job,
                covered,
                ranks,
            } => write!(
                f,
                "job {job}: route table must cover every tree rank ({covered} ranks for {ranks})"
            ),
            SimError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimError::InvalidNiModel { reason } => {
                write!(f, "invalid NI model: {reason}")
            }
            SimError::SourceCrashed { job, host } => {
                write!(
                    f,
                    "job {job}: the crash schedule kills the source host {host}; \
                     a crashed source cannot be repaired around"
                )
            }
            SimError::FanOutTooWide {
                job,
                rank,
                children,
            } => write!(
                f,
                "job {job}: {rank} has {children} children; a replicated rank \
                 forwards to at most {} children",
                u16::MAX
            ),
            SimError::FaultsNeedHandshakeTiming => {
                write!(
                    f,
                    "fault injection requires handshake NI timing (stop-and-wait \
                     reliable delivery holds each buffer copy until acknowledgement)"
                )
            }
            SimError::DeliveryFailed { unreached, .. } => {
                let preview: Vec<String> = unreached
                    .iter()
                    .take(8)
                    .map(|(j, r)| format!("job {j}/{r}"))
                    .collect();
                let ellipsis = if unreached.len() > 8 { ", ..." } else { "" };
                write!(
                    f,
                    "delivery failed: {} destination(s) unreached [{}{}]",
                    unreached.len(),
                    preview.join(", "),
                    ellipsis
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_job_and_cause() {
        let cases: Vec<(SimError, &str)> = vec![
            (SimError::EmptyWorkload, "at least one job"),
            (SimError::ZeroPackets { job: 2 }, "job 2"),
            (
                SimError::BindingMismatch {
                    job: 0,
                    bound: 1,
                    ranks: 3,
                },
                "cover every tree rank",
            ),
            (
                SimError::NegativeStart {
                    job: 1,
                    start_us: -4.0,
                },
                "negative start",
            ),
            (
                SimError::PersonalizedNeedsSmartNic { job: 0 },
                "require smart NI",
            ),
            (
                SimError::HostOutOfRange {
                    job: 0,
                    host: HostId(9),
                    hosts: 4,
                },
                "not in network",
            ),
            (
                SimError::DuplicateHost {
                    job: 0,
                    host: HostId(1),
                },
                "bound twice",
            ),
            (
                SimError::RouteCountMismatch { jobs: 3, routes: 1 },
                "one route table per job",
            ),
            (
                SimError::RouteTableMismatch {
                    job: 1,
                    covered: 5,
                    ranks: 8,
                },
                "job 1: route table must cover",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
        }
    }

    #[test]
    fn fault_errors_name_the_cause() {
        let invalid = SimError::InvalidFaultPlan {
            reason: "drop_rate must lie in [0, 1)",
        };
        assert!(invalid.to_string().contains("drop_rate"));
        let ni = SimError::InvalidNiModel {
            reason: "send_units must be at least 1",
        };
        assert!(ni.to_string().contains("invalid NI model"), "{ni}");
        assert!(ni.to_string().contains("send_units"), "{ni}");
        assert!(SimError::FaultsNeedHandshakeTiming
            .to_string()
            .contains("handshake"));
        let wide = SimError::FanOutTooWide {
            job: 0,
            rank: Rank(0),
            children: 65_536,
        };
        assert!(wide.to_string().contains("65536 children"), "{wide}");
        let src = SimError::SourceCrashed {
            job: 1,
            host: HostId(0),
        };
        assert!(src.to_string().contains("source host"), "{src}");
        let failed = SimError::DeliveryFailed {
            unreached: vec![(0, Rank(3)), (0, Rank(7))],
            counters: Box::default(),
        };
        let msg = failed.to_string();
        assert!(msg.contains("2 destination(s) unreached"), "{msg}");
        assert!(msg.contains("job 0/r3"), "{msg}");
    }
}
