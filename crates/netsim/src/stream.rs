//! Streaming multicast with backpressure and membership churn.
//!
//! The paper models one fixed `m`-packet message to a fixed group. This
//! module layers the complementary steady-state scenario over the same
//! engine: a **source emits frames** at a configured inter-frame gap, each
//! frame fragmented into MTU-sized packets, through a **bounded source
//! buffer with a drop-oldest policy** when the multicast service lags, to
//! a group whose **members join and leave mid-stream** via the incremental
//! tree splices of [`optimcast_core::membership::Membership`].
//!
//! ## Execution model
//!
//! [`StreamRun`] drives frames through the simulator one at a time: the
//! source serves at most one frame concurrently (its NI send unit is the
//! bottleneck the paper's `t_s`/`t_send` model describes), so frame `i`'s
//! service starts at `max(free_time, emit_i)` where `free_time` is the
//! previous frame's completion. A frame's service is a [`SimRun`] over the
//! *current* membership tree, so every per-packet mechanism — FPFS
//! forwarding, wormhole contention, ARQ — applies unchanged, and a
//! one-frame churn-free stream is bit-identical to the equivalent
//! [`SimRun`] (the differential tests pin this).
//!
//! A **membership epoch** is the span between two applied churn events.
//! The simulator is deterministic and every frame of an epoch is the same
//! multicast (same tree, binding, packet count and configuration), so the
//! epoch is simulated once, at its first served frame. Every later frame of
//! the epoch reuses the stored [`WorkloadOutcome`]: its completion is its
//! service start plus the epoch's latency. Every join and every applied
//! leave ends the epoch; a skipped leave does not.
//!
//! An epoch's run recomputes only what the splice changed, in storage the
//! stream keeps: the FPFS job's tree and binding are overwritten in place,
//! its route table is patched by an [`EpochRoutes`] (only new tree edges
//! are routed), the simulator runs in a [`SimArena`] and writes over the
//! previous epoch's outcome. Once the stream's largest group has been
//! simulated, an epoch allocates nothing
//! (`crates/netsim/tests/zero_alloc.rs` bounds it). The `EpochRoutes` is
//! the arena's: a stream borrows it, forgets the previous stream's table
//! and hands it back, so streams run through one arena route their first
//! epoch in storage an earlier stream grew.
//!
//! ## Drop-oldest backpressure
//!
//! While a frame is in service, newly emitted frames queue in the source
//! buffer. With a bound of `buffer_frames`, admitting a frame to a full
//! buffer evicts the **oldest queued frame** (live streams prefer fresh
//! data over stale data; dropping the newest would let one slow service
//! starve the stream's head indefinitely). A frame's fate is therefore
//! either [`FrameFate::Delivered`] or [`FrameFate::Dropped`] — never both,
//! never neither.
//!
//! ## PRF-deterministic churn
//!
//! Churn is **planned, then executed**: [`churn_plan`] derives every event
//! (time + member) as a pure function of `churn_seed` before the stream
//! starts, so the event sequence is byte-identical at any worker
//! count. Events fire when the stream clock passes them (at the next
//! frame's service start): a present member leaves, an absent one joins,
//! splicing the tree live and in place (`add_rank` for a join,
//! `remove_rank` of the leaving rank for a leave) while preserving the ≤k
//! fan-out bound. Leaves that would reduce the group to the source alone
//! are skipped (counted in [`StreamOutcome::churn_skipped`]).
//!
//! ## Staleness
//!
//! A delivered frame's **staleness** is `completion − emission`: the age
//! of the frame's data by the time the last receiver holds it. Queueing
//! delay under overload is included — that is the metric's point.

use crate::arena::SimArena;
use crate::error::SimError;
use crate::routes::EpochRoutes;
use crate::workload::{MulticastJob, SimRun, WorkloadConfig, WorkloadOutcome};
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::membership::{Membership, MembershipError};
use optimcast_core::params::SystemParams;
use optimcast_rng::{ChaCha8Rng, Rng};
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Shape of one frame stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Bytes per frame (fragmented into MTU-sized packets).
    pub frame_bytes: u32,
    /// MTU in bytes; a frame is `ceil(frame_bytes / mtu_bytes)` packets.
    pub mtu_bytes: u32,
    /// Inter-frame gap at the source (µs); frame `i` is emitted at
    /// `i * gap_us`.
    pub gap_us: f64,
    /// Total frames emitted.
    pub frames: u32,
    /// Source buffer bound in frames; `0` means unbounded. A frame
    /// admitted to a full buffer evicts the oldest queued frame.
    pub buffer_frames: u32,
    /// Number of scheduled membership churn events.
    pub churn_events: u32,
    /// PRF seed the churn plan is derived from.
    pub churn_seed: u64,
    /// Keep every frame's full [`WorkloadOutcome`] in the result (for
    /// differential tests; costs memory on long streams).
    pub keep_frame_outcomes: bool,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            frame_bytes: 256,
            mtu_bytes: 64,
            gap_us: 100.0,
            frames: 16,
            buffer_frames: 0,
            churn_events: 0,
            churn_seed: 1997,
            keep_frame_outcomes: false,
        }
    }
}

/// One scheduled membership toggle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Simulated time the event fires at (µs).
    pub at_us: f64,
    /// The member id toggled: a present member leaves, an absent one
    /// joins.
    pub member: u32,
}

/// The PRF-deterministic churn plan: `churn_events` toggles of non-source
/// members, at times uniform over the stream's emission span, in firing
/// order. A pure function of `(spec, universe)` — byte-identical at any
/// worker count.
pub fn churn_plan(spec: &StreamSpec, universe: u32) -> Vec<ChurnEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.churn_seed);
    let span = spec.gap_us * f64::from(spec.frames);
    let mut plan: Vec<ChurnEvent> = (0..spec.churn_events)
        .map(|_| {
            let tq = rng.bounded_u64(1_000_000);
            ChurnEvent {
                at_us: span * (tq as f64) / 1e6,
                member: rng.gen_range(1..universe),
            }
        })
        .collect();
    // Stable: simultaneous events keep their draw order. `total_cmp` agrees
    // with `partial_cmp` on the finite, non-negative times a valid spec
    // gives, and sorts a NaN from a malformed spec instead of panicking.
    plan.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
    plan
}

/// What became of one emitted frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameFate {
    /// Multicast to every member current at service start.
    Delivered {
        /// When the source began serving the frame (µs).
        service_start_us: f64,
        /// When the last receiver completed (µs).
        completion_us: f64,
        /// Receivers credited (group size minus the source).
        receivers: u32,
    },
    /// Evicted from a full source buffer by a newer frame.
    Dropped {
        /// Emission time of the evicting frame (µs).
        at_us: f64,
    },
}

/// One emitted frame's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// When the source emitted the frame (µs).
    pub emitted_us: f64,
    /// Delivered or dropped.
    pub fate: FrameFate,
}

/// Per-receiver sustained-delivery statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverStats {
    /// Member id (1-based; the source is member 0).
    pub member: u32,
    /// Frames this member received in full.
    pub frames_delivered: u32,
    /// Payload bytes received (`frames_delivered * frame_bytes`).
    pub bytes_delivered: u64,
    /// Sustained goodput over the stream duration (Mbit/s).
    pub goodput_mbps: f64,
    /// Mean staleness of received frames (µs).
    pub mean_staleness_us: f64,
    /// Worst staleness of received frames (µs).
    pub max_staleness_us: f64,
}

/// Results of one stream execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Packets per frame (`ceil(frame_bytes / mtu_bytes)`).
    pub packets_per_frame: u32,
    /// Every emitted frame, in emission order; each is delivered or
    /// dropped, never both.
    pub frames: Vec<FrameRecord>,
    /// Per-receiver statistics, in member-id order, for every member that
    /// received at least one frame.
    pub receivers: Vec<ReceiverStats>,
    /// Frames multicast to the group.
    pub served: u32,
    /// Frames evicted by the drop-oldest policy.
    pub dropped: u32,
    /// Churn joins applied.
    pub joins: u32,
    /// Churn leaves applied.
    pub leaves: u32,
    /// Churn leaves skipped because the group was at its minimum (source
    /// plus one receiver).
    pub churn_skipped: u32,
    /// Stream duration: last completion or last emission, whichever is
    /// later (µs).
    pub duration_us: f64,
    /// Discrete events processed by the runs simulated: one run per
    /// membership epoch, since the frames of an epoch share its outcome.
    pub events: u64,
    /// Worst NI send-queue depth seen across the runs simulated (one per
    /// membership epoch).
    pub peak_queue_len: usize,
    /// Per-frame simulator outcomes, service order (only with
    /// [`StreamSpec::keep_frame_outcomes`]); frames of one membership
    /// epoch hold copies of the same outcome.
    pub frame_outcomes: Vec<WorkloadOutcome>,
}

/// Why a stream could not run.
#[derive(Debug)]
pub enum StreamError {
    /// The [`StreamSpec`] or group shape is malformed.
    InvalidStream(&'static str),
    /// A frame's multicast failed in the simulator.
    Sim(SimError),
    /// The group rejected the initial members or a churn event. The stream
    /// checks its inputs first (the group shape in validation; churn
    /// toggles by current membership), so this reports a broken invariant
    /// rather than caller input.
    Membership(MembershipError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::InvalidStream(why) => write!(f, "invalid stream: {why}"),
            StreamError::Sim(e) => write!(f, "frame multicast failed: {e}"),
            StreamError::Membership(e) => write!(f, "group splice failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Sim(e) => Some(e),
            StreamError::Membership(e) => Some(e),
            StreamError::InvalidStream(_) => None,
        }
    }
}

impl From<SimError> for StreamError {
    fn from(e: SimError) -> Self {
        StreamError::Sim(e)
    }
}

impl From<MembershipError> for StreamError {
    fn from(e: MembershipError) -> Self {
        StreamError::Membership(e)
    }
}

/// The storage a stream's epochs reuse: the FPFS job (tree and binding
/// overwritten in place), the patched route table (the arena's) and the
/// last epoch's outcome.
struct EpochState<'r> {
    job: MulticastJob,
    routes: &'r mut EpochRoutes,
    outcome: WorkloadOutcome,
    /// Whether `outcome` is the current membership epoch's.
    current: bool,
}

/// Builder for one stream execution, beside [`SimRun`] in the workload
/// vocabulary.
///
/// ```ignore
/// let out = StreamRun::new(&net, &binding, 16, 2, &params, spec)
///     .config(cfg)          // optional: contention / NI model
///     .run()?;              // or .run_in(&mut arena) across streams
/// ```
pub struct StreamRun<'a, N: Network> {
    net: &'a N,
    binding: &'a [HostId],
    initial: u32,
    k: u32,
    params: &'a SystemParams,
    spec: StreamSpec,
    config: WorkloadConfig,
}

impl<'a, N: Network> StreamRun<'a, N> {
    /// Starts a stream description. `binding[u]` is the host of member
    /// `u`, fixing the member universe to `binding.len()`; the initial
    /// group is members `0..initial` (member 0 is the source) on a
    /// k-binomial tree of fan-out `k`.
    pub fn new(
        net: &'a N,
        binding: &'a [HostId],
        initial: u32,
        k: u32,
        params: &'a SystemParams,
        spec: StreamSpec,
    ) -> Self {
        StreamRun {
            net,
            binding,
            initial,
            k,
            params,
            spec,
            config: WorkloadConfig::default(),
        }
    }

    /// Per-frame simulator configuration (contention, NI timing/model).
    #[must_use]
    pub fn config(mut self, config: WorkloadConfig) -> Self {
        self.config = config;
        self
    }

    fn validate(&self) -> Result<(), StreamError> {
        let err = StreamError::InvalidStream;
        if self.binding.len() < 2 {
            return Err(err("the member universe needs a source and a receiver"));
        }
        if self.initial < 2 || self.initial as usize > self.binding.len() {
            return Err(err("initial group must be 2..=universe members"));
        }
        if self.k == 0 {
            return Err(err("fan-out bound k must be at least 1"));
        }
        if self.spec.frame_bytes == 0 || self.spec.mtu_bytes == 0 {
            return Err(err("frame and MTU sizes must be at least one byte"));
        }
        if self.spec.frames == 0 {
            return Err(err("a stream emits at least one frame"));
        }
        if !(self.spec.gap_us > 0.0 && self.spec.gap_us.is_finite()) {
            return Err(err("inter-frame gap must be positive and finite"));
        }
        if !(self.spec.gap_us * f64::from(self.spec.frames)).is_finite() {
            return Err(err("stream span (gap times frames) must be finite"));
        }
        Ok(())
    }

    /// Simulates the current membership epoch into `epoch.outcome`: the
    /// FPFS job over `group`'s tree, with the host binding mapped from the
    /// members. The route table is patched only for a binding inside the
    /// network; otherwise the run rejects the binding as [`SimRun`] does
    /// ([`SimError::HostOutOfRange`]) before any route is needed.
    fn simulate_epoch(
        &self,
        group: &Membership,
        epoch: &mut EpochState,
        arena: &mut SimArena,
    ) -> Result<(), SimError> {
        let job = &mut epoch.job;
        job.binding.clear();
        job.binding
            .extend(group.members().iter().map(|&u| self.binding[u as usize]));
        Arc::make_mut(&mut job.tree).clone_from(group.tree());
        let jobs = std::slice::from_ref(&epoch.job);
        let run = SimRun::new(self.net, jobs, self.params, self.config);
        let hosts = self.net.num_hosts();
        if epoch.job.binding.iter().all(|h| h.0 < hosts) {
            let table = epoch
                .routes
                .update(self.net, group.tree(), group.members(), self.binding);
            run.routes(std::slice::from_ref(table))
                .run_into(arena, &mut epoch.outcome)
        } else {
            run.run_into(arena, &mut epoch.outcome)
        }
    }

    /// Executes the stream.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidStream`] for a malformed spec or group shape;
    /// [`StreamError::Sim`] if any frame's multicast fails.
    pub fn run(self) -> Result<StreamOutcome, StreamError> {
        self.run_in(&mut SimArena::new())
    }

    /// [`run`](StreamRun::run) with every epoch simulated in `arena`'s
    /// storage, and the epochs' route table patched in the arena's route
    /// storage; the outcome equals `run()`'s. A caller running many streams
    /// (a sweep cell's samples) passes one arena to them all.
    ///
    /// # Errors
    ///
    /// As [`run`](StreamRun::run). The arena stays usable after an error.
    pub fn run_in(self, arena: &mut SimArena) -> Result<StreamOutcome, StreamError> {
        self.validate()?;
        let mut routes = arena.epoch_routes.take().unwrap_or_default();
        routes.forget();
        let out = self.serve(arena, &mut routes);
        arena.epoch_routes = Some(routes);
        out
    }

    /// The body of [`Self::run_in`] once the spec is valid, with the route
    /// storage lent out of the arena.
    fn serve(
        self,
        arena: &mut SimArena,
        routes: &mut EpochRoutes,
    ) -> Result<StreamOutcome, StreamError> {
        let spec = &self.spec;
        let universe = self.binding.len() as u32;
        let packets = spec.frame_bytes.div_ceil(spec.mtu_bytes);
        let emit = |i: u32| f64::from(i) * spec.gap_us;

        let members: Vec<u32> = (0..self.initial).collect();
        // `validate` bounds `initial` to `2..=universe`, so the tree spans
        // exactly `members`, led by the source.
        let mut group = Membership::new(
            kbinomial_tree(self.initial, self.k),
            &members,
            universe,
            self.k,
        )?;

        let plan = churn_plan(spec, universe);
        let mut next_event = 0usize;
        let mut epoch = EpochState {
            job: MulticastJob::fpfs(group.tree().clone(), Vec::new(), packets),
            routes,
            outcome: WorkloadOutcome::default(),
            current: false,
        };

        // Every frame is served or evicted exactly once; a frame still
        // `None` at the end is reported as an error, not a panic.
        let mut fates: Vec<Option<FrameRecord>> = vec![None; spec.frames as usize];
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut next_emit = 0u32;
        let mut t_free = 0.0f64;
        let mut out = StreamOutcome {
            packets_per_frame: packets,
            frames: Vec::new(),
            receivers: Vec::new(),
            served: 0,
            dropped: 0,
            joins: 0,
            leaves: 0,
            churn_skipped: 0,
            duration_us: 0.0,
            events: 0,
            peak_queue_len: 0,
            frame_outcomes: Vec::new(),
        };
        // Per-member accumulators over the universe.
        let mut delivered = vec![0u32; universe as usize];
        let mut stale_sum = vec![0.0f64; universe as usize];
        let mut stale_max = vec![0.0f64; universe as usize];

        while !queue.is_empty() || next_emit < spec.frames {
            if queue.is_empty() {
                // Idle source: jump to the next emission.
                queue.push_back(next_emit);
                t_free = t_free.max(emit(next_emit));
                next_emit += 1;
            }
            // Service start for the current head; admitting (and possibly
            // evicting) frames can move the head forward in time, so
            // iterate to a fixpoint.
            let mut start = t_free.max(emit(queue[0]));
            loop {
                let before = next_emit;
                while next_emit < spec.frames && emit(next_emit) <= start {
                    let full = spec.buffer_frames > 0 && queue.len() >= spec.buffer_frames as usize;
                    // A full buffer holds `buffer_frames > 0` frames: evict
                    // the oldest.
                    if let Some(victim) = full.then(|| queue.pop_front()).flatten() {
                        fates[victim as usize] = Some(FrameRecord {
                            emitted_us: emit(victim),
                            fate: FrameFate::Dropped {
                                at_us: emit(next_emit),
                            },
                        });
                        out.dropped += 1;
                    }
                    queue.push_back(next_emit);
                    next_emit += 1;
                }
                let now = t_free.max(emit(queue[0]));
                if next_emit == before && now == start {
                    break;
                }
                start = now;
            }
            // Fire churn scheduled before this service starts. Plan members
            // lie in `1..universe`, so membership alone decides whether a
            // toggle joins or leaves, and neither can be rejected.
            while next_event < plan.len() && plan[next_event].at_us <= start {
                let ev = plan[next_event];
                next_event += 1;
                if group.is_member(ev.member) {
                    if group.len() > 2 {
                        group.leave(ev.member)?;
                        out.leaves += 1;
                        epoch.current = false;
                    } else {
                        out.churn_skipped += 1;
                    }
                } else {
                    group.join(ev.member)?;
                    out.joins += 1;
                    epoch.current = false;
                }
            }
            // The loop guard or the idle branch queued a frame.
            let Some(frame) = queue.pop_front() else {
                break;
            };
            // Serve it from the current epoch's outcome, simulated at the
            // epoch's first frame.
            if !epoch.current {
                self.simulate_epoch(&group, &mut epoch, arena)?;
                epoch.current = true;
                out.events += epoch.outcome.events;
                out.peak_queue_len = out
                    .peak_queue_len
                    .max(epoch.outcome.counters.peak_queue_len);
            }
            let sim = &epoch.outcome;
            let completion = start + sim.jobs[0].latency_us;
            let staleness = completion - emit(frame);
            for &u in &group.members()[1..] {
                let i = u as usize;
                delivered[i] += 1;
                stale_sum[i] += staleness;
                stale_max[i] = stale_max[i].max(staleness);
            }
            fates[frame as usize] = Some(FrameRecord {
                emitted_us: emit(frame),
                fate: FrameFate::Delivered {
                    service_start_us: start,
                    completion_us: completion,
                    receivers: group.len() as u32 - 1,
                },
            });
            out.served += 1;
            t_free = completion;
            if spec.keep_frame_outcomes {
                out.frame_outcomes.push(sim.clone());
            }
        }

        out.duration_us = t_free.max(emit(spec.frames - 1));
        // The loop ends only once every frame was emitted and the queue
        // drained, so each frame was served or evicted.
        out.frames = fates
            .into_iter()
            .collect::<Option<_>>()
            .ok_or(StreamError::InvalidStream(
                "a frame was neither served nor evicted",
            ))?;
        out.receivers = (1..universe)
            .filter(|&u| delivered[u as usize] > 0)
            .map(|u| {
                let i = u as usize;
                let bytes = u64::from(delivered[i]) * u64::from(spec.frame_bytes);
                ReceiverStats {
                    member: u,
                    frames_delivered: delivered[i],
                    bytes_delivered: bytes,
                    goodput_mbps: 8.0 * bytes as f64 / out.duration_us,
                    mean_staleness_us: stale_sum[i] / f64::from(delivered[i]),
                    max_staleness_us: stale_max[i],
                }
            })
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimcast_topology::irregular::{IrregularConfig, IrregularNetwork};

    fn params() -> SystemParams {
        SystemParams::paper_1997()
    }

    fn net(seed: u64) -> IrregularNetwork {
        IrregularNetwork::generate(IrregularConfig::default(), seed)
    }

    fn binding(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn spec_and_shape_are_validated() {
        let n = net(1);
        let b = binding(8);
        let bad = |f: &dyn Fn(&mut StreamSpec)| {
            let mut s = StreamSpec::default();
            f(&mut s);
            StreamRun::new(&n, &b, 4, 2, &params(), s).run().err()
        };
        assert!(matches!(
            bad(&|s| s.frames = 0),
            Some(StreamError::InvalidStream(_))
        ));
        assert!(matches!(
            bad(&|s| s.gap_us = 0.0),
            Some(StreamError::InvalidStream(_))
        ));
        assert!(matches!(
            bad(&|s| s.mtu_bytes = 0),
            Some(StreamError::InvalidStream(_))
        ));
        assert!(matches!(
            bad(&|s| s.gap_us = f64::MAX),
            Some(StreamError::InvalidStream(_))
        ));
        let one = binding(1);
        assert!(matches!(
            StreamRun::new(&n, &one, 1, 2, &params(), StreamSpec::default())
                .run()
                .err(),
            Some(StreamError::InvalidStream(_))
        ));
        assert!(matches!(
            StreamRun::new(&n, &b, 9, 2, &params(), StreamSpec::default())
                .run()
                .err(),
            Some(StreamError::InvalidStream(_))
        ));
        assert!(matches!(
            StreamRun::new(&n, &b, 4, 0, &params(), StreamSpec::default())
                .run()
                .err(),
            Some(StreamError::InvalidStream(_))
        ));
    }

    /// A rejected splice surfaces as a typed error with its cause, not a
    /// panic; the stream's own checks keep caller input from reaching it.
    #[test]
    fn membership_errors_are_typed_stream_errors() {
        let e = StreamError::from(MembershipError::NotMember(3));
        assert!(matches!(
            e,
            StreamError::Membership(MembershipError::NotMember(3))
        ));
        assert_eq!(
            e.to_string(),
            "group splice failed: member 3 is not in the group"
        );
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn a_host_outside_the_network_is_a_sim_error() {
        let n = net(1);
        let mut b = binding(4);
        b[2] = HostId(9_999);
        assert!(matches!(
            StreamRun::new(&n, &b, 4, 2, &params(), StreamSpec::default())
                .run()
                .err(),
            Some(StreamError::Sim(SimError::HostOutOfRange { .. }))
        ));
    }

    #[test]
    fn churn_plan_is_a_pure_function_of_the_seed() {
        let spec = StreamSpec {
            churn_events: 12,
            churn_seed: 42,
            ..StreamSpec::default()
        };
        let a = churn_plan(&spec, 16);
        let b = churn_plan(&spec, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        let span = spec.gap_us * f64::from(spec.frames);
        for w in a.windows(2) {
            assert!(w[0].at_us <= w[1].at_us, "plan is time-sorted");
        }
        for ev in &a {
            assert!((0.0..span).contains(&ev.at_us));
            assert!((1..16).contains(&ev.member), "source never churns");
        }
        let other = churn_plan(
            &StreamSpec {
                churn_seed: 43,
                ..spec
            },
            16,
        );
        assert_ne!(a, other, "different seeds give different plans");
    }

    #[test]
    fn unbounded_buffers_never_drop() {
        let n = net(3);
        let b = binding(16);
        let spec = StreamSpec {
            gap_us: 1.0, // heavy overload
            frames: 12,
            buffer_frames: 0,
            ..StreamSpec::default()
        };
        let out = StreamRun::new(&n, &b, 16, 2, &params(), spec)
            .run()
            .unwrap();
        assert_eq!(out.dropped, 0);
        assert_eq!(out.served, 12);
        assert_eq!(out.frames.len(), 12);
        // Under overload every later frame queues: staleness grows.
        let stale = |f: &FrameRecord| match f.fate {
            FrameFate::Delivered { completion_us, .. } => completion_us - f.emitted_us,
            FrameFate::Dropped { .. } => unreachable!(),
        };
        assert!(stale(&out.frames[11]) > stale(&out.frames[0]));
    }

    #[test]
    fn bounded_buffers_drop_oldest_under_overload() {
        let n = net(3);
        let b = binding(16);
        let spec = StreamSpec {
            gap_us: 1.0,
            frames: 12,
            buffer_frames: 2,
            ..StreamSpec::default()
        };
        let out = StreamRun::new(&n, &b, 16, 2, &params(), spec)
            .run()
            .unwrap();
        assert!(out.dropped > 0, "overload with a 2-frame buffer must drop");
        assert_eq!(out.served + out.dropped, 12);
        // Drop-oldest: every dropped frame is older than some served one
        // that was emitted while it waited; the LAST frame always serves.
        assert!(matches!(out.frames[11].fate, FrameFate::Delivered { .. }));
        // A dropped frame's eviction time is a later frame's emission.
        for f in &out.frames {
            if let FrameFate::Dropped { at_us } = f.fate {
                assert!(at_us > f.emitted_us);
            }
        }
    }

    #[test]
    fn churn_splices_members_live() {
        let n = net(5);
        let b = binding(24);
        let spec = StreamSpec {
            frames: 8,
            churn_events: 10,
            churn_seed: 7,
            ..StreamSpec::default()
        };
        let out = StreamRun::new(&n, &b, 12, 2, &params(), spec)
            .run()
            .unwrap();
        // Events after the final frame's service start never fire.
        let applied = out.joins + out.leaves + out.churn_skipped;
        assert!(applied > 0 && applied <= 10);
        assert!(out.joins > 0, "seed 7 schedules at least one join");
        // Receiver counts per frame reflect the changing group size.
        let sizes: Vec<u32> = out
            .frames
            .iter()
            .filter_map(|f| match f.fate {
                FrameFate::Delivered { receivers, .. } => Some(receivers),
                FrameFate::Dropped { .. } => None,
            })
            .collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]), "group size changed");
    }

    #[test]
    fn stream_is_deterministic_across_runs() {
        let n = net(9);
        let b = binding(20);
        let spec = StreamSpec {
            frames: 6,
            buffer_frames: 2,
            gap_us: 10.0,
            churn_events: 6,
            ..StreamSpec::default()
        };
        let a = StreamRun::new(&n, &b, 10, 2, &params(), spec)
            .run()
            .unwrap();
        let c = StreamRun::new(&n, &b, 10, 2, &params(), spec)
            .run()
            .unwrap();
        assert_eq!(a, c);
    }
}
