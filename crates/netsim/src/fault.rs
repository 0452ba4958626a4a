//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes everything that can go wrong in a run: random
//! per-transmission packet loss and corruption, link failure windows,
//! permanent host crashes, and NI forwarding-buffer exhaustion. Every random
//! decision is a **pure function** of the plan's seed and the transmission's
//! identity `(job, from, to, packet, attempt)` — sampled through one
//! [`ChaCha8Rng`] draw per decision, never from shared mutable RNG state —
//! so a plan produces the same fault schedule regardless of event
//! interleaving or worker count. That property is what lets the chaos sweep
//! (`optimcast chaos`) promise byte-identical JSON at any parallelism.
//!
//! A draw is one stateless ChaCha8 block ([`ChaCha8Rng::first_u64`]): the
//! key is the hashed identity, and no generator is built. A stream whose
//! rate is zero is never drawn — a draw lies in `[0, 1)`, so it could not
//! fire — which makes a send's fault cost proportional to the fault
//! sources its plan enables.
//!
//! The simulator consumes a plan through three queries:
//!
//! * [`FaultPlan::tx_outcome`] — the fate of one dispatched transmission;
//! * [`FaultPlan::host_crashed`] — whether a host is dead at a given time;
//! * [`FaultPlan::rto`] — the capped-exponential retransmission timeout.
//!
//! A *trivial* plan (no fault source enabled) is recognised by
//! [`FaultPlan::is_trivial`]; the simulator then takes the exact fault-free
//! code path, so wiring a trivial plan through changes nothing — not even
//! the event count — which `tests/golden_equivalence.rs` pins down.

use optimcast_rng::ChaCha8Rng;
use optimcast_topology::graph::{ChannelId, HostId};

/// What a fault did to a transmission (observer/diagnostic vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The packet was lost in the network (random drop).
    Drop,
    /// The packet arrived but failed its integrity check; the receiver
    /// NACKs and the sender retransmits immediately.
    Corrupt,
    /// A channel on the route was inside a failure window at dispatch.
    LinkDown,
    /// The receiving host is crashed at arrival time.
    ReceiverDead,
    /// The sending host is crashed; its queued transmissions are discarded.
    SenderDead,
    /// The receiving NI's forwarding buffer was exhausted; the packet is
    /// refused (NACK) and retransmitted.
    BufferOverflow,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::LinkDown => "link-down",
            FaultKind::ReceiverDead => "receiver-dead",
            FaultKind::SenderDead => "sender-dead",
            FaultKind::BufferOverflow => "buffer-overflow",
        })
    }
}

/// A directed channel out of service during `[from_us, until_us)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFailure {
    /// The failed channel.
    pub channel: ChannelId,
    /// Window start (inclusive, µs).
    pub from_us: f64,
    /// Window end (exclusive, µs).
    pub until_us: f64,
}

/// A host permanently crashed from `at_us` onward (fail-stop: it neither
/// sends nor receives after that instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCrash {
    /// The crashed host.
    pub host: HostId,
    /// Crash time (µs); packets arriving at or after this instant are lost.
    pub at_us: f64,
}

/// Live mid-run repair policy: when set on a [`FaultPlan`], an exhausted
/// delivery (`max_attempts` abandonments) no longer terminates the run.
/// Instead the source learns of the failure after `notify_us`, calls
/// `MulticastTree::repair` on the surviving membership, and re-issues the
/// undelivered packets over the repaired tree — a new *repair epoch*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Modeled latency (µs) between the last delivery attempt and the
    /// source learning enough to trigger a repair.
    pub notify_us: f64,
    /// Maximum repair epochs per run (≥ 1); exhausting it yields
    /// `SimError::DeliveryFailed` with the still-unreached destinations.
    pub max_epochs: u32,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            notify_us: 120.0,
            max_epochs: 8,
        }
    }
}

/// A deterministic fault schedule plus the reliability-layer knobs.
///
/// All fields are public: a plan is plain data, validated once when the
/// simulation is constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every random fault decision.
    pub seed: u64,
    /// Per-transmission loss probability in `[0, 1)`.
    pub drop_rate: f64,
    /// Per-transmission corruption probability in `[0, 1)`. A corrupted
    /// packet traverses the network and occupies the receive unit, then is
    /// NACKed.
    pub corrupt_rate: f64,
    /// Channel outage windows.
    pub link_failures: Vec<LinkFailure>,
    /// Permanent host crashes.
    pub crashes: Vec<HostCrash>,
    /// NI forwarding-buffer capacity in packets (`None` = unbounded, the
    /// fault-free model). A forwarding NI with `capacity` resident packets
    /// refuses further arrivals that would need buffering.
    pub ni_buffer_capacity: Option<u32>,
    /// Total transmission attempts per packet copy before the sender
    /// abandons it (≥ 1). The cap is what guarantees termination under
    /// permanent faults.
    pub max_attempts: u32,
    /// Base acknowledgement timeout (µs) before a lost packet is
    /// retransmitted.
    pub ack_timeout_us: f64,
    /// Exponent cap of the backoff: attempt `a` waits
    /// `ack_timeout_us * 2^min(a, backoff_cap)`.
    pub backoff_cap: u32,
    /// Selective-repeat send window: unacknowledged packets allowed in
    /// flight per tree edge. `1` (the default) is the PR 3 stop-and-wait
    /// layer; `window > 1` switches the simulator to the windowed ARQ path
    /// with out-of-order acceptance and coalesced NACK ranges. Because
    /// pipelining changes timing even with every fault source disabled, a
    /// `window > 1` plan is **not** trivial.
    pub window: u32,
    /// Per-message delivery deadline (µs past the job's start). When a
    /// windowed-ARQ retry decision falls past the deadline, the stuck
    /// child (and its undelivered subtree) is written off as a typed
    /// `deadline_writeoffs` outcome instead of retrying until
    /// `max_attempts`. `None` disables deadlines.
    pub deadline_us: Option<f64>,
    /// Live mid-run repair policy. `None` (the default) keeps the PR 3
    /// behaviour: exhausted deliveries terminate the run with
    /// `SimError::DeliveryFailed`. The policy does not make a plan
    /// non-trivial — a plan with no fault source never triggers a repair,
    /// so it still normalises onto the fault-free golden path.
    pub repair: Option<RepairPolicy>,
}

impl FaultPlan {
    /// A plan with every fault source disabled and default reliability
    /// parameters — [`Self::is_trivial`] holds.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            link_failures: Vec::new(),
            crashes: Vec::new(),
            ni_buffer_capacity: None,
            max_attempts: 8,
            ack_timeout_us: 60.0,
            backoff_cap: 4,
            window: 1,
            deadline_us: None,
            repair: None,
        }
    }

    /// True when no fault source is enabled *and* the ARQ is stop-and-wait,
    /// so the plan cannot perturb a run. The simulator short-circuits
    /// trivial plans onto the exact fault-free code path. A `window > 1`
    /// plan is never trivial: pipelined dispatch reshapes timing even at
    /// zero fault rates.
    pub fn is_trivial(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.link_failures.is_empty()
            && self.crashes.is_empty()
            && self.ni_buffer_capacity.is_none()
            && self.window <= 1
    }

    /// Checks the plan's parameters; the simulator rejects invalid plans
    /// with a typed error before any event runs.
    pub fn validate(&self) -> Result<(), &'static str> {
        let prob_ok = |p: f64| (0.0..1.0).contains(&p);
        if !prob_ok(self.drop_rate) {
            return Err("drop_rate must lie in [0, 1)");
        }
        if !prob_ok(self.corrupt_rate) {
            return Err("corrupt_rate must lie in [0, 1)");
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1");
        }
        if self.ack_timeout_us <= 0.0 || self.ack_timeout_us.is_nan() {
            return Err("ack_timeout_us must be positive");
        }
        if self.window == 0 {
            return Err("window must be at least 1");
        }
        if let Some(d) = self.deadline_us {
            if d.is_nan() || d <= 0.0 {
                return Err("deadline_us must be positive");
            }
            if d < self.ack_timeout_us {
                return Err("deadline_us must be at least ack_timeout_us");
            }
        }
        if self.window > 1 {
            if self.repair.is_some() {
                return Err("windowed ARQ does not combine with live repair; use deadline_us");
            }
            if self.ni_buffer_capacity.is_some() {
                return Err(
                    "windowed ARQ bounds queues via NiModel::queue_capacity, not ni_buffer_capacity",
                );
            }
        }
        for w in &self.link_failures {
            if w.from_us.is_nan() || w.until_us.is_nan() || w.from_us < 0.0 {
                return Err("link failure window must be non-negative and not NaN");
            }
        }
        for c in &self.crashes {
            if c.at_us.is_nan() || c.at_us < 0.0 {
                return Err("crash time must be non-negative and not NaN");
            }
        }
        if let Some(r) = &self.repair {
            if r.notify_us < 0.0 || r.notify_us.is_nan() {
                return Err("repair notify_us must be non-negative and not NaN");
            }
            if r.max_epochs == 0 {
                return Err("repair max_epochs must be at least 1");
            }
        }
        Ok(())
    }

    /// Whether `host` is crashed at `t_us` (crash instants are inclusive).
    pub fn host_crashed(&self, host: HostId, t_us: f64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.host == host && t_us >= c.at_us)
    }

    /// Whether any channel of `route` is inside a failure window at `t_us`.
    fn link_down(&self, route: &[ChannelId], t_us: f64) -> bool {
        self.link_failures
            .iter()
            .any(|w| t_us >= w.from_us && t_us < w.until_us && route.contains(&w.channel))
    }

    /// The fate of one transmission, decided at dispatch.
    ///
    /// Checked in severity order: a crashed receiver (at arrival time), a
    /// failed link (at depart time), random loss, random corruption.
    /// `None` means the packet is delivered intact. Loss and corruption are
    /// pure functions of `(seed, job, epoch, from, to, packet, attempt)` —
    /// each retransmission redraws, and each repair epoch redraws
    /// independently of the epochs before it. Epoch 0 keys are bit-identical
    /// to the pre-repair scheme, so plans without live repair reproduce the
    /// committed chaos goldens exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn tx_outcome(
        &self,
        job: u32,
        epoch: u32,
        from: u32,
        to: u32,
        packet: u32,
        attempt: u32,
        route: &[ChannelId],
        depart_us: f64,
        arrive_us: f64,
        receiver: HostId,
    ) -> Option<FaultKind> {
        if self.host_crashed(receiver, arrive_us) {
            return Some(FaultKind::ReceiverDead);
        }
        if self.link_down(route, depart_us) {
            return Some(FaultKind::LinkDown);
        }
        // A draw lies in [0, 1), so a stream whose rate is 0 can never fire
        // and is not drawn: skipping it changes no verdict.
        if self.drop_rate > 0.0
            && self.decide(1, job, epoch, from, to, packet, attempt) < self.drop_rate
        {
            return Some(FaultKind::Drop);
        }
        if self.corrupt_rate > 0.0
            && self.decide(2, job, epoch, from, to, packet, attempt) < self.corrupt_rate
        {
            return Some(FaultKind::Corrupt);
        }
        None
    }

    /// Retransmission timeout of attempt `a`: capped exponential backoff
    /// `ack_timeout_us * 2^min(a, backoff_cap)`.
    pub fn rto(&self, attempt: u32) -> f64 {
        let exp = attempt.min(self.backoff_cap);
        self.ack_timeout_us * f64::from(1u32 << exp.min(31))
    }

    /// Deterministic jitter (µs) added to a windowed-ARQ retransmission
    /// timer: up to a quarter of the attempt's RTO, drawn from PRF stream 3
    /// keyed by the transmission identity — never wall time, so retry
    /// schedules are byte-identical at any worker count. Jitter de-phases
    /// the per-edge timers so a burst of losses does not retransmit in
    /// lockstep.
    pub fn retry_jitter_us(&self, job: u32, from: u32, to: u32, packet: u32, attempt: u32) -> f64 {
        0.25 * self.rto(attempt) * self.decide(3, job, 0, from, to, packet, attempt)
    }

    /// One uniform draw in `[0, 1)` keyed by the transmission identity and
    /// a stream tag (so drop and corruption use independent streams): the
    /// first 64 bits of the ChaCha8 stream seeded with the key, computed
    /// from one block with no generator state. The repair epoch is folded
    /// in only when non-zero, keeping epoch-0 draws bit-identical to the
    /// scheme the committed goldens were pinned under.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        stream: u64,
        job: u32,
        epoch: u32,
        from: u32,
        to: u32,
        packet: u32,
        attempt: u32,
    ) -> f64 {
        let mut key = self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        if epoch > 0 {
            key ^= u64::from(epoch).wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        for field in [job, from, to, packet, attempt] {
            key = key
                .wrapping_add(u64::from(field))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            key ^= key >> 29;
        }
        let bits = ChaCha8Rng::first_u64(key);
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A compact, `Copy` description of a fault plan for sweep axes: the chaos
/// engine materialises it into a full [`FaultPlan`] per sample, choosing
/// the concrete crashed hosts deterministically from the sample's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanSpec {
    /// Seed folded into every sample's fault schedule.
    pub seed: u64,
    /// Per-transmission loss probability in `[0, 1)`.
    pub drop_rate: f64,
    /// Per-transmission corruption probability in `[0, 1)`.
    pub corrupt_rate: f64,
    /// Number of destination hosts to crash (never the source). With
    /// `live_repair` off the tree is repaired around them *before* the run;
    /// with it on they crash mid-run at [`Self::crash_at_us`] and the
    /// simulator repairs live.
    pub crashes: u32,
    /// Crash instant (µs) of the drawn hosts. `0.0` reproduces the legacy
    /// crash-at-time-zero schedule.
    pub crash_at_us: f64,
    /// Number of directed channels per sample pulled into a failure window
    /// `[outage_from_us, outage_until_us)`, drawn deterministically from
    /// the sample's identity.
    pub link_outages: u32,
    /// Outage window start (inclusive, µs).
    pub outage_from_us: f64,
    /// Outage window end (exclusive, µs).
    pub outage_until_us: f64,
    /// NI forwarding-buffer capacity in packets (`None` = unbounded).
    pub ni_buffer_capacity: Option<u32>,
    /// Enable live mid-run repair: crashed hosts are *not* repaired around
    /// up front; the simulator detects abandonment, repairs the surviving
    /// membership, and re-issues undelivered packets inside the run.
    pub live_repair: bool,
    /// Total attempts per packet copy before abandoning.
    pub max_attempts: u32,
    /// Base acknowledgement timeout (µs).
    pub ack_timeout_us: f64,
    /// Selective-repeat send window per tree edge (`1` = stop-and-wait).
    pub window: u32,
    /// Per-message delivery deadline (µs past job start; `None` = none).
    pub deadline_us: Option<f64>,
    /// NI send units per host, threaded into the run's
    /// [`crate::arq::NiModel`] by the sweep and CLI layers (the plan itself
    /// does not consume it).
    pub send_units: u32,
}

impl Default for FaultPlanSpec {
    /// The trivial spec: no faults, default reliability knobs.
    fn default() -> Self {
        FaultPlanSpec {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            crashes: 0,
            crash_at_us: 0.0,
            link_outages: 0,
            outage_from_us: 0.0,
            outage_until_us: 0.0,
            ni_buffer_capacity: None,
            live_repair: false,
            max_attempts: 8,
            ack_timeout_us: 60.0,
            window: 1,
            deadline_us: None,
            send_units: 1,
        }
    }
}

impl FaultPlanSpec {
    /// True when the spec cannot produce any fault. (`live_repair`,
    /// `crash_at_us`, `deadline_us`, and `send_units` are modifiers, not
    /// fault sources — they leave a trivial spec trivial; `window > 1` is
    /// not, because pipelining reshapes timing on its own.)
    pub fn is_trivial(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.crashes == 0
            && self.link_outages == 0
            && self.ni_buffer_capacity.is_none()
            && self.window <= 1
    }

    /// Expands the spec into a [`FaultPlan`] with the given crash and link
    /// outage schedules; `salt` distinguishes samples so each draws an
    /// independent fault stream from the same spec.
    pub fn plan(&self, salt: u64, crashes: Vec<HostCrash>) -> FaultPlan {
        self.plan_with_outages(salt, crashes, Vec::new())
    }

    /// [`Self::plan`] with an explicit link-failure schedule.
    pub fn plan_with_outages(
        &self,
        salt: u64,
        crashes: Vec<HostCrash>,
        link_failures: Vec<LinkFailure>,
    ) -> FaultPlan {
        FaultPlan {
            seed: self
                .seed
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(salt),
            drop_rate: self.drop_rate,
            corrupt_rate: self.corrupt_rate,
            crashes,
            link_failures,
            ni_buffer_capacity: self.ni_buffer_capacity,
            max_attempts: self.max_attempts,
            ack_timeout_us: self.ack_timeout_us,
            window: self.window,
            deadline_us: self.deadline_us,
            repair: self.live_repair.then(|| RepairPolicy {
                notify_us: 2.0 * self.ack_timeout_us,
                ..RepairPolicy::default()
            }),
            ..FaultPlan::new(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_has_no_faults() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_trivial());
        plan.validate().unwrap();
        assert_eq!(
            plan.tx_outcome(0, 0, 0, 1, 0, 0, &[ChannelId(0)], 0.0, 10.0, HostId(1)),
            None
        );
        assert!(FaultPlanSpec::default().is_trivial());
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let plan = FaultPlan {
            drop_rate: 0.5,
            ..FaultPlan::new(42)
        };
        let route = [ChannelId(3)];
        let a = plan.tx_outcome(0, 0, 0, 5, 2, 0, &route, 0.0, 10.0, HostId(5));
        let b = plan.tx_outcome(0, 0, 0, 5, 2, 0, &route, 99.0, 200.0, HostId(5));
        // Same identity, different times: the random verdict is identical.
        assert_eq!(a, b);
        // A different attempt redraws.
        let mut varied = false;
        for attempt in 0..16 {
            if plan.tx_outcome(0, 0, 0, 5, 2, attempt, &route, 0.0, 1.0, HostId(5)) != a {
                varied = true;
            }
        }
        assert!(varied, "attempts never redrew at 50% drop rate");
        // A different repair epoch redraws too.
        let mut epoch_varied = false;
        for epoch in 1..16 {
            if plan.tx_outcome(0, epoch, 0, 5, 2, 0, &route, 0.0, 1.0, HostId(5)) != a {
                epoch_varied = true;
            }
        }
        assert!(epoch_varied, "epochs never redrew at 50% drop rate");
    }

    /// `tx_outcome` skips the draws of zero-rate streams; it equals a
    /// reference that always draws both streams, over a grid of identities
    /// and rates.
    #[test]
    fn skipped_draws_change_no_verdict() {
        let reference = |plan: &FaultPlan, [job, epoch, from, to, packet, attempt]: [u32; 6]| {
            let drop = plan.decide(1, job, epoch, from, to, packet, attempt);
            let corrupt = plan.decide(2, job, epoch, from, to, packet, attempt);
            if drop < plan.drop_rate {
                Some(FaultKind::Drop)
            } else if corrupt < plan.corrupt_rate {
                Some(FaultKind::Corrupt)
            } else {
                None
            }
        };
        let mut ids = Vec::new();
        for job in [0, 3] {
            for epoch in [0, 2] {
                for (from, to) in [(0, 1), (0, 7), (5, 9)] {
                    for packet in 0..8 {
                        ids.extend((0..3).map(|attempt| [job, epoch, from, to, packet, attempt]));
                    }
                }
            }
        }
        let mut seen = [0usize; 3];
        for drop_rate in [0.0, 0.02, 0.5] {
            for corrupt_rate in [0.0, 0.1] {
                let plan = FaultPlan {
                    drop_rate,
                    corrupt_rate,
                    ..FaultPlan::new(29)
                };
                for id in &ids {
                    let [job, epoch, from, to, packet, attempt] = *id;
                    let got = plan.tx_outcome(
                        job,
                        epoch,
                        from,
                        to,
                        packet,
                        attempt,
                        &[],
                        0.0,
                        1.0,
                        HostId(to),
                    );
                    assert_eq!(got, reference(&plan, *id), "{plan:?} {id:?}");
                    seen[match got {
                        None => 0,
                        Some(FaultKind::Drop) => 1,
                        Some(_) => 2,
                    }] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "verdict mix {seen:?}");
    }

    #[test]
    fn drop_rate_is_respected_statistically() {
        let plan = FaultPlan {
            drop_rate: 0.25,
            ..FaultPlan::new(11)
        };
        let dropped = (0..4000)
            .filter(|&p| {
                plan.tx_outcome(0, 0, 0, 1, p, 0, &[], 0.0, 1.0, HostId(1)) == Some(FaultKind::Drop)
            })
            .count();
        let rate = dropped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn link_windows_are_half_open() {
        let plan = FaultPlan {
            link_failures: vec![LinkFailure {
                channel: ChannelId(2),
                from_us: 10.0,
                until_us: 20.0,
            }],
            ..FaultPlan::new(0)
        };
        assert!(!plan.is_trivial());
        let route = [ChannelId(1), ChannelId(2)];
        assert!(!plan.link_down(&route, 9.9));
        assert!(plan.link_down(&route, 10.0));
        assert!(plan.link_down(&route, 19.9));
        assert!(!plan.link_down(&route, 20.0));
        assert!(!plan.link_down(&[ChannelId(1)], 15.0));
        assert_eq!(
            plan.tx_outcome(0, 0, 0, 1, 0, 0, &route, 15.0, 25.0, HostId(1)),
            Some(FaultKind::LinkDown)
        );
    }

    #[test]
    fn crashes_are_permanent_and_dominant() {
        let plan = FaultPlan {
            crashes: vec![HostCrash {
                host: HostId(3),
                at_us: 50.0,
            }],
            ..FaultPlan::new(0)
        };
        assert!(!plan.host_crashed(HostId(3), 49.9));
        assert!(plan.host_crashed(HostId(3), 50.0));
        assert!(plan.host_crashed(HostId(3), 1e9));
        assert!(!plan.host_crashed(HostId(2), 60.0));
        assert_eq!(
            plan.tx_outcome(0, 0, 0, 1, 0, 0, &[], 55.0, 60.0, HostId(3)),
            Some(FaultKind::ReceiverDead)
        );
    }

    #[test]
    fn rto_backs_off_exponentially_with_cap() {
        let plan = FaultPlan::new(0);
        assert_eq!(plan.rto(0), 60.0);
        assert_eq!(plan.rto(1), 120.0);
        assert_eq!(plan.rto(4), 960.0);
        // Capped at backoff_cap = 4.
        assert_eq!(plan.rto(40), 960.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let bad = |f: fn(&mut FaultPlan)| {
            let mut p = FaultPlan::new(0);
            f(&mut p);
            p.validate().unwrap_err()
        };
        assert!(bad(|p| p.drop_rate = 1.0).contains("drop_rate"));
        assert!(bad(|p| p.corrupt_rate = -0.1).contains("corrupt_rate"));
        assert!(bad(|p| p.max_attempts = 0).contains("max_attempts"));
        assert!(bad(|p| p.ack_timeout_us = 0.0).contains("ack_timeout_us"));
        assert!(bad(|p| p.crashes.push(HostCrash {
            host: HostId(0),
            at_us: -1.0,
        }))
        .contains("crash"));
        assert!(bad(|p| p.repair = Some(RepairPolicy {
            notify_us: -1.0,
            ..RepairPolicy::default()
        }))
        .contains("notify_us"));
        assert!(bad(|p| p.repair = Some(RepairPolicy {
            max_epochs: 0,
            ..RepairPolicy::default()
        }))
        .contains("max_epochs"));
        assert!(bad(|p| p.window = 0).contains("window"));
        assert!(bad(|p| p.deadline_us = Some(0.0)).contains("deadline_us must be positive"));
        assert!(bad(|p| p.deadline_us = Some(f64::NAN)).contains("deadline_us must be positive"));
        assert!(
            bad(|p| p.deadline_us = Some(1.0)).contains("at least ack_timeout_us"),
            "a deadline shorter than one RTO can never be met"
        );
        assert!(bad(|p| {
            p.window = 8;
            p.repair = Some(RepairPolicy::default());
        })
        .contains("live repair"));
        assert!(bad(|p| {
            p.window = 8;
            p.ni_buffer_capacity = Some(4);
        })
        .contains("queue_capacity"));
    }

    #[test]
    fn windowed_plans_are_not_trivial() {
        let plan = FaultPlan {
            window: 8,
            ..FaultPlan::new(0)
        };
        assert!(
            !plan.is_trivial(),
            "window > 1 pipelines dispatch and must not normalise onto the fault-free path"
        );
        plan.validate().unwrap();
        let spec = FaultPlanSpec {
            window: 8,
            ..FaultPlanSpec::default()
        };
        assert!(!spec.is_trivial());
        let expanded = spec.plan(0, Vec::new());
        assert_eq!(expanded.window, 8);
        assert_eq!(expanded.deadline_us, None);
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        let plan = FaultPlan::new(13);
        let j = plan.retry_jitter_us(0, 0, 5, 2, 1);
        assert_eq!(j, plan.retry_jitter_us(0, 0, 5, 2, 1), "pure function");
        assert!(
            (0.0..0.25 * plan.rto(1)).contains(&j),
            "jitter {j} out of range"
        );
        // Distinct identities de-phase.
        let mut varied = false;
        for p in 0..16 {
            if plan.retry_jitter_us(0, 0, 5, p, 1) != j {
                varied = true;
            }
        }
        assert!(varied, "jitter never varied across packets");
        // Independent of the drop stream: enabling drops does not move it.
        let dropping = FaultPlan {
            drop_rate: 0.5,
            ..FaultPlan::new(13)
        };
        assert_eq!(dropping.retry_jitter_us(0, 0, 5, 2, 1), j);
    }

    #[test]
    fn repair_policy_does_not_break_trivial_normalisation() {
        let plan = FaultPlan {
            repair: Some(RepairPolicy::default()),
            ..FaultPlan::new(3)
        };
        assert!(
            plan.is_trivial(),
            "repair without a fault source must stay on the fault-free path"
        );
        plan.validate().unwrap();
    }

    #[test]
    fn live_repair_spec_expands_to_a_repair_plan() {
        let spec = FaultPlanSpec {
            seed: 5,
            crashes: 1,
            live_repair: true,
            ..FaultPlanSpec::default()
        };
        let plan = spec.plan(
            9,
            vec![HostCrash {
                host: HostId(4),
                at_us: 0.0,
            }],
        );
        let policy = plan.repair.expect("live_repair sets a policy");
        assert_eq!(policy.notify_us, 2.0 * spec.ack_timeout_us);
        assert!(policy.max_epochs >= 1);
        plan.validate().unwrap();
        // Non-crash axes thread through plan_with_outages.
        let spec2 = FaultPlanSpec {
            link_outages: 2,
            outage_until_us: 50.0,
            ni_buffer_capacity: Some(4),
            ..FaultPlanSpec::default()
        };
        assert!(!spec2.is_trivial());
        let windows = vec![LinkFailure {
            channel: ChannelId(1),
            from_us: 0.0,
            until_us: 50.0,
        }];
        let plan2 = spec2.plan_with_outages(0, Vec::new(), windows.clone());
        assert_eq!(plan2.link_failures, windows);
        assert_eq!(plan2.ni_buffer_capacity, Some(4));
        assert!(plan2.repair.is_none());
    }

    #[test]
    fn spec_expansion_salts_the_seed() {
        let spec = FaultPlanSpec {
            seed: 7,
            drop_rate: 0.1,
            ..FaultPlanSpec::default()
        };
        let a = spec.plan(0, Vec::new());
        let b = spec.plan(1, Vec::new());
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.drop_rate, 0.1);
        assert_eq!(a, spec.plan(0, Vec::new()), "expansion is deterministic");
    }
}
