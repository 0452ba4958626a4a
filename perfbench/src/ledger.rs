//! Per-layer counters of the traced replay, the counting observer, and the
//! metric tables the benchmark prints.

use optimcast_core::tree::Rank;
use optimcast_netsim::{FaultKind, JobRoutes, Observer, SimCounters};
use optimcast_topology::graph::HostId;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("sim_latency_us", "sim_us"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Times
/// are self times per pass; counts are per pass.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("topology.fabric_gen_s", "s"),
    ("topology.irregular_gen_s", "s"),
    ("sweep.sample_chain_s", "s"),
    ("core.tree_build_s", "s"),
    ("core.schedule_s", "s"),
    ("core.membership_s", "s"),
    ("core.membership_ops", "count"),
    ("stream.churn_plan_s", "s"),
    ("routes.build_s", "s"),
    ("routes.per_run_s", "s"),
    ("routes.builds", "count"),
    ("routes.channels", "count"),
    ("fault.plan_s", "s"),
    ("netsim.sim_s", "s"),
    ("netsim.runs", "count"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.peak_queue_len", "count"),
    ("netsim.allocs_per_event", "allocs/event"),
    ("netsim.hooks_per_event", "hooks/event"),
    ("netsim.channel_stall_us", "sim_us"),
    ("netsim.recv_unit_wait_us", "sim_us"),
    ("arq.retransmits_per_pkt", "retx/pkt"),
    ("arq.resend_requests", "count"),
    ("arq.nack_ranges", "count"),
    ("arq.window_stalls_us", "sim_us"),
    ("arq.failed_runs", "count"),
    ("stream.frames_served", "count"),
    ("stream.drop_ratio", "ratio"),
    ("stream.joins", "count"),
    ("stream.leaves", "count"),
    ("sweep.report_s", "s"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("sweep.route_hit_ratio", "ratio"),
    ("sweep.parallel_efficiency", "ratio"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Counts and simulated waits the replay accumulates at layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub route_builds: u64,
    pub route_channels: u64,
    pub runs: u64,
    pub events: u64,
    pub peak_queue_len: usize,
    pub hooks: u64,
    pub channel_stall_us: f64,
    pub recv_unit_wait_us: f64,
    pub membership_ops: u64,
    pub retransmits: u64,
    pub resend_requests: u64,
    pub nack_ranges: u64,
    pub window_stalls_us: f64,
    pub failed_runs: u64,
    pub frames_emitted: u64,
    pub frames_served: u64,
    pub frames_dropped: u64,
    pub joins: u64,
    pub leaves: u64,
}

impl Ledger {
    /// Records one `JobRoutes::build`.
    pub fn routes_built(&mut self, routes: &JobRoutes) {
        self.route_builds += 1;
        self.route_channels += routes.total_channels() as u64;
    }

    /// Records one simulator run's counters (delivered or failed).
    pub fn sim_ran(&mut self, c: &SimCounters, hooks: u64) {
        self.runs += 1;
        self.events += c.events;
        self.peak_queue_len = self.peak_queue_len.max(c.peak_queue_len);
        self.hooks += hooks;
        self.channel_stall_us += c.channel_stall_us;
        self.recv_unit_wait_us += c.recv_unit_wait_us;
        self.retransmits += c.retransmits;
        self.resend_requests += c.resend_requests;
        self.nack_ranges += c.nack_ranges_sent;
        self.window_stalls_us += c.window_stalls_us;
    }
}

/// A user [`Observer`] that counts every hook the simulator fires. Hooks
/// receive plain values, so attaching it cannot change an outcome.
#[derive(Debug, Default)]
pub struct HookCounter {
    pub hooks: u64,
}

impl Observer for HookCounter {
    fn send_start(&mut self, _: f64, _: u32, _: Rank, _: Rank, _: u32, _: f64) {
        self.hooks += 1;
    }
    fn recv_done(&mut self, _: f64, _: u32, _: Rank, _: u32) {
        self.hooks += 1;
    }
    fn host_done(&mut self, _: f64, _: u32, _: Rank) {
        self.hooks += 1;
    }
    fn recv_unit_wait(&mut self, _: u32, _: f64) {
        self.hooks += 1;
    }
    fn send_enqueued(&mut self, _: HostId, _: usize) {
        self.hooks += 1;
    }
    fn buffer_grew(&mut self, _: HostId, _: u32) {
        self.hooks += 1;
    }
    fn packet_dropped(&mut self, _: f64, _: u32, _: Rank, _: Rank, _: u32, _: FaultKind) {
        self.hooks += 1;
    }
    fn retransmit_scheduled(&mut self, _: f64, _: u32, _: Rank, _: Rank, _: u32, _: u32, _: f64) {
        self.hooks += 1;
    }
    fn fault_triggered(&mut self, _: f64, _: FaultKind, _: HostId) {
        self.hooks += 1;
    }
    fn delivery_abandoned(&mut self, _: f64, _: u32, _: Rank, _: Rank, _: u32, _: u32) {
        self.hooks += 1;
    }
    fn repair_triggered(&mut self, _: f64, _: u32, _: u32, _: u32, _: u32, _: f64) {
        self.hooks += 1;
    }
    fn packet_reissued(&mut self, _: f64, _: u32, _: Rank, _: u32) {
        self.hooks += 1;
    }
    fn resend_requested(&mut self, _: f64, _: u32, _: Rank, _: Rank, _: u32) {
        self.hooks += 1;
    }
    fn nack_range_sent(&mut self, _: f64, _: u32, _: Rank, _: u32, _: u32) {
        self.hooks += 1;
    }
    fn late_ack(&mut self, _: f64, _: u32, _: Rank, _: u32) {
        self.hooks += 1;
    }
    fn duplicate_ack(&mut self, _: f64, _: u32, _: Rank, _: u32) {
        self.hooks += 1;
    }
    fn window_stalled(&mut self, _: u32, _: f64) {
        self.hooks += 1;
    }
    fn deadline_writeoff(&mut self, _: f64, _: u32, _: Rank) {
        self.hooks += 1;
    }
}
