//! The `bench-mega` measurement: mega-scale fat-tree multicast.
//!
//! This harness extends the paper's 64-host optimal-k study three orders
//! of magnitude: one end-to-end optimal-k multicast (m = 16 packets)
//! on the smallest fat-tree covering n ∈ {1024, 8192, 65536} hosts. Each
//! point records what the mega-scale work is accountable for:
//!
//! * **setup time** — fabric generation, up\*/down\* orientation, tree
//!   construction, and the lazy per-source-switch route passes (the paths
//!   that used to be O(n²) all-pairs);
//! * **setup peak bytes** — the high-water mark of net new heap bytes
//!   during setup, from the [`CountingAlloc`] peak counter, asserted
//!   against [`MEGA_SETUP_BUDGET_BYTES`] so an accidental all-pairs
//!   regression fails the benchmark instead of silently eating gigabytes;
//! * **events/s** — the median of five timed end-to-end runs;
//! * **digest** — a timing-free hash of the full outcome, which
//!   `bench-compare --mega` checks against the committed point.
//!
//! Determinism: everything except the wall-clock timings and the host
//! fields is a pure function of `(hosts, m)`, so digests are comparable
//! across runs and machines.

use crate::error::SweepError;
use crate::figure::{Figure, Series};
use crate::json::{Json, ToJson};
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::optimal::optimal_k;
use optimcast_core::params::SystemParams;
use optimcast_netsim::alloc::CountingAlloc;
use optimcast_netsim::{JobRoutes, MulticastJob, SimRun, WorkloadConfig, WorkloadOutcome};
use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
use optimcast_topology::graph::HostId;
use optimcast_topology::Network;
use std::sync::Arc;
use std::time::Instant;

/// Packets per message of the mega benchmark (the ISSUE's m = 16 point).
pub const MEGA_M: u32 = 16;

/// Host counts of the full sizing: fat-tree radices 16, 32, and 64.
pub const MEGA_SIZES: [u32; 3] = [1024, 8192, 65536];

/// Timed runs per point; a point reports their median wall time. One run
/// of the 1,024-host point takes about 5 ms, too short for one sample to
/// rise above host noise.
const MEGA_RUNS: usize = 5;

/// Host counts of the quick (CI smoke) sizing.
pub const MEGA_QUICK_SIZES: [u32; 2] = [1024, 8192];

/// Documented setup-memory budget for the largest point (n = 65,536).
///
/// Measured setup peak is ~14 MiB (fabric CSR + up\*/down\* state + tree
/// arena + lazy per-source-switch route passes); 256 MiB leaves an order
/// of magnitude of headroom for allocator variance while still catching
/// any O(n²) regression — the old all-pairs path table alone would need
/// tens of gigabytes at this scale. Applied to every measured size
/// (smaller sizes stay far under).
pub const MEGA_SETUP_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// One measured size of the mega benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaPoint {
    /// Hosts attached to the fabric.
    pub hosts: u32,
    /// Radix of the generated fat-tree.
    pub fat_tree_k: u32,
    /// Switches in the fabric.
    pub switches: u32,
    /// Optimal tree fan-out for `(hosts, m)` (Theorem 3).
    pub tree_k: u32,
    /// Predicted contention-free steps of the optimal tree.
    pub predicted_steps: u64,
    /// Wall time of setup: fabric + routing + tree + route table (seconds).
    pub setup_seconds: f64,
    /// High-water mark of net new heap bytes during setup (0 when no
    /// counting allocator is registered).
    pub setup_peak_bytes: u64,
    /// Whether `setup_peak_bytes` is under [`MEGA_SETUP_BUDGET_BYTES`]
    /// (vacuously true when unmeasured).
    pub within_budget: bool,
    /// Total channels in the interned route table.
    pub route_channels: u64,
    /// Discrete events the end-to-end run processes.
    pub events: u64,
    /// Simulated completion time (µs).
    pub makespan_us: f64,
    /// Median wall time of the timed end-to-end runs (seconds), each a
    /// fresh `SimRun::run`.
    pub sim_seconds: f64,
    /// Events per second at the median wall time.
    pub events_per_sec: f64,
    /// Timing-free FNV-1a digest of the full outcome (hex).
    pub digest: String,
}

/// The outcome of one mega-scale benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaBenchReport {
    /// Whether this was the quick (CI smoke) sizing.
    pub quick: bool,
    /// Packets per message.
    pub m: u32,
    /// Whether a counting global allocator was registered in this process.
    pub alloc_counting: bool,
    /// The setup-memory budget the points were checked against.
    pub budget_bytes: u64,
    /// One entry per measured host count.
    pub points: Vec<MegaPoint>,
    /// Logical CPUs of the host.
    pub host_nproc: usize,
    /// Operating system of the host (`std::env::consts::OS`).
    pub host_os: &'static str,
}

impl MegaBenchReport {
    /// True iff every point stayed within the setup-memory budget.
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(|p| p.within_budget)
    }

    /// The extended optimal-k figure: throughput, setup time, and setup
    /// memory against host count.
    pub fn figure(&self) -> Figure {
        let series = |label: &str, f: &dyn Fn(&MegaPoint) -> f64| Series {
            label: label.into(),
            points: self
                .points
                .iter()
                .map(|p| (f64::from(p.hosts), f(p)))
                .collect(),
        };
        Figure {
            id: "fig_megascale".into(),
            title: format!("Mega-scale fat-tree optimal-k multicast (m = {})", self.m),
            x_label: "hosts".into(),
            y_label: "Mevents/s | setup s | setup MiB".into(),
            series: vec![
                series("sim Mevents/s", &|p| p.events_per_sec / 1e6),
                series("setup seconds", &|p| p.setup_seconds),
                series("setup peak MiB", &|p| {
                    p.setup_peak_bytes as f64 / (1024.0 * 1024.0)
                }),
            ],
        }
    }

    /// Renders the report in the shared JSON schema: a `meta` object, the
    /// per-size points, and the [`Figure`]-shaped chart.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("hosts", Json::from(u64::from(p.hosts))),
                    ("fat_tree_k", Json::from(u64::from(p.fat_tree_k))),
                    ("switches", Json::from(u64::from(p.switches))),
                    ("tree_k", Json::from(u64::from(p.tree_k))),
                    ("predicted_steps", Json::from(p.predicted_steps)),
                    ("setup_seconds", Json::from(p.setup_seconds)),
                    (
                        "setup_peak_bytes",
                        if self.alloc_counting {
                            Json::from(p.setup_peak_bytes)
                        } else {
                            Json::Null
                        },
                    ),
                    ("within_budget", Json::from(p.within_budget)),
                    ("route_channels", Json::from(p.route_channels)),
                    ("events", Json::from(p.events)),
                    ("makespan_us", Json::from(p.makespan_us)),
                    ("sim_seconds", Json::from(p.sim_seconds)),
                    ("events_per_sec", Json::from(p.events_per_sec)),
                    ("digest", Json::from(p.digest.as_str())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("id", Json::from("bench_mega")),
            (
                "meta",
                Json::obj(vec![
                    ("quick", Json::from(self.quick)),
                    ("m", Json::from(u64::from(self.m))),
                    ("alloc_counting", Json::from(self.alloc_counting)),
                    ("budget_bytes", Json::from(self.budget_bytes)),
                    ("host_nproc", Json::from(self.host_nproc)),
                    ("host_os", Json::from(self.host_os)),
                ]),
            ),
            ("points", Json::Arr(points)),
            ("figure", self.figure().to_json()),
        ])
    }
}

/// Timing-free FNV-1a digest over every deterministic outcome field:
/// makespan, per-rank completion times, per-host buffers, and the
/// aggregate counters. Any divergence between two runs — one reordered
/// event, one different float — changes it.
fn outcome_digest(wl: &WorkloadOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    put(wl.events);
    put(wl.makespan_us.to_bits());
    put(wl.channel_wait_us.to_bits());
    for job in &wl.jobs {
        put(job.latency_us.to_bits());
        put(job.total_sends);
        put(job.blocked_sends);
        for &t in &job.host_done_us {
            put(t.to_bits());
        }
        for &b in &job.max_ni_buffer {
            put(u64::from(b));
        }
    }
    for &b in &wl.max_host_buffer {
        put(u64::from(b));
    }
    let c = &wl.counters;
    put(c.total_sends);
    put(c.packets_forwarded);
    put(c.channel_stall_us.to_bits());
    put(c.recv_unit_waits);
    put(c.recv_unit_wait_us.to_bits());
    put(c.max_send_queue as u64);
    put(c.events);
    h
}

/// Measures one host count: setup (timed, peak-tracked), then the timed
/// end-to-end runs.
fn bench_point(hosts: u32, m: u32) -> MegaPoint {
    let counting = CountingAlloc::enabled();
    let base = CountingAlloc::reset_peak();
    let t_setup = Instant::now();
    let fabric = FabricConfig::fat_tree_for_hosts(hosts);
    let net = FabricNetwork::generate_with_hosts(fabric, hosts);
    let opt = optimal_k(u64::from(hosts), m);
    let tree = Arc::new(kbinomial_tree(hosts, opt.k));
    let binding: Vec<HostId> = (0..hosts).map(HostId).collect();
    let routes = Arc::new(JobRoutes::build(&net, &tree, &binding));
    let setup_seconds = t_setup.elapsed().as_secs_f64();
    let setup_peak_bytes = if counting {
        CountingAlloc::peak_bytes().saturating_sub(base)
    } else {
        0
    };

    let params = SystemParams::paper_1997();
    let jobs = [MulticastJob::fpfs(Arc::clone(&tree), binding, m)];
    let mut times = [0.0; MEGA_RUNS];
    let mut outcome = WorkloadOutcome::default();
    for t in &mut times {
        let t_sim = Instant::now();
        let out = SimRun::new(&net, &jobs, &params, WorkloadConfig::default())
            .routes(std::slice::from_ref(&routes))
            .run()
            .expect("mega benchmark is a valid fault-free multicast");
        *t = t_sim.elapsed().as_secs_f64();
        outcome = out;
    }
    times.sort_by(f64::total_cmp);
    let sim_seconds = times[MEGA_RUNS / 2];

    let k_ary = match fabric {
        FabricConfig::FatTree { k_ary } => k_ary,
        FabricConfig::Dragonfly { .. } => unreachable!("mega sizes are fat-trees"),
    };
    MegaPoint {
        hosts,
        fat_tree_k: k_ary,
        switches: net.topology().num_switches(),
        tree_k: opt.k,
        predicted_steps: opt.steps,
        setup_seconds,
        setup_peak_bytes,
        within_budget: !counting || setup_peak_bytes <= MEGA_SETUP_BUDGET_BYTES,
        route_channels: routes.total_channels() as u64,
        events: outcome.events,
        makespan_us: outcome.makespan_us,
        sim_seconds,
        events_per_sec: outcome.events as f64 / sim_seconds,
        digest: format!("{:016x}", outcome_digest(&outcome)),
    }
}

/// Runs the mega-scale benchmark.
///
/// `hosts` overrides the size axis with a single host count; otherwise the
/// quick sizing measures [`MEGA_QUICK_SIZES`] and the full sizing
/// [`MEGA_SIZES`].
///
/// # Errors
///
/// [`SweepError::NotEnoughHosts`] if a host override asks for fewer than
/// two hosts.
pub fn bench_mega(quick: bool, hosts: Option<u32>) -> Result<MegaBenchReport, SweepError> {
    if let Some(h) = hosts {
        if h < 2 {
            return Err(SweepError::NotEnoughHosts { hosts: h });
        }
    }
    let sizes: Vec<u32> = match hosts {
        Some(h) => vec![h],
        None if quick => MEGA_QUICK_SIZES.to_vec(),
        None => MEGA_SIZES.to_vec(),
    };
    let points = sizes.into_iter().map(|n| bench_point(n, MEGA_M)).collect();
    Ok(MegaBenchReport {
        quick,
        m: MEGA_M,
        alloc_counting: CountingAlloc::enabled(),
        budget_bytes: MEGA_SETUP_BUDGET_BYTES,
        points,
        host_nproc: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        host_os: std::env::consts::OS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mega_point_is_deterministic_and_identical() {
        let report = bench_mega(true, Some(128)).unwrap();
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.hosts, 128);
        assert_eq!(p.fat_tree_k, 8, "128 hosts fit the k=8 fat-tree");
        assert!(p.within_budget);
        assert!(p.events > 0 && p.makespan_us > 0.0);
        // The digest is a pure function of (hosts, m): a second invocation
        // reproduces it bit-for-bit.
        let again = bench_mega(true, Some(128)).unwrap();
        assert_eq!(p.digest, again.points[0].digest);
        assert_eq!(p.events, again.points[0].events);
        assert_eq!(p.makespan_us, again.points[0].makespan_us);
    }

    #[test]
    fn report_json_shape() {
        let report = bench_mega(true, Some(64)).unwrap();
        let json = report.to_json();
        assert_eq!(json.get("id").and_then(Json::as_str), Some("bench_mega"));
        let meta = json.get("meta").unwrap();
        for key in ["quick", "m", "alloc_counting", "budget_bytes"] {
            assert!(meta.get(key).is_some(), "meta missing {key}");
        }
        let points = json.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        for key in [
            "hosts",
            "setup_seconds",
            "setup_peak_bytes",
            "within_budget",
            "events",
            "makespan_us",
            "events_per_sec",
            "digest",
        ] {
            assert!(points[0].get(key).is_some(), "point missing {key}");
        }
        // Without a registered counting allocator the byte metric is null,
        // not a misleading zero.
        if !report.alloc_counting {
            assert_eq!(points[0].get("setup_peak_bytes"), Some(&Json::Null));
        }
        let chart = Figure::from_json(json.get("figure").unwrap()).unwrap();
        assert_eq!(chart.id, "fig_megascale");
        assert_eq!(chart.series.len(), 3);
    }

    #[test]
    fn tiny_override_is_rejected() {
        assert_eq!(
            bench_mega(true, Some(1)).unwrap_err(),
            SweepError::NotEnoughHosts { hosts: 1 }
        );
    }
}
