//! The `bench-sim` measurement: simulator-core throughput.
//!
//! Where `bench-sweep` times the whole figure pipeline (sampling, memo
//! layer, reduction), this harness isolates the two hot loops underneath
//! it:
//!
//! 1. **Event queue** — steady-state schedule/pop churn on the
//!    timestamp-bucketed [`EventQueue`](optimcast_netsim::engine::EventQueue),
//!    the innermost data structure of every simulation, in two mixes:
//!    random delays (nearly every pending time distinct, one event per
//!    bucket) and a step-cost lattice shaped like the traced 65k-host run
//!    (~30k resident, ~45% zero-delay, ≤ 160 distinct pending times);
//! 2. **`run_multicast`** — full simulated multicasts on a memoized
//!    topology, each a one-job `SimRun` with an interned route table built
//!    exactly as the sweep hot loop builds it, reported as *events per
//!    second* (the simulator's native unit of work, independent of how
//!    many events one figure point happens to need).
//!
//! When the binary registers the counting allocator
//! ([`CountingAlloc`]), the report also includes measured
//! allocations-per-event for the steady-state run loop — the metric the
//! hot-path work drives toward zero. Without it the field is reported as
//! unmeasured rather than a misleading `0.0`.

use crate::config::SweepBuilder;
use crate::error::SweepError;
use crate::figure::{Figure, Series};
use crate::json::{Json, ToJson};
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_netsim::alloc::CountingAlloc;
use optimcast_netsim::engine::EventQueue;
use optimcast_netsim::{JobRoutes, MulticastJob, SimRun, WorkloadConfig};
use optimcast_rng::{ChaCha8Rng, Rng};
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one simulator-core benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBenchReport {
    /// Whether this was the quick (CI smoke) sizing.
    pub quick: bool,
    /// Schedule+pop pairs performed in the queue microbench.
    pub queue_ops: u64,
    /// Steady-state schedule+pop pairs per second, random delays.
    pub queue_ops_per_sec: f64,
    /// Steady-state schedule+pop pairs per second, step-cost lattice.
    pub lattice_queue_ops_per_sec: f64,
    /// Timed `run_multicast` repetitions.
    pub runs: u32,
    /// Destinations of the benchmarked multicast.
    pub dests: u32,
    /// Packets per message of the benchmarked multicast.
    pub m: u32,
    /// Discrete events one run processes.
    pub events_per_run: u64,
    /// Simulator events processed per second across the timed runs.
    pub events_per_sec: f64,
    /// Event-queue high-water mark of one run.
    pub peak_queue_len: usize,
    /// Whether a counting global allocator was registered in this process.
    pub alloc_counting: bool,
    /// Measured heap allocations per simulated event across the timed runs
    /// (meaningful only when `alloc_counting`; includes per-run setup, so
    /// steady state shows as a small fraction, not exactly zero).
    pub allocations_per_event: f64,
    /// Logical CPUs of the host.
    pub host_nproc: usize,
    /// Operating system of the host (`std::env::consts::OS`).
    pub host_os: &'static str,
}

impl SimBenchReport {
    /// Renders the report in the shared JSON schema: a `meta` object with
    /// the raw measurements plus a [`Figure`]-shaped throughput chart.
    pub fn to_json(&self) -> Json {
        let chart = Figure {
            id: "bench_sim".into(),
            title: "Simulator core throughput".into(),
            x_label: "metric (0 = queue Mops/s, 1 = sim Mevents/s, 2 = lattice queue Mops/s)"
                .into(),
            y_label: "millions per second".into(),
            series: vec![Series {
                label: "throughput".into(),
                points: vec![
                    (0.0, self.queue_ops_per_sec / 1e6),
                    (1.0, self.events_per_sec / 1e6),
                    (2.0, self.lattice_queue_ops_per_sec / 1e6),
                ],
            }],
        };
        Json::obj(vec![
            ("id", Json::from("bench_sim")),
            (
                "meta",
                Json::obj(vec![
                    ("quick", Json::from(self.quick)),
                    ("queue_ops", Json::from(self.queue_ops)),
                    ("queue_ops_per_sec", Json::from(self.queue_ops_per_sec)),
                    (
                        "lattice_queue_ops_per_sec",
                        Json::from(self.lattice_queue_ops_per_sec),
                    ),
                    ("runs", Json::from(self.runs)),
                    ("dests", Json::from(self.dests)),
                    ("m", Json::from(self.m)),
                    ("events_per_run", Json::from(self.events_per_run)),
                    ("events_per_sec", Json::from(self.events_per_sec)),
                    ("peak_queue_len", Json::from(self.peak_queue_len)),
                    ("alloc_counting", Json::from(self.alloc_counting)),
                    (
                        "allocations_per_event",
                        if self.alloc_counting {
                            Json::from(self.allocations_per_event)
                        } else {
                            Json::Null
                        },
                    ),
                    ("host_nproc", Json::from(self.host_nproc)),
                    ("host_os", Json::from(self.host_os)),
                ]),
            ),
            ("figure", chart.to_json()),
        ])
    }
}

/// Steady-state event-queue churn: a resident population of `resident`
/// events, `resident` untimed warm-up cycles, then `ops` timed
/// pop-one/schedule-one cycles, all cycling through the pre-drawn `delays`
/// (so the timed loop measures the queue, not the RNG). Returns ops per
/// second.
fn bench_queue(resident: usize, ops: u64, delays: &[f64]) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..resident {
        q.schedule_in(delays[i % delays.len()], i as u64);
    }
    let mut acc = 0u64;
    let mut cycle = |i: u64| {
        let (_, payload) = q.pop().expect("population stays resident");
        acc = acc.wrapping_add(payload);
        q.schedule_in(delays[(i as usize) % delays.len()], acc);
    };
    (0..resident as u64).for_each(&mut cycle);
    let start = Instant::now();
    (0..ops).for_each(&mut cycle);
    let elapsed = start.elapsed().as_secs_f64();
    // Keep the accumulator observable so the loop cannot be elided.
    assert!(acc != u64::MAX, "accumulator sink");
    ops as f64 / elapsed
}

/// Random delays on a 0.01 µs grid over 10 µs: almost every pending time
/// is distinct.
fn random_delays() -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0005_1EE7);
    (0..1024)
        .map(|_| 0.01 + f64::from(rng.next_u32() % 1000) / 100.0)
        .collect()
}

/// Step-cost lattice delays, the mix of a traced 65k-host fat-tree run:
/// 45% at the current instant, the rest 1–159 quarter-µs ticks ahead, so
/// at most 160 distinct times are ever pending.
fn lattice_delays() -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0005_1EE7);
    (0..1024)
        .map(|_| {
            if rng.bounded_u64(100) < 45 {
                0.0
            } else {
                0.25 * (1 + rng.bounded_u64(159)) as f64
            }
        })
        .collect()
}

/// Resident events of the lattice queue case (the 65k run peaks at 30,824).
const LATTICE_RESIDENT: usize = 30_000;

/// Runs the simulator-core benchmark at the quick (CI smoke) or full
/// sizing and returns the report.
///
/// # Errors
///
/// [`SweepError`] if the benchmark configuration fails to build (it is a
/// fixed known-good quick methodology, so this indicates a build bug).
pub fn bench_sim(quick: bool) -> Result<SimBenchReport, SweepError> {
    let (queue_resident, queue_ops, runs, dests, m) = if quick {
        (512usize, 200_000u64, 10u32, 31u32, 8u32)
    } else {
        (512, 2_000_000, 200, 47, 32)
    };

    let queue_ops_per_sec = bench_queue(queue_resident, queue_ops, &random_delays());
    let lattice_queue_ops_per_sec = bench_queue(LATTICE_RESIDENT, queue_ops, &lattice_delays());

    // One representative cell of the paper methodology: topology 0 of the
    // quick sweep, its first sampled chain, the optimal-k tree, and the
    // interned route table — the exact inputs the sweep hot loop sees.
    let sweep = SweepBuilder::quick().build()?;
    let cfg = *sweep.config();
    let topo = sweep.topology(0);
    let chain = sample_chain(&topo.net, &topo.ordering, cfg.set_seed(0, 0), dests);
    let tree = sweep.tree(TreePolicy::OptimalKBinomial, chain.len() as u32, m);
    let routes = Arc::new(JobRoutes::build(&topo.net, &tree, &chain));
    let run_once = || {
        let job = MulticastJob::fpfs(Arc::clone(&tree), chain.clone(), m);
        SimRun::new(
            &topo.net,
            std::slice::from_ref(&job),
            cfg.params(),
            WorkloadConfig::default(),
        )
        .routes(vec![Arc::clone(&routes)])
        .run()
        .expect("benchmark cell is a valid multicast")
    };

    // Warm up (first-touch allocations, branch predictors), then time.
    let warm = run_once();
    let events_per_run = warm.events;
    let peak_queue_len = warm.counters.peak_queue_len;
    let allocs_before = CountingAlloc::allocations();
    let start = Instant::now();
    let mut total_events = 0u64;
    for _ in 0..runs {
        total_events += run_once().events;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = CountingAlloc::allocations() - allocs_before;

    Ok(SimBenchReport {
        quick,
        queue_ops,
        queue_ops_per_sec,
        lattice_queue_ops_per_sec,
        runs,
        dests,
        m,
        events_per_run,
        events_per_sec: total_events as f64 / elapsed,
        peak_queue_len,
        alloc_counting: CountingAlloc::enabled(),
        allocations_per_event: allocs as f64 / total_events as f64,
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
    fn quick_bench_reports_sane_numbers() {
        let report = bench_sim(true).unwrap();
        assert!(report.quick);
        assert!(report.queue_ops_per_sec > 0.0);
        assert!(report.lattice_queue_ops_per_sec > 0.0);
        assert!(report.events_per_run > 0);
        assert!(report.events_per_sec > 0.0);
        assert!(report.peak_queue_len > 0);
        let json = report.to_json();
        let meta = json.get("meta").unwrap();
        for key in [
            "queue_ops_per_sec",
            "lattice_queue_ops_per_sec",
            "events_per_sec",
            "events_per_run",
            "peak_queue_len",
            "alloc_counting",
            "allocations_per_event",
        ] {
            assert!(meta.get(key).is_some(), "meta missing {key}");
        }
        // Without a registered counting allocator the metric is null, not a
        // misleading zero.
        if !report.alloc_counting {
            assert_eq!(meta.get("allocations_per_event"), Some(&Json::Null));
        }
        let chart = Figure::from_json(json.get("figure").unwrap()).unwrap();
        assert_eq!(chart.id, "bench_sim");
        assert_eq!(chart.series[0].points.len(), 3);
    }
}
