//! The optimcast benchmark: four workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced replay.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it that
//! start with `#` are diagnostics. `README.md` beside this package explains
//! the workloads, the metrics, and how to read a traced run.

mod host;
mod ledger;
mod stats;
mod trace;
mod workloads;

use host::HostSample;
use ledger::{Ledger, END_TO_END, PER_LAYER};
use optimcast_netsim::CountingAlloc;
use stats::{median, quartiles};
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;
use workloads::{item_order, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A set-up slower than this is timed on its own, [`SLOW_SETUP_REPEATS`]
/// times; faster ones are timed in [`SETUP_BATCHES`] batches of at least
/// [`SETUP_BATCH_S`], so no reported set-up time is one short timer read.
const SLOW_SETUP_S: f64 = 0.5;
const SLOW_SETUP_REPEATS: usize = 3;
const SETUP_BATCH_S: f64 = 0.04;
const SETUP_BATCHES: usize = 21;

const MIB: f64 = 1024.0 * 1024.0;

/// The command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run reports on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, unit)| unit)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let outcome = match args.workload.as_str() {
        "paper_sweep" => execute(&workloads::paper::PaperSweep::full(), &args),
        "fabric65k" => execute(&workloads::fabric::Fabric::full(), &args),
        "stream_churn" => execute(&workloads::stream::StreamChurn::full(), &args),
        "lossy_arq" => execute(&workloads::arq::LossyArq::full(), &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.json());
}

fn execute<W: Workload>(w: &W, args: &Args) -> Outcome {
    if args.trace {
        traced(w, &args.workload, args.seed, args.seconds)
    } else {
        untraced(w, &args.workload, args.seed, args.seconds)
    }
}

/// Times the workload's set-up: the median of [`SLOW_SETUP_REPEATS`] single
/// builds when one build is slow, else of [`SETUP_BATCHES`] batch means.
/// Returns the median, every sample, and a freshly built input.
fn measure_setup<W: Workload>(w: &W) -> (f64, Vec<f64>, W::Inputs) {
    let t = Instant::now();
    let mut inputs = w.setup();
    let first = t.elapsed().as_secs_f64();
    let samples = if first >= SLOW_SETUP_S {
        let mut samples = vec![first];
        for _ in 1..SLOW_SETUP_REPEATS {
            drop(inputs);
            let t = Instant::now();
            inputs = w.setup();
            samples.push(t.elapsed().as_secs_f64());
        }
        samples
    } else {
        let per_batch = (SETUP_BATCH_S / first.max(1e-9)).ceil() as usize;
        (0..SETUP_BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..per_batch {
                    black_box(w.setup());
                }
                t.elapsed().as_secs_f64() / per_batch as f64
            })
            .collect()
    };
    (median(&samples), samples, inputs)
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// The untraced run: set-up timing, then whole passes through the composite
/// calls until `seconds` have passed (at least one), every output checked.
fn untraced<W: Workload>(w: &W, name: &str, seed: u64, seconds: f64) -> Outcome {
    let heap_base = CountingAlloc::reset_peak();
    let (setup_s, setup_samples, mut inputs) = measure_setup(w);

    let host_start = HostSample::now();
    let region = Instant::now();
    let (mut attempted, mut failed, mut deliveries, mut busy) = (0u64, 0u64, 0u64, 0.0f64);
    let mut rates = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let mut consistent = true;
    for pass_no in 0u64.. {
        if pass_no > 0 && w.fresh_inputs_per_pass() {
            inputs = w.setup();
        }
        let order = item_order(w.items(), seed, pass_no);
        let t = Instant::now();
        let pass = black_box(w.pass(&inputs, &order));
        let dt = t.elapsed().as_secs_f64();
        rates.push(pass.deliveries as f64 / dt);
        busy += dt;
        attempted += pass.items;
        failed += pass.failed;
        deliveries += pass.deliveries;
        // Passes are deterministic: each must reproduce the first exactly.
        let key = (pass.digest, pass.sim_latency_us.to_bits());
        consistent &= *first.get_or_insert(key) == key;
        if region.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = region.elapsed().as_secs_f64();
    let host = HostSample::now().since(&host_start);
    let peak_heap_mib = CountingAlloc::peak_bytes().saturating_sub(heap_base) as f64 / MIB;
    let sim_latency_us = f64::from_bits(first.map_or(0, |(_, bits)| bits));
    let (q1, pass_median, q3) = quartiles(&rates);
    // The whole-region rate, not the median pass: over ten seeds per
    // workload it repeated at least as well on three of the four
    // workloads (README.md, "Throughput statistic").
    let region_rate = deliveries as f64 / busy;

    println!(
        "# {{\"workload\": \"{name}\", \"seed\": {seed}, \"passes\": {}, \"pass_rates\": {}, \
         \"pass_rate_q1\": {q1}, \"pass_rate_median\": {pass_median}, \"pass_rate_q3\": {q3}, \
         \"region_rate\": {region_rate}, \"setup_samples_s\": {}, \"wall_s\": {wall}, \
         \"cpu_s\": {}, \"steal_s\": {}, \"nproc\": {}, \"digest\": \"{:016x}\"}}",
        rates.len(),
        list(&rates),
        list(&setup_samples),
        host.cpu_s,
        host.steal_s,
        host::nproc(),
        first.map_or(0, |(digest, _)| digest),
    );
    Outcome {
        correct: failed == 0 && consistent,
        attempted,
        failed,
        metrics: vec![
            ("pkts_per_s", region_rate),
            ("setup_s", setup_s),
            ("peak_heap_mib", peak_heap_mib),
            ("sim_latency_us", sim_latency_us),
        ],
    }
}

/// The traced run: one untraced composite pass for the *(run)* metrics and
/// the pins, a serial one when the workload runs more than one worker (the
/// untraced rate the serial replay is compared with), then traced replays
/// until `seconds` have passed (at least one), each checked bit for bit
/// against the composite.
fn traced<W: Workload>(w: &W, name: &str, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let order = item_order(w.items(), seed, 0);

    let inputs = w.setup();
    let allocs_before = CountingAlloc::allocations();
    let host_before = HostSample::now();
    let t = Instant::now();
    let base = w.pass(&inputs, &order);
    let base_wall = t.elapsed().as_secs_f64();
    let base_cpu = HostSample::now().since(&host_before).cpu_s;
    let base_allocs = CountingAlloc::allocations() - allocs_before;
    drop(inputs);
    let mut attempted = base.items;
    let mut failed = base.failed;

    let serial_rate = if w.workers() > 1 {
        let serial = w.with_workers(1);
        let inputs = serial.setup();
        let t = Instant::now();
        let pass = serial.pass(&inputs, &order);
        let rate = pass.deliveries as f64 / t.elapsed().as_secs_f64();
        attempted += pass.items;
        failed += if pass.digest == base.digest {
            pass.failed
        } else {
            pass.items
        };
        rate
    } else {
        base.deliveries as f64 / base_wall
    };

    let mut tr = Tracer::new();
    let mut ledger = Ledger::default();
    let mut replays = 0u64;
    loop {
        let order = item_order(w.items(), seed, replays);
        let pass = w.replay(&order, &mut tr, &mut ledger);
        let same = pass.digest == base.digest
            && pass.sim_latency_us.to_bits() == base.sim_latency_us.to_bits()
            && pass.deliveries == base.deliveries;
        attempted += pass.items;
        failed += if same { pass.failed } else { pass.items };
        replays += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let n = replays as f64;
    let times = tr.self_times();
    let secs = |span: &str| times.get(span).copied().unwrap_or(0.0) / n;
    let per = |count: u64| count as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let cache = base.cache.unwrap_or_default();
    let sim_s = secs("netsim.sim");
    let replay_rate = ratio(base.deliveries as f64 * n, tr.total("bench.pass"));
    let metrics = vec![
        ("topology.fabric_gen_s", secs("topology.fabric_gen")),
        ("topology.irregular_gen_s", secs("topology.irregular_gen")),
        ("sweep.sample_chain_s", secs("sweep.sample_chain")),
        ("core.tree_build_s", secs("core.tree_build")),
        ("core.schedule_s", secs("core.schedule")),
        ("core.membership_s", secs("core.membership")),
        ("core.membership_ops", per(ledger.membership_ops)),
        ("stream.churn_plan_s", secs("stream.churn_plan")),
        ("routes.build_s", secs("routes.build")),
        ("routes.per_run_s", secs("routes.per_run")),
        ("routes.builds", per(ledger.route_builds)),
        ("routes.channels", per(ledger.route_channels)),
        ("fault.plan_s", secs("fault.plan")),
        ("netsim.sim_s", sim_s),
        ("netsim.runs", per(ledger.runs)),
        ("netsim.events", per(ledger.events)),
        ("netsim.events_per_s", ratio(per(ledger.events), sim_s)),
        ("netsim.peak_queue_len", ledger.peak_queue_len as f64),
        (
            "netsim.allocs_per_event",
            ratio(base_allocs as f64, base.events as f64),
        ),
        (
            "netsim.hooks_per_event",
            ratio(ledger.hooks as f64, ledger.events as f64),
        ),
        ("netsim.channel_stall_us", ledger.channel_stall_us / n),
        ("netsim.recv_unit_wait_us", ledger.recv_unit_wait_us / n),
        (
            "arq.retransmits_per_pkt",
            ratio(per(ledger.retransmits), base.deliveries as f64),
        ),
        ("arq.resend_requests", per(ledger.resend_requests)),
        ("arq.nack_ranges", per(ledger.nack_ranges)),
        ("arq.window_stalls_us", ledger.window_stalls_us / n),
        ("arq.failed_runs", per(ledger.failed_runs)),
        ("stream.frames_served", per(ledger.frames_served)),
        (
            "stream.drop_ratio",
            ratio(ledger.frames_dropped as f64, ledger.frames_emitted as f64),
        ),
        ("stream.joins", per(ledger.joins)),
        ("stream.leaves", per(ledger.leaves)),
        ("sweep.report_s", secs("sweep.report")),
        ("sweep.cache_hit_ratio", cache.hit_rate()),
        ("sweep.route_hit_ratio", cache.route_hit_rate()),
        (
            "sweep.parallel_efficiency",
            ratio(base_cpu, w.workers() as f64 * base_wall),
        ),
        ("trace.attributed_ratio", tr.attributed_ratio()),
        ("trace.overhead_ratio", ratio(replay_rate, serial_rate)),
    ];

    let setup_layers = tr.self_times_under("bench.setup");
    let dominant = setup_layers
        .iter()
        .filter(|(span, _)| !span.starts_with("bench."))
        .max_by(|a, b| a.1.total_cmp(b.1));
    let spans_path = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join(format!("perfbench-spans-{name}.jsonl"))));
    let written = spans_path.as_deref().map(|p| tr.write_jsonl(p));
    println!(
        "# {{\"workload\": \"{name}\", \"seed\": {seed}, \"replays\": {replays}, \
         \"setup_layers_s\": {{{}}}, \"setup_dominant\": \"{}\", \"spans\": \"{}\", \
         \"digest\": \"{:016x}\", \"base_wall_s\": {base_wall}, \"nproc\": {}}}",
        setup_layers
            .iter()
            .map(|(span, s)| format!("\"{span}\": {}", s / n))
            .collect::<Vec<_>>()
            .join(", "),
        dominant.map_or("none", |(span, _)| span),
        match (&spans_path, &written) {
            (Some(p), Some(Ok(()))) => p.display().to_string(),
            _ => "not written".to_string(),
        },
        base.digest,
        host::nproc(),
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::arq::LossyArq;
    use workloads::fabric::Fabric;
    use workloads::paper::PaperSweep;
    use workloads::stream::StreamChurn;

    fn names(outcome: &Outcome) -> Vec<&'static str> {
        outcome.metrics.iter().map(|&(name, _)| name).collect()
    }

    /// The allocation counters are process-wide, so self-tests run one at
    /// a time.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Every metric prints with its unit, a clean tiny run is correct, and
    /// a perturbed pin is reported as failed operations.
    fn self_test<W: Workload>(w: &W, perturbed: &W) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let run = untraced(w, "tiny", 1, 0.0);
        assert!(run.correct && run.failed == 0 && run.attempted > 0);
        assert_eq!(names(&run), END_TO_END.map(|(name, _)| name));
        for &(name, value) in &run.metrics {
            assert!(value > 0.0, "{name} must never read 0");
        }
        let json = run.json();
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }

        let traced_run = traced(w, "tiny", 1, 0.0);
        assert!(traced_run.correct, "replay must reproduce the composite");
        assert_eq!(names(&traced_run), PER_LAYER.map(|(name, _)| name));
        let ratio = traced_run
            .metrics
            .iter()
            .find(|(name, _)| *name == "trace.attributed_ratio")
            .map(|&(_, v)| v);
        assert!(ratio > Some(0.9), "attributed {ratio:?}");

        let bad = untraced(perturbed, "tiny", 1, 0.0);
        assert!(!bad.correct && bad.failed > 0);
        assert!(bad.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn paper_sweep_self_test() {
        let w = PaperSweep::tiny();
        let [a, b, c, d] = w.pins();
        self_test(&w, &PaperSweep::tiny().with_pins([a, b.perturbed(), c, d]));
    }

    #[test]
    fn fabric_self_test() {
        let w = Fabric::tiny();
        let pin = workloads::fabric::FabricPin {
            events: w.pin().events + 1,
            ..w.pin()
        };
        self_test(&w, &Fabric::tiny().with_pin(pin));
    }

    #[test]
    fn stream_churn_self_test() {
        let w = StreamChurn::tiny();
        self_test(&w, &StreamChurn::tiny().with_pin(w.pin().perturbed()));
    }

    #[test]
    fn lossy_arq_self_test() {
        let w = LossyArq::tiny();
        self_test(&w, &LossyArq::tiny().with_pin(w.pin().perturbed()));
    }

    /// `BENCHMARK.json` names exactly the metrics and units printed here.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = spec.matches("\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + 4,
            "4 workloads"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload fabric65k --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
        assert!(parse("--workload x --seconds -1").is_err());
    }
}
