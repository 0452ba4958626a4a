//! `optimcast` — command-line front end to the library.
//!
//! ```text
//! optimcast topo     [--switches S] [--ports P] [--hosts H] [--seed N] [--dot]
//! optimcast route    [--seed N] <FROM> <TO>
//! optimcast tree     --n N [--k K | --m M] [--render] [--dot] [--diagram]
//! optimcast optimal  --n N --m M            # Theorem-3 optimal k
//! optimcast table    --max-n N --max-m M    # the §4.3.1 lookup table
//! optimcast simulate [--seed N] [--dests D] [--m M] [--nic conv|fcfs|fpfs]
//!                    [--ordering cco|poc|random] [--ideal] [--trace] [--json]
//!                    [--drop-rate R] [--corrupt-rate R] [--crashes C]
//!                    [--crash-at US] [--live-repair] [--fault-seed N]
//!                    [--window W] [--send-units S] [--deadline US]
//! optimcast bench-sweep [--threads N] [--smoke] [--out PATH]
//! optimcast bench-sim [--quick] [--out PATH] [--mega [--hosts N] [--plots DIR]]
//! optimcast bench-compare [--sim PATH] [--sweep PATH] [--mega PATH]
//!                     [--threshold F] [--threads N]
//! optimcast chaos    [--quick] [--seed N] [--threads N] [--dests D] [--m M]
//!                    [--live-repair] [--crash-at US] [--out PATH]
//!                    [--arq] [--window W] [--send-units S] [--plots DIR]
//! optimcast jobs     [--quick] [--seed N] [--threads N] [--m M] [--json]
//!                    [--out PATH] [--plots DIR]
//! optimcast stream   [--quick] [--seed N] [--threads N] [--dests D]
//!                    [--frame-bytes B] [--mtu B] [--frames F]
//!                    [--out PATH] [--plots DIR]
//! optimcast wire     [--role demo|source|sink] --n N [--k K] [--m M]
//!                    [--rank R] [--port-base P] [--payload B] [--mtu M]
//!                    [--timeout-ms T]
//! ```

use optimcast::core::schedule::ForwardingDiscipline;
use optimcast::jsonout::{Json, ToJson};
use optimcast::netsim::{
    JobPayload, MulticastJob, NiModel, SimRun, TraceKind, Transport, WorkloadConfig,
    WorkloadOutcome,
};
use optimcast::prelude::*;
use optimcast::sweep::{
    bench_mega, bench_regressions, bench_sim, bench_sweep, mega_digest_mismatches,
};
use optimcast::topology::ordering::{cco, poc};
use optimcast::transport_udp::{
    loopback_demo, run_sink, run_source, UdpTransport, WirePlan, DEFAULT_MTU, HEADER_LEN,
};
use std::collections::HashMap;

/// Every allocation in the CLI is counted so `bench-sim` can report
/// allocations-per-event; two relaxed atomic adds per allocation are noise
/// next to the allocation itself.
#[global_allocator]
static ALLOC: optimcast::netsim::CountingAlloc = optimcast::netsim::CountingAlloc::new();

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }
    let cmd = args.remove(0);
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        usage();
        return;
    }
    let Some(&(_, accepted, run)) = COMMANDS.iter().find(|(name, _, _)| *name == cmd) else {
        eprintln!("unknown command '{cmd}'");
        usage();
        std::process::exit(2);
    };
    let (flags, positional) = parse_flags(&cmd, accepted, args);
    run(&flags, &positional);
}

/// A subcommand: its name, every flag it accepts (space-separated; any
/// other `--name` exits 2), and its handler over flags and positional args.
type Command = (
    &'static str,
    &'static str,
    fn(&HashMap<String, String>, &[String]),
);

const COMMANDS: &[Command] = &[
    ("topo", "switches ports hosts seed dot", cmd_topo),
    ("route", "switches ports hosts seed", cmd_route),
    ("tree", "n k m render dot diagram", cmd_tree),
    ("optimal", "n m", cmd_optimal),
    ("table", "max-n max-m", cmd_table),
    (
        "simulate",
        "switches ports hosts seed dests m nic ordering ideal trace json drop-rate \
         corrupt-rate crashes crash-at live-repair fault-seed window send-units deadline",
        cmd_simulate,
    ),
    ("bench-sweep", "threads smoke out", cmd_bench_sweep),
    ("bench-sim", "quick out mega hosts plots", cmd_bench_sim),
    (
        "bench-compare",
        "sim sweep mega threshold threads",
        cmd_bench_compare,
    ),
    (
        "chaos",
        "quick seed threads dests m live-repair crash-at out arq window send-units plots",
        cmd_chaos,
    ),
    ("jobs", "quick seed threads m json out plots", cmd_jobs),
    (
        "stream",
        "quick seed threads dests frame-bytes mtu frames out plots",
        cmd_stream,
    ),
    (
        "wire",
        "role n k m rank port-base payload mtu timeout-ms",
        cmd_wire,
    ),
];

fn usage() {
    eprintln!(
        "optimcast — k-binomial multicast toolkit (Kesavan & Panda, ICPP 1997)\n\
         commands:\n\
         \u{20}  topo     [--switches S] [--ports P] [--hosts H] [--seed N]\n\
         \u{20}  route    [--seed N] <FROM> <TO>\n\
         \u{20}  tree     --n N [--k K | --m M] [--render]\n\
         \u{20}  optimal  --n N --m M\n\
         \u{20}  table    [--max-n N] [--max-m M]\n\
         \u{20}  simulate [--seed N] [--dests D] [--m M] [--nic conv|fcfs|fpfs]\n\
         \u{20}           [--ordering cco|poc|random] [--ideal] [--trace] [--json]\n\
         \u{20}           [--drop-rate R] [--corrupt-rate R] [--crashes C]\n\
         \u{20}           [--crash-at US] [--live-repair] [--fault-seed N]\n\
         \u{20}           [--window W] [--send-units S] [--deadline US]\n\
         \u{20}  bench-sweep [--threads N] [--smoke] [--out PATH]\n\
         \u{20}  bench-sim [--quick] [--out PATH] [--mega [--hosts N] [--plots DIR]]\n\
         \u{20}  bench-compare [--sim PATH] [--sweep PATH] [--mega PATH]\n\
         \u{20}           [--threshold F] [--threads N]\n\
         \u{20}  chaos    [--quick] [--seed N] [--threads N] [--dests D] [--m M]\n\
         \u{20}           [--live-repair] [--crash-at US] [--out PATH]\n\
         \u{20}           [--arq] [--window W] [--send-units S] [--plots DIR]\n\
         \u{20}  jobs     [--quick] [--seed N] [--threads N] [--m M] [--json] [--out PATH]\n\
         \u{20}           [--plots DIR]\n\
         \u{20}  stream   [--quick] [--seed N] [--threads N] [--dests D] [--frame-bytes B]\n\
         \u{20}           [--mtu B] [--frames F] [--out PATH] [--plots DIR]\n\
         \u{20}  wire     [--role demo|source|sink] --n N [--k K] [--m M] [--rank R]\n\
         \u{20}           [--port-base P] [--payload B] [--mtu M] [--timeout-ms T]"
    );
}

/// Splits `args` into `--name [value]` flags and positional arguments,
/// exiting 2 on a flag `cmd` does not accept.
fn parse_flags(
    cmd: &str,
    accepted: &str,
    args: Vec<String>,
) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.split_whitespace().any(|f| f == name) {
                eprintln!("unknown flag --{name} for {cmd}");
                std::process::exit(2);
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(a);
        }
    }
    (flags, positional)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("--{name}: {e}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn build_net(flags: &HashMap<String, String>) -> IrregularNetwork {
    let cfg = IrregularConfig {
        switches: get(flags, "switches", 16),
        ports: get(flags, "ports", 8),
        hosts: get(flags, "hosts", 64),
    };
    IrregularNetwork::generate(cfg, get(flags, "seed", 0u64))
}

fn cmd_topo(flags: &HashMap<String, String>, _positional: &[String]) {
    let net = build_net(flags);
    let t = net.topology();
    if flags.contains_key("dot") {
        print!("{}", t.to_dot());
        return;
    }
    println!("{}", net.describe());
    println!(
        "links: {} ({} switch-switch)",
        t.num_links(),
        t.link_pairs().len()
    );
    println!("up*/down* root: {}", net.routing().root());
    for s in 0..t.num_switches() {
        let sid = SwitchId(s);
        let nbrs: Vec<String> = t
            .switch_neighbors(sid)
            .iter()
            .map(|(_, n)| n.to_string())
            .collect();
        println!(
            "  {sid}: level {}, {} hosts, links to [{}]",
            net.routing().level(sid),
            t.switch_hosts(sid).len(),
            nbrs.join(", ")
        );
    }
}

fn cmd_route(flags: &HashMap<String, String>, positional: &[String]) {
    if positional.len() != 2 {
        eprintln!("route needs <FROM> <TO>");
        std::process::exit(2);
    }
    let net = build_net(flags);
    let from = HostId(positional[0].parse().expect("FROM must be a host id"));
    let to = HostId(positional[1].parse().expect("TO must be a host id"));
    let route = net.route(from, to);
    println!("{from} -> {to}: {} channels", route.len());
    let t = net.topology();
    for c in route {
        let (a, b) = t.channel_endpoints(c);
        println!("  {a} -> {b}");
    }
}

fn cmd_tree(flags: &HashMap<String, String>, _positional: &[String]) {
    let n: u32 = get(flags, "n", 16);
    let k = match flags.get("k") {
        Some(v) => v.parse().expect("--k must be a number"),
        None => {
            let m: u32 = get(flags, "m", 1);
            let opt = optimal_k(u64::from(n), m);
            println!(
                "optimal k for n={n}, m={m}: {} ({} steps)",
                opt.k, opt.steps
            );
            opt.k
        }
    };
    let tree = kbinomial_tree(n, k);
    let m: u32 = get(flags, "m", 1);
    let sched = fpfs_schedule(&tree, m);
    println!(
        "{k}-binomial tree over {n}: depth {}, root degree {}, {m}-packet FPFS completes in {} steps",
        tree.depth(),
        tree.root_degree(),
        sched.total_steps()
    );
    if flags.contains_key("render") {
        print!("{}", tree.render());
    }
    if flags.contains_key("dot") {
        print!("{}", tree.to_dot());
    }
    if flags.contains_key("diagram") {
        print!("{}", sched.step_diagram(&tree));
    }
}

fn cmd_optimal(flags: &HashMap<String, String>, _positional: &[String]) {
    let n: u64 = get(flags, "n", 64);
    let m: u32 = get(flags, "m", 8);
    let opt = optimal_k(n, m);
    println!("n={n} m={m}: optimal k = {}, {} steps", opt.k, opt.steps);
    let p = SystemParams::paper_1997();
    println!(
        "contention-free latency: {:.2} us (t_s + steps*t_step + t_r)",
        p.t_s + opt.steps as f64 * p.t_step() + p.t_r
    );
}

fn cmd_table(flags: &HashMap<String, String>, _positional: &[String]) {
    let max_n: u64 = get(flags, "max-n", 64);
    let max_m: u32 = get(flags, "max-m", 16);
    let table = OptimalKTable::build(max_n, max_m);
    println!(
        "optimal-k table, n in 2..={max_n} (rows), m in 1..={max_m} (cols), {} bytes:",
        table.memory_bytes()
    );
    print!("{:>5}", "n\\m");
    for m in 1..=max_m {
        print!("{m:>3}");
    }
    println!();
    for n in 2..=max_n {
        print!("{n:>5}");
        for m in 1..=max_m {
            print!("{:>3}", table.lookup(n, m).unwrap());
        }
        println!();
    }
}

fn cmd_simulate(flags: &HashMap<String, String>, _positional: &[String]) {
    let net = build_net(flags);
    let dests: u32 = get(flags, "dests", 31);
    let m: u32 = get(flags, "m", 8);
    let n_hosts = net.num_hosts();
    if dests >= n_hosts {
        eprintln!(
            "simulate: --dests {dests} requires at least {} hosts, but the network has {n_hosts} \
             (raise --hosts/--switches)",
            dests + 1
        );
        std::process::exit(1);
    }
    if m == 0 {
        eprintln!("simulate: --m must be at least 1 packet");
        std::process::exit(1);
    }
    let ordering = match flags.get("ordering").map(String::as_str) {
        None | Some("cco") => cco(&net),
        Some("poc") => poc(&net),
        Some("random") => Ordering::random(net.num_hosts(), get(flags, "seed", 0u64) + 1),
        Some(o) => {
            eprintln!("unknown ordering '{o}'");
            std::process::exit(2);
        }
    };
    let nic = match flags.get("nic").map(String::as_str) {
        None | Some("fpfs") => NicKind::Smart(ForwardingDiscipline::Fpfs),
        Some("fcfs") => NicKind::Smart(ForwardingDiscipline::Fcfs),
        Some("conv") => NicKind::Conventional,
        Some(o) => {
            eprintln!("unknown nic '{o}'");
            std::process::exit(2);
        }
    };
    let contention = if flags.contains_key("ideal") {
        ContentionMode::Ideal
    } else {
        ContentionMode::Wormhole
    };
    let params = SystemParams::paper_1997();
    let dest_hosts: Vec<HostId> = (1..=dests).map(HostId).collect();
    let chain = ordering.arrange(HostId(0), &dest_hosts);
    let n = chain.len() as u32;
    let opt = optimal_k(u64::from(n), m);
    let tree = kbinomial_tree(n, opt.k);
    let live_repair = flags.contains_key("live-repair");
    let crash_count: u32 = get(flags, "crashes", 0);
    let window: u32 = get(flags, "window", 1);
    let send_units: u32 = get(flags, "send-units", 1);
    let deadline_us: Option<f64> = flags
        .contains_key("deadline")
        .then(|| get(flags, "deadline", 0.0));
    let spec = FaultPlanSpec {
        seed: get(flags, "fault-seed", 1997u64),
        drop_rate: get(flags, "drop-rate", 0.0),
        corrupt_rate: get(flags, "corrupt-rate", 0.0),
        crashes: crash_count,
        crash_at_us: get(flags, "crash-at", if live_repair { 5.0 } else { 0.0 }),
        live_repair,
        window,
        deadline_us,
        send_units,
        ..FaultPlanSpec::default()
    };
    if crash_count as usize >= chain.len() {
        eprintln!(
            "simulate: --crashes {crash_count} must leave at least the source and one \
             destination out of {} participants",
            chain.len()
        );
        std::process::exit(1);
    }
    let jobs = [MulticastJob {
        tree: tree.into(),
        binding: chain.clone(),
        packets: m,
        start_us: 0.0,
        nic,
        payload: JobPayload::Replicated,
    }];
    let config = WorkloadConfig {
        contention,
        timing: NiTiming::Handshake,
        trace: flags.contains_key("trace"),
        ni: NiModel {
            send_units,
            queue_capacity: None,
        },
    };
    let wl = if !spec.is_trivial() {
        // The crashed hosts are the deepest in the ordering: the last
        // `--crashes` destinations of the arranged chain.
        let crashes: Vec<HostCrash> = chain
            .iter()
            .rev()
            .take(crash_count as usize)
            .map(|&host| HostCrash {
                host,
                at_us: spec.crash_at_us,
            })
            .collect();
        SimRun::new(&net, &jobs, &params, config)
            .faults(&spec.plan(0, crashes))
            .run()
    } else {
        SimRun::new(&net, &jobs, &params, config).run()
    }
    .unwrap_or_else(|e| {
        eprintln!("simulate: {e}");
        std::process::exit(1);
    });
    let out = &wl.jobs[0];
    let c = &wl.counters;
    if flags.contains_key("json") {
        print!(
            "{}",
            simulate_json(&wl, opt.k, opt.steps).to_string_pretty()
        );
        return;
    }
    println!("{}", net.describe());
    println!(
        "multicast: {dests} dests, {m} packets, optimal k = {} -> {} predicted steps",
        opt.k, opt.steps
    );
    println!(
        "latency {:.2} us | {} sends, {} blocked, {:.1} us stalled | max fwd buffer {} pkts",
        out.latency_us,
        out.total_sends,
        out.blocked_sends,
        out.channel_wait_us,
        out.max_ni_buffer[1..].iter().max().copied().unwrap_or(0)
    );
    println!(
        "counters: {} forwarded | {} recv-unit waits ({:.1} us) | send queue depth <= {} | {} events",
        c.packets_forwarded,
        c.recv_unit_waits,
        c.recv_unit_wait_us,
        c.max_send_queue,
        c.events
    );
    if c.packets_dropped + c.packets_corrupted + c.retransmits + c.repairs > 0 {
        println!(
            "faults: {} dropped, {} corrupted, {} retransmits, {} abandoned ({:.1} us recovering) \
             | {} repair epoch(s), {} reissued ({:.1} us repairing)",
            c.packets_dropped,
            c.packets_corrupted,
            c.retransmits,
            c.deliveries_abandoned,
            c.recovery_wait_us,
            c.repairs,
            c.reissued_packets,
            c.repair_wait_us
        );
    }
    if c.resend_requests + c.nack_ranges_sent + c.late_acks + c.duplicate_acks > 0
        || c.window_stalls_us > 0.0
        || c.deadline_writeoffs > 0
    {
        println!(
            "arq: {} resend requests, {} nack ranges, {} late acks, {} duplicate acks, \
             {:.1} us window-stalled, {} deadline write-off(s)",
            c.resend_requests,
            c.nack_ranges_sent,
            c.late_acks,
            c.duplicate_acks,
            c.window_stalls_us,
            c.deadline_writeoffs
        );
    }
    if !wl.unreached.is_empty() {
        let ranks: Vec<String> = wl
            .unreached
            .iter()
            .map(|(job, rank)| format!("job {job} rank {}", rank.0))
            .collect();
        println!("unreached (written off): {}", ranks.join(", "));
    }
    let histo: Vec<String> = c
        .buffer_occupancy
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, &n)| n > 0)
        .map(|(depth, n)| format!("{depth}:{n}"))
        .collect();
    if !histo.is_empty() {
        println!(
            "buffer occupancy (pkts:times grown to): {}",
            histo.join(" ")
        );
    }
    if flags.contains_key("trace") {
        println!("timeline ({} records):", wl.trace.len());
        for r in &wl.trace {
            match r.kind {
                TraceKind::SendStart {
                    from,
                    to,
                    packet,
                    stalled_us,
                } => {
                    print!("  {:9.2} us  send  {from} -> {to}  pkt {packet}", r.t_us);
                    if stalled_us > 0.0 {
                        print!("  (stalled {stalled_us:.1} us)");
                    }
                    println!();
                }
                TraceKind::RecvDone { at, packet } => {
                    println!("  {:9.2} us  recv  {at}  pkt {packet}", r.t_us);
                }
                TraceKind::HostDone { rank } => {
                    println!("  {:9.2} us  done  {rank}", r.t_us);
                }
                TraceKind::Dropped {
                    from,
                    to,
                    packet,
                    kind,
                } => {
                    println!(
                        "  {:9.2} us  drop  {from} -> {to}  pkt {packet}  ({kind:?})",
                        r.t_us
                    );
                }
                TraceKind::Retransmit {
                    from,
                    to,
                    packet,
                    attempt,
                } => {
                    println!(
                        "  {:9.2} us  retry {from} -> {to}  pkt {packet}  attempt {attempt}",
                        r.t_us
                    );
                }
                TraceKind::Abandoned {
                    from,
                    to,
                    packet,
                    attempts,
                } => {
                    println!(
                        "  {:9.2} us  abandon {from} -> {to}  pkt {packet}  after {attempts} attempts",
                        r.t_us
                    );
                }
                TraceKind::RepairTriggered {
                    epoch,
                    failed,
                    reattached,
                } => {
                    println!(
                        "  {:9.2} us  repair epoch {epoch}  ({failed} failed, {reattached} reattached)",
                        r.t_us
                    );
                }
                TraceKind::Reissued { to, packet } => {
                    println!("  {:9.2} us  reissue -> {to}  pkt {packet}", r.t_us);
                }
            }
        }
    }
}

fn cmd_bench_sweep(flags: &HashMap<String, String>, _positional: &[String]) {
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = get(flags, "threads", default_threads);
    let smoke = flags.contains_key("smoke");
    let base = if smoke {
        SweepBuilder::quick()
    } else {
        SweepBuilder::paper()
    };
    let label = if smoke {
        "smoke (2×3)"
    } else {
        "paper (10×30)"
    };
    eprintln!("bench-sweep: {label} methodology, serial vs {threads} worker(s)...");
    let report = bench_sweep(&base, threads).unwrap_or_else(|e| {
        eprintln!("bench-sweep: {e}");
        std::process::exit(1);
    });
    let default_out = "BENCH_sweep.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("bench-sweep: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!(
        "cells: {} | serial {:.3} s ({:.1} cells/s) | {} workers {:.3} s ({:.1} cells/s) | speedup {:.2}x",
        report.cells,
        report.serial_seconds,
        report.serial_cells_per_sec(),
        report.threads,
        report.parallel_seconds,
        report.parallel_cells_per_sec(),
        report.speedup()
    );
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate) | parallel output identical to serial: {}",
        report.cache.hits,
        report.cache.misses,
        100.0 * report.cache.hit_rate(),
        report.identical
    );
    println!(
        "routes: {} hits / {} misses ({:.1}% hit rate) | {} events, peak queue {}",
        report.cache.route_hits,
        report.cache.route_misses,
        100.0 * report.cache.route_hit_rate(),
        report.effort.events_processed,
        report.effort.peak_queue_len
    );
    println!("report written to {out_path}");
    if !report.identical {
        eprintln!("bench-sweep: DETERMINISM VIOLATION — parallel figures diverged from serial");
        std::process::exit(1);
    }
}

/// The `bench-sim` subcommand: simulator-core throughput (event-queue
/// churn, `run_multicast` events/sec, allocations-per-event via the
/// counting global allocator registered above), written as
/// `BENCH_sim.json`.
fn cmd_bench_sim(flags: &HashMap<String, String>, _positional: &[String]) {
    if flags.contains_key("mega") {
        cmd_bench_mega(flags);
        return;
    }
    let quick = flags.contains_key("quick");
    let label = if quick { "quick" } else { "full" };
    eprintln!("bench-sim: {label} sizing...");
    let report = bench_sim(quick).unwrap_or_else(|e| {
        eprintln!("bench-sim: {e}");
        std::process::exit(1);
    });
    println!(
        "event queue: {:.2} M schedule+pop pairs/s random delays, {:.2} M on the \
         step-cost lattice ({} ops each)",
        report.queue_ops_per_sec / 1e6,
        report.lattice_queue_ops_per_sec / 1e6,
        report.queue_ops
    );
    println!(
        "run_multicast: {:.2} M events/s over {} runs ({} dests, {} packets, \
         {} events/run, peak queue {})",
        report.events_per_sec / 1e6,
        report.runs,
        report.dests,
        report.m,
        report.events_per_run,
        report.peak_queue_len
    );
    if report.alloc_counting {
        println!(
            "allocations: {:.4} per event (incl. per-run setup)",
            report.allocations_per_event
        );
    } else {
        println!("allocations: not measured (no counting allocator registered)");
    }
    let default_out = "BENCH_sim.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("bench-sim: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");
}

/// The `bench-sim --mega` variant: one end-to-end optimal-k multicast
/// (m = 16) per fat-tree size, with setup time, setup peak-allocation
/// bytes, events/s, and a timing-free outcome digest per point. Writes
/// `BENCH_mega.json` plus, on the full sizing, the committed
/// `results/fig_megascale.json` figure and its plot files.
fn cmd_bench_mega(flags: &HashMap<String, String>) {
    let quick = flags.contains_key("quick");
    let hosts: Option<u32> = flags
        .contains_key("hosts")
        .then(|| get(flags, "hosts", 0u32));
    let label = if quick { "quick" } else { "full" };
    eprintln!("bench-sim --mega: {label} sizing...");
    let report = bench_mega(quick, hosts).unwrap_or_else(|e| {
        eprintln!("bench-sim: {e}");
        std::process::exit(1);
    });
    for p in &report.points {
        println!(
            "n={:>6} (k={} fat-tree, {} switches, tree k={}): setup {:.3} s{} | \
             {:.2} M events/s ({} events, makespan {:.1} us, {:.3} s) | digest {}",
            p.hosts,
            p.fat_tree_k,
            p.switches,
            p.tree_k,
            p.setup_seconds,
            if report.alloc_counting {
                format!(
                    ", peak {:.1} MiB{}",
                    p.setup_peak_bytes as f64 / (1024.0 * 1024.0),
                    if p.within_budget { "" } else { " OVER BUDGET" }
                )
            } else {
                String::new()
            },
            p.events_per_sec / 1e6,
            p.events,
            p.makespan_us,
            p.sim_seconds,
            p.digest
        );
    }
    let default_out = "BENCH_mega.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("bench-sim: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");
    // The committed figure charts the full size axis; quick smoke runs and
    // single-size overrides must not overwrite it.
    if !quick && hosts.is_none() {
        let fig = report.figure();
        let fig_path = "results/fig_megascale.json";
        if let Err(e) = std::fs::write(fig_path, fig.to_json().to_string_pretty()) {
            eprintln!("bench-sim: cannot write {fig_path}: {e}");
            std::process::exit(1);
        }
        println!("figure written to {fig_path}");
        let plot_dir = flags.get("plots").map(String::as_str).unwrap_or("plots");
        write_figure_plots("bench-sim", plot_dir, &fig);
    }
    if !report.all_ok() {
        eprintln!(
            "bench-sim --mega: FAILED — setup memory over the {} MiB budget",
            report.budget_bytes / (1024 * 1024)
        );
        std::process::exit(1);
    }
}

/// The `bench-compare` subcommand: replays a fresh `--quick` measurement
/// of each committed bench artifact and fails on a rate regression beyond
/// `--threshold` (default 0.30). Only sizing-insensitive rates are
/// compared, so the quick fresh run is a fair check against committed
/// full-sizing artifacts. With `--mega`, a fresh point whose outcome digest
/// differs from the committed point of the same host count also fails.
fn cmd_bench_compare(flags: &HashMap<String, String>, _positional: &[String]) {
    let threshold: f64 = get(flags, "threshold", 0.30);
    if !(0.0..1.0).contains(&threshold) {
        eprintln!("bench-compare: --threshold must be in [0, 1)");
        std::process::exit(2);
    }
    let threads: usize = get(flags, "threads", 1);
    let load = |path: &str| -> Json {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-compare: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("bench-compare: {path} is not valid JSON: {e}");
            std::process::exit(1);
        })
    };
    let mut checks = Vec::new();
    let mut compare = |label: &str, path: &str, committed: &Json, fresh: Json| {
        let found = bench_regressions(committed, &fresh);
        if found.is_empty() {
            eprintln!("bench-compare: no comparable rates in {path}");
            std::process::exit(1);
        }
        eprintln!("bench-compare: {label} ({path}): {} rate(s)", found.len());
        checks.extend(found);
    };

    let sim_path = flags
        .get("sim")
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let committed_sim = load(&sim_path);
    eprintln!("bench-compare: fresh quick bench-sim...");
    let fresh_sim = bench_sim(true).unwrap_or_else(|e| {
        eprintln!("bench-compare: {e}");
        std::process::exit(1);
    });
    compare("bench-sim", &sim_path, &committed_sim, fresh_sim.to_json());

    let sweep_path = flags
        .get("sweep")
        .cloned()
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let committed_sweep = load(&sweep_path);
    // The sweep's events/s amortizes per-cell setup over the sample count,
    // so it is only comparable at the committed artifact's own
    // (topologies × dest_sets) methodology — reconstruct it from the meta.
    let meta_u32 = |doc: &Json, key: &str, default: u32| -> u32 {
        doc.get("meta")
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .map(|v| v as u32)
            .unwrap_or(default)
    };
    let base = SweepBuilder::quick()
        .topologies(meta_u32(&committed_sweep, "topologies", 2))
        .dest_sets(meta_u32(&committed_sweep, "dest_sets", 3));
    eprintln!(
        "bench-compare: fresh bench-sweep at the committed {}x{} methodology \
         ({threads} worker(s))...",
        meta_u32(&committed_sweep, "topologies", 2),
        meta_u32(&committed_sweep, "dest_sets", 3)
    );
    let fresh_sweep = bench_sweep(&base, threads).unwrap_or_else(|e| {
        eprintln!("bench-compare: {e}");
        std::process::exit(1);
    });
    compare(
        "bench-sweep",
        &sweep_path,
        &committed_sweep,
        fresh_sweep.to_json(),
    );

    if let Some(mega_path) = flags.get("mega") {
        let committed_mega = load(mega_path);
        eprintln!("bench-compare: fresh quick bench-sim --mega...");
        let fresh_mega = bench_mega(true, None).unwrap_or_else(|e| {
            eprintln!("bench-compare: {e}");
            std::process::exit(1);
        });
        let fresh_mega = fresh_mega.to_json();
        let mismatches = mega_digest_mismatches(&committed_mega, &fresh_mega);
        for d in &mismatches {
            eprintln!(
                "bench-compare: mega digest @{} changed: committed {} | fresh {}",
                d.hosts, d.committed, d.fresh
            );
        }
        if !mismatches.is_empty() {
            eprintln!("bench-compare: FAILED — the simulated mega outcome changed");
            std::process::exit(1);
        }
        compare("bench-mega", mega_path, &committed_mega, fresh_mega);
    }

    let mut regressed = false;
    for c in &checks {
        let bad = c.regressed(threshold);
        regressed |= bad;
        println!(
            "{:>22}: committed {:>14.1} | fresh {:>14.1} | ratio {:.2}{}",
            c.metric,
            c.committed,
            c.fresh,
            c.ratio(),
            if bad { "  REGRESSION" } else { "" }
        );
    }
    if regressed {
        eprintln!(
            "bench-compare: FAILED — at least one rate regressed more than {:.0}%",
            threshold * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench-compare: all {} rate(s) within {:.0}% of committed",
        checks.len(),
        threshold * 100.0
    );
}

/// The `chaos` subcommand: the robustness grid (drop rate × crash count)
/// over the paper's sampling methodology, reported as a table plus the
/// unified figure JSON. The JSON records no thread count and is
/// byte-identical for every `--threads` value — CI runs it twice and diffs.
fn cmd_chaos(flags: &HashMap<String, String>, _positional: &[String]) {
    if flags.contains_key("arq") {
        cmd_chaos_arq(flags);
        return;
    }
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = get(flags, "threads", default_threads);
    let quick = flags.contains_key("quick");
    let seed: u64 = get(flags, "seed", 1997);
    let dests: u32 = get(flags, "dests", 31);
    let m: u32 = get(flags, "m", 4);
    let live_repair = flags.contains_key("live-repair");
    // With live repair the drawn hosts crash mid-run (default 5 µs: before
    // the first send completes, so every crash exercises the repair path);
    // without it they are repaired around before the run, at time zero.
    let crash_at_us: f64 = get(flags, "crash-at", if live_repair { 5.0 } else { 0.0 });
    let spec = FaultPlanSpec {
        seed,
        live_repair,
        crash_at_us,
        ..FaultPlanSpec::default()
    };
    let (base, drops, crashes, label) = if quick {
        (
            SweepBuilder::quick(),
            vec![0.0, 0.05, 0.1],
            vec![0u32, 1, 2],
            "quick (2x3)",
        )
    } else {
        (
            SweepBuilder::paper(),
            vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            vec![0u32, 1, 2, 4, 8],
            "paper (10x30)",
        )
    };
    eprintln!(
        "chaos: {label} methodology, {}x{} grid, {threads} worker(s)...",
        drops.len(),
        crashes.len()
    );
    let sweep = base
        .parallelism(threads)
        .fault(spec)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("chaos: {e}");
            std::process::exit(2);
        });
    let report = sweep.chaos(&drops, &crashes, dests, m).unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(1);
    });
    println!(
        "chaos grid: {dests} dests, {m} packets, fault seed {seed}, {} samples/cell{}",
        sweep.config().samples(),
        if live_repair { ", live repair on" } else { "" }
    );
    print!(
        "{:>6} {:>7} {:>9} {:>6} {:>9} {:>12} {:>11} {:>10}",
        "drop",
        "crashes",
        "delivered",
        "failed",
        "unreached",
        "latency(us)",
        "retransmits",
        "reattached"
    );
    if live_repair {
        print!(" {:>7} {:>8} {:>11}", "repairs", "reissued", "written-off");
    }
    println!();
    for d in 0..report.drop_rates.len() {
        for c in 0..report.crash_counts.len() {
            let cell = report.cell(d, c);
            print!(
                "{:>6.2} {:>7} {:>9} {:>6} {:>9} {:>12.2} {:>11} {:>10}",
                cell.drop_rate,
                cell.crashes,
                cell.delivered,
                cell.failed,
                cell.unreached,
                cell.mean_latency_us,
                cell.retransmits,
                cell.reattached
            );
            if live_repair {
                print!(
                    " {:>7} {:>8} {:>11}",
                    cell.repairs, cell.reissued_packets, cell.unreachable_crashed
                );
            }
            println!();
        }
    }
    if report.all_reached() {
        println!("all-reached invariant holds: every run reached every surviving destination");
    } else {
        let failed: u32 = report.cells.iter().map(|c| c.failed).sum();
        let unreached: u64 = report.cells.iter().map(|c| c.unreached).sum();
        println!(
            "WARNING: {failed} run(s) exhausted the retransmission budget; \
             {unreached} surviving destination(s) unreached"
        );
    }
    // Engine effort is stdout-only context: the JSON report stays
    // byte-identical across hosts and thread counts.
    let effort = sweep.sim_effort();
    let cache = sweep.cache_stats();
    println!(
        "engine: {} events processed, peak queue {}, tree cache {}/{} hits, \
         route cache {}/{} hits",
        effort.events_processed,
        effort.peak_queue_len,
        cache.hits,
        cache.hits + cache.misses,
        cache.route_hits,
        cache.route_hits + cache.route_misses
    );
    let default_out = if live_repair {
        "results/chaos_repair.json".to_string()
    } else {
        "results/chaos.json".to_string()
    };
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("chaos: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");
}

/// The `chaos --arq` variant: the recovery-latency grid — stop-and-wait
/// against windowed selective-repeat at every swept drop rate, charting
/// each mode's added latency over its own lossless baseline. The JSON
/// records no thread count and is byte-identical for every `--threads`
/// value — CI runs it twice and diffs.
fn cmd_chaos_arq(flags: &HashMap<String, String>) {
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = get(flags, "threads", default_threads);
    let quick = flags.contains_key("quick");
    let seed: u64 = get(flags, "seed", 1997);
    let dests: u32 = get(flags, "dests", 31);
    let m: u32 = get(flags, "m", 4);
    let window: u32 = get(flags, "window", 8);
    let send_units: u32 = get(flags, "send-units", 2);
    let (base, drops, label) = if quick {
        (
            SweepBuilder::quick(),
            vec![0.0, 0.02, 0.05, 0.1],
            "quick (2x3)",
        )
    } else {
        (
            SweepBuilder::paper(),
            vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            "paper (10x30)",
        )
    };
    eprintln!(
        "chaos --arq: {label} methodology, {} drop rate(s) x 2 modes, {threads} worker(s)...",
        drops.len()
    );
    let sweep = base
        .parallelism(threads)
        .fault(FaultPlanSpec {
            seed,
            ..FaultPlanSpec::default()
        })
        .build()
        .unwrap_or_else(|e| {
            eprintln!("chaos: {e}");
            std::process::exit(2);
        });
    let report = sweep
        .chaos_arq(&drops, dests, m, window, send_units)
        .unwrap_or_else(|e| {
            eprintln!("chaos: {e}");
            std::process::exit(1);
        });
    println!(
        "arq grid: {dests} dests, {m} packets, fault seed {seed}, window {window}, \
         {send_units} send unit(s), {} samples/cell",
        sweep.config().samples()
    );
    println!(
        "{:>13} {:>6} {:>9} {:>6} {:>12} {:>13} {:>11} {:>6} {:>10}",
        "mode",
        "drop",
        "delivered",
        "failed",
        "latency(us)",
        "recovery(us)",
        "retransmits",
        "nacks",
        "stall(us)"
    );
    for cell in &report.cells {
        println!(
            "{:>13} {:>6.2} {:>9} {:>6} {:>12.2} {:>13.2} {:>11} {:>6} {:>10.1}",
            if cell.windowed {
                "windowed"
            } else {
                "stop-and-wait"
            },
            cell.drop_rate,
            cell.delivered,
            cell.failed,
            cell.mean_latency_us,
            cell.recovery_latency_us,
            cell.retransmits,
            cell.nack_ranges_sent,
            cell.window_stalls_us
        );
    }
    if report.all_reached() {
        println!("all-reached invariant holds: every run recovered every destination");
    } else {
        let failed: u32 = report.cells.iter().map(|c| c.failed).sum();
        let unreached: u64 = report.cells.iter().map(|c| c.unreached).sum();
        println!(
            "WARNING: {failed} run(s) exhausted the retransmission budget; \
             {unreached} destination(s) unreached"
        );
    }
    let effort = sweep.sim_effort();
    println!(
        "engine: {} events processed, peak queue {}",
        effort.events_processed, effort.peak_queue_len
    );
    let default_out = "results/chaos_arq.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("chaos: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");
    // The committed plots chart the full paper grid; quick smoke runs
    // (CI's determinism check) must not overwrite them.
    if !quick {
        let plot_dir = flags.get("plots").map(String::as_str).unwrap_or("plots");
        write_figure_plots("chaos", plot_dir, &report.figure());
    }
}

/// The `stream` subcommand: the streaming grid — churn rate × offered
/// load × buffer depth, each cell streaming frames through bounded
/// drop-oldest buffers to a churning group on the optimal k-binomial
/// tree. The JSON records no thread count and is byte-identical for
/// every `--threads` value — CI runs it twice and diffs.
fn cmd_stream(flags: &HashMap<String, String>, _positional: &[String]) {
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = get(flags, "threads", default_threads);
    let quick = flags.contains_key("quick");
    let seed: u64 = get(flags, "seed", 1997);
    let (base, mut grid, label) = if quick {
        (SweepBuilder::quick(), StreamGrid::quick(), "quick (2x3)")
    } else {
        (SweepBuilder::paper(), StreamGrid::paper(), "paper (10x30)")
    };
    grid.dests = get(flags, "dests", grid.dests);
    grid.frame_bytes = get(flags, "frame-bytes", grid.frame_bytes);
    grid.mtu_bytes = get(flags, "mtu", grid.mtu_bytes);
    grid.frames = get(flags, "frames", grid.frames);
    eprintln!(
        "stream: {label} methodology, {} churn x {} load x {} buffer cell(s), {threads} worker(s)...",
        grid.churn_levels.len(),
        grid.loads.len(),
        grid.buffer_depths.len()
    );
    let sweep = base
        .parallelism(threads)
        .base_seed(seed)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("stream: {e}");
            std::process::exit(2);
        });
    let report = sweep.streaming(&grid).unwrap_or_else(|e| {
        eprintln!("stream: {e}");
        std::process::exit(1);
    });
    println!(
        "stream grid: {} dests, {}-byte frames at {}-byte MTU ({} packets), {} frames/stream, \
         {} samples/cell",
        grid.dests,
        grid.frame_bytes,
        grid.mtu_bytes,
        grid.frame_bytes.div_ceil(grid.mtu_bytes),
        grid.frames,
        sweep.config().samples()
    );
    println!(
        "{:>6} {:>5} {:>6} {:>8} {:>8} {:>9} {:>14} {:>14} {:>13}",
        "churn",
        "load",
        "buf",
        "served",
        "dropped",
        "droprate",
        "goodput(Mb/s)",
        "stale(us)",
        "maxstale(us)"
    );
    for cell in &report.cells {
        println!(
            "{:>6} {:>5.2} {:>6} {:>8} {:>8} {:>9.4} {:>14.3} {:>14.2} {:>13.2}",
            cell.churn_events,
            cell.load,
            if cell.buffer_frames == 0 {
                "inf".to_string()
            } else {
                cell.buffer_frames.to_string()
            },
            cell.served,
            cell.dropped,
            cell.drop_rate,
            cell.mean_goodput_mbps,
            cell.mean_staleness_us,
            cell.max_staleness_us
        );
    }
    let effort = sweep.sim_effort();
    println!(
        "engine: {} events processed, peak queue {}",
        effort.events_processed, effort.peak_queue_len
    );
    let default_out = "results/streaming.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("stream: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");
    // The committed plots chart the full paper grid; quick smoke runs
    // (CI's determinism check) must not overwrite them.
    if !quick {
        let plot_dir = flags.get("plots").map(String::as_str).unwrap_or("plots");
        write_figure_plots("stream", plot_dir, &report.figure());
    }
}

/// The `jobs` subcommand: the multi-tenant admission grid (concurrent job
/// count × mean inter-arrival × group size), every cell scheduled under
/// both FIFO and contention-aware admission on identical sampled job sets.
/// The JSON records no thread count and is byte-identical for every
/// `--threads` value — CI runs it twice and diffs.
fn cmd_jobs(flags: &HashMap<String, String>, _positional: &[String]) {
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = get(flags, "threads", default_threads);
    let quick = flags.contains_key("quick");
    let seed: u64 = get(flags, "seed", 1997);
    let (base, job_counts, interarrivals, groups, m, label) = if quick {
        (
            SweepBuilder::quick(),
            vec![1u32, 2, 4],
            vec![25.0],
            vec![8u32],
            get(flags, "m", 2),
            "quick (2x3)",
        )
    } else {
        // Multi-tenant cells pool `samples × jobs` completions each, so a
        // 3×5 methodology already gives the percentiles hundreds of
        // observations at the larger job counts — the full 10×30 sampling
        // would add minutes for no visible change in the figure.
        (
            SweepBuilder::paper().topologies(3).dest_sets(5),
            vec![1u32, 2, 4, 8, 16],
            vec![25.0, 100.0],
            vec![8u32, 16],
            get(flags, "m", 4),
            "tenant (3x5)",
        )
    };
    eprintln!(
        "jobs: {label} methodology, {}x{}x{} grid, {threads} worker(s)...",
        job_counts.len(),
        interarrivals.len(),
        groups.len()
    );
    let sweep = base
        .base_seed(seed)
        .parallelism(threads)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("jobs: {e}");
            std::process::exit(2);
        });
    let report = sweep
        .multi_tenant(&job_counts, &interarrivals, &groups, m)
        .unwrap_or_else(|e| {
            eprintln!("jobs: {e}");
            std::process::exit(1);
        });
    if flags.contains_key("json") {
        print!("{}", report.to_json().to_string_pretty());
        return;
    }
    println!(
        "multi-tenant grid: {m} packets/job, base seed {seed}, {} samples/cell, \
         channel load bound {}",
        sweep.config().samples(),
        report.max_channel_load
    );
    println!(
        "{:>5} {:>8} {:>6} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} {:>9}",
        "jobs",
        "gap(us)",
        "group",
        "fifo p50",
        "fifo p99",
        "defer",
        "shaped p50",
        "shaped p99",
        "defer",
        "queue(us)"
    );
    for cell in &report.cells {
        println!(
            "{:>5} {:>8.0} {:>6} | {:>10.2} {:>10.2} {:>8} | {:>10.2} {:>10.2} {:>8} {:>9.2}",
            cell.jobs,
            cell.mean_interarrival_us,
            cell.group,
            cell.fifo.p50_completion_us,
            cell.fifo.p99_completion_us,
            cell.fifo.deferred,
            cell.shaped.p50_completion_us,
            cell.shaped.p99_completion_us,
            cell.shaped.deferred,
            cell.shaped.mean_queue_us
        );
    }
    let effort = sweep.sim_effort();
    println!(
        "engine: {} events processed, peak queue {}, {} cells x {} samples x 2 policies",
        effort.events_processed,
        effort.peak_queue_len,
        report.cells.len(),
        sweep.config().samples()
    );
    let default_out = "results/multi_tenant.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    if let Err(e) = std::fs::write(out_path, report.to_json().to_string_pretty()) {
        eprintln!("jobs: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");
    // The committed plots chart the full tenant grid; quick smoke runs
    // (CI's determinism check) must not overwrite them with the 3-cell
    // quick figure.
    if !quick {
        let plot_dir = flags.get("plots").map(String::as_str).unwrap_or("plots");
        write_figure_plots("jobs", plot_dir, &report.figure());
    }
}

/// Writes `<dir>/<figure id>.dat` + `.gp` in the same gnuplot format the
/// `figures` binary uses for every other committed plot: a `# x "label"…`
/// header, one column per series with `?` for missing points, and a
/// pngcairo script. `cmd` labels error messages with the calling
/// subcommand.
fn write_figure_plots(cmd: &str, dir: &str, fig: &optimcast::sweep::Figure) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{cmd}: cannot create {dir}: {e}");
        return;
    }
    let mut xs: Vec<f64> = Vec::new();
    for s in &fig.series {
        for &(x, _) in &s.points {
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let dat_path = format!("{dir}/{}.dat", fig.id);
    let mut dat = String::new();
    dat.push_str("# x");
    for s in &fig.series {
        dat.push_str(&format!("  \"{}\"", s.label));
    }
    dat.push('\n');
    for &x in &xs {
        dat.push_str(&format!("{x}"));
        for s in &fig.series {
            match s.points.iter().find(|&&(px, _)| px == x) {
                Some(&(_, y)) => dat.push_str(&format!(" {y}")),
                None => dat.push_str(" ?"),
            }
        }
        dat.push('\n');
    }
    if let Err(e) = std::fs::write(&dat_path, dat) {
        eprintln!("{cmd}: cannot write {dat_path}: {e}");
        return;
    }
    let gp_path = format!("{dir}/{}.gp", fig.id);
    let mut gp = String::new();
    gp.push_str(&format!(
        "set title \"{}\"\nset xlabel \"{}\"\nset ylabel \"{}\"\nset key left top\nset grid\n",
        fig.title, fig.x_label, fig.y_label
    ));
    gp.push_str(&format!(
        "set terminal pngcairo size 800,600\nset output \"{}.png\"\nset datafile missing \"?\"\nplot ",
        fig.id
    ));
    let plots: Vec<String> = fig
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "\"{}.dat\" using 1:{} with linespoints title \"{}\"",
                fig.id,
                i + 2,
                s.label
            )
        })
        .collect();
    gp.push_str(&plots.join(", \\\n     "));
    gp.push('\n');
    if let Err(e) = std::fs::write(&gp_path, gp) {
        eprintln!("{cmd}: cannot write {gp_path}: {e}");
        return;
    }
    println!("plots written to {dat_path} and {gp_path}");
}

/// The `wire` subcommand: the same k-binomial tree and FPFS schedule the
/// simulator executes, driven over real `std::net::UdpSocket` datagrams.
///
/// * `--role demo` (default): single-process loopback demo — one socket per
///   rank, sinks on threads, the source on the caller's thread. Prints one
///   JSON line per sink and exits non-zero unless every sink reached parity
///   with [`optimcast::core::schedule::Schedule::arrival_order`].
/// * `--role source` / `--role sink --rank R`: multi-process mode. Every
///   process binds `127.0.0.1:(port-base + rank)` and reconstructs the same
///   deterministic plan from `(n, k, m)`, so no coordination channel is
///   needed; start the sinks first, then the source.
fn cmd_wire(flags: &HashMap<String, String>, _positional: &[String]) {
    let n: u32 = get(flags, "n", 8);
    let m: u32 = get(flags, "m", 4);
    if n < 2 {
        eprintln!("wire: --n must be at least 2 (source plus one destination)");
        std::process::exit(2);
    }
    if m == 0 {
        eprintln!("wire: --m must be at least 1 packet");
        std::process::exit(2);
    }
    let k: u32 = match flags.get("k") {
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("--k: {e}");
            std::process::exit(2);
        }),
        None => optimal_k(u64::from(n), m).k,
    };
    let payload: usize = get(flags, "payload", 4096);
    let mtu: usize = get(flags, "mtu", DEFAULT_MTU);
    if mtu <= HEADER_LEN {
        eprintln!("wire: --mtu must exceed the {HEADER_LEN}-byte frame header");
        std::process::exit(2);
    }
    let timeout = std::time::Duration::from_millis(get(flags, "timeout-ms", 10_000u64));
    let role = flags.get("role").map(String::as_str).unwrap_or("demo");
    match role {
        "demo" => {
            let reports = loopback_demo(n, k, m, payload, mtu, timeout).unwrap_or_else(|e| {
                eprintln!("wire: {e}");
                std::process::exit(1);
            });
            let mut ok = true;
            for r in &reports {
                println!("{}", r.to_json_line());
                ok &= r.parity();
            }
            if ok {
                eprintln!(
                    "wire demo: {} sink(s) all at parity with the predicted delivery order \
                     (n={n}, k={k}, m={m})",
                    reports.len()
                );
            } else {
                eprintln!("wire demo: PARITY VIOLATION — wire order diverged from the schedule");
                std::process::exit(1);
            }
        }
        "source" | "sink" => {
            let port_base: u32 = get(flags, "port-base", 47_000u32);
            let rank: u32 = if role == "source" {
                0
            } else {
                get(flags, "rank", 0)
            };
            if role == "sink" && (rank == 0 || rank >= n) {
                eprintln!("wire: --role sink needs --rank R with 1 <= R < n");
                std::process::exit(2);
            }
            if port_base + n > u32::from(u16::MAX) {
                eprintln!("wire: --port-base {port_base} leaves no room for {n} ranks");
                std::process::exit(2);
            }
            let plan = WirePlan::new(n, k, m, payload, mtu);
            let fail = |e: optimcast::netsim::TransportError| -> ! {
                eprintln!("wire: {e}");
                std::process::exit(1);
            };
            let mut t = UdpTransport::bind(("127.0.0.1", (port_base + rank) as u16))
                .unwrap_or_else(|e| fail(e));
            t.set_peers(
                (0..n)
                    .map(|r| std::net::SocketAddr::from(([127, 0, 0, 1], (port_base + r) as u16)))
                    .collect(),
            );
            t.set_mtu(mtu);
            if role == "source" {
                let sent = run_source(&plan, &mut t).unwrap_or_else(|e| fail(e));
                t.close().unwrap_or_else(|e| fail(e));
                println!(
                    "wire source: {sent} send(s) across {} schedule steps (n={n}, k={k}, m={m})",
                    plan.schedule.total_steps()
                );
            } else {
                let report =
                    run_sink(&plan, Rank(rank), &mut t, timeout).unwrap_or_else(|e| fail(e));
                println!("{}", report.to_json_line());
                if !report.parity() {
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("wire: unknown role '{other}' (demo, source, or sink)");
            std::process::exit(2);
        }
    }
}

/// The `simulate --json` document: headline metrics plus the structured
/// counters, machine-readable for scripting around the CLI.
fn simulate_json(wl: &WorkloadOutcome, k: u32, steps: u64) -> Json {
    let out = &wl.jobs[0];
    let c = &wl.counters;
    Json::obj(vec![
        ("optimal_k", Json::from(u64::from(k))),
        ("predicted_steps", Json::from(steps)),
        ("latency_us", Json::from(out.latency_us)),
        ("makespan_us", Json::from(wl.makespan_us)),
        (
            "counters",
            Json::obj(vec![
                ("total_sends", Json::from(c.total_sends)),
                ("blocked_sends", Json::from(c.blocked_sends)),
                ("packets_forwarded", Json::from(c.packets_forwarded)),
                ("channel_stall_us", Json::from(c.channel_stall_us)),
                ("recv_unit_waits", Json::from(c.recv_unit_waits)),
                ("recv_unit_wait_us", Json::from(c.recv_unit_wait_us)),
                ("max_send_queue", Json::from(c.max_send_queue as u64)),
                (
                    "buffer_occupancy",
                    Json::Arr(c.buffer_occupancy.iter().map(|&n| Json::from(n)).collect()),
                ),
                ("events", Json::from(c.events)),
                ("packets_dropped", Json::from(c.packets_dropped)),
                ("packets_corrupted", Json::from(c.packets_corrupted)),
                ("retransmits", Json::from(c.retransmits)),
                ("deliveries_abandoned", Json::from(c.deliveries_abandoned)),
                ("faults_triggered", Json::from(c.faults_triggered)),
                ("recovery_wait_us", Json::from(c.recovery_wait_us)),
                ("repairs", Json::from(c.repairs)),
                ("reissued_packets", Json::from(c.reissued_packets)),
                ("repair_wait_us", Json::from(c.repair_wait_us)),
                ("resend_requests", Json::from(c.resend_requests)),
                ("nack_ranges_sent", Json::from(c.nack_ranges_sent)),
                ("late_acks", Json::from(c.late_acks)),
                ("duplicate_acks", Json::from(c.duplicate_acks)),
                ("window_stalls_us", Json::from(c.window_stalls_us)),
                ("deadline_writeoffs", Json::from(c.deadline_writeoffs)),
            ]),
        ),
        (
            "max_ni_buffer",
            Json::from(u64::from(
                out.max_ni_buffer[1..].iter().max().copied().unwrap_or(0),
            )),
        ),
        (
            "unreached",
            Json::Arr(
                wl.unreached
                    .iter()
                    .map(|&(job, rank)| {
                        Json::obj(vec![
                            ("job", Json::from(u64::from(job))),
                            ("rank", Json::from(u64::from(rank.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
