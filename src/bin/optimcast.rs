//! `optimcast` — command-line front end to the library. Run it without
//! arguments (or with `--help`) for the synopsis of every command; the
//! flags each command accepts are declared once, in `COMMANDS`.
//!
//! `figures` regenerates the paper's figures and the ablations as text
//! tables: FIG is any name `--help` lists, or `all` (the default). `--quick`
//! samples 2 topologies × 3 destination sets instead of the paper's 10 × 30;
//! `--json`/`--gnuplot` also write `<DIR>/<fig>.json` or `.dat` + `.gp` per
//! figure. Output is bit-identical for any `--threads`.
//!
//! Bad input exits 2, a failed run exits 1; both print one `<cmd>:` line.

use optimcast::core::schedule::ForwardingDiscipline;
use optimcast::netsim::{
    JobPayload, MulticastJob, NiModel, SimEvent, SimRun, Transport, WorkloadConfig, WorkloadOutcome,
};
use optimcast::prelude::*;
use optimcast::sweep::{bench_mega, mega_digest_check, mega_rate_checks, Json, ToJson};
use optimcast::topology::ordering::cco;
use optimcast::transport_udp::{
    loopback_demo, run_sink, run_source, UdpTransport, WirePlan, DEFAULT_MTU, HEADER_LEN,
};
use std::collections::HashMap;
use std::fmt::Display;
use std::time::Instant;

/// Every allocation in the CLI is counted so `bench-mega` can report each
/// point's set-up peak bytes; two relaxed atomic adds per allocation are
/// noise next to the allocation itself.
#[global_allocator]
static ALLOC: optimcast::netsim::CountingAlloc = optimcast::netsim::CountingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args
        .split_first()
        .filter(|(cmd, _)| !matches!(cmd.as_str(), "--help" | "-h" | "help"))
    else {
        usage();
        return;
    };
    let result = match COMMANDS.iter().find(|c| c.0 == cmd.as_str()) {
        Some(&(name, accepted, switches, run)) => Flags::parse(name, accepted, switches, rest)
            .and_then(|(flags, positional)| run(&flags, &positional))
            .map_err(|e| (name, e)),
        None => {
            usage();
            Err(("optimcast", bad(format!("unknown command '{cmd}'"))))
        }
    };
    if let Err((name, e)) = result {
        let (code, msg) = match e {
            CliError::Usage(msg) => (2, msg),
            CliError::Failed(msg) => (1, msg),
        };
        eprintln!("{name}: {msg}");
        std::process::exit(code);
    }
}

/// Why a command stopped: bad input (exit 2) or a run that failed (exit 1).
enum CliError {
    Usage(String),
    Failed(String),
}

fn bad(e: impl Display) -> CliError {
    CliError::Usage(e.to_string())
}

fn failed(e: impl Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// A subcommand: its name, every flag it accepts (space-separated; any
/// other `--name` exits 2), those of them that take no value, and its
/// handler over flags and positional args.
type Command = (
    &'static str,
    &'static str,
    &'static str,
    fn(&Flags, &[String]) -> Result<(), CliError>,
);

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("topo", "switches ports hosts seed dot", "dot", cmd_topo),
    ("route", "switches ports hosts seed", "", cmd_route),
    ("tree", "n k m render dot diagram", "render dot diagram", cmd_tree),
    ("optimal", "n m", "", cmd_optimal),
    ("table", "max-n max-m", "", cmd_table),
    ("figures", "quick threads json gnuplot", "quick", cmd_figures),
    ("simulate", "switches ports hosts seed dests m nic ordering ideal trace json drop-rate \
                  corrupt-rate crashes crash-at live-repair fault-seed window send-units deadline",
        "ideal trace json live-repair", cmd_simulate),
    ("bench-mega", "quick out hosts plots", "quick", cmd_bench_mega),
    ("bench-compare", "mega threshold", "", cmd_bench_compare),
    ("chaos", "quick seed threads dests m live-repair crash-at out arq window send-units plots",
        "quick live-repair arq", cmd_chaos),
    ("jobs", "quick seed threads m json out plots", "quick json", cmd_jobs),
    ("stream", "quick seed threads dests frame-bytes mtu frames out plots", "quick", cmd_stream),
    ("wire", "role n k m rank port-base payload mtu timeout-ms", "", cmd_wire),
];

fn usage() {
    // Every FIG name, wrapped under the `figures` synopsis.
    let mut figs = String::from("            FIG:");
    let mut width = figs.len();
    for name in FigureId::ALL.iter().map(|id| id.as_str()).chain(["all"]) {
        if width + 1 + name.len() > 76 {
            figs.push_str("\n           ");
            width = 11;
        }
        figs.push(' ');
        figs.push_str(name);
        width += 1 + name.len();
    }
    eprintln!(
        "optimcast — k-binomial multicast toolkit (Kesavan & Panda, ICPP 1997)\n\
         commands:\n\
         \u{20}  topo     [--switches S] [--ports P] [--hosts H] [--seed N]\n\
         \u{20}  route    [--seed N] <FROM> <TO>\n\
         \u{20}  tree     --n N [--k K | --m M] [--render]\n\
         \u{20}  optimal  --n N --m M\n\
         \u{20}  table    [--max-n N] [--max-m M]\n\
         \u{20}  figures  [--quick] [--threads N] [--json DIR] [--gnuplot DIR] [FIG ...]\n\
         {figs}\n\
         \u{20}  simulate [--seed N] [--dests D] [--m M] [--nic conv|fcfs|fpfs]\n\
         \u{20}           [--ordering cco|random] [--ideal] [--trace] [--json]\n\
         \u{20}           [--drop-rate R] [--corrupt-rate R] [--crashes C]\n\
         \u{20}           [--crash-at US] [--live-repair] [--fault-seed N]\n\
         \u{20}           [--window W] [--send-units S] [--deadline US]\n\
         \u{20}  bench-mega [--quick] [--hosts N] [--out PATH] [--plots DIR]\n\
         \u{20}  bench-compare [--mega PATH] [--threshold F]\n\
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

/// A command's `--name [value]` flags; a flag given without a value reads
/// as `"true"`.
struct Flags {
    cmd: &'static str,
    values: HashMap<String, String>,
}

impl Flags {
    /// Splits `args` into flags and positional arguments. A flag takes the
    /// next argument as its value unless it is one of `switches` or that
    /// argument is itself a flag.
    fn parse(
        cmd: &'static str,
        accepted: &str,
        switches: &str,
        args: &[String],
    ) -> Result<(Flags, Vec<String>), CliError> {
        let mut values = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if !accepted.split_whitespace().any(|f| f == name) {
                return Err(bad(format!("unknown flag --{name} for {cmd}")));
            }
            let value = if switches.split_whitespace().any(|f| f == name) {
                None
            } else {
                it.next_if(|v| !v.starts_with("--"))
            };
            values.insert(name.to_string(), value.map_or("true", |v| v).to_string());
        }
        Ok((Flags { cmd, values }, positional))
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The parsed value of `--name`, if given.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        self.str(name)
            .map(|v| v.parse().map_err(|e| bad(format!("--{name}: {e}"))))
            .transpose()
    }

    /// The parsed value of `--name`, or `default`.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        Ok(self.opt(name)?.unwrap_or(default))
    }
}

/// Rejects a value below `min` as bad input.
fn at_least<T: PartialOrd + Display>(name: &str, value: T, min: T) -> Result<T, CliError> {
    if value < min {
        return Err(bad(format!("--{name} must be at least {min}")));
    }
    Ok(value)
}

fn build_net(flags: &Flags) -> Result<IrregularNetwork, CliError> {
    let cfg = IrregularConfig {
        switches: flags.get("switches", 16)?,
        ports: flags.get("ports", 8)?,
        hosts: flags.get("hosts", 64)?,
    };
    cfg.validate().map_err(bad)?;
    Ok(IrregularNetwork::generate(cfg, flags.get("seed", 0u64)?))
}

fn cmd_topo(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let net = build_net(flags)?;
    let t = net.topology();
    if flags.has("dot") {
        print!("{}", t.to_dot());
        return Ok(());
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
    Ok(())
}

fn cmd_route(flags: &Flags, positional: &[String]) -> Result<(), CliError> {
    let [from, to] = positional else {
        return Err(bad("route needs <FROM> <TO>"));
    };
    let net = build_net(flags)?;
    let host = |v: &str| match v.parse::<u32>() {
        Ok(h) if h < net.num_hosts() => Ok(HostId(h)),
        _ => Err(bad(format!(
            "host '{v}' is not one of 0..{}",
            net.num_hosts()
        ))),
    };
    let (from, to) = (host(from)?, host(to)?);
    let route = net.route(from, to);
    println!("{from} -> {to}: {} channels", route.len());
    let t = net.topology();
    for c in route {
        let (a, b) = t.channel_endpoints(c);
        println!("  {a} -> {b}");
    }
    Ok(())
}

fn cmd_tree(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let n: u32 = at_least("n", flags.get("n", 16)?, 1)?;
    let m: u32 = at_least("m", flags.get("m", 1)?, 1)?;
    let k = match flags.opt("k")? {
        Some(k) => at_least("k", k, 1)?,
        None => {
            let opt = optimal_k(u64::from(n), m);
            println!(
                "optimal k for n={n}, m={m}: {} ({} steps)",
                opt.k, opt.steps
            );
            opt.k
        }
    };
    let tree = kbinomial_tree(n, k);
    let sched = fpfs_schedule(&tree, m);
    println!(
        "{k}-binomial tree over {n}: depth {}, root degree {}, {m}-packet FPFS completes in {} steps",
        tree.depth(),
        tree.root_degree(),
        sched.total_steps()
    );
    if flags.has("render") {
        print!("{}", tree.render());
    }
    if flags.has("dot") {
        print!("{}", tree.to_dot());
    }
    if flags.has("diagram") {
        print!("{}", sched.step_diagram(&tree));
    }
    Ok(())
}

fn cmd_optimal(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let n: u64 = at_least("n", flags.get("n", 64)?, 1)?;
    let m: u32 = at_least("m", flags.get("m", 8)?, 1)?;
    let opt = optimal_k(n, m);
    println!("n={n} m={m}: optimal k = {}, {} steps", opt.k, opt.steps);
    let p = SystemParams::paper_1997();
    println!(
        "contention-free latency: {:.2} us (t_s + steps*t_step + t_r)",
        p.t_s + opt.steps as f64 * p.t_step() + p.t_r
    );
    Ok(())
}

fn cmd_table(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let max_n: u64 = at_least("max-n", flags.get("max-n", 64)?, 2)?;
    let max_m: u32 = at_least("max-m", flags.get("max-m", 16)?, 1)?;
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
            // Every (n, m) of the printed range is inside the table.
            print!("{:>3}", table.lookup(n, m).unwrap_or_default());
        }
        println!();
    }
    Ok(())
}

/// The `figures` subcommand: every figure (paper, ablation, extension and
/// chaos-axis) as an aligned text table, plus optional JSON and gnuplot
/// sidecars, in the order named. Unknown FIG names are rejected before any
/// figure runs.
fn cmd_figures(flags: &Flags, names: &[String]) -> Result<(), CliError> {
    let mut figs = Vec::new();
    for name in names {
        if name == "all" {
            figs.extend(FigureId::ALL);
        } else {
            figs.push(name.parse::<FigureId>().map_err(bad)?);
        }
    }
    if names.is_empty() {
        figs = FigureId::ALL.to_vec();
    }
    let builder = if flags.has("quick") {
        SweepBuilder::quick()
    } else {
        SweepBuilder::paper()
    };
    let sweep = builder
        .parallelism(flags.get("threads", 1)?)
        .build()
        .map_err(|e| bad(format!("invalid sweep configuration: {e}")))?;
    let cfg = sweep.config();
    // Only the sampled figures run on the sweep's network population; the
    // analytic figures and the fixed-seed ablations describe their own.
    if figs.iter().any(|f| f.simulated()) {
        println!(
            "# optimcast figure regeneration ({} topologies x {} destination sets, {} worker(s))",
            cfg.topologies(),
            cfg.dest_sets(),
            cfg.threads()
        );
        println!("# network: 64 hosts, 16 switches x 8 ports; CCO ordering; FPFS smart NI\n");
    } else {
        println!(
            "# optimcast figure regeneration ({} worker(s))\n",
            cfg.threads()
        );
    }

    for fig in figs {
        let start = Instant::now();
        let figure = sweep.figure(fig).map_err(failed)?;
        print_figure(&figure, start.elapsed().as_secs_f64());
        if let Some(dir) = flags.str("json") {
            create_dir(dir)?;
            let path = format!("{dir}/{}.json", figure.id);
            write_file(&path, &figure.to_json().to_string_pretty())?;
            println!("   wrote {path}\n");
        }
        if let Some(dir) = flags.str("gnuplot") {
            let (dat, gp) = write_figure_plots(dir, &figure)?;
            println!("   wrote {dat} + {gp}\n");
        }
    }
    Ok(())
}

/// Prints a figure as an aligned table: one row per x value, one column per
/// series (the paper's gnuplot-style series).
fn print_figure(fig: &Figure, elapsed: f64) {
    println!("## {} — {}   [{elapsed:.2}s]", fig.id, fig.title);
    print!("{:>24}", fig.x_label);
    for s in &fig.series {
        print!("{:>16}", s.label);
    }
    println!();
    for x in x_axis(fig) {
        // Fractional axes (e.g. corruption rate) keep two decimals;
        // integral axes (packets, dests) stay as before.
        if x.fract() == 0.0 {
            print!("{x:>24.0}");
        } else {
            print!("{x:>24.2}");
        }
        for s in &fig.series {
            match s.points.iter().find(|&&(px, _)| px == x) {
                Some(&(_, y)) => print!("{y:>16.2}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
    println!("   ({})\n", fig.y_label);
}

/// The union of every series' x values, in first-seen order.
fn x_axis(fig: &Figure) -> Vec<f64> {
    let mut xs: Vec<f64> = Vec::new();
    for s in &fig.series {
        for &(x, _) in &s.points {
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
    }
    xs
}

/// Writes `<dir>/<figure id>.dat` + `.gp`, the format of every committed
/// plot: a `# x "label"…` header, one column per series with `?` for
/// missing points, and a pngcairo script. Returns both paths.
fn write_figure_plots(dir: &str, fig: &Figure) -> Result<(String, String), CliError> {
    create_dir(dir)?;
    let mut xs = x_axis(fig);
    xs.sort_by(f64::total_cmp);
    let mut dat = String::from("# x");
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
    let dat_path = format!("{dir}/{}.dat", fig.id);
    write_file(&dat_path, &dat)?;
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
    let gp = format!(
        "set title \"{}\"\nset xlabel \"{}\"\nset ylabel \"{}\"\nset key left top\nset grid\n\
         set terminal pngcairo size 800,600\nset output \"{}.png\"\nset datafile missing \"?\"\n\
         plot {}\n",
        fig.title,
        fig.x_label,
        fig.y_label,
        fig.id,
        plots.join(", \\\n     ")
    );
    let gp_path = format!("{dir}/{}.gp", fig.id);
    write_file(&gp_path, &gp)?;
    Ok((dat_path, gp_path))
}

/// Writes a figure's plot files to `--plots` (default `plots`).
fn write_plots(flags: &Flags, fig: &Figure) -> Result<(), CliError> {
    let (dat, gp) = write_figure_plots(flags.str("plots").unwrap_or("plots"), fig)?;
    println!("plots written to {dat} and {gp}");
    Ok(())
}

/// Writes a JSON report to `--out` (default `default_out`).
fn write_out(flags: &Flags, default_out: &str, report: &Json) -> Result<(), CliError> {
    let path = flags.str("out").unwrap_or(default_out);
    write_file(path, &report.to_string_pretty())?;
    println!("report written to {path}");
    Ok(())
}

fn write_file(path: &str, body: &str) -> Result<(), CliError> {
    std::fs::write(path, body).map_err(|e| failed(format!("cannot write {path}: {e}")))
}

fn create_dir(dir: &str) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(|e| failed(format!("cannot create {dir}: {e}")))
}

fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cmd_simulate(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let net = build_net(flags)?;
    let dests: u32 = flags.get("dests", 31)?;
    let m: u32 = flags.get("m", 8)?;
    let n_hosts = net.num_hosts();
    if dests >= n_hosts {
        return Err(failed(format!(
            "--dests {dests} requires at least {} hosts, but the network has {n_hosts} \
             (raise --hosts/--switches)",
            dests + 1
        )));
    }
    if m == 0 {
        return Err(failed("--m must be at least 1 packet"));
    }
    let seed: u64 = flags.get("seed", 0)?;
    let ordering = match flags.str("ordering") {
        None | Some("cco") => cco(&net),
        Some("random") => Ordering::random(net.num_hosts(), seed.wrapping_add(1)),
        Some(o) => return Err(bad(format!("unknown ordering '{o}'"))),
    };
    let nic = match flags.str("nic") {
        None | Some("fpfs") => NicKind::Smart(ForwardingDiscipline::Fpfs),
        Some("fcfs") => NicKind::Smart(ForwardingDiscipline::Fcfs),
        Some("conv") => NicKind::Conventional,
        Some(o) => return Err(bad(format!("unknown nic '{o}'"))),
    };
    let contention = if flags.has("ideal") {
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
    let live_repair = flags.has("live-repair");
    let crash_count: u32 = flags.get("crashes", 0)?;
    let send_units: u32 = flags.get("send-units", 1)?;
    let spec = FaultPlanSpec {
        seed: flags.get("fault-seed", 1997)?,
        drop_rate: flags.get("drop-rate", 0.0)?,
        corrupt_rate: flags.get("corrupt-rate", 0.0)?,
        crashes: crash_count,
        crash_at_us: flags.get("crash-at", if live_repair { 5.0 } else { 0.0 })?,
        live_repair,
        window: flags.get("window", 1)?,
        deadline_us: flags.opt("deadline")?,
        send_units,
        ..FaultPlanSpec::default()
    };
    if crash_count as usize >= chain.len() {
        return Err(failed(format!(
            "--crashes {crash_count} must leave at least the source and one \
             destination out of {} participants",
            chain.len()
        )));
    }
    // The crashed hosts are the destinations whose loss orphans the most:
    // ranks by descendant count, most first, ties in rank order. Interior
    // ranks come before leaves, so live repair has subtrees to re-attach.
    let descendants = tree.subtree_sizes();
    let mut victims: Vec<usize> = (1..chain.len()).collect();
    victims.sort_by_key(|&r| std::cmp::Reverse(descendants[r]));
    let crashes: Vec<HostCrash> = victims
        .iter()
        .take(crash_count as usize)
        .map(|&r| HostCrash {
            host: chain[r],
            at_us: spec.crash_at_us,
        })
        .collect();
    let plan = spec.plan(0, crashes);
    // The simulator validates only a plan that can fault (it runs a trivial
    // one as no plan), so a bad fault flag on a fault-free run (`--window
    // 0`) is rejected here.
    plan.validate().map_err(bad)?;
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
        trace: flags.has("trace"),
        ni: NiModel {
            send_units,
            queue_capacity: None,
        },
    };
    let wl = SimRun::new(&net, &jobs, &params, config)
        .faults(&plan)
        .run()
        .map_err(failed)?;
    let out = &wl.jobs[0];
    let c = &wl.counters;
    if flags.has("json") {
        print!(
            "{}",
            simulate_json(&wl, opt.k, opt.steps).to_string_pretty()
        );
        return Ok(());
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
    if flags.has("trace") {
        println!("timeline ({} records):", wl.trace.len());
        for ev in &wl.trace {
            let event = match *ev {
                SimEvent::SendStart {
                    from,
                    to,
                    packet,
                    stalled_us,
                    ..
                } if stalled_us > 0.0 => {
                    format!("send  {from} -> {to}  pkt {packet}  (stalled {stalled_us:.1} us)")
                }
                SimEvent::SendStart {
                    from, to, packet, ..
                } => {
                    format!("send  {from} -> {to}  pkt {packet}")
                }
                SimEvent::RecvDone { at, packet, .. } => format!("recv  {at}  pkt {packet}"),
                SimEvent::HostDone { rank, .. } => format!("done  {rank}"),
                SimEvent::PacketDropped {
                    from,
                    to,
                    packet,
                    kind,
                    ..
                } => {
                    format!("drop  {from} -> {to}  pkt {packet}  ({kind:?})")
                }
                SimEvent::RetransmitScheduled {
                    from,
                    to,
                    packet,
                    attempt,
                    ..
                } => {
                    format!("retry {from} -> {to}  pkt {packet}  attempt {attempt}")
                }
                SimEvent::DeliveryAbandoned {
                    from,
                    to,
                    packet,
                    attempts,
                    ..
                } => {
                    format!("abandon {from} -> {to}  pkt {packet}  after {attempts} attempts")
                }
                SimEvent::RepairTriggered {
                    epoch,
                    failed,
                    reattached,
                    ..
                } => {
                    format!("repair epoch {epoch}  ({failed} failed, {reattached} reattached)")
                }
                SimEvent::PacketReissued { to, packet, .. } => {
                    format!("reissue -> {to}  pkt {packet}")
                }
                // The trace records no other kind; each recorded one is timed.
                _ => continue,
            };
            println!("  {:9.2} us  {event}", ev.t_us().unwrap_or_default());
        }
    }
    Ok(())
}

/// The `bench-mega` subcommand: one end-to-end optimal-k multicast
/// (m = 16) per fat-tree size, with setup time, setup peak-allocation
/// bytes, events/s at the median of five timed runs, and a timing-free
/// outcome digest per point. Writes
/// `BENCH_mega.json` plus, on the full sizing, the committed
/// `results/fig_megascale.json` figure and its plot files.
fn cmd_bench_mega(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let quick = flags.has("quick");
    let hosts: Option<u32> = flags.opt("hosts")?;
    let label = if quick { "quick" } else { "full" };
    eprintln!("bench-mega: {label} sizing...");
    let report = bench_mega(quick, hosts).map_err(failed)?;
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
    write_out(flags, "BENCH_mega.json", &report.to_json())?;
    // The committed figure charts the full size axis; quick smoke runs and
    // single-size overrides must not overwrite it.
    if !quick && hosts.is_none() {
        let fig = report.figure();
        let fig_path = "results/fig_megascale.json";
        write_file(fig_path, &fig.to_json().to_string_pretty())?;
        println!("figure written to {fig_path}");
        write_plots(flags, &fig)?;
    }
    if report.all_ok() {
        Ok(())
    } else {
        Err(failed(format!(
            "FAILED — setup memory over the {} MiB budget",
            report.budget_bytes / (1024 * 1024)
        )))
    }
}

/// The `bench-compare` subcommand: replays a fresh quick `bench-mega`
/// against the committed mega artifact (`--mega`, default
/// `BENCH_mega.json`). It fails when a committed point at a host count the
/// fresh run measured has a missing or changed outcome digest, when no
/// digest was compared at all, or when a point's events/s regressed beyond
/// `--threshold` (default 0.30). Events/s is sizing-insensitive, so the
/// quick fresh run is a fair check against the committed full sizing.
fn cmd_bench_compare(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let threshold: f64 = flags.get("threshold", 0.30)?;
    if !(0.0..1.0).contains(&threshold) {
        return Err(bad("--threshold must be in [0, 1)"));
    }
    let path = flags.str("mega").unwrap_or("BENCH_mega.json");
    let text =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))?;
    let committed =
        Json::parse(&text).map_err(|e| failed(format!("{path} is not valid JSON: {e}")))?;
    eprintln!("bench-compare: fresh quick bench-mega...");
    let fresh = bench_mega(true, None).map_err(failed)?.to_json();

    let digests = mega_digest_check(&committed, &fresh);
    for d in &digests.mismatches {
        let want = d.committed.as_deref().unwrap_or("(missing)");
        eprintln!(
            "bench-compare: mega digest @{}: committed {want} | fresh {}",
            d.hosts, d.fresh
        );
    }
    if !digests.passed() {
        return Err(failed(if digests.mismatches.is_empty() {
            format!(
                "FAILED — no host count of {path} matches the fresh run, so no digest was compared"
            )
        } else {
            format!(
                "FAILED — {} mega digest(s) missing from or changed in {path}",
                digests.mismatches.len()
            )
        }));
    }

    let checks = mega_rate_checks(&committed, &fresh);
    if checks.is_empty() {
        return Err(failed(format!("no comparable rates in {path}")));
    }
    eprintln!(
        "bench-compare: bench-mega ({path}): {} rate(s)",
        checks.len()
    );
    let mut regressed = false;
    for c in &checks {
        let regression = c.regressed(threshold);
        regressed |= regression;
        println!(
            "{:>22}: committed {:>14.1} | fresh {:>14.1} | ratio {:.2}{}",
            format!("mega events/s @{}", c.hosts),
            c.committed,
            c.fresh,
            c.ratio(),
            if regression { "  REGRESSION" } else { "" }
        );
    }
    if regressed {
        return Err(failed(format!(
            "FAILED — at least one rate regressed more than {:.0}%",
            threshold * 100.0
        )));
    }
    println!(
        "bench-compare: {} digest(s) exact, all {} rate(s) within {:.0}% of committed",
        digests.matched,
        checks.len(),
        threshold * 100.0
    );
    Ok(())
}

/// What a grid command's body hands back for [`run_grid`] to finish.
struct GridReport {
    json: Json,
    /// The plotted figure, for grids with committed plot files.
    figure: Option<Figure>,
    /// Appended to the engine effort line.
    effort: String,
}

/// The frame shared by the sweep grid commands (`chaos`, `chaos --arq`,
/// `stream`, `jobs`). It reads `--threads` (default: every core), picks
/// the `--quick` methodology or `paper`, applies `setup` and builds the
/// sweep. `body` runs the grid and prints its table; a `None` means it
/// printed its report itself (`jobs --json`). Otherwise this prints the
/// engine effort line, writes the JSON report to `--out` (default
/// `default_out`) and, on the full grid only, writes the figure's plots:
/// the committed plots chart the full grid, so quick smoke runs (CI's
/// determinism checks) must not overwrite them. The JSON records no thread
/// count and is byte-identical for every `--threads` value.
fn run_grid(
    flags: &Flags,
    paper: SweepBuilder,
    setup: impl FnOnce(SweepBuilder) -> SweepBuilder,
    shape: &str,
    default_out: &str,
    body: impl FnOnce(&Sweep) -> Result<Option<GridReport>, CliError>,
) -> Result<(), CliError> {
    let threads: usize = flags.get("threads", all_cores())?;
    let quick = flags.has("quick");
    let builder = if quick { SweepBuilder::quick() } else { paper };
    let sweep = setup(builder.parallelism(threads)).build().map_err(bad)?;
    let cfg = sweep.config();
    eprintln!(
        "{}: {} ({}x{}) methodology, {shape}, {threads} worker(s)...",
        flags.cmd,
        if quick { "quick" } else { "paper" },
        cfg.topologies(),
        cfg.dest_sets()
    );
    let Some(report) = body(&sweep)? else {
        return Ok(());
    };
    // Engine effort is stdout-only context: the JSON report stays
    // byte-identical across hosts and thread counts.
    let effort = sweep.sim_effort();
    println!(
        "engine: {} events processed, peak queue {}{}",
        effort.events_processed, effort.peak_queue_len, report.effort
    );
    write_out(flags, default_out, &report.json)?;
    match report.figure {
        Some(fig) if !quick => write_plots(flags, &fig),
        _ => Ok(()),
    }
}

/// The `chaos` subcommand: the robustness grid (drop rate × crash count)
/// over the paper's sampling methodology, reported as a table plus the
/// unified figure JSON.
fn cmd_chaos(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    if flags.has("arq") {
        return cmd_chaos_arq(flags);
    }
    let seed: u64 = flags.get("seed", 1997)?;
    let dests: u32 = flags.get("dests", 31)?;
    let m: u32 = flags.get("m", 4)?;
    let live_repair = flags.has("live-repair");
    // With live repair the drawn hosts crash mid-run (default 5 µs: before
    // the first send completes, so every crash exercises the repair path);
    // without it they are repaired around before the run, at time zero.
    let spec = FaultPlanSpec {
        seed,
        live_repair,
        crash_at_us: flags.get("crash-at", if live_repair { 5.0 } else { 0.0 })?,
        ..FaultPlanSpec::default()
    };
    let (drops, crashes) = if flags.has("quick") {
        (vec![0.0, 0.05, 0.1], vec![0u32, 1, 2])
    } else {
        (
            vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            vec![0u32, 1, 2, 4, 8],
        )
    };
    let default_out = if live_repair {
        "results/chaos_repair.json"
    } else {
        "results/chaos.json"
    };
    let shape = format!("{}x{} grid", drops.len(), crashes.len());
    run_grid(
        flags,
        SweepBuilder::paper(),
        |b| b.fault(spec),
        &shape,
        default_out,
        |sweep| {
            let report = sweep.chaos(&drops, &crashes, dests, m).map_err(failed)?;
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
                println!(
                    "all-reached invariant holds: every run reached every surviving destination"
                );
            } else {
                let failed: u32 = report.cells.iter().map(|c| c.failed).sum();
                let unreached: u64 = report.cells.iter().map(|c| c.unreached).sum();
                println!(
                    "WARNING: {failed} run(s) exhausted the retransmission budget; \
                     {unreached} surviving destination(s) unreached"
                );
            }
            let cache = sweep.cache_stats();
            Ok(Some(GridReport {
                json: report.to_json(),
                figure: None,
                effort: format!(
                    ", tree cache {}/{} hits, route cache {}/{} hits",
                    cache.hits,
                    cache.hits + cache.misses,
                    cache.route_hits,
                    cache.route_hits + cache.route_misses
                ),
            }))
        },
    )
}

/// The `chaos --arq` variant: the recovery-latency grid — stop-and-wait
/// against windowed selective-repeat at every swept drop rate, charting
/// each mode's added latency over its own lossless baseline.
fn cmd_chaos_arq(flags: &Flags) -> Result<(), CliError> {
    let seed: u64 = flags.get("seed", 1997)?;
    let dests: u32 = flags.get("dests", 31)?;
    let m: u32 = flags.get("m", 4)?;
    let window: u32 = flags.get("window", 8)?;
    let send_units: u32 = flags.get("send-units", 2)?;
    let drops = if flags.has("quick") {
        vec![0.0, 0.02, 0.05, 0.1]
    } else {
        vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
    };
    let spec = FaultPlanSpec {
        seed,
        ..FaultPlanSpec::default()
    };
    let shape = format!("{} drop rate(s) x 2 ARQ modes", drops.len());
    run_grid(
        flags,
        SweepBuilder::paper(),
        |b| b.fault(spec),
        &shape,
        "results/chaos_arq.json",
        |sweep| {
            let report = sweep
                .chaos_arq(&drops, dests, m, window, send_units)
                .map_err(failed)?;
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
            Ok(Some(GridReport {
                json: report.to_json(),
                figure: Some(report.figure()),
                effort: String::new(),
            }))
        },
    )
}

/// The `stream` subcommand: the streaming grid — churn rate × offered
/// load × buffer depth, each cell streaming frames through bounded
/// drop-oldest buffers to a churning group on the optimal k-binomial
/// tree.
fn cmd_stream(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let seed: u64 = flags.get("seed", 1997)?;
    let mut grid = if flags.has("quick") {
        StreamGrid::quick()
    } else {
        StreamGrid::paper()
    };
    grid.dests = flags.get("dests", grid.dests)?;
    grid.frame_bytes = flags.get("frame-bytes", grid.frame_bytes)?;
    grid.mtu_bytes = flags.get("mtu", grid.mtu_bytes)?;
    grid.frames = flags.get("frames", grid.frames)?;
    let shape = format!(
        "{} churn x {} load x {} buffer cell(s)",
        grid.churn_levels.len(),
        grid.loads.len(),
        grid.buffer_depths.len()
    );
    run_grid(
        flags,
        SweepBuilder::paper(),
        |b| b.base_seed(seed),
        &shape,
        "results/streaming.json",
        |sweep| {
            let report = sweep.streaming(&grid).map_err(failed)?;
            println!(
                "stream grid: {} dests, {}-byte frames at {}-byte MTU ({} packets), \
                 {} frames/stream, {} samples/cell",
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
            Ok(Some(GridReport {
                json: report.to_json(),
                figure: Some(report.figure()),
                effort: String::new(),
            }))
        },
    )
}

/// The `jobs` subcommand: the multi-tenant admission grid (concurrent job
/// count × mean inter-arrival × group size), every cell scheduled under
/// both FIFO and contention-aware admission on identical sampled job sets.
fn cmd_jobs(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let seed: u64 = flags.get("seed", 1997)?;
    let (job_counts, interarrivals, groups, m) = if flags.has("quick") {
        (vec![1u32, 2, 4], vec![25.0], vec![8u32], flags.get("m", 2)?)
    } else {
        (
            vec![1u32, 2, 4, 8, 16],
            vec![25.0, 100.0],
            vec![8u32, 16],
            flags.get("m", 4)?,
        )
    };
    let shape = format!(
        "{}x{}x{} grid",
        job_counts.len(),
        interarrivals.len(),
        groups.len()
    );
    // Multi-tenant cells pool `samples × jobs` completions each, so a 3×5
    // methodology already gives the percentiles hundreds of observations
    // at the larger job counts — the full 10×30 sampling would add minutes
    // for no visible change in the figure.
    let paper = SweepBuilder::paper().topologies(3).dest_sets(5);
    run_grid(
        flags,
        paper,
        |b| b.base_seed(seed),
        &shape,
        "results/multi_tenant.json",
        |sweep| {
            let report = sweep
                .multi_tenant(&job_counts, &interarrivals, &groups, m)
                .map_err(failed)?;
            if flags.has("json") {
                print!("{}", report.to_json().to_string_pretty());
                return Ok(None);
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
            Ok(Some(GridReport {
                json: report.to_json(),
                figure: Some(report.figure()),
                effort: format!(
                    ", {} cells x {} samples x 2 policies",
                    report.cells.len(),
                    sweep.config().samples()
                ),
            }))
        },
    )
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
fn cmd_wire(flags: &Flags, _positional: &[String]) -> Result<(), CliError> {
    let n: u32 = at_least("n", flags.get("n", 8)?, 2)?;
    let m: u32 = at_least("m", flags.get("m", 4)?, 1)?;
    let k: u32 = match flags.opt("k")? {
        Some(k) => at_least("k", k, 1)?,
        None => optimal_k(u64::from(n), m).k,
    };
    let payload: usize = flags.get("payload", 4096)?;
    let mtu: usize = flags.get("mtu", DEFAULT_MTU)?;
    if mtu <= HEADER_LEN {
        return Err(bad(format!(
            "--mtu must exceed the {HEADER_LEN}-byte frame header"
        )));
    }
    let timeout = std::time::Duration::from_millis(flags.get("timeout-ms", 10_000)?);
    let role = flags.str("role").unwrap_or("demo");
    match role {
        "demo" => {
            let reports = loopback_demo(n, k, m, payload, mtu, timeout).map_err(failed)?;
            let mut ok = true;
            for r in &reports {
                println!("{}", r.to_json_line());
                ok &= r.parity();
            }
            if !ok {
                return Err(failed(
                    "PARITY VIOLATION — wire order diverged from the schedule",
                ));
            }
            eprintln!(
                "wire demo: {} sink(s) all at parity with the predicted delivery order \
                 (n={n}, k={k}, m={m})",
                reports.len()
            );
        }
        "source" | "sink" => {
            let port_base: u32 = flags.get("port-base", 47_000)?;
            let rank: u32 = match role {
                "source" => 0,
                _ => flags.get("rank", 0)?,
            };
            if role == "sink" && (rank == 0 || rank >= n) {
                return Err(bad("--role sink needs --rank R with 1 <= R < n"));
            }
            if u64::from(port_base) + u64::from(n) > u64::from(u16::MAX) {
                return Err(bad(format!(
                    "--port-base {port_base} leaves no room for {n} ranks"
                )));
            }
            let plan = WirePlan::new(n, k, m, payload, mtu);
            let mut t =
                UdpTransport::bind(("127.0.0.1", (port_base + rank) as u16)).map_err(failed)?;
            t.set_peers(
                (0..n)
                    .map(|r| std::net::SocketAddr::from(([127, 0, 0, 1], (port_base + r) as u16)))
                    .collect(),
            );
            t.set_mtu(mtu);
            if role == "source" {
                let sent = run_source(&plan, &mut t).map_err(failed)?;
                t.close().map_err(failed)?;
                println!(
                    "wire source: {sent} send(s) across {} schedule steps (n={n}, k={k}, m={m})",
                    plan.schedule.total_steps()
                );
            } else {
                let report = run_sink(&plan, Rank(rank), &mut t, timeout).map_err(failed)?;
                println!("{}", report.to_json_line());
                if !report.parity() {
                    return Err(failed(format!(
                        "sink rank {rank} diverged from the predicted delivery order"
                    )));
                }
            }
        }
        other => {
            return Err(bad(format!(
                "unknown role '{other}' (demo, source, or sink)"
            )))
        }
    }
    Ok(())
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
                    Json::from(c.buffer_occupancy.as_slice()),
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
