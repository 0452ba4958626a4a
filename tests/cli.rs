//! End-to-end tests of the `optimcast` binary (the interface a downstream
//! user drives first).

use std::process::Command;

fn optimcast(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn optimal_subcommand() {
    let (out, ok) = optimcast(&["optimal", "--n", "64", "--m", "8"]);
    assert!(ok);
    assert!(out.contains("optimal k = 2"), "{out}");
    assert!(out.contains("22 steps"), "{out}");
    assert!(out.contains("135.00 us"), "{out}");
}

#[test]
fn tree_subcommand_with_diagram() {
    let (out, ok) = optimcast(&["tree", "--n", "4", "--k", "2", "--m", "3", "--diagram"]);
    assert!(ok);
    // Paper Fig. 5(a) FPFS layout on the binomial tree.
    assert!(out.contains("completes in 6 steps"), "{out}");
    assert!(out.contains("r0 -> r2:"), "{out}");
}

#[test]
fn tree_dot_output() {
    let (out, ok) = optimcast(&["tree", "--n", "8", "--k", "3", "--dot"]);
    assert!(ok);
    assert!(out.contains("digraph multicast"), "{out}");
    assert_eq!(out.matches(" -> ").count(), 7, "{out}");
}

#[test]
fn simulate_subcommand() {
    let (out, ok) = optimcast(&[
        "simulate", "--dests", "7", "--m", "2", "--seed", "3", "--ideal",
    ]);
    assert!(ok);
    assert!(out.contains("latency"), "{out}");
    assert!(out.contains("0 blocked"), "{out}");
}

#[test]
fn simulate_reports_structured_counters() {
    let (out, ok) = optimcast(&["simulate", "--dests", "15", "--m", "4", "--seed", "2"]);
    assert!(ok);
    assert!(out.contains("counters:"), "{out}");
    assert!(out.contains("forwarded"), "{out}");
    assert!(out.contains("recv-unit waits"), "{out}");
    assert!(out.contains("send queue depth"), "{out}");
    assert!(out.contains("events"), "{out}");
    assert!(out.contains("buffer occupancy"), "{out}");
}

#[test]
fn simulate_json_output() {
    let (out, ok) = optimcast(&[
        "simulate", "--dests", "7", "--m", "2", "--seed", "3", "--json",
    ]);
    assert!(ok);
    for key in [
        "\"latency_us\"",
        "\"makespan_us\"",
        "\"optimal_k\"",
        "\"counters\"",
        "\"total_sends\"",
        "\"blocked_sends\"",
        "\"packets_forwarded\"",
        "\"recv_unit_waits\"",
        "\"max_send_queue\"",
        "\"buffer_occupancy\"",
        "\"events\"",
        "\"packets_dropped\"",
        "\"packets_corrupted\"",
        "\"retransmits\"",
        "\"deliveries_abandoned\"",
        "\"faults_triggered\"",
        "\"recovery_wait_us\"",
        "\"repairs\"",
        "\"reissued_packets\"",
        "\"repair_wait_us\"",
        "\"resend_requests\"",
        "\"nack_ranges_sent\"",
        "\"late_acks\"",
        "\"duplicate_acks\"",
        "\"window_stalls_us\"",
        "\"deadline_writeoffs\"",
        "\"unreached\"",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    // A fault-free run has an empty write-off list and zero fault counters.
    assert!(out.contains("\"unreached\": []"), "{out}");
    assert!(out.contains("\"packets_dropped\": 0"), "{out}");
    // Valid JSON shape at least at the bracket level.
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.trim_end().ends_with('}'), "{out}");
}

#[test]
fn simulate_json_surfaces_faults_and_unreached() {
    // Drop faults plus one live-repair crash: the counters and the
    // written-off destination must surface in the JSON document.
    let (out, ok) = optimcast(&[
        "simulate",
        "--dests",
        "15",
        "--m",
        "4",
        "--seed",
        "2",
        "--drop-rate",
        "0.05",
        "--crashes",
        "1",
        "--live-repair",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(!out.contains("\"packets_dropped\": 0"), "{out}");
    assert!(!out.contains("\"retransmits\": 0"), "{out}");
    assert!(out.contains("\"unreached\": ["), "{out}");
    assert!(out.contains("\"rank\""), "{out}");
}

/// The full `--trace` timeline, byte for byte. The lossy run covers
/// stalled and plain sends, receives, completions, drops and retries; the
/// repair runs add an abandoned copy, a repair epoch and reissues — the
/// loss-free one from the crash alone: `--crashes` takes the interior rank
/// with the most descendants, whose orphans the repair re-attaches.
#[test]
fn simulate_trace_timeline_matches_fixture() {
    let cases = [
        (
            "--dests 31 --m 4 --seed 1 --drop-rate 0.05",
            include_str!("fixtures/simulate_trace_drops.txt"),
        ),
        (
            "--dests 3 --m 1 --seed 1 --drop-rate 0.6 --fault-seed 7 --live-repair --crashes 1",
            include_str!("fixtures/simulate_trace_repair.txt"),
        ),
        (
            "--dests 7 --m 1 --seed 1 --live-repair --crashes 1",
            include_str!("fixtures/simulate_trace_crash.txt"),
        ),
    ];
    for (flags, expected) in cases {
        let mut args = vec!["simulate", "--trace"];
        args.extend(flags.split_whitespace());
        let (out, ok) = optimcast(&args);
        assert!(ok, "{out}");
        assert_eq!(out, expected, "timeline of `{flags}` changed");
    }
    let repair = include_str!("fixtures/simulate_trace_repair.txt");
    let crash = include_str!("fixtures/simulate_trace_crash.txt");
    for kind in ["drop ", "retry ", "abandon ", "repair epoch", "reissue "] {
        assert!(repair.contains(kind), "repair fixture lacks {kind:?}");
        assert!(crash.contains(kind), "crash fixture lacks {kind:?}");
    }
    assert!(
        crash
            .lines()
            .filter(|l| l.contains(" drop "))
            .all(|l| l.ends_with("(ReceiverDead)")),
        "the crash fixture loses packets only to the crash"
    );
    assert!(
        crash.contains("(1 failed, 2 reattached)"),
        "the crashed rank's subtrees are re-attached"
    );
    let drops = include_str!("fixtures/simulate_trace_drops.txt");
    assert!(
        drops.contains("(stalled "),
        "lossy fixture lacks a stalled send"
    );
}

#[test]
fn simulate_windowed_arq_surfaces_recovery_counters() {
    // A window > 1 switches the run onto the selective-repeat path over
    // the multi-send-unit NI; the loss must be recovered (empty write-off
    // list) and the recovery must surface in the ARQ counters.
    let (out, ok) = optimcast(&[
        "simulate",
        "--dests",
        "15",
        "--m",
        "4",
        "--seed",
        "2",
        "--drop-rate",
        "0.08",
        "--window",
        "8",
        "--send-units",
        "2",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(!out.contains("\"packets_dropped\": 0"), "{out}");
    assert!(!out.contains("\"retransmits\": 0"), "{out}");
    assert!(out.contains("\"resend_requests\""), "{out}");
    assert!(out.contains("\"unreached\": []"), "{out}");
}

#[test]
fn simulate_rejects_windowed_stop_and_wait_mismatch() {
    // Multiple send units under stop-and-wait (window 1) are rejected with
    // a typed NI-model error, not a panic.
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args([
            "simulate",
            "--dests",
            "7",
            "--drop-rate",
            "0.05",
            "--send-units",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid NI model"), "{err}");
}

#[test]
fn simulate_rejects_crashing_every_destination() {
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args([
            "simulate",
            "--dests",
            "3",
            "--crashes",
            "4",
            "--live-repair",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--crashes"), "{err}");
}

#[test]
fn simulate_rejects_invalid_workload_gracefully() {
    // More destinations than hosts: the binding names hosts outside the
    // network, which must surface as a clean error, not a panic.
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args([
            "simulate",
            "--hosts",
            "8",
            "--switches",
            "2",
            "--ports",
            "8",
            "--dests",
            "20",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("simulate:"), "{err}");
}

#[test]
fn every_subcommand_rejects_unknown_flags() {
    // One misspelled flag per subcommand, plus two removed flags: each must
    // exit 2 with a diagnostic, not run with defaults. Each case is (args,
    // the flag expected to be rejected).
    let cases: [(&[&str], &str); 15] = [
        (&["topo", "--seeds", "3"], "--seeds"),
        (&["route", "--sed", "1", "0", "1"], "--sed"),
        (&["tree", "--n", "8", "--kk", "2"], "--kk"),
        (&["optimal", "--n", "8", "--mm", "2"], "--mm"),
        (&["table", "--maxn", "8"], "--maxn"),
        (&["simulate", "--dest", "7"], "--dest"),
        (&["bench-mega", "--quik"], "--quik"),
        (&["bench-compare", "--treshold", "0.3"], "--treshold"),
        (&["chaos", "--quick", "--live_repair"], "--live_repair"),
        (&["jobs", "--quick", "--jsn"], "--jsn"),
        (&["stream", "--quick", "--frame-byte", "64"], "--frame-byte"),
        (&["wire", "--n", "2", "--rol", "demo"], "--rol"),
        (&["bench-mega", "--shards", "4"], "--shards"),
        (&["bench-compare", "--sim", "x"], "--sim"),
        (&["figures", "--quik", "fig4"], "--quik"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let want = format!("unknown flag {flag} for {}", args[0]);
        assert!(err.contains(&want), "{args:?}: {err}");
    }
}

#[test]
fn retired_bench_commands_are_unknown() {
    // Retired command names exit 2 instead of running anything.
    for cmd in ["bench-sweep", "bench-sim"] {
        let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .arg(cmd)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(
            err.contains(&format!("unknown command '{cmd}'")),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn out_of_range_input_is_a_usage_error() {
    // Values the library documents as panics must be rejected up front:
    // exit 2 with a `<cmd>:` diagnostic, never a panic (exit 101).
    let cases: [&[&str]; 23] = [
        &["route", "1", "x"],
        &["route", "1", "9999"],
        &["tree", "--k", "x"],
        &["tree", "--k", "0"],
        &["tree", "--n", "0"],
        &["tree", "--n", "4", "--m", "0"],
        &["optimal", "--n", "0"],
        &["optimal", "--m", "0"],
        &["table", "--max-n", "1"],
        &["table", "--max-m", "0"],
        &["topo", "--switches", "0"],
        &["topo", "--hosts", "0"],
        &["topo", "--ports", "1"],
        &["simulate", "--switches", "0"],
        &["simulate", "--hosts", "0"],
        &["simulate", "--ports", "1"],
        &["tree", "--n", "4", "--k", "2", "--m", "0"],
        &["route", "--switches", "0", "1", "2"],
        &["wire", "--k", "0"],
        // Fault flags are checked even when no fault is injected.
        &["simulate", "--window", "0"],
        &["simulate", "--deadline", "-5"],
        &["simulate", "--crashes", "1", "--crash-at", "-1"],
        // The partial-ordered-chain ordering reduced to CCO and was removed.
        &["simulate", "--ordering", "poc"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.starts_with(&format!("{}: ", args[0])),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn figures_rejects_an_unknown_figure_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args(["figures", "--quick", "fig4", "fig13x"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("fig13x"), "{err}");
    // The name is checked before any figure runs.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_lists_every_figure_name() {
    use optimcast::prelude::FigureId;
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .arg("--help")
        .output()
        .expect("binary runs");
    let usage = String::from_utf8_lossy(&out.stderr);
    let names: Vec<&str> = usage.split_whitespace().collect();
    for id in FigureId::ALL.iter().map(|id| id.as_str()) {
        assert!(names.contains(&id), "{id} missing from usage:\n{usage}");
    }
}

#[test]
fn table_subcommand() {
    let (out, ok) = optimcast(&["table", "--max-n", "8", "--max-m", "4"]);
    assert!(ok);
    // n=8 row: optimal k = 3, 3, 2, 2 for m = 1..4 (k=3 still ties at m=2:
    // t1(8,3)+k = 3+3 = t1(8,2)+2 = 4+2, ties resolve to larger k).
    let row = out
        .lines()
        .find(|l| l.trim_start().starts_with("8 "))
        .unwrap();
    assert!(row.contains("3  3  2  2"), "{row}");
}

#[test]
fn topo_dot_output() {
    let (out, ok) = optimcast(&[
        "topo",
        "--switches",
        "2",
        "--ports",
        "4",
        "--hosts",
        "4",
        "--dot",
    ]);
    assert!(ok);
    assert!(out.starts_with("graph topology"), "{out}");
    assert!(
        out.contains("s0 -- s1") || out.contains("s1 -- s0"),
        "{out}"
    );
}

#[test]
fn figures_quick_analytic_subset() {
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args(["figures", "--quick", "fig5", "fig12a"])
        .output()
        .expect("figures runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("## fig5"), "{text}");
    assert!(text.contains("## fig12a"), "{text}");
    assert!(text.contains("binomial"), "{text}");
}

#[test]
fn figures_chaos_axis_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args(["figures", "--quick", "chaos_outage"])
        .output()
        .expect("figures runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("## chaos_outage"), "{text}");
    assert!(text.contains("links down"), "{text}");
    assert!(text.contains("# network: 64 hosts"), "{text}");
    assert!(
        !text.contains("## fig5"),
        "chaos name should not pull in paper figures: {text}"
    );
}

/// A fixed-seed ablation runs on its own networks, not on the sampled
/// 64-host population, so the sampling header stays off.
#[test]
fn figures_fixed_seed_ablation_omits_the_sampling_header() {
    let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args(["figures", "--quick", "ablation_cube"])
        .output()
        .expect("figures runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("## ablation_cube"), "{text}");
    assert!(!text.contains("# network:"), "{text}");
    assert!(!text.contains("destination sets"), "{text}");
}

#[test]
fn figures_threads_flag_is_output_invariant() {
    let run = |threads: &str| {
        let dir = std::env::temp_dir().join(format!("optimcast-figjson-{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .args([
                "figures",
                "--quick",
                "--threads",
                threads,
                "--json",
                dir.to_str().unwrap(),
                "fig13a",
            ])
            .output()
            .expect("figures runs");
        assert!(out.status.success());
        std::fs::read_to_string(dir.join("fig13a.json")).expect("sidecar written")
    };
    assert_eq!(run("1"), run("3"), "thread count changed figure bytes");
}

#[test]
fn chaos_arq_threads_flag_is_output_invariant() {
    let run = |threads: &str| {
        let out_path = std::env::temp_dir().join(format!("optimcast-chaos-arq-{threads}.json"));
        let _ = std::fs::remove_file(&out_path);
        let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .args([
                "chaos",
                "--arq",
                "--quick",
                "--seed",
                "7",
                "--dests",
                "15",
                "--m",
                "2",
                "--threads",
                threads,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("stop-and-wait"), "{stdout}");
        assert!(stdout.contains("windowed"), "{stdout}");
        std::fs::read_to_string(&out_path).expect("report written")
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "thread count changed ARQ report bytes");
    assert!(serial.contains("\"id\": \"chaos_arq\""), "{serial}");
    assert!(serial.contains("\"recovery_latency_us\""), "{serial}");
}

#[test]
fn wire_demo_reaches_parity() {
    let (out, ok) = optimcast(&[
        "wire",
        "--n",
        "6",
        "--m",
        "3",
        "--payload",
        "600",
        "--timeout-ms",
        "15000",
    ]);
    assert!(ok, "{out}");
    // One JSON line per sink, every one at parity with the schedule.
    assert_eq!(out.lines().count(), 5, "{out}");
    for line in out.lines() {
        assert!(line.contains("\"parity\": true"), "{out}");
    }
}

#[test]
fn wire_source_and_sinks_as_separate_processes() {
    // The multi-process mode: two sink processes and one source process
    // reconstruct the same plan from (n, k, m) with no side channel.
    let base_args = ["--n", "3", "--k", "1", "--m", "2", "--port-base", "51234"];
    let sink = |rank: &str| {
        Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .args(["wire", "--role", "sink", "--rank", rank])
            .args(base_args)
            .args(["--timeout-ms", "20000"])
            .spawn()
            .expect("sink spawns")
    };
    let sinks = [sink("1"), sink("2")];
    // Sinks bind synchronously on spawn-ish; give them a beat to be safe.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let source = Command::new(env!("CARGO_BIN_EXE_optimcast"))
        .args(["wire", "--role", "source"])
        .args(base_args)
        .output()
        .expect("source runs");
    assert!(
        source.status.success(),
        "source stderr: {}",
        String::from_utf8_lossy(&source.stderr)
    );
    assert!(String::from_utf8_lossy(&source.stdout).contains("wire source:"));
    for s in sinks {
        let out = s.wait_with_output().expect("sink exits");
        assert!(out.status.success(), "sink failed");
    }
}

#[test]
fn chaos_subcommand_is_deterministic_across_threads() {
    let p1 = std::env::temp_dir().join("optimcast-chaos-t1.json");
    let p2 = std::env::temp_dir().join("optimcast-chaos-t4.json");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
    let run = |threads: &str, out_path: &std::path::Path| {
        let (out, ok) = optimcast(&[
            "chaos",
            "--quick",
            "--seed",
            "7",
            "--threads",
            threads,
            "--out",
            out_path.to_str().unwrap(),
        ]);
        assert!(ok, "{out}");
        out
    };
    let stdout = run("1", &p1);
    assert!(stdout.contains("chaos grid:"), "{stdout}");
    assert!(
        stdout.contains("all-reached invariant holds") || stdout.contains("unreached"),
        "no invariant verdict in {stdout}"
    );
    run("4", &p2);
    // Identical seeds must produce byte-identical chaos JSON at 1 and 4
    // workers — the report deliberately records no thread count.
    let a = std::fs::read(&p1).expect("report written");
    let b = std::fs::read(&p2).expect("report written");
    assert_eq!(a, b, "chaos JSON drifted across thread counts");
    let body = String::from_utf8(a).unwrap();
    for key in [
        "\"id\": \"chaos\"",
        "\"drop_rates\"",
        "\"crash_counts\"",
        "\"all_reached\"",
        "\"cells\"",
        "\"figure\"",
    ] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    assert!(
        !body.contains("thread"),
        "thread count leaked into the JSON"
    );
}

#[test]
fn stream_threads_flag_is_output_invariant() {
    let run = |threads: &str| {
        let out_path = std::env::temp_dir().join(format!("optimcast-stream-{threads}.json"));
        let _ = std::fs::remove_file(&out_path);
        let out = Command::new(env!("CARGO_BIN_EXE_optimcast"))
            .args([
                "stream",
                "--quick",
                "--seed",
                "7",
                "--dests",
                "11",
                "--frames",
                "6",
                "--threads",
                threads,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("droprate"), "{stdout}");
        assert!(stdout.contains("stale(us)"), "{stdout}");
        std::fs::read_to_string(&out_path).expect("report written")
    };
    let serial = run("1");
    assert_eq!(
        serial,
        run("4"),
        "thread count changed streaming report bytes"
    );
    assert!(serial.contains("\"id\": \"streaming\""), "{serial}");
    assert!(serial.contains("\"mean_staleness_us\""), "{serial}");
}
