//! Golden tests pinning the sweep engine's output to the committed
//! `results/*.json` files — byte-for-byte, including float formatting.
//!
//! The analytic figures are cheap and compared on every test run. The
//! simulated figures under the full 10 × 30 paper methodology take about
//! 6 s in release on a 2-core host (both tests together) and much longer in
//! a debug build, so they are `#[ignore]`d here. CI runs them with
//! `cargo test --release --test sweep_goldens -- --ignored`, and
//! regenerates the committed files with `optimcast figures --json results`.

use optimcast::prelude::*;
use optimcast::sweep::{Json, ToJson};

fn committed(id: FigureId) -> String {
    let path = format!("{}/results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn paper_sweep(threads: usize) -> Sweep {
    SweepBuilder::paper()
        .parallelism(threads)
        .build()
        .expect("paper methodology is valid")
}

fn render(sweep: &Sweep, id: FigureId) -> String {
    sweep
        .figure(id)
        .expect("committed figures regenerate")
        .to_json()
        .to_string_pretty()
}

fn regenerate(id: FigureId, threads: usize) -> String {
    render(&paper_sweep(threads), id)
}

const SIMULATED: [FigureId; 4] = [
    FigureId::Fig13a,
    FigureId::Fig13b,
    FigureId::Fig14a,
    FigureId::Fig14b,
];

/// Analytic figures reproduce their committed JSON byte-for-byte.
#[test]
fn analytic_figures_byte_identical() {
    for id in FigureId::ALL {
        if id.simulated() {
            continue;
        }
        assert_eq!(
            regenerate(id, 1),
            committed(id),
            "{id} drifted from results/{id}.json"
        );
    }
}

/// Every committed results file round-trips through the shared JSON schema
/// (parse → `Figure::from_json` → re-serialize) without losing a byte.
#[test]
fn schema_round_trips_all_committed_results() {
    for id in FigureId::ALL {
        let text = committed(id);
        let value = Json::parse(&text).unwrap_or_else(|e| panic!("{id}: {e}"));
        let fig = Figure::from_json(&value).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(fig.id, id.as_str());
        assert!(!fig.series.is_empty(), "{id} has no series");
        assert_eq!(
            fig.to_json().to_string_pretty(),
            text,
            "{id} schema round-trip is lossy"
        );
    }
}

/// Full-methodology simulated figures, serial engine, one fresh sweep per
/// figure, so no figure takes its points from another. Run with
/// `cargo test --release --test sweep_goldens -- --ignored`.
#[test]
#[ignore = "full 10x30 methodology: about 3 s of simulation in release"]
fn simulated_figures_byte_identical_serial() {
    for id in SIMULATED {
        assert_eq!(
            regenerate(id, 1),
            committed(id),
            "{id} drifted from results/{id}.json"
        );
    }
}

/// Full-methodology simulated figures on one shared 4-worker sweep match
/// the committed serial goldens byte-for-byte. The later figures take
/// their shared points from the point memo.
#[test]
#[ignore = "full 10x30 methodology: about 1.5 s of simulation in release"]
fn simulated_figures_byte_identical_parallel() {
    let sweep = paper_sweep(4);
    for id in SIMULATED {
        assert_eq!(
            render(&sweep, id),
            committed(id),
            "{id} (4 workers) drifted from results/{id}.json"
        );
    }
    let stats = sweep.cache_stats();
    assert!(stats.point_hits > 0, "no point was shared: {stats:?}");
}

/// The committed chaos report (`results/chaos.json`) regenerates
/// byte-identically under the full paper methodology. Unlike the simulated
/// figures this is cheap enough to run unconditionally: the chaos grid
/// reuses the memoized topologies and trees across all 30 cells.
#[test]
fn chaos_report_matches_committed_golden() {
    let spec = FaultPlanSpec {
        seed: 1997,
        ..FaultPlanSpec::default()
    };
    let sweep = SweepBuilder::paper()
        .parallelism(4)
        .fault(spec)
        .build()
        .unwrap();
    let report = sweep
        .chaos(&[0.0, 0.01, 0.02, 0.05, 0.1, 0.2], &[0, 1, 2, 4, 8], 31, 4)
        .expect("the committed grid is valid");
    assert!(report.all_reached(), "a committed cell lost destinations");
    let path = format!("{}/results/chaos.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        report.to_json().to_string_pretty(),
        committed,
        "chaos drifted from results/chaos.json"
    );
}

/// The committed multi-tenant report (`results/multi_tenant.json`)
/// regenerates byte-identically: the grid `optimcast jobs` writes by
/// default (3 topologies × 5 job-set samples, job counts 1..16, two
/// inter-arrival regimes, two group sizes, both admission policies on
/// identical job sets), run here on 4 workers against the serially
/// generated committed file.
#[test]
fn multi_tenant_report_matches_committed_golden() {
    let sweep = SweepBuilder::paper()
        .topologies(3)
        .dest_sets(5)
        .base_seed(1997)
        .parallelism(4)
        .build()
        .unwrap();
    let report = sweep
        .multi_tenant(&[1, 2, 4, 8, 16], &[25.0, 100.0], &[8, 16], 4)
        .expect("the committed grid is valid");
    let path = format!("{}/results/multi_tenant.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        report.to_json().to_string_pretty(),
        committed,
        "multi-tenant grid drifted from results/multi_tenant.json"
    );
}

/// The committed live-repair chaos report (`results/chaos_repair.json`)
/// regenerates byte-identically. This is the grid the CI `repair-smoke`
/// job produces with `optimcast chaos --quick --live-repair`: the quick
/// methodology, crashes landing mid-run at 5 µs, and the simulator
/// repairing the surviving membership live.
#[test]
fn chaos_repair_report_matches_committed_golden() {
    let spec = FaultPlanSpec {
        seed: 1997,
        live_repair: true,
        crash_at_us: 5.0,
        ..FaultPlanSpec::default()
    };
    let sweep = SweepBuilder::quick()
        .parallelism(4)
        .fault(spec)
        .build()
        .unwrap();
    let report = sweep
        .chaos(&[0.0, 0.05, 0.1], &[0, 1, 2], 31, 4)
        .expect("the committed repair grid is valid");
    assert!(
        report.all_reached(),
        "a committed live-repair cell lost surviving destinations"
    );
    let path = format!("{}/results/chaos_repair.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        report.to_json().to_string_pretty(),
        committed,
        "live-repair chaos drifted from results/chaos_repair.json"
    );
}

/// The committed streaming report (`results/streaming.json`) regenerates
/// byte-identically. This is the grid the CI `stream-smoke` job produces
/// with `optimcast stream --quick`: the quick methodology's churn × load
/// × buffer grid, run here on 4 workers against the serially generated
/// committed file.
#[test]
fn streaming_report_matches_committed_golden() {
    let sweep = SweepBuilder::quick().parallelism(4).build().unwrap();
    let report = sweep
        .streaming(&StreamGrid::quick())
        .expect("the committed grid is valid");
    let path = format!("{}/results/streaming.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        report.to_json().to_string_pretty(),
        committed,
        "streaming grid drifted from results/streaming.json"
    );
}

fn committed_file(name: &str) -> String {
    let path = format!("{}/results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The committed ARQ chaos report (`results/chaos_arq.json`) regenerates
/// byte-identically. This is the grid `optimcast chaos --arq --quick`
/// writes: the quick methodology, fault seed 1997, stop-and-wait against an
/// 8-packet window over two send units, run here on 4 workers.
#[test]
fn chaos_arq_report_matches_committed_golden() {
    let sweep = SweepBuilder::quick()
        .parallelism(4)
        .fault(FaultPlanSpec {
            seed: 1997,
            ..FaultPlanSpec::default()
        })
        .build()
        .unwrap();
    let report = sweep
        .chaos_arq(&[0.0, 0.02, 0.05, 0.1], 31, 4, 8, 2)
        .expect("the committed ARQ grid is valid");
    assert_eq!(
        report.to_json().to_string_pretty(),
        committed_file("chaos_arq"),
        "ARQ chaos drifted from results/chaos_arq.json"
    );
}

/// The committed chaos-axis figures (`results/chaos_{outage,corrupt,
/// buffer}.json`) regenerate byte-identically through `Sweep::figure`, as
/// `optimcast figures` renders them: the paper methodology, 31
/// destinations, 4-packet messages.
fn chaos_figure_matches_committed(id: FigureId) {
    assert_eq!(
        regenerate(id, 4),
        committed(id),
        "{id} drifted from results/{id}.json"
    );
}

#[test]
fn chaos_outage_figure_matches_committed_golden() {
    chaos_figure_matches_committed(FigureId::ChaosOutage);
}

#[test]
fn chaos_corrupt_figure_matches_committed_golden() {
    chaos_figure_matches_committed(FigureId::ChaosCorrupt);
}

#[test]
fn chaos_buffer_figure_matches_committed_golden() {
    chaos_figure_matches_committed(FigureId::ChaosBuffer);
}

/// 64-bit FNV-1a digest of a text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The paper-methodology streaming grid at 8 frames per stream (the grid
/// perfbench's `stream_churn` workload runs) renders to the digest that
/// workload pins. Its simulator effort is pinned too: each membership
/// epoch is simulated once, so the events count runs per epoch, not per
/// frame.
#[test]
#[ignore = "paper-methodology streaming grid: about 0.7 s in release"]
fn paper_streaming_grid_matches_pinned_digest() {
    let sweep = paper_sweep(2);
    let grid = StreamGrid {
        frames: 8,
        ..StreamGrid::paper()
    };
    let report = sweep.streaming(&grid).expect("the paper grid is valid");
    let text = report.to_json().to_string_pretty();
    assert_eq!(
        fnv1a(&text),
        0xe6ed_f373_8586_398e,
        "the paper streaming grid drifted from its pinned digest"
    );
    assert_eq!(sweep.sim_effort().events_processed, 11_358_089);
}

/// The paper-methodology ARQ grid (the grid perfbench's `lossy_arq`
/// workload runs: drop rates {0, 0.02, 0.05, 0.1}, stop-and-wait against
/// an 8-packet window over two send units, 31 destinations, 32 packets)
/// renders to the digest that workload pins, with its simulator effort.
/// Every fault verdict of the grid goes through `FaultPlan::tx_outcome`,
/// so a changed draw shows here.
#[test]
#[ignore = "paper-methodology ARQ grid: about 0.6 s in release on 2 workers"]
fn paper_arq_grid_matches_pinned_digest() {
    let sweep = SweepBuilder::paper()
        .parallelism(2)
        .fault(FaultPlanSpec {
            seed: 1997,
            ..FaultPlanSpec::default()
        })
        .build()
        .expect("paper methodology is valid");
    let report = sweep
        .chaos_arq(&[0.0, 0.02, 0.05, 0.1], 31, 32, 8, 2)
        .expect("the paper ARQ grid is valid");
    assert_eq!(
        fnv1a(&report.to_json().to_string_pretty()),
        0xeae4_b9c5_b159_ea6c,
        "the paper ARQ grid drifted from its pinned digest"
    );
    assert_eq!(sweep.sim_effort().events_processed, 12_694_944);
}
