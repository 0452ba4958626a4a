//! Bench trend tracking: committed bench JSON vs a fresh run.
//!
//! `BENCH_sim.json` / `BENCH_sweep.json` / `BENCH_mega.json` are committed
//! perf artifacts with no history beyond git; the `bench-compare`
//! subcommand replays a fresh `--quick` measurement and fails on a
//! regression beyond a threshold. The comparison only uses **rate**
//! metrics (events/s, ops/s) that are sizing-insensitive, so a quick fresh
//! run is comparable against a committed full-sizing artifact; per-run
//! totals (cells, events) are sizing-dependent and deliberately excluded —
//! except cells/s, which is compared only when the committed and fresh
//! sweep methodologies match. Mega points also carry a timing-free outcome
//! digest, which must match exactly at every shared host count.

use crate::json::Json;

/// One compared rate metric.
#[derive(Debug, Clone, PartialEq)]
pub struct RateCheck {
    /// Human-readable metric name (`"sim events/s"`, …).
    pub metric: &'static str,
    /// The committed artifact's rate.
    pub committed: f64,
    /// The freshly measured rate.
    pub fresh: f64,
}

impl RateCheck {
    /// Fresh over committed (1.0 = unchanged, 0.5 = half as fast).
    pub fn ratio(&self) -> f64 {
        self.fresh / self.committed
    }

    /// True when fresh is slower than `1 - threshold` of committed.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio() < 1.0 - threshold
    }
}

fn meta_f64(doc: &Json, key: &str) -> Option<f64> {
    doc.get("meta")?.get(key)?.as_f64()
}

/// Extracts the comparable rate metrics from a committed bench document
/// and its freshly measured counterpart. The two documents must carry the
/// same `id`; unknown ids yield no checks.
///
/// * `bench_sim` — `queue_ops_per_sec`, `lattice_queue_ops_per_sec`,
///   `events_per_sec`;
/// * `bench_sweep` — normalized `events_processed / serial_seconds`,
///   plus raw `serial_cells_per_sec` when both runs used the same
///   `(topologies, dest_sets)` methodology;
/// * `bench_mega` — `events_per_sec` of every host count present in both.
pub fn bench_regressions(committed: &Json, fresh: &Json) -> Vec<RateCheck> {
    let id = committed.get("id").and_then(Json::as_str);
    if id != fresh.get("id").and_then(Json::as_str) {
        return Vec::new();
    }
    let mut checks = Vec::new();
    let mut push = |metric: &'static str, c: Option<f64>, f: Option<f64>| {
        if let (Some(committed), Some(fresh)) = (c, f) {
            if committed > 0.0 && fresh.is_finite() {
                checks.push(RateCheck {
                    metric,
                    committed,
                    fresh,
                });
            }
        }
    };
    match id {
        Some("bench_sim") => {
            push(
                "event-queue ops/s",
                meta_f64(committed, "queue_ops_per_sec"),
                meta_f64(fresh, "queue_ops_per_sec"),
            );
            push(
                "lattice event-queue ops/s",
                meta_f64(committed, "lattice_queue_ops_per_sec"),
                meta_f64(fresh, "lattice_queue_ops_per_sec"),
            );
            push(
                "sim events/s",
                meta_f64(committed, "events_per_sec"),
                meta_f64(fresh, "events_per_sec"),
            );
        }
        Some("bench_sweep") => {
            let rate = |doc: &Json| -> Option<f64> {
                let events = meta_f64(doc, "events_processed")?;
                let secs = meta_f64(doc, "serial_seconds")?;
                (secs > 0.0).then_some(events / secs)
            };
            push("sweep events/s", rate(committed), rate(fresh));
            let shape = |doc: &Json| -> Option<(f64, f64)> {
                Some((meta_f64(doc, "topologies")?, meta_f64(doc, "dest_sets")?))
            };
            if shape(committed).is_some() && shape(committed) == shape(fresh) {
                push(
                    "sweep cells/s",
                    meta_f64(committed, "serial_cells_per_sec"),
                    meta_f64(fresh, "serial_cells_per_sec"),
                );
            }
        }
        Some("bench_mega") => {
            let by_hosts = |doc: &Json, hosts: f64| -> Option<f64> {
                doc.get("points")?.as_arr()?.iter().find_map(|p| {
                    (p.get("hosts")?.as_f64()? == hosts)
                        .then(|| p.get("events_per_sec")?.as_f64())?
                })
            };
            for p in committed
                .get("points")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                let Some(hosts) = p.get("hosts").and_then(Json::as_f64) else {
                    continue;
                };
                // Host counts measured by both sizings compare directly;
                // the 65,536 point only exists in the committed full run.
                let label: &'static str = match hosts as u64 {
                    1024 => "mega events/s @1024",
                    4096 => "mega events/s @4096",
                    8192 => "mega events/s @8192",
                    65536 => "mega events/s @65536",
                    _ => "mega events/s",
                };
                push(
                    label,
                    p.get("events_per_sec").and_then(Json::as_f64),
                    by_hosts(fresh, hosts),
                );
            }
        }
        _ => {}
    }
    checks
}

/// A `bench_mega` host count whose fresh outcome digest differs from the
/// committed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestMismatch {
    /// Host count of the point.
    pub hosts: u64,
    /// The committed artifact's digest.
    pub committed: String,
    /// The freshly measured digest.
    pub fresh: String,
}

/// Every host count present in both `bench_mega` documents whose
/// timing-free outcome digest differs. The digest is a pure function of
/// `(hosts, m)`, so any mismatch means the simulated outcome changed.
pub fn mega_digest_mismatches(committed: &Json, fresh: &Json) -> Vec<DigestMismatch> {
    let points = |doc: &Json| -> Vec<(u64, String)> {
        if doc.get("id").and_then(Json::as_str) != Some("bench_mega") {
            return Vec::new();
        }
        doc.get("points")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| {
                let hosts = p.get("hosts")?.as_f64()? as u64;
                Some((hosts, p.get("digest")?.as_str()?.to_string()))
            })
            .collect()
    };
    let committed = points(committed);
    points(fresh)
        .into_iter()
        .filter_map(|(hosts, fresh)| {
            let (_, want) = committed.iter().find(|(h, _)| *h == hosts)?;
            (*want != fresh).then(|| DigestMismatch {
                hosts,
                committed: want.clone(),
                fresh,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_doc(queue: f64, events: f64) -> Json {
        Json::obj(vec![
            ("id", Json::from("bench_sim")),
            (
                "meta",
                Json::obj(vec![
                    ("queue_ops_per_sec", Json::from(queue)),
                    ("events_per_sec", Json::from(events)),
                ]),
            ),
        ])
    }

    #[test]
    fn sim_rates_compare_and_flag_regressions() {
        let checks = bench_regressions(&sim_doc(10e6, 12e6), &sim_doc(9e6, 8e6));
        assert_eq!(checks.len(), 2);
        assert!(!checks[0].regressed(0.3), "10%% slower is within 30%%");
        assert!(checks[1].regressed(0.3), "33%% slower regresses");
        assert!((checks[1].ratio() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_ids_compare_nothing() {
        let sweep = Json::obj(vec![("id", Json::from("bench_sweep"))]);
        assert!(bench_regressions(&sim_doc(1.0, 1.0), &sweep).is_empty());
    }

    #[test]
    fn sweep_cells_compared_only_on_matching_methodology() {
        let doc = |topos: f64, cells_per_sec: f64| {
            Json::obj(vec![
                ("id", Json::from("bench_sweep")),
                (
                    "meta",
                    Json::obj(vec![
                        ("topologies", Json::from(topos)),
                        ("dest_sets", Json::from(3.0)),
                        ("events_processed", Json::from(1e6)),
                        ("serial_seconds", Json::from(2.0)),
                        ("serial_cells_per_sec", Json::from(cells_per_sec)),
                    ]),
                ),
            ])
        };
        let same = bench_regressions(&doc(2.0, 400.0), &doc(2.0, 390.0));
        assert_eq!(same.len(), 2, "events/s + cells/s");
        let cross = bench_regressions(&doc(10.0, 400.0), &doc(2.0, 9999.0));
        assert_eq!(cross.len(), 1, "cells/s skipped across sizings");
        assert_eq!(cross[0].metric, "sweep events/s");
    }

    #[test]
    fn mega_points_match_by_host_count() {
        let doc = |sizes: &[(u64, f64)]| {
            Json::obj(vec![
                ("id", Json::from("bench_mega")),
                (
                    "points",
                    Json::Arr(
                        sizes
                            .iter()
                            .map(|&(h, r)| {
                                Json::obj(vec![
                                    ("hosts", Json::from(h)),
                                    ("events_per_sec", Json::from(r)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let committed = doc(&[(1024, 5e6), (65536, 4e6)]);
        let fresh = doc(&[(1024, 4.9e6)]);
        let checks = bench_regressions(&committed, &fresh);
        assert_eq!(checks.len(), 1, "only the shared host count compares");
        assert_eq!(checks[0].metric, "mega events/s @1024");
        assert!(!checks[0].regressed(0.3));
    }

    #[test]
    fn mega_digest_mismatch_is_reported() {
        let doc = |id: &str, points: &[(u64, &str)]| {
            Json::obj(vec![
                ("id", Json::from(id)),
                (
                    "points",
                    Json::Arr(
                        points
                            .iter()
                            .map(|&(h, d)| {
                                Json::obj(vec![("hosts", Json::from(h)), ("digest", Json::from(d))])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let committed = doc(
            "bench_mega",
            &[
                (1024, "903021e6bf40f1ad"),
                (8192, "a80dbf54512ab704"),
                (65536, "0123456789abcdef"),
            ],
        );
        let same = doc(
            "bench_mega",
            &[(1024, "903021e6bf40f1ad"), (8192, "a80dbf54512ab704")],
        );
        assert!(mega_digest_mismatches(&committed, &same).is_empty());
        let altered = doc(
            "bench_mega",
            &[(1024, "903021e6bf40f1ad"), (8192, "a80dbf54512ab705")],
        );
        assert_eq!(
            mega_digest_mismatches(&committed, &altered),
            vec![DigestMismatch {
                hosts: 8192,
                committed: "a80dbf54512ab704".into(),
                fresh: "a80dbf54512ab705".into(),
            }]
        );
        let other = doc("bench_sim", &[(8192, "a80dbf54512ab705")]);
        assert!(mega_digest_mismatches(&committed, &other).is_empty());
    }
}
