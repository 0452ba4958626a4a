//! Mega trend tracking: the committed `BENCH_mega.json` vs a fresh run.
//!
//! `BENCH_mega.json` is a committed perf artifact with no history beyond
//! git; the `bench-compare` subcommand replays a fresh `--quick`
//! measurement and fails on a regression beyond a threshold. Only the
//! per-point **rate** (events/s) is compared: it is sizing-insensitive, so
//! a quick fresh run is comparable against the committed full sizing. Each
//! point also carries a timing-free outcome digest, which must be present
//! and match exactly at every host count the fresh run measured.

use crate::json::Json;

/// One compared events/s rate of a mega point.
#[derive(Debug, Clone, PartialEq)]
pub struct RateCheck {
    /// Host count of the compared point.
    pub hosts: u64,
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

/// The `(hosts, point)` pairs of a `bench_mega` document; any other
/// document has none.
fn mega_points(doc: &Json) -> impl Iterator<Item = (u64, &Json)> {
    let points = match doc.get("id").and_then(Json::as_str) {
        Some("bench_mega") => doc.get("points").and_then(Json::as_arr),
        _ => None,
    };
    points
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| Some((p.get("hosts")?.as_f64()? as u64, p)))
}

/// The `events_per_sec` of every host count present in both `bench_mega`
/// documents, in committed order. Host counts measured by only one sizing
/// (the 65,536 point exists only in the committed full run) are skipped.
pub fn mega_rate_checks(committed: &Json, fresh: &Json) -> Vec<RateCheck> {
    let rate = |p: &Json| p.get("events_per_sec").and_then(Json::as_f64);
    mega_points(committed)
        .filter_map(|(hosts, c)| {
            let (_, f) = mega_points(fresh).find(|&(h, _)| h == hosts)?;
            let (committed, fresh) = (rate(c)?, rate(f)?);
            (committed > 0.0 && fresh.is_finite()).then_some(RateCheck {
                hosts,
                committed,
                fresh,
            })
        })
        .collect()
}

/// A `bench_mega` host count whose fresh outcome digest does not match the
/// committed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestMismatch {
    /// Host count of the point.
    pub hosts: u64,
    /// The committed artifact's digest; `None` when the committed point
    /// carries none, which fails the gate rather than skipping the point.
    pub committed: Option<String>,
    /// The freshly measured digest.
    pub fresh: String,
}

/// The digest comparison of a fresh `bench_mega` run against the committed
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DigestCheck {
    /// Host counts whose digests were compared and matched.
    pub matched: usize,
    /// Host counts whose committed digest is missing or differs.
    pub mismatches: Vec<DigestMismatch>,
}

impl DigestCheck {
    /// True when at least one digest matched and none was missing or
    /// differed: a gate that compared nothing fails closed.
    pub fn passed(&self) -> bool {
        self.matched > 0 && self.mismatches.is_empty()
    }
}

/// Compares the timing-free outcome digest of every host count the fresh
/// run measured against the committed point of the same host count. The
/// digest is a pure function of `(hosts, m)`, so any mismatch means the
/// simulated outcome changed; a committed point without a digest counts
/// as a mismatch.
pub fn mega_digest_check(committed: &Json, fresh: &Json) -> DigestCheck {
    let digest = |p: &Json| Some(p.get("digest")?.as_str()?.to_string());
    let mut check = DigestCheck::default();
    for (hosts, f) in mega_points(fresh) {
        let Some((_, c)) = mega_points(committed).find(|&(h, _)| h == hosts) else {
            continue;
        };
        let Some(fresh) = digest(f) else { continue };
        let committed = digest(c);
        if committed.as_deref() == Some(fresh.as_str()) {
            check.matched += 1;
        } else {
            check.mismatches.push(DigestMismatch {
                hosts,
                committed,
                fresh,
            });
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document of `(hosts, events_per_sec, digest)` points.
    fn doc(id: &str, points: &[(u64, f64, Option<&str>)]) -> Json {
        Json::obj(vec![
            ("id", Json::from(id)),
            (
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|&(h, r, d)| {
                            let mut fields =
                                vec![("hosts", Json::from(h)), ("events_per_sec", Json::from(r))];
                            fields.extend(d.map(|d| ("digest", Json::from(d))));
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn mega_points_match_by_host_count() {
        let committed = doc("bench_mega", &[(1024, 5e6, None), (65536, 4e6, None)]);
        let fresh = doc("bench_mega", &[(1024, 4.9e6, None)]);
        let checks = mega_rate_checks(&committed, &fresh);
        assert_eq!(checks.len(), 1, "only the shared host count compares");
        assert_eq!(checks[0].hosts, 1024);
        assert!(!checks[0].regressed(0.3));
        let slow = doc("bench_mega", &[(1024, 3e6, None)]);
        let checks = mega_rate_checks(&committed, &slow);
        assert!(checks[0].regressed(0.3), "40% slower regresses");
        assert!((checks[0].ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn mismatched_ids_compare_nothing() {
        let mega = doc("bench_mega", &[(1024, 5e6, Some("903021e6bf40f1ad"))]);
        let other = doc("fig13a", &[(1024, 5e6, Some("903021e6bf40f1ad"))]);
        for (committed, fresh) in [(&mega, &other), (&other, &mega)] {
            assert!(mega_rate_checks(committed, fresh).is_empty());
            assert_eq!(mega_digest_check(committed, fresh), DigestCheck::default());
        }
    }

    #[test]
    fn mega_digest_mismatch_is_reported() {
        let committed = doc(
            "bench_mega",
            &[
                (1024, 1.0, Some("903021e6bf40f1ad")),
                (8192, 1.0, Some("a80dbf54512ab704")),
                (65536, 1.0, Some("0123456789abcdef")),
            ],
        );
        let same = doc(
            "bench_mega",
            &[
                (1024, 1.0, Some("903021e6bf40f1ad")),
                (8192, 1.0, Some("a80dbf54512ab704")),
            ],
        );
        let check = mega_digest_check(&committed, &same);
        assert!(check.passed());
        assert_eq!(check.matched, 2);
        let altered = doc(
            "bench_mega",
            &[
                (1024, 1.0, Some("903021e6bf40f1ad")),
                (8192, 1.0, Some("a80dbf54512ab705")),
            ],
        );
        let check = mega_digest_check(&committed, &altered);
        assert!(!check.passed());
        assert_eq!(
            check.mismatches,
            vec![DigestMismatch {
                hosts: 8192,
                committed: Some("a80dbf54512ab704".into()),
                fresh: "a80dbf54512ab705".into(),
            }]
        );
    }

    #[test]
    fn mega_digest_gate_fails_closed() {
        // A committed point without a digest at a measured host count is a
        // mismatch, not a skip.
        let stripped = doc("bench_mega", &[(1024, 1.0, None), (8192, 1.0, None)]);
        let fresh = doc(
            "bench_mega",
            &[
                (1024, 1.0, Some("903021e6bf40f1ad")),
                (8192, 1.0, Some("a80dbf54512ab704")),
            ],
        );
        let check = mega_digest_check(&stripped, &fresh);
        assert!(!check.passed());
        assert_eq!(check.matched, 0);
        assert_eq!(check.mismatches.len(), 2);
        assert_eq!(check.mismatches[0].committed, None);
        // Comparing nothing fails too.
        let elsewhere = doc("bench_mega", &[(65536, 1.0, Some("0123456789abcdef"))]);
        let check = mega_digest_check(&elsewhere, &fresh);
        assert_eq!(check, DigestCheck::default());
        assert!(!check.passed());
    }
}
