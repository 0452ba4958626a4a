//! Multi-tenant admission sweeps: concurrent multicast streams sharing one
//! network, FIFO vs contention-aware admission.
//!
//! Each cell of the grid — `(concurrent jobs, mean inter-arrival, group
//! size)` — draws a seeded stream of independent multicast jobs per sample:
//! every job gets its own random source-plus-destinations chain (arranged
//! on the topology's CCO ordering, possibly overlapping the other jobs'),
//! the optimal k-binomial tree for its group, and an arrival time from a
//! deterministic renewal process. The *same* job set is then scheduled
//! twice, once per admission rule of [`ScheduledRun`] — FIFO (admit on
//! arrival) and contention-aware (a channel-load cap of 1) — with common
//! random numbers, so a cell's FIFO/contention-aware difference is pure
//! policy effect, never sampling noise. Per cell the report pools every
//! job's tenant-observed completion latency (queueing delay + simulated
//! in-network service) and publishes nearest-rank p50/p99, mean queueing
//! delay, deferral counts, and aggregate simulator throughput in events
//! per simulated millisecond (wall-clock throughput would not be
//! deterministic).
//!
//! Determinism keying: sample `(t, s)` derives its salt from
//! [`crate::SweepConfig::set_seed`] exactly like the figure and chaos
//! grids. Job `j`'s chain seed is `salt · 0xA076_1D64_78BD_642F + j + 1`
//! (splitmix-style odd multiplier, distinct from the chaos crash-draw
//! stream), so raising the job-count axis *extends* a sample's job set
//! without redrawing the prefix. Inter-arrival gaps come from one
//! rate-independent uniform stream scaled by the cell's mean (a gap is
//! uniform on `[0, 2·mean)` — same mean as the textbook exponential, but
//! pure arithmetic: no `ln`, whose last-bit rounding varies across libm
//! implementations and would break byte-identical goldens across hosts);
//! sharing the underlying uniforms makes the arrival axis common-random-
//! numbered too. Cells fan out over the worker pool and fold per-topology
//! partials in index order, so the emitted JSON is byte-identical for
//! every thread count.

use crate::engine::{unravel, Sweep};
use crate::error::SweepError;
use crate::figure::{Figure, Series};
use crate::json::{Json, ToJson};
use crate::sampling::{sample_chain, TreePolicy};
use optimcast_netsim::{MulticastJob, ScheduledOutcome, ScheduledRun, WorkloadConfig};
use optimcast_rng::{ChaCha8Rng, Rng};
use std::ops::AddAssign;

/// Channel-load cap of the contention-aware admission rule: each admitted
/// job gets exclusive use of its channels.
const MAX_CHANNEL_LOAD: u32 = 1;

/// Per-policy aggregate of one multi-tenant cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicyStats {
    /// Nearest-rank median of the pooled per-job completion latencies (µs).
    pub p50_completion_us: f64,
    /// Nearest-rank 99th percentile of the pooled completions (µs).
    pub p99_completion_us: f64,
    /// Mean pooled completion latency (µs).
    pub mean_completion_us: f64,
    /// Mean queueing delay (admission − arrival) across all jobs (µs).
    pub mean_queue_us: f64,
    /// Jobs admitted strictly later than their arrival, summed over
    /// samples.
    pub deferred: u32,
    /// Destinations that received the complete message, summed over
    /// samples — conservation demands `samples × jobs × group`.
    pub delivered: u64,
    /// Discrete events processed, summed over samples.
    pub events: u64,
    /// Aggregate simulator throughput: total events per total simulated
    /// millisecond of makespan.
    pub events_per_sim_ms: f64,
}

/// One `(jobs, mean inter-arrival, group)` cell: both policies on the same
/// sampled job sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantCell {
    /// Concurrent multicast jobs per sample.
    pub jobs: u32,
    /// Mean arrival gap between successive jobs (µs); `0` is a pure burst.
    pub mean_interarrival_us: f64,
    /// Destinations per job (participants = `group + 1`).
    pub group: u32,
    /// Samples evaluated (`topologies × dest_sets`).
    pub samples: u32,
    /// Naive FIFO admission (admit on arrival).
    pub fifo: TenantPolicyStats,
    /// Contention-aware admission (the report's `max_channel_load` cap).
    pub shaped: TenantPolicyStats,
}

/// The full multi-tenant grid plus the methodology that produced it,
/// renderable as the unified figure JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Packets per multicast message.
    pub m: u32,
    /// Topologies averaged per cell.
    pub topologies: u32,
    /// Destination sets (job-set samples) per topology.
    pub dest_sets: u32,
    /// Base RNG seed of the sweep.
    pub base_seed: u64,
    /// Channel-load bound of the contention-aware policy.
    pub max_channel_load: u32,
    /// The swept concurrent-job counts, in input order.
    pub job_counts: Vec<u32>,
    /// The swept mean inter-arrival gaps (µs), in input order.
    pub interarrivals_us: Vec<f64>,
    /// The swept per-job group sizes, in input order.
    pub groups: Vec<u32>,
    /// Row-major cells:
    /// `cells[(j * interarrivals.len() + r) * groups.len() + g]`.
    pub cells: Vec<TenantCell>,
}

impl TenantReport {
    /// The cell at job-count index `j`, inter-arrival index `r`, and group
    /// index `g`.
    pub fn cell(&self, j: usize, r: usize, g: usize) -> &TenantCell {
        &self.cells[(j * self.interarrivals_us.len() + r) * self.groups.len() + g]
    }

    /// The report's chart: pooled p99 completion against concurrent job
    /// count, one series per policy × inter-arrival × group. This is the
    /// figure embedded in [`TenantReport::to_json`] and the one the CLI
    /// renders into `plots/multi_tenant.{dat,gp}`.
    pub fn figure(&self) -> Figure {
        let mut series = Vec::new();
        for (pi, policy) in ["fifo", "contention-aware"].iter().enumerate() {
            for (r, &ia) in self.interarrivals_us.iter().enumerate() {
                for (g, &group) in self.groups.iter().enumerate() {
                    series.push(Series {
                        label: format!("{policy} ia{ia} g{group}"),
                        points: self
                            .job_counts
                            .iter()
                            .enumerate()
                            .map(|(j, &jobs)| {
                                let cell = self.cell(j, r, g);
                                let stats = if pi == 0 { &cell.fifo } else { &cell.shaped };
                                (f64::from(jobs), stats.p99_completion_us)
                            })
                            .collect(),
                    });
                }
            }
        }
        Figure {
            id: "multi_tenant".into(),
            title: "p99 tenant completion: FIFO vs contention-aware admission".into(),
            x_label: "concurrent jobs".into(),
            y_label: "p99 completion (us)".into(),
            series,
        }
    }

    /// Renders the report in the unified figure JSON schema: `meta` with
    /// the methodology, a `cells` table with both policies side by side,
    /// and a `figure` charting pooled p99 completion against concurrent
    /// job count (one series per policy × inter-arrival × group). The
    /// document records no worker/thread count: identical seeds must
    /// produce byte-identical reports at any parallelism.
    pub fn to_json(&self) -> Json {
        let chart = self.figure();
        let meta = vec![
            ("m", Json::from(self.m)),
            ("topologies", Json::from(self.topologies)),
            ("dest_sets", Json::from(self.dest_sets)),
            ("base_seed", Json::from(self.base_seed)),
            ("max_channel_load", Json::from(self.max_channel_load)),
            ("job_counts", Json::from(self.job_counts.as_slice())),
            (
                "interarrivals_us",
                Json::from(self.interarrivals_us.as_slice()),
            ),
            ("groups", Json::from(self.groups.as_slice())),
            ("policies", Json::from(&["fifo", "contention-aware"][..])),
        ];
        Json::obj(vec![
            ("id", Json::from("multi_tenant")),
            ("meta", Json::obj(meta)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_json).collect()),
            ),
            ("figure", chart.to_json()),
        ])
    }
}

fn cell_json(cell: &TenantCell) -> Json {
    Json::obj(vec![
        ("jobs", Json::from(cell.jobs)),
        (
            "mean_interarrival_us",
            Json::from(cell.mean_interarrival_us),
        ),
        ("group", Json::from(cell.group)),
        ("samples", Json::from(cell.samples)),
        ("fifo", policy_json(&cell.fifo)),
        ("contention_aware", policy_json(&cell.shaped)),
    ])
}

fn policy_json(p: &TenantPolicyStats) -> Json {
    Json::obj(vec![
        ("p50_completion_us", Json::from(p.p50_completion_us)),
        ("p99_completion_us", Json::from(p.p99_completion_us)),
        ("mean_completion_us", Json::from(p.mean_completion_us)),
        ("mean_queue_us", Json::from(p.mean_queue_us)),
        ("deferred", Json::from(p.deferred)),
        ("delivered", Json::from(p.delivered)),
        ("events", Json::from(p.events)),
        ("events_per_sim_ms", Json::from(p.events_per_sim_ms)),
    ])
}

/// Per-topology, per-policy partial aggregate; folded across topologies in
/// index order so reductions are independent of scheduling.
#[derive(Default)]
struct PolicyAgg {
    /// Pooled completions in (sample, job) order.
    completions: Vec<f64>,
    queue_sum: f64,
    deferred: u32,
    delivered: u64,
    events: u64,
    sim_us: f64,
}

impl PolicyAgg {
    fn fold(&mut self, out: &ScheduledOutcome) {
        for s in &out.stats {
            self.completions.push(s.completion_us);
            self.queue_sum += s.queue_us;
            self.delivered += u64::from(s.delivered);
        }
        self.deferred += out.deferred();
        self.events += out.outcome.counters.events;
        self.sim_us += out.outcome.makespan_us;
    }
}

impl AddAssign for PolicyAgg {
    fn add_assign(&mut self, rhs: PolicyAgg) {
        self.completions.extend(rhs.completions);
        self.queue_sum += rhs.queue_sum;
        self.deferred += rhs.deferred;
        self.delivered += rhs.delivered;
        self.events += rhs.events;
        self.sim_us += rhs.sim_us;
    }
}

#[derive(Default)]
struct TenantTopoAgg {
    fifo: PolicyAgg,
    shaped: PolicyAgg,
}

impl AddAssign for TenantTopoAgg {
    fn add_assign(&mut self, rhs: TenantTopoAgg) {
        self.fifo += rhs.fifo;
        self.shaped += rhs.shaped;
    }
}

/// Nearest-rank percentile of an already-sorted sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

impl TenantPolicyStats {
    /// One policy's statistics from its folded aggregate.
    fn from_agg(agg: PolicyAgg) -> Self {
        let PolicyAgg {
            mut completions,
            queue_sum,
            deferred,
            delivered,
            events,
            sim_us,
        } = agg;
        let n = completions.len() as f64;
        let mean_completion_us = completions.iter().sum::<f64>() / n;
        completions.sort_by(f64::total_cmp);
        TenantPolicyStats {
            p50_completion_us: nearest_rank(&completions, 50.0),
            p99_completion_us: nearest_rank(&completions, 99.0),
            mean_completion_us,
            mean_queue_us: queue_sum / n,
            deferred,
            delivered,
            events,
            events_per_sim_ms: if sim_us > 0.0 {
                events as f64 / (sim_us / 1000.0)
            } else {
                0.0
            },
        }
    }
}

impl Sweep {
    /// Evaluates the multi-tenant admission grid: every `(job count, mean
    /// inter-arrival, group size)` triple from the cartesian product of the
    /// three axes, each cell sampled `topologies × dest_sets` times and
    /// scheduled under both admission rules — on arrival, and a channel
    /// load cap of 1 — on identical job sets. Cells fan out
    /// across the configured workers; the report is bit-identical for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// [`SweepError::ZeroPackets`], [`SweepError::TooManyDests`] (a group
    /// does not fit the network), or [`SweepError::InvalidTenantAxis`]
    /// (empty axis, zero job count or group, or a non-finite/negative mean
    /// inter-arrival).
    pub fn multi_tenant(
        &self,
        job_counts: &[u32],
        interarrivals_us: &[f64],
        groups: &[u32],
        m: u32,
    ) -> Result<TenantReport, SweepError> {
        let cfg = *self.config();
        if m == 0 {
            return Err(SweepError::ZeroPackets);
        }
        if job_counts.is_empty() || interarrivals_us.is_empty() || groups.is_empty() {
            return Err(SweepError::InvalidTenantAxis(
                "every axis needs at least one value",
            ));
        }
        if job_counts.contains(&0) {
            return Err(SweepError::InvalidTenantAxis(
                "job counts must be at least 1",
            ));
        }
        for &ia in interarrivals_us {
            if !(ia >= 0.0 && ia.is_finite()) {
                return Err(SweepError::InvalidTenantAxis(
                    "mean inter-arrival must be non-negative and finite",
                ));
            }
        }
        let hosts = cfg.net().hosts;
        for &g in groups {
            if g == 0 {
                return Err(SweepError::InvalidTenantAxis(
                    "groups must have at least one destination",
                ));
            }
            if g >= hosts {
                return Err(SweepError::TooManyDests { dests: g, hosts });
            }
        }
        let dims = [job_counts.len(), interarrivals_us.len(), groups.len()];
        let cells = self
            .fold_cells(dims.iter().product(), |cell, t| {
                let [j, r, g] = unravel(cell, dims);
                self.tenant_topology(job_counts[j], interarrivals_us[r], groups[g], m, t)
            })
            .into_iter()
            .enumerate()
            .map(|(cell, agg)| {
                let [j, r, g] = unravel(cell, dims);
                TenantCell {
                    jobs: job_counts[j],
                    mean_interarrival_us: interarrivals_us[r],
                    group: groups[g],
                    samples: cfg.samples(),
                    fifo: TenantPolicyStats::from_agg(agg.fifo),
                    shaped: TenantPolicyStats::from_agg(agg.shaped),
                }
            })
            .collect();
        Ok(TenantReport {
            m,
            topologies: cfg.topologies(),
            dest_sets: cfg.dest_sets(),
            base_seed: cfg.base_seed(),
            max_channel_load: MAX_CHANNEL_LOAD,
            job_counts: job_counts.to_vec(),
            interarrivals_us: interarrivals_us.to_vec(),
            groups: groups.to_vec(),
            cells,
        })
    }

    /// One cell's samples on topology `t`, evaluated sequentially in
    /// destination-set order (the fixed floating-point order); each sample's
    /// job set runs under both admission rules.
    fn tenant_topology(
        &self,
        jobs: u32,
        mean_interarrival_us: f64,
        group: u32,
        m: u32,
        t: u32,
    ) -> TenantTopoAgg {
        let cfg = *self.config();
        let topo = self.topology(t);
        let mut agg = TenantTopoAgg::default();
        for s in 0..cfg.dest_sets() {
            let salt = cfg.set_seed(t, s);
            // One rate-independent uniform stream; gaps scale by the mean.
            let mut gaps =
                ChaCha8Rng::seed_from_u64(salt.wrapping_mul(0xE703_7ED1_A0B4_28DB).wrapping_add(1));
            let mut workload = Vec::with_capacity(jobs as usize);
            let mut arrival = 0.0f64;
            for j in 0..jobs {
                if j > 0 {
                    let u = (gaps.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    arrival += u * 2.0 * mean_interarrival_us;
                }
                let chain = sample_chain(
                    &topo.net,
                    &topo.ordering,
                    salt.wrapping_mul(0xA076_1D64_78BD_642F)
                        .wrapping_add(u64::from(j) + 1),
                    group,
                );
                let tree = self.tree(TreePolicy::OptimalKBinomial, chain.len() as u32, m);
                let mut job = MulticastJob::fpfs(tree, chain, m);
                job.start_us = arrival;
                workload.push(job);
            }
            for cap in [None, Some(MAX_CHANNEL_LOAD)] {
                let out = ScheduledRun::new(
                    &topo.net,
                    &workload,
                    cfg.params(),
                    WorkloadConfig::default(),
                    cap,
                )
                .run()
                .expect("sampled tenant job sets form valid workloads");
                self.record_effort(
                    out.outcome.counters.events,
                    out.outcome.counters.peak_queue_len,
                );
                match cap {
                    None => agg.fifo.fold(&out),
                    Some(_) => agg.shaped.fold(&out),
                }
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    fn quick(threads: usize) -> Sweep {
        SweepBuilder::quick().parallelism(threads).build().unwrap()
    }

    #[test]
    fn single_job_cells_make_policies_identical() {
        // With one job in flight nothing can contend: contention-aware
        // admission degenerates to FIFO and the whole cell must match
        // bit-for-bit, queueing included.
        let report = quick(1).multi_tenant(&[1], &[40.0], &[8], 2).unwrap();
        let cell = report.cell(0, 0, 0);
        assert_eq!(cell.fifo, cell.shaped);
        assert_eq!(cell.fifo.deferred, 0);
        assert_eq!(cell.fifo.mean_queue_us, 0.0);
    }

    #[test]
    fn per_job_delivery_conserves_the_group() {
        let sweep = quick(1);
        let report = sweep.multi_tenant(&[1, 3], &[0.0, 30.0], &[6], 2).unwrap();
        for cell in &report.cells {
            let expected = u64::from(cell.samples) * u64::from(cell.jobs) * u64::from(cell.group);
            assert_eq!(cell.fifo.delivered, expected, "fifo lost destinations");
            assert_eq!(cell.shaped.delivered, expected, "shaped lost destinations");
            assert_eq!(
                cell.fifo.p50_completion_us,
                cell.fifo.p50_completion_us.max(0.0)
            );
        }
    }

    #[test]
    fn bursts_defer_under_contention_aware_only() {
        // A pure burst (mean gap 0) of overlapping jobs must trip the
        // channel-load bound: the shaped policy defers, FIFO never does,
        // and the deferrals buy shorter worst-case in-network service.
        let report = quick(1).multi_tenant(&[6], &[0.0], &[12], 4).unwrap();
        let cell = report.cell(0, 0, 0);
        assert_eq!(cell.fifo.deferred, 0);
        assert!(cell.shaped.deferred > 0, "burst never deferred");
        assert!(cell.shaped.mean_queue_us > 0.0);
        assert!(
            cell.fifo.p99_completion_us != cell.shaped.p99_completion_us,
            "policies coincided on a contended burst"
        );
    }

    #[test]
    fn report_is_byte_identical_across_workers() {
        let json_for = |threads: usize| {
            quick(threads)
                .multi_tenant(&[1, 2, 4], &[0.0, 25.0], &[8], 2)
                .unwrap()
                .to_json()
                .to_string_pretty()
        };
        let serial = json_for(1);
        assert_eq!(serial, json_for(2), "2 workers diverged");
        assert_eq!(serial, json_for(8), "8 workers diverged");
    }

    #[test]
    fn wide_gaps_neutralize_the_admission_policy() {
        // With arrival gaps far beyond any solo latency, estimated windows
        // never overlap: the contention-aware policy admits everything on
        // arrival and the whole cell collapses onto FIFO bit-for-bit.
        let report = quick(1)
            .multi_tenant(&[1, 3], &[100_000.0], &[5], 2)
            .unwrap();
        for cell in &report.cells {
            assert_eq!(cell.fifo, cell.shaped, "a gap of 100 ms still deferred");
            assert_eq!(cell.shaped.deferred, 0);
        }
    }

    #[test]
    fn bad_axes_are_rejected() {
        let sweep = quick(1);
        assert_eq!(
            sweep.multi_tenant(&[1], &[10.0], &[8], 0),
            Err(SweepError::ZeroPackets)
        );
        assert_eq!(
            sweep.multi_tenant(&[], &[10.0], &[8], 2),
            Err(SweepError::InvalidTenantAxis(
                "every axis needs at least one value"
            ))
        );
        assert_eq!(
            sweep.multi_tenant(&[0], &[10.0], &[8], 2),
            Err(SweepError::InvalidTenantAxis(
                "job counts must be at least 1"
            ))
        );
        assert_eq!(
            sweep.multi_tenant(&[1], &[f64::NAN], &[8], 2),
            Err(SweepError::InvalidTenantAxis(
                "mean inter-arrival must be non-negative and finite"
            ))
        );
        assert_eq!(
            sweep.multi_tenant(&[1], &[10.0], &[64], 2),
            Err(SweepError::TooManyDests {
                dests: 64,
                hosts: 64
            })
        );
    }
}
