//! Property-based tests of the core invariants across randomly drawn
//! configurations (trees, schedules, optimal-k search, orderings, routes).

use optimcast::core::coverage::{ceil_log2, coverage, min_steps};
use optimcast::core::schedule::{build_schedule, ForwardingDiscipline};
use optimcast::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Lemma 1 recurrence holds pointwise for random (s, k).
    #[test]
    fn coverage_satisfies_recurrence(s in 1u32..40, k in 1u32..10) {
        let direct = coverage(s, k);
        let mut sum = 1u128;
        for i in 1..=k.min(s) {
            sum = sum.saturating_add(coverage(s - i, k));
        }
        prop_assert_eq!(direct, sum);
    }

    /// min_steps is the exact inverse of coverage for random (n, k).
    #[test]
    fn min_steps_inverts_coverage(n in 1u64..100_000, k in 1u32..12) {
        let s = min_steps(n, k);
        prop_assert!(coverage(s, k) >= u128::from(n));
        if s > 0 {
            prop_assert!(coverage(s - 1, k) < u128::from(n));
        }
    }

    /// Every constructed k-binomial tree is valid, degree-capped, covers all
    /// ranks exactly once, and completes single-packet multicast in t1.
    #[test]
    fn kbinomial_tree_invariants(n in 1u32..300, k in 1u32..10) {
        let tree = kbinomial_tree(n, k);
        prop_assert!(tree.validate().is_ok());
        prop_assert_eq!(tree.len(), n as usize);
        prop_assert!(tree.max_degree() <= k);
        let sched = fpfs_schedule(&tree, 1);
        prop_assert_eq!(sched.total_steps(), min_steps(u64::from(n), k));
    }

    /// Theorem 2 on random configurations: FPFS completion equals
    /// t1 + (m-1) * bottleneck, bounded by the analytic t1 + (m-1) * k.
    #[test]
    fn theorem2_random(n in 2u32..200, k in 1u32..8, m in 1u32..20) {
        let tree = kbinomial_tree(n, k);
        let t1 = min_steps(u64::from(n), k);
        let sched = fpfs_schedule(&tree, m);
        prop_assert_eq!(
            sched.total_steps(),
            t1 + (m - 1) * tree.max_degree()
        );
        prop_assert!(sched.total_steps() <= t1 + (m - 1) * k);
    }

    /// The optimal-k search returns the true minimum over the interval and
    /// is achieved exactly by the constructed tree.
    #[test]
    fn optimal_k_is_exact(n in 2u64..200, m in 1u32..40) {
        let opt = optimal_k(n, m);
        let hi = ceil_log2(n).max(1);
        prop_assert!(opt.k >= 1 && opt.k <= hi);
        for k in 1..=hi {
            prop_assert!(
                optimcast::core::optimal::total_steps(n, m, k) >= opt.steps
            );
        }
        let tree = kbinomial_tree(n as u32, opt.k);
        prop_assert_eq!(u64::from(fpfs_schedule(&tree, m).total_steps()), opt.steps);
    }

    /// Schedules are well-formed under both disciplines: causal sends, one
    /// send per NI per step, every destination receives each packet once,
    /// and FPFS never finishes later than FCFS.
    #[test]
    fn schedules_wellformed(n in 2u32..80, k in 1u32..7, m in 1u32..10) {
        let tree = kbinomial_tree(n, k);
        let mut totals = Vec::new();
        for disc in [ForwardingDiscipline::Fpfs, ForwardingDiscipline::Fcfs] {
            let s = build_schedule(&tree, m, disc);
            let mut busy = std::collections::HashSet::new();
            for e in s.events() {
                prop_assert!(busy.insert((e.from, e.step)));
                prop_assert!(e.step > s.receive_step(e.from, e.packet));
            }
            prop_assert_eq!(s.events().len(), ((n - 1) * m) as usize);
            totals.push(s.total_steps());
        }
        prop_assert!(totals[0] <= totals[1], "FPFS beat by FCFS");
    }

    /// Ordering::arrange returns the participants exactly, source first,
    /// with the non-source suffix sorted by ordering position.
    #[test]
    fn arrange_is_sound(seed in 0u64..1000, n_dests in 1usize..40) {
        let order = Ordering::random(64, seed);
        let mut hosts: Vec<HostId> = (0..64).map(HostId).collect();
        // Deterministic pseudo-shuffle from the seed.
        let perm = Ordering::random(64, seed ^ 0xABCD);
        hosts.sort_by_key(|&h| perm.position(h));
        let source = hosts[0];
        let dests = &hosts[1..=n_dests];
        let chain = order.arrange(source, dests);
        prop_assert_eq!(chain.len(), n_dests + 1);
        prop_assert_eq!(chain[0], source);
        let mut expected: Vec<HostId> = dests.to_vec();
        expected.push(source);
        expected.sort();
        let mut got = chain.clone();
        got.sort();
        prop_assert_eq!(got, expected);
        // Suffix after any rotation point is position-sorted in cyclic order:
        // check that consecutive non-source pairs wrap at most once.
        let positions: Vec<u32> = chain.iter().map(|&h| order.position(h)).collect();
        let wraps = positions
            .windows(2)
            .filter(|w| w[1] < w[0])
            .count();
        prop_assert!(wraps <= 1, "chain must be one rotation of a sorted list");
    }

    /// Routes on random irregular networks are connected channel walks from
    /// source injection to destination ejection.
    #[test]
    fn irregular_routes_wellformed(seed in 0u64..60, a in 0u32..64, b in 0u32..64) {
        let net = IrregularNetwork::generate(IrregularConfig::default(), seed);
        let route = net.route(HostId(a), HostId(b));
        if a == b {
            prop_assert!(route.is_empty());
        } else {
            let topo = net.topology();
            prop_assert_eq!(route[0], topo.injection_channel(HostId(a)));
            prop_assert_eq!(*route.last().unwrap(), topo.ejection_channel(HostId(b)));
            for w in route.windows(2) {
                let (_, x) = topo.channel_endpoints(w[0]);
                let (y, _) = topo.channel_endpoints(w[1]);
                prop_assert_eq!(x, y);
            }
            // up*/down* bounds path length by 2 + switch count.
            prop_assert!(route.len() <= 2 + 16);
        }
    }

    /// Simulated FPFS latency equals the analytic value on conflict-free
    /// substrates for random (n, k, m) — the pipeline end to end.
    #[test]
    fn sim_matches_analytic_random(n in 2u32..64, k in 1u32..7, m in 1u32..8) {
        let net = IrregularNetwork::generate(
            IrregularConfig { switches: 1, ports: 64, hosts: 64 },
            0,
        );
        let tree = kbinomial_tree(n, k);
        let binding: Vec<HostId> = (0..n).map(HostId).collect();
        let out = run_multicast(
            &net,
            &tree,
            &binding,
            m,
            &SystemParams::paper_1997(),
            RunConfig {
                nic: NicKind::Smart(ForwardingDiscipline::Fpfs),
                contention: ContentionMode::Ideal,
                timing: NiTiming::Handshake,
            },
        ).unwrap();
        let analytic = smart_latency_us(&fpfs_schedule(&tree, m), &SystemParams::paper_1997());
        prop_assert!((out.latency_us - analytic).abs() < 1e-6);
    }
}

proptest! {
    /// Mesh routes are minimal (Manhattan distance) and wellformed for
    /// random mesh shapes and endpoints.
    #[test]
    fn mesh_routes_minimal(arity in 2u32..6, dims in 1u32..4, seed in 0u64..500) {
        use optimcast::topology::mesh::MeshNetwork;
        let net = MeshNetwork::new(arity, dims);
        let n = net.num_hosts();
        let a = HostId((seed % u64::from(n)) as u32);
        let b = HostId(((seed / 7) % u64::from(n)) as u32);
        let route = net.route(a, b);
        if a == b {
            prop_assert!(route.is_empty());
        } else {
            let ca = net.coords(a);
            let cb = net.coords(b);
            let dist: u32 = ca.iter().zip(&cb).map(|(&x, &y)| x.abs_diff(y)).sum();
            prop_assert_eq!(route.len(), dist as usize + 2);
        }
    }

    /// Snake orderings visit mesh neighbours consecutively for random
    /// shapes.
    #[test]
    fn snake_is_hamiltonian_neighbor_path(arity in 2u32..5, dims in 1u32..4) {
        use optimcast::topology::mesh::{snake_ordering, MeshNetwork};
        let net = MeshNetwork::new(arity, dims);
        let o = snake_ordering(&net);
        prop_assert_eq!(o.len(), net.num_hosts() as usize);
        for w in o.hosts().windows(2) {
            let ca = net.coords(w[0]);
            let cb = net.coords(w[1]);
            let dist: u32 = ca.iter().zip(&cb).map(|(&x, &y)| x.abs_diff(y)).sum();
            prop_assert_eq!(dist, 1);
        }
    }

    /// Scatter schedules respect the source bound and deliver everything,
    /// for random trees and policies.
    #[test]
    fn scatter_schedule_invariants(
        n in 2u32..80,
        k in 1u32..6,
        m in 1u32..6,
        deepest in proptest::bool::ANY,
    ) {
        use optimcast::collectives::scatter_schedule;
        use optimcast::netsim::PersonalizedOrder;
        let policy = if deepest {
            PersonalizedOrder::DeepestFirst
        } else {
            PersonalizedOrder::OwnFirst
        };
        let tree = kbinomial_tree(n, k);
        let s = scatter_schedule(&tree, m, policy);
        prop_assert!(s.total_steps() >= s.source_bound());
        for r in 1..n {
            for p in 0..m {
                prop_assert!(s.arrival(Rank(r), p) >= 1);
            }
        }
    }

    /// Gather schedules are always feasible reversals with equal duration.
    #[test]
    fn gather_reversal_feasible(n in 2u32..50, k in 1u32..5, m in 1u32..4) {
        use optimcast::collectives::{gather_schedule, scatter_schedule};
        use optimcast::netsim::PersonalizedOrder;
        let tree = kbinomial_tree(n, k);
        let g = gather_schedule(&tree, m, PersonalizedOrder::DeepestFirst);
        prop_assert!(g.verify(&tree).is_ok());
        prop_assert_eq!(
            g.total_steps(),
            scatter_schedule(&tree, m, PersonalizedOrder::DeepestFirst).total_steps()
        );
    }

    /// The parameterized model reduces to the integer step model for random
    /// configurations.
    #[test]
    fn param_model_reduction(n in 2u32..100, k in 1u32..6, m in 1u32..8) {
        use optimcast::core::param_model::{param_schedule, ParamModel};
        use optimcast::core::schedule::ForwardingDiscipline;
        let p = SystemParams::paper_1997();
        let model = ParamModel::step_model(&p);
        let tree = kbinomial_tree(n, k);
        let ps = param_schedule(&tree, m, ForwardingDiscipline::Fpfs, &model);
        let is = fpfs_schedule(&tree, m);
        let expect = f64::from(is.total_steps()) * p.t_step();
        prop_assert!((ps.total_time() - expect).abs() < 1e-9);
    }

    /// FCFS optimum is never better than FPFS optimum, for random (n, m).
    #[test]
    fn fcfs_never_better(n in 2u32..100, m in 1u32..24) {
        use optimcast::core::optimal::{optimal_k, optimal_k_fcfs};
        let fc = optimal_k_fcfs(n, m);
        let fp = optimal_k(u64::from(n), m);
        prop_assert!(fc.steps >= fp.steps);
    }
}
