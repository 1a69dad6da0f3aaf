//! Property-based invariants of the finite-system engines: the exact
//! aggregation must conserve clients and respect the assignment law for
//! *arbitrary* queue-length profiles and decision rules.

use mflb_core::mdp::{FixedRulePolicy, UpperPolicy};
use mflb_core::meanfield::per_state_arrival_rates;
use mflb_core::{DecisionRule, JobSizeLaw, StateDist, SystemConfig, Topology};
use mflb_sim::aggregate::sample_client_assignments;
use mflb_sim::{
    parse_trace_line, run_episode, run_rng, serve, AggregateEngine, Engine, EventEngine,
    GraphEngine, Job, JobSource, ServeError, ServeOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: an arbitrary queue-length profile over `{0..5}` for M queues.
fn profile_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..6, 5..40)
}

/// Strategy: a random row-stochastic d = 2 decision rule over 6 states.
fn rule_strategy() -> impl Strategy<Value = DecisionRule> {
    prop::collection::vec(0.0f64..1.0, 36).prop_map(|ps| {
        DecisionRule::from_fn(6, 2, |tuple| {
            let p = ps[tuple[0] * 6 + tuple[1]].clamp(0.0, 1.0);
            vec![p, 1.0 - p]
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assignments_conserve_clients(
        queues in profile_strategy(),
        rule in rule_strategy(),
        n in 1u64..50_000,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = sample_client_assignments(n, 6, &queues, &rule, &mut rng);
        prop_assert_eq!(counts.len(), queues.len());
        prop_assert_eq!(counts.iter().sum::<u64>(), n, "every client lands somewhere");
    }

    #[test]
    fn equal_state_queues_are_exchangeable_in_expectation(
        rule in rule_strategy(),
        seed in 0u64..500,
    ) {
        // Two queues in the same state must receive statistically equal
        // client counts (the level-2 uniform split of the aggregation).
        let queues = vec![2usize, 2, 0, 4, 1, 1, 3, 2];
        let mut rng = StdRng::seed_from_u64(seed);
        let reps = 400;
        let (mut a, mut b) = (0u64, 0u64);
        for _ in 0..reps {
            let counts = sample_client_assignments(4_000, 6, &queues, &rule, &mut rng);
            a += counts[0];
            b += counts[1];
        }
        let (a, b) = (a as f64 / reps as f64, b as f64 / reps as f64);
        let scale = (a + b).max(1.0);
        prop_assert!(
            (a - b).abs() / scale < 0.10,
            "same-state queues got {a:.1} vs {b:.1} clients on average"
        );
    }

    #[test]
    fn group_totals_match_the_mean_field_integral(
        queues in profile_strategy(),
        rule in rule_strategy(),
        seed in 0u64..500,
    ) {
        // The expected per-state client share is m_z/M · M·q_z from
        // per_state_arrival_rates(H, h, 1) — check the empirical group
        // totals against it.
        let n = 20_000u64;
        let m = queues.len();
        let h = StateDist::empirical(&queues, 5);
        let m_qz = per_state_arrival_rates(&h, &rule, 1.0);
        let mut group_size = [0u64; 6];
        for &z in &queues {
            group_size[z] += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let reps = 60;
        let mut group_totals = [0.0f64; 6];
        for _ in 0..reps {
            let counts = sample_client_assignments(n, 6, &queues, &rule, &mut rng);
            for (j, &z) in queues.iter().enumerate() {
                group_totals[z] += counts[j] as f64;
            }
        }
        for z in 0..6 {
            let expected = n as f64 * (group_size[z] as f64 / m as f64) * m_qz[z];
            let got = group_totals[z] / reps as f64;
            // Multinomial noise of the group total over reps averages.
            let se = (expected.max(1.0)).sqrt() / (reps as f64).sqrt() * 3.0 + 6.0;
            prop_assert!(
                (got - expected).abs() < 6.0 * se,
                "state {z}: mean group total {got:.1} vs expected {expected:.1}"
            );
        }
    }
}

/// Strategy: an arbitrary sparse topology valid for `m` queues.
fn topology_strategy(m: usize) -> impl Strategy<Value = Topology> {
    (0usize..3, 1usize..4, 0u64..1_000).prop_map(move |(kind, size, seed)| match kind {
        0 => Topology::Ring { radius: size.min((m - 1) / 2) },
        // Degree 2·size is even (valid for odd M); the m−1 cap is even
        // exactly when M is odd, and an odd cap only binds for even M,
        // where odd degrees are legal too.
        1 => Topology::RandomRegular { degree: (2 * size).min(m - 1), seed },
        _ => Topology::Ring { radius: 1 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_assignments_conserve_job_mass(
        queues in profile_strategy(),
        rule in rule_strategy(),
        n in 1u64..50_000,
        workers in 1usize..5,
        seed in 0u64..10_000,
    ) {
        // Job-mass conservation: every client lands on exactly one queue,
        // for arbitrary profiles, rules, sparse topologies and worker
        // counts at the default shard size.
        let m = queues.len();
        let mut top_rng = StdRng::seed_from_u64(seed ^ 0xA11C);
        let top = topology_strategy(m).generate(&mut top_rng);
        let cfg = SystemConfig::paper().with_size(n.max(1), m);
        let engine = GraphEngine::new(cfg, top).with_workers(workers);
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = engine.sample_assignments(&queues, &rule, &mut rng);
        prop_assert_eq!(counts.len(), m);
        prop_assert_eq!(counts.iter().sum::<u64>(), n, "every client lands somewhere");
    }

    #[test]
    fn graph_routing_never_leaves_the_neighborhood(
        queues in profile_strategy(),
        rule in rule_strategy(),
        clients in 1u64..64,
        seed in 0u64..10_000,
    ) {
        // Every dispatcher of the topology, with client counts on both
        // sides of the per-client/binomial switch and an `epoch_base`
        // drawn the way an episode draws it, routes only into A(i).
        let m = queues.len();
        let mut top_rng = StdRng::seed_from_u64(seed ^ 0xB22D);
        let top = topology_strategy(m).generate(&mut top_rng);
        // Degenerate covers take the aggregate fast path, which has no
        // per-node stage to test — the locality invariant is vacuous there.
        if !top.is_full_mesh(m) {
            let cfg = SystemConfig::paper().with_size(clients, m);
            let engine = GraphEngine::new(cfg, top);
            let epoch_base: u64 = StdRng::seed_from_u64(seed).gen();
            for node in 0..m {
                let mut counts = vec![0u64; m];
                engine.sample_node_assignments(node, clients, &queues, &rule, epoch_base, &mut counts);
                prop_assert_eq!(counts.iter().sum::<u64>(), clients);
                let nbrs = engine.neighborhood(node);
                for (j, &c) in counts.iter().enumerate() {
                    if !nbrs.contains(&(j as u32)) {
                        prop_assert_eq!(
                            c, 0,
                            "queue {} outside A({}) = {:?} got clients", j, node, nbrs
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_assignments_conserve_job_mass(
        queues in profile_strategy(),
        rule in rule_strategy(),
        n in 1u64..50_000,
        shard in 1usize..16,
        seed in 0u64..10_000,
    ) {
        let m = queues.len();
        let mut top_rng = StdRng::seed_from_u64(seed ^ 0xD44F);
        let top = topology_strategy(m).generate(&mut top_rng);
        let cfg = SystemConfig::paper().with_size(n.max(1), m);
        let engine = GraphEngine::new(cfg, top).with_shard_size(shard);
        let mut rng = StdRng::seed_from_u64(seed);
        // Job-mass conservation: every client lands on exactly one queue,
        // for arbitrary profiles, rules, sparse topologies and shard sizes.
        let counts = engine.sample_assignments(&queues, &rule, &mut rng);
        prop_assert_eq!(counts.len(), m);
        prop_assert_eq!(counts.iter().sum::<u64>(), n, "every client lands somewhere");
    }

    #[test]
    fn sharded_routing_never_leaves_the_neighborhood(
        queues in profile_strategy(),
        rule in rule_strategy(),
        node_pick in 0usize..1_000,
        clients in 1u64..20_000,
        epoch_base in 0u64..u64::MAX,
        seed in 0u64..10_000,
    ) {
        // The per-dispatcher derived stream (both the ≤16-client
        // per-client path and the binomial chain above it) must respect
        // A(i) for any epoch base. Degenerate covers take the aggregate
        // fast path, which has no per-node stage to test.
        let m = queues.len();
        let mut top_rng = StdRng::seed_from_u64(seed ^ 0xE55A);
        let top = topology_strategy(m).generate(&mut top_rng);
        if !top.is_full_mesh(m) {
            let cfg = SystemConfig::paper().with_size(clients, m);
            let engine = GraphEngine::new(cfg, top);
            let node = node_pick % m;
            let mut counts = vec![0u64; m];
            engine.sample_node_assignments(node, clients, &queues, &rule, epoch_base, &mut counts);
            prop_assert_eq!(counts.iter().sum::<u64>(), clients);
            let nbrs = engine.neighborhood(node);
            for (j, &c) in counts.iter().enumerate() {
                if !nbrs.contains(&(j as u32)) {
                    prop_assert_eq!(
                        c, 0,
                        "queue {} outside A({}) = {:?} got clients", j, node, nbrs
                    );
                }
            }
        }
    }

    #[test]
    fn full_mesh_graph_reproduces_the_aggregate_rng_stream(
        n in 100u64..20_000,
        m in 5usize..40,
        seed in 0u64..10_000,
        horizon in 1usize..12,
    ) {
        // The degenerate topology must take the aggregate fast path: whole
        // episodes are bit-for-bit identical, not just equal in law. Both
        // the explicit FullMesh tag and a covering ring must qualify.
        let cfg = SystemConfig::paper().with_size(n, m).with_dt(2.0);
        let policy = FixedRulePolicy::new(
            mflb_policy::jsq_rule(6, 2),
            "JSQ(2)",
        );
        let agg = AggregateEngine::new(cfg.clone());
        let reference = run_episode(&agg, &policy, horizon, &mut run_rng(seed, 0));
        // A ring with 2r+1 = M covers the cycle only for odd M; even M
        // rings are filtered out by the is_full_mesh check below.
        for top in [Topology::FullMesh, Topology::Ring { radius: (m - 1) / 2 }] {
            if !top.is_full_mesh(m) {
                continue;
            }
            let graph = GraphEngine::new(cfg.clone(), top.clone());
            let got = run_episode(&graph, &policy, horizon, &mut run_rng(seed, 0));
            prop_assert_eq!(&got.drops_per_epoch, &reference.drops_per_epoch, "{:?}", &top);
            prop_assert_eq!(&got.mean_queue_len, &reference.mean_queue_len, "{:?}", &top);
            prop_assert_eq!(&got.lambda_trace, &reference.lambda_trace, "{:?}", &top);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_episodes_are_partition_invariant(
        m in 10usize..48,
        n in 100u64..20_000,
        shard_a in 1usize..64,
        shard_b in 1usize..64,
        workers in 1usize..5,
        seed in 0u64..10_000,
    ) {
        // The defining property of the sharded stream: shard size and
        // worker count are pure execution detail. Any (shard, workers)
        // pair — including the 1-shard degenerate split — must produce
        // byte-identical episodes.
        let mut top_rng = StdRng::seed_from_u64(seed ^ 0xC33E);
        let top = topology_strategy(m).generate(&mut top_rng);
        // Full-mesh covers always take the aggregate path; the sharded
        // invariant is vacuous there.
        if !top.is_full_mesh(m) {
            let cfg = SystemConfig::paper().with_size(n, m).with_dt(2.0);
            let policy = FixedRulePolicy::new(mflb_policy::jsq_rule(6, 2), "JSQ(2)");
            let base = GraphEngine::new(cfg, top);
            let one = base.clone().with_shard_size(1 << 20).with_workers(1);
            let reference = run_episode(&one, &policy, 6, &mut run_rng(seed, 0));
            let split = base.with_shard_size(shard_a.min(shard_b)).with_workers(workers);
            let got = run_episode(&split, &policy, 6, &mut run_rng(seed, 0));
            prop_assert_eq!(&got.drops_per_epoch, &reference.drops_per_epoch);
            prop_assert_eq!(&got.mean_queue_len, &reference.mean_queue_len);
            prop_assert_eq!(&got.max_share_per_epoch, &reference.max_share_per_epoch);
            prop_assert_eq!(got.jobs_completed, reference.jobs_completed);
        }
    }

    #[test]
    fn a_cap_that_never_binds_changes_nothing_on_tie_heavy_traces(
        step_pick in 0usize..4,
        size_mask in 1u32..64,
        buffer in 1usize..5,
        dt_steps in 1u32..12,
        m in 1usize..7,
        most in 1usize..5,
        seed in 0u64..10_000,
    ) {
        // Jobs on a time grid with sizes that are grid multiples (or
        // 1e-300, a service that ends on the instant it starts) put
        // arrivals, completions and sync boundaries on the same instants.
        // Uncapped and under a cap that never binds, every interval's
        // tick must agree: drop, completion and shed counts and the bits
        // of the running sojourn sum, which moves with the order and the
        // values of the interval's sojourns.
        let step = [1.0, 0.5, 0.25, 0.125][step_pick];
        let sizes: Vec<f64> = [1.0, 2.0, 3.0, 4.0, 8.0]
            .iter()
            .map(|&s| s * step)
            .chain([1e-300])
            .enumerate()
            .filter(|&(i, _)| size_mask & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs: Vec<Job> = (0..120)
            .flat_map(|i| {
                let n = rng.gen_range(0..=most);
                (0..n)
                    .map(|_| Job { t: i as f64 * step, size: sizes[rng.gen_range(0..sizes.len())] })
                    .collect::<Vec<_>>()
            })
            .collect();
        let cfg = SystemConfig::paper()
            .with_size(4 * m as u64, m)
            .with_buffer(buffer)
            .with_dt(dt_steps as f64 * step);
        let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let policy = FixedRulePolicy::new(mflb_policy::rnd_rule(buffer + 1, 2), "RND");
        let source = JobSource::Trace(jobs);
        let run = |admission_cap| {
            let opts = ServeOptions { report_every: 1, seed, admission_cap, ..Default::default() };
            let mut ticks = Vec::new();
            let report = serve(&engine, &policy, "RND", &source, &opts, |t| ticks.push(t.clone()))
                .unwrap();
            (ticks, report)
        };
        let (ticks, report) = run(None);
        let (capped_ticks, capped_report) = run(Some(u64::MAX));
        prop_assert_eq!(ticks.len(), capped_ticks.len());
        for (i, (a, b)) in ticks.iter().zip(&capped_ticks).enumerate() {
            prop_assert_eq!(
                (a.jobs_dropped, a.jobs_completed, a.jobs_shed),
                (b.jobs_dropped, b.jobs_completed, b.jobs_shed),
                "interval {}", i
            );
            prop_assert_eq!(a.mean_sojourn.to_bits(), b.mean_sojourn.to_bits(), "interval {}", i);
            prop_assert_eq!(a.mean_queue_len.to_bits(), b.mean_queue_len.to_bits());
        }
        prop_assert_eq!(report.max_sojourn.to_bits(), capped_report.max_sojourn.to_bits());
        prop_assert_eq!(report.jobs_in_system, 0);
    }

    #[test]
    fn event_episodes_conserve_job_mass(
        m in 5usize..30,
        n in 50u64..5_000,
        law_pick in 0usize..3,
        horizon in 1usize..10,
        seed in 0u64..10_000,
    ) {
        // Every dispatched job is accounted for exactly once: completed,
        // dropped, or still in the system — across laws and horizons.
        let cfg = SystemConfig::paper().with_size(n, m).with_dt(2.0);
        let law = match law_pick {
            0 => JobSizeLaw::Exponential { rate: 1.0 },
            1 => JobSizeLaw::Pareto { shape: 2.5, scale: 0.5 },
            _ => JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 },
        };
        let engine = EventEngine::new(cfg, law);
        let policy = FixedRulePolicy::new(mflb_policy::jsq_rule(6, 2), "JSQ(2)");
        let mut rng = run_rng(seed, 0);
        let mut state = engine.init_state(&mut rng);
        for _ in 0..horizon {
            let h = engine.empirical(&state);
            let rule = policy.decide(&h, 0, 0.9);
            engine.step(&mut state, &rule, 0.9, &mut rng);
            prop_assert_eq!(
                state.jobs_arrived(),
                state.jobs_completed() + state.jobs_dropped() + state.jobs_in_system(),
                "job mass must balance after every epoch"
            );
        }
    }

    #[test]
    fn serve_replays_bit_identically(
        num_jobs in 1usize..120,
        gap_q in 1u32..40,
        seed in 0u64..10_000,
        synthetic_pick in 0usize..2,
    ) {
        let synthetic = synthetic_pick == 1;
        // A serve run is a deterministic function of (engine, policy,
        // source, seed): replaying the same trace — or re-running the
        // same synthetic stream — reproduces every statistic bit for bit.
        let cfg = SystemConfig::paper().with_size(200, 10).with_dt(2.0);
        let engine = EventEngine::new(
            cfg,
            JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 },
        );
        let policy = FixedRulePolicy::new(mflb_policy::jsq_rule(6, 2), "JSQ(2)");
        let gap = gap_q as f64 * 0.025;
        let source = if synthetic {
            JobSource::Synthetic
        } else {
            JobSource::Trace(
                (0..num_jobs)
                    .map(|i| Job {
                        t: i as f64 * gap,
                        size: 0.2 + ((i * 37 + seed as usize) % 11) as f64 * 0.15,
                    })
                    .collect(),
            )
        };
        let opts = ServeOptions {
            duration: synthetic.then_some(20.0),
            seed,
            ..Default::default()
        };
        let a = serve(&engine, &policy, "JSQ(2)", &source, &opts, |_| {}).unwrap();
        let b = serve(&engine, &policy, "JSQ(2)", &source, &opts, |_| {}).unwrap();
        prop_assert_eq!(a.jobs_arrived, b.jobs_arrived);
        prop_assert_eq!(a.jobs_completed, b.jobs_completed);
        prop_assert_eq!(a.jobs_dropped, b.jobs_dropped);
        prop_assert_eq!(a.intervals, b.intervals);
        prop_assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
        prop_assert_eq!(a.mean_sojourn.to_bits(), b.mean_sojourn.to_bits());
        prop_assert_eq!(a.max_sojourn.to_bits(), b.max_sojourn.to_bits());
        prop_assert_eq!(a.drop_fraction.to_bits(), b.drop_fraction.to_bits());
        prop_assert_eq!(a.mean_queue_len.to_bits(), b.mean_queue_len.to_bits());
    }
}

/// Strategy: an arbitrary fault plan with every family active — bounded
/// parameters keep the runs busy but finite.
fn fault_plan_strategy() -> impl Strategy<Value = mflb_core::FaultPlan> {
    (
        (5.0f64..50.0, 1.0f64..20.0, 0.0f64..1.0), // mttf, mttr, obs drop_prob
        (0.0f64..20.0, 1.0f64..10.0, 0.0f64..10.0, 1.0f64..10.0), // windows: start, len, gap, len
        (0.1f64..2.0, 1.0f64..2.0),                // straggler factor, overload factor
    )
        .prop_map(|((mttf, mttr, drop_prob), (s1, l1, gap, l2), (sf, of))| {
            let (e1, s2) = (s1 + l1, s1 + l1 + gap);
            mflb_core::FaultPlan {
                crashes: Some(mflb_core::CrashFaults { mttf, mttr }),
                stragglers: vec![
                    mflb_core::StragglerWindow { start: s1, end: e1, factor: sf, queues: None },
                    mflb_core::StragglerWindow {
                        start: s2,
                        end: s2 + l2,
                        factor: 1.0 / sf,
                        queues: Some(vec![0, 3]),
                    },
                ],
                observation: Some(mflb_core::ObservationFaults { drop_prob }),
                overloads: vec![
                    mflb_core::OverloadWindow { start: s1, end: e1, factor: of },
                    mflb_core::OverloadWindow { start: s2, end: s2 + l2, factor: 2.0 / of },
                ],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn faulted_episodes_replay_bit_identically(
        plan in fault_plan_strategy(),
        seed in 0u64..10_000,
    ) {
        // Fault randomness is keyed off (epoch_base, salt, index) counter
        // streams: rerunning the same faulted episode at the same seed
        // reproduces the drop total bit for bit, on every faultable engine.
        let cfg = SystemConfig::paper().with_size(200, 10).with_dt(2.0);
        let policy = FixedRulePolicy::new(mflb_policy::jsq_rule(6, 2), "JSQ(2)");
        let event = EventEngine::new(cfg.clone(), JobSizeLaw::Exponential { rate: 1.0 })
            .with_faults(plan.clone());
        let fifo = mflb_sim::FifoEngine::new(cfg.clone()).with_faults(plan.clone());
        let graph = GraphEngine::new(cfg, Topology::Ring { radius: 2 }).with_faults(plan);
        let a = run_episode(&event, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        let b = run_episode(&event, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        prop_assert_eq!(a.to_bits(), b.to_bits());
        let a = run_episode(&fifo, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        let b = run_episode(&fifo, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        prop_assert_eq!(a.to_bits(), b.to_bits());
        let a = run_episode(&graph, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        let b = run_episode(&graph, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn fault_schedules_are_insertion_order_independent(
        plan in fault_plan_strategy(),
        seed in 0u64..10_000,
    ) {
        // The straggler/overload windows are disjoint in time, so listing
        // them in the opposite order is the *same* schedule — and must
        // produce the same episode bit for bit.
        let mut reversed = plan.clone();
        reversed.stragglers.reverse();
        reversed.overloads.reverse();
        let cfg = SystemConfig::paper().with_size(200, 10).with_dt(2.0);
        let policy = FixedRulePolicy::new(mflb_policy::jsq_rule(6, 2), "JSQ(2)");
        let a_engine = EventEngine::new(cfg.clone(), JobSizeLaw::Exponential { rate: 1.0 })
            .with_faults(plan);
        let b_engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 })
            .with_faults(reversed);
        let a = run_episode(&a_engine, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        let b = run_episode(&b_engine, &policy, 10, &mut run_rng(seed, 0)).total_drops;
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
}

fn pick<'a>(rng: &mut TestRng, choices: &[&'a str]) -> &'a str {
    choices[rng.gen_range(0..choices.len())]
}

/// A JSON number token the parser accepts: shortest-round-trip and
/// exponent floats, and integers up to `i128::MAX`.
fn number_token(rng: &mut TestRng) -> String {
    match rng.gen_range(0..5) {
        0 => format!("{}", rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..12))),
        1 => format!("{:e}", rng.gen::<f64>() * 10f64.powi(rng.gen_range(-300..300))),
        2 => rng.gen_range(0u64..100_000).to_string(),
        3 => {
            let x = f64::from_bits(rng.gen::<u64>());
            if x.is_finite() {
                format!("{x}")
            } else {
                "1.5".into()
            }
        }
        _ => pick(
            rng,
            &[
                "9223372036854775807",
                "9223372036854775808",
                "18446744073709551616",
                "170141183460469231731687303715884105727",
                "-170141183460469231731687303715884105728",
                "123456789012345678901234567890",
                "1.",
                "-0.0",
                "-0",
                "0",
                "1e5",
                "1E+5",
                "2.5e-3",
                "1e400",
                "-1e400",
                "5e-324",
                "3.0",
            ],
        )
        .into(),
    }
}

/// A member value: mostly numbers, sometimes tokens the parser rejects
/// (integers past `i128::MAX`, malformed numbers), strings (including the
/// non-finite sentinels), arrays, objects or literals.
fn value_token(rng: &mut TestRng) -> String {
    match rng.gen_range(0..12) {
        0..=6 => number_token(rng),
        7 => pick(
            rng,
            &[
                "170141183460469231731687303715884105728",
                "-170141183460469231731687303715884105729",
                "1.2.3",
                "--1",
                "-",
                "1-2",
                "01",
                "1e",
                "0.1e+",
                "-.5",
            ],
        )
        .into(),
        8 => pick(rng, &["\"NaN\"", "\"inf\"", "\"-inf\"", "\"1.0\"", "\"a\\\"b\"", "\"\""]).into(),
        9 => pick(rng, &["[1, 2]", "[]", "{\"a\": 1}", "{}", "[\"x\", {\"t\": 1}]"]).into(),
        _ => pick(rng, &["null", "true", "false", ".5", "+1", "nan", "inf", "\"t\""]).into(),
    }
}

/// Strategy: one trace line near the `{"t": …, "size": …}` shape: a
/// `Job::to_jsonl` line, a well-formed object of numeric members (any key
/// order, duplicate and unknown keys), or an object with the
/// perturbations the scanner must hand to `serde_json`.
struct TraceLine;

impl Strategy for TraceLine {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let ws =
            |rng: &mut TestRng| pick(rng, &["", "", "", " ", "\t", "  ", "\r", " \n ", "\u{c}"]);
        if rng.gen_bool(0.2) {
            let t = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-5..8));
            let size = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-5..3));
            let job = Job { t: if rng.gen_bool(0.1) { -t } else { t }, size };
            let garbage = pick(rng, &["", "", "", "x", ",", "}", " 1", "\u{a0}"]);
            return format!("{}{}{garbage}", ws(rng), job.to_jsonl());
        }
        let strict = rng.gen_bool(0.5);
        let mut line = String::from(if strict { "" } else { pick(rng, &["", "", " ", "#", "x"]) });
        line.push('{');
        for i in 0..rng.gen_range(0..6) {
            if i > 0 {
                line.push_str(ws(rng));
                line.push_str(if strict { "," } else { pick(rng, &[",", ",", ",", ";", ""]) });
            }
            let key = if strict {
                pick(rng, &["t", "t", "size", "size", "x", "tt", "T", "siz", "é"])
            } else {
                pick(rng, &["t", "size", "size ", "\\u0074", "s\\u0069ze", "", "t\\\"", "é"])
            };
            let colon = if strict { ":" } else { pick(rng, &[":", ":", ":", ""]) };
            line.push_str(&format!("{}\"{key}\"{}{colon}{}", ws(rng), ws(rng), ws(rng)));
            line.push_str(&if strict { number_token(rng) } else { value_token(rng) });
            line.push_str(ws(rng));
        }
        if strict {
            line.push('}');
            line.push_str(ws(rng));
        } else {
            line.push_str(pick(rng, &["}", "}", "}", ",}", ""]));
            line.push_str(ws(rng));
            line.push_str(pick(rng, &["", "", "", "x", ",", "}", " 1", "{}"]));
        }
        line
    }
}

/// The reference: `serde_json::from_str::<Job>` on the trimmed line, then
/// the trace validation, as `(t bits, size bits)` or the error message.
fn reference_parse(raw: &str, lineno: usize, last_t: f64) -> Result<Option<(u64, u64)>, String> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let job: Job = serde_json::from_str(line)
        .map_err(|source| ServeError::TraceParse { line: lineno, source }.to_string())?;
    let err = if !(job.t.is_finite() && job.t >= 0.0) {
        ServeError::ArrivalTime { line: lineno, t: job.t }
    } else if job.t < last_t {
        ServeError::ArrivalOrder { line: lineno, t: job.t, last_t }
    } else if !(job.size > 0.0 && job.size.is_finite()) {
        ServeError::JobSize { line: lineno, size: job.size }
    } else {
        return Ok(Some((job.t.to_bits(), job.size.to_bits())));
    };
    Err(err.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn trace_line_scanner_matches_the_serde_reference(
        line in TraceLine,
        lineno in 1usize..1_000_000,
        last_t in (0usize..4).prop_map(|i| [0.0, -0.0, 0.5, 1e300][i]),
    ) {
        let got = parse_trace_line(&line, lineno, last_t)
            .map(|job| job.map(|j| (j.t.to_bits(), j.size.to_bits())))
            .map_err(|e| e.to_string());
        prop_assert_eq!(got, reference_parse(&line, lineno, last_t), "line {:?}", line);
    }
}
