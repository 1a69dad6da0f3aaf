//! Seed-pinned regression tests for all five ported engines (plus the new
//! job-level engine): one episode under a fixed `run_rng` seed must
//! reproduce the exact drop totals captured from the **pre-refactor**
//! build (PR 1 tree, bespoke per-engine episode loops), proving the
//! unified stateful-`Engine` port changed no distributional behaviour —
//! the RNG streams are bit-identical.
//!
//! If an intentional behaviour change ever breaks these, re-capture the
//! constants (print `total_drops.to_bits()`) and say so in the PR.

use mflb::core::mdp::{FixedRulePolicy, Integrand, MeanField};
use mflb::core::{
    CrashFaults, Exponential, FaultPlan, JobSizeLaw, MeanFieldMdp, ObservationFaults,
    OverloadWindow, StateDist, StragglerWindow, SystemConfig, Topology,
};
use mflb::dp::{ActionLibrary, DpConfig, DpSolution};
use mflb::linalg::stats::Summary;
use mflb::policy::{jsq_rule, sed_rule};
use mflb::queue::{ArrivalProcess, PhaseType};
use mflb::sim::{
    run_episode, run_rng, serve, AggregateEngine, Engine, EngineSpec, EventEngine, FifoEngine,
    GraphEngine, JobSource, PerClientEngine, RateClasses, Scenario, ServeOptions, ServiceLaw,
    StaggeredEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// High constant load makes drops frequent, so the pinned totals are
/// sensitive to any perturbation of the sampling order.
fn hot(mut c: SystemConfig) -> SystemConfig {
    c.arrivals = ArrivalProcess::constant(0.95);
    c
}

fn jsq() -> FixedRulePolicy {
    FixedRulePolicy::new(jsq_rule(6, 2), "JSQ(2)")
}

#[test]
fn per_client_engine_reproduces_pre_refactor_drops() {
    let engine = PerClientEngine::new(hot(SystemConfig::paper().with_size(400, 20).with_dt(2.0)));
    let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 1)).total_drops;
    assert_eq!(drops.to_bits(), 0x4002cccccccccccd, "got {drops}");
}

#[test]
fn aggregate_engine_reproduces_pre_refactor_drops() {
    let engine = AggregateEngine::new(hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0)));
    let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 2)).total_drops;
    assert_eq!(drops.to_bits(), 0x4014666666666666, "got {drops}");
}

#[test]
fn hetero_engine_reproduces_pre_refactor_drops() {
    // Re-pinned when the heterogeneous pool moved from the per-client
    // client loop onto the O(M) hierarchical multinomial over composite
    // (length, class) states and started drawing its initial lengths from
    // ν₀: a new stream in the same law, as the chi-square test
    // `composite_count_marginals_match_per_client_oracle` (mflb-sim
    // aggregate unit tests) checks.
    let mut rates = vec![1.6; 10];
    rates.extend([0.4; 10]);
    let engine = AggregateEngine::with_service(
        hot(SystemConfig::paper().with_size(800, 20).with_dt(2.0)),
        RateClasses::new(&rates),
    );
    let sed = FixedRulePolicy::new(sed_rule(6, 2, engine.service().class_rates()), "SED(2)");
    let drops = run_episode(&engine, &sed, 20, &mut run_rng(0xC0FFEE, 3)).total_drops;
    assert_eq!(drops.to_bits(), 0x400b99999999999a, "got {drops}");
}

#[test]
fn staggered_engine_reproduces_pre_refactor_drops() {
    let engine =
        StaggeredEngine::new(hot(SystemConfig::paper().with_size(500, 10).with_dt(2.0)), 3);
    let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 4)).total_drops;
    assert_eq!(drops.to_bits(), 0x4014ccccccccccce, "got {drops}");
}

#[test]
fn ph_engine_reproduces_pre_refactor_drops() {
    let engine = AggregateEngine::with_service(
        hot(SystemConfig::paper().with_size(400, 20).with_dt(3.0)),
        PhaseType::fit_mean_scv(1.0, 2.0),
    );
    let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 5)).total_drops;
    assert_eq!(drops.to_bits(), 0x4020e66666666666, "got {drops}");
}

#[test]
fn full_mesh_graph_engine_reproduces_the_aggregate_pinned_drops() {
    // The graph engine's degenerate full-mesh case must follow the
    // aggregate engine's exact RNG call sequence — same pinned constant as
    // `aggregate_engine_reproduces_pre_refactor_drops`, same seed.
    let cfg = hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0));
    let engine = GraphEngine::new(cfg, Topology::FullMesh);
    let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 2)).total_drops;
    assert_eq!(drops.to_bits(), 0x4014666666666666, "got {drops}");
}

#[test]
fn sharded_ring_graph_engine_reproduces_its_introduction_drops() {
    // Pinned at the PR that introduced sharded epoch stepping: the
    // derived-stream scheme (dyadic home counts, per-dispatcher assignment
    // streams, per-queue service streams) is a regression contract of its
    // own, independent of the shard size and worker count actually used.
    let cfg = hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0));
    let base = GraphEngine::new(cfg, Topology::Ring { radius: 2 });
    for (shard, workers) in [(1 << 20, 1), (7, 3)] {
        let engine = base.clone().with_shard_size(shard).with_workers(workers);
        let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 6)).total_drops;
        assert_eq!(drops.to_bits(), 0x4013333333333332, "got {drops} ({shard}, {workers})");
    }
}

#[test]
fn event_engine_reproduces_its_introduction_drops() {
    // Pinned at the PR that introduced the continuous-time event engine:
    // all per-job randomness (interarrival gaps, sizes, routing) flows
    // through counter-keyed streams, so heap refactors cannot perturb
    // this value. One constant per job-size family.
    let cfg = hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0));
    let exp = EventEngine::new(cfg.clone(), JobSizeLaw::Exponential { rate: 1.0 });
    let drops = run_episode(&exp, &jsq(), 20, &mut run_rng(0xC0FFEE, 7)).total_drops;
    assert_eq!(drops.to_bits(), 0x4012eeeeeeeeeeee, "got {drops}");

    let bp = EventEngine::new(cfg, JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 });
    let drops = run_episode(&bp, &jsq(), 20, &mut run_rng(0xC0FFEE, 7)).total_drops;
    assert_eq!(drops.to_bits(), 0x3fe4444444444444, "got {drops}");
}

#[test]
fn serve_run_reproduces_its_introduction_report() {
    // The serve loop is a deterministic function of (engine, policy,
    // source, seed): a synthetic heavy-tailed run is pinned bit-exact on
    // its accumulated statistics, not just its counters.
    let cfg = hot(SystemConfig::paper().with_size(400, 20).with_dt(2.0));
    let engine = EventEngine::new(cfg, JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 });
    let opts = ServeOptions { duration: Some(30.0), seed: 9, ..Default::default() };
    let report = serve(&engine, &jsq(), "JSQ(2)", &JobSource::Synthetic, &opts, |_| {}).unwrap();
    assert_eq!(report.intervals, 15);
    assert_eq!(report.jobs_arrived, 579);
    assert_eq!(report.mean_sojourn.to_bits(), 0x3ff116cff1b7b07b, "got {}", report.mean_sojourn);
    assert_eq!(report.drop_fraction.to_bits(), 0x3f7c4c0c61456a8e, "got {}", report.drop_fraction);
}

/// Episode drop totals of `runs` seeded JSQ(2) episodes of 15 epochs.
fn drop_summary<E: Engine>(engine: &E, seed: u64, runs: u64) -> Summary {
    let mut drops = Summary::new();
    for r in 0..runs {
        drops.push(run_episode(engine, &jsq(), 15, &mut run_rng(seed, r)).total_drops);
    }
    drops
}

#[test]
fn event_engine_is_the_large_population_limit_of_the_fifo_engine() {
    // Both engines run M/M/1/B queues, but `FifoEngine` routes whole
    // clients: each of the N clients sends its whole epoch's traffic to
    // one queue, so at small N/M a few clients' choices herd the load.
    // `EventEngine` routes every job on its own, the N/M → ∞ limit (it
    // never reads N). Event drops must sit below FIFO drops at N = M and
    // at N = 3M, with a gap that shrinks as N/M grows. Each comparison
    // must clear four standard errors.
    let runs = 40;
    let cfg = |n: u64| hot(SystemConfig::paper().with_size(n, 30).with_dt(3.0));
    let event =
        drop_summary(&EventEngine::new(cfg(30), JobSizeLaw::Exponential { rate: 1.0 }), 61, runs);
    let fifo_m = drop_summary(&FifoEngine::new(cfg(30)), 62, runs);
    let fifo_3m = drop_summary(&FifoEngine::new(cfg(90)), 63, runs);
    let se = |a: &Summary, b: &Summary| (a.std_err().powi(2) + b.std_err().powi(2)).sqrt();
    let (gap_m, gap_3m) = (fifo_m.mean() - event.mean(), fifo_3m.mean() - event.mean());
    assert!(
        gap_m > 4.0 * se(&fifo_m, &event),
        "N = M: event {} vs FIFO {}",
        event.mean(),
        fifo_m.mean()
    );
    assert!(
        gap_3m > 4.0 * se(&fifo_3m, &event),
        "N = 3M: event {} vs FIFO {}",
        event.mean(),
        fifo_3m.mean()
    );
    assert!(
        gap_m - gap_3m > 4.0 * se(&fifo_m, &fifo_3m),
        "the gap must shrink with N/M: {gap_m} at N = M vs {gap_3m} at N = 3M"
    );
}

#[test]
fn scenario_built_engines_match_the_pinned_values_too() {
    // The scenario layer must construct engines with identical behaviour
    // to direct construction — spot-checked against two pinned values.
    let agg = Scenario::new(
        hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0)),
        EngineSpec::Aggregate,
    )
    .build()
    .unwrap();
    let drops = run_episode(&agg, &jsq(), 20, &mut run_rng(0xC0FFEE, 2)).total_drops;
    assert_eq!(drops.to_bits(), 0x4014666666666666);

    let ph = Scenario::new(
        hot(SystemConfig::paper().with_size(400, 20).with_dt(3.0)),
        EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv: 2.0 } },
    )
    .build()
    .unwrap();
    let drops = run_episode(&ph, &jsq(), 20, &mut run_rng(0xC0FFEE, 5)).total_drops;
    assert_eq!(drops.to_bits(), 0x4020e66666666666);

    let event = Scenario::new(
        hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0)),
        EngineSpec::Event { job_size: JobSizeLaw::Exponential { rate: 1.0 } },
    )
    .build()
    .unwrap();
    let drops = run_episode(&event, &jsq(), 20, &mut run_rng(0xC0FFEE, 7)).total_drops;
    assert_eq!(drops.to_bits(), 0x4012eeeeeeeeeeee);
}

/// The fault plan of the pinned faulted runs: every fault family active
/// at once, so the pinned constants cover the crash renewal streams, the
/// straggler/overload window arithmetic and the observation-drop stream.
/// The FIFO and graph engines route on live lengths, so for them the
/// observation channel is inert.
fn regression_fault_plan() -> FaultPlan {
    FaultPlan {
        crashes: Some(CrashFaults { mttf: 20.0, mttr: 5.0 }),
        stragglers: vec![StragglerWindow { start: 9.0, end: 30.0, factor: 0.5, queues: None }],
        observation: Some(ObservationFaults { drop_prob: 0.3 }),
        overloads: vec![OverloadWindow { start: 30.0, end: 48.0, factor: 1.4 }],
    }
}

#[test]
fn faulted_event_and_fifo_engines_reproduce_their_introduction_drops() {
    // Pinned at the PR that introduced deterministic fault injection:
    // all fault randomness flows through `(epoch_base, salt, index)`
    // counter streams, so these values are a regression contract for the
    // crash renewal sampling order on top of the engines' own streams.
    // The event value includes the overload window, which the event
    // engine scales its Poisson stream by; that scaling is tested on its
    // own by `overload_windows_scale_event_and_serve_arrivals`.
    let cfg = hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0));
    let event = EventEngine::new(cfg.clone(), JobSizeLaw::Exponential { rate: 1.0 })
        .with_faults(regression_fault_plan());
    let drops = run_episode(&event, &jsq(), 20, &mut run_rng(0xC0FFEE, 7)).total_drops;
    assert_eq!(drops.to_bits(), 0x403808888888888a, "got {drops}");

    let fifo = FifoEngine::new(cfg).with_faults(regression_fault_plan());
    let drops = run_episode(&fifo, &jsq(), 20, &mut run_rng(0xC0FFEE, 8)).total_drops;
    assert_eq!(drops.to_bits(), 0x403499999999999a, "got {drops}");
}

#[test]
fn faulted_sharded_graph_engine_is_shard_and_worker_independent() {
    // The faulted epoch's service multipliers are computed once, serially,
    // from the counter streams before the parallel service pass — so the
    // pinned value must be reproduced by any (shard size, worker count).
    let cfg = hot(SystemConfig::paper().with_size(900, 30).with_dt(3.0));
    let base =
        GraphEngine::new(cfg, Topology::Ring { radius: 2 }).with_faults(regression_fault_plan());
    for (shard, workers) in [(1 << 20, 1), (7, 3)] {
        let engine = base.clone().with_shard_size(shard).with_workers(workers);
        let drops = run_episode(&engine, &jsq(), 20, &mut run_rng(0xC0FFEE, 6)).total_drops;
        assert_eq!(drops.to_bits(), 0x4039a22222222223, "got {drops} ({shard}, {workers})");
    }
}

#[test]
fn overload_windows_scale_event_and_serve_arrivals() {
    // An overload window multiplies the arrival rate of every engine that
    // generates its own arrivals: the event engine's Poisson stream and
    // the synthetic `serve` feed alike. A threefold burst over the whole
    // run must show up in both.
    let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
    let plan = FaultPlan {
        overloads: vec![OverloadWindow { start: 0.0, end: 60.0, factor: 3.0 }],
        ..FaultPlan::default()
    };
    let calm = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
    let burst = calm.clone().with_faults(plan);

    let drops = |e: &EventEngine| run_episode(e, &jsq(), 20, &mut run_rng(5, 0)).total_drops;
    let (calm_drops, burst_drops) = (drops(&calm), drops(&burst));
    assert!(
        burst_drops > 5.0 * calm_drops.max(1.0),
        "a 3x overload must flood the queues: {burst_drops} vs {calm_drops} drops"
    );

    let opts = ServeOptions { duration: Some(60.0), seed: 5, ..Default::default() };
    let arrived = |e: &EventEngine| {
        serve(e, &jsq(), "JSQ(2)", &JobSource::Synthetic, &opts, |_| {}).unwrap().jobs_arrived
    };
    let (calm_jobs, burst_jobs) = (arrived(&calm), arrived(&burst));
    assert!(
        burst_jobs > 2 * calm_jobs,
        "a 3x overload must triple the synthetic stream: {burst_jobs} vs {calm_jobs} jobs"
    );
}

// ---- Mean-field episode pins -------------------------------------------
//
// The mean-field rollouts are deterministic given their seed (or their
// conditioned arrival path), so each is pinned on the exact bits of its
// undiscounted return.

/// A fixed arrival-level path over the paper's two levels.
fn level_path() -> Vec<usize> {
    (0..24).map(|t| (t / 5) % 2).collect()
}

#[test]
fn mean_field_rollouts_reproduce_their_pinned_returns() {
    let mdp = MeanFieldMdp::new(SystemConfig::paper().with_dt(5.0));
    let sampled = mdp.rollout(&jsq(), 24, &mut StdRng::seed_from_u64(0xC0FFEE)).total_return;
    assert_eq!(sampled.to_bits(), 0xc01b1ba33793e595, "got {:#x}", sampled.to_bits());
    let conditioned = mdp.rollout_conditioned(&jsq(), &level_path()).total_return;
    assert_eq!(conditioned.to_bits(), 0xc0186b7370e684db, "got {:#x}", conditioned.to_bits());
}

#[test]
fn phase_type_mean_field_reproduces_its_pinned_return() {
    let cfg = SystemConfig::paper().with_dt(5.0);
    let closure = MeanField::new(&cfg, PhaseType::fit_mean_scv(1.0, 2.0), Integrand::FullMesh);
    let mdp = MeanFieldMdp::with_closure(cfg, closure);
    let ret = mdp.rollout_conditioned(&jsq(), &level_path()).total_return;
    assert_eq!(ret.to_bits(), 0xc01bb0b72da6ad72, "got {:#x}", ret.to_bits());
}

#[test]
fn hetero_mean_field_reproduces_its_pinned_return() {
    let sed = FixedRulePolicy::new(sed_rule(6, 2, &[1.6, 0.4]), "SED(2)");
    let mut cfg = SystemConfig::paper().with_dt(5.0);
    cfg.arrivals = ArrivalProcess::constant(0.9);
    let closure = MeanField::new(&cfg, RateClasses::new(&[1.6, 0.4]), Integrand::FullMesh);
    let mdp = MeanFieldMdp::with_closure(cfg, closure);
    let ret = mdp.rollout_conditioned(&sed, &[0; 24]).total_return;
    assert_eq!(ret.to_bits(), 0xc025eebb9e83458c, "got {:#x}", ret.to_bits());
}

#[test]
fn graph_mean_field_reproduces_its_pinned_return() {
    // One episode of the degree-indexed closure at k = 3, the JSQ row of
    // the locality figure.
    let cfg = SystemConfig::paper().with_dt(5.0);
    let closure = MeanField::new(&cfg, Exponential, Integrand::Graph { k: 3 });
    let mdp = MeanFieldMdp::with_closure(cfg, closure);
    let ret = mdp.rollout(&jsq(), 24, &mut StdRng::seed_from_u64(0xC0FFEE)).total_return;
    assert_eq!(ret.to_bits(), 0xc018e6d4c0c42c50, "got {:#x}", ret.to_bits());
}

#[test]
fn dp_q_values_at_the_empty_vertex_reproduce_their_pins() {
    let config = SystemConfig::paper().with_dt(5.0);
    let dp = DpConfig { grid_resolution: 3, tol: 1e-9, max_sweeps: 10_000, threads: 1 };
    let actions = ActionLibrary::softmin_default(config.num_states(), config.d);
    let sol = DpSolution::solve(&config, actions, &dp);
    let q = sol.q_values(&StateDist::all_empty(config.buffer), 0);
    let bits: Vec<u64> = q.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, vec![0xc03e335affb8fbf4; 10], "got {bits:#x?}");
    // From the empty vertex every rule routes onto empty queues, so the
    // Q-values tie; a spread-out state tells the actions apart.
    let q = sol.q_values(&StateDist::uniform(config.buffer), 1);
    let bits: Vec<u64> = q.iter().map(|v| v.to_bits()).collect();
    let pinned = [
        0xc03e332ab0b19343,
        0xc03e1ea988fb49f1,
        0xc03e14c4c61caba9,
        0xc03e0f4458d8d718,
        0xc03e0dd9ea6deca4,
        0xc03e0d91b65684c5,
        0xc03e0d8973264d7d,
        0xc03e0d894d33439e,
        0xc03e0d894d30019e,
        0xc03e0d894d30019e,
    ];
    assert_eq!(bits, pinned, "got {bits:#x?}");
}
