//! Property tests for the batched decision-epoch inference API:
//! [`UpperPolicy::decide_batch`] must agree element-wise with sequential
//! [`UpperPolicy::decide`] for **every** policy tier — fixed rules (the
//! trait's default loop), the neural policy in all four inference
//! configurations (f64 bit-compat, fast tanh, f32, f32 + fast tanh) and
//! the distilled tabular policy — on arbitrary simplex observations and
//! on observations produced by a fault-injected finite engine.
//!
//! The test at the bottom is the f32 serving-tier eval gate:
//! a freshly trained checkpoint evaluated under `--precision f32` must
//! land within a small tolerance of the f64 reference.

use mflb::core::mdp::{
    action_dim, observation_dim, FixedRulePolicy, ObservationBatch, UpperPolicy,
};
use mflb::core::{CrashFaults, DecisionRule, FaultPlan, JobSizeLaw, StateDist, SystemConfig};
use mflb::dp::SimplexGrid;
use mflb::nn::{Activation, Mlp};
use mflb::policy::{
    jsq_rule, rnd_rule, softmin_rule, InferenceConfig, NeuralUpperPolicy, TanhMode,
};
use mflb::rl::{DistilledCheckpoint, TabularPolicy, DISTILLED_FORMAT_VERSION};
use mflb::sim::episode::Engine;
use mflb::sim::{EngineSpec, Scenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper geometry: buffer 5 → 6 length states, 2 arrival levels, d = 2.
const ZS: usize = 6;
const LEVELS: usize = 2;
const D: usize = 2;

/// Strategy: a probability distribution over the `ZS` length states.
fn dist_strategy() -> impl Strategy<Value = StateDist> {
    proptest::collection::vec(0.01f64..1.0, ZS).prop_map(|raw| {
        let total: f64 = raw.iter().sum();
        StateDist::new(raw.into_iter().map(|v| v / total).collect())
    })
}

/// Strategy: a small batch of (distribution, λ level) observations.
fn obs_strategy() -> impl Strategy<Value = Vec<(StateDist, usize)>> {
    proptest::collection::vec((dist_strategy(), 0..LEVELS), 1..8)
}

/// A fixed random network in the given inference configuration.
fn neural(cfg: InferenceConfig) -> NeuralUpperPolicy {
    let mut rng = StdRng::seed_from_u64(7);
    let obs = observation_dim(ZS, LEVELS);
    let act = action_dim(ZS, D);
    let net = Mlp::new(&[obs, 16, act], Activation::Tanh, &mut rng);
    NeuralUpperPolicy::new(net, ZS, D, LEVELS).with_inference(cfg)
}

/// Every neural inference configuration, bit-compat first.
fn all_inference_configs() -> [InferenceConfig; 4] {
    [
        InferenceConfig { tanh_mode: TanhMode::BitCompat, f32_weights: false },
        InferenceConfig { tanh_mode: TanhMode::Fast, f32_weights: false },
        InferenceConfig { tanh_mode: TanhMode::BitCompat, f32_weights: true },
        InferenceConfig { tanh_mode: TanhMode::Fast, f32_weights: true },
    ]
}

/// A consistent hand-built distilled checkpoint → tabular policy.
fn tabular_fixture(config: &SystemConfig) -> TabularPolicy {
    let grid_resolution = 8;
    let points = SimplexGrid::new(ZS, grid_resolution).num_points();
    DistilledCheckpoint {
        format_version: DISTILLED_FORMAT_VERSION,
        scenario: Scenario::new(config.clone(), EngineSpec::Aggregate),
        grid_resolution,
        action_names: vec!["JSQ".into(), "SOFT(1)".into(), "SOFT(4)".into()],
        action_rules: vec![jsq_rule(ZS, D), softmin_rule(ZS, D, 1.0), softmin_rule(ZS, D, 4.0)],
        table: (0..points * LEVELS).map(|i| (i % 3) as u32).collect(),
        nn_fraction: 1.0,
        polish_slack: 0.005,
        source_steps: 0,
        source_seed: 0,
    }
    .into_policy()
    .expect("fixture table is consistent")
}

/// Asserts batched == sequential, byte for byte, on the given observations.
fn assert_batch_matches(
    policy: &dyn UpperPolicy,
    obs: &[(StateDist, usize)],
    config: &SystemConfig,
) {
    let mut batch = ObservationBatch::new(ZS, LEVELS);
    for (dist, idx) in obs {
        batch.push(dist.clone(), *idx, config.arrivals.level_rate(*idx));
    }
    let mut out = vec![DecisionRule::uniform(1, 1); obs.len()];
    policy.decide_batch(&batch, &mut out);
    for (i, (dist, idx)) in obs.iter().enumerate() {
        let seq = policy.decide(dist, *idx, config.arrivals.level_rate(*idx));
        assert_eq!(
            seq.as_slice(),
            out[i].as_slice(),
            "policy '{}' row {i}: decide_batch diverged from sequential decide",
            policy.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Element-wise batched/sequential agreement for every policy tier on
    /// arbitrary simplex observations.
    #[test]
    fn decide_batch_matches_decide_for_every_tier(obs in obs_strategy()) {
        let config = SystemConfig::paper().with_m_squared(10);
        let fixed = FixedRulePolicy::new(softmin_rule(ZS, D, 2.0), "SOFT(2)");
        assert_batch_matches(&fixed, &obs, &config);
        for cfg in all_inference_configs() {
            assert_batch_matches(&neural(cfg), &obs, &config);
        }
        assert_batch_matches(&tabular_fixture(&config), &obs, &config);
    }

    /// The same agreement on observations produced by a **fault-injected**
    /// event engine: crashes reshape the empirical distribution the policy
    /// sees, and the batched path must still match exactly.
    #[test]
    fn decide_batch_matches_decide_under_fault_plan(seed in 0u64..200) {
        let config = SystemConfig::paper().with_m_squared(10).with_dt(2.0);
        let plan = FaultPlan {
            crashes: Some(CrashFaults { mttf: 8.0, mttr: 4.0 }),
            ..FaultPlan::default()
        };
        let scenario = Scenario::new(
            config.clone(),
            EngineSpec::Event { job_size: JobSizeLaw::Exponential { rate: 1.0 } },
        )
        .with_faults(plan);
        let engine = scenario.build().expect("faulted scenario builds");

        // Drive the faulted engine with a fixed rule and harvest the
        // observations the upper policy would actually see.
        let driver = FixedRulePolicy::new(rnd_rule(ZS, D), "RND");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = engine.init_state(&mut rng);
        let mut lambda_idx = config.arrivals.sample_initial(&mut rng);
        let mut obs = Vec::new();
        for _ in 0..12 {
            let lambda = config.arrivals.level_rate(lambda_idx);
            let dist = engine.empirical(&state);
            obs.push((dist.clone(), lambda_idx));
            let rule = driver.decide(&dist, lambda_idx, lambda);
            engine.step(&mut state, &rule, lambda, &mut rng);
            lambda_idx = config.arrivals.step(lambda_idx, &mut rng);
        }

        for cfg in all_inference_configs() {
            assert_batch_matches(&neural(cfg), &obs, &config);
        }
        assert_batch_matches(&tabular_fixture(&config), &obs, &config);
    }
}

/// The f32 serving-tier eval gate (acceptance criterion of the batched
/// inference PR): a trained checkpoint evaluated with
/// `--precision f32` must reproduce the f64 reference drops within the
/// joint 95% confidence bands of the two Monte-Carlo estimates (with a
/// 2% relative floor).
#[test]
fn f32_eval_matches_f64_within_gate() {
    use mflb::rl::{evaluate_checkpoint_configured, train_scenario, PpoConfig};

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/aggregate.json");
    let text = std::fs::read_to_string(&path).expect("aggregate scenario file");
    let scenario = Scenario::from_json(&text).expect("aggregate scenario parses");
    let ppo = PpoConfig {
        train_batch_size: 2000,
        minibatch_size: 250,
        num_epochs: 10,
        hidden: vec![32, 32],
        rollout_threads: 2,
        ..PpoConfig::paper()
    };
    let result = train_scenario(&scenario, ppo, 10, 1, false).expect("quick training");
    let ckpt = &result.checkpoint;

    let f64_report =
        evaluate_checkpoint_configured(ckpt, &scenario, &[], 20, 1, 0, None, Default::default())
            .expect("f64 eval");
    let f32_report = evaluate_checkpoint_configured(
        ckpt,
        &scenario,
        &[],
        20,
        1,
        0,
        None,
        InferenceConfig { tanh_mode: TanhMode::BitCompat, f32_weights: true },
    )
    .expect("f32 eval");

    let row64 = f64_report.rows.iter().find(|r| r.policy == "MF (learned)").expect("f64 row");
    let row32 = f32_report.rows.iter().find(|r| r.policy == "MF (learned)").expect("f32 row");
    let (d64, d32) = (row64.mean_drops, row32.mean_drops);
    // The f32 logits differ from f64 by ~1e-7, which is enough to flip
    // individual multinomial draws and decorrelate whole trajectories in
    // the chaotic finite system — so the gate is statistical: the two
    // estimates must agree within their joint 95% confidence bands (with
    // a 2% relative floor for very tight bands).
    let tol = (row64.ci95 + row32.ci95).max(0.02 * d64).max(0.05);
    println!("f64 {d64:.4} vs f32 {d32:.4} drops/queue (gate ±{tol:.4})");
    assert!(
        (d32 - d64).abs() <= tol,
        "f32 inference drifted past the gate: f64 {d64:.4} vs f32 {d32:.4} (tol {tol:.4})"
    );
}
