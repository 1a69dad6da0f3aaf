//! End-to-end learning-pipeline test: PPO on the MFC MDP improves over its
//! initial (≈ uniform) policy, and the resulting checkpoint drives the
//! finite system identically after a save/load round-trip.

use mflb::core::mdp::FixedRulePolicy;
use mflb::core::{MeanFieldMdp, SystemConfig};
use mflb::policy::{rnd_rule, NeuralUpperPolicy};
use mflb::rl::{train_scenario, Env, MeanFieldEnv, PpoConfig, PpoTrainer, TrainingCheckpoint};
use mflb::sim::{monte_carlo, AggregateEngine, EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_ppo() -> PpoConfig {
    // Variance-reduced quick settings (as in `mflb_bench::training`): the decision rule
    // determines the epoch's drops immediately, so a short credit horizon
    // preserves the optimum while slashing advantage noise.
    PpoConfig {
        gamma: 0.9,
        gae_lambda: 0.9,
        lr: 1e-3,
        train_batch_size: 1500,
        minibatch_size: 300,
        num_epochs: 10,
        kl_target: 0.02,
        hidden: vec![32, 32],
        initial_log_std: -0.5,
        rollout_threads: 4,
        ..PpoConfig::paper()
    }
}

#[test]
fn ppo_improves_over_initial_policy_on_mfc_mdp() {
    let mut config = SystemConfig::paper().with_dt(5.0);
    config.train_episode_len = 60; // short episodes for a fast test
    let env = MeanFieldEnv::homogeneous(config.clone());
    let mut trainer = PpoTrainer::new(&env, quick_ppo(), 5);
    let mut rng = StdRng::seed_from_u64(6);

    let mdp = MeanFieldMdp::new(config.clone());
    let as_policy = |t: &PpoTrainer| {
        NeuralUpperPolicy::new(
            t.policy_net().clone(),
            config.num_states(),
            config.d,
            config.arrivals.num_levels(),
        )
    };
    let before = mdp.evaluate(&as_policy(&trainer), 60, 20, &mut rng).mean();
    for _ in 0..20 {
        trainer.train_iteration(&mut rng);
    }
    let after = mdp.evaluate(&as_policy(&trainer), 60, 20, &mut rng).mean();
    assert!(
        after > before + 0.1,
        "PPO failed to improve deterministic return: {before} -> {after}"
    );

    // The improved policy must also beat blind RND.
    let rnd = FixedRulePolicy::new(rnd_rule(config.num_states(), config.d), "RND");
    let rnd_value = mdp.evaluate(&rnd, 60, 20, &mut rng).mean();
    assert!(after > rnd_value, "learned policy ({after}) must beat RND ({rnd_value})");
}

#[test]
fn checkpoint_roundtrip_drives_identical_finite_episodes() {
    let config = SystemConfig::paper().with_dt(3.0).with_size(400, 20);
    let scenario = Scenario::new(config.clone(), EngineSpec::Aggregate);
    let result = train_scenario(&scenario, quick_ppo(), 0, 9, false).unwrap();

    let path = std::env::temp_dir().join("mflb_itest_ckpt.json");
    result.checkpoint.save(&path).unwrap();
    let file = path.to_str().unwrap();
    let reloaded = TrainingCheckpoint::load(file).unwrap().fit(file, &scenario).unwrap();
    std::fs::remove_file(&path).ok();

    let engine = AggregateEngine::new(config.clone());
    let a = monte_carlo(&engine, &result.policy, 20, 6, 77, 0);
    let b = monte_carlo(&engine, &reloaded, 20, 6, 77, 0);
    assert_eq!(a.per_run, b.per_run, "reloaded checkpoint must act identically");
}

#[test]
fn mfc_env_observation_matches_policy_expectation() {
    // The env's observation layout and the policy's expectation are the
    // same canonical encoder: wiring an env obs through the policy network
    // must succeed with the right dims.
    let config = SystemConfig::paper();
    let mut env = MeanFieldEnv::homogeneous(config.clone());
    let mut rng = StdRng::seed_from_u64(10);
    let obs = env.reset(&mut rng);
    assert_eq!(obs.len(), env.obs_dim());
    let trainer = PpoTrainer::new(&env, quick_ppo(), 11);
    let action = trainer.deterministic_action(&obs);
    assert_eq!(action.len(), env.act_dim());
    let rule = env.decode_action(&action);
    assert_eq!(rule.num_rows(), config.num_obs_tuples());
}
