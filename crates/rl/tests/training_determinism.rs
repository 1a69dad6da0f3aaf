//! Seed-pinned determinism of the episode-indexed PPO rollout scheme.
//!
//! Episodes draw all randomness from RNG streams pinned to their global
//! episode index and are merged in index order, so the worker count is a
//! pure throughput knob: training with 1 worker and with `k` workers must
//! produce **bit-identical** networks, and repeated runs at a fixed seed
//! must produce bit-identical checkpoints.

use mflb_core::SystemConfig;
use mflb_rl::{train_scenario, Env, MeanFieldEnv, PpoConfig, PpoTrainer, ToyControlEnv};
use mflb_sim::{EngineSpec, Scenario, ServiceLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_ppo(threads: usize) -> PpoConfig {
    PpoConfig {
        lr: 1e-3,
        train_batch_size: 128,
        minibatch_size: 32,
        num_epochs: 2,
        hidden: vec![8, 8],
        rollout_threads: threads,
        ..PpoConfig::paper()
    }
}

/// Trains `iters` iterations and returns the flat parameter vectors of
/// both networks plus the log-stds.
fn train_params(env: &dyn Env, threads: usize, seed: u64, iters: usize) -> Vec<f64> {
    let mut trainer = PpoTrainer::new(env, tiny_ppo(threads), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
    for _ in 0..iters {
        trainer.train_iteration(&mut rng);
    }
    let mut out = trainer.policy_net().params_vec();
    out.extend(trainer.value_net().params_vec());
    out.extend_from_slice(trainer.log_std());
    out
}

#[test]
fn one_worker_and_k_workers_produce_identical_nets_fixed_horizon() {
    // MeanFieldEnv has a fixed horizon, exercising the exact-demand dispatch.
    let mut config = SystemConfig::paper().with_dt(5.0);
    config.train_episode_len = 10;
    let env = MeanFieldEnv::homogeneous(config);
    let single = train_params(&env, 1, 3, 2);
    let multi = train_params(&env, 3, 3, 2);
    assert_eq!(single, multi, "worker count must not affect training");
}

#[test]
fn one_worker_and_k_workers_produce_identical_nets_dynamic_horizon() {
    // Hide the horizon to exercise the collect-until-full path, where
    // workers can overshoot and the deterministic prefix discards extras.
    struct NoHint(ToyControlEnv);
    impl Env for NoHint {
        fn obs_dim(&self) -> usize {
            self.0.obs_dim()
        }
        fn act_dim(&self) -> usize {
            self.0.act_dim()
        }
        fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
            self.0.reset(rng)
        }
        fn step(&mut self, action: &[f64], rng: &mut StdRng) -> mflb_rl::StepResult {
            self.0.step(action, rng)
        }
        fn boxed_clone(&self) -> Box<dyn Env> {
            Box::new(NoHint(self.0.clone()))
        }
        // horizon_hint deliberately left at the default None.
    }
    let env = NoHint(ToyControlEnv::new(7));
    let single = train_params(&env, 1, 11, 3);
    let multi = train_params(&env, 4, 11, 3);
    assert_eq!(single, multi, "dynamic-horizon collection must be worker-count-invariant");
}

#[test]
fn repeated_runs_at_fixed_seed_produce_identical_checkpoints() {
    let mut config = SystemConfig::paper().with_size(100, 10).with_dt(5.0);
    config.train_episode_len = 10;
    let scenario =
        Scenario::new(config, EngineSpec::Ph { service: ServiceLaw::Erlang { k: 2, rate: 2.0 } });
    let ppo = tiny_ppo(2);
    let a = train_scenario(&scenario, ppo.clone(), 2, 9, false).unwrap();
    let b = train_scenario(&scenario, ppo, 2, 9, false).unwrap();
    assert_eq!(
        a.checkpoint.to_json(),
        b.checkpoint.to_json(),
        "checkpoints must be bit-identical for a fixed (scenario, config, seed, worker count)"
    );
}

/// FNV-1a over the little-endian bytes of every checkpoint parameter:
/// policy net, value net, then `log_std`.
fn parameter_digest(trainer: &PpoTrainer) -> u64 {
    let mut params = trainer.policy_net().params_vec();
    params.extend(trainer.value_net().params_vec());
    params.extend_from_slice(trainer.log_std());
    params
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn quick_preset_parameters_match_the_pinned_digest_at_one_and_two_threads() {
    // The `mflb train --scale quick` network (2×32 tanh, 72 Gaussian
    // action dims on the paper's mean-field env) on a shortened batch:
    // 520 = 4 × 125 + 20 leaves a short final minibatch in every epoch.
    let mut config = SystemConfig::paper().with_dt(5.0);
    config.train_episode_len = 40;
    let env = MeanFieldEnv::homogeneous(config);
    assert_eq!(env.act_dim(), 72);
    for threads in [1, 2] {
        let ppo = PpoConfig {
            gamma: 0.9,
            gae_lambda: 0.9,
            lr: 1e-3,
            train_batch_size: 520,
            minibatch_size: 125,
            num_epochs: 3,
            kl_target: 0.02,
            hidden: vec![32, 32],
            initial_log_std: -0.5,
            rollout_threads: threads,
            ..PpoConfig::paper()
        };
        let mut trainer = PpoTrainer::new(&env, ppo, 21);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..3 {
            trainer.train_iteration(&mut rng);
        }
        assert_eq!(
            parameter_digest(&trainer),
            0x39ab_415b_7166_7790,
            "quick-preset parameters moved at {threads} rollout thread(s)"
        );
    }
}
