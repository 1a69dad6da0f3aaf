//! Cross-crate integration tests for the REINFORCE and CEM baselines on
//! the real MFC-MDP environment (not just the toy control task): with a
//! tiny budget both must make measurable progress from the near-uniform
//! initialization, and their deployed deterministic policies must be
//! valid upper-level policies.

use mflb::core::mdp::{FixedRulePolicy, MeanField};
use mflb::core::{MeanFieldMdp, SystemConfig};
use mflb::policy::{rnd_rule, NeuralUpperPolicy};
use mflb::rl::{CemConfig, CemTrainer, MeanFieldEnv, ReinforceConfig, ReinforceTrainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_env() -> (SystemConfig, MeanFieldEnv<MeanField>) {
    let cfg = SystemConfig::paper().with_dt(5.0);
    let env = MeanFieldEnv::homogeneous(cfg.clone()).with_horizon(25);
    (cfg, env)
}

fn eval_policy(cfg: &SystemConfig, policy: &dyn mflb::core::UpperPolicy, seed: u64) -> f64 {
    let mdp = MeanFieldMdp::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    mdp.evaluate(policy, 25, 12, &mut rng).mean()
}

#[test]
fn reinforce_learns_on_the_mfc_mdp() {
    let (cfg, env) = small_env();
    let rf_cfg = ReinforceConfig {
        gamma: 0.9,
        lr: 2e-3,
        value_lr: 2e-3,
        episodes_per_iter: 12,
        hidden: vec![32, 32],
        initial_log_std: -0.5,
        ..ReinforceConfig::default()
    };
    let mut trainer = ReinforceTrainer::new(&env, rf_cfg, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let mut returns = Vec::new();
    // REINFORCE takes ONE gradient step per iteration, so the iteration
    // count (not the env-step count) is the budget that matters.
    for _ in 0..220 {
        returns.push(trainer.train_iteration(&mut rng).mean_episode_return);
    }
    let early: f64 = returns[..10].iter().sum::<f64>() / 10.0;
    let late: f64 = returns[returns.len() - 10..].iter().sum::<f64>() / 10.0;
    assert!(
        late > early + 0.5,
        "REINFORCE made no progress on the MFC MDP: early {early:.2}, late {late:.2}"
    );

    // The deployed deterministic policy is a working UpperPolicy that
    // clearly beats MF-RND.
    let policy = NeuralUpperPolicy::new(
        trainer.policy_net().clone(),
        cfg.num_states(),
        cfg.d,
        cfg.arrivals.num_levels(),
    );
    let v_learned = eval_policy(&cfg, &policy, 7);
    let rnd = FixedRulePolicy::new(rnd_rule(cfg.num_states(), cfg.d), "MF-RND");
    let v_rnd = eval_policy(&cfg, &rnd, 7);
    assert!(v_learned > v_rnd + 0.3, "learned {v_learned:.2} should beat MF-RND {v_rnd:.2}");
}

#[test]
fn cem_learns_on_the_mfc_mdp() {
    let (cfg, env) = small_env();
    let cem_cfg = CemConfig {
        population: 20,
        episodes_per_eval: 1,
        hidden: vec![16, 16],
        threads: 0,
        ..CemConfig::default()
    };
    let mut trainer = CemTrainer::new(&env, cem_cfg, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let mut mean_returns = Vec::new();
    for _ in 0..12 {
        mean_returns.push(trainer.train_iteration(&mut rng).mean_candidate_return);
    }
    let first = mean_returns[0];
    let best_late = mean_returns[6..].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best_late > first + 0.5,
        "CEM made no progress on the MFC MDP: first {first:.2}, best late {best_late:.2}"
    );

    let policy = NeuralUpperPolicy::new(
        trainer.policy_net(),
        cfg.num_states(),
        cfg.d,
        cfg.arrivals.num_levels(),
    );
    let v_learned = eval_policy(&cfg, &policy, 9);
    let rnd = FixedRulePolicy::new(rnd_rule(cfg.num_states(), cfg.d), "MF-RND");
    let v_rnd = eval_policy(&cfg, &rnd, 9);
    assert!(v_learned > v_rnd + 0.3, "learned {v_learned:.2} should beat MF-RND {v_rnd:.2}");
}
