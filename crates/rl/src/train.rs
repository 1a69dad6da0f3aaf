//! The scenario-driven training driver: `Scenario → PPO → checkpoint`.
//!
//! This is the single entry point behind `mflb train` (whose `--init`
//! warm start is [`train_scenario_from`]), the `fig3_training` bench
//! binary and the examples. It builds the mean-field environment the
//! scenario selects ([`crate::scenario_env::build_env`]), runs PPO with
//! parallel episode-indexed rollouts, and packages the result as a
//! versioned [`TrainingCheckpoint`] plus the deployable deterministic
//! policy.
//!
//! For a fixed `(scenario, ppo, iterations, seed)` the produced checkpoint
//! is bit-identical across runs and worker counts (see the determinism
//! notes in [`crate::ppo`]).

use crate::checkpoint::{CurvePoint, TrainingCheckpoint, CHECKPOINT_FORMAT_VERSION};
use crate::ppo::{PpoConfig, PpoTrainer};
use crate::scenario_env::{build_env, PolicyShape};
use mflb_nn::Mlp;
use mflb_policy::NeuralUpperPolicy;
use mflb_sim::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything a finished training run produces.
pub struct TrainResult {
    /// The versioned artifact (save with [`TrainingCheckpoint::save`]).
    pub checkpoint: TrainingCheckpoint,
    /// The deployable deterministic policy wrapped around the trained net.
    pub policy: NeuralUpperPolicy,
}

/// Trains a policy for a scenario with PPO.
///
/// Equivalent to [`train_scenario_from`] without a warm start.
pub fn train_scenario(
    scenario: &Scenario,
    ppo: PpoConfig,
    iterations: usize,
    seed: u64,
    verbose: bool,
) -> Result<TrainResult, String> {
    train_scenario_from(scenario, ppo, iterations, seed, verbose, None)
}

/// Trains a policy for a scenario with PPO, optionally warm-starting the
/// policy network from an existing checkpoint's network (which must have
/// the shape the scenario implies).
pub fn train_scenario_from(
    scenario: &Scenario,
    ppo: PpoConfig,
    iterations: usize,
    seed: u64,
    verbose: bool,
    init: Option<&Mlp>,
) -> Result<TrainResult, String> {
    // A rollout batch is built from whole episodes restarted at ν₀; with a
    // training horizon longer than the batch, the epochs beyond the batch
    // boundary would never be visited (silent prefix bias, empty curve).
    // Refuse the misconfiguration instead.
    if scenario.config.train_episode_len > ppo.train_batch_size {
        return Err(format!(
            "train_episode_len ({}) exceeds train_batch_size ({}): episodes would be \
             truncated every iteration and later epochs never sampled; raise the batch \
             size or shorten the training horizon",
            scenario.config.train_episode_len, ppo.train_batch_size
        ));
    }
    let env = build_env(scenario)?;
    let shape = PolicyShape::for_scenario(scenario);
    let mut trainer = PpoTrainer::new(env.as_ref(), ppo.clone(), seed);
    if let Some(net) = init {
        if net.input_dim() != shape.obs_dim() || net.output_dim() != shape.act_dim() {
            return Err(format!(
                "warm-start network has shape {} -> {}, scenario needs {} -> {}",
                net.input_dim(),
                net.output_dim(),
                shape.obs_dim(),
                shape.act_dim()
            ));
        }
        let want = trainer.policy_net().num_params();
        if net.num_params() != want {
            return Err(format!(
                "warm-start network has {} parameters, hidden layers {:?} need {want}",
                net.num_params(),
                ppo.hidden
            ));
        }
        trainer.load_policy_net(net);
        if verbose {
            println!("warm-started policy network from checkpoint");
        }
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut curve = Vec::with_capacity(iterations);
    for it in 0..iterations {
        let stats = trainer.train_iteration(&mut rng);
        if !stats.mean_episode_return.is_nan() {
            curve.push(CurvePoint {
                iteration: stats.iteration,
                steps: stats.total_steps,
                mean_return: stats.mean_episode_return,
                kl: stats.mean_kl,
                entropy: stats.entropy,
            });
        }
        if verbose && (it < 5 || it % 10 == 0 || it + 1 == iterations) {
            println!(
                "iter {:>4}  steps {:>9}  return {:>9.2}  kl {:.4}  entropy {:>7.2}  kl_coeff {:.3}",
                stats.iteration,
                stats.total_steps,
                stats.mean_episode_return,
                stats.mean_kl,
                stats.entropy,
                stats.kl_coeff
            );
        }
    }

    let checkpoint = TrainingCheckpoint {
        format_version: CHECKPOINT_FORMAT_VERSION,
        scenario: scenario.clone(),
        ppo,
        seed,
        total_steps: trainer.total_steps(),
        curve,
        policy_net: trainer.policy_net().clone(),
        value_net: trainer.value_net().clone(),
        log_std: trainer.log_std().to_vec(),
    };
    let policy = checkpoint.into_policy()?;
    Ok(TrainResult { checkpoint, policy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_core::SystemConfig;
    use mflb_sim::EngineSpec;

    #[test]
    fn horizon_longer_than_batch_is_refused() {
        // T = 500 (paper default) against a 64-step batch: the later
        // epochs could never be sampled, so training must not start.
        let scenario = Scenario::new(SystemConfig::paper().with_dt(5.0), EngineSpec::Aggregate);
        let ppo = PpoConfig { train_batch_size: 64, ..PpoConfig::paper() };
        let err = match train_scenario(&scenario, ppo, 1, 1, false) {
            Err(e) => e,
            Ok(_) => panic!("over-long horizon must be refused"),
        };
        assert!(err.contains("train_episode_len"), "{err}");
    }

    #[test]
    fn warm_start_with_other_hidden_layers_is_refused() {
        let mut config = SystemConfig::paper().with_size(100, 10);
        config.train_episode_len = 8;
        let scenario = Scenario::new(config, EngineSpec::Aggregate);
        let ppo = PpoConfig { train_batch_size: 64, hidden: vec![8], ..PpoConfig::paper() };
        let narrow = PpoConfig { hidden: vec![4], ..ppo.clone() };
        let init = train_scenario(&scenario, narrow, 0, 1, false).unwrap().checkpoint.policy_net;
        let err = match train_scenario_from(&scenario, ppo, 1, 1, false, Some(&init)) {
            Err(e) => e,
            Ok(_) => panic!("a warm start of another hidden shape must be refused"),
        };
        assert!(err.contains("hidden layers [8]"), "{err}");
    }
}
