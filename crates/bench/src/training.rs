//! Scale-dependent PPO configuration for the bench binaries.
//!
//! The training driver itself lives in `mflb_rl` ([`mflb_rl::train_scenario`]
//! — the same code path as `mflb train`); this module only maps the
//! harness [`harness::Scale`] to hyper-parameters and iteration counts.

use crate::harness;
use mflb_rl::PpoConfig;

/// The PPO configuration used at each harness scale. `paper` is Table 2
/// verbatim; `quick` shrinks networks/batches so training fits in minutes.
pub fn ppo_config_for(scale: harness::Scale, threads: usize) -> PpoConfig {
    let mut cfg = match scale {
        harness::Scale::Paper => PpoConfig::paper(),
        harness::Scale::Quick => PpoConfig {
            // Quick mode deviates from Table 2 where it buys variance
            // reduction: the decision rule h_t determines the epoch's drop
            // count D_t *immediately*, so a shorter credit horizon
            // (γ = 0.9, GAE λ = 0.9) preserves the optimal policy while
            // cutting advantage noise by an order of magnitude — essential
            // when training for minutes instead of the paper's 35 hours.
            gamma: 0.9,
            gae_lambda: 0.9,
            lr: 1e-3,
            train_batch_size: 4000,
            minibatch_size: 500,
            num_epochs: 12,
            kl_target: 0.02,
            hidden: vec![64, 64],
            initial_log_std: -0.5,
            ..PpoConfig::paper()
        },
    };
    cfg.rollout_threads = threads.max(1);
    cfg
}

/// Default iteration counts per scale (paper: ≈2.5·10⁷ steps as in Fig. 3).
pub fn iterations_for(scale: harness::Scale) -> usize {
    match scale {
        harness::Scale::Quick => 120,
        harness::Scale::Paper => 6250,
    }
}
