//! Hand-rolled reinforcement learning for the MFC MDP: PPO (the paper's
//! algorithm) plus REINFORCE and CEM baselines, the environment adapters,
//! and the scenario-driven training/evaluation subsystem.
//!
//! Rust's RL ecosystem is immature (the reproduction assessment for this
//! paper flags exactly that), so the full training stack is implemented
//! here on top of `mflb-nn`. Component ↔ paper map:
//!
//! * [`env::Env`] — the minimal episodic environment interface (with a toy
//!   control task for the test-suite),
//! * [`buffer::RolloutBuffer`] — experience storage plus GAE(λ) advantages
//!   (Schulman et al. 2016; the paper trains with `λ_RL = 1`, Table 2),
//! * [`ppo::PpoTrainer`] — clipped-surrogate PPO with the adaptive KL
//!   penalty of the paper's RLlib setup and parallel, episode-indexed
//!   rollout workers; [`ppo::PpoConfig::paper`] is Table 2 verbatim,
//! * [`reinforce::ReinforceTrainer`] — Monte-Carlo policy gradient with a
//!   learned baseline (the no-trust-region ablation),
//! * [`cem::CemTrainer`] — cross-entropy search over policy parameters
//!   (the derivative-free ablation),
//! * [`mfc_env::MeanFieldEnv`] — the `Env` adapter over the paper's
//!   upper-level mean-field MDP ([`mflb_core::mdp::MeanFieldMdp`],
//!   Eq. 29–31): observation `[ν_t, onehot λ_t]`, action = decision-rule
//!   logits with the §4 "manual normalization" softmax decoding, reward
//!   `−D_t`; the MDP runs the epoch over a [`mflb_core::mdp::Closure`],
//! * [`scenario_env`] — [`scenario_env::limit`] maps a serde
//!   [`mflb_sim::Scenario`] to its `mflb_core::mdp` closure (homogeneous,
//!   degree-indexed, heterogeneous pools (§2.5), phase-type service (§5)
//!   or the fault-degraded two-pool model) and the oracle's verdict on
//!   it; [`scenario_env::build_env`] builds the training env from it,
//! * [`checkpoint::TrainingCheckpoint`] — the versioned training artifact
//!   (scenario + config + seed + curve + networks) with strict load-time
//!   shape validation,
//! * [`train::train_scenario`] — the `Scenario → PPO → checkpoint` driver
//!   behind `mflb train`,
//! * [`eval::evaluate_checkpoint_configured`] — finite-N Monte-Carlo comparison of a
//!   checkpoint against JSQ(d)/RND/softmin, the Fig. 4–6 protocol,
//! * [`oracle`] — the exact-DP bridge: read a scenario's oracle
//!   exactness off its limit, solve (or cache) the discretized MDP and report
//!   per-policy optimality gaps through
//!   [`eval::evaluate_checkpoint_configured`] / `mflb eval --oracle`,
//! * [`distill`] — projection of a neural checkpoint onto a tabular
//!   lattice policy (greedy-match + DP polish), the `mflb distill`
//!   backend.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod buffer;
pub mod cem;
pub mod checkpoint;
pub mod distill;
pub mod env;
pub mod eval;
pub mod mfc_env;
pub mod oracle;
pub mod ppo;
pub mod reinforce;
pub mod scenario_env;
pub mod train;

pub use buffer::RolloutBuffer;
pub use cem::{CemConfig, CemStats, CemTrainer};
pub use checkpoint::{CurvePoint, TrainingCheckpoint, CHECKPOINT_FORMAT_VERSION};
pub use distill::{
    distill_checkpoint, DistillConfig, DistillResult, DistilledCheckpoint, TabularPolicy,
    DISTILLED_FORMAT_VERSION,
};
pub use env::{Env, StepResult, ToyControlEnv};
pub use eval::{
    evaluate_checkpoint_configured, scenario_with_m, EvalReport, EvalRow, OracleSummary,
};
pub use mfc_env::MeanFieldEnv;
pub use oracle::{
    check_lattice, oracle_feasibility, oracle_mdp_config, solve_oracle, Oracle, OracleConfig,
    OracleExactness,
};
pub use ppo::{CollectStats, IterationStats, PpoConfig, PpoTrainer, UpdateStats};
pub use reinforce::{ReinforceConfig, ReinforceStats, ReinforceTrainer};
pub use scenario_env::{build_env, limit, Limit, LimitClosure, PolicyShape};
pub use train::{train_scenario, train_scenario_from, TrainResult};
