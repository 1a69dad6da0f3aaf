//! Versioned, self-describing training checkpoints.
//!
//! A [`TrainingCheckpoint`] is everything needed to reproduce, resume or
//! deploy a training run: the **scenario** it was trained for, the full
//! [`PpoConfig`], the seed, the cumulative step count, the training curve
//! and both networks (policy + value) with the Gaussian head's log-stds.
//! The JSON layout is guarded by [`CHECKPOINT_FORMAT_VERSION`]; loading a
//! file with a different version — or one whose networks are malformed or
//! disagree with its embedded scenario — is a typed error, never a panic
//! or a silent misdeployment.
//!
//! It is the one on-disk format of a neural policy: `mflb train` and
//! `fig3_training` write it, and every command that deploys a network
//! reads it through [`TrainingCheckpoint::load`] and
//! [`TrainingCheckpoint::fit`].

use crate::ppo::PpoConfig;
use crate::scenario_env::PolicyShape;
use mflb_nn::Mlp;
use mflb_policy::NeuralUpperPolicy;
use mflb_sim::Scenario;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current checkpoint schema version. Bump on any breaking layout change.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// One logged point of the training curve (the paper's Fig. 3 axes plus
/// update diagnostics).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Training iteration (1-based).
    pub iteration: u64,
    /// Cumulative environment steps (the paper's x-axis).
    pub steps: u64,
    /// Mean return of episodes completed this iteration.
    pub mean_return: f64,
    /// Mean KL(π_old‖π) of the iteration's update.
    pub kl: f64,
    /// Entropy of the Gaussian head.
    pub entropy: f64,
}

/// A complete, versioned training artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingCheckpoint {
    /// Schema version; must equal [`CHECKPOINT_FORMAT_VERSION`] to load.
    pub format_version: u32,
    /// The scenario the policy was trained for (engine kind + system
    /// configuration); evaluation rebuilds its finite-N engine from this.
    pub scenario: Scenario,
    /// The full PPO hyper-parameter set used.
    pub ppo: PpoConfig,
    /// Training seed (rollout RNG streams derive from it).
    pub seed: u64,
    /// Cumulative environment steps trained.
    pub total_steps: u64,
    /// Per-iteration training curve.
    pub curve: Vec<CurvePoint>,
    /// The policy network (decision-rule logits head).
    pub policy_net: Mlp,
    /// The value network (kept for warm restarts).
    pub value_net: Mlp,
    /// Gaussian-head log standard deviations at the end of training.
    pub log_std: Vec<f64>,
}

/// Used to report a version mismatch before attempting a full parse.
#[derive(Deserialize)]
struct VersionProbe {
    format_version: u32,
}

impl TrainingCheckpoint {
    /// The policy interface implied by the embedded scenario.
    pub fn shape(&self) -> PolicyShape {
        PolicyShape::for_scenario(&self.scenario)
    }

    /// Checks internal consistency: the scenario must be valid and both
    /// networks well formed ([`Mlp::check_shape`]) and of the shape the
    /// scenario implies.
    pub fn validate(&self) -> Result<(), String> {
        if self.format_version != CHECKPOINT_FORMAT_VERSION {
            return Err(format!(
                "checkpoint format version {} is not supported (expected {})",
                self.format_version, CHECKPOINT_FORMAT_VERSION
            ));
        }
        self.scenario.validate().map_err(|e| format!("embedded scenario: {e}"))?;
        self.policy_net.check_shape().map_err(|e| format!("policy network: {e}"))?;
        self.value_net.check_shape().map_err(|e| format!("value network: {e}"))?;
        self.validate_for(&self.scenario)
    }

    /// Checks that the policy can be deployed against `target` — its
    /// observation/action dimensions must match the target scenario's
    /// [`PolicyShape`]. This is what rejects e.g. a homogeneous policy
    /// against a two-class heterogeneous pool, or a `B = 5` policy against
    /// a `B = 9` buffer.
    pub fn validate_for(&self, target: &Scenario) -> Result<(), String> {
        let shape = PolicyShape::for_scenario(target);
        if self.policy_net.input_dim() != shape.obs_dim() {
            return Err(format!(
                "policy network observes {} dims but the scenario needs {} \
                 ({} length states + {} arrival levels)",
                self.policy_net.input_dim(),
                shape.obs_dim(),
                shape.obs_states,
                shape.num_levels
            ));
        }
        if self.policy_net.output_dim() != shape.act_dim() {
            return Err(format!(
                "policy network emits {} logits but the scenario needs {} \
                 ({} rule states, d = {})",
                self.policy_net.output_dim(),
                shape.act_dim(),
                shape.rule_states,
                shape.d
            ));
        }
        if self.value_net.input_dim() != shape.obs_dim() || self.value_net.output_dim() != 1 {
            return Err(format!(
                "value network has shape {} -> {}, expected {} -> 1",
                self.value_net.input_dim(),
                self.value_net.output_dim(),
                shape.obs_dim()
            ));
        }
        if self.log_std.len() != shape.act_dim() {
            return Err(format!(
                "log_std has {} entries, expected {}",
                self.log_std.len(),
                shape.act_dim()
            ));
        }
        Ok(())
    }

    /// Builds the deployable deterministic policy (validates first).
    pub fn into_policy(&self) -> Result<NeuralUpperPolicy, String> {
        self.validate()?;
        Ok(self.shape().into_policy(self.policy_net.clone()))
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses and validates a checkpoint from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        match serde_json::from_str::<Self>(text) {
            Ok(ckpt) => {
                // `validate` reports an unsupported format_version first.
                ckpt.validate()?;
                Ok(ckpt)
            }
            Err(full_err) => {
                // A future layout usually fails the full parse; fall back
                // to the one-field probe so the error names the version
                // gap instead of whichever field happened to change.
                if let Ok(probe) = serde_json::from_str::<VersionProbe>(text) {
                    if probe.format_version != CHECKPOINT_FORMAT_VERSION {
                        return Err(format!(
                            "checkpoint format version {} is not supported (expected {})",
                            probe.format_version, CHECKPOINT_FORMAT_VERSION
                        ));
                    }
                }
                Err(format!("parse checkpoint: {full_err}"))
            }
        }
    }

    /// Writes the checkpoint to a JSON file (creating parent directories).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads and validates a checkpoint from a JSON file. Every error names
    /// the file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("load {}: {e}", path.display()))
    }

    /// The policy this checkpoint, read from `path`, deploys on `target`:
    /// [`Self::validate_for`], then [`Self::into_policy`]. Every error
    /// names `path`.
    pub fn fit(&self, path: &str, target: &Scenario) -> Result<NeuralUpperPolicy, String> {
        self.validate_for(target).map_err(|e| format!("{path} does not fit this scenario: {e}"))?;
        self.into_policy().map_err(|e| format!("{path}: {e}"))
    }
}
