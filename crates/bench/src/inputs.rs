//! Loaders for the files a command reads: scenario specs and neural
//! policy checkpoints. Each error names the file; the caller picks the
//! exit status.

use mflb_policy::NeuralUpperPolicy;
use mflb_rl::{PolicyShape, TrainingCheckpoint};
use mflb_sim::Scenario;

/// Reads, parses and validates a scenario spec.
pub fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let scenario = Scenario::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
    scenario.validate().map_err(|e| format!("invalid scenario {path}: {e}"))?;
    Ok(scenario)
}

/// A neural policy checkpoint in either on-disk format.
pub struct Checkpoint {
    path: String,
    format: Format,
}

enum Format {
    /// The versioned training checkpoint; it carries its scenario.
    Trained(Box<TrainingCheckpoint>),
    /// The legacy `PolicyCheckpoint`: a network and nothing else.
    Legacy(NeuralUpperPolicy),
}

impl Checkpoint {
    /// Loads the versioned format first and the legacy one second.
    pub fn load(path: &str) -> Result<Self, String> {
        let format = match TrainingCheckpoint::load(path) {
            Ok(ckpt) => Format::Trained(Box::new(ckpt)),
            Err(versioned) => {
                Format::Legacy(NeuralUpperPolicy::load(path).map_err(|legacy| {
                    format!("load {path}: {versioned} (legacy format: {legacy})")
                })?)
            }
        };
        Ok(Checkpoint { path: path.to_string(), format })
    }

    /// The scenario a versioned checkpoint was trained on.
    pub fn scenario(&self) -> Option<&Scenario> {
        match &self.format {
            Format::Trained(ckpt) => Some(&ckpt.scenario),
            Format::Legacy(_) => None,
        }
    }

    /// The deployable policy, once its network is checked against the
    /// shape `scenario` implies.
    pub fn fit(self, scenario: &Scenario) -> Result<NeuralUpperPolicy, String> {
        let path = &self.path;
        match self.format {
            Format::Trained(ckpt) => {
                ckpt.validate_for(scenario)
                    .map_err(|e| format!("{path} does not fit this scenario: {e}"))?;
                ckpt.into_policy().map_err(|e| format!("{path}: {e}"))
            }
            Format::Legacy(p) => {
                let shape = PolicyShape::for_scenario(scenario);
                let (input, output) = (p.net().input_dim(), p.net().output_dim());
                if input != shape.obs_dim() || output != shape.act_dim() {
                    return Err(format!(
                        "{path} does not fit this scenario: legacy checkpoint network is \
                         {input} -> {output}, scenario needs {} -> {}",
                        shape.obs_dim(),
                        shape.act_dim()
                    ));
                }
                Ok(p)
            }
        }
    }
}
