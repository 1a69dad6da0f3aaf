//! The scenario-spec loader. Each error names the file; the caller picks
//! the exit status. Neural checkpoints load through
//! `mflb_rl::TrainingCheckpoint::load` and `fit`.

use mflb_sim::Scenario;

/// Reads, parses and validates a scenario spec.
pub fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let scenario = Scenario::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
    scenario.validate().map_err(|e| format!("invalid scenario {path}: {e}"))?;
    Ok(scenario)
}
