//! Distillation of a neural checkpoint onto a tabular lattice policy.
//!
//! `mflb distill` projects a [`TrainingCheckpoint`]'s policy network onto
//! the `mflb-dp` machinery: for every vertex of the [`SimplexGrid`]
//! lattice and every arrival level, the network's emitted decision rule
//! is **greedy-matched** to the nearest member of the softmin action
//! library (expected ℓ₁ routing distance under the vertex distribution,
//! [`mflb_policy::rule_l1_weighted`]), then a **DP-polish sweep** replaces
//! any matched action whose one-step-lookahead Q-value falls more than
//! [`DistillConfig::polish_slack`] (relative) behind the oracle's best —
//! so the table inherits the network's style where it is near-optimal and
//! the oracle's choice where the network would pay for it.
//!
//! The result is a [`DistilledCheckpoint`]: a versioned JSON artifact
//! whose deployable [`TabularPolicy`] decides by snap-and-lookup — no
//! network evaluation, no model lookahead — the nanosecond-class policy
//! tier a serving path wants, evaluable everywhere an `UpperPolicy` runs.

use crate::checkpoint::TrainingCheckpoint;
use crate::oracle::{solve_oracle, Oracle, OracleConfig};
use crate::scenario_env::PolicyShape;
use mflb_core::mdp::UpperPolicy;
use mflb_core::{DecisionRule, StateDist};
use mflb_dp::{ActionLibrary, SimplexGrid};
use mflb_policy::rule_l1_weighted;
use mflb_sim::Scenario;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current distilled-checkpoint schema version. Bump on layout changes.
pub const DISTILLED_FORMAT_VERSION: u32 = 1;

/// Configuration of a distillation pass.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// The oracle solve backing the polish sweep (grid resolution, cache).
    pub oracle: OracleConfig,
    /// Relative Q-value slack of the polish sweep: the network-matched
    /// action is kept at a vertex iff
    /// `Q(best) − Q(match) ≤ polish_slack · max(|Q(best)|, 1)`; larger
    /// values preserve more of the network's style, `0` forces exact
    /// Q-agreement with the DP greedy policy.
    pub polish_slack: f64,
}

impl Default for DistillConfig {
    fn default() -> Self {
        // 0.005 measured on the quick-scale paper dynamics: keeps ~3/4 of
        // the network's choices while staying within a few percent of the
        // oracle's drops; 0.02 already lets every action through (the Q
        // spread between softmin temperatures is small relative to |V|).
        Self { oracle: OracleConfig::default(), polish_slack: 0.005 }
    }
}

/// A versioned tabular policy artifact produced by `mflb distill`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistilledCheckpoint {
    /// Schema version; must equal [`DISTILLED_FORMAT_VERSION`] to load.
    pub format_version: u32,
    /// The scenario the table was distilled for.
    pub scenario: Scenario,
    /// Lattice resolution `G` of the table.
    pub grid_resolution: usize,
    /// Display names of the action library.
    pub action_names: Vec<String>,
    /// The library's decision rules, in order.
    pub action_rules: Vec<DecisionRule>,
    /// `table[s · L + l]` = action index at lattice point `s`, level `l`.
    pub table: Vec<u32>,
    /// Fraction of table entries where the network's matched action
    /// survived the polish sweep (1 = pure imitation, 0 = pure oracle).
    pub nn_fraction: f64,
    /// The polish slack the table was built with.
    pub polish_slack: f64,
    /// Cumulative training steps of the source checkpoint.
    pub source_steps: u64,
    /// Training seed of the source checkpoint.
    pub source_seed: u64,
}

impl DistilledCheckpoint {
    /// Checks internal consistency: version, scenario, table shapes and
    /// action indices.
    pub fn validate(&self) -> Result<(), String> {
        if self.format_version != DISTILLED_FORMAT_VERSION {
            return Err(format!(
                "distilled checkpoint format version {} is not supported (expected {})",
                self.format_version, DISTILLED_FORMAT_VERSION
            ));
        }
        self.scenario.validate().map_err(|e| format!("embedded scenario: {e}"))?;
        if self.grid_resolution == 0 {
            return Err("grid resolution must be at least 1".into());
        }
        if self.action_names.len() != self.action_rules.len() || self.action_rules.is_empty() {
            return Err(format!(
                "action names/rules mismatch: {} names, {} rules",
                self.action_names.len(),
                self.action_rules.len()
            ));
        }
        let zs = self.scenario.config.num_states();
        let d = self.scenario.config.d;
        for (name, rule) in self.action_names.iter().zip(self.action_rules.iter()) {
            if rule.num_states() != zs || rule.d() != d {
                return Err(format!(
                    "action '{name}' has shape ({}, d = {}), scenario needs ({zs}, d = {d})",
                    rule.num_states(),
                    rule.d()
                ));
            }
        }
        let grid = SimplexGrid::new(zs, self.grid_resolution);
        let levels = self.scenario.config.arrivals.num_levels();
        if self.table.len() != grid.num_points() * levels {
            return Err(format!(
                "table has {} entries, expected {} ({} lattice points × {} levels)",
                self.table.len(),
                grid.num_points() * levels,
                grid.num_points(),
                levels
            ));
        }
        if let Some(&bad) = self.table.iter().find(|&&a| (a as usize) >= self.action_rules.len()) {
            return Err(format!(
                "table routes to action {bad}, outside the {}-action library",
                self.action_rules.len()
            ));
        }
        Ok(())
    }

    /// Checks the table can be deployed against `target`: same length-state
    /// space, sample size and arrival levels (the tabular policy is
    /// homogeneous, so composite heterogeneous targets are rejected).
    pub fn validate_for(&self, target: &Scenario) -> Result<(), String> {
        self.validate()?;
        let shape = PolicyShape::for_scenario(target);
        let zs = self.scenario.config.num_states();
        if shape.rule_states != shape.obs_states {
            return Err("distilled tables emit plain length-state rules; heterogeneous \
                 composite targets are not supported"
                .into());
        }
        if shape.obs_states != zs || shape.d != self.scenario.config.d {
            return Err(format!(
                "table is over ({zs} states, d = {}) but the target needs ({} states, d = {})",
                self.scenario.config.d, shape.obs_states, shape.d
            ));
        }
        if shape.num_levels != self.scenario.config.arrivals.num_levels() {
            return Err(format!(
                "table has {} arrival levels, target has {}",
                self.scenario.config.arrivals.num_levels(),
                shape.num_levels
            ));
        }
        Ok(())
    }

    /// Builds the deployable table-lookup policy (validates first).
    pub fn into_policy(&self) -> Result<TabularPolicy, String> {
        self.validate()?;
        let zs = self.scenario.config.num_states();
        let actions = ActionLibrary::new(
            self.action_names.iter().cloned().zip(self.action_rules.iter().cloned()).collect(),
        );
        Ok(TabularPolicy {
            grid: SimplexGrid::new(zs, self.grid_resolution),
            num_levels: self.scenario.config.arrivals.num_levels(),
            actions,
            table: self.table.clone(),
            name: "MF-DP (distilled)".to_string(),
        })
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("distilled checkpoint serialization cannot fail")
    }

    /// Parses and validates from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let ckpt: Self =
            serde_json::from_str(text).map_err(|e| format!("parse distilled checkpoint: {e}"))?;
        ckpt.validate()?;
        Ok(ckpt)
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

    /// Reads and validates a checkpoint from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }
}

/// The deployable distilled policy: snap the observed distribution to its
/// nearest lattice point, look the action up, done. No network, no model.
#[derive(Clone)]
pub struct TabularPolicy {
    grid: SimplexGrid,
    num_levels: usize,
    actions: ActionLibrary,
    table: Vec<u32>,
    name: String,
}

impl TabularPolicy {
    /// The action index the table selects for a state (test hook).
    pub fn action_index(&self, dist: &StateDist, lambda_idx: usize) -> usize {
        assert!(lambda_idx < self.num_levels, "lambda level out of range");
        let s = self.grid.snap(dist);
        self.table[s * self.num_levels + lambda_idx] as usize
    }

    /// The action library the table routes into.
    pub fn actions(&self) -> &ActionLibrary {
        &self.actions
    }

    /// The lattice the table is defined over.
    pub fn grid(&self) -> &SimplexGrid {
        &self.grid
    }
}

impl UpperPolicy for TabularPolicy {
    fn decide(&self, dist: &StateDist, lambda_idx: usize, _lambda: f64) -> DecisionRule {
        self.actions.rule(self.action_index(dist, lambda_idx)).clone()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Outcome of a distillation pass: the artifact plus the oracle that
/// backed the polish sweep (for provenance reporting).
pub struct DistillResult {
    /// The distilled artifact, ready to save or deploy.
    pub checkpoint: DistilledCheckpoint,
    /// The oracle used for the polish sweep.
    pub oracle: Oracle,
}

/// Projects a trained checkpoint onto a tabular lattice policy:
/// greedy-match each vertex's network rule against the action library,
/// then DP-polish the matches against the oracle's Q-values.
///
/// Fails with a readable message on heterogeneous scenarios (composite
/// rule spaces have no library to match into), infeasible oracle solves,
/// or checkpoint/scenario shape mismatches.
pub fn distill_checkpoint(
    ckpt: &TrainingCheckpoint,
    scenario: &Scenario,
    config: &DistillConfig,
) -> Result<DistillResult, String> {
    if !(config.polish_slack >= 0.0 && config.polish_slack.is_finite()) {
        return Err(format!("polish slack must be finite and ≥ 0, got {}", config.polish_slack));
    }
    ckpt.validate_for(scenario)?;
    let oracle = solve_oracle(scenario, &config.oracle)?;
    let shape = PolicyShape::for_scenario(scenario);
    let sol = oracle.policy.solution();
    let nn = shape.into_policy(ckpt.policy_net.clone());
    let grid = sol.grid();
    let levels = sol.num_levels();
    let library = sol.actions();

    let mut table = Vec::with_capacity(grid.num_points() * levels);
    let mut kept = 0usize;
    for s in 0..grid.num_points() {
        let nu = grid.point(s);
        for l in 0..levels {
            let lambda = sol.config().arrivals.level_rate(l);
            let nn_rule = nn.decide(&nu, l, lambda);
            let mut match_a = 0usize;
            let mut match_dist = f64::INFINITY;
            for a in 0..library.len() {
                let dist = rule_l1_weighted(library.rule(a), &nn_rule, &nu);
                if dist < match_dist {
                    match_dist = dist;
                    match_a = a;
                }
            }
            let q = sol.q_values(&nu, l);
            let mut best_a = 0usize;
            for (a, &qa) in q.iter().enumerate() {
                if qa > q[best_a] {
                    best_a = a;
                }
            }
            let tolerance = config.polish_slack * q[best_a].abs().max(1.0);
            let chosen = if q[best_a] - q[match_a] <= tolerance {
                kept += 1;
                match_a
            } else {
                best_a
            };
            table.push(chosen as u32);
        }
    }

    let nn_fraction = kept as f64 / table.len().max(1) as f64;
    let checkpoint = DistilledCheckpoint {
        format_version: DISTILLED_FORMAT_VERSION,
        scenario: scenario.clone(),
        grid_resolution: grid.resolution(),
        action_names: (0..library.len()).map(|a| library.name(a).to_string()).collect(),
        action_rules: library.rules().to_vec(),
        table,
        nn_fraction,
        polish_slack: config.polish_slack,
        source_steps: ckpt.total_steps,
        source_seed: ckpt.seed,
    };
    checkpoint.validate()?;
    Ok(DistillResult { checkpoint, oracle })
}
