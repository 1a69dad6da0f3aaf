//! Exact value iteration on the discretized MFC MDP.
//!
//! The MFC MDP of Eq. 29–31 has a *deterministic* `ν`-transition (exact
//! discretization) and stochastic dynamics only through the 2-level (in
//! general `L`-level) arrival chain. Discretizing `P(Z)` with a
//! [`SimplexGrid`] and restricting actions to a finite
//! [`ActionLibrary`] turns it into a finite MDP with `|grid| × L` states,
//! solved here by standard value iteration with **linear-exact simplex
//! interpolation** ([`SimplexGrid::interpolate`]) of the continuation
//! value:
//!
//! ```text
//! V(s, l) ← max_a [ r(s, l, a) + γ · Σ_{l'} P_λ(l'|l) · Σ_k w_k V(v_k(s,a), l') ]
//! ```
//!
//! where `Σ_k w_k·v_k` reconstructs the continuous next distribution
//! exactly. Interpolated backups remove the `O(1/G)` snap bias (which a
//! discount of `γ = 0.99` would amplify ~100×) and remain a
//! `γ`-contraction because the weights are convex.
//!
//! All `|grid| × L × |A|` one-epoch transitions (one matrix-exponential
//! batch each) are precomputed in parallel with crossbeam scoped threads
//! into a CSR table; the sweeps afterwards are pure table arithmetic. The
//! greedy policy is exported as a [`GridPolicy`] — a one-step-lookahead
//! [`UpperPolicy`] usable by every simulator and harness in the
//! workspace.
//!
//! This gives the reproduction a *certified* (up to grid resolution)
//! optimum over the restricted action family — the yardstick the PPO
//! ablation is measured against.

use crate::actions::ActionLibrary;
use crate::error::DpError;
use crate::simplex_grid::SimplexGrid;
use mflb_core::mdp::UpperPolicy;
use mflb_core::{worker_count, DecisionRule, MeanFieldMdp, StateDist, SystemConfig};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Configuration of the DP solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpConfig {
    /// Simplex lattice resolution `G` (probabilities are multiples of
    /// `1/G`).
    pub grid_resolution: usize,
    /// Sup-norm convergence tolerance on the value function.
    pub tol: f64,
    /// Hard cap on sweeps.
    pub max_sweeps: usize,
    /// Worker threads for the transition precompute (0 → available
    /// parallelism).
    pub threads: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self { grid_resolution: 12, tol: 1e-6, max_sweeps: 4_000, threads: 0 }
    }
}

/// CSR-style table of precomputed one-epoch transitions: entry
/// `(s·L + l)·A + a` owns `rewards[e]` and the interpolation pairs
/// `targets/weights[offsets[e]..offsets[e+1]]` of the next distribution.
struct TransitionTable {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    rewards: Vec<f64>,
}

/// The solved discretized MDP: optimal values and the greedy policy over
/// the lattice.
pub struct DpSolution {
    /// The full-mesh MDP solved for; the lookahead steps through it.
    mdp: MeanFieldMdp,
    grid: SimplexGrid,
    actions: ActionLibrary,
    num_levels: usize,
    /// `values[s · L + l]` = optimal value of `(grid point s, level l)`.
    values: Vec<f64>,
    /// `best[s · L + l]` = greedy action index at the lattice state.
    best: Vec<u32>,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Final sup-norm residual.
    pub residual: f64,
}

/// Interpolated continuation value of one table entry given the current
/// value function: `Σ_{l'} P(l'|l) Σ_k w_k V(v_k, l')`.
#[inline]
fn continuation(
    table: &TransitionTable,
    kernel_row: &[f64],
    values: &[f64],
    num_levels: usize,
    entry: usize,
) -> f64 {
    let (lo, hi) = (table.offsets[entry] as usize, table.offsets[entry + 1] as usize);
    let mut cont = 0.0;
    for (lp, &p) in kernel_row.iter().enumerate() {
        let mut v_next = 0.0;
        for k in lo..hi {
            v_next += table.weights[k] * values[table.targets[k] as usize * num_levels + lp];
        }
        cont += p * v_next;
    }
    cont
}

impl DpSolution {
    /// Solves the discretized MDP by **value iteration**.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the action library's
    /// shape does not match it.
    pub fn solve(config: &SystemConfig, actions: ActionLibrary, dp: &DpConfig) -> Self {
        Self::check_shapes(config, &actions);
        let mdp = MeanFieldMdp::new(config.clone());
        let grid = SimplexGrid::new(config.num_states(), dp.grid_resolution);
        let num_levels = config.arrivals.num_levels();
        let s_count = grid.num_points();
        let a_count = actions.len();

        let table = Self::precompute(&mdp, &grid, &actions, num_levels, dp.threads);

        // ---- Value-iteration sweeps (pure table arithmetic). -----------
        let gamma = config.gamma;
        let kernel: Vec<Vec<f64>> =
            (0..num_levels).map(|l| config.arrivals.kernel_row(l).to_vec()).collect();
        let mut values = vec![0.0f64; s_count * num_levels];
        let mut fresh = vec![0.0f64; s_count * num_levels];
        let mut best = vec![0u32; s_count * num_levels];
        let mut residual = f64::INFINITY;
        let mut sweeps = 0;
        while sweeps < dp.max_sweeps && residual > dp.tol {
            residual = 0.0;
            for s in 0..s_count {
                for l in 0..num_levels {
                    let sl = s * num_levels + l;
                    let mut best_q = f64::NEG_INFINITY;
                    let mut best_a = 0u32;
                    for a in 0..a_count {
                        let e = sl * a_count + a;
                        let q = table.rewards[e]
                            + gamma * continuation(&table, &kernel[l], &values, num_levels, e);
                        if q > best_q {
                            best_q = q;
                            best_a = a as u32;
                        }
                    }
                    fresh[sl] = best_q;
                    best[sl] = best_a;
                    residual = residual.max((best_q - values[sl]).abs());
                }
            }
            std::mem::swap(&mut values, &mut fresh);
            sweeps += 1;
        }

        Self { mdp, grid, actions, num_levels, values, best, sweeps, residual }
    }

    /// Solves the discretized MDP by **policy iteration** (Howard's
    /// algorithm): iterative policy evaluation to `dp.tol`, then greedy
    /// improvement, until the policy is stable. Converges in far fewer
    /// improvement rounds than value-iteration sweeps; kept only as the
    /// independent reference the value-iteration cross-check test compares
    /// [`DpSolution::solve`] against.
    #[cfg(test)]
    fn solve_policy_iteration(
        config: &SystemConfig,
        actions: ActionLibrary,
        dp: &DpConfig,
    ) -> Self {
        Self::check_shapes(config, &actions);
        let mdp = MeanFieldMdp::new(config.clone());
        let grid = SimplexGrid::new(config.num_states(), dp.grid_resolution);
        let num_levels = config.arrivals.num_levels();
        let s_count = grid.num_points();
        let a_count = actions.len();

        let table = Self::precompute(&mdp, &grid, &actions, num_levels, dp.threads);
        let gamma = config.gamma;
        let kernel: Vec<Vec<f64>> =
            (0..num_levels).map(|l| config.arrivals.kernel_row(l).to_vec()).collect();

        let mut policy = vec![0u32; s_count * num_levels];
        let mut values = vec![0.0f64; s_count * num_levels];
        let mut fresh = vec![0.0f64; s_count * num_levels];
        let mut total_eval_sweeps = 0usize;
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            // --- Policy evaluation: V ← T_π V until stable. ---
            let mut residual = f64::INFINITY;
            while residual > dp.tol && total_eval_sweeps < dp.max_sweeps {
                residual = 0.0;
                for s in 0..s_count {
                    for l in 0..num_levels {
                        let sl = s * num_levels + l;
                        let e = sl * a_count + policy[sl] as usize;
                        let v = table.rewards[e]
                            + gamma * continuation(&table, &kernel[l], &values, num_levels, e);
                        residual = residual.max((v - values[sl]).abs());
                        fresh[sl] = v;
                    }
                }
                std::mem::swap(&mut values, &mut fresh);
                total_eval_sweeps += 1;
            }
            // --- Greedy improvement. ---
            let mut stable = true;
            for s in 0..s_count {
                for l in 0..num_levels {
                    let sl = s * num_levels + l;
                    let mut best_q = f64::NEG_INFINITY;
                    let mut best_a = policy[sl];
                    for a in 0..a_count {
                        let e = sl * a_count + a;
                        let q = table.rewards[e]
                            + gamma * continuation(&table, &kernel[l], &values, num_levels, e);
                        if q > best_q + 1e-12 {
                            best_q = q;
                            best_a = a as u32;
                        }
                    }
                    if best_a != policy[sl] {
                        policy[sl] = best_a;
                        stable = false;
                    }
                }
            }
            if stable || total_eval_sweeps >= dp.max_sweeps || rounds > 100 {
                break;
            }
        }

        Self {
            mdp,
            grid,
            actions,
            num_levels,
            values,
            best: policy,
            sweeps: rounds,
            residual: dp.tol,
        }
    }

    fn check_shapes(config: &SystemConfig, actions: &ActionLibrary) {
        config.validate().expect("invalid system configuration");
        assert_eq!(actions.rule(0).num_states(), config.num_states(), "action shape");
        assert_eq!(actions.rule(0).d(), config.d, "action d");
    }

    /// Parallel precompute of every `(lattice point, level, action)`
    /// one-epoch transition.
    fn precompute(
        mdp: &MeanFieldMdp,
        grid: &SimplexGrid,
        actions: &ActionLibrary,
        num_levels: usize,
        threads: usize,
    ) -> TransitionTable {
        let s_count = grid.num_points();
        let a_count = actions.len();
        let entries = s_count * num_levels * a_count;

        // Per-lattice-point staging, merged in order afterwards so the
        // result is independent of thread scheduling.
        type Staged = Vec<(f64, Vec<(usize, f64)>)>; // per (l, a) of one s
        let staged: Mutex<Vec<Option<Staged>>> = Mutex::new(vec![None; s_count]);

        let threads = worker_count(threads).min(s_count.max(1));

        let counter = std::sync::atomic::AtomicUsize::new(0);
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| loop {
                    let s = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if s >= s_count {
                        break;
                    }
                    let point = mdp.closure().with_dist(grid.point(s));
                    let mut rows: Staged = Vec::with_capacity(num_levels * a_count);
                    for l in 0..num_levels {
                        for a in 0..a_count {
                            let mut next = point.clone();
                            let reward = mdp.epoch(&mut next, actions.rule(a), l, 0);
                            rows.push((reward, grid.interpolate(next.dist())));
                        }
                    }
                    staged.lock()[s] = Some(rows);
                });
            }
        })
        .expect("DP precompute worker panicked");

        let staged = staged.into_inner();
        let mut offsets = Vec::with_capacity(entries + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut rewards = Vec::with_capacity(entries);
        offsets.push(0u32);
        for rows in staged {
            let rows = rows.expect("every lattice point processed");
            for (reward, pairs) in rows {
                rewards.push(reward);
                for (idx, w) in pairs {
                    targets.push(idx as u32);
                    weights.push(w);
                }
                offsets.push(targets.len() as u32);
            }
        }
        TransitionTable { offsets, targets, weights, rewards }
    }

    /// The lattice used.
    pub fn grid(&self) -> &SimplexGrid {
        &self.grid
    }

    /// The action library used.
    pub fn actions(&self) -> &ActionLibrary {
        &self.actions
    }

    /// The system configuration solved for.
    pub fn config(&self) -> &SystemConfig {
        self.mdp.config()
    }

    /// Optimal value of an arbitrary state, interpolated over the lattice.
    pub fn value(&self, dist: &StateDist, lambda_idx: usize) -> f64 {
        assert!(lambda_idx < self.num_levels);
        self.interpolated_value(&self.grid.interpolate(dist), lambda_idx)
    }

    /// `Σ_k w_k V(v_k, l)` over the interpolation pairs `(v_k, w_k)`.
    fn interpolated_value(&self, pairs: &[(usize, f64)], lambda_idx: usize) -> f64 {
        pairs.iter().map(|&(s, w)| w * self.values[s * self.num_levels + lambda_idx]).sum()
    }

    /// One-step-lookahead Q-values of every library action at an
    /// arbitrary state: `Q(ν, l, a) = r + γ·Σ_{l'} P(l'|l)·V(ν', l')`
    /// with the next distribution `ν'` stepped through the exact model
    /// and the continuation interpolated over the lattice (once per
    /// action; the pairs serve every level `l'`).
    pub fn q_values(&self, dist: &StateDist, lambda_idx: usize) -> Vec<f64> {
        assert!(lambda_idx < self.num_levels);
        let config = self.mdp.config();
        let point = self.mdp.closure().with_dist(dist.clone());
        let kernel = config.arrivals.kernel_row(lambda_idx);
        (0..self.actions.len())
            .map(|a| {
                let mut next = point.clone();
                let reward = self.mdp.epoch(&mut next, self.actions.rule(a), lambda_idx, 0);
                let pairs = self.grid.interpolate(next.dist());
                let mut cont = 0.0;
                for (lp, &p) in kernel.iter().enumerate() {
                    cont += p * self.interpolated_value(&pairs, lp);
                }
                reward + config.gamma * cont
            })
            .collect()
    }

    /// Greedy action index by one-step lookahead from an arbitrary state
    /// (evaluates every library action through the true model and the
    /// interpolated continuation value).
    pub fn greedy_action(&self, dist: &StateDist, lambda_idx: usize) -> usize {
        let q = self.q_values(dist, lambda_idx);
        let mut best_a = 0usize;
        for (a, &qa) in q.iter().enumerate() {
            if qa > q[best_a] {
                best_a = a;
            }
        }
        best_a
    }

    /// Greedy action stored at a lattice index (fast path; test hook).
    pub fn greedy_action_at(&self, s: usize, l: usize) -> usize {
        self.best[s * self.num_levels + l] as usize
    }

    /// Recomputes `|V(s,l) − max_a Q(s,l,a)|` from the model at a lattice
    /// state (test hook for Bellman consistency).
    pub fn bellman_residual_at(&self, s: usize, l: usize) -> f64 {
        let nu = self.grid.point(s);
        let q = self.q_values(&nu, l);
        let best_q = q.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
        (self.values[s * self.num_levels + l] - best_q).abs()
    }

    /// Number of arrival levels in the solved MDP.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Extracts the greedy policy as a reusable [`UpperPolicy`].
    pub fn into_policy(self) -> GridPolicy {
        GridPolicy { solution: std::sync::Arc::new(self), name: "MF-DP".to_string() }
    }

    /// Serializable snapshot of this solution.
    pub fn to_checkpoint(&self) -> DpCheckpoint {
        DpCheckpoint {
            config: self.config().clone(),
            grid_resolution: self.grid.resolution(),
            action_names: (0..self.actions.len())
                .map(|a| self.actions.name(a).to_string())
                .collect(),
            action_rules: self.actions.rules().to_vec(),
            values: self.values.clone(),
            best: self.best.clone(),
            sweeps: self.sweeps,
            residual: self.residual,
        }
    }

    /// Restores a solution from a checkpoint.
    ///
    /// # Panics
    /// Panics if the checkpoint is internally inconsistent. Use
    /// [`DpSolution::try_from_checkpoint`] for a fallible variant.
    pub fn from_checkpoint(ckpt: DpCheckpoint) -> Self {
        Self::try_from_checkpoint(ckpt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Restores a solution from a checkpoint, rejecting inconsistent
    /// tables with a [`DpError::Checkpoint`] instead of panicking.
    pub fn try_from_checkpoint(ckpt: DpCheckpoint) -> Result<Self, DpError> {
        ckpt.config.validate().map_err(DpError::Checkpoint)?;
        if ckpt.grid_resolution == 0 {
            return Err(DpError::Checkpoint("grid resolution must be positive".into()));
        }
        let grid = SimplexGrid::new(ckpt.config.num_states(), ckpt.grid_resolution);
        let num_levels = ckpt.config.arrivals.num_levels();
        if ckpt.values.len() != grid.num_points() * num_levels {
            return Err(DpError::Checkpoint(format!(
                "value table shape: {} entries, expected {}",
                ckpt.values.len(),
                grid.num_points() * num_levels
            )));
        }
        if ckpt.best.len() != ckpt.values.len() {
            return Err(DpError::Checkpoint(format!(
                "policy table shape: {} entries, expected {}",
                ckpt.best.len(),
                ckpt.values.len()
            )));
        }
        if ckpt.action_names.len() != ckpt.action_rules.len() || ckpt.action_rules.is_empty() {
            return Err(DpError::Checkpoint("action names/rules mismatch".into()));
        }
        let actions =
            ActionLibrary::new(ckpt.action_names.into_iter().zip(ckpt.action_rules).collect());
        if let Some(&bad) = ckpt.best.iter().find(|&&a| (a as usize) >= actions.len()) {
            return Err(DpError::Checkpoint(format!(
                "action index {bad} out of range (library has {})",
                actions.len()
            )));
        }
        Ok(Self {
            mdp: MeanFieldMdp::new(ckpt.config),
            grid,
            actions,
            num_levels,
            values: ckpt.values,
            best: ckpt.best,
            sweeps: ckpt.sweeps,
            residual: ckpt.residual,
        })
    }

    /// Saves the solution as JSON.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), DpError> {
        let path = path.as_ref();
        let json = serde_json::to_string(&self.to_checkpoint())
            .map_err(|e| DpError::Json { path: path.to_path_buf(), source: e })?;
        std::fs::write(path, json).map_err(|e| DpError::Io { path: path.to_path_buf(), source: e })
    }

    /// Loads a solution saved by [`DpSolution::save_json`].
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<Self, DpError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| DpError::Io { path: path.to_path_buf(), source: e })?;
        let ckpt: DpCheckpoint = serde_json::from_str(&json)
            .map_err(|e| DpError::Json { path: path.to_path_buf(), source: e })?;
        Self::try_from_checkpoint(ckpt)
    }
}

/// Serializable form of a [`DpSolution`] (JSON checkpoints, so the
/// expensive lattice solve can be reused across experiment runs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpCheckpoint {
    /// System configuration solved for.
    pub config: SystemConfig,
    /// Lattice resolution `G`.
    pub grid_resolution: usize,
    /// Display names of the action library.
    pub action_names: Vec<String>,
    /// The decision rules of the library, in order.
    pub action_rules: Vec<DecisionRule>,
    /// Flat optimal-value table.
    pub values: Vec<f64>,
    /// Flat greedy-action table.
    pub best: Vec<u32>,
    /// Sweeps/rounds the solver used.
    pub sweeps: usize,
    /// Final residual.
    pub residual: f64,
}

/// The greedy DP policy: one-step lookahead through the exact model with
/// the interpolated lattice value as continuation.
#[derive(Clone)]
pub struct GridPolicy {
    solution: std::sync::Arc<DpSolution>,
    name: String,
}

impl GridPolicy {
    /// Access to the underlying solution.
    pub fn solution(&self) -> &DpSolution {
        &self.solution
    }

    /// Renames the policy (harness display).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl UpperPolicy for GridPolicy {
    fn decide(&self, dist: &StateDist, lambda_idx: usize, _lambda: f64) -> DecisionRule {
        let a = self.solution.greedy_action(dist, lambda_idx);
        self.solution.actions.rule(a).clone()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_linalg::stats::Summary;
    use mflb_policy::{jsq_rule, rnd_rule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small system so the full DP runs in test time: B = 3, Δt = 5.
    fn small_config() -> SystemConfig {
        SystemConfig::paper().with_buffer(3).with_dt(5.0)
    }

    fn small_dp() -> DpConfig {
        DpConfig { grid_resolution: 8, tol: 1e-8, max_sweeps: 5_000, threads: 0 }
    }

    #[test]
    fn converges_and_satisfies_bellman_equation() {
        let cfg = small_config();
        let lib = ActionLibrary::softmin_default(cfg.num_states(), cfg.d);
        let sol = DpSolution::solve(&cfg, lib, &small_dp());
        assert!(sol.residual <= 1e-8, "residual {}", sol.residual);
        assert!(sol.sweeps < 5_000);
        // Spot-check Bellman consistency on scattered lattice states.
        for s in (0..sol.grid().num_points()).step_by(29) {
            for l in 0..2 {
                let r = sol.bellman_residual_at(s, l);
                assert!(r < 1e-6, "Bellman residual {r} at (s={s}, l={l})");
            }
        }
    }

    #[test]
    fn single_action_library_is_policy_evaluation() {
        // With only RND available, VI computes the RND value function; the
        // value at ν₀ must match a Monte-Carlo discounted return of MF-RND.
        let cfg = small_config();
        let lib = ActionLibrary::new(vec![("RND".into(), rnd_rule(cfg.num_states(), cfg.d))]);
        let sol = DpSolution::solve(&cfg, lib, &small_dp());
        let mdp = MeanFieldMdp::new(cfg.clone());
        let policy = FixedRulePolicy::new(rnd_rule(cfg.num_states(), cfg.d), "MF-RND");
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Summary::new();
        // Horizon long enough for γ^T to be negligible at γ = 0.99.
        for _ in 0..64 {
            s.push(mdp.rollout(&policy, 900, &mut rng).discounted_return);
        }
        let v0 =
            0.5 * (sol.value(&StateDist::all_empty(3), 0) + sol.value(&StateDist::all_empty(3), 1));
        let tol = 4.0 * s.std_err() + 0.02 * s.mean().abs();
        assert!(
            (v0 - s.mean()).abs() < tol,
            "DP value {v0} vs MC discounted return {} (tol {tol})",
            s.mean()
        );
    }

    #[test]
    fn dp_value_dominates_every_single_action_value() {
        // The optimal value over the library is ≥ the value of each fixed
        // action, at every lattice state (monotonicity of the Bellman
        // operator in the action set).
        let cfg = small_config();
        let zs = cfg.num_states();
        let full = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &small_dp());
        for only in [0usize, 5, 9] {
            let lib = ActionLibrary::softmin_default(zs, cfg.d);
            let single =
                ActionLibrary::new(vec![(lib.name(only).to_string(), lib.rule(only).clone())]);
            let fixed = DpSolution::solve(&cfg, single, &small_dp());
            for s in (0..full.grid().num_points()).step_by(23) {
                let nu = full.grid().point(s);
                for l in 0..2 {
                    assert!(
                        full.value(&nu, l) >= fixed.value(&nu, l) - 1e-6,
                        "action {only}: optimal {} < fixed {} at (s={s}, l={l})",
                        full.value(&nu, l),
                        fixed.value(&nu, l)
                    );
                }
            }
        }
    }

    #[test]
    fn grid_policy_beats_jsq_and_rnd_in_true_mdp() {
        // Deploy the greedy DP policy in the *continuous* MFC MDP at
        // Δt = 5 and compare against the paper's baselines on common
        // arrival sequences.
        let cfg = small_config();
        let zs = cfg.num_states();
        let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &small_dp());
        let dp_policy = sol.into_policy();
        let mdp = MeanFieldMdp::new(cfg.clone());
        let jsq = FixedRulePolicy::new(jsq_rule(zs, cfg.d), "MF-JSQ(2)");
        let rnd = FixedRulePolicy::new(rnd_rule(zs, cfg.d), "MF-RND");
        let mut rng = StdRng::seed_from_u64(3);
        let horizon = 100;
        let (mut v_dp, mut v_jsq, mut v_rnd) = (0.0, 0.0, 0.0);
        for _ in 0..10 {
            let seq: Vec<usize> = {
                let mut s = vec![cfg.arrivals.sample_initial(&mut rng)];
                for t in 1..horizon {
                    let prev = s[t - 1];
                    s.push(cfg.arrivals.step(prev, &mut rng));
                }
                s
            };
            v_dp += mdp.rollout_conditioned(&dp_policy, &seq).total_return;
            v_jsq += mdp.rollout_conditioned(&jsq, &seq).total_return;
            v_rnd += mdp.rollout_conditioned(&rnd, &seq).total_return;
        }
        assert!(v_dp >= v_jsq, "DP ({v_dp:.2}) must beat MF-JSQ(2) ({v_jsq:.2}) at dt=5");
        assert!(v_dp >= v_rnd, "DP ({v_dp:.2}) must beat MF-RND ({v_rnd:.2}) at dt=5");
    }

    #[test]
    fn interpolated_values_stabilize_across_resolutions() {
        let cfg = small_config();
        let zs = cfg.num_states();
        let v = |g: usize| {
            let dp = DpConfig { grid_resolution: g, ..small_dp() };
            let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &dp);
            sol.value(&StateDist::all_empty(3), 0)
        };
        let coarse = v(4);
        let fine = v(10);
        assert!(
            (coarse - fine).abs() < 0.05 * fine.abs().max(1.0),
            "coarse {coarse} vs fine {fine}: interpolation should stabilize values"
        );
    }

    #[test]
    fn threads_do_not_change_the_solution() {
        let cfg = small_config();
        let zs = cfg.num_states();
        let mk = |threads: usize| {
            let dp = DpConfig { threads, ..small_dp() };
            DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &dp)
        };
        let a = mk(1);
        let b = mk(4);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            assert_eq!(x, y, "value tables must be bit-identical across thread counts");
        }
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn policy_iteration_agrees_with_value_iteration() {
        let cfg = small_config();
        let zs = cfg.num_states();
        let vi = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &small_dp());
        let pi = DpSolution::solve_policy_iteration(
            &cfg,
            ActionLibrary::softmin_default(zs, cfg.d),
            &small_dp(),
        );
        assert!(pi.sweeps <= 30, "PI should need few improvement rounds, used {}", pi.sweeps);
        let mut max_diff = 0.0f64;
        for (a, b) in vi.values.iter().zip(pi.values.iter()) {
            max_diff = max_diff.max((a - b).abs());
        }
        // Both solvers stop at tol; values agree up to the combined
        // stopping slack amplified by 1/(1−γ).
        let slack = 2.0 * small_dp().tol / (1.0 - cfg.gamma);
        assert!(max_diff < slack.max(1e-4), "VI/PI value mismatch {max_diff}");
        // Greedy actions agree except where two actions tie in value.
        let disagreements = vi.best.iter().zip(pi.best.iter()).filter(|(a, b)| a != b).count();
        let frac = disagreements as f64 / vi.best.len() as f64;
        assert!(frac < 0.02, "VI/PI greedy policies differ on {frac:.3} of states");
    }

    #[test]
    fn checkpoint_roundtrip_preserves_solution_and_policy() {
        let cfg = small_config();
        let zs = cfg.num_states();
        let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &small_dp());
        let restored = DpSolution::from_checkpoint(sol.to_checkpoint());
        assert_eq!(sol.values, restored.values);
        assert_eq!(sol.best, restored.best);
        // The restored policy decides identically on arbitrary states.
        let probe = StateDist::new(vec![0.4, 0.3, 0.2, 0.1]);
        for l in 0..2 {
            assert_eq!(sol.greedy_action(&probe, l), restored.greedy_action(&probe, l));
            assert_eq!(sol.value(&probe, l), restored.value(&probe, l));
        }
    }

    #[test]
    fn checkpoint_json_roundtrip_on_disk() {
        let cfg = small_config();
        let zs = cfg.num_states();
        let dp = DpConfig { grid_resolution: 4, ..small_dp() };
        let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &dp);
        let dir = std::env::temp_dir().join("mflb_dp_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sol.json");
        sol.save_json(&path).unwrap();
        let loaded = DpSolution::load_json(&path).unwrap();
        assert_eq!(sol.values, loaded.values);
        assert_eq!(sol.best, loaded.best);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let cfg = small_config();
        let zs = cfg.num_states();
        let dp = DpConfig { grid_resolution: 3, ..small_dp() };
        let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &dp);
        let mut ckpt = sol.to_checkpoint();
        ckpt.values.pop();
        let result = std::panic::catch_unwind(|| DpSolution::from_checkpoint(ckpt));
        assert!(result.is_err(), "truncated value table must be rejected");
    }
}
