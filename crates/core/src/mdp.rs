//! The upper-level mean-field control MDP (Eq. 29–31).
//!
//! State: `(ν_t, λ_t)` — the queue-state distribution plus the current
//! arrival-rate level. Action: a lower-level decision rule `h_t`. The
//! `ν`-transition is *deterministic* (exact discretization); all
//! stochasticity comes from the Markov-modulated arrival rate. Reward:
//! `−D_t`, the negative expected per-queue drops of the epoch.
//!
//! [`MeanFieldMdp`] runs the episode over any [`Closure`]: the
//! [`MeanField`] of a [`ServiceModel`](crate::service::ServiceModel) —
//! the paper's exponential model, heterogeneous pools or phase-type
//! service — over either [`Integrand`], and the fault-degraded two-pool
//! model ([`TwoPool`]).

mod closures;

pub use closures::{Closure, Integrand, MeanField, TwoPool};

use crate::config::SystemConfig;
use crate::dist::StateDist;
use crate::rule::DecisionRule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Encodes the MFC-MDP observation fed to learned policies:
/// `[ν(0..B), onehot(λ_idx)]`. Canonical encoder shared by the RL
/// environment adapter and the deployed neural policy so the two can never
/// drift apart.
pub fn encode_observation(dist: &StateDist, lambda_idx: usize, num_levels: usize) -> Vec<f64> {
    let mut obs = Vec::with_capacity(dist.num_states() + num_levels);
    encode_observation_into(dist, lambda_idx, num_levels, &mut obs);
    obs
}

/// Allocation-free twin of [`encode_observation`]: clears `out` and fills
/// it in place, reusing its capacity (the deployed policy's per-epoch
/// decision path calls this with a pooled scratch vector).
pub fn encode_observation_into(
    dist: &StateDist,
    lambda_idx: usize,
    num_levels: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend_from_slice(dist.as_slice());
    for l in 0..num_levels {
        out.push(if l == lambda_idx { 1.0 } else { 0.0 });
    }
}

/// Observation dimensionality of [`encode_observation`].
pub fn observation_dim(num_states: usize, num_levels: usize) -> usize {
    num_states + num_levels
}

/// Action (decision-rule logit) dimensionality: `|Z|^d · d`.
pub fn action_dim(num_states: usize, d: usize) -> usize {
    num_states.pow(d as u32) * d
}

/// A batch of stacked policy observations collected for one decision
/// epoch (or one lockstep sweep over several episodes).
///
/// Each pushed observation is encoded immediately into a contiguous
/// row-major buffer with the exact [`encode_observation_into`] layout —
/// `[ν(0..B), onehot(λ_idx)]` — so a neural policy can run **one** batched
/// matrix product over [`ObservationBatch::as_slice`] instead of one gemv
/// per observation. The original `(dist, λ_idx, λ)` triples are retained
/// so non-neural policies (and the default [`UpperPolicy::decide_batch`])
/// can fall back to per-observation [`UpperPolicy::decide`] calls.
///
/// The batch reuses its row buffer across [`ObservationBatch::clear`]
/// calls, so steady-state encoding costs one `memcpy` per observation.
#[derive(Debug, Clone)]
pub struct ObservationBatch {
    num_states: usize,
    num_levels: usize,
    /// Row-major `len × (num_states + num_levels)` observation matrix.
    rows: Vec<f64>,
    dists: Vec<StateDist>,
    lambda_idxs: Vec<usize>,
    lambdas: Vec<f64>,
}

impl ObservationBatch {
    /// An empty batch for observations over `num_states` queue states and
    /// `num_levels` arrival levels.
    pub fn new(num_states: usize, num_levels: usize) -> Self {
        Self {
            num_states,
            num_levels,
            rows: Vec::new(),
            dists: Vec::new(),
            lambda_idxs: Vec::new(),
            lambdas: Vec::new(),
        }
    }

    /// Empties the batch, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.dists.clear();
        self.lambda_idxs.clear();
        self.lambdas.clear();
    }

    /// Appends one observation, encoding it into the stacked row buffer.
    ///
    /// # Panics
    /// Panics if `dist` does not have the batch's `num_states` states.
    pub fn push(&mut self, dist: StateDist, lambda_idx: usize, lambda: f64) {
        assert_eq!(dist.num_states(), self.num_states, "observation batch state count");
        self.rows.extend_from_slice(dist.as_slice());
        for l in 0..self.num_levels {
            self.rows.push(if l == lambda_idx { 1.0 } else { 0.0 });
        }
        self.dists.push(dist);
        self.lambda_idxs.push(lambda_idx);
        self.lambdas.push(lambda);
    }

    /// Number of stacked observations.
    pub fn len(&self) -> usize {
        self.dists.len()
    }

    /// Whether the batch holds no observations.
    pub fn is_empty(&self) -> bool {
        self.dists.is_empty()
    }

    /// Width of one encoded observation row
    /// ([`observation_dim`]`(num_states, num_levels)`).
    pub fn obs_dim(&self) -> usize {
        observation_dim(self.num_states, self.num_levels)
    }

    /// The stacked row-major `len × obs_dim` observation matrix.
    pub fn as_slice(&self) -> &[f64] {
        &self.rows
    }

    /// The `i`-th observation's queue-state distribution.
    pub fn dist(&self, i: usize) -> &StateDist {
        &self.dists[i]
    }

    /// The `i`-th observation's arrival-level index.
    pub fn lambda_idx(&self, i: usize) -> usize {
        self.lambda_idxs[i]
    }

    /// The `i`-th observation's arrival rate `λ`.
    pub fn lambda(&self, i: usize) -> f64 {
        self.lambdas[i]
    }
}

/// An upper-level policy `π̃ : P(Z) × Λ → H` (Eq. 30): maps the observed
/// queue-state distribution and arrival level to a decision rule.
///
/// Implementations may be deterministic (the optimal stationary policy of
/// Proposition 1) or stochastic (PPO exploration); stochastic ones carry
/// their own RNG state internally or sample outside this trait.
pub trait UpperPolicy {
    /// Produces the decision rule for the epoch.
    fn decide(&self, dist: &StateDist, lambda_idx: usize, lambda: f64) -> DecisionRule;

    /// Produces one decision rule per stacked observation, writing
    /// `out[i]` for observation `i` (`out` must have exactly
    /// [`ObservationBatch::len`] slots; every slot is overwritten).
    ///
    /// The default implementation loops [`UpperPolicy::decide`], so
    /// table-driven policies (JSQ, RND, softmin, distilled) and external
    /// implementors keep working unchanged. Policies with a batched fast
    /// path (one gemm over the whole batch instead of one gemv per
    /// observation) override this; overrides must stay **bit-identical**
    /// to the sequential path so seed-pinned runs are unperturbed.
    fn decide_batch(&self, batch: &ObservationBatch, out: &mut [DecisionRule]) {
        assert_eq!(out.len(), batch.len(), "decide_batch output slots");
        for i in 0..batch.len() {
            out[i] = self.decide(batch.dist(i), batch.lambda_idx(i), batch.lambda(i));
        }
    }

    /// Human-readable identifier used by the experiment harness.
    fn name(&self) -> &str {
        "policy"
    }
}

/// A constant upper-level policy applying a fixed decision rule regardless
/// of the state — the paper's MF-JSQ(2) and MF-RND baselines.
#[derive(Debug, Clone)]
pub struct FixedRulePolicy {
    rule: DecisionRule,
    name: String,
}

impl FixedRulePolicy {
    /// Wraps a fixed rule.
    pub fn new(rule: DecisionRule, name: impl Into<String>) -> Self {
        Self { rule, name: name.into() }
    }

    /// The wrapped rule.
    pub fn rule(&self) -> &DecisionRule {
        &self.rule
    }
}

impl UpperPolicy for FixedRulePolicy {
    fn decide(&self, _dist: &StateDist, _lambda_idx: usize, _lambda: f64) -> DecisionRule {
        self.rule.clone()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Record of one rolled-out episode.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpisodeRecord {
    /// Per-epoch expected per-queue drops `D_t`.
    pub drops_per_epoch: Vec<f64>,
    /// Undiscounted episode return `−Σ_t D_t` (the quantity plotted in
    /// Fig. 3–6).
    pub total_return: f64,
    /// Discounted return `−Σ_t γ^t D_t` (the training objective, Eq. 31).
    pub discounted_return: f64,
}

/// A state of the MFC MDP: the closure's mean-field state at epoch `t`
/// and the arrival level `λ_t` in force during that epoch.
#[derive(Debug, Clone)]
pub struct MfState<C = MeanField> {
    /// The closure's hidden mean-field state.
    pub closure: C,
    /// Index into the arrival process' level set.
    pub lambda_idx: usize,
    /// Epoch index `t` (the epoch starts at time `t·Δt`).
    pub t: usize,
}

/// The mean-field control MDP over a [`Closure`], by default the paper's
/// full-mesh exponential [`MeanField`].
///
/// This is the one owner of the episode: the initial level draw, the
/// policy decision on [`Closure::observed`], the closure step, the epoch
/// cost and the arrival-level advance. The RL environment adapter and the
/// DP step through the same [`MeanFieldMdp::epoch`].
#[derive(Debug, Clone)]
pub struct MeanFieldMdp<C = MeanField> {
    config: SystemConfig,
    /// The closure at `t = 0`; every episode starts from a copy.
    closure: C,
}

impl MeanFieldMdp {
    /// The paper's full-mesh MDP from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(config: SystemConfig) -> Self {
        let closure = MeanField::new(&config, crate::service::Exponential, Integrand::FullMesh);
        Self::with_closure(config, closure)
    }
}

impl<C: Closure> MeanFieldMdp<C> {
    /// The MDP over `closure`, which must be at its `t = 0` state.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn with_closure(config: SystemConfig, closure: C) -> Self {
        config.validate().expect("invalid system configuration");
        Self { config, closure }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The closure at `t = 0`.
    pub fn closure(&self) -> &C {
        &self.closure
    }

    /// Samples the initial state: the closure at `ν₀`, `λ₀` from the
    /// arrival process' initial distribution.
    pub fn initial_state<R: Rng + ?Sized>(&self, rng: &mut R) -> MfState<C> {
        let lambda_idx = self.config.arrivals.sample_initial(rng);
        MfState { closure: self.closure.clone(), lambda_idx, t: 0 }
    }

    /// Epoch `t` at arrival level `lambda_idx`: advances `closure` under
    /// `rule` and returns the reward `−D_t`. Deterministic; the arrival
    /// level is not advanced.
    pub fn epoch(&self, closure: &mut C, rule: &DecisionRule, lambda_idx: usize, t: usize) -> f64 {
        let dt = self.config.dt;
        let lambda = self.config.arrivals.level_rate(lambda_idx);
        let (drops, mean_len) = closure.step(rule, lambda, t as f64 * dt, dt);
        // Objective: drops, plus the optional holding-cost extension
        // (queueing penalized per job-time-unit; end-of-epoch length is the
        // exactly available statistic).
        let mut cost = drops;
        if self.config.holding_cost > 0.0 {
            cost += self.config.holding_cost * mean_len * dt;
        }
        -cost
    }

    /// One MDP transition: the [`MeanFieldMdp::epoch`] of `state` under
    /// `rule`, the closure's observation refresh, then the arrival level
    /// — `next_lambda` if prescribed (conditioning on the arrival
    /// sequence, as in Theorem 1), else drawn from the chain. Returns the
    /// reward `−D_t`.
    pub fn advance<R: Rng + ?Sized>(
        &self,
        state: &mut MfState<C>,
        rule: &DecisionRule,
        next_lambda: Option<usize>,
        rng: &mut R,
    ) -> f64 {
        let reward = self.epoch(&mut state.closure, rule, state.lambda_idx, state.t);
        state.closure.refresh(rng);
        state.lambda_idx =
            next_lambda.unwrap_or_else(|| self.config.arrivals.step(state.lambda_idx, rng));
        state.t += 1;
        reward
    }

    /// The episode loop: `horizon` epochs under `policy` from `state`,
    /// with the levels after `state`'s taken from `levels` if given.
    fn run<R: Rng + ?Sized>(
        &self,
        policy: &dyn UpperPolicy,
        mut state: MfState<C>,
        horizon: usize,
        levels: Option<&[usize]>,
        rng: &mut R,
    ) -> EpisodeRecord {
        let mut rec = EpisodeRecord::default();
        let mut discount = 1.0;
        for t in 0..horizon {
            let lambda = self.config.arrivals.level_rate(state.lambda_idx);
            let rule = policy.decide(&state.closure.observed(), state.lambda_idx, lambda);
            let next = levels.map(|seq| *seq.get(t + 1).unwrap_or(&state.lambda_idx));
            let reward = self.advance(&mut state, &rule, next, rng);
            rec.drops_per_epoch.push(-reward);
            rec.total_return += reward;
            rec.discounted_return += discount * reward;
            discount *= self.config.gamma;
        }
        rec
    }

    /// Rolls out `horizon` epochs under an upper-level policy.
    pub fn rollout<R: Rng + ?Sized>(
        &self,
        policy: &dyn UpperPolicy,
        horizon: usize,
        rng: &mut R,
    ) -> EpisodeRecord {
        let state = self.initial_state(rng);
        self.run(policy, state, horizon, None, rng)
    }

    /// Deterministic rollout conditioned on an explicit arrival-level
    /// sequence `lambda_seq[0..horizon]` (`lambda_seq[t]` is the level in
    /// force during epoch `t`). A closure that draws its own noise (the
    /// observation drops of [`TwoPool`]) draws it from a fixed-seed
    /// stream, so the result is a function of the sequence alone.
    pub fn rollout_conditioned(
        &self,
        policy: &dyn UpperPolicy,
        lambda_seq: &[usize],
    ) -> EpisodeRecord {
        let state = MfState { closure: self.closure.clone(), lambda_idx: lambda_seq[0], t: 0 };
        let mut rng = StdRng::seed_from_u64(0);
        self.run(policy, state, lambda_seq.len(), Some(lambda_seq), &mut rng)
    }

    /// Monte-Carlo estimate of the expected undiscounted episode return
    /// over `episodes` independent arrival sequences.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        policy: &dyn UpperPolicy,
        horizon: usize,
        episodes: usize,
        rng: &mut R,
    ) -> mflb_linalg::stats::Summary {
        let mut s = mflb_linalg::stats::Summary::new();
        for _ in 0..episodes {
            s.push(self.rollout(policy, horizon, rng).total_return);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> SystemConfig {
        SystemConfig::paper().with_dt(5.0)
    }

    fn jsq_rule() -> DecisionRule {
        DecisionRule::from_fn(6, 2, |t| {
            use std::cmp::Ordering::*;
            match t[0].cmp(&t[1]) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        })
    }

    #[test]
    fn rollout_accumulates_consistent_returns() {
        let mdp = MeanFieldMdp::new(small_config());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(6, 2), "MF-RND");
        let mut rng = StdRng::seed_from_u64(1);
        let rec = mdp.rollout(&policy, 50, &mut rng);
        assert_eq!(rec.drops_per_epoch.len(), 50);
        let sum: f64 = rec.drops_per_epoch.iter().sum();
        assert!((rec.total_return + sum).abs() < 1e-10);
        assert!(rec.discounted_return <= 0.0);
        assert!(rec.total_return <= rec.discounted_return); // discount shrinks losses
    }

    #[test]
    fn conditioned_rollout_is_deterministic() {
        let mdp = MeanFieldMdp::new(small_config());
        let policy = FixedRulePolicy::new(jsq_rule(), "MF-JSQ(2)");
        let seq = vec![0usize; 30];
        let a = mdp.rollout_conditioned(&policy, &seq);
        let b = mdp.rollout_conditioned(&policy, &seq);
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }

    #[test]
    fn high_arrival_sequence_drops_more_than_low() {
        let mdp = MeanFieldMdp::new(small_config());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(6, 2), "MF-RND");
        let high = mdp.rollout_conditioned(&policy, &vec![0usize; 40]); // λ_h = 0.9
        let low = mdp.rollout_conditioned(&policy, &vec![1usize; 40]); // λ_l = 0.6
        assert!(
            high.total_return < low.total_return,
            "high load must drop more: {} vs {}",
            high.total_return,
            low.total_return
        );
    }

    #[test]
    fn seeded_rollouts_reproduce() {
        let mdp = MeanFieldMdp::new(small_config());
        let policy = FixedRulePolicy::new(jsq_rule(), "MF-JSQ(2)");
        let a = mdp.rollout(&policy, 25, &mut StdRng::seed_from_u64(7));
        let b = mdp.rollout(&policy, 25, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }

    #[test]
    fn evaluate_returns_reasonable_summary() {
        let mdp = MeanFieldMdp::new(small_config());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(6, 2), "MF-RND");
        let mut rng = StdRng::seed_from_u64(3);
        let s = mdp.evaluate(&policy, 20, 10, &mut rng);
        assert_eq!(s.count(), 10);
        assert!(s.mean() < 0.0, "a loaded system must drop packets");
        // Bound: per epoch at most λ_max·Δt drops.
        assert!(s.mean() > -(0.9 * 5.0 * 20.0));
    }

    #[test]
    fn holding_cost_extension_changes_objective_and_ranks_policies() {
        // Large buffer, light load: pure-drop objective is ~0 everywhere,
        // but with a holding cost JSQ (which balances load, reducing total
        // backlog only weakly) and RND differ through their queue-length
        // distributions; the reward must become strictly negative and
        // JSQ must not be worse than RND.
        let cfg = SystemConfig::paper().with_buffer(20).with_dt(2.0).with_holding_cost(0.1);
        let mdp = MeanFieldMdp::new(cfg);
        let jsq = FixedRulePolicy::new(
            DecisionRule::from_fn(21, 2, |t| {
                use std::cmp::Ordering::*;
                match t[0].cmp(&t[1]) {
                    Less => vec![1.0, 0.0],
                    Greater => vec![0.0, 1.0],
                    Equal => vec![0.5, 0.5],
                }
            }),
            "MF-JSQ(2)",
        );
        let rnd = FixedRulePolicy::new(DecisionRule::uniform(21, 2), "MF-RND");
        let seq = vec![0usize; 40];
        let j = mdp.rollout_conditioned(&jsq, &seq).total_return;
        let r = mdp.rollout_conditioned(&rnd, &seq).total_return;
        assert!(j < 0.0 && r < 0.0, "holding cost must make rewards negative");
        assert!(j >= r, "JSQ must not hold more jobs than RND: {j} vs {r}");
    }

    #[test]
    fn drops_vanish_for_huge_buffer_light_load() {
        let cfg = SystemConfig::paper().with_buffer(30).with_dt(1.0);
        let mdp = MeanFieldMdp::new(cfg);
        let policy = FixedRulePolicy::new(DecisionRule::uniform(31, 2), "MF-RND");
        let mut rng = StdRng::seed_from_u64(4);
        let rec = mdp.rollout(&policy, 10, &mut rng);
        assert!(rec.total_return.abs() < 1e-6, "return {}", rec.total_return);
    }
}
