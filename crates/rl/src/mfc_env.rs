//! The MFC-MDP as a PPO environment, generic over its mean-field closure.
//!
//! Observation: `[ν_t (B+1 dims), onehot(λ_t)]` (the canonical encoding
//! from `mflb_core::mdp`). Action: a continuous vector of `|Z|^d·d`
//! decision-rule logits, softmax-normalized per observation tuple into
//! `h_t` — the paper's "manual normalization" parameterization (§4).
//! Reward: `−D_t` (expected per-queue drops of the epoch, plus the
//! optional holding cost). Episodes last `horizon` decision epochs
//! (Table 1: T = 500 for training).
//!
//! [`MeanFieldEnv`] owns everything every scenario kind shares: the
//! arrival-level chain, the reward, the horizon and the encoding. A
//! [`Closure`] supplies only the hidden mean-field state, its one-epoch
//! transition and the distribution the policy observes; the env restarts
//! every episode from a pristine copy of the closure as constructed.
//! [`Homogeneous`] is the paper's own closure; the scenario closures live
//! in [`crate::scenario_env`].

use crate::env::{Env, StepResult};
use crate::scenario_env::PolicyShape;
use mflb_core::mdp::encode_observation;
use mflb_core::{
    graph_arrival_rates, mean_field_step_with_rates, per_state_arrival_rates, DecisionRule,
    StateDist, SystemConfig,
};
use rand::rngs::StdRng;

/// The part of the mean-field control MDP that varies between scenario
/// kinds: the hidden state and its transition. A closure is constructed
/// at its `t = 0` state (`ν₀`).
pub trait Closure: Clone + Send + 'static {
    /// States of the decision rule the policy emits.
    fn rule_states(&self) -> usize;

    /// The length distribution the policy observes.
    fn observed(&self) -> StateDist;

    /// Advances one epoch `[t0, t0 + dt)` under `rule` at per-queue
    /// arrival rate `lambda`. Returns `(expected_drops, true_mean_len)`:
    /// the per-queue drops of the epoch and the true (not the observed)
    /// mean queue length at its end, which the holding cost charges.
    fn step(
        &mut self,
        rule: &DecisionRule,
        lambda: f64,
        t0: f64,
        dt: f64,
        rng: &mut StdRng,
    ) -> (f64, f64);
}

/// The per-state arrival-rate integrand `λ_t(ν, z)` (Eq. 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Integrand {
    /// The paper's full-mesh Eq. 22.
    FullMesh,
    /// The annealed degree-indexed closure over closed neighborhoods of
    /// size `k` (see [`mflb_core::graph_meanfield`]).
    Graph {
        /// Closed-neighborhood size `k ≥ 1` in the `M → ∞` limit.
        k: usize,
    },
}

impl Integrand {
    /// The per-state arrival rates under `rule` from the measure `nu`.
    pub(crate) fn rates(self, nu: &StateDist, rule: &DecisionRule, lambda: f64) -> Vec<f64> {
        match self {
            Integrand::FullMesh => per_state_arrival_rates(nu, rule, lambda),
            Integrand::Graph { k } => graph_arrival_rates(nu, rule, lambda, k),
        }
    }
}

/// The homogeneous exponential mean field (Eq. 20–28) over an
/// arrival-rate integrand; the policy observes the whole state `ν_t`.
#[derive(Debug, Clone)]
pub struct Homogeneous {
    integrand: Integrand,
    service_rate: f64,
    nu: StateDist,
}

impl Homogeneous {
    /// The closure at `ν₀` with the config's service rate.
    pub(crate) fn new(config: &SystemConfig, integrand: Integrand) -> Self {
        let nu = StateDist::new(config.initial_dist.clone());
        Self { integrand, service_rate: config.service_rate, nu }
    }
}

impl Closure for Homogeneous {
    fn rule_states(&self) -> usize {
        self.nu.num_states()
    }

    fn observed(&self) -> StateDist {
        self.nu.clone()
    }

    fn step(
        &mut self,
        rule: &DecisionRule,
        lambda: f64,
        _t0: f64,
        dt: f64,
        _rng: &mut StdRng,
    ) -> (f64, f64) {
        let rates = self.integrand.rates(&self.nu, rule, lambda);
        let step = mean_field_step_with_rates(&self.nu, rates, self.service_rate, dt);
        self.nu = step.next_dist;
        (step.expected_drops, self.nu.mean_queue_length())
    }
}

/// The mean-field control environment over a [`Closure`].
#[derive(Clone)]
pub struct MeanFieldEnv<C> {
    config: SystemConfig,
    shape: PolicyShape,
    /// The closure at `t = 0`, cloned into `closure` on every reset.
    initial: C,
    closure: C,
    lambda_idx: usize,
    t: usize,
    horizon: usize,
}

impl<C: Closure> MeanFieldEnv<C> {
    /// Creates the environment with the configured training horizon.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(config: SystemConfig, closure: C) -> Self {
        config.validate().expect("invalid system configuration");
        let shape = PolicyShape::with_rule_states(&config, closure.rule_states());
        let horizon = config.train_episode_len;
        Self { config, shape, initial: closure.clone(), closure, lambda_idx: 0, t: 0, horizon }
    }

    /// Replaces the episode horizon.
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        assert!(horizon >= 1);
        self.horizon = horizon;
        self
    }

    /// Decodes a raw action vector into the decision rule it induces.
    pub fn decode_action(&self, action: &[f64]) -> DecisionRule {
        DecisionRule::from_logits(self.shape.rule_states, self.shape.d, action)
    }

    fn observe(&self) -> Vec<f64> {
        encode_observation(&self.closure.observed(), self.lambda_idx, self.shape.num_levels)
    }
}

impl MeanFieldEnv<Homogeneous> {
    /// The paper's full-mesh model.
    pub fn homogeneous(config: SystemConfig) -> Self {
        Self::new(config.clone(), Homogeneous::new(&config, Integrand::FullMesh))
    }
}

impl<C: Closure> Env for MeanFieldEnv<C> {
    fn obs_dim(&self) -> usize {
        self.shape.obs_dim()
    }

    fn act_dim(&self) -> usize {
        self.shape.act_dim()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.closure = self.initial.clone();
        self.lambda_idx = self.config.arrivals.sample_initial(rng);
        self.t = 0;
        self.observe()
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> StepResult {
        let rule = self.decode_action(action);
        let dt = self.config.dt;
        let lambda = self.config.arrivals.level_rate(self.lambda_idx);
        let (drops, mean_len) = self.closure.step(&rule, lambda, self.t as f64 * dt, dt, rng);
        let mut cost = drops;
        if self.config.holding_cost > 0.0 {
            cost += self.config.holding_cost * mean_len * dt;
        }
        self.lambda_idx = self.config.arrivals.step(self.lambda_idx, rng);
        self.t += 1;
        StepResult { obs: self.observe(), reward: -cost, done: self.t >= self.horizon }
    }

    fn boxed_clone(&self) -> Box<dyn Env> {
        let mut fresh = self.clone();
        (fresh.closure, fresh.lambda_idx, fresh.t) = (self.initial.clone(), 0, 0);
        Box::new(fresh)
    }

    fn horizon_hint(&self) -> Option<usize> {
        Some(self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn env() -> MeanFieldEnv<Homogeneous> {
        MeanFieldEnv::homogeneous(SystemConfig::paper().with_dt(5.0)).with_horizon(20)
    }

    #[test]
    fn dimensions_match_paper_shapes() {
        let e = env();
        assert_eq!(e.obs_dim(), 6 + 2);
        assert_eq!(e.act_dim(), 36 * 2);
    }

    #[test]
    fn episode_runs_to_horizon() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(1);
        let obs = e.reset(&mut rng);
        assert_eq!(obs.len(), 8);
        // ν₀ = δ₀ encoding.
        assert_eq!(obs[0], 1.0);
        let zero_action = vec![0.0; e.act_dim()];
        let mut steps = 0;
        loop {
            let r = e.step(&zero_action, &mut rng);
            steps += 1;
            assert!(r.reward <= 0.0, "reward is minus drops");
            assert!(r.obs.len() == 8);
            let mass: f64 = r.obs[..6].iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "ν stays a distribution");
            if r.done {
                break;
            }
        }
        assert_eq!(steps, 20);
    }

    #[test]
    fn zero_logits_act_like_mf_rnd() {
        // All-zero logits -> uniform rule; the first-step reward must match
        // the MF-RND step from ν₀ under the sampled λ.
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(2);
        e.reset(&mut rng);
        let lam = e.config.arrivals.level_rate(e.lambda_idx);
        let expected =
            mflb_core::mean_field_step(&e.closure.nu, &DecisionRule::uniform(6, 2), lam, 1.0, 5.0)
                .expected_drops;
        let r = e.step(&vec![0.0; e.act_dim()], &mut rng);
        assert!((r.reward + expected).abs() < 1e-12);
    }

    #[test]
    fn decode_action_shape() {
        let e = env();
        let rule = e.decode_action(&vec![0.25; e.act_dim()]);
        assert_eq!(rule.num_rows(), 36);
        for row in 0..36 {
            assert!((rule.prob_by_row(row, 0) - 0.5).abs() < 1e-12);
        }
    }
}
