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
//! [`MeanFieldEnv`] is a thin adapter over [`MeanFieldMdp`]: it decodes
//! the action logits into a decision rule, encodes the observation and
//! counts the horizon, and the MDP runs the epoch (closure step, reward,
//! arrival-level chain). The closures themselves live in
//! [`mflb_core::mdp`]; [`crate::scenario_env`] picks one per scenario.

use crate::env::{Env, StepResult};
use crate::scenario_env::PolicyShape;
use mflb_core::mdp::{encode_observation, Closure, Integrand, MeanField, MeanFieldMdp, MfState};
use mflb_core::{DecisionRule, Exponential, SystemConfig};
use rand::rngs::StdRng;

/// The mean-field control environment over a [`Closure`].
#[derive(Clone)]
pub struct MeanFieldEnv<C> {
    mdp: MeanFieldMdp<C>,
    shape: PolicyShape,
    state: MfState<C>,
    horizon: usize,
}

impl<C: Closure> MeanFieldEnv<C> {
    /// Creates the environment with the configured training horizon.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(config: SystemConfig, closure: C) -> Self {
        let shape = PolicyShape::with_rule_states(&config, closure.rule_states());
        let horizon = config.train_episode_len;
        let state = MfState { closure: closure.clone(), lambda_idx: 0, t: 0 };
        Self { mdp: MeanFieldMdp::with_closure(config, closure), shape, state, horizon }
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
        let state = &self.state;
        encode_observation(&state.closure.observed(), state.lambda_idx, self.shape.num_levels)
    }
}

impl MeanFieldEnv<MeanField> {
    /// The paper's full-mesh model.
    pub fn homogeneous(config: SystemConfig) -> Self {
        Self::new(config.clone(), MeanField::new(&config, Exponential, Integrand::FullMesh))
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
        self.state = self.mdp.initial_state(rng);
        self.observe()
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> StepResult {
        let rule = self.decode_action(action);
        let reward = self.mdp.advance(&mut self.state, &rule, None, rng);
        StepResult { obs: self.observe(), reward, done: self.state.t >= self.horizon }
    }

    fn boxed_clone(&self) -> Box<dyn Env> {
        let mut fresh = self.clone();
        fresh.state = MfState { closure: self.mdp.closure().clone(), lambda_idx: 0, t: 0 };
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

    fn env() -> MeanFieldEnv<MeanField> {
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
        let lam = e.mdp.config().arrivals.level_rate(e.state.lambda_idx);
        let nu = e.state.closure.dist();
        let expected = mflb_core::mean_field_step(nu, &DecisionRule::uniform(6, 2), lam, 1.0, 5.0)
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
