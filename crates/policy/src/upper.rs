//! The learned upper-level policy: a neural network mapping the mean-field
//! state `(ν_t, λ_t)` to decision-rule logits (Fig. 2).
//!
//! Observation encoding: the `B+1` probabilities of `ν_t` concatenated with
//! a one-hot encoding of the arrival level. Action decoding: the network's
//! `|Z|^d·d` outputs are treated as logits and row-softmax-normalized into
//! a [`DecisionRule`] ("manual normalization", §4 — the Dirichlet head the
//! authors tried performed worse).
//!
//! At evaluation time the policy is deterministic (the Gaussian
//! exploration noise used during PPO training is dropped and the mean
//! logits are used directly), matching how the paper deploys the trained
//! MF policy in finite systems (Algorithm 1).

use mflb_core::mdp::{encode_observation_into, ObservationBatch, UpperPolicy};
use mflb_core::{DecisionRule, StateDist};
use mflb_nn::{F32Mlp, F32Workspace, Mlp, TanhMode, Workspace};
use std::sync::Mutex;

// Canonical encoders live in `mflb_core::mdp` so the RL environment and the
// deployed policy can never drift apart; re-exported here for convenience.
pub use mflb_core::mdp::{action_dim, encode_observation, observation_dim};

/// How a [`NeuralUpperPolicy`] evaluates its network at decision time.
///
/// The default (`BitCompat` tanh, `f64` weights) reproduces every pinned
/// checkpoint and regression stream bit-for-bit. The other tiers trade
/// bit-identity for speed and are surfaced on the CLI as `--fast-math`
/// and `--precision f32`:
///
/// * [`TanhMode::Fast`] — rational-polynomial tanh, ~1e-7 absolute error;
/// * `f32_weights` — narrowed single-precision weights, halving weight
///   streaming; certified by the eval gate before serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InferenceConfig {
    /// `tanh` evaluation mode for the policy network.
    pub tanh_mode: TanhMode,
    /// Run inference through a narrowed [`F32Mlp`] copy of the weights.
    pub f32_weights: bool,
}

impl InferenceConfig {
    /// True iff this config is the bit-compatible default tier.
    pub fn is_bit_compat(&self) -> bool {
        self.tanh_mode == TanhMode::BitCompat && !self.f32_weights
    }

    /// A short human label for reports: `f64`, `f64+fast-tanh`,
    /// `f32`, or `f32+fast-tanh`.
    pub fn label(&self) -> &'static str {
        match (self.f32_weights, self.tanh_mode) {
            (false, TanhMode::BitCompat) => "f64",
            (false, TanhMode::Fast) => "f64+fast-tanh",
            (true, TanhMode::BitCompat) => "f32",
            (true, TanhMode::Fast) => "f32+fast-tanh",
        }
    }
}

/// Reusable per-decision scratch: the encoded observation vector, the
/// network workspace driving the batch-1 `gemv` / batched gemm inference
/// paths, and the `f32`-tier scratch (workspace + widened logits).
#[derive(Debug, Default)]
struct DecideScratch {
    obs: Vec<f64>,
    ws: Workspace,
    ws32: F32Workspace,
    logits64: Vec<f64>,
}

/// The neural upper-level policy π̃.
#[derive(Debug)]
pub struct NeuralUpperPolicy {
    net: Mlp,
    /// States of the *observed* distribution (queue lengths: `B + 1`).
    obs_states: usize,
    /// States of the emitted decision rule. Equal to `obs_states` for
    /// homogeneous systems; `C·(B+1)` composite states for heterogeneous
    /// pools, whose engines observe lengths but route on `(length, class)`.
    rule_states: usize,
    d: usize,
    num_levels: usize,
    name: String,
    /// Narrowed single-precision copy of `net`, present iff the policy
    /// was configured with [`InferenceConfig::f32_weights`]; when set,
    /// both `decide` and `decide_batch` route through it so the
    /// sequential and batched paths always agree per tier.
    f32_net: Option<F32Mlp>,
    /// Pool of warmed-up [`DecideScratch`]es. `decide` takes `&self` and
    /// runs concurrently from parallel Monte-Carlo threads, so each call
    /// checks a scratch out of the pool (creating one on first use per
    /// concurrent caller) and returns it afterwards — steady-state
    /// decision epochs are allocation-free and the lock is held only for
    /// the pop/push, never across the network forward.
    scratch: Mutex<Vec<DecideScratch>>,
}

impl Clone for NeuralUpperPolicy {
    fn clone(&self) -> Self {
        Self {
            net: self.net.clone(),
            obs_states: self.obs_states,
            rule_states: self.rule_states,
            d: self.d,
            num_levels: self.num_levels,
            name: self.name.clone(),
            f32_net: self.f32_net.clone(),
            scratch: Mutex::new(Vec::new()),
        }
    }
}

impl NeuralUpperPolicy {
    /// Wraps a network; the network's input/output dims must match the
    /// encoding implied by `(num_states, d, num_levels)`.
    pub fn new(net: Mlp, num_states: usize, d: usize, num_levels: usize) -> Self {
        Self::with_rule_space(net, num_states, num_states, d, num_levels)
    }

    /// Wraps a network whose decision rule lives on a *different* state
    /// space than the observation — the heterogeneous-pool case, where the
    /// policy observes the length distribution (`obs_states = B + 1`) but
    /// must emit a rule over composite `(length, class)` states
    /// (`rule_states = C·(B+1)`, see [`crate::composite_index`]).
    pub fn with_rule_space(
        net: Mlp,
        obs_states: usize,
        rule_states: usize,
        d: usize,
        num_levels: usize,
    ) -> Self {
        assert_eq!(
            net.input_dim(),
            observation_dim(obs_states, num_levels),
            "network input dim mismatch"
        );
        assert_eq!(net.output_dim(), action_dim(rule_states, d), "network output dim mismatch");
        Self {
            net,
            obs_states,
            rule_states,
            d,
            num_levels,
            name: "MF (learned)".into(),
            f32_net: None,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Reconfigures the inference tier (builder form): sets the network's
    /// [`TanhMode`] and, when `cfg.f32_weights` is set, narrows the
    /// weights into a single-precision copy that both [`UpperPolicy::decide`]
    /// and [`UpperPolicy::decide_batch`] route through.
    ///
    /// The default [`InferenceConfig`] restores the bit-compatible tier.
    pub fn with_inference(mut self, cfg: InferenceConfig) -> Self {
        self.net.set_tanh_mode(cfg.tanh_mode);
        self.f32_net = if cfg.f32_weights { Some(self.net.to_f32()) } else { None };
        self
    }

    /// The currently configured inference tier.
    pub fn inference(&self) -> InferenceConfig {
        InferenceConfig { tanh_mode: self.net.tanh_mode(), f32_weights: self.f32_net.is_some() }
    }

    /// Access to the wrapped network (e.g. for continued training).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Renames the policy (harness labels).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl UpperPolicy for NeuralUpperPolicy {
    fn decide(&self, dist: &StateDist, lambda_idx: usize, _lambda: f64) -> DecisionRule {
        debug_assert_eq!(dist.num_states(), self.obs_states, "observed distribution shape");
        // Check a scratch out of the pool: the observation encode and the
        // network forward then run allocation-free on warmed buffers
        // (bit-identical to the allocating encode + `forward_one` path).
        let mut scratch =
            self.scratch.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        encode_observation_into(dist, lambda_idx, self.num_levels, &mut scratch.obs);
        let rule = match &self.f32_net {
            None => {
                let logits = self.net.forward_one_into(&scratch.obs, &mut scratch.ws);
                DecisionRule::from_logits(self.rule_states, self.d, logits)
            }
            Some(f32net) => {
                let DecideScratch { obs, ws32, logits64, .. } = &mut scratch;
                let logits32 = f32net.forward_one_into(obs, ws32);
                logits64.clear();
                logits64.extend(logits32.iter().map(|&v| v as f64));
                DecisionRule::from_logits(self.rule_states, self.d, logits64)
            }
        };
        self.scratch.lock().expect("scratch pool poisoned").push(scratch);
        rule
    }

    /// Batched override: one gemm per layer over the whole stacked
    /// observation batch instead of `batch.len()` gemvs.
    ///
    /// In the bit-compatible tier this is **bit-identical** to looping
    /// [`UpperPolicy::decide`] — the gemm kernels accumulate each output
    /// row in exactly the per-row gemv order — so callers may batch
    /// freely without perturbing seed-pinned runs (property-tested). The
    /// `f32` and fast-tanh tiers agree with their own sequential `decide`
    /// path the same way.
    fn decide_batch(&self, batch: &ObservationBatch, out: &mut [DecisionRule]) {
        assert_eq!(out.len(), batch.len(), "decide_batch output slots");
        if batch.is_empty() {
            return;
        }
        debug_assert_eq!(
            batch.obs_dim(),
            observation_dim(self.obs_states, self.num_levels),
            "observation batch shape"
        );
        let mut scratch =
            self.scratch.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        match &self.f32_net {
            None => {
                let output =
                    self.net.forward_rows_into(batch.len(), batch.as_slice(), &mut scratch.ws);
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = DecisionRule::from_logits(self.rule_states, self.d, output.row(i));
                }
            }
            Some(f32net) => {
                let DecideScratch { ws32, logits64, .. } = &mut scratch;
                let logits32 = f32net.forward_rows_into(batch.len(), batch.as_slice(), ws32);
                let width = f32net.output_dim();
                for (i, slot) in out.iter_mut().enumerate() {
                    logits64.clear();
                    logits64.extend(logits32[i * width..(i + 1) * width].iter().map(|&v| v as f64));
                    *slot = DecisionRule::from_logits(self.rule_states, self.d, logits64);
                }
            }
        }
        self.scratch.lock().expect("scratch pool poisoned").push(scratch);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_nn::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_policy() -> NeuralUpperPolicy {
        let mut rng = StdRng::seed_from_u64(1);
        let obs = observation_dim(6, 2);
        let act = action_dim(6, 2);
        let net = Mlp::new(&[obs, 16, act], Activation::Tanh, &mut rng);
        NeuralUpperPolicy::new(net, 6, 2, 2)
    }

    #[test]
    fn observation_encoding_layout() {
        let dist = StateDist::new(vec![0.5, 0.2, 0.1, 0.1, 0.05, 0.05]);
        let obs = encode_observation(&dist, 1, 2);
        assert_eq!(obs.len(), 8);
        assert_eq!(&obs[..6], dist.as_slice());
        assert_eq!(&obs[6..], &[0.0, 1.0]);
    }

    #[test]
    fn decide_returns_valid_rule_and_is_deterministic() {
        let p = tiny_policy();
        let dist = StateDist::all_empty(5);
        let a = p.decide(&dist, 0, 0.9);
        let b = p.decide(&dist, 0, 0.9);
        assert!(a.max_abs_diff(&b) < 1e-15);
        for row in 0..a.num_rows() {
            let mass: f64 = a.row(row).iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn different_lambda_levels_can_change_the_rule() {
        let p = tiny_policy();
        let dist = StateDist::uniform(5);
        let a = p.decide(&dist, 0, 0.9);
        let b = p.decide(&dist, 1, 0.6);
        // A random net almost surely produces different logits for
        // different one-hot inputs.
        assert!(a.max_abs_diff(&b) > 1e-9);
    }

    #[test]
    fn decide_batch_bit_identical_to_sequential() {
        let p = tiny_policy();
        let dists = [
            StateDist::new(vec![0.5, 0.2, 0.1, 0.1, 0.05, 0.05]),
            StateDist::all_empty(5),
            StateDist::uniform(5),
        ];
        let mut batch = ObservationBatch::new(6, 2);
        for (i, d) in dists.iter().enumerate() {
            batch.push(d.clone(), i % 2, 0.9);
        }
        let mut out = vec![DecisionRule::uniform(1, 1); 3];
        p.decide_batch(&batch, &mut out);
        for (i, d) in dists.iter().enumerate() {
            let seq = p.decide(d, i % 2, 0.9);
            assert_eq!(
                seq.as_slice(),
                out[i].as_slice(),
                "batched row {i} diverged from sequential decide"
            );
        }
        // Reused (cleared) batch stays correct.
        batch.clear();
        batch.push(dists[2].clone(), 1, 0.6);
        let mut one = vec![DecisionRule::uniform(1, 1)];
        p.decide_batch(&batch, &mut one);
        assert_eq!(one[0].as_slice(), p.decide(&dists[2], 1, 0.6).as_slice());
    }

    #[test]
    fn inference_tiers_agree_between_decide_and_decide_batch() {
        let dist = StateDist::new(vec![0.4, 0.3, 0.1, 0.1, 0.05, 0.05]);
        for cfg in [
            InferenceConfig { tanh_mode: TanhMode::Fast, f32_weights: false },
            InferenceConfig { tanh_mode: TanhMode::BitCompat, f32_weights: true },
            InferenceConfig { tanh_mode: TanhMode::Fast, f32_weights: true },
        ] {
            let p = tiny_policy().with_inference(cfg);
            assert_eq!(p.inference(), cfg);
            let mut batch = ObservationBatch::new(6, 2);
            batch.push(dist.clone(), 1, 0.6);
            let mut out = vec![DecisionRule::uniform(1, 1)];
            p.decide_batch(&batch, &mut out);
            let seq = p.decide(&dist, 1, 0.6);
            assert_eq!(seq.as_slice(), out[0].as_slice(), "tier {} diverged", cfg.label());
        }
    }

    #[test]
    fn f32_tier_close_to_f64_tier() {
        let p64 = tiny_policy();
        let p32 = tiny_policy()
            .with_inference(InferenceConfig { tanh_mode: TanhMode::BitCompat, f32_weights: true });
        let dist = StateDist::uniform(5);
        let a = p64.decide(&dist, 0, 0.9);
        let b = p32.decide(&dist, 0, 0.9);
        assert!(a.max_abs_diff(&b) < 1e-4, "f32 tier drifted: {}", a.max_abs_diff(&b));
    }

    #[test]
    #[should_panic(expected = "output dim mismatch")]
    fn rejects_wrong_network_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Mlp::new(&[8, 4, 10], Activation::Tanh, &mut rng);
        NeuralUpperPolicy::new(net, 6, 2, 2);
    }
}
