//! Diagonal Gaussian action distributions for continuous-control PPO.
//!
//! The upper-level policy emits a mean vector (the decision-rule logits)
//! from the MLP plus a state-independent learnable `log_std` vector; actions
//! are sampled as `a = μ + σ·ξ`, `ξ ∼ N(0, I)`. This module provides
//! sampling, log-densities, entropy and their gradients — everything the
//! PPO loss needs, in closed form.

use rand::Rng;

/// Natural log of √(2π).
const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// A diagonal Gaussian `N(mean, diag(exp(log_std))²)` over `ℝ^k`.
///
/// The struct borrows its parameters; PPO owns `log_std` as trainable
/// parameters next to the network weights.
#[derive(Debug, Clone, Copy)]
pub struct DiagGaussian<'a> {
    /// Mean vector μ.
    pub mean: &'a [f64],
    /// Per-dimension log standard deviations.
    pub log_std: &'a [f64],
}

impl<'a> DiagGaussian<'a> {
    /// Creates the distribution (dimensions must agree).
    pub fn new(mean: &'a [f64], log_std: &'a [f64]) -> Self {
        assert_eq!(mean.len(), log_std.len(), "mean/log_std dim mismatch");
        Self { mean, log_std }
    }

    /// Dimensionality `k`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Samples an action with the Box–Muller transform (no external
    /// distribution crates).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.mean
            .iter()
            .zip(self.log_std.iter())
            .map(|(&m, &ls)| m + ls.exp() * standard_normal(rng))
            .collect()
    }

    /// Log-density `ln p(a)`.
    pub fn log_prob(&self, action: &[f64]) -> f64 {
        assert_eq!(action.len(), self.dim());
        let mut lp = 0.0;
        for ((&a, &m), &ls) in action.iter().zip(self.mean).zip(self.log_std) {
            let inv_std = (-ls).exp();
            let z = (a - m) * inv_std;
            lp += -0.5 * z * z - ls - LN_SQRT_2PI;
        }
        lp
    }

    /// Differential entropy `Σ_i (log_std_i + ½·ln(2πe))`.
    pub fn entropy(&self) -> f64 {
        Self::entropy_from_log_std(self.log_std)
    }

    /// Differential entropy computed straight from a `log_std` vector.
    ///
    /// The entropy of a diagonal Gaussian is **mean-independent**, so
    /// callers that only track the exploration head (PPO's per-minibatch
    /// entropy stat) need no throwaway distribution to evaluate it.
    pub fn entropy_from_log_std(log_std: &[f64]) -> f64 {
        let half_ln_2pie = 0.5 * (1.0 + LN_SQRT_2PI * 2.0);
        log_std.iter().map(|&ls| ls + half_ln_2pie).sum()
    }

    /// Gradient of `ln p(a)` with respect to the mean:
    /// `∂lnp/∂μ_i = (a_i − μ_i)/σ_i²`.
    pub fn log_prob_grad_mean(&self, action: &[f64]) -> Vec<f64> {
        action
            .iter()
            .zip(self.mean)
            .zip(self.log_std)
            .map(|((&a, &m), &ls)| {
                let inv_var = (-2.0 * ls).exp();
                (a - m) * inv_var
            })
            .collect()
    }

    /// Gradient of `ln p(a)` with respect to `log_std`:
    /// `∂lnp/∂ls_i = ((a_i − μ_i)/σ_i)² − 1`.
    pub fn log_prob_grad_log_std(&self, action: &[f64]) -> Vec<f64> {
        action
            .iter()
            .zip(self.mean)
            .zip(self.log_std)
            .map(|((&a, &m), &ls)| {
                let z = (a - m) * (-ls).exp();
                z * z - 1.0
            })
            .collect()
    }
}

/// The per-dimension exponentials of one `log_std` vector.
///
/// Every sample, log-density and log-density gradient of a
/// [`DiagGaussian`] reads `σ = exp(ls)`, `1/σ = exp(−ls)` or
/// `1/σ² = exp(−2·ls)`, and an exact KL divergence from it reads
/// `σ² = exp(2·ls)`; none of them depends on the mean or the action. Code
/// that evaluates many rows against one fixed `log_std` (a rollout batch
/// under fixed exploration noise, a PPO minibatch between two Adam steps)
/// computes them here once and reads them per row. Each method evaluates
/// the same expression as its [`DiagGaussian`] twin, so the results are
/// bit-identical.
#[derive(Debug, Clone, Default)]
pub struct LogStdExps {
    log_std: Vec<f64>,
    std: Vec<f64>,
    inv_std: Vec<f64>,
    var: Vec<f64>,
    inv_var: Vec<f64>,
}

impl LogStdExps {
    /// The exponentials of `log_std`.
    pub fn new(log_std: &[f64]) -> Self {
        let mut exps = Self::default();
        exps.set(log_std);
        exps
    }

    /// Recomputes every vector for a new `log_std`, reusing the buffers
    /// (no allocation once they have grown to the dimension).
    pub fn set(&mut self, log_std: &[f64]) {
        let fill = |out: &mut Vec<f64>, f: fn(f64) -> f64| {
            out.clear();
            out.extend(log_std.iter().map(|&ls| f(ls)));
        };
        fill(&mut self.log_std, |ls| ls);
        fill(&mut self.std, |ls| ls.exp());
        fill(&mut self.inv_std, |ls| (-ls).exp());
        fill(&mut self.var, |ls| (2.0 * ls).exp());
        fill(&mut self.inv_var, |ls| (-2.0 * ls).exp());
    }

    /// The `log_std` vector the exponentials belong to.
    pub fn log_std(&self) -> &[f64] {
        &self.log_std
    }

    /// `σ²_k = exp(2·ls_k)`.
    pub fn var(&self) -> &[f64] {
        &self.var
    }

    /// `1/σ²_k = exp(−2·ls_k)`.
    pub fn inv_var(&self) -> &[f64] {
        &self.inv_var
    }

    /// [`DiagGaussian::sample`] around `mean`.
    pub fn sample<R: Rng + ?Sized>(&self, mean: &[f64], rng: &mut R) -> Vec<f64> {
        assert_eq!(mean.len(), self.std.len(), "mean/log_std dim mismatch");
        mean.iter().zip(&self.std).map(|(&m, &std)| m + std * standard_normal(rng)).collect()
    }

    /// [`DiagGaussian::log_prob`] of `action` around `mean`.
    pub fn log_prob(&self, mean: &[f64], action: &[f64]) -> f64 {
        assert_eq!(mean.len(), self.log_std.len(), "mean/log_std dim mismatch");
        assert_eq!(action.len(), mean.len());
        let mut lp = 0.0;
        for (((&a, &m), &ls), &inv_std) in
            action.iter().zip(mean).zip(&self.log_std).zip(&self.inv_std)
        {
            let z = (a - m) * inv_std;
            lp += -0.5 * z * z - ls - LN_SQRT_2PI;
        }
        lp
    }

    /// Entry `k` of [`DiagGaussian::log_prob_grad_mean`], given the
    /// residual `diff = a_k − μ_k`.
    #[inline]
    pub fn grad_mean(&self, k: usize, diff: f64) -> f64 {
        diff * self.inv_var[k]
    }

    /// Entry `k` of [`DiagGaussian::log_prob_grad_log_std`], given the
    /// residual `diff = a_k − μ_k`.
    #[inline]
    pub fn grad_log_std(&self, k: usize, diff: f64) -> f64 {
        let z = diff * self.inv_std[k];
        z * z - 1.0
    }
}

/// One standard-normal variate via Box–Muller (two uniforms per pair; we
/// draw fresh pairs for simplicity — the simulator dominates runtime).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn log_prob_matches_scalar_formula() {
        let mean = [1.0];
        let log_std = [0.5f64];
        let g = DiagGaussian::new(&mean, &log_std);
        let a = 1.7;
        let sigma = 0.5f64.exp();
        let expect = -0.5 * ((a - 1.0) / sigma).powi(2)
            - sigma.ln()
            - 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((g.log_prob(&[a]) - expect).abs() < 1e-12);
    }

    #[test]
    fn entropy_matches_formula() {
        let mean = [0.0, 0.0];
        let log_std = [0.0, 1.0];
        let g = DiagGaussian::new(&mean, &log_std);
        let per_dim = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E).ln();
        assert!((g.entropy() - (2.0 * per_dim + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mean = [0.3, -0.7, 1.2];
        let log_std = [0.1, -0.4, 0.0];
        let action = [0.5, -0.5, 1.0];
        let g = DiagGaussian::new(&mean, &log_std);
        let gm = g.log_prob_grad_mean(&action);
        let gs = g.log_prob_grad_log_std(&action);
        let eps = 1e-6;
        for i in 0..3 {
            let mut m2 = mean;
            m2[i] += eps;
            let up = DiagGaussian::new(&m2, &log_std).log_prob(&action);
            m2[i] -= 2.0 * eps;
            let down = DiagGaussian::new(&m2, &log_std).log_prob(&action);
            assert!(((up - down) / (2.0 * eps) - gm[i]).abs() < 1e-6, "mean[{i}]");

            let mut s2 = log_std;
            s2[i] += eps;
            let up = DiagGaussian::new(&mean, &s2).log_prob(&action);
            s2[i] -= 2.0 * eps;
            let down = DiagGaussian::new(&mean, &s2).log_prob(&action);
            assert!(((up - down) / (2.0 * eps) - gs[i]).abs() < 1e-6, "log_std[{i}]");
        }
    }

    #[test]
    fn log_std_exps_match_the_allocating_formulas_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut exps = LogStdExps::default();
        for dim in [1, 7, 72] {
            for _ in 0..50 {
                let draw = |rng: &mut StdRng, lo: f64, hi: f64| -> Vec<f64> {
                    (0..dim).map(|_| rng.gen_range(lo..hi)).collect()
                };
                let mean = draw(&mut rng, -3.0, 3.0);
                let log_std = draw(&mut rng, -5.0, 2.0);
                let action = draw(&mut rng, -4.0, 4.0);
                let g = DiagGaussian::new(&mean, &log_std);
                exps.set(&log_std);
                assert_eq!(exps.log_prob(&mean, &action).to_bits(), g.log_prob(&action).to_bits());
                let gm = g.log_prob_grad_mean(&action);
                let gs = g.log_prob_grad_log_std(&action);
                for k in 0..dim {
                    let diff = action[k] - mean[k];
                    assert_eq!(exps.grad_mean(k, diff).to_bits(), gm[k].to_bits());
                    assert_eq!(exps.grad_log_std(k, diff).to_bits(), gs[k].to_bits());
                }
                let mut a = StdRng::seed_from_u64(dim as u64);
                let mut b = a.clone();
                assert_eq!(exps.sample(&mean, &mut a), g.sample(&mut b));
            }
        }
    }

    #[test]
    fn sample_statistics() {
        let mean = [2.0];
        let log_std = [0.0]; // σ = 1
        let g = DiagGaussian::new(&mean, &log_std);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = mflb_linalg_stats_shim::Summary::new();
        for _ in 0..100_000 {
            s.push(g.sample(&mut rng)[0]);
        }
        assert!((s.mean() - 2.0).abs() < 0.02, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.03, "var {}", s.variance());
    }

    /// Tiny local Welford summary so the nn crate stays free of the linalg
    /// dependency (kept private to the tests).
    mod mflb_linalg_stats_shim {
        pub struct Summary {
            n: u64,
            mean: f64,
            m2: f64,
        }
        impl Summary {
            pub fn new() -> Self {
                Self { n: 0, mean: 0.0, m2: 0.0 }
            }
            pub fn push(&mut self, x: f64) {
                self.n += 1;
                let d = x - self.mean;
                self.mean += d / self.n as f64;
                self.m2 += d * (x - self.mean);
            }
            pub fn mean(&self) -> f64 {
                self.mean
            }
            pub fn variance(&self) -> f64 {
                self.m2 / (self.n - 1) as f64
            }
        }
    }

    #[test]
    fn log_prob_is_maximized_at_mean() {
        let mean = [0.5, -0.5];
        let log_std = [0.2, 0.2];
        let g = DiagGaussian::new(&mean, &log_std);
        let at_mean = g.log_prob(&mean);
        let off = g.log_prob(&[0.6, -0.4]);
        assert!(at_mean > off);
    }
}
