//! Numerical machinery for Theorem 1.
//!
//! Theorem 1 states that under any stationary deterministic policy `π̂`,
//! `|J(π̂) − J^{N,M}(π̂)| → 0` as `N, M → ∞` (with `N` growing faster). The
//! proof conditions on the arrival-rate sequence; this module provides the
//! mean-field side of the comparison under that conditioning, plus helpers
//! to organise the gap measurements produced by the finite simulator
//! (`mflb-sim`, which cannot be a dependency of this crate — the comparison
//! itself is assembled in the integration tests and in
//! `fig4_convergence`).

use crate::config::SystemConfig;
use crate::mdp::{MeanFieldMdp, UpperPolicy};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The undiscounted conditioned episode return (the quantity compared in
/// Fig. 4: cumulative expected per-queue drops, negated).
pub fn conditioned_return(
    config: &SystemConfig,
    policy: &dyn UpperPolicy,
    lambda_seq: &[usize],
) -> f64 {
    MeanFieldMdp::new(config.clone()).rollout_conditioned(policy, lambda_seq).total_return
}

/// Samples an arrival-level trajectory of the configured process (shared
/// between the mean-field and the finite system when conditioning).
pub fn sample_lambda_sequence<R: Rng + ?Sized>(
    config: &SystemConfig,
    horizon: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut seq = Vec::with_capacity(horizon);
    let mut level = config.arrivals.sample_initial(rng);
    for _ in 0..horizon {
        seq.push(level);
        level = config.arrivals.step(level, rng);
    }
    seq
}

/// One row of a Theorem-1 convergence measurement: the mean-field value
/// versus the finite-system estimate at size `(N, M)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceRow {
    /// Number of clients.
    pub num_clients: u64,
    /// Number of queues.
    pub num_queues: usize,
    /// Mean-field episode return `J(π̂)` (negative drops).
    pub mean_field: f64,
    /// Finite-system estimate `J^{N,M}(π̂)` (mean over Monte-Carlo runs).
    pub finite_mean: f64,
    /// 95% confidence half-width of the finite estimate.
    pub finite_ci95: f64,
}

impl ConvergenceRow {
    /// Absolute performance gap `|J − J^{N,M}|`.
    pub fn gap(&self) -> f64 {
        (self.mean_field - self.finite_mean).abs()
    }

    /// `true` iff the mean-field value lies within the widened confidence
    /// band `mean ± (ci + slack)`.
    pub fn consistent_within(&self, slack: f64) -> bool {
        self.gap() <= self.finite_ci95 + slack
    }
}

/// Checks that gaps shrink (weakly) along increasing system sizes, allowing
/// `tolerance` of Monte-Carlo jitter — the empirical shape of Theorem 1
/// visible in Fig. 4.
pub fn gaps_shrink(rows: &[ConvergenceRow], tolerance: f64) -> bool {
    rows.windows(2).all(|w| w[1].gap() <= w[0].gap() + tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lambda_sequence_uses_configured_levels() {
        let cfg = SystemConfig::paper();
        let mut rng = StdRng::seed_from_u64(1);
        let seq = sample_lambda_sequence(&cfg, 1000, &mut rng);
        assert_eq!(seq.len(), 1000);
        assert!(seq.iter().all(|&l| l < 2));
        // Both levels must occur in a long sample.
        assert!(seq.contains(&0) && seq.contains(&1));
    }

    #[test]
    fn convergence_row_gap_logic() {
        let row = ConvergenceRow {
            num_clients: 100,
            num_queues: 10,
            mean_field: -30.0,
            finite_mean: -31.0,
            finite_ci95: 0.8,
        };
        assert!((row.gap() - 1.0).abs() < 1e-12);
        assert!(row.consistent_within(0.3));
        assert!(!row.consistent_within(0.1));
    }

    #[test]
    fn gaps_shrink_detects_monotone_and_violations() {
        let mk = |gap: f64| ConvergenceRow {
            num_clients: 0,
            num_queues: 0,
            mean_field: 0.0,
            finite_mean: gap,
            finite_ci95: 0.0,
        };
        assert!(gaps_shrink(&[mk(3.0), mk(2.0), mk(1.0)], 0.0));
        assert!(gaps_shrink(&[mk(3.0), mk(3.2), mk(1.0)], 0.25));
        assert!(!gaps_shrink(&[mk(1.0), mk(2.0)], 0.5));
    }
}
