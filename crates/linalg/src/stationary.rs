//! Stationary distributions of finite CTMCs.
//!
//! Solves `π·Q = 0, Σπ = 1` (row-convention generator `Q`) by replacing
//! one balance equation with the normalization constraint and LU-solving
//! the resulting nonsingular system — the textbook direct method, exact up
//! to round-off for the small chains in this workspace. Used as an oracle
//! by the queueing substrate and for long-run load statistics.

use crate::lu::Lu;
use crate::matrix::Mat;
use crate::uniformization::validate_generator;

/// Errors from the stationary solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StationaryError {
    /// The input is not a conservative generator / stochastic matrix.
    InvalidChain,
    /// The linear system was singular (reducible chain with multiple
    /// recurrent classes — no unique stationary distribution).
    NotUnique,
}

impl std::fmt::Display for StationaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidChain => write!(f, "input is not a valid chain"),
            Self::NotUnique => write!(f, "stationary distribution is not unique"),
        }
    }
}

impl std::error::Error for StationaryError {}

/// Stationary distribution of a conservative CTMC generator (row
/// convention).
pub fn ctmc_stationary(q: &Mat) -> Result<Vec<f64>, StationaryError> {
    validate_generator(q, 1e-9).map_err(|_| StationaryError::InvalidChain)?;
    let n = q.rows();
    // Build Aᵀ where A is Q with its last column replaced by ones:
    // π·Q = 0 with Σπ = 1  ⇔  Aᵀ·πᵀ = e_n.
    let mut at = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            at[(j, i)] = if j == n - 1 { 1.0 } else { q[(i, j)] };
        }
    }
    let lu = Lu::new(&at);
    let mut rhs = vec![0.0; n];
    rhs[n - 1] = 1.0;
    let pi = lu.solve_vec(&rhs).ok_or(StationaryError::NotUnique)?;
    if pi.iter().any(|&p| p < -1e-9) {
        return Err(StationaryError::NotUnique);
    }
    Ok(pi.into_iter().map(|p| p.max(0.0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn birth_death(b: usize, lam: f64, mu: f64) -> Mat {
        let n = b + 1;
        let mut q = Mat::zeros(n, n);
        for i in 0..n {
            if i < b {
                q[(i, i + 1)] = lam;
                q[(i, i)] -= lam;
            }
            if i > 0 {
                q[(i, i - 1)] = mu;
                q[(i, i)] -= mu;
            }
        }
        q
    }

    #[test]
    fn matches_mm1b_closed_form() {
        let (lam, mu, b) = (0.7, 1.0, 5usize);
        let pi = ctmc_stationary(&birth_death(b, lam, mu)).unwrap();
        let rho: f64 = lam / mu;
        let norm: f64 = (0..=b).map(|k| rho.powi(k as i32)).sum();
        for (k, &p) in pi.iter().enumerate() {
            assert!((p - rho.powi(k as i32) / norm).abs() < 1e-12, "state {k}");
        }
    }

    #[test]
    fn two_state_chain() {
        // Rates a (0->1), b (1->0): π = (b, a)/(a+b).
        let mut q = Mat::zeros(2, 2);
        q[(0, 1)] = 1.5;
        q[(0, 0)] = -1.5;
        q[(1, 0)] = 0.5;
        q[(1, 1)] = -0.5;
        let pi = ctmc_stationary(&q).unwrap();
        assert!((pi[0] - 0.25).abs() < 1e-12);
        assert!((pi[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_generator() {
        let m = Mat::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]);
        assert_eq!(ctmc_stationary(&m).unwrap_err(), StationaryError::InvalidChain);
    }

    #[test]
    fn reducible_chain_reports_non_uniqueness() {
        // Two absorbing states: no unique stationary distribution.
        let q = Mat::zeros(2, 2);
        assert_eq!(ctmc_stationary(&q).unwrap_err(), StationaryError::NotUnique);
    }

    #[test]
    fn stationary_is_fixed_point_of_transient() {
        let q = birth_death(4, 1.2, 0.9);
        let pi = ctmc_stationary(&q).unwrap();
        let moved = crate::transient_distribution(&q, &pi, 7.5, 1e-13).unwrap();
        for (a, b) in pi.iter().zip(moved.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
