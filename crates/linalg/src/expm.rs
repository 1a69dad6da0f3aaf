//! Matrix exponential via scaling and squaring with Padé approximants.
//!
//! The paper's *exact discretization* (Eq. 27–28) advances one decision
//! epoch of the per-queue continuous-time Markov chain by `exp(Q̄·Δt)`,
//! where `Q̄` is the extended rate matrix that simultaneously evolves the
//! queue-state distribution and accumulates the expected number of dropped
//! packets. The epoch itself runs on the vector kernel
//! [`crate::uniformization::advance`]; this whole-matrix exponential is its
//! test reference and serves callers that need every column.
//!
//! The implementation follows Higham, *"The Scaling and Squaring Method for
//! the Matrix Exponential Revisited"* (SIAM J. Matrix Anal. Appl., 2005):
//! pick the smallest Padé degree `m ∈ {3, 5, 7, 9, 13}` whose accuracy
//! bound `θ_m` covers `‖A‖₁`; if even `θ₁₃` is exceeded, scale `A` by
//! `2^-s` and square the result `s` times.
//!
//! The power chain runs `Aᵏ = Aᵏ⁻¹·A` for ascending `k` through the ikj
//! product that skips zero left terms, and the denominator goes through
//! the partial-pivot LU of [`Lu::new`]; `tests/expm_bits.rs` pins the
//! output bits of a fixed corpus.

use crate::lu::Lu;
use crate::matrix::Mat;

/// Padé coefficient table for degree 3.
const B3: [f64; 4] = [120.0, 60.0, 12.0, 1.0];
/// Padé coefficient table for degree 5.
const B5: [f64; 6] = [30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0];
/// Padé coefficient table for degree 7.
const B7: [f64; 8] =
    [17_297_280.0, 8_648_640.0, 1_995_840.0, 277_200.0, 25_200.0, 1512.0, 56.0, 1.0];
/// Padé coefficient table for degree 9.
const B9: [f64; 10] = [
    17_643_225_600.0,
    8_821_612_800.0,
    2_075_673_600.0,
    302_702_400.0,
    30_270_240.0,
    2_162_160.0,
    110_880.0,
    3960.0,
    90.0,
    1.0,
];
/// Padé coefficient table for degree 13.
const B13: [f64; 14] = [
    64_764_752_532_480_000.0,
    32_382_376_266_240_000.0,
    7_771_770_303_897_600.0,
    1_187_353_796_428_800.0,
    129_060_195_264_000.0,
    10_559_470_521_600.0,
    670_442_572_800.0,
    33_522_128_640.0,
    1_323_241_920.0,
    40_840_800.0,
    960_960.0,
    16_380.0,
    182.0,
    1.0,
];

/// Accuracy thresholds `θ_m` from Higham (2005), Table 2.3 (double
/// precision).
const THETA3: f64 = 1.495_585_217_958_292e-2;
const THETA5: f64 = 2.539_398_330_063_23e-1;
const THETA7: f64 = 9.504_178_996_162_932e-1;
const THETA9: f64 = 2.097_847_961_257_068;
const THETA13: f64 = 5.371_920_351_148_152;

/// Computes the matrix exponential `exp(A)` of a square matrix.
///
/// # Panics
/// Panics if `A` is not square or contains non-finite entries.
pub fn expm(a: &Mat) -> Mat {
    assert!(a.is_square(), "expm requires a square matrix");
    assert!(a.is_finite(), "expm requires finite entries");
    let norm = a.norm_one();

    let (b, s): (&[f64], u32) = if norm <= THETA3 {
        (&B3, 0)
    } else if norm <= THETA5 {
        (&B5, 0)
    } else if norm <= THETA7 {
        (&B7, 0)
    } else if norm <= THETA9 {
        (&B9, 0)
    } else {
        // Scaling and squaring with degree-13 Padé.
        let mut s = 0;
        let mut scaled_norm = norm;
        while scaled_norm > THETA13 {
            scaled_norm *= 0.5;
            s += 1;
        }
        (&B13, s)
    };

    let mut e = pade(&a.scaled(0.5f64.powi(s as i32)), b);
    for _ in 0..s {
        e = e.matmul(&e);
    }
    e
}

/// The `[m/m]` Padé approximant `r(A) = q(A)⁻¹ p(A)` of the exponential,
/// given the coefficient table `b` of length `m+1`, by the even/odd
/// splitting `p(A) = V + U`, `q(A) = V − U`, with `U` collecting the odd
/// powers of `A` and `V` the even ones.
fn pade(a: &Mat, b: &[f64]) -> Mat {
    let n = a.rows();
    let mut power = Mat::identity(n);
    let (mut u, mut v) = (Mat::zeros(n, n), Mat::zeros(n, n));
    for (k, &bk) in b.iter().enumerate() {
        if k > 0 {
            power = power.matmul(a);
        }
        let target = if k % 2 == 1 { &mut u } else { &mut v };
        for (t, &x) in target.as_mut_slice().iter_mut().zip(power.as_slice()) {
            *t += x * bk;
        }
    }
    for (u, v) in u.as_mut_slice().iter_mut().zip(v.as_mut_slice()) {
        (*u, *v) = (*v - *u, *u + *v);
    }
    Lu::new(&u).solve_mat(&v).expect("Padé denominator must be nonsingular")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_diff(a: &Mat, b: &Mat) -> f64 {
        a.max_abs_diff(b)
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = Mat::zeros(4, 4);
        assert!(max_diff(&expm(&z), &Mat::identity(4)) < 1e-15);
    }

    #[test]
    fn exp_of_diagonal_matrix() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -2.0;
        a[(2, 2)] = 0.5;
        let e = expm(&a);
        assert!((e[(0, 0)] - 1.0f64.exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - (-2.0f64).exp()).abs() < 1e-12);
        assert!((e[(2, 2)] - 0.5f64.exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn exp_of_nilpotent_matrix_truncates() {
        // N = [[0,1],[0,0]] => exp(N) = I + N exactly.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = expm(&a);
        let expected = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert!(max_diff(&e, &expected) < 1e-14);
    }

    #[test]
    fn exp_of_rotation_generator() {
        // A = [[0,-t],[t,0]] => exp(A) = [[cos t, -sin t],[sin t, cos t]].
        for &t in &[0.1, 1.0, 3.5, 10.0] {
            let a = Mat::from_rows(&[&[0.0, -t], &[t, 0.0]]);
            let e = expm(&a);
            assert!((e[(0, 0)] - t.cos()).abs() < 1e-10, "t={t}");
            assert!((e[(0, 1)] + t.sin()).abs() < 1e-10, "t={t}");
            assert!((e[(1, 0)] - t.sin()).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn additivity_for_same_matrix() {
        // exp(2A) == exp(A)^2 since A commutes with itself.
        let a = Mat::from_rows(&[&[0.3, 0.7, -0.1], &[0.2, -0.5, 0.4], &[0.0, 0.6, -0.2]]);
        let e2a = expm(&a.scaled(2.0));
        let ea = expm(&a);
        let sq = ea.matmul(&ea);
        assert!(max_diff(&e2a, &sq) < 1e-11);
    }

    #[test]
    fn large_norm_triggers_scaling_and_stays_accurate() {
        // Generator-like matrix scaled to a large norm: compare against
        // repeated squaring from a tiny step.
        let a = Mat::from_rows(&[&[-30.0, 30.0], &[10.0, -10.0]]);
        let e = expm(&a);
        // Reference: exp(A) = (exp(A/1024))^1024 with tiny-norm Padé.
        let mut r = expm(&a.scaled(1.0 / 1024.0));
        for _ in 0..10 {
            r = r.matmul(&r);
        }
        assert!(max_diff(&e, &r) < 1e-9);
    }

    #[test]
    fn row_convention_generator_gives_stochastic_transitions() {
        // Row-convention CTMC generator (rows sum to 0): exp(Qt) must be a
        // stochastic matrix (rows sum to 1, entries in [0,1]).
        let q = Mat::from_rows(&[&[-2.0, 2.0, 0.0], &[1.0, -3.0, 2.0], &[0.0, 1.5, -1.5]]);
        for &t in &[0.01, 0.5, 2.0, 10.0] {
            let p = expm(&q.scaled(t));
            for i in 0..3 {
                let s: f64 = p.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-10, "row {i} sums to {s} at t={t}");
                for &v in p.row(i) {
                    assert!((-1e-12..=1.0 + 1e-12).contains(&v));
                }
            }
        }
    }
}
