//! LU decomposition with partial pivoting.
//!
//! Needed by the Padé matrix exponential ([`crate::expm()`]), which solves a
//! linear system `(−U + V)·R = (U + V)` at its final step, and generally
//! useful for stationary-distribution computations in the queueing
//! substrate.

use crate::matrix::Mat;

/// An LU factorization `P·A = L·U` of a square matrix with partial
/// (row) pivoting. The default is the factorization of the empty `0 × 0`
/// matrix.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper, including
    /// diagonal) factors, stored in-place.
    lu: Mat,
    /// Row permutation: row `i` of `L·U` corresponds to row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), used by [`Lu::det`].
    perm_sign: f64,
    /// Whether a zero (to working precision) pivot was encountered.
    singular: bool,
}

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn new(a: &Mat) -> Self {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let (mut perm_sign, mut singular) = (1.0, false);
        let data = lu.as_mut_slice();
        for k in 0..n {
            // Find the pivot: the largest |entry| in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = data[k * n + k].abs();
            for i in (k + 1)..n {
                let v = data[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                singular = true;
                continue;
            }
            let (top, below) = data.split_at_mut((k + 1) * n);
            let row_k = &mut top[k * n..];
            if pivot_row != k {
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
                row_k.swap_with_slice(&mut below[(pivot_row - k - 1) * n..(pivot_row - k) * n]);
            }
            let pivot = row_k[k];
            for row_i in below.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                if factor != 0.0 {
                    for (x, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                        let upd = factor * u;
                        *x -= upd;
                    }
                }
            }
        }
        Self { lu, perm, perm_sign, singular }
    }

    /// `true` iff a zero pivot was hit (matrix numerically singular).
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        let n = self.lu.rows();
        let mut d = self.perm_sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// Returns `None` if the factorization is singular.
    pub fn solve_vec(&self, b: &[f64]) -> Option<Vec<f64>> {
        if self.singular {
            return None;
        }
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        self.substitute(&mut x);
        Some(x)
    }

    /// Forward substitution with unit L, then backward substitution with
    /// U, in place on an already permuted right-hand side.
    fn substitute(&self, x: &mut [f64]) {
        let n = x.len();
        let lu = self.lu.as_slice();
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (l, &xj) in lu[i * n..i * n + i].iter().zip(done.iter()) {
                acc -= l * xj;
            }
            rest[0] = acc;
        }
        for i in (0..n).rev() {
            let (head, done) = x.split_at_mut(i + 1);
            let row = &lu[i * n..(i + 1) * n];
            let mut acc = head[i];
            for (u, &xj) in row[i + 1..].iter().zip(done.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / row[i];
        }
    }

    /// Solves `A·X = B` column by column.
    ///
    /// Returns `None` if the factorization is singular.
    pub fn solve_mat(&self, b: &Mat) -> Option<Mat> {
        if self.singular {
            return None;
        }
        let n = self.lu.rows();
        assert_eq!(b.rows(), n, "rhs row count mismatch");
        let mut out = Mat::zeros(n, b.cols());
        for j in 0..b.cols() {
            let mut col: Vec<f64> = self.perm.iter().map(|&p| b[(p, j)]).collect();
            self.substitute(&mut col);
            for (i, &x) in col.iter().enumerate() {
                out[(i, j)] = x;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Mat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter().zip(b.iter()).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max)
    }

    #[test]
    fn solves_well_conditioned_system() {
        let a = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let b = [1.0, 2.0, 3.0];
        let lu = Lu::new(&a);
        let x = lu.solve_vec(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a);
        assert!(!lu.is_singular());
        let x = lu.solve_vec(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let lu = Lu::new(&a);
        assert!(lu.is_singular());
        assert!(lu.solve_vec(&[1.0, 1.0]).is_none());
        assert_eq!(lu.det(), 0.0);
    }

    #[test]
    fn determinant_of_triangular_matrix() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 5.0], &[0.0, 3.0, -1.0], &[0.0, 0.0, 4.0]]);
        let lu = Lu::new(&a);
        assert!((lu.det() - 24.0).abs() < 1e-10);
    }

    #[test]
    fn solve_mat_matches_columnwise_solves() {
        let a = Mat::from_rows(&[&[5.0, 1.0], &[2.0, 3.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let lu = Lu::new(&a);
        let x = lu.solve_mat(&b).unwrap();
        let prod = a.matmul(&x);
        assert!(prod.max_abs_diff(&Mat::identity(2)) < 1e-12);
    }
}
