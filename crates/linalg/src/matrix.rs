//! Dense row-major `f64` matrices.
//!
//! [`Mat`] is deliberately minimal: the mean-field model only ever
//! manipulates `(B+2)×(B+2)` generators (B ≈ 5–20), so we need correct and
//! readable kernels, not BLAS. All operations are bounds-checked in debug
//! builds and iterate row-major for cache friendliness.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`. The default is the empty `0 × 0`
/// matrix.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` iff the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Scales every entry by `s` in place.
    pub(crate) fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, s: f64) -> Mat {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// Straightforward ikj-ordered triple loop: with row-major storage this
    /// streams both `self`'s row and `rhs`'s rows sequentially, which is the
    /// cache-friendly ordering for small/medium dense matrices. Every output
    /// entry accumulates ascending `k` from `0.0`, skipping zero left terms.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return out;
        }
        let a_rows = self.data.chunks_exact(self.cols);
        for (a_row, out_row) in a_rows.zip(out.data.chunks_exact_mut(rhs.cols)) {
            for (&aik, b_row) in a_row.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v` (treating `v` as a column vector).
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows).map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum()).collect()
    }

    /// Row-vector–matrix product `v * self`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "vecmat dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, &r) in out.iter_mut().zip(row.iter()) {
                *o += vi * r;
            }
        }
        out
    }

    /// The induced 1-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        let mut best: f64 = 0.0;
        for j in 0..self.cols {
            let mut s = 0.0;
            for i in 0..self.rows {
                s += self[(i, j)].abs();
            }
            best = best.max(s);
        }
        best
    }

    /// The induced infinity-norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        self.data
            .chunks_exact(self.cols.max(1))
            .map(|row| row.iter().map(|v| v.abs()).sum())
            .fold(0.0f64, f64::max)
    }

    /// The Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
    }

    /// `true` iff all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                write!(f, "{:>12.6}", self[(i, j)])?;
                if j + 1 < self.cols {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Mat::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matvec_and_vecmat_agree_with_transpose() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[0.5, 3.0], &[2.0, 2.0]]);
        let v = [1.0, 2.0, -1.0];
        let left = a.vecmat(&v);
        let right = a.transpose().matvec(&v);
        for (l, r) in left.iter().zip(right.iter()) {
            assert!((l - r).abs() < 1e-14);
        }
    }

    #[test]
    fn norms_on_simple_matrix() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_one(), 6.0); // |{-2,4}| column
        assert_eq!(a.norm_inf(), 7.0); // |-3| + |4|
        assert!((a.norm_fro() - (30.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_dimension_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Mat = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
