//! A minimal 2-D tensor for batched MLP math.
//!
//! Row-major `f64` storage, shape `(rows, cols)`; rows are batch samples.
//! Three matmul variants cover forward and backward passes without
//! materializing transposes:
//!
//! * [`Tensor::matmul`] — `A·B`,
//! * [`Tensor::matmul_tn`] — `Aᵀ·B` (weight gradients `xᵀ·∂y`),
//! * [`Tensor::matmul_nt`] — `A·Bᵀ` (input gradients `∂y·Wᵀ`).
//!
//! Each has an allocation-free `*_into` twin writing into a caller-owned
//! output ([`Tensor::matmul_into`], [`Tensor::matmul_tn_into`],
//! [`Tensor::matmul_nt_into`]) plus a dedicated batch-1 row kernel
//! ([`Tensor::gemv_into`]). The `*_into` kernels are register-blocked —
//! output-column panels of f64 quads held in register accumulators,
//! 2-row × 4-column tiles for the `A·Bᵀ` dot-product kernel — but keep
//! the naive kernels' per-element accumulation order
//! (ascending `k`, zero left-operand terms skipped), so their results are
//! **bit-identical** to the naive methods (enforced by the crate's
//! property tests).

use serde::{Deserialize, Serialize};

/// Computes `W` consecutive output columns of one output row entirely in
/// registers: `acc[t] = Σ_k x[k]·b[k·bc + j + t]`. The `W` accumulator
/// lanes are independent (SIMD across columns), while each lane sums over
/// ascending `k` with `x[k] == 0` terms skipped — exactly the naive
/// [`Tensor::matmul`] per-element order, so results are bit-identical.
/// The top-level panel is 32 lanes (8 f64-quads — four whole cache lines
/// of `b` per step, and enough independent accumulator chains to hide
/// FP-add latency), narrowing to 8/4/1-lane panels for the remainder.
#[inline(always)]
fn row_panel<const W: usize>(x: &[f64], b: &[f64], bc: usize, j: usize, out_row: &mut [f64]) {
    let mut acc = [0.0f64; W];
    for (k, &xk) in x.iter().enumerate() {
        if xk == 0.0 {
            continue;
        }
        let br = &b[k * bc + j..k * bc + j + W];
        for t in 0..W {
            acc[t] += xk * br[t];
        }
    }
    out_row[j..j + W].copy_from_slice(&acc);
}

/// [`row_panel`] over a strided left operand (column `col` of a row-major
/// `(kn × stride)` matrix), for the transposed-A product.
// A micro-kernel wants its operand geometry spelled out flat; bundling the
// scalars into a struct would just move the argument list.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_panel_strided<const W: usize>(
    a: &[f64],
    stride: usize,
    col: usize,
    kn: usize,
    b: &[f64],
    bc: usize,
    j: usize,
    out_row: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    for k in 0..kn {
        let xk = a[k * stride + col];
        if xk == 0.0 {
            continue;
        }
        let br = &b[k * bc + j..k * bc + j + W];
        for t in 0..W {
            acc[t] += xk * br[t];
        }
    }
    out_row[j..j + W].copy_from_slice(&acc);
}

/// Batch-1 row kernel `out[j] = Σ_k x[k]·b[k·bc + j]`, register-blocked
/// over the output columns in register panels (32/8/4/1-lane
/// remainders). Bit-identical to the naive [`Tensor::matmul`] order.
#[inline]
pub(crate) fn gemv(x: &[f64], b: &[f64], bc: usize, out: &mut [f64]) {
    debug_assert_eq!(b.len(), x.len() * bc);
    debug_assert_eq!(out.len(), bc);
    let mut j = 0;
    while j + 32 <= bc {
        row_panel::<32>(x, b, bc, j, out);
        j += 32;
    }
    while j + 8 <= bc {
        row_panel::<8>(x, b, bc, j, out);
        j += 8;
    }
    while j + 4 <= bc {
        row_panel::<4>(x, b, bc, j, out);
        j += 4;
    }
    while j < bc {
        row_panel::<1>(x, b, bc, j, out);
        j += 1;
    }
}

/// Register-blocked `A·B` (`(ar×ac)·(ac×bc)`) into `out`: each output row
/// is built from register-held column panels ([`row_panel`]).
/// Bit-identical to [`Tensor::matmul`].
pub(crate) fn gemm_nn(a: &[f64], ar: usize, ac: usize, b: &[f64], bc: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), ar * ac);
    debug_assert_eq!(b.len(), ac * bc);
    debug_assert_eq!(out.len(), ar * bc);
    for i in 0..ar {
        gemv(&a[i * ac..(i + 1) * ac], b, bc, &mut out[i * bc..(i + 1) * bc]);
    }
}

/// Register-blocked `Aᵀ·B` (`(ar×ac)ᵀ·(ar×bc) → (ac×bc)`) into `out`
/// without materializing `Aᵀ` ([`row_panel_strided`] walks `A` columns in
/// place). Bit-identical to [`Tensor::matmul_tn`].
pub(crate) fn gemm_tn(a: &[f64], ar: usize, ac: usize, b: &[f64], bc: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), ar * ac);
    debug_assert_eq!(b.len(), ar * bc);
    debug_assert_eq!(out.len(), ac * bc);
    for i in 0..ac {
        let orow = &mut out[i * bc..(i + 1) * bc];
        let mut j = 0;
        while j + 32 <= bc {
            row_panel_strided::<32>(a, ac, i, ar, b, bc, j, orow);
            j += 32;
        }
        while j + 8 <= bc {
            row_panel_strided::<8>(a, ac, i, ar, b, bc, j, orow);
            j += 8;
        }
        while j + 4 <= bc {
            row_panel_strided::<4>(a, ac, i, ar, b, bc, j, orow);
            j += 4;
        }
        while j < bc {
            row_panel_strided::<1>(a, ac, i, ar, b, bc, j, orow);
            j += 1;
        }
    }
}

/// Register-blocked `A·Bᵀ` (`(ar×ac)·(bn×ac)ᵀ → (ar×bn)`) into `out`: each
/// 2×4 tile streams two `A` rows against four `B` rows, all contiguous.
/// Bit-identical to [`Tensor::matmul_nt`] (ascending `k`, no zero skip).
pub(crate) fn gemm_nt(a: &[f64], ar: usize, ac: usize, b: &[f64], bn: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), ar * ac);
    debug_assert_eq!(b.len(), bn * ac);
    debug_assert_eq!(out.len(), ar * bn);
    let blocks = bn - bn % 4;
    let mut i = 0;
    while i + 2 <= ar {
        let a0 = &a[i * ac..(i + 1) * ac];
        let a1 = &a[(i + 1) * ac..(i + 2) * ac];
        let (o0, o1) = out[i * bn..(i + 2) * bn].split_at_mut(bn);
        let mut j = 0;
        while j < blocks {
            let b0 = &b[j * ac..(j + 1) * ac];
            let b1 = &b[(j + 1) * ac..(j + 2) * ac];
            let b2 = &b[(j + 2) * ac..(j + 3) * ac];
            let b3 = &b[(j + 3) * ac..(j + 4) * ac];
            let (mut c00, mut c01, mut c02, mut c03) = (0.0, 0.0, 0.0, 0.0);
            let (mut c10, mut c11, mut c12, mut c13) = (0.0, 0.0, 0.0, 0.0);
            for k in 0..ac {
                let a0k = a0[k];
                let a1k = a1[k];
                c00 += a0k * b0[k];
                c01 += a0k * b1[k];
                c02 += a0k * b2[k];
                c03 += a0k * b3[k];
                c10 += a1k * b0[k];
                c11 += a1k * b1[k];
                c12 += a1k * b2[k];
                c13 += a1k * b3[k];
            }
            o0[j] = c00;
            o0[j + 1] = c01;
            o0[j + 2] = c02;
            o0[j + 3] = c03;
            o1[j] = c10;
            o1[j + 1] = c11;
            o1[j + 2] = c12;
            o1[j + 3] = c13;
            j += 4;
        }
        for j in blocks..bn {
            let bj = &b[j * ac..(j + 1) * ac];
            let (mut c0, mut c1) = (0.0, 0.0);
            for k in 0..ac {
                c0 += a0[k] * bj[k];
                c1 += a1[k] * bj[k];
            }
            o0[j] = c0;
            o1[j] = c1;
        }
        i += 2;
    }
    if i < ar {
        let ai = &a[i * ac..(i + 1) * ac];
        for j in 0..bn {
            let bj = &b[j * ac..(j + 1) * ac];
            let mut acc = 0.0;
            for k in 0..ac {
                acc += ai[k] * bj[k];
            }
            out[i * bn + j] = acc;
        }
    }
}

/// Dense row-major 2-D tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Tensor {
    /// An empty `0×0` tensor (a workspace placeholder; reshape with
    /// [`Tensor::reset`] before use).
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Self { rows, cols, data }
    }

    /// A single-row tensor viewing one observation/action vector.
    pub fn from_row(v: &[f64]) -> Self {
        Self::from_vec(1, v.len(), v.to_vec())
    }

    /// Number of rows (batch dimension).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// `A·B`: `(r×k)·(k×c) → (r×c)`, ikj loop order (cache-friendly for
    /// row-major operands).
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul dims");
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// `Aᵀ·B`: `(k×r)ᵀ·(k×c) → (r×c)` without materializing `Aᵀ`.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "matmul_tn dims");
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aki * b;
                }
            }
        }
        out
    }

    /// `A·Bᵀ`: `(r×k)·(c×k)ᵀ → (r×c)` without materializing `Bᵀ`.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dims");
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Reshapes in place to `(rows, cols)`, reusing the existing
    /// allocation. Contents are preserved when the element count is
    /// unchanged and zeroed otherwise; capacity never shrinks, so
    /// steady-state reshaping performs no heap allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.len() != n {
            self.data.clear();
            self.data.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        for x in &mut self.data {
            *x = v;
        }
    }

    /// `A·B` into a caller-owned output (register-blocked, allocation-free
    /// once `out` is warmed up; bit-identical to [`Tensor::matmul`]).
    /// `out` is reshaped to `(self.rows, rhs.cols)`; batch-1 inputs take
    /// the dedicated [`Tensor::gemv_into`] fast path.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.rows, "matmul dims");
        out.reset(self.rows, rhs.cols);
        if self.rows == 1 {
            gemv(&self.data, &rhs.data, rhs.cols, &mut out.data);
        } else {
            gemm_nn(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
        }
    }

    /// `Aᵀ·B` into a caller-owned output (register-blocked; bit-identical
    /// to [`Tensor::matmul_tn`]). `out` is reshaped to
    /// `(self.cols, rhs.cols)`.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn dims");
        out.reset(self.cols, rhs.cols);
        gemm_tn(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// `A·Bᵀ` into a caller-owned output (register-blocked; bit-identical
    /// to [`Tensor::matmul_nt`]). `out` is reshaped to
    /// `(self.rows, rhs.rows)`.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dims");
        out.reset(self.rows, rhs.rows);
        gemm_nt(&self.data, self.rows, self.cols, &rhs.data, rhs.rows, &mut out.data);
    }

    /// Batch-1 fast path `out = x·W` for a row vector (the inference hot
    /// path): 4-wide register blocking, zero allocation, bit-identical to
    /// a 1-row [`Tensor::matmul`].
    pub fn gemv_into(x: &[f64], w: &Tensor, out: &mut [f64]) {
        assert_eq!(x.len(), w.rows, "gemv dims");
        assert_eq!(out.len(), w.cols, "gemv output dims");
        gemv(x, &w.data, w.cols, out);
    }

    /// Adds a bias row-vector to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias dims");
        for i in 0..self.rows {
            for (v, &b) in self.row_mut(i).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Applies `f` entry-wise, in place.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Column sums (bias gradients).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_variants_agree_with_explicit_transposes() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(2, 3, vec![7., 8., 9., 10., 11., 12.]);
        // a^T (3x2) * b (2x3) = 3x3
        let tn = a.matmul_tn(&b);
        assert_eq!(tn.rows(), 3);
        assert_eq!(tn.get(0, 0), 1. * 7. + 4. * 10.);
        assert_eq!(tn.get(2, 1), 3. * 8. + 6. * 11.);
        // a (2x3) * b^T (3x2) = 2x2
        let nt = a.matmul_nt(&b);
        assert_eq!(nt.get(0, 0), 1. * 7. + 2. * 8. + 3. * 9.);
        assert_eq!(nt.get(1, 1), 4. * 10. + 5. * 11. + 6. * 12.);
    }

    #[test]
    fn broadcast_and_colsums() {
        let mut a = Tensor::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(a.get(2, 0), 1.0);
        assert_eq!(a.get(0, 1), -2.0);
        let s = a.col_sums();
        assert_eq!(s, vec![3.0, -6.0]);
    }

    /// Deterministic pseudo-random matrix with exact zeros sprinkled in so
    /// the kernels' zero-skip branches are exercised.
    fn test_matrix(rows: usize, cols: usize, salt: u64) -> Tensor {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let v = ((i as f64 + salt as f64) * 0.789).sin();
                if i % 7 == 3 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_bits_equal(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "entry {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_into_kernels_bit_identical_to_naive() {
        // Shapes straddling the 2-row / 4-column tile boundaries.
        for (r, k, c) in [(1, 1, 1), (2, 3, 4), (3, 5, 7), (5, 8, 9), (8, 8, 8), (7, 13, 6)] {
            let a = test_matrix(r, k, 1);
            let b = test_matrix(k, c, 2);
            let mut out = Tensor::zeros(0, 0);
            a.matmul_into(&b, &mut out);
            assert_bits_equal(out.as_slice(), a.matmul(&b).as_slice());

            let at = test_matrix(k, r, 3);
            at.matmul_tn_into(&b, &mut out);
            assert_bits_equal(out.as_slice(), at.matmul_tn(&b).as_slice());

            let bt = test_matrix(c, k, 4);
            a.matmul_nt_into(&bt, &mut out);
            assert_bits_equal(out.as_slice(), a.matmul_nt(&bt).as_slice());

            let x = test_matrix(1, k, 5);
            let mut gout = vec![0.0; c];
            Tensor::gemv_into(x.as_slice(), &b, &mut gout);
            assert_bits_equal(&gout, x.matmul(&b).as_slice());
        }
    }

    #[test]
    fn reset_reuses_allocation_and_zeroes_on_size_change() {
        let mut t = Tensor::from_vec(2, 3, vec![1.0; 6]);
        t.reset(2, 3);
        assert_eq!(t.as_slice(), &[1.0; 6]); // unchanged size keeps data
        t.reset(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        t.reset(1, 2); // shrink, then grow back within capacity
        t.fill(7.0);
        t.reset(3, 4);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn map_inplace_applies_entrywise() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, -1.0, 2.0]);
        a.map_inplace(|v| v * v);
        assert_eq!(a.as_slice(), &[1.0, 1.0, 4.0]);
    }
}
