//! A dense (fully connected) layer with explicit forward/backward.
//!
//! The layer is purely functional: `forward` consumes an input batch and
//! returns the output; `backward` consumes the stored input and the output
//! gradient and returns `(input gradient, weight gradient, bias gradient)`.
//! Keeping activations outside the layer makes the backprop code easy to
//! audit and to gradient-check.

use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = x·W + b` with `W : (fan_in × fan_out)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, shape `(fan_in, fan_out)`.
    pub w: Tensor,
    /// Bias, length `fan_out`.
    pub b: Vec<f64>,
}

impl Linear {
    /// Xavier/Glorot-uniform initialization: `U(±√(6/(fan_in+fan_out)))`,
    /// zero bias — the standard choice for tanh MLPs (the paper's network).
    pub fn xavier<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        let mut w = Tensor::zeros(fan_in, fan_out);
        for v in w.as_mut_slice() {
            *v = rng.gen_range(-limit..limit);
        }
        Self { w, b: vec![0.0; fan_out] }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass on a batch `(batch × fan_in) → (batch × fan_out)`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass. `x` is the input the forward pass saw; `grad_out` is
    /// `∂L/∂y`. Returns `(∂L/∂x, ∂L/∂W, ∂L/∂b)`.
    pub fn backward(&self, x: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor, Vec<f64>) {
        let grad_x = grad_out.matmul_nt(&self.w); // (batch × fan_in)
        let grad_w = x.matmul_tn(grad_out); // (fan_in × fan_out)
        let grad_b = grad_out.col_sums();
        (grad_x, grad_w, grad_b)
    }

    /// Allocation-free forward pass into a caller-owned output
    /// (bit-identical to [`Linear::forward`]; batch-1 inputs dispatch to
    /// the `gemv` fast path inside [`Tensor::matmul_into`]).
    pub fn forward_into(&self, x: &Tensor, out: &mut Tensor) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
    }

    /// Allocation-free backward pass (bit-identical to
    /// [`Linear::backward`]). The input gradient lands in the caller-owned
    /// `grad_x`; the weight gradient is written **directly into**
    /// `grad_w` — a `fan_in·fan_out` slice laid out row-major, i.e. exactly
    /// the [`Linear::write_params`] weight block of a flat gradient
    /// buffer — and the bias gradient into `grad_b` (the bias block).
    pub fn backward_into(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        grad_x: &mut Tensor,
        grad_w: &mut [f64],
        grad_b: &mut [f64],
    ) {
        assert_eq!(grad_w.len(), self.w.rows() * self.w.cols(), "grad_w dims");
        assert_eq!(grad_b.len(), self.b.len(), "grad_b dims");
        grad_out.matmul_nt_into(&self.w, grad_x);
        crate::tensor::gemm_tn(
            x.as_slice(),
            x.rows(),
            x.cols(),
            grad_out.as_slice(),
            grad_out.cols(),
            grad_w,
        );
        // Column sums in the same row-ascending order as
        // [`Tensor::col_sums`].
        grad_b.fill(0.0);
        for i in 0..grad_out.rows() {
            for (o, &v) in grad_b.iter_mut().zip(grad_out.row(i)) {
                *o += v;
            }
        }
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Copies parameters into `out` (weights row-major, then bias);
    /// returns the number written.
    pub fn write_params(&self, out: &mut [f64]) -> usize {
        let nw = self.w.as_slice().len();
        out[..nw].copy_from_slice(self.w.as_slice());
        out[nw..nw + self.b.len()].copy_from_slice(&self.b);
        nw + self.b.len()
    }

    /// Reads parameters from `src` in [`Linear::write_params`] order;
    /// returns the number consumed.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let nw = self.w.as_slice().len();
        let nb = self.b.len();
        self.w.as_mut_slice().copy_from_slice(&src[..nw]);
        self.b.copy_from_slice(&src[nw..nw + nb]);
        nw + nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut l = Linear::xavier(2, 2, &mut StdRng::seed_from_u64(1));
        l.w = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        let x = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[1.0 - 3.0 + 0.5, 2.0 - 4.0 - 0.5]);
    }

    #[test]
    fn backward_gradient_check() {
        // Finite-difference check of dL/dW, dL/db, dL/dx for L = sum(y^2)/2.
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::xavier(3, 2, &mut rng);
        let x = Tensor::from_vec(2, 3, vec![0.3, -0.7, 1.1, 0.0, 0.5, -0.2]);
        let y = l.forward(&x);
        let grad_out = y.clone(); // dL/dy = y
        let (gx, gw, gb) = l.backward(&x, &grad_out);

        let loss = |l: &Linear, x: &Tensor| -> f64 {
            l.forward(x).as_slice().iter().map(|v| v * v).sum::<f64>() / 2.0
        };
        let eps = 1e-6;
        // Weights.
        for idx in 0..6 {
            let orig = l.w.as_slice()[idx];
            l.w.as_mut_slice()[idx] = orig + eps;
            let up = loss(&l, &x);
            l.w.as_mut_slice()[idx] = orig - eps;
            let down = loss(&l, &x);
            l.w.as_mut_slice()[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 1e-6, "w[{idx}]");
        }
        // Bias.
        for idx in 0..2 {
            let orig = l.b[idx];
            l.b[idx] = orig + eps;
            let up = loss(&l, &x);
            l.b[idx] = orig - eps;
            let down = loss(&l, &x);
            l.b[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - gb[idx]).abs() < 1e-6, "b[{idx}]");
        }
        // Input.
        let mut x2 = x.clone();
        for idx in 0..6 {
            let orig = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = orig + eps;
            let up = loss(&l, &x2);
            x2.as_mut_slice()[idx] = orig - eps;
            let down = loss(&l, &x2);
            x2.as_mut_slice()[idx] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-6, "x[{idx}]");
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::xavier(4, 3, &mut rng);
        let mut buf = vec![0.0; l.num_params()];
        assert_eq!(l.write_params(&mut buf), 15);
        let mut l2 = Linear::xavier(4, 3, &mut rng);
        l2.read_params(&buf);
        assert_eq!(l, l2);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = Linear::xavier(8, 8, &mut rng);
        let limit = (6.0 / 16.0f64).sqrt();
        assert!(l.w.as_slice().iter().all(|v| v.abs() <= limit));
        assert!(l.b.iter().all(|&v| v == 0.0));
    }
}
