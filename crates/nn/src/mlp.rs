//! Multi-layer perceptron with explicit backprop and flat-parameter I/O.
//!
//! The paper's policy/value networks are tanh MLPs with two hidden layers
//! of 256 units (Fig. 2, Table 2). Gradients come back as a flat
//! `Vec<f64>` aligned with [`Mlp::write_params`] order, so the optimizer
//! ([`crate::adam::Adam`]) can stay a plain flat-vector method.

use crate::fast::{fast_tanh, F32Mlp, TanhMode};
use crate::linear::Linear;
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Supported hidden activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's choice).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// No nonlinearity (degenerate, for tests).
    Identity,
}

impl Activation {
    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Tanh => v.tanh(),
            Activation::Relu => v.max(0.0),
            Activation::Identity => v,
        }
    }

    /// [`Activation::apply`] under a [`TanhMode`]: identical except that
    /// `(Tanh, Fast)` routes through the rational [`fast_tanh`].
    #[inline]
    fn apply_mode(self, mode: TanhMode, v: f64) -> f64 {
        match (self, mode) {
            (Activation::Tanh, TanhMode::Fast) => fast_tanh(v),
            _ => self.apply(v),
        }
    }

    /// Derivative expressed through the *post-activation* value (valid for
    /// all supported activations and cheaper than keeping pre-activations).
    #[inline]
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// Cache of intermediate activations from a forward pass, consumed by
/// [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i]` the post-activation
    /// output of layer `i−1`; the last entry is the (linear) network output.
    activations: Vec<Tensor>,
}

impl ForwardCache {
    /// The network output.
    pub fn output(&self) -> &Tensor {
        self.activations.last().unwrap()
    }
}

/// Reusable caller-owned scratch for allocation-free forward/backward
/// passes ([`Mlp::forward_into`], [`Mlp::forward_one_into`],
/// [`Mlp::backward_into`]).
///
/// Owns the per-layer activation tensors, the backward gradient tensors
/// and a flat gradient buffer. Create one per long-lived consumer (a PPO
/// minibatch loop, a rollout worker, a deployed policy) and reuse it
/// across calls: buffers are reshaped in place ([`Tensor::reset`]) and
/// their capacity never shrinks, so a warmed-up workspace performs **no
/// heap allocation** — even when the batch size alternates (e.g. a final
/// short minibatch).
///
/// A `Workspace` is not tied to one network instance, only to a shape: it
/// lazily adapts to whatever [`Mlp`] uses it, re-allocating only when the
/// layer count or widths actually change.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// `acts[0]` is the input copy; `acts[i+1]` the (post-activation,
    /// except for the last) output of layer `i`. Mirrors
    /// [`ForwardCache::activations`].
    acts: Vec<Tensor>,
    /// `grads[i]` holds `∂L/∂acts[i]` during [`Mlp::backward_into`].
    grads: Vec<Tensor>,
    /// Flat parameter gradient in [`Mlp::write_params`] order, plus
    /// `grad_tail` extra trailing slots owned by the caller (e.g. PPO's
    /// `log_std` gradients, kept contiguous for joint norm clipping).
    flat: Vec<f64>,
    /// Extra trailing slots appended to `flat` beyond `num_params`.
    grad_tail: usize,
}

impl Workspace {
    /// An empty workspace; buffers materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `extra` trailing slots in the flat gradient buffer after
    /// the network parameters (see [`Mlp::backward_into`]).
    pub fn with_grad_tail(mut self, extra: usize) -> Self {
        self.grad_tail = extra;
        self
    }

    /// The network output of the most recent forward pass.
    ///
    /// # Panics
    /// Panics if no forward pass has been run yet.
    pub fn output(&self) -> &Tensor {
        self.acts.last().expect("workspace has not seen a forward pass")
    }

    /// Reshapes all buffers for `mlp` at `batch` rows, reusing capacity.
    fn ensure(&mut self, mlp: &Mlp, batch: usize) {
        let n = mlp.layers.len();
        if self.acts.len() != n + 1 {
            self.acts = vec![Tensor::zeros(0, 0); n + 1];
            self.grads = vec![Tensor::zeros(0, 0); n];
        }
        self.acts[0].reset(batch, mlp.input_dim());
        for (i, layer) in mlp.layers.iter().enumerate() {
            self.acts[i + 1].reset(batch, layer.fan_out());
            self.grads[i].reset(batch, layer.fan_in());
        }
        // The flat-gradient buffer is sized lazily by `backward_into`:
        // forward-only consumers (rollout inference, pooled `decide`
        // scratches) never pay for a parameter-sized buffer.
    }

    /// Sizes the flat gradient buffer for `mlp` (reusing capacity).
    fn ensure_flat(&mut self, mlp: &Mlp) {
        let want = mlp.num_params() + self.grad_tail;
        if self.flat.len() != want {
            self.flat.clear();
            self.flat.resize(want, 0.0);
        }
    }
}

/// A fully connected network with a linear output layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    /// Inference-only `tanh` evaluation mode. Skipped by serde so every
    /// pinned checkpoint stays byte-identical; deserializes to the
    /// bit-compatible default.
    #[serde(skip)]
    tanh_mode: TanhMode,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes (`sizes[0]` inputs …
    /// `sizes[last]` outputs) and hidden activation; Xavier init.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes.windows(2).map(|w| Linear::xavier(w[0], w[1], rng)).collect();
        Self { layers, activation, tanh_mode: TanhMode::default() }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().unwrap().fan_in()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().fan_out()
    }

    /// The `tanh` evaluation mode used by all forward passes.
    pub fn tanh_mode(&self) -> TanhMode {
        self.tanh_mode
    }

    /// Sets the `tanh` evaluation mode (builder form). [`TanhMode::Fast`]
    /// only changes how forward passes evaluate `Tanh` activations; the
    /// backward pass (derived from post-activation values) and parameter
    /// serialization are unaffected, so training pipelines should leave
    /// the bit-compatible default in place.
    pub fn with_tanh_mode(mut self, mode: TanhMode) -> Self {
        self.tanh_mode = mode;
        self
    }

    /// Sets the `tanh` evaluation mode in place (see
    /// [`Mlp::with_tanh_mode`]).
    pub fn set_tanh_mode(&mut self, mode: TanhMode) {
        self.tanh_mode = mode;
    }

    /// Narrows the network to a forward-only [`F32Mlp`] inference copy
    /// (half the weight-streaming traffic; not bit-identical — see the
    /// [`crate::fast`] module docs for the certification story).
    pub fn to_f32(&self) -> F32Mlp {
        F32Mlp::from_mlp(self)
    }

    /// The dense layers, in forward order (for intra-crate conversions).
    pub(crate) fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The hidden activation (for intra-crate conversions).
    pub(crate) fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass keeping the activation cache for backprop.
    pub fn forward_cached(&self, x: &Tensor) -> ForwardCache {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.clone());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(activations.last().unwrap());
            if i < last {
                let (act, mode) = (self.activation, self.tanh_mode);
                y.map_inplace(|v| act.apply_mode(mode, v));
            }
            activations.push(y);
        }
        ForwardCache { activations }
    }

    /// Forward pass without cache (inference).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_cached(x).output().clone()
    }

    /// Convenience single-sample forward.
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        self.forward(&Tensor::from_row(x)).as_slice().to_vec()
    }

    /// Allocation-free forward pass through a reusable [`Workspace`]
    /// (bit-identical to [`Mlp::forward_cached`]); returns the output
    /// activation. The workspace keeps every intermediate activation, so
    /// [`Mlp::backward_into`] can follow without a separate cache.
    pub fn forward_into<'w>(&self, x: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        assert_eq!(x.cols(), self.input_dim(), "input dims");
        ws.ensure(self, x.rows());
        ws.acts[0].as_mut_slice().copy_from_slice(x.as_slice());
        self.forward_ws(ws);
        ws.output()
    }

    /// Batch-1 inference fast path: runs `x` through the network using the
    /// workspace's scratch and the `gemv` kernels — no heap allocation
    /// once `ws` is warm, bit-identical to [`Mlp::forward_one`].
    pub fn forward_one_into<'w>(&self, x: &[f64], ws: &'w mut Workspace) -> &'w [f64] {
        assert_eq!(x.len(), self.input_dim(), "input dims");
        ws.ensure(self, 1);
        ws.acts[0].as_mut_slice().copy_from_slice(x);
        self.forward_ws(ws);
        ws.output().as_slice()
    }

    /// Batched inference fast path: runs `rows` stacked input rows
    /// (`rows × input_dim`, row-major — e.g. an encoded observation
    /// batch) through the network in one gemm per layer, returning the
    /// `rows × output_dim` output tensor living in `ws`.
    ///
    /// Bit-identical to `rows` successive [`Mlp::forward_one_into`] calls:
    /// the gemm kernels accumulate each output row with exactly the
    /// per-row gemv ordering, so batching never perturbs a seed-pinned
    /// run. No heap allocation once `ws` is warm.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * input_dim`.
    pub fn forward_rows_into<'w>(
        &self,
        rows: usize,
        data: &[f64],
        ws: &'w mut Workspace,
    ) -> &'w Tensor {
        assert_eq!(data.len(), rows * self.input_dim(), "input dims");
        ws.ensure(self, rows);
        ws.acts[0].as_mut_slice().copy_from_slice(data);
        self.forward_ws(ws);
        ws.output()
    }

    /// Shared layer loop over a workspace whose `acts[0]` holds the input.
    fn forward_ws(&self, ws: &mut Workspace) {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = ws.acts.split_at_mut(i + 1);
            let y = &mut rest[0];
            layer.forward_into(&prev[i], y);
            if i < last {
                let (act, mode) = (self.activation, self.tanh_mode);
                y.map_inplace(|v| act.apply_mode(mode, v));
            }
        }
    }

    /// Allocation-free backward pass (bit-identical to [`Mlp::backward`])
    /// over the activations left in `ws` by the preceding
    /// [`Mlp::forward_into`]. The flat parameter gradient is written into
    /// the workspace's buffer and returned mutably; any `grad_tail` slots
    /// beyond `num_params` are left untouched for the caller.
    pub fn backward_into<'w>(&self, ws: &'w mut Workspace, grad_out: &Tensor) -> &'w mut [f64] {
        let n = self.layers.len();
        assert_eq!(ws.acts.len(), n + 1, "workspace has not seen a forward pass");
        assert_eq!(grad_out.rows(), ws.acts[0].rows(), "grad_out batch");
        assert_eq!(grad_out.cols(), self.output_dim(), "grad_out dims");
        ws.ensure_flat(self);
        let Workspace { acts, grads, flat, .. } = ws;
        // Walk layers backwards, peeling parameter offsets off the total.
        let mut off = self.num_params();
        for i in (0..n).rev() {
            let layer = &self.layers[i];
            let np = layer.num_params();
            off -= np;
            let nw = np - layer.fan_out();
            let (gw, gb) = flat[off..off + np].split_at_mut(nw);
            let (gl, gr) = grads.split_at_mut(i + 1);
            let g_out: &Tensor = if i == n - 1 { grad_out } else { &gr[0] };
            layer.backward_into(&acts[i], g_out, &mut gl[i], gw, gb);
            if i > 0 {
                // Multiply by the activation derivative of the previous
                // layer's output (exactly acts[i]), as in [`Mlp::backward`].
                let act = self.activation;
                for (g, &y) in gl[i].as_mut_slice().iter_mut().zip(acts[i].as_slice()) {
                    *g *= act.derivative_from_output(y);
                }
            }
        }
        flat
    }

    /// Mutable parameter segments in [`Mlp::write_params`] order (per
    /// layer: weights row-major, then bias) — the in-place counterpart of
    /// [`Mlp::params_vec`]/[`Mlp::read_params`], built for
    /// [`crate::adam::Adam::step_segments`].
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.layers.iter_mut().flat_map(|l| [l.w.as_mut_slice(), l.b.as_mut_slice()])
    }

    /// Backward pass: given the cache and `∂L/∂output`, returns the flat
    /// parameter gradient (aligned with [`Mlp::write_params`]).
    pub fn backward(&self, cache: &ForwardCache, grad_out: &Tensor) -> Vec<f64> {
        let mut flat = vec![0.0; self.num_params()];
        // Per-layer parameter offsets in flat order.
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for layer in &self.layers {
            offsets.push(off);
            off += layer.num_params();
        }

        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            // Walking backwards: `grad` currently holds dL/d(post-activation
            // of layer i) for the last layer (linear output) or has already
            // been multiplied by the activation derivative below.
            let x = &cache.activations[i];
            let (gx, gw, gb) = self.layers[i].backward(x, &grad);
            let o = offsets[i];
            let nw = gw.as_slice().len();
            flat[o..o + nw].copy_from_slice(gw.as_slice());
            flat[o + nw..o + nw + gb.len()].copy_from_slice(&gb);
            grad = gx;
            if i > 0 {
                // Multiply by the activation derivative of the previous
                // layer's output (which is exactly cache.activations[i]).
                let act = self.activation;
                let y = &cache.activations[i];
                for (g, &yv) in grad.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *g *= act.derivative_from_output(yv);
                }
            }
        }
        flat
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Writes all parameters into a flat buffer; returns count written.
    pub fn write_params(&self, out: &mut [f64]) -> usize {
        let mut off = 0;
        for layer in &self.layers {
            off += layer.write_params(&mut out[off..]);
        }
        off
    }

    /// Reads all parameters from a flat buffer.
    pub fn read_params(&mut self, src: &[f64]) {
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.read_params(&src[off..]);
        }
        debug_assert_eq!(off, src.len());
    }

    /// Flat copy of the parameters.
    pub fn params_vec(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.num_params()];
        self.write_params(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_loss(mlp: &Mlp, x: &Tensor) -> f64 {
        mlp.forward(x).as_slice().iter().map(|v| v * v).sum::<f64>() / 2.0
    }

    #[test]
    fn full_network_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        for activation in [Activation::Tanh, Activation::Relu, Activation::Identity] {
            let mut mlp = Mlp::new(&[4, 8, 5, 3], activation, &mut rng);
            let x = Tensor::from_vec(3, 4, (0..12).map(|i| ((i as f64) * 0.7).sin()).collect());
            let cache = mlp.forward_cached(&x);
            let grad_out = cache.output().clone(); // dL/dy = y for L = Σy²/2
            let analytic = mlp.backward(&cache, &grad_out);

            let eps = 1e-6;
            let mut params = mlp.params_vec();
            // Spot-check a spread of parameters (every 17th) to keep the
            // test fast while covering all layers.
            for idx in (0..params.len()).step_by(17) {
                let orig = params[idx];
                params[idx] = orig + eps;
                mlp.read_params(&params);
                let up = quadratic_loss(&mlp, &x);
                params[idx] = orig - eps;
                mlp.read_params(&params);
                let down = quadratic_loss(&mlp, &x);
                params[idx] = orig;
                mlp.read_params(&params);
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - analytic[idx]).abs() < 1e-5,
                    "{activation:?} param {idx}: numeric {numeric} vs analytic {}",
                    analytic[idx]
                );
            }
        }
    }

    #[test]
    fn params_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[3, 6, 2], Activation::Tanh, &mut rng);
        let v = mlp.params_vec();
        let mut clone = Mlp::new(&[3, 6, 2], Activation::Tanh, &mut rng);
        clone.read_params(&v);
        let x = [0.1, -0.2, 0.9];
        assert_eq!(mlp.forward_one(&x), clone.forward_one(&x));
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, &mut rng);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(mlp, back);
    }

    #[test]
    fn workspace_paths_bit_identical_to_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(6);
        let mlp = Mlp::new(&[4, 8, 5, 3], Activation::Tanh, &mut rng);
        let mut ws = Workspace::new().with_grad_tail(2);
        // Two different batch sizes through the SAME workspace (reuse and
        // reshape must not perturb results).
        for (batch, salt) in [(3usize, 0.3), (1usize, 0.9), (3usize, 0.1)] {
            let x = Tensor::from_vec(
                batch,
                4,
                (0..batch * 4).map(|i| ((i as f64) * 0.7 + salt).sin()).collect(),
            );
            let cache = mlp.forward_cached(&x);
            let out = mlp.forward_into(&x, &mut ws);
            assert_eq!(out, cache.output());
            let grad_out = cache.output().clone();
            let flat_ref = mlp.backward(&cache, &grad_out);
            let flat = mlp.backward_into(&mut ws, &grad_out);
            assert_eq!(flat.len(), mlp.num_params() + 2);
            for (i, (a, b)) in flat_ref.iter().zip(flat.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "flat grad {i}");
            }
        }
        // Batch-1 fast path against forward_one.
        let x1 = [0.2, -0.4, 0.8, 0.0];
        let one = mlp.forward_one_into(&x1, &mut ws).to_vec();
        assert_eq!(one, mlp.forward_one(&x1));
    }

    #[test]
    fn params_mut_covers_write_params_order() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[3, 6, 2], Activation::Tanh, &mut rng);
        let flat = mlp.params_vec();
        let mut off = 0;
        for seg in mlp.params_mut() {
            for (a, b) in seg.iter().zip(&flat[off..]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            off += seg.len();
        }
        assert_eq!(off, flat.len());
    }

    #[test]
    fn forward_rows_into_bit_identical_to_sequential_gemv() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(&[5, 16, 16, 3], Activation::Tanh, &mut rng);
        let rows = 7;
        let data: Vec<f64> = (0..rows * 5).map(|i| ((i as f64) * 0.41).cos()).collect();
        let mut ws_batch = Workspace::new();
        let mut ws_one = Workspace::new();
        let out = mlp.forward_rows_into(rows, &data, &mut ws_batch);
        assert_eq!(out.rows(), rows);
        assert_eq!(out.cols(), 3);
        for r in 0..rows {
            let one = mlp.forward_one_into(&data[r * 5..(r + 1) * 5], &mut ws_one);
            for (c, (a, b)) in out.row(r).iter().zip(one.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn fast_tanh_mode_close_but_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let bit = Mlp::new(&[4, 32, 2], Activation::Tanh, &mut rng);
        let fast = bit.clone().with_tanh_mode(TanhMode::Fast);
        assert_eq!(bit.tanh_mode(), TanhMode::BitCompat);
        assert_eq!(fast.tanh_mode(), TanhMode::Fast);
        let x = [0.4, -0.7, 0.1, 0.9];
        let a = bit.forward_one(&x);
        let b = fast.forward_one(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-6, "fast mode drifted: {u} vs {v}");
        }
        // Mode survives serde as the default (field is skipped).
        let back: Mlp = serde_json::from_str(&serde_json::to_string(&fast).unwrap()).unwrap();
        assert_eq!(back.tanh_mode(), TanhMode::BitCompat);
    }

    #[test]
    fn batch_forward_matches_per_sample() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut rng);
        let rows = [vec![0.1, 0.2, 0.3], vec![-1.0, 0.5, 0.0]];
        let batch = Tensor::from_vec(2, 3, rows.concat());
        let y = mlp.forward(&batch);
        for (i, r) in rows.iter().enumerate() {
            let single = mlp.forward_one(r);
            for (a, b) in y.row(i).iter().zip(single.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
