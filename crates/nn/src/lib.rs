//! Minimal neural-network substrate for the hand-rolled PPO stack.
//!
//! The `repro` assessment of this paper flags Rust RL crates as immature,
//! so the whole learning stack is built from scratch. This crate provides
//! the differentiable pieces:
//!
//! * [`tensor::Tensor`] — batched row-major 2-D math,
//! * [`linear::Linear`] — dense layers with audit-friendly explicit
//!   backprop,
//! * [`mlp::Mlp`] — tanh MLPs (the paper's 2×256 policy/value networks,
//!   Fig. 2) with flat-parameter I/O and finite-difference-checked
//!   gradients,
//! * [`adam::Adam`] — flat-vector Adam plus global-norm gradient clipping,
//! * [`gaussian::DiagGaussian`] — diagonal Gaussian heads with closed-form
//!   log-probability/entropy gradients, and [`gaussian::LogStdExps`], the
//!   per-dimension exponentials of a fixed `log_std` that batched callers
//!   compute once instead of once per row.
//!
//! # Performance
//!
//! The training/inference hot path is allocation-free: every matmul has a
//! register-blocked `*_into` twin writing into caller-owned buffers
//! ([`tensor::Tensor::matmul_into`] and friends, plus the batch-1
//! [`tensor::Tensor::gemv_into`] fast path), [`mlp::Workspace`] keeps
//! activations/gradients/flat-gradient buffers alive across calls
//! ([`mlp::Mlp::forward_into`]/[`mlp::Mlp::backward_into`]), and
//! [`adam::Adam::step_segments`] updates the network parameters in place
//! over split slices ([`mlp::Mlp::params_mut`]) without the flat-vector
//! round-trip. All fast paths are **bit-identical** to their naive,
//! allocating counterparts (same per-element accumulation order), which
//! the crate's property tests enforce — so enabling them never perturbs a
//! seed-pinned training run.
//!
//! Component ↔ paper map (Tahir, Cui & Koeppl, ICPP '22):
//!
//! * [`mlp::Mlp`] with [`mlp::Activation::Tanh`] realizes the 2×256 tanh
//!   policy and value networks of Fig. 2 / Table 2 (`fcnet_hiddens`),
//! * [`gaussian::DiagGaussian`] is the continuous action head whose means
//!   are the decision-rule logits of the §4 "manual normalization"
//!   parameterization; its exploration σ is the state-independent
//!   `log_std` PPO adapts,
//! * [`adam::Adam`] implements the optimizer behind Table 2's learning
//!   rate `5·10⁻⁵`, with [`adam::clip_grad_norm`] as RLlib's `grad_clip`,
//! * GAE(λ) itself lives in `mflb_rl::buffer` (Table 2: `λ_RL = 1`), and
//!   the clipped surrogate + adaptive-KL loss in `mflb_rl::ppo`.
//!
//! Everything serializes with `serde` so trained policies can be
//! checkpointed to JSON (`mflb_rl`'s versioned `TrainingCheckpoint`) and
//! reloaded by the evaluation binaries.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod adam;
pub mod fast;
pub mod gaussian;
pub mod linear;
pub mod mlp;
pub mod tensor;

pub use adam::{clip_grad_norm, Adam};
pub use fast::{fast_tanh, fast_tanh_f32, F32Mlp, F32Workspace, TanhMode};
pub use gaussian::{standard_normal, DiagGaussian, LogStdExps};
pub use linear::Linear;
pub use mlp::{Activation, ForwardCache, Mlp, Workspace};
pub use tensor::Tensor;
