//! Small dense linear algebra for continuous-time Markov chain (CTMC)
//! transient analysis.
//!
//! This crate provides exactly the numerical kernels needed by the
//! mean-field load-balancing model of Tahir, Cui & Koeppl (ICPP '22):
//!
//! * [`Mat`] — a dense row-major `f64` matrix with products, scaling and
//!   norms,
//! * [`lu::Lu`] — LU decomposition with partial pivoting (used by the Padé
//!   matrix exponential),
//! * [`expm::expm`] — scaling-and-squaring matrix exponential with Padé
//!   approximants (Higham 2005 degree selection), evaluated in a reused
//!   per-thread workspace (see below),
//! * [`uniformization`] — the action of `exp(Q·t)` on a distribution for
//!   conservative generators `Q`, with rigorous truncation control,
//! * [`stats`] — scalar statistics (mean, variance, confidence intervals,
//!   chi-square goodness-of-fit) used by the experiment harness and the
//!   sampler test-suites.
//!
//! The matrices arising in the model are tiny ((B+2)×(B+2) with B ≈ 5), so
//! the implementations favour clarity and numerical robustness over
//! asymptotic tricks; everything is allocation-conscious enough to sit in
//! the inner loop of the simulator regardless.
//!
//! # The `expm` workspace and its bit-identity contract
//!
//! Every mean-field epoch calls [`expm()`] once per occupied queue state, so
//! it keeps its Padé buffers (the power stack, `U`/`V`, which then hold
//! `q(A)`/`p(A)`, the LU factors with their permutation, the solve column
//! and the squaring buffer) in a thread-local workspace and allocates only
//! the returned [`Mat`]. The workspace is an implementation detail with
//! three rules:
//!
//! * **Same operation order.** Its products and its solve run the in-place
//!   forms that [`Mat::matmul`], [`Lu::new`] and [`Lu::solve_mat`] wrap,
//!   so its output is bit-identical to allocating every buffer afresh
//!   (`tests/expm_bits.rs` pins the digest of a fixed corpus).
//! * **Thread-local.** Each thread owns one workspace, so concurrent calls
//!   never share state, and a call's result does not depend on what the
//!   thread computed before.
//! * **No reentrancy.** `expm` never calls itself while holding the
//!   workspace; a nested call would panic on the `RefCell` borrow.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod expm;
pub mod lu;
pub mod matrix;
pub mod stationary;
pub mod stats;
pub mod uniformization;

pub use expm::expm;
pub use lu::Lu;
pub use matrix::Mat;
pub use stationary::{ctmc_stationary, dtmc_stationary, StationaryError};
pub use uniformization::{transient_distribution, UniformizationError};
