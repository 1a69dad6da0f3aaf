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
//!   approximants (Higham 2005 degree selection): the epoch kernel's test
//!   reference and the phase-type CDF,
//! * [`uniformization`] — the mean-field epoch kernel [`advance`]: the
//!   action of `exp(Q·t)` on a vector for a sparse conservative generator
//!   `Q` given as a list of [`Move`]s, plus the integral of a drop-rate
//!   vector along the way, with rigorous truncation control,
//! * [`stats`] — scalar statistics (mean, variance, confidence intervals,
//!   chi-square goodness-of-fit) used by the experiment harness and the
//!   sampler test-suites.
//!
//! The chains arising in the model are tiny (`B+1` states with B ≈ 5), so
//! the implementations favour clarity and numerical robustness over
//! asymptotic tricks.

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
pub use uniformization::{
    advance, dense_generator, transient_distribution, Advance, ChainStack, Move,
    UniformizationError, EPOCH_TOL,
};
