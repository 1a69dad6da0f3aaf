//! Continuous-time Markov chain queueing substrate.
//!
//! Everything the finite-system simulator (Algorithm 1 of Tahir, Cui &
//! Koeppl, ICPP '22) needs below the policy layer, built from scratch:
//!
//! * [`sampler`] — exact non-uniform random variate generation on top of a
//!   uniform source: exponential, Poisson (inversion + PTRS), binomial
//!   (inversion + BTRS transformed rejection), alias-method categoricals and
//!   multinomials via conditional binomials. These make the *aggregate*
//!   finite-system engine exact at `N = 10^6` clients.
//! * [`birth_death`] — the paper's per-queue model: a finite-buffer
//!   birth–death chain with drop counting, exact (Gillespie) epoch
//!   simulation, transient and stationary analysis.
//! * [`mmpp`] — the Markov-modulated arrival-rate chain `λ_{t+1} ∼ P_λ(λ_t)`
//!   (Eq. 1, 32–33).
//! * [`mmpp_fit`] — fitting that chain from a trace of per-epoch arrival
//!   rates.
//! * [`fifo`] — a job-level FIFO queue with sojourn-time tracking (used by
//!   the response-time extension experiments).
//! * [`phase_type`] — phase-type service-time distributions and the
//!   `M/PH/1/B` queue (the paper's §5 non-exponential-service extension).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod birth_death;
pub mod fifo;
pub mod mmpp;
pub mod mmpp_fit;
pub mod phase_type;
pub mod sampler;

pub use birth_death::{BirthDeathQueue, EpochOutcome};
pub use mmpp::ArrivalProcess;
pub use mmpp_fit::{fit_mmpp, MmppFit};
pub use phase_type::{PhQueue, PhQueueState, PhaseType};
pub use sampler::{AliasTable, Sampler};
