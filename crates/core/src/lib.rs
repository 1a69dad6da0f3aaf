//! The paper's primary contribution: the **mean-field control (MFC) model**
//! of delayed-information load balancing, exactly discretized into a
//! Markov decision process.
//!
//! Pipeline (paper §2):
//!
//! 1. `N` clients, `M` queues, power-of-`d` sampling, synchronization delay
//!    `Δt` ([`config::SystemConfig`]);
//! 2. infinite-agent limit `N → ∞`: agent choices enter only through the
//!    state–action distribution `G_t^M` (§2.2);
//! 3. infinite-queue limit `M → ∞`: queues enter only through the
//!    queue-state distribution `ν_t ∈ P(Z)` ([`dist::StateDist`], §2.3);
//! 4. exact discretization of the within-epoch CTMC: the action of the
//!    matrix exponential of the extended generator `Q̄(ν, z)` accumulating
//!    drops, computed by uniformization ([`meanfield`], Eq. 20–28);
//! 5. the resulting upper-level MDP with state `(ν_t, λ_t)` and action a
//!    lower-level decision rule `h_t : Z^d → P(U)` (Eq. 29–31):
//!    [`mdp::MeanFieldMdp`] owns the one episode loop (λ₀ draw, policy
//!    decision, epoch cost `−D_t`, λ advance) over a [`mdp::Closure`] —
//!    by default the paper's model, the [`mdp::MeanField`] of
//!    [`service::Exponential`] queues. The same generic closure runs the
//!    extensions' heterogeneous pools ([`service::RateClasses`]) and
//!    phase-type service ([`mflb_queue::PhaseType`]), the service models
//!    the finite aggregate engine of `mflb-sim` runs on, over the
//!    full-mesh or the degree-indexed graph integrand
//!    ([`graph_meanfield`]); [`mdp::TwoPool`] is the fault-degraded
//!    closure.
//!
//! [`theory`] provides the numerical counterpart of Theorem 1 (performance
//! of the finite system converges to the mean-field performance).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod dist;
pub mod faults;
pub mod graph_meanfield;
pub mod jobs;
pub mod mdp;
pub mod meanfield;
pub mod partial;
pub mod rule;
pub mod service;
pub mod theory;
pub mod topology;

pub use config::{check_rule_table, SystemConfig};
pub use dist::StateDist;
pub use faults::{
    stream_rng, CrashFaults, FaultPlan, ObservationFaults, OverloadWindow, StragglerWindow,
};
pub use graph_meanfield::{
    graph_arrival_rates, independent_pair, pair_arrival_rates, pair_marginal, pair_mean_field_step,
};
pub use jobs::JobSizeLaw;
pub use mdp::{MeanFieldMdp, MfState, UpperPolicy};
pub use meanfield::{
    mean_field_step, per_state_arrival_rates, per_state_arrival_rates_into,
    per_state_arrival_rates_sparse_into, MeanFieldStep,
};
pub use partial::{sampled_estimate, ObservationModel, PartialObservationPolicy};
pub use rule::DecisionRule;
pub use service::{composite_index, Exponential, RateClasses, ServiceModel};
pub use topology::{CsrNeighborhoods, Topology};

/// Resolves a requested worker-thread count: `0` means one per available
/// core (1 when the core count is unknown), anything else is taken as is.
pub fn worker_count(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn worker_count_resolves_zero_to_available_cores() {
        assert_eq!(super::worker_count(3), 3);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(super::worker_count(0), cores);
    }
}
