//! The mean-field closures the upper-level MDP runs over.
//!
//! A [`Closure`] supplies only what varies between scenario kinds: the
//! hidden mean-field state, its one-epoch transition and the
//! distribution the policy observes. Everything they share — the
//! arrival-level chain, the epoch cost, the discounting and the episode
//! loop — lives in [`super::MeanFieldMdp`].

use crate::config::SystemConfig;
use crate::dist::StateDist;
use crate::faults::FaultPlan;
use crate::graph_meanfield::graph_arrival_rates;
use crate::hetero_meanfield::HeteroMeanField;
use crate::meanfield::{mean_field_step_with_rates, per_state_arrival_rates};
use crate::ph_meanfield::{ph_mean_field_step, PhDist};
use crate::rule::DecisionRule;
use mflb_queue::PhaseType;
use rand::Rng;

/// The part of the mean-field control MDP that varies between scenario
/// kinds: the hidden state and its transition. A closure is constructed
/// at its `t = 0` state (`ν₀`).
pub trait Closure: Clone + Send + 'static {
    /// States of the decision rule the policy emits.
    fn rule_states(&self) -> usize;

    /// The length distribution the policy observes.
    fn observed(&self) -> StateDist;

    /// Advances one epoch `[t0, t0 + dt)` under `rule` at per-queue
    /// arrival rate `lambda`. Returns `(expected_drops, true_mean_len)`:
    /// the per-queue drops of the epoch and the true (not the observed)
    /// mean queue length at its end, which the holding cost charges.
    fn step(&mut self, rule: &DecisionRule, lambda: f64, t0: f64, dt: f64) -> (f64, f64);

    /// Refreshes what the policy observes after an epoch — the only
    /// place a closure may draw randomness. The default observes the
    /// true state and draws nothing.
    fn refresh<R: Rng + ?Sized>(&mut self, _rng: &mut R) {}
}

/// The per-state arrival-rate integrand `λ_t(ν, z)` (Eq. 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrand {
    /// The paper's full-mesh Eq. 22.
    FullMesh,
    /// The annealed degree-indexed closure over closed neighborhoods of
    /// size `k` (see [`crate::graph_meanfield`]).
    Graph {
        /// Closed-neighborhood size `k ≥ 1` in the `M → ∞` limit.
        k: usize,
    },
}

impl Integrand {
    /// The per-state arrival rates under `rule` from the measure `nu`.
    pub(crate) fn rates(self, nu: &StateDist, rule: &DecisionRule, lambda: f64) -> Vec<f64> {
        match self {
            Integrand::FullMesh => per_state_arrival_rates(nu, rule, lambda),
            Integrand::Graph { k } => graph_arrival_rates(nu, rule, lambda, k),
        }
    }
}

/// The homogeneous exponential mean field (Eq. 20–28) over an
/// arrival-rate integrand; the policy observes the whole state `ν_t`.
#[derive(Debug, Clone)]
pub struct Homogeneous {
    integrand: Integrand,
    service_rate: f64,
    nu: StateDist,
}

impl Homogeneous {
    /// The closure at `ν₀` with the config's service rate.
    pub fn new(config: &SystemConfig, integrand: Integrand) -> Self {
        let nu = StateDist::new(config.initial_dist.clone());
        Self { integrand, service_rate: config.service_rate, nu }
    }

    /// The same closure at another state `nu` (the DP steps lattice
    /// points through it).
    pub fn with_dist(&self, nu: StateDist) -> Self {
        Self { nu, ..*self }
    }

    /// The current state `ν_t`.
    pub fn dist(&self) -> &StateDist {
        &self.nu
    }
}

impl Closure for Homogeneous {
    fn rule_states(&self) -> usize {
        self.nu.num_states()
    }

    fn observed(&self) -> StateDist {
        self.nu.clone()
    }

    fn step(&mut self, rule: &DecisionRule, lambda: f64, _t0: f64, dt: f64) -> (f64, f64) {
        let rates = self.integrand.rates(&self.nu, rule, lambda);
        let step = mean_field_step_with_rates(&self.nu, rates, self.service_rate, dt);
        self.nu = step.next_dist;
        (step.expected_drops, self.nu.mean_queue_length())
    }
}

/// The heterogeneous-pool mean field over `(length, class)` states.
///
/// The policy observes the overall length marginal `Σ_c w_c·ν_c` — what
/// a heterogeneous engine reports at deployment — so the per-class split
/// is hidden state (a POMDP like the paper's delayed-information
/// setting), and it emits a rule over the `C·(B+1)` composite states.
#[derive(Debug, Clone)]
pub struct Hetero {
    field: HeteroMeanField,
}

impl Hetero {
    /// The closure at `ν₀` in every class, for class population
    /// fractions `class_weights` and service rates `class_rates`.
    pub fn new(config: &SystemConfig, class_weights: Vec<f64>, class_rates: Vec<f64>) -> Self {
        let dists = vec![StateDist::new(config.initial_dist.clone()); class_weights.len()];
        Self { field: HeteroMeanField::new(class_weights, class_rates, dists) }
    }
}

impl Closure for Hetero {
    fn rule_states(&self) -> usize {
        self.field.num_composite_states()
    }

    fn observed(&self) -> StateDist {
        let mut probs = vec![0.0; self.field.num_lengths()];
        for (c, &w) in self.field.class_weights().iter().enumerate() {
            for (p, &q) in probs.iter_mut().zip(self.field.class_dist(c).as_slice()) {
                *p += w * q;
            }
        }
        StateDist::new(probs)
    }

    fn step(&mut self, rule: &DecisionRule, lambda: f64, _t0: f64, dt: f64) -> (f64, f64) {
        let step = self.field.step(rule, lambda, dt);
        self.field = step.next;
        (step.expected_drops, self.field.mean_queue_length())
    }
}

/// The phase-type-service mean field (§5 "non-exponential service
/// times"): the joint `(length, phase)` distribution is hidden state and
/// the policy observes its length marginal. The config's `service_rate`
/// is ignored; the law is the supplied [`PhaseType`].
#[derive(Debug, Clone)]
pub struct Ph {
    service: PhaseType,
    joint: PhDist,
}

impl Ph {
    /// The closure at `ν₀` lifted to the joint space.
    pub fn new(config: &SystemConfig, service: PhaseType) -> Self {
        let nu0 = StateDist::new(config.initial_dist.clone());
        Self { joint: PhDist::from_lengths(&nu0, &service), service }
    }
}

impl Closure for Ph {
    fn rule_states(&self) -> usize {
        self.joint.buffer() + 1
    }

    fn observed(&self) -> StateDist {
        self.joint.length_marginal()
    }

    fn step(&mut self, rule: &DecisionRule, lambda: f64, _t0: f64, dt: f64) -> (f64, f64) {
        let step = ph_mean_field_step(&self.joint, rule, lambda, &self.service, dt);
        self.joint = step.next_dist;
        (step.expected_drops, self.joint.mean_queue_length())
    }
}

/// The homogeneous mean field degraded by a [`FaultPlan`] — the annealed
/// (`M → ∞`) limit of the finite faulted engines, over either integrand.
///
/// Per epoch `[t₀, t₀ + Δt)` the plan enters the dynamics as:
///
/// * **Crashes** — the per-queue Up/Down renewal becomes a *two-pool*
///   mean field: the length distribution splits into an Up pool (full
///   service) and a Down pool (service 0), with length-preserving mass
///   exchange at the renewal rates (`1 − e^{−Δt/mttf}` of the Up pool
///   fails, `1 − e^{−Δt/mttr}` of the Down pool recovers each epoch).
///   Both pools *receive* arrivals at the same length-indexed rates —
///   matching the finite engines, where routing cannot see liveness,
///   only lengths — so crashed queues lengthen, drop, and drag the
///   observable mixture right. This bimodal limit (not a uniform
///   service-rate discount) is what makes sharp length-avoidance pay
///   off in training the way it does against the real faulted engines.
/// * **Stragglers** — the pool-mean window factor
///   (`Σ_j straggler_factor(j)/M`) scales service the same way.
/// * **Overload bursts** — [`FaultPlan::arrival_factor`] scales `λ_t`.
/// * **Observation faults** — after each epoch the snapshot refresh is
///   dropped with probability `drop_prob` (one draw in
///   [`Closure::refresh`], made before the arrival-level draw); the
///   policy then keeps observing the *stale* distribution while the true
///   mean field moves on. This is hidden state — the same POMDP
///   structure as the paper's delayed-information setting — and is what
///   teaches a fault-aware policy to hedge instead of trusting old
///   snapshots.
///
/// The rule is over plain lengths, so fault-trained policies share the
/// homogeneous observation and action shapes and deploy against any
/// engine the fault-free ones can.
#[derive(Debug, Clone)]
pub struct TwoPool {
    integrand: Integrand,
    service_rate: f64,
    num_queues: usize,
    plan: FaultPlan,
    /// Length-distribution mass of the Up pool (sums to the up fraction).
    up: Vec<f64>,
    /// Length-distribution mass of the Down (crashed) pool.
    down: Vec<f64>,
    /// What the policy sees: the mixture at the last successful refresh.
    observed: StateDist,
}

impl TwoPool {
    /// The closure at `ν₀` with every queue up.
    ///
    /// # Panics
    /// Panics on a plan that fails [`FaultPlan::validate_for`].
    pub fn new(config: &SystemConfig, plan: FaultPlan, integrand: Integrand) -> Self {
        plan.validate_for(config.num_queues).expect("invalid fault plan");
        let nu0 = config.initial_dist.clone();
        Self {
            integrand,
            service_rate: config.service_rate,
            num_queues: config.num_queues,
            plan,
            down: vec![0.0; nu0.len()],
            observed: StateDist::new(nu0.clone()),
            up: nu0,
        }
    }

    /// Pool-mean straggler factor `Σ_j f_j(t₀)/M` for the epoch.
    fn mean_straggler_factor(&self, t0: f64, dt: f64) -> f64 {
        let m = self.num_queues.max(1);
        (0..m).map(|j| self.plan.straggler_factor(j, t0, dt)).sum::<f64>() / m as f64
    }

    /// The Up + Down mixture: routing and snapshots see lengths, not liveness.
    fn mixture(&self) -> StateDist {
        let total: f64 = self.up.iter().sum::<f64>() + self.down.iter().sum::<f64>();
        StateDist::new(self.up.iter().zip(&self.down).map(|(u, d)| (u + d) / total).collect())
    }

    /// Advances one pool's mass through the shared per-state arrival
    /// rates at its own service rate; returns the pool's expected drops.
    fn advance_pool(pool: &mut [f64], rates: &[f64], service: f64, dt: f64) -> f64 {
        let mass: f64 = pool.iter().sum();
        if mass <= 1e-12 {
            return 0.0;
        }
        let cond = StateDist::new(pool.iter().map(|p| p / mass).collect());
        let step = mean_field_step_with_rates(&cond, rates.to_vec(), service, dt);
        for (p, z) in pool.iter_mut().zip(0..) {
            *p = mass * step.next_dist.prob(z);
        }
        mass * step.expected_drops
    }
}

impl Closure for TwoPool {
    fn rule_states(&self) -> usize {
        self.up.len()
    }

    fn observed(&self) -> StateDist {
        self.observed.clone()
    }

    fn step(&mut self, rule: &DecisionRule, lambda: f64, t0: f64, dt: f64) -> (f64, f64) {
        let lambda = lambda * self.plan.arrival_factor(t0, dt);
        // Crash renewal exchange: a length-preserving mass transfer
        // between the Up and Down pools at the per-epoch fail/recover
        // probabilities of the finite engines' per-queue renewals.
        if let Some(c) = &self.plan.crashes {
            let p_fail = 1.0 - (-dt / c.mttf).exp();
            let p_rec = 1.0 - (-dt / c.mttr).exp();
            for (u, d) in self.up.iter_mut().zip(&mut self.down) {
                let fail = *u * p_fail;
                let rec = *d * p_rec;
                *u += rec - fail;
                *d += fail - rec;
            }
        }
        // Both pools share one length-indexed arrival-rate vector.
        let rates = self.integrand.rates(&self.mixture(), rule, lambda);
        let service = self.service_rate * self.mean_straggler_factor(t0, dt);
        let drops = Self::advance_pool(&mut self.up, &rates, service, dt)
            + Self::advance_pool(&mut self.down, &rates, 0.0, dt);
        (drops, self.mixture().mean_queue_length())
    }

    fn refresh<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // On a dropped refresh the policy keeps seeing the old snapshot
        // (staleness compounds across consecutive drops).
        let dropped = match &self.plan.observation {
            Some(o) if o.drop_prob > 0.0 => rng.gen::<f64>() < o.drop_prob,
            _ => false,
        };
        if !dropped {
            self.observed = self.mixture();
        }
    }
}
