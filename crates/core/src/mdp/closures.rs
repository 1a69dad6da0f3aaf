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
use crate::meanfield::{advance_groups, per_state_arrival_rates};
use crate::rule::DecisionRule;
use crate::service::{Exponential, ServiceModel};
use rand::Rng;
use std::borrow::Cow;

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

/// The mean field of a pool of queues with per-queue [`ServiceModel`] `S`
/// (Eq. 20–28) over an arrival-rate integrand: the paper's model with
/// [`Exponential`] service, heterogeneous pools with
/// [`RateClasses`](crate::service::RateClasses) (§2.5) and phase-type
/// service with [`PhaseType`](mflb_queue::PhaseType) (§5) — the same
/// types `mflb_sim::AggregateEngine` runs on.
///
/// The state is the hidden per-queue distribution; one epoch groups it
/// into observed states, takes Eq. 22's rate per observed state, advances
/// each occupied group through its own chain (one
/// [`ChainStack`](mflb_linalg::ChainStack) for the epoch) and mixes the
/// results back. The policy observes the length marginal; with
/// [`Exponential`] service the hidden state is `ν_t` itself.
#[derive(Debug, Clone)]
pub struct MeanField<S = Exponential> {
    service: S,
    integrand: Integrand,
    service_rate: f64,
    num_lengths: usize,
    hidden: StateDist,
}

impl<S: ServiceModel> MeanField<S> {
    /// The closure at `ν₀` lifted to `service`'s hidden states, with the
    /// config's service rate.
    pub fn new(config: &SystemConfig, service: S, integrand: Integrand) -> Self {
        let nu0 = StateDist::new(config.initial_dist.clone());
        let hidden = StateDist::new(service.lift(&nu0));
        let (service_rate, num_lengths) = (config.service_rate, config.num_states());
        Self { service, integrand, service_rate, num_lengths, hidden }
    }

    /// The same closure at another hidden state (the DP steps lattice
    /// points `ν` of the exponential model through it).
    pub fn with_dist(&self, hidden: StateDist) -> Self {
        assert_eq!(hidden.num_states(), self.hidden.num_states(), "hidden state layout");
        Self { hidden, service: self.service.clone(), ..*self }
    }

    /// The hidden per-queue distribution (`ν_t` for exponential service).
    pub fn dist(&self) -> &StateDist {
        &self.hidden
    }

    /// The distribution over observed states: the hidden one itself when
    /// every observed state is one hidden state, else the group masses.
    fn grouped(&self) -> Cow<'_, StateDist> {
        let n = self.service.num_observed(self.num_lengths);
        if self.hidden.num_states() == n {
            return Cow::Borrowed(&self.hidden);
        }
        let hidden = self.hidden.as_slice();
        let mut masses: Vec<f64> =
            (0..n).map(|o| hidden[self.service.group(o, self.num_lengths)].iter().sum()).collect();
        // Guard against 1e-16 drift before the StateDist constructor.
        let total: f64 = masses.iter().sum();
        masses.iter_mut().for_each(|m| *m /= total);
        Cow::Owned(StateDist::new(masses))
    }
}

impl<S: ServiceModel> Closure for MeanField<S> {
    fn rule_states(&self) -> usize {
        self.service.num_observed(self.num_lengths)
    }

    fn observed(&self) -> StateDist {
        let grouped = self.grouped();
        if grouped.num_states() == self.num_lengths {
            return grouped.into_owned();
        }
        let mut lengths = vec![0.0; self.num_lengths];
        for (o, &p) in grouped.as_slice().iter().enumerate() {
            lengths[self.service.observed_length(o, self.num_lengths)] += p;
        }
        StateDist::new(lengths)
    }

    fn step(&mut self, rule: &DecisionRule, lambda: f64, _t0: f64, dt: f64) -> (f64, f64) {
        let rates = self.integrand.rates(&self.grouped(), rule, lambda);
        let (next, drops) = advance_groups(
            &self.service,
            self.hidden.as_slice(),
            &rates,
            self.service_rate,
            self.num_lengths,
            dt,
        );
        self.hidden = StateDist::new(next);
        let grouped = self.grouped();
        let lengths = grouped.as_slice().iter().enumerate();
        let mean_len = lengths
            .map(|(o, p)| self.service.observed_length(o, self.num_lengths) as f64 * p)
            .sum();
        (drops, mean_len)
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
        let cond: Vec<f64> = pool.iter().map(|p| p / mass).collect();
        let (next, drops) = advance_groups(&Exponential, &cond, rates, service, pool.len(), dt);
        for (p, q) in pool.iter_mut().zip(next) {
            *p = mass * q;
        }
        mass * drops
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::{FixedRulePolicy, MeanFieldMdp};
    use crate::meanfield::mean_field_step;
    use crate::service::RateClasses;
    use mflb_queue::PhaseType;

    /// JSQ over `zs·classes` states comparing only lengths (rate-blind).
    fn composite_jsq(zs: usize, classes: usize) -> DecisionRule {
        DecisionRule::from_fn(zs * classes, 2, |t| {
            let (a, b) = (t[0] % zs, t[1] % zs);
            use std::cmp::Ordering::*;
            match a.cmp(&b) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        })
    }

    /// SED over composite states (delay = (z+1)/α_class).
    fn composite_sed(zs: usize, class_rates: &[f64]) -> DecisionRule {
        let rates = class_rates.to_vec();
        DecisionRule::from_fn(zs * rates.len(), 2, move |t| {
            let delay = |idx: usize| (idx % zs) as f64 / rates[idx / zs] + 1.0 / rates[idx / zs];
            let (da, db) = (delay(t[0]), delay(t[1]));
            if (da - db).abs() < 1e-12 {
                vec![0.5, 0.5]
            } else if da < db {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            }
        })
    }

    /// Two equal classes at `class_rates`, every queue empty (`B = 5`).
    fn two_classes_empty(class_rates: [f64; 2]) -> MeanField<RateClasses> {
        let cfg = SystemConfig::paper();
        MeanField::new(&cfg, RateClasses::new(&class_rates), Integrand::FullMesh)
    }

    /// `epochs` epochs under `rule` at arrival rate 0.9 and `Δt = 5`: the
    /// end state and the cumulative expected drops per queue.
    fn run<S: ServiceModel>(
        field: &MeanField<S>,
        rule: &DecisionRule,
        epochs: usize,
    ) -> (MeanField<S>, f64) {
        let mut field = field.clone();
        let drops = (0..epochs).map(|_| field.step(rule, 0.9, 0.0, 5.0).0).sum();
        (field, drops)
    }

    /// Mass and mean length of class `c` of a two-class field (`B = 5`).
    fn class_mass_and_mean(field: &MeanField<RateClasses>, c: usize) -> (f64, f64) {
        let block = &field.dist().as_slice()[c * 6..(c + 1) * 6];
        let mass: f64 = block.iter().sum();
        let mean = block.iter().enumerate().map(|(z, p)| z as f64 * p).sum::<f64>() / mass;
        (mass, mean)
    }

    #[test]
    fn single_class_collapses_to_homogeneous_model() {
        let nu = StateDist::new(vec![0.3, 0.25, 0.2, 0.15, 0.07, 0.03]);
        let mut cfg = SystemConfig::paper();
        cfg.initial_dist = nu.as_slice().to_vec();
        let mut hetero = MeanField::new(&cfg, RateClasses::new(&[1.0]), Integrand::FullMesh);
        let rule = composite_jsq(6, 1);
        let (drops, _) = hetero.step(&rule, 0.9, 0.0, 5.0);
        let reference = mean_field_step(&nu, &rule, 0.9, 1.0, 5.0);
        assert!((drops - reference.expected_drops).abs() < 1e-12);
        for (a, b) in hetero.dist().as_slice().iter().zip(reference.next_dist.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn step_conserves_class_masses_and_bounds_drops() {
        let hetero = two_classes_empty([1.6, 0.4]);
        let rule = composite_sed(6, &[1.6, 0.4]);
        let (end, drops) = run(&hetero, &rule, 20);
        for c in 0..2 {
            let (mass, _) = class_mass_and_mean(&end, c);
            assert!((mass - 0.5).abs() < 1e-9, "class {c} mass {mass}");
        }
        assert!((0.0..=0.9 * 5.0 * 20.0).contains(&drops));
    }

    #[test]
    fn slow_class_fills_faster_under_rate_blind_routing() {
        // Under composite-blind JSQ, slow servers receive the same traffic
        // as fast ones and their queues must sit higher in steady state.
        let hetero = two_classes_empty([1.6, 0.4]);
        let (end, _) = run(&hetero, &composite_jsq(6, 2), 40);
        let (fast, slow) = (class_mass_and_mean(&end, 0).1, class_mass_and_mean(&end, 1).1);
        assert!(slow > fast + 0.5, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn sed_beats_rate_blind_jsq_in_hetero_mean_field() {
        let hetero = two_classes_empty([1.6, 0.4]);
        let (_, drops_sed) = run(&hetero, &composite_sed(6, &[1.6, 0.4]), 40);
        let (_, drops_jsq) = run(&hetero, &composite_jsq(6, 2), 40);
        assert!(
            drops_sed < drops_jsq,
            "SED {drops_sed:.3} must beat rate-blind JSQ {drops_jsq:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "rule/state-space mismatch")]
    fn rejects_rules_over_wrong_state_space() {
        let mut hetero = two_classes_empty([1.0, 2.0]);
        let rule = DecisionRule::uniform(6, 2); // plain, not composite
        hetero.step(&rule, 0.9, 0.0, 1.0);
    }

    fn jsq() -> DecisionRule {
        composite_jsq(6, 1)
    }

    fn ph_mdp(cfg: SystemConfig, service: PhaseType) -> MeanFieldMdp<MeanField<PhaseType>> {
        let closure = MeanField::new(&cfg, service, Integrand::FullMesh);
        MeanFieldMdp::with_closure(cfg, closure)
    }

    /// The phase-type closure at `nu` lifted to the joint space (`B = 5`).
    fn ph_closure(nu: &StateDist, service: PhaseType) -> MeanField<PhaseType> {
        let mut cfg = SystemConfig::paper();
        cfg.initial_dist = nu.as_slice().to_vec();
        MeanField::new(&cfg, service, Integrand::FullMesh)
    }

    #[test]
    fn one_phase_reduces_to_plain_mean_field() {
        // PH = exponential(α): the PH step must agree with the Eq. 20–28
        // implementation to machine precision on a whole trajectory.
        let cfg = SystemConfig::paper().with_dt(4.0);
        let plain = MeanFieldMdp::new(cfg.clone());
        let ph = ph_mdp(cfg, PhaseType::exponential(1.0));
        let policy = FixedRulePolicy::new(jsq(), "MF-JSQ(2)");
        let seq = vec![0usize, 1, 0, 0, 1, 1, 0, 1, 0, 0];
        let a = plain.rollout_conditioned(&policy, &seq);
        let b = ph.rollout_conditioned(&policy, &seq);
        for (x, y) in a.drops_per_epoch.iter().zip(b.drops_per_epoch.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn step_conserves_mass_and_bounds_drops() {
        let mut ph = ph_closure(&StateDist::uniform(5), PhaseType::fit_mean_scv(1.0, 2.0));
        let (drops, _) = ph.step(&jsq(), 0.9, 0.0, 5.0);
        let mass: f64 = ph.dist().as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 1e-10);
        assert!((0.0..=0.9 * 5.0).contains(&drops));
    }

    #[test]
    fn higher_service_variability_drops_more() {
        // Long conditioned rollout at fixed mean service time: SCV 4
        // service must lose more packets than SCV 0.25 under JSQ.
        let cfg = SystemConfig::paper().with_dt(5.0);
        let policy = FixedRulePolicy::new(jsq(), "MF-JSQ(2)");
        let seq = vec![0usize; 30];
        let drops_of = |scv: f64| {
            let mdp = ph_mdp(cfg.clone(), PhaseType::fit_mean_scv(1.0, scv));
            -mdp.rollout_conditioned(&policy, &seq).total_return
        };
        let low = drops_of(0.25);
        let high = drops_of(4.0);
        assert!(low < high, "SCV 0.25 drops {low} must be below SCV 4 drops {high}");
    }

    #[test]
    fn phase_mix_drifts_away_from_alpha_under_load() {
        // After an epoch under load, the in-service phase distribution is
        // no longer the fresh-start α (phases age) — the whole reason the
        // joint state is necessary.
        let mut ph = ph_closure(&StateDist::all_empty(5), PhaseType::erlang(2, 2.0));
        ph.step(&jsq(), 0.9, 0.0, 5.0);
        // Some queues at length 1 must be in the second Erlang stage.
        let aged = ph.dist().as_slice()[2];
        assert!(aged > 1e-4, "aged phase mass {aged}");
    }

    #[test]
    fn seeded_rollouts_reproduce() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = SystemConfig::paper().with_dt(5.0);
        let mdp = ph_mdp(cfg, PhaseType::fit_mean_scv(1.0, 0.5));
        let policy = FixedRulePolicy::new(jsq(), "MF-JSQ(2)");
        let a = mdp.rollout(&policy, 12, &mut StdRng::seed_from_u64(9));
        let b = mdp.rollout(&policy, 12, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }
}
