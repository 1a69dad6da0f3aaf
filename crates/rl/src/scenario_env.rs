//! Scenario-selected mean-field training environments.
//!
//! Given a scenario, [`build_env`] constructs the mean-field control MDP
//! whose optimal policy is what the scenario's finite system should deploy
//! (§2.3/§5 of the paper — train in the limit, evaluate at finite `N`).
//! Every environment is one [`MeanFieldEnv`]; the engine arm only picks
//! its [`Closure`]:
//!
//! | engine arm | closure |
//! |---|---|
//! | `PerClient`, `Aggregate`, `Staggered`, `JobLevel` | [`Homogeneous`] over `Integrand::FullMesh` (Eq. 20–28) |
//! | `Graph` | [`Homogeneous`] over `Integrand::Graph` with the topology's limit degree `k` (arXiv:2312.12973); a full mesh has no finite limit degree and takes `Integrand::FullMesh` |
//! | `Event` | [`Homogeneous`] over `Integrand::FullMesh` with the service rate mean-matched to the job-size law (`α / E[size]`); infinite-mean laws are rejected |
//! | `Hetero` | `Hetero` over [`mflb_core::HeteroMeanField`] (§2.5) |
//! | `Ph` | `Ph` over [`mflb_core::ph_mean_field_step`] (§5) |
//! | any of the above with a non-empty [`FaultPlan`] | `TwoPool` over the arm's integrand |
//!
//! Staggered refreshes and job-level FIFO queues share the homogeneous
//! limit. Validation admits fault plans only on `Event`, `Graph` and
//! `JobLevel`, so `TwoPool` only ever wraps an integrand; fault-free
//! scenarios never touch it.
//!
//! [`PolicyShape`] is the single source of truth for the observation/action
//! dimensions a scenario implies; checkpoint validation and policy
//! construction both go through it so a net trained for one scenario can
//! never silently deploy against an incompatible one.

use crate::env::Env;
use crate::mfc_env::{Closure, Homogeneous, Integrand, MeanFieldEnv};
use mflb_core::mdp::{action_dim, observation_dim};
use mflb_core::{
    mean_field_step_with_rates, ph_mean_field_step, DecisionRule, FaultPlan, HeteroMeanField,
    PhDist, StateDist, SystemConfig,
};
use mflb_policy::NeuralUpperPolicy;
use mflb_queue::PhaseType;
use mflb_sim::{rate_classes, EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::Rng;

/// The policy interface a scenario implies: what the learned network
/// observes and the state space of the decision rule it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyShape {
    /// States of the observed length distribution (`B + 1`). Every engine
    /// reports a length-only empirical distribution to the upper policy.
    pub obs_states: usize,
    /// States of the emitted decision rule: `B + 1` for homogeneous
    /// scenarios, `C·(B+1)` composite states for heterogeneous pools.
    pub rule_states: usize,
    /// Number of sampled queues `d`.
    pub d: usize,
    /// Number of arrival levels `|Λ|`.
    pub num_levels: usize,
}

impl PolicyShape {
    /// Derives the shape from a scenario.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        let zs = scenario.config.num_states();
        let rule_states = match &scenario.engine {
            EngineSpec::Hetero { rates } => zs * hetero_classes(rates).1.len(),
            _ => zs,
        };
        Self::with_rule_states(&scenario.config, rule_states)
    }

    /// The shape of a length-observing policy emitting rules over
    /// `rule_states` states.
    pub(crate) fn with_rule_states(config: &SystemConfig, rule_states: usize) -> Self {
        let obs_states = config.num_states();
        Self { obs_states, rule_states, d: config.d, num_levels: config.arrivals.num_levels() }
    }

    /// Observation dimensionality: `obs_states + num_levels`.
    pub fn obs_dim(&self) -> usize {
        observation_dim(self.obs_states, self.num_levels)
    }

    /// Action (decision-rule logit) dimensionality: `rule_states^d · d`.
    pub fn act_dim(&self) -> usize {
        action_dim(self.rule_states, self.d)
    }

    /// Builds the deployable policy around a trained network of this shape.
    ///
    /// # Panics
    /// Panics if the network dims do not match the shape (checkpoint
    /// loading validates first and reports an `Err` instead).
    pub fn into_policy(self, net: mflb_nn::Mlp) -> NeuralUpperPolicy {
        NeuralUpperPolicy::with_rule_space(
            net,
            self.obs_states,
            self.rule_states,
            self.d,
            self.num_levels,
        )
    }
}

/// Derives `(class_weights, class_rates)` from a per-server rate vector
/// with [`mflb_sim::rate_classes`] — the quantization `HeteroEngine`
/// applies, so the composite state indices of training and deployment
/// always agree.
pub fn hetero_classes(rates: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (class_of, class_rates) = rate_classes(rates);
    let mut counts = vec![0usize; class_rates.len()];
    for c in class_of {
        counts[c] += 1;
    }
    let total = rates.len().max(1) as f64;
    let weights = counts.iter().map(|&c| c as f64 / total).collect();
    (weights, class_rates)
}

/// Builds the mean-field training environment a scenario selects (see the
/// module docs for the arm-to-closure table).
///
/// The scenario is validated first; malformed specs come back as `Err`.
pub fn build_env(scenario: &Scenario) -> Result<Box<dyn Env>, String> {
    scenario.validate()?;
    let mut config = scenario.config.clone();
    use EngineSpec as E;
    let integrand = match &scenario.engine {
        E::PerClient | E::Aggregate | E::Staggered { .. } | E::JobLevel => Integrand::FullMesh,
        E::Graph { topology, .. } => match topology.limit_neighborhood_size() {
            Some(k) => Integrand::Graph { k },
            None => Integrand::FullMesh,
        },
        E::Event { job_size } => {
            // A server of rate α working through mean-size jobs completes
            // them at rate α/mean: exact in law for exponential sizes, a
            // reference model for the heavy-tailed laws.
            let mean = job_size.mean();
            if !(mean > 0.0 && mean.is_finite()) {
                return Err(format!(
                    "event job sizes have unusable mean {mean}; training needs a \
                     finite-mean law (Pareto shape > 1 or a bounded law)"
                ));
            }
            config.service_rate /= mean;
            Integrand::FullMesh
        }
        E::Hetero { rates } => return Ok(boxed(Hetero::new(&config, rates), config)),
        E::Ph { service } => return Ok(boxed(Ph::new(&config, service.build()?), config)),
    };
    Ok(match scenario.faults.clone().filter(|p| !p.is_empty()) {
        Some(plan) => boxed(TwoPool::new(&config, plan, integrand), config),
        None => boxed(Homogeneous::new(&config, integrand), config),
    })
}

fn boxed<C: Closure>(closure: C, config: SystemConfig) -> Box<dyn Env> {
    Box::new(MeanFieldEnv::new(config, closure))
}

/// The heterogeneous-pool mean field over `(length, class)` states.
///
/// The policy observes the overall length marginal `Σ_c w_c·ν_c` — what
/// `HeteroEngine::empirical` reports at deployment — so the per-class
/// split is hidden state (a POMDP like the paper's delayed-information
/// setting), and it emits a rule over the `C·(B+1)` composite states.
#[derive(Debug, Clone)]
pub(crate) struct Hetero {
    field: HeteroMeanField,
}

impl Hetero {
    /// The closure at `ν₀` in every class, for a per-server rate vector
    /// (deduplicated into classes via [`hetero_classes`]).
    pub(crate) fn new(config: &SystemConfig, rates: &[f64]) -> Self {
        let (weights, class_rates) = hetero_classes(rates);
        let dists = vec![StateDist::new(config.initial_dist.clone()); weights.len()];
        Self { field: HeteroMeanField::new(weights, class_rates, dists) }
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

    fn step(
        &mut self,
        rule: &DecisionRule,
        lambda: f64,
        _t0: f64,
        dt: f64,
        _rng: &mut StdRng,
    ) -> (f64, f64) {
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
pub(crate) struct Ph {
    service: PhaseType,
    joint: PhDist,
}

impl Ph {
    /// The closure at `ν₀` lifted to the joint space.
    pub(crate) fn new(config: &SystemConfig, service: PhaseType) -> Self {
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

    fn step(
        &mut self,
        rule: &DecisionRule,
        lambda: f64,
        _t0: f64,
        dt: f64,
        _rng: &mut StdRng,
    ) -> (f64, f64) {
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
/// * **Observation faults** — each epoch the snapshot refresh is dropped
///   with probability `drop_prob` (one env-RNG draw, made before the
///   arrival-level draw); the policy then keeps observing the *stale*
///   distribution while the true mean field moves on. This is hidden
///   state — the same POMDP structure as the paper's delayed-information
///   setting — and is what teaches a fault-aware policy to hedge instead
///   of trusting old snapshots.
///
/// The rule is over plain lengths, so fault-trained checkpoints share the
/// homogeneous [`PolicyShape`] and deploy against any engine the
/// fault-free ones can.
#[derive(Debug, Clone)]
pub(crate) struct TwoPool {
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
    /// The closure at `ν₀` with every queue up, for a validated plan
    /// (panics on an invalid one — [`build_env`] goes through
    /// `Scenario::validate` first and reports an `Err` instead).
    pub(crate) fn new(config: &SystemConfig, plan: FaultPlan, integrand: Integrand) -> Self {
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

    fn step(
        &mut self,
        rule: &DecisionRule,
        lambda: f64,
        t0: f64,
        dt: f64,
        rng: &mut StdRng,
    ) -> (f64, f64) {
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
        let mixture = self.mixture();
        let mean_len = mixture.mean_queue_length();
        // On a dropped refresh the policy keeps seeing the old snapshot
        // (staleness compounds across consecutive drops).
        let dropped = match &self.plan.observation {
            Some(o) if o.drop_prob > 0.0 => rng.gen::<f64>() < o.drop_prob,
            _ => false,
        };
        if !dropped {
            self.observed = mixture;
        }
        (drops, mean_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StepResult;
    use mflb_core::{CrashFaults, JobSizeLaw, ObservationFaults, Topology};
    use mflb_sim::ServiceLaw;
    use rand::SeedableRng;

    fn base_config() -> SystemConfig {
        let mut c = SystemConfig::paper().with_size(100, 10).with_dt(5.0);
        c.train_episode_len = 10;
        c
    }

    fn hetero_scenario() -> Scenario {
        let mut rates = vec![1.6; 5];
        rates.extend(vec![0.4; 5]);
        Scenario::new(base_config(), EngineSpec::Hetero { rates })
    }

    fn ph_scenario() -> Scenario {
        let service = ServiceLaw::Erlang { k: 2, rate: 2.0 };
        Scenario::new(base_config(), EngineSpec::Ph { service })
    }

    fn graph_scenario(topology: Topology) -> Scenario {
        Scenario::new(base_config(), EngineSpec::Graph { topology, shard_size: None })
    }

    /// Builds the scenario's env and checks its dims against the shape.
    fn built(scenario: &Scenario) -> Box<dyn Env> {
        let shape = PolicyShape::for_scenario(scenario);
        let env = build_env(scenario).expect("valid scenario");
        assert_eq!((env.obs_dim(), env.act_dim()), (shape.obs_dim(), shape.act_dim()));
        env
    }

    /// Runs one episode under a constant action from a seeded reset,
    /// checking every step's reward sign and observed distribution.
    fn episode(env: &mut dyn Env, seed: u64, logit: f64) -> Vec<StepResult> {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(env.reset(&mut rng).len(), env.obs_dim());
        let action = vec![logit; env.act_dim()];
        let mut steps = Vec::new();
        loop {
            let r = env.step(&action, &mut rng);
            assert!(r.reward <= 0.0, "reward is minus drops");
            let mass: f64 = r.obs[..6].iter().sum();
            assert!((mass - 1.0).abs() < 1e-8, "observed dist stays a distribution");
            let done = r.done;
            steps.push(r);
            if done {
                return steps;
            }
        }
    }

    /// Asserts two envs give the same per-step rewards from the same seed.
    fn assert_same_rewards(a: &mut dyn Env, b: &mut dyn Env, seed: u64, logit: f64, tol: f64) {
        for (ra, rb) in episode(a, seed, logit).iter().zip(&episode(b, seed, logit)) {
            assert!((ra.reward - rb.reward).abs() < tol, "{} vs {}", ra.reward, rb.reward);
        }
    }

    fn crashy_plan() -> FaultPlan {
        let crashes = Some(CrashFaults { mttf: 10.0, mttr: 5.0 });
        FaultPlan { crashes, ..FaultPlan::empty() }
    }

    #[test]
    fn shapes_per_engine_kind() {
        let homog = PolicyShape::for_scenario(&Scenario::new(base_config(), EngineSpec::Aggregate));
        assert_eq!((homog.obs_states, homog.rule_states), (6, 6));
        assert_eq!(homog.obs_dim(), 8);
        assert_eq!(homog.act_dim(), 72);

        let het = PolicyShape::for_scenario(&hetero_scenario());
        assert_eq!((het.obs_states, het.rule_states), (6, 12));
        assert_eq!(het.obs_dim(), 8);
        assert_eq!(het.act_dim(), 12 * 12 * 2);

        let ph = PolicyShape::for_scenario(&ph_scenario());
        assert_eq!((ph.obs_states, ph.rule_states), (6, 6));
    }

    #[test]
    fn built_envs_match_their_shapes_and_run_episodes() {
        let job_size = JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 };
        let scenarios = vec![
            Scenario::new(base_config(), EngineSpec::Aggregate),
            hetero_scenario(),
            ph_scenario(),
            Scenario::new(base_config(), EngineSpec::Event { job_size }),
        ];
        for scenario in scenarios {
            let mut env = built(&scenario);
            assert_eq!(env.horizon_hint(), Some(10));
            assert_eq!(episode(env.as_mut(), 1, 0.0).len(), 10);
        }
    }

    #[test]
    fn single_class_hetero_env_matches_homogeneous_env() {
        // One rate class: the hetero mean field collapses to the Eq. 20–28
        // model, and both envs consume one RNG draw per step, so identical
        // seeds must give identical rewards.
        let cfg = base_config();
        let mut hetero = MeanFieldEnv::new(cfg.clone(), Hetero::new(&cfg, &[1.0; 10]));
        assert_same_rewards(&mut hetero, &mut MeanFieldEnv::homogeneous(cfg), 7, 0.3, 1e-9);
    }

    #[test]
    fn build_env_rejects_malformed_scenarios() {
        let bad = Scenario::new(base_config(), EngineSpec::Hetero { rates: vec![1.0; 3] });
        assert!(build_env(&bad).is_err(), "pool size mismatch must be rejected");
        let bad_top = graph_scenario(Topology::Ring { radius: 7 });
        assert!(build_env(&bad_top).is_err(), "over-wide ring must be rejected");
        let job_size = JobSizeLaw::Pareto { shape: 0.9, scale: 1.0 };
        let infinite_mean = Scenario::new(base_config(), EngineSpec::Event { job_size });
        let err = build_env(&infinite_mean).err().expect("infinite-mean law must be rejected");
        assert!(err.contains("mean"), "infinite-mean law must be rejected readably: {err}");
    }

    #[test]
    fn graph_env_shares_the_homogeneous_policy_shape() {
        let scenario = graph_scenario(Topology::Ring { radius: 2 });
        let shape = PolicyShape::for_scenario(&scenario);
        assert_eq!((shape.obs_states, shape.rule_states), (6, 6));
        episode(built(&scenario).as_mut(), 1, 0.0);
    }

    #[test]
    fn full_mesh_graph_scenario_trains_in_the_exact_mean_field() {
        // FullMesh has no finite limit degree, so build_env must select the
        // exact Eq. 20–28 environment: same RNG consumption, same rewards
        // as the aggregate scenario's env.
        let mut a = built(&graph_scenario(Topology::FullMesh));
        let mut b = built(&Scenario::new(base_config(), EngineSpec::Aggregate));
        assert_same_rewards(a.as_mut(), b.as_mut(), 5, 0.2, 1e-12);
    }

    #[test]
    fn huge_neighborhoods_approach_the_homogeneous_env() {
        // k = 10_000: the annealed closure is numerically indistinguishable
        // from the full-mesh model, so per-step rewards must agree tightly.
        let cfg = base_config();
        let graph = Homogeneous::new(&cfg, Integrand::Graph { k: 10_000 });
        let mut graph = MeanFieldEnv::new(cfg.clone(), graph);
        assert_same_rewards(&mut graph, &mut MeanFieldEnv::homogeneous(cfg), 7, 0.3, 1e-4);
    }

    #[test]
    fn hetero_class_derivation_matches_first_appearance_order() {
        let (w, r) = hetero_classes(&[1.6, 0.4, 1.6, 0.4, 0.4]);
        assert_eq!(r, vec![1.6, 0.4]);
        assert!((w[0] - 0.4).abs() < 1e-12 && (w[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn faulted_scenarios_build_the_faulty_env_with_unchanged_shapes() {
        // The two-pool closure must keep the homogeneous PolicyShape — a
        // fault-trained checkpoint deploys anywhere a fault-free one can.
        let scenario =
            Scenario::new(base_config(), EngineSpec::JobLevel).with_faults(crashy_plan());
        assert_eq!(episode(built(&scenario).as_mut(), 3, 0.0).len(), 10);
    }

    #[test]
    fn crashes_strictly_increase_mean_field_drops() {
        // Same seed, same (uniform) actions: parking ~1/3 of the pool in
        // the zero-service Down pool must cost strictly more drops.
        let cfg = base_config();
        let faulty = TwoPool::new(&cfg, crashy_plan(), Integrand::FullMesh);
        let cost = |env: &mut dyn Env| -episode(env, 11, 0.0).iter().map(|r| r.reward).sum::<f64>();
        let cost_f = cost(&mut MeanFieldEnv::new(cfg.clone(), faulty));
        let cost_p = cost(&mut MeanFieldEnv::homogeneous(cfg));
        assert!(
            cost_f > cost_p,
            "crash-degraded service must drop more: faulted {cost_f} vs pristine {cost_p}"
        );
    }

    #[test]
    fn certain_observation_drops_freeze_the_policy_snapshot() {
        // drop_prob = 1: every refresh fails, so the observed length
        // distribution must stay the initial ν₀ while the true mean field
        // (and hence the reward) keeps moving.
        let observation = Some(ObservationFaults { drop_prob: 1.0 });
        let plan = FaultPlan { observation, ..FaultPlan::empty() };
        let cfg = base_config();
        let nu0: Vec<f64> = cfg.initial_dist.clone();
        let mut env = MeanFieldEnv::new(cfg.clone(), TwoPool::new(&cfg, plan, Integrand::FullMesh));
        let mut saw_drops = false;
        for r in episode(&mut env, 4, 0.0) {
            for (z, &p) in nu0.iter().enumerate() {
                assert!((r.obs[z] - p).abs() < 1e-12, "snapshot must stay frozen at ν₀");
            }
            saw_drops |= r.reward < 0.0;
        }
        assert!(saw_drops, "the true mean field must keep evolving behind the stale snapshot");
    }

    #[test]
    fn faulted_graph_scenarios_use_the_degraded_graph_closure() {
        let scenario = graph_scenario(Topology::Ring { radius: 2 }).with_faults(crashy_plan());
        episode(built(&scenario).as_mut(), 6, 0.0);
    }
}
