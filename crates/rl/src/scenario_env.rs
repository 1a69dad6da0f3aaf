//! Scenario-selected mean-field training environments.
//!
//! [`limit`] maps a scenario to the mean-field control MDP whose optimum
//! its finite system should deploy (§2.3/§5 of the paper — train in the
//! limit, evaluate at finite `N`) and to what the DP oracle may claim
//! about it. [`build_env`], [`PolicyShape::for_scenario`] and the
//! [`oracle`](crate::oracle) all read that one map.
//!
//! [`PolicyShape`] is the single source of truth for the observation/action
//! dimensions a scenario implies; checkpoint validation and policy
//! construction both go through it so a net trained for one scenario can
//! never silently deploy against an incompatible one.

use crate::env::Env;
use crate::mfc_env::MeanFieldEnv;
use crate::oracle::OracleExactness;
use mflb_core::mdp::{action_dim, observation_dim, Closure, Integrand, MeanField, TwoPool};
use mflb_core::{Exponential, FaultPlan, JobSizeLaw, RateClasses, ServiceModel, SystemConfig};
use mflb_policy::NeuralUpperPolicy;
use mflb_queue::PhaseType;
use mflb_sim::{EngineSpec, Scenario};

/// The closure a scenario trains on, built at its [`Limit::config`].
#[derive(Debug, Clone)]
pub enum LimitClosure {
    /// [`MeanField`]`<`[`Exponential`]`>` over the integrand.
    Exponential(Integrand),
    /// [`MeanField`]`<`[`RateClasses`]`>` over `Integrand::FullMesh`.
    RateClasses(RateClasses),
    /// [`MeanField`]`<`[`PhaseType`]`>` over `Integrand::FullMesh`.
    PhaseType(PhaseType),
    /// [`TwoPool`] degraded by the plan, over the integrand.
    TwoPool(FaultPlan, Integrand),
}

/// A scenario's mean-field limit (see [`limit`]).
#[derive(Debug, Clone)]
pub struct Limit {
    /// The closure to train on.
    pub closure: LimitClosure,
    /// The config it runs at, with a mean-matched service rate for `Event`
    /// and `Ph`; the oracle solves the homogeneous model at this config.
    pub config: SystemConfig,
    /// States of the decision rule the policy emits.
    pub rule_states: usize,
    /// The oracle's verdict, or why it cannot model the scenario at all.
    pub oracle: Result<OracleExactness, String>,
}

impl Limit {
    /// The training environment: the closure built at the limit's config.
    pub fn into_env(self) -> Box<dyn Env> {
        use LimitClosure as L;
        let (c, full) = (&self.config, Integrand::FullMesh);
        match self.closure {
            L::Exponential(integrand) => env(MeanField::new(c, Exponential, integrand), c),
            L::RateClasses(classes) => env(MeanField::new(c, classes, full), c),
            L::PhaseType(law) => env(MeanField::new(c, law, full), c),
            L::TwoPool(plan, integrand) => env(TwoPool::new(c, plan, integrand), c),
        }
    }
}

fn env<C: Closure>(closure: C, config: &SystemConfig) -> Box<dyn Env> {
    Box::new(MeanFieldEnv::new(config.clone(), closure))
}

/// The mean-field limit a scenario selects: the one map from engine arm to
/// training closure, mean-matched config, rule states and oracle verdict.
///
/// | engine arm | closure | oracle |
/// |---|---|---|
/// | `PerClient`, `Aggregate`, `JobLevel`, `Staggered { cohorts: 1 }` | [`MeanField`]`<`[`Exponential`]`>` over `Integrand::FullMesh` (Eq. 20–28) | exact |
/// | `Staggered { cohorts ≥ 2 }` | the same synchronous closure | reference: the staggered engine sits 3.3–7.5x above it at Δt = 1, flat from M = 100 to 1000 (delayed-information limits, arXiv:2112.05899) |
/// | `Graph` | [`MeanField`]`<`[`Exponential`]`>` over `Integrand::Graph` with the topology's limit degree `k` (arXiv:2312.12973); a full mesh has no finite limit degree and takes `Integrand::FullMesh` | exact for a full mesh, else reference (solved as full-mesh) |
/// | `Event` | [`MeanField`]`<`[`Exponential`]`>` over `Integrand::FullMesh` with the service rate mean-matched to the job-size law (`α / E[size]`); infinite-mean laws are rejected | exact for exponential sizes, else reference |
/// | `Hetero` | [`MeanField`]`<`[`RateClasses`]`>` over `Integrand::FullMesh` (§2.5), the classes the finite engine quantizes, with `C·(B+1)` rule states | rejected: composite rules are outside the DP action library |
/// | `Ph` | [`MeanField`]`<`[`PhaseType`]`>` over `Integrand::FullMesh` (§5), at the mean-matched rate `1 / E[service]` | exact for one phase, else reference |
/// | any arm with a non-empty [`FaultPlan`] | [`TwoPool`] over the arm's integrand | reference: the DP solves the fault-free model |
///
/// The `Aggregate`, `Hetero` and `Ph` closures run on the service types
/// their finite `AggregateEngine<S>` runs on; validation admits fault plans
/// only where a closure has an integrand. The scenario is not validated
/// here; an `Err` means it has no mean-field limit to train on.
pub fn limit(scenario: &Scenario) -> Result<Limit, String> {
    let mut config = scenario.config.clone();
    let zs = config.num_states();
    let finite_mean = |mean: f64, what: &str| match mean > 0.0 && mean.is_finite() {
        true => Ok(mean),
        false => Err(format!(
            "{what} have infinite mean ({mean}); use Pareto shape > 1 or a bounded law"
        )),
    };
    // The approximations the oracle's solve makes; none means exact.
    let mut notes = Vec::new();
    use EngineSpec as E;
    let closure = match &scenario.engine {
        E::PerClient | E::Aggregate | E::JobLevel | E::Staggered { cohorts: 1 } => {
            LimitClosure::Exponential(Integrand::FullMesh)
        }
        E::Staggered { cohorts } => {
            notes.push(format!(
                "{cohorts} staggered refresh cohorts solved on the synchronous closure, which \
                 the staggered engine exceeds by 3.3-7.5x at dt = 1, flat from M = 100 to 1000"
            ));
            LimitClosure::Exponential(Integrand::FullMesh)
        }
        E::Graph { topology, .. } => match topology.limit_neighborhood_size() {
            Some(k) => {
                notes.push(format!("finite neighborhood (k = {k}) treated as full-mesh"));
                LimitClosure::Exponential(Integrand::Graph { k })
            }
            None => LimitClosure::Exponential(Integrand::FullMesh),
        },
        E::Event { job_size } => {
            // Rate α through mean-size jobs is α/mean, exact for exponential sizes.
            config.service_rate /= finite_mean(job_size.mean(), "event job sizes")?;
            if !matches!(job_size, JobSizeLaw::Exponential { .. }) {
                notes.push(format!(
                    "heavy-tailed job sizes mean-matched to an exponential service rate {:.4}",
                    config.service_rate
                ));
            }
            LimitClosure::Exponential(Integrand::FullMesh)
        }
        E::Hetero { rates } => {
            let classes = RateClasses::new(rates);
            let rule_states = classes.num_observed(zs);
            let oracle = Err("the DP oracle does not support heterogeneous pools: its softmin \
                 action library is over plain length states, not composite (length, class) \
                 states"
                .into());
            let closure = LimitClosure::RateClasses(classes);
            return Ok(Limit { closure, config, rule_states, oracle });
        }
        E::Ph { service } => {
            let law = service.build()?;
            config.service_rate = 1.0 / finite_mean(law.mean(), "phase-type service times")?;
            // A single exponential phase *is* the homogeneous model.
            if law.num_phases() > 1 {
                notes.push(format!(
                    "phase-type service mean-matched to an exponential rate {:.4}",
                    config.service_rate
                ));
            }
            LimitClosure::PhaseType(law)
        }
    };
    let closure = match (scenario.faults.clone().filter(|p| !p.is_empty()), closure) {
        (Some(plan), LimitClosure::Exponential(integrand)) => {
            let kinds = [
                (plan.crashes.is_some(), "crashes"),
                (!plan.stragglers.is_empty(), "stragglers"),
                (plan.observation.is_some(), "observation drops"),
                (!plan.overloads.is_empty(), "overload bursts"),
            ];
            let kinds: Vec<&str> = kinds.iter().filter(|k| k.0).map(|k| k.1).collect();
            notes.push(format!("fault plan ({}) solved fault-free", kinds.join(", ")));
            LimitClosure::TwoPool(plan, integrand)
        }
        (_, closure) => closure,
    };
    let oracle = Ok(match notes.is_empty() {
        true => OracleExactness::Exact,
        false => {
            let note = format!("{}; gaps are indicative, not certificates", notes.join("; "));
            OracleExactness::Reference { note }
        }
    });
    Ok(Limit { closure, config, rule_states: zs, oracle })
}

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
    /// Derives the shape from a scenario's [`limit`]. A scenario with no
    /// limit (an infinite-mean size law) still deploys length-state rules.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        let rule_states = limit(scenario).map_or(scenario.config.num_states(), |l| l.rule_states);
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

/// Builds the mean-field training environment a scenario's [`limit`]
/// selects.
///
/// The scenario is validated first; malformed specs come back as `Err`.
pub fn build_env(scenario: &Scenario) -> Result<Box<dyn Env>, String> {
    scenario.validate()?;
    Ok(limit(scenario)?.into_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StepResult;
    use mflb_core::{CrashFaults, FaultPlan, JobSizeLaw, ObservationFaults, Topology};
    use mflb_sim::ServiceLaw;
    use rand::rngs::StdRng;
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
    fn every_shipped_scenario_has_a_pinned_oracle_verdict() {
        // A new scenario file, engine kind or oracle label lands here first.
        let pinned = [
            ("aggregate", "exact"),
            ("oracle_tiny", "exact"),
            ("perclient", "exact"),
            ("joblevel", "exact"),
            ("staggered", "reference"),
            ("event_crashy", "reference"),
            ("event_pareto", "reference"),
            ("graph_ring", "reference"),
            ("graph_torus_large", "reference"),
            ("ph_erlang2", "reference"),
            ("hetero_two_speed", "rejected"),
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
        let mut shipped = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("scenario directory") {
            let path = entry.unwrap().path();
            let Some(name) = path.file_name().unwrap().to_str().unwrap().strip_suffix(".json")
            else {
                continue;
            };
            let scenario = Scenario::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let verdict = match limit(&scenario).expect("shipped scenarios have a limit").oracle {
                Ok(OracleExactness::Exact) => "exact",
                Ok(OracleExactness::Reference { .. }) => "reference",
                Err(_) => "rejected",
            };
            let pin = pinned.iter().find(|(n, _)| *n == name);
            assert_eq!(Some(verdict), pin.map(|p| p.1), "{name}.json");
            built(&scenario);
            shipped.push(name.to_string());
        }
        shipped.sort();
        let mut names: Vec<&str> = pinned.iter().map(|p| p.0).collect();
        names.sort();
        assert_eq!(shipped, names, "every pinned scenario still ships");
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
        let one_class = MeanField::new(&cfg, RateClasses::new(&[1.0; 10]), Integrand::FullMesh);
        let mut hetero = MeanFieldEnv::new(cfg.clone(), one_class);
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
        let graph = MeanField::new(&cfg, Exponential, Integrand::Graph { k: 10_000 });
        let mut graph = MeanFieldEnv::new(cfg.clone(), graph);
        assert_same_rewards(&mut graph, &mut MeanFieldEnv::homogeneous(cfg), 7, 0.3, 1e-4);
    }

    #[test]
    fn hetero_class_derivation_matches_first_appearance_order() {
        let classes = RateClasses::new(&[1.6, 0.4, 1.6, 0.4, 0.4]);
        let w = classes.class_weights();
        assert_eq!(classes.class_rates(), &[1.6, 0.4]);
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
