//! Scenario-selected mean-field training environments.
//!
//! Given a scenario, [`build_env`] constructs the mean-field control MDP
//! whose optimal policy is what the scenario's finite system should deploy
//! (§2.3/§5 of the paper — train in the limit, evaluate at finite `N`).
//! Every environment is one [`MeanFieldEnv`]; the engine arm only picks
//! its [`Closure`] from [`mflb_core::mdp`]:
//!
//! | engine arm | closure |
//! |---|---|
//! | `PerClient`, `Aggregate`, `Staggered`, `JobLevel` | [`MeanField`]`<`[`Exponential`]`>` over `Integrand::FullMesh` (Eq. 20–28) |
//! | `Graph` | [`MeanField`]`<`[`Exponential`]`>` over `Integrand::Graph` with the topology's limit degree `k` (arXiv:2312.12973); a full mesh has no finite limit degree and takes `Integrand::FullMesh` |
//! | `Event` | [`MeanField`]`<`[`Exponential`]`>` over `Integrand::FullMesh` with the service rate mean-matched to the job-size law (`α / E[size]`); infinite-mean laws are rejected |
//! | `Hetero` | [`MeanField`]`<`[`RateClasses`]`>` over `Integrand::FullMesh` (§2.5), the classes the finite engine quantizes |
//! | `Ph` | [`MeanField`]`<`[`PhaseType`](mflb_queue::PhaseType)`>` over `Integrand::FullMesh` (§5) |
//! | any of the above with a non-empty [`FaultPlan`](mflb_core::FaultPlan) | [`TwoPool`] over the arm's integrand |
//!
//! The `Aggregate`, `Hetero` and `Ph` closures run on the service types
//! their finite `AggregateEngine<S>` runs on. Staggered refreshes and
//! job-level FIFO queues share the homogeneous limit. Validation admits fault plans only on `Event`, `Graph` and
//! `JobLevel`, so [`TwoPool`] only ever wraps an integrand; fault-free
//! scenarios never touch it.
//!
//! [`PolicyShape`] is the single source of truth for the observation/action
//! dimensions a scenario implies; checkpoint validation and policy
//! construction both go through it so a net trained for one scenario can
//! never silently deploy against an incompatible one.

use crate::env::Env;
use crate::mfc_env::MeanFieldEnv;
use mflb_core::mdp::{action_dim, observation_dim, Closure, Integrand, MeanField, TwoPool};
use mflb_core::{Exponential, RateClasses, ServiceModel, SystemConfig};
use mflb_policy::NeuralUpperPolicy;
use mflb_sim::{EngineSpec, Scenario};

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
            EngineSpec::Hetero { rates } => RateClasses::new(rates).num_observed(zs),
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
        E::Hetero { rates } => {
            let closure = MeanField::new(&config, RateClasses::new(rates), Integrand::FullMesh);
            return Ok(boxed(closure, config));
        }
        E::Ph { service } => {
            let closure = MeanField::new(&config, service.build()?, Integrand::FullMesh);
            return Ok(boxed(closure, config));
        }
    };
    Ok(match scenario.faults.clone().filter(|p| !p.is_empty()) {
        Some(plan) => boxed(TwoPool::new(&config, plan, integrand), config),
        None => boxed(MeanField::new(&config, Exponential, integrand), config),
    })
}

fn boxed<C: Closure>(closure: C, config: SystemConfig) -> Box<dyn Env> {
    Box::new(MeanFieldEnv::new(config, closure))
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
