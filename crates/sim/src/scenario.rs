//! Data-driven scenario layer: construct **any** engine from a serde
//! spec.
//!
//! A [`Scenario`] bundles a [`SystemConfig`] with an [`EngineSpec`]
//! (engine kind plus its extra parameters — server-pool rates, cohort
//! count, service law). [`Scenario::build`] validates the spec and
//! returns an [`AnyEngine`], which implements [`Engine`] by delegation,
//! so a scenario loaded from JSON runs through [`crate::run_episode`] and
//! the thread-parallel [`crate::monte_carlo()`] exactly like a
//! hand-constructed engine. This is what lets the bench binaries and
//! examples describe *what* to simulate as data instead of wiring each
//! engine type by hand — and what the sparse/localized follow-up work
//! plugs richer engines into.
//!
//! Malformed specs (zero cohorts, an empty server pool, an invalid
//! service law, an inconsistent `SystemConfig`) are reported as `Err`
//! from [`Scenario::validate`] / [`Scenario::build`] — never as panics.
//!
//! # The scenario JSON schema
//!
//! Annotated examples — one per engine kind — live under
//! `examples/scenarios/` and feed `mflb train` / `mflb eval` /
//! `mflb simulate --scenario` directly. A spec is an object with exactly
//! two keys:
//!
//! ```json
//! {
//!   "config":  { ... a SystemConfig ... },
//!   "engine":  "Aggregate"  // or a tagged object, see below
//! }
//! ```
//!
//! ## `config` — the `SystemConfig` (Table 1 of the paper)
//!
//! | field | type | meaning | constraint |
//! |---|---|---|---|
//! | `dt` | float | synchronization delay Δt (epoch length) | > 0, finite |
//! | `service_rate` | float | service rate α of every queue (ignored by `Ph`, overridden per server by `Hetero`) | > 0 |
//! | `arrivals` | object | the MMPP: `{"levels": [λ…], "kernel": [[row-stochastic]], "initial": [probs]}` | rows/initial sum to 1 |
//! | `num_clients` | int | N, finite system only | ≥ 1 |
//! | `num_queues` | int | M, finite system only | ≥ 1 |
//! | `d` | int | sampled accessible queues per client | ≥ 1 (sampling is with replacement, so `d > M` is legal) |
//! | `buffer` | int | queue capacity B; the state space is `{0..B}` | ≥ 1; ≤ 255 for `Staggered` (u8 snapshots) |
//! | `initial_dist` | float array | ν₀ over `{0..B}` | length `B+1`, sums to 1, entries ≥ 0 |
//! | `gamma` | float | discount of the control objective | in (0, 1) |
//! | `train_episode_len` | int | training horizon T in epochs (Table 1: 500) | ≥ 1 |
//! | `eval_time` | float | evaluation horizon in *time units*; `T_e = round(eval_time/dt)` | > 0 |
//! | `holding_cost` | float | per-job-per-time-unit cost added to the drop objective | ≥ 0; **default 0** (may be omitted) |
//!
//! All other fields are mandatory; a missing field is a parse error.
//!
//! ## `engine` — the `EngineSpec` (externally tagged)
//!
//! | JSON | engine | extra validation |
//! |---|---|---|
//! | `"PerClient"` | literal per-client engine | — |
//! | `"Aggregate"` | exact O(M) aggregation | — |
//! | `"JobLevel"` | job-level FIFO with sojourns | — |
//! | `{"Staggered": {"cohorts": k}}` | cohort-staggered refreshes | `k ≥ 1`; `buffer ≤ 255` |
//! | `{"Hetero": {"rates": [α…]}}` | heterogeneous pool | non-empty, `len == num_queues`, all rates > 0 and finite |
//! | `{"Ph": {"service": law}}` | phase-type service | see laws below |
//! | `{"Graph": {"topology": top, "shard_size": s}}` | locality-constrained routing | see topologies below; `shard_size` is optional (≥ 1 when given — the dispatcher range per shard, a scheduling granularity that never changes results; omitted = 16384) |
//! | `{"Event": {"job_size": law}}` | continuous-time job-level engine, run queue by queue per sync interval | see job-size laws below |
//!
//! Topologies for `Graph` (the [`mflb_core::Topology`] families; clients
//! sample their `d` queues from the dispatcher's closed neighborhood
//! instead of all `M` queues — see the "Locality" and "Scaling" sections
//! of the README). All are stored CSR and built by `O(M·d)` streaming
//! generators, so million-queue specs stay cheap to materialize:
//!
//! | JSON | topology | validation |
//! |---|---|---|
//! | `"FullMesh"` | the paper's model (degenerate case) | — |
//! | `{"Ring": {"radius": r}}` | cycle, reach `±r` | `r ≥ 1`, `2r+1 ≤ M` |
//! | `{"Torus": {"radius": r}}` | `√M × √M` torus, L1-ball reach | `M` square, `2r+1 ≤ √M` |
//! | `{"RandomRegular": {"degree": g, "seed": s}}` | seed-pinned random `g`-regular graph | `1 ≤ g < M`, `g·M` even |
//!
//! Service laws for `Ph` (all rates/means/probabilities must be positive
//! and finite; phase expansions are capped at [`MAX_SERVICE_PHASES`]):
//!
//! | JSON | law |
//! |---|---|
//! | `{"Exponential": {"rate": α}}` | exponential (the paper's model) |
//! | `{"Erlang": {"k": k, "rate": α}}` | Erlang-k, SCV `1/k` |
//! | `{"Hyperexponential": {"probs": […], "rates": […]}}` | mixture; `probs` sum to 1, lengths match |
//! | `{"MeanScv": {"mean": m, "scv": c}}` | two-moment PH fit |
//!
//! Job-size laws for `Event` (the [`mflb_core::JobSizeLaw`] families —
//! each job draws one size in work units; service takes
//! `size / service_rate` time; all parameters positive and finite):
//!
//! | JSON | law |
//! |---|---|
//! | `{"Exponential": {"rate": r}}` | exponential sizes, mean `1/r` (the paper's model in law) |
//! | `{"Pareto": {"shape": a, "scale": s}}` | heavy-tailed Pareto on `[s, ∞)`; infinite mean for `a ≤ 1` |
//! | `{"BoundedPareto": {"shape": a, "lo": l, "hi": h}}` | Pareto truncated to `[l, h]`; needs `l < h` |
//!
//! ## Validation errors
//!
//! [`Scenario::from_json`] reports *syntax* problems (malformed JSON, an
//! unknown engine tag, a missing field); [`Scenario::validate`] — called
//! by [`Scenario::build`] and by every CLI entry point — reports
//! *semantic* ones, each as a human-readable string naming the offending
//! field: inconsistent `SystemConfig` (`initial_dist` length/mass, γ
//! outside (0,1), `d = 0`), pool-size or rate-sign problems for `Hetero`,
//! `cohorts = 0` or an over-wide buffer for `Staggered`, and every
//! service-law complaint of [`ServiceLaw::validate`].

use crate::aggregate::{AggregateEngine, RateClasses};
use crate::client::PerClientEngine;
use crate::episode::{Engine, EpochStats};
use crate::error::ScenarioError;
use crate::event_engine::EventEngine;
use crate::fifo_engine::FifoEngine;
use crate::graph_engine::GraphEngine;
use crate::staggered::StaggeredEngine;
use mflb_core::{
    check_rule_table, DecisionRule, FaultPlan, JobSizeLaw, StateDist, SystemConfig, Topology,
};
use mflb_queue::PhaseType;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Engine kinds that honor a [`FaultPlan`] (the job- and queue-level
/// engines whose epoch loop exposes per-queue service rates).
fn supports_faults(spec: &EngineSpec) -> bool {
    matches!(spec, EngineSpec::Event { .. } | EngineSpec::Graph { .. } | EngineSpec::JobLevel)
}

/// A service-time law as data (constructs a [`PhaseType`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceLaw {
    /// Exponential service with the given rate (the paper's model).
    Exponential {
        /// Service rate α.
        rate: f64,
    },
    /// Erlang-`k` service (SCV `1/k`).
    Erlang {
        /// Number of phases.
        k: usize,
        /// Per-phase rate.
        rate: f64,
    },
    /// Hyperexponential mixture (SCV ≥ 1).
    Hyperexponential {
        /// Mixture weights (must sum to 1).
        probs: Vec<f64>,
        /// Per-branch rates.
        rates: Vec<f64>,
    },
    /// Two-moment phase-type fit to a target mean and SCV.
    MeanScv {
        /// Target mean service time.
        mean: f64,
        /// Target squared coefficient of variation.
        scv: f64,
    },
}

/// Largest phase count a [`ServiceLaw`] may expand to. Phase-type solvers
/// and the Gillespie engine work with dense `k × k` matrices, so an
/// unbounded `k` from a data file would abort on allocation instead of
/// erroring; every SCV the experiments sweep needs ≤ 4 phases.
pub const MAX_SERVICE_PHASES: usize = 64;

impl ServiceLaw {
    /// Checks the law's parameters. Complaints come back as
    /// [`ScenarioError::Service`], whose rendering carries the historical
    /// `service:` prefix.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.check().map_err(ScenarioError::Service)
    }

    fn check(&self) -> Result<(), String> {
        let pos = |v: f64, what: &str| {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite, got {v}"))
            }
        };
        match self {
            ServiceLaw::Exponential { rate } => pos(*rate, "exponential rate"),
            ServiceLaw::Erlang { k, rate } => {
                if *k == 0 {
                    return Err("erlang law needs at least one phase".into());
                }
                if *k > MAX_SERVICE_PHASES {
                    return Err(format!(
                        "erlang law with {k} phases exceeds the {MAX_SERVICE_PHASES}-phase cap"
                    ));
                }
                pos(*rate, "erlang rate")
            }
            ServiceLaw::Hyperexponential { probs, rates } => {
                if probs.is_empty() || probs.len() != rates.len() {
                    return Err(format!(
                        "hyperexponential law needs matching non-empty probs/rates, got {}/{}",
                        probs.len(),
                        rates.len()
                    ));
                }
                if probs.iter().any(|&p| !(0.0..=1.0).contains(&p) || !p.is_finite()) {
                    return Err("hyperexponential probs must lie in [0, 1]".into());
                }
                let mass: f64 = probs.iter().sum();
                if (mass - 1.0).abs() > 1e-9 {
                    return Err(format!("hyperexponential probs must sum to 1, got {mass}"));
                }
                if probs.len() > MAX_SERVICE_PHASES {
                    return Err(format!(
                        "hyperexponential law with {} branches exceeds the \
                         {MAX_SERVICE_PHASES}-phase cap",
                        probs.len()
                    ));
                }
                for &r in rates {
                    pos(r, "hyperexponential rate")?;
                }
                Ok(())
            }
            ServiceLaw::MeanScv { mean, scv } => {
                pos(*mean, "service mean")?;
                pos(*scv, "service scv")?;
                // The two-moment fit uses an Erlang mixture with
                // k = ceil(1/scv) phases below SCV 1.
                if (1.0 / *scv).ceil() > MAX_SERVICE_PHASES as f64 {
                    return Err(format!(
                        "scv {scv} needs more than {MAX_SERVICE_PHASES} Erlang phases to fit"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Constructs the phase-type law.
    pub fn build(&self) -> Result<PhaseType, ScenarioError> {
        self.validate()?;
        Ok(match self {
            ServiceLaw::Exponential { rate } => PhaseType::exponential(*rate),
            ServiceLaw::Erlang { k, rate } => PhaseType::erlang(*k, *rate),
            ServiceLaw::Hyperexponential { probs, rates } => {
                PhaseType::hyperexponential(probs, rates)
            }
            ServiceLaw::MeanScv { mean, scv } => PhaseType::fit_mean_scv(*mean, *scv),
        })
    }
}

/// Which engine a [`Scenario`] constructs, plus its extra parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// The literal per-client engine ([`PerClientEngine`]).
    PerClient,
    /// The exact `O(M)` aggregation ([`AggregateEngine`]).
    Aggregate,
    /// Heterogeneous service rates (§5; [`AggregateEngine`] over
    /// [`RateClasses`]). One rate per server; must match
    /// `config.num_queues`.
    Hetero {
        /// Per-server service rates.
        rates: Vec<f64>,
    },
    /// Cohort-staggered information refreshes ([`StaggeredEngine`]).
    Staggered {
        /// Number of refresh cohorts (≥ 1; 1 = synchronous model).
        cohorts: usize,
    },
    /// Phase-type service ([`AggregateEngine`] over [`PhaseType`]).
    Ph {
        /// The service-time law.
        service: ServiceLaw,
    },
    /// Job-level FIFO queues with sojourn tracking ([`FifoEngine`]).
    JobLevel,
    /// Locality-constrained routing over a graph topology
    /// ([`GraphEngine`]): each dispatcher samples its `d` queues from its
    /// closed neighborhood instead of all `M` queues.
    Graph {
        /// The neighborhood structure (ring / torus / random-regular /
        /// full mesh).
        topology: Topology,
        /// Contiguous dispatcher range per shard (≥ 1; omitted: the
        /// engine default). It sets scheduling granularity only: episodes
        /// are bit-identical for **any** shard size and worker count, so
        /// this knob only affects wall-clock; worker threads stay an
        /// execution-level setting ([`AnyEngine::with_workers`]), never
        /// part of the spec.
        #[serde(default)]
        shard_size: Option<usize>,
    },
    /// Continuous-time job-level engine ([`EventEngine`]): every job is
    /// routed on the sync-interval snapshot and serviced FIFO, with
    /// exponential or heavy-tailed sizes. Each interval runs queue by
    /// queue (an admission-capped one on a heap of pending completions).
    /// The engine behind `mflb serve`.
    Event {
        /// The job-size law (exponential reproduces the paper's length
        /// process in law; Pareto laws open the heavy-tailed axis).
        job_size: JobSizeLaw,
    },
}

/// A complete, serializable simulation scenario.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Scenario {
    /// System configuration (sizes, Δt, arrivals, buffer, ν₀, …).
    pub config: SystemConfig,
    /// Engine kind and engine-specific parameters.
    pub engine: EngineSpec,
    /// Optional deterministic fault plan (crashes, stragglers,
    /// observation faults, overload bursts — [`mflb_core::faults`]).
    /// Only the job- and queue-level engines (`Event`, `Graph`,
    /// `JobLevel`) honor one, and of those only `Event` keeps an
    /// observation snapshot for observation faults to act on; `None` or
    /// an empty plan is the fault-free model.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
}

// Hand-written (instead of derived) so a fault-free scenario serializes
// to the exact bytes it produced before the `faults` field existed:
// training checkpoints embed this JSON and pin its hash, and an absent
// plan must not perturb them. The vendored serde derive has no
// `skip_serializing_if`, hence the manual impl.
impl Serialize for Scenario {
    fn to_value(&self) -> serde::json::Value {
        let mut entries = vec![
            ("config".to_string(), self.config.to_value()),
            ("engine".to_string(), self.engine.to_value()),
        ];
        if let Some(plan) = &self.faults {
            entries.push(("faults".to_string(), plan.to_value()));
        }
        serde::json::Value::Obj(entries)
    }
}

impl Scenario {
    /// Bundles a configuration with an engine spec (no fault plan).
    pub fn new(config: SystemConfig, engine: EngineSpec) -> Self {
        Self { config, engine, faults: None }
    }

    /// Attaches a fault plan; an empty plan is normalized to `None` so
    /// it cannot perturb serialized bytes or engine code paths.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Checks the whole spec. Each complaint comes back as the
    /// [`ScenarioError`] variant naming the offending layer; the
    /// `Display` renderings are the historical human-readable strings.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.config.validate().map_err(ScenarioError::Config)?;
        if let Some(plan) = &self.faults {
            if !plan.is_empty() && !supports_faults(&self.engine) {
                return Err(ScenarioError::Faults(
                    "engine kind does not honor a fault plan \
                     (supported: Event, Graph, JobLevel)"
                        .into(),
                ));
            }
            // Graph and JobLevel route on live lengths: there is no
            // observation snapshot for a dropped refresh to keep stale.
            if plan.observation.is_some() && !matches!(self.engine, EngineSpec::Event { .. }) {
                return Err(ScenarioError::Faults(
                    "engine kind does not honor observation faults (supported: Event)".into(),
                ));
            }
            plan.validate_for(self.config.num_queues).map_err(ScenarioError::Faults)?;
        }
        match &self.engine {
            EngineSpec::PerClient | EngineSpec::Aggregate | EngineSpec::JobLevel => Ok(()),
            EngineSpec::Hetero { rates } => {
                if rates.is_empty() {
                    return Err(ScenarioError::Engine(
                        "hetero engine needs a non-empty server pool".into(),
                    ));
                }
                if rates.len() != self.config.num_queues {
                    return Err(ScenarioError::Engine(format!(
                        "hetero pool has {} servers but config.num_queues is {}",
                        rates.len(),
                        self.config.num_queues
                    )));
                }
                if rates.iter().any(|&r| !(r > 0.0 && r.is_finite())) {
                    return Err(ScenarioError::Engine(
                        "hetero server rates must be positive and finite".into(),
                    ));
                }
                // The rule is over composite (length, class) states.
                let composite = RateClasses::new(rates).num_classes() * self.config.num_states();
                check_rule_table(composite, self.config.d).map_err(ScenarioError::Engine)
            }
            EngineSpec::Staggered { cohorts } => {
                if *cohorts == 0 {
                    return Err(ScenarioError::Engine(
                        "staggered engine needs at least one cohort".into(),
                    ));
                }
                // Client snapshots store queue lengths as u8.
                if self.config.buffer > u8::MAX as usize {
                    return Err(ScenarioError::Engine(format!(
                        "staggered engine supports buffers up to {}, got {}",
                        u8::MAX,
                        self.config.buffer
                    )));
                }
                Ok(())
            }
            EngineSpec::Ph { service } => service.validate(),
            EngineSpec::Graph { topology, shard_size } => {
                if let Some(0) = shard_size {
                    return Err(ScenarioError::Engine(
                        "graph shard_size must be at least 1".into(),
                    ));
                }
                topology.validate(self.config.num_queues).map_err(ScenarioError::Topology)
            }
            EngineSpec::Event { job_size } => job_size.validate().map_err(ScenarioError::JobSize),
        }
    }

    /// Validates and constructs the engine (attaching the fault plan, if
    /// any, to the engines that honor one).
    pub fn build(&self) -> Result<AnyEngine, ScenarioError> {
        self.validate()?;
        let plan = || self.faults.clone().unwrap_or_default();
        Ok(match &self.engine {
            EngineSpec::PerClient => {
                AnyEngine::PerClient(PerClientEngine::new(self.config.clone()))
            }
            EngineSpec::Aggregate => {
                AnyEngine::Aggregate(AggregateEngine::new(self.config.clone()))
            }
            EngineSpec::Hetero { rates } => AnyEngine::Hetero(AggregateEngine::with_service(
                self.config.clone(),
                RateClasses::new(rates),
            )),
            EngineSpec::Staggered { cohorts } => {
                AnyEngine::Staggered(StaggeredEngine::new(self.config.clone(), *cohorts))
            }
            EngineSpec::Ph { service } => {
                AnyEngine::Ph(AggregateEngine::with_service(self.config.clone(), service.build()?))
            }
            EngineSpec::JobLevel => {
                AnyEngine::JobLevel(FifoEngine::new(self.config.clone()).with_faults(plan()))
            }
            EngineSpec::Graph { topology, shard_size } => {
                let mut engine = GraphEngine::new(self.config.clone(), topology.clone());
                if let Some(s) = shard_size {
                    engine = engine.with_shard_size(*s);
                }
                AnyEngine::Graph(engine.with_faults(plan()))
            }
            EngineSpec::Event { job_size } => AnyEngine::Event(
                EventEngine::new(self.config.clone(), job_size.clone()).with_faults(plan()),
            ),
        })
    }

    /// Serializes the scenario to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization cannot fail")
    }

    /// Parses a scenario from JSON (syntax errors and unknown engine
    /// kinds surface as [`ScenarioError::Json`]; call
    /// [`Scenario::validate`] / `build` for semantic checks).
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(text).map_err(ScenarioError::Json)
    }
}

/// Any engine a [`Scenario`] can construct, usable directly with
/// [`crate::run_episode`] / [`crate::monte_carlo()`] through its
/// [`Engine`] impl.
#[derive(Debug, Clone)]
pub enum AnyEngine {
    /// Literal per-client engine.
    PerClient(PerClientEngine),
    /// Exact aggregated engine.
    Aggregate(AggregateEngine),
    /// Heterogeneous-pool engine.
    Hetero(AggregateEngine<RateClasses>),
    /// Staggered-information engine.
    Staggered(StaggeredEngine),
    /// Phase-type service engine.
    Ph(AggregateEngine<PhaseType>),
    /// Job-level FIFO engine.
    JobLevel(FifoEngine),
    /// Locality-constrained graph engine.
    Graph(GraphEngine),
    /// Continuous-time job-level engine.
    Event(EventEngine),
}

impl AnyEngine {
    /// Sets the worker-thread count for engines with a parallel stepping
    /// path (`0` = one per available core; a no-op for every other
    /// engine). Currently that is the sharded [`GraphEngine`]. Never part
    /// of a [`Scenario`] spec: sharded episodes are bit-identical for any
    /// worker count, so this is pure execution configuration (the CLI
    /// wires `--workers` through here).
    pub fn with_workers(self, workers: usize) -> Self {
        match self {
            AnyEngine::Graph(e) => AnyEngine::Graph(e.with_workers(workers)),
            other => other,
        }
    }
}

/// Episode state of [`AnyEngine`] (one variant per engine).
#[allow(missing_docs)]
pub enum AnyState {
    PerClient(<PerClientEngine as Engine>::State),
    Aggregate(<AggregateEngine as Engine>::State),
    Hetero(<AggregateEngine<RateClasses> as Engine>::State),
    Staggered(<StaggeredEngine as Engine>::State),
    Ph(<AggregateEngine<PhaseType> as Engine>::State),
    JobLevel(<FifoEngine as Engine>::State),
    Graph(<GraphEngine as Engine>::State),
    Event(<EventEngine as Engine>::State),
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::PerClient($e) => $body,
            AnyEngine::Aggregate($e) => $body,
            AnyEngine::Hetero($e) => $body,
            AnyEngine::Staggered($e) => $body,
            AnyEngine::Ph($e) => $body,
            AnyEngine::JobLevel($e) => $body,
            AnyEngine::Graph($e) => $body,
            AnyEngine::Event($e) => $body,
        }
    };
}

macro_rules! delegate_state {
    ($self:ident, $state:ident, $e:ident, $s:ident => $body:expr) => {
        match ($self, $state) {
            (AnyEngine::PerClient($e), AnyState::PerClient($s)) => $body,
            (AnyEngine::Aggregate($e), AnyState::Aggregate($s)) => $body,
            (AnyEngine::Hetero($e), AnyState::Hetero($s)) => $body,
            (AnyEngine::Staggered($e), AnyState::Staggered($s)) => $body,
            (AnyEngine::Ph($e), AnyState::Ph($s)) => $body,
            (AnyEngine::JobLevel($e), AnyState::JobLevel($s)) => $body,
            (AnyEngine::Graph($e), AnyState::Graph($s)) => $body,
            (AnyEngine::Event($e), AnyState::Event($s)) => $body,
            _ => panic!("AnyState does not belong to this AnyEngine"),
        }
    };
}

impl Engine for AnyEngine {
    type State = AnyState;

    fn config(&self) -> &SystemConfig {
        delegate!(self, e => e.config())
    }

    fn init_state(&self, rng: &mut StdRng) -> AnyState {
        match self {
            AnyEngine::PerClient(e) => AnyState::PerClient(e.init_state(rng)),
            AnyEngine::Aggregate(e) => AnyState::Aggregate(e.init_state(rng)),
            AnyEngine::Hetero(e) => AnyState::Hetero(e.init_state(rng)),
            AnyEngine::Staggered(e) => AnyState::Staggered(e.init_state(rng)),
            AnyEngine::Ph(e) => AnyState::Ph(e.init_state(rng)),
            AnyEngine::JobLevel(e) => AnyState::JobLevel(e.init_state(rng)),
            AnyEngine::Graph(e) => AnyState::Graph(e.init_state(rng)),
            AnyEngine::Event(e) => AnyState::Event(e.init_state(rng)),
        }
    }

    fn empirical(&self, state: &AnyState) -> StateDist {
        delegate_state!(self, state, e, s => e.empirical(s))
    }

    fn step(
        &self,
        state: &mut AnyState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        delegate_state!(self, state, e, s => e.step(s, rule, lambda, rng))
    }

    fn name(&self) -> &'static str {
        delegate!(self, e => e.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_policy::rnd_rule;

    fn base_config() -> SystemConfig {
        SystemConfig::paper().with_size(200, 10).with_dt(2.0)
    }

    fn all_specs() -> Vec<EngineSpec> {
        vec![
            EngineSpec::PerClient,
            EngineSpec::Aggregate,
            EngineSpec::Hetero { rates: vec![1.0; 10] },
            EngineSpec::Staggered { cohorts: 4 },
            EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv: 2.0 } },
            EngineSpec::JobLevel,
            EngineSpec::Graph { topology: Topology::Ring { radius: 2 }, shard_size: None },
            EngineSpec::Graph {
                topology: Topology::RandomRegular { degree: 4, seed: 1 },
                shard_size: None,
            },
            EngineSpec::Graph { topology: Topology::FullMesh, shard_size: None },
            EngineSpec::Event { job_size: JobSizeLaw::Exponential { rate: 1.0 } },
            EngineSpec::Event {
                job_size: JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 },
            },
        ]
    }

    #[test]
    fn every_engine_kind_builds_and_runs_an_episode() {
        let policy = FixedRulePolicy::new(rnd_rule(6, 2), "RND");
        for spec in all_specs() {
            let scenario = Scenario::new(base_config(), spec);
            let engine = scenario.build().expect("valid scenario must build");
            let out = run_episode(&engine, &policy, 5, &mut run_rng(1, 0));
            assert_eq!(out.drops_per_epoch.len(), 5, "{}", engine.name());
        }
    }

    #[test]
    fn any_engine_matches_direct_engine_bit_for_bit() {
        // The enum wrapper must not perturb the RNG stream.
        let policy = FixedRulePolicy::new(rnd_rule(6, 2), "RND");
        let direct = AggregateEngine::new(base_config());
        let wrapped = Scenario::new(base_config(), EngineSpec::Aggregate).build().unwrap();
        let a = run_episode(&direct, &policy, 10, &mut run_rng(2, 0));
        let b = run_episode(&wrapped, &policy, 10, &mut run_rng(2, 0));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
        assert_eq!(a.mean_queue_len, b.mean_queue_len);
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        let cases = vec![
            ("zero cohorts", EngineSpec::Staggered { cohorts: 0 }),
            ("empty pool", EngineSpec::Hetero { rates: vec![] }),
            ("pool size mismatch", EngineSpec::Hetero { rates: vec![1.0; 3] }),
            (
                "negative rate",
                EngineSpec::Hetero {
                    rates: vec![1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                },
            ),
            (
                "zero erlang phases",
                EngineSpec::Ph { service: ServiceLaw::Erlang { k: 0, rate: 1.0 } },
            ),
            (
                "negative scv",
                EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv: -2.0 } },
            ),
            (
                "probs not summing to 1",
                EngineSpec::Ph {
                    service: ServiceLaw::Hyperexponential {
                        probs: vec![0.3, 0.3],
                        rates: vec![1.0, 2.0],
                    },
                },
            ),
            (
                "phase count beyond the cap",
                EngineSpec::Ph { service: ServiceLaw::Erlang { k: 1_000_000, rate: 1.0 } },
            ),
            (
                "scv needing more phases than the cap",
                EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv: 1e-9 } },
            ),
            (
                "zero-radius ring",
                EngineSpec::Graph { topology: Topology::Ring { radius: 0 }, shard_size: None },
            ),
            (
                "ring wider than the cycle",
                EngineSpec::Graph { topology: Topology::Ring { radius: 5 }, shard_size: None },
            ),
            (
                "torus on a non-square queue count",
                EngineSpec::Graph { topology: Topology::Torus { radius: 1 }, shard_size: None },
            ),
            (
                "random-regular degree beyond M",
                EngineSpec::Graph {
                    topology: Topology::RandomRegular { degree: 10, seed: 1 },
                    shard_size: None,
                },
            ),
            (
                "nonpositive job-size rate",
                EngineSpec::Event { job_size: JobSizeLaw::Exponential { rate: 0.0 } },
            ),
            (
                "nonpositive pareto shape",
                EngineSpec::Event { job_size: JobSizeLaw::Pareto { shape: -2.0, scale: 1.0 } },
            ),
            (
                "bounded pareto with lo >= hi",
                EngineSpec::Event {
                    job_size: JobSizeLaw::BoundedPareto { shape: 2.0, lo: 5.0, hi: 1.0 },
                },
            ),
        ];
        for (what, spec) in cases {
            let scenario = Scenario::new(base_config(), spec);
            assert!(scenario.build().is_err(), "{what} must be rejected");
        }
        // Broken SystemConfig is caught too.
        let mut bad = Scenario::new(base_config(), EngineSpec::Aggregate);
        bad.config.initial_dist = vec![0.5; 2];
        assert!(bad.build().is_err(), "inconsistent config must be rejected");
        // The staggered engine's u8 snapshots cap the buffer at 255.
        let wide =
            Scenario::new(base_config().with_buffer(300), EngineSpec::Staggered { cohorts: 2 });
        assert!(wide.build().is_err(), "buffer > 255 must be rejected for staggered");
        assert!(
            Scenario::new(base_config().with_buffer(300), EngineSpec::Aggregate).build().is_ok(),
            "wide buffers stay fine for engines without u8 snapshots"
        );
    }

    #[test]
    fn hetero_composite_rule_table_is_capped() {
        // (C·(B+1))^d·d: ten distinct rates at B = 300 need 3010²·2 ≈ 1.8·10^7
        // entries, over the 2^24 cap; two classes need 602²·2 and pass.
        let wide = base_config().with_buffer(300);
        let distinct = (1..=10).map(|i| i as f64).collect();
        let err = Scenario::new(wide.clone(), EngineSpec::Hetero { rates: distinct })
            .validate()
            .expect_err("ten classes at B = 300 exceed the cap");
        assert!(err.to_string().contains("2^24"), "{err}");
        let two = [1.6, 0.4].repeat(5);
        Scenario::new(wide, EngineSpec::Hetero { rates: two }).validate().unwrap();
    }

    #[test]
    fn scenarios_round_trip_through_json_for_every_engine_kind() {
        for spec in all_specs() {
            let scenario = Scenario::new(base_config(), spec);
            let json = scenario.to_json();
            let back = Scenario::from_json(&json).expect("round trip");
            assert_eq!(scenario, back, "json: {json}");
        }
    }

    #[test]
    fn unknown_engine_kind_is_a_parse_error() {
        let mut json = Scenario::new(base_config(), EngineSpec::PerClient).to_json();
        json = json.replace("PerClient", "Quantum");
        assert!(Scenario::from_json(&json).is_err());
    }

    fn crashy_plan() -> FaultPlan {
        FaultPlan {
            crashes: Some(mflb_core::CrashFaults { mttf: 20.0, mttr: 5.0 }),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn fault_free_scenarios_serialize_without_a_faults_key() {
        // Training checkpoints embed scenario JSON and pin its hash: an
        // absent (or empty) plan must not change a single byte.
        let pristine = Scenario::new(base_config(), EngineSpec::Aggregate);
        let json = pristine.to_json();
        assert!(!json.contains("faults"), "no faults key expected: {json}");
        let emptied = pristine.clone().with_faults(FaultPlan::empty());
        assert_eq!(emptied.to_json(), json, "empty plan must serialize identically");
        assert_eq!(Scenario::from_json(&json).unwrap(), pristine);
    }

    #[test]
    fn fault_plans_round_trip_through_json_and_reach_the_engine() {
        for spec in [
            EngineSpec::Event { job_size: JobSizeLaw::Exponential { rate: 1.0 } },
            EngineSpec::Graph { topology: Topology::Ring { radius: 2 }, shard_size: None },
            EngineSpec::JobLevel,
        ] {
            let scenario = Scenario::new(base_config(), spec).with_faults(crashy_plan());
            let back = Scenario::from_json(&scenario.to_json()).expect("round trip");
            assert_eq!(scenario, back);
            let engine = back.build().expect("faulted scenario must build");
            let has_plan = match &engine {
                AnyEngine::Event(e) => e.faults().is_some(),
                AnyEngine::Graph(e) => e.faults().is_some(),
                AnyEngine::JobLevel(e) => e.faults().is_some(),
                _ => unreachable!(),
            };
            assert!(has_plan, "plan must reach the built engine");
        }
    }

    #[test]
    fn fault_plans_on_unsupported_engines_are_rejected() {
        for spec in
            [EngineSpec::Aggregate, EngineSpec::PerClient, EngineSpec::Staggered { cohorts: 2 }]
        {
            let scenario = Scenario::new(base_config(), spec).with_faults(crashy_plan());
            let err = scenario.validate().expect_err("plan on unsupported engine").to_string();
            assert!(err.starts_with("faults:"), "{err}");
        }
    }

    #[test]
    fn invalid_fault_plans_are_rejected_with_field_names() {
        let plan = FaultPlan {
            stragglers: vec![mflb_core::StragglerWindow {
                start: 0.0,
                end: 10.0,
                factor: 0.5,
                queues: Some(vec![99]),
            }],
            ..FaultPlan::default()
        };
        let scenario = Scenario::new(base_config(), EngineSpec::JobLevel).with_faults(plan);
        let err = scenario.validate().expect_err("out-of-range queue index").to_string();
        assert!(err.contains("queue 99"), "{err}");
    }

    #[test]
    fn faulted_epochs_run_and_stay_reproducible_for_every_supported_engine() {
        let policy = FixedRulePolicy::new(rnd_rule(6, 2), "RND");
        for spec in [
            EngineSpec::Event { job_size: JobSizeLaw::Exponential { rate: 1.0 } },
            EngineSpec::Graph { topology: Topology::Ring { radius: 2 }, shard_size: None },
            EngineSpec::Graph { topology: Topology::Ring { radius: 2 }, shard_size: Some(3) },
            EngineSpec::JobLevel,
        ] {
            let scenario = Scenario::new(base_config(), spec).with_faults(crashy_plan());
            let engine = scenario.build().expect("faulted scenario must build");
            let a = run_episode(&engine, &policy, 8, &mut run_rng(41, 0));
            let b = run_episode(&engine, &policy, 8, &mut run_rng(41, 0));
            assert_eq!(a.drops_per_epoch, b.drops_per_epoch, "{}", engine.name());
            assert_eq!(a.mean_queue_len, b.mean_queue_len, "{}", engine.name());
        }
    }
}
