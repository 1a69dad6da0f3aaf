//! The DP oracle bridge: exact optimality certificates for scenarios.
//!
//! The `mflb-dp` crate solves the discretized mean-field control MDP
//! exactly (up to lattice resolution and a finite softmin action family);
//! this module connects that solver to the scenario/eval pipeline so a
//! trained checkpoint can be certified against the model-based optimum
//! instead of merely "beats RND":
//!
//! * [`oracle_feasibility`] reads a scenario's verdict off its [`limit`]
//!   (exact, a labelled reference, or rejected) and checks the solve fits.
//! * [`solve_oracle`] solves (or loads from a content-keyed cache) the
//!   discretized MDP and wraps the greedy [`GridPolicy`] as an evaluable
//!   policy named `MF-DP (oracle)`.
//! * Solutions are cached as [`mflb_dp::DpCheckpoint`] JSON under
//!   `oracle_<key>.json`, where the key is an FNV-1a hash of exactly the
//!   fields the discretized MDP depends on (Δt, service rate, arrivals,
//!   `d`, buffer, γ, holding cost) plus the grid resolution — so an eval
//!   re-run, an `M` sweep or a renamed scenario file all hit the cache,
//!   while any dynamics change forces a fresh solve.
//!
//! Cost grows combinatorially in the buffer size: the lattice has
//! `C(G + B, B)` points. [`OracleConfig::max_table_entries`] refuses
//! infeasible solves with a readable message before any allocation.

use crate::scenario_env::{limit, Limit};
use mflb_dp::{ActionLibrary, DpConfig, DpSolution, GridPolicy};
use mflb_queue::mmpp::ArrivalProcess;
use mflb_sim::Scenario;
use serde::Serialize;
use std::path::PathBuf;

/// How faithfully the DP optimum describes a scenario's true optimum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleExactness {
    /// The scenario's mean-field limit is the homogeneous model the DP
    /// solves: the oracle is exact up to lattice resolution and the
    /// softmin action family.
    Exact,
    /// The DP solves a homogeneous stand-in (see [`limit`]): gaps are
    /// indicative, not certificates.
    Reference {
        /// Human-readable description of the approximation.
        note: String,
    },
}

impl OracleExactness {
    /// Whether the oracle is an exact certificate for the scenario.
    pub fn is_exact(&self) -> bool {
        matches!(self, OracleExactness::Exact)
    }

    /// The approximation note (empty for exact oracles).
    pub fn note(&self) -> &str {
        match self {
            OracleExactness::Exact => "",
            OracleExactness::Reference { note } => note,
        }
    }
}

/// Configuration of an oracle solve.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Simplex lattice resolution `G` (probabilities are multiples of
    /// `1/G`). The default of 8 keeps quick-scale solves in seconds at
    /// the paper's `B = 5`.
    pub grid_resolution: usize,
    /// Sup-norm convergence tolerance of the value iteration.
    pub tol: f64,
    /// Hard cap on value-iteration sweeps.
    pub max_sweeps: usize,
    /// Worker threads for the transition precompute (0 → all cores).
    pub threads: usize,
    /// Refuse solves whose transition table would exceed this many
    /// `(lattice point, level, action)` entries — the readable-error
    /// guard against oversized buffers or resolutions.
    pub max_table_entries: u64,
    /// Directory for `oracle_<key>.json` checkpoint caching; `None`
    /// disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            grid_resolution: 8,
            tol: 1e-6,
            max_sweeps: 4_000,
            threads: 0,
            max_table_entries: 2_000_000,
            cache_dir: None,
        }
    }
}

/// A solved oracle: the greedy DP policy plus its provenance.
pub struct Oracle {
    /// The greedy DP policy, named `MF-DP (oracle)`.
    pub policy: GridPolicy,
    /// Exact certificate or mean-matched reference.
    pub exactness: OracleExactness,
    /// Whether the solution came from the checkpoint cache.
    pub cache_hit: bool,
    /// Lattice resolution used.
    pub grid_resolution: usize,
    /// Value-iteration sweeps the solver used (0 when loaded from cache
    /// metadata that recorded it; always the stored count).
    pub sweeps: usize,
    /// Final sup-norm residual of the solve.
    pub residual: f64,
    /// The content key the cache file is named by.
    pub key: String,
}

impl Oracle {
    /// Recomputes the Bellman residual from the model over every
    /// `stride`-th lattice state and returns the maximum — the
    /// self-check that fails loudly if a (possibly cached) solution has
    /// not actually converged.
    pub fn max_bellman_residual(&self, stride: usize) -> f64 {
        let sol = self.policy.solution();
        let stride = stride.max(1);
        let mut worst = 0.0f64;
        for s in (0..sol.grid().num_points()).step_by(stride) {
            for l in 0..sol.num_levels() {
                worst = worst.max(sol.bellman_residual_at(s, l));
            }
        }
        worst
    }
}

/// The homogeneous `SystemConfig` the oracle solves: the scenario's [`Limit::config`].
pub fn oracle_mdp_config(scenario: &Scenario) -> Result<mflb_core::SystemConfig, String> {
    Ok(limit(scenario)?.config)
}

/// Number of `(lattice point, level, action)` transition-table entries an
/// oracle solve would precompute, or `None` on overflow.
fn table_entries(num_states: usize, grid: usize, levels: usize, actions: usize) -> Option<u64> {
    // C(grid + num_states - 1, num_states - 1) with overflow-checked
    // arithmetic (the count can exceed u64 long before SimplexGrid would
    // get a chance to panic on allocation).
    let mut points: u64 = 1;
    for i in 1..num_states {
        points = points.checked_mul((grid + i) as u64)? / i as u64;
    }
    points.checked_mul(levels as u64)?.checked_mul(actions as u64)
}

/// Pre-flight feasibility check: classifies the scenario and verifies the
/// solve fits [`OracleConfig::max_table_entries`]. Returns the exactness
/// class so callers can check *before* spending minutes in the solver —
/// the CLI turns an `Err` here into a usage error (exit 2).
pub fn oracle_feasibility(
    scenario: &Scenario,
    oracle: &OracleConfig,
) -> Result<OracleExactness, String> {
    feasible(scenario, oracle).map(|(exactness, _)| exactness)
}

/// [`oracle_feasibility`] plus the config the solve runs at.
fn feasible(
    scenario: &Scenario,
    oracle: &OracleConfig,
) -> Result<(OracleExactness, mflb_core::SystemConfig), String> {
    scenario.validate()?;
    let Limit { config, oracle: verdict, .. } = limit(scenario)?;
    let exactness = verdict?;
    if oracle.grid_resolution == 0 {
        return Err("oracle grid resolution must be at least 1".into());
    }
    check_lattice(&config, oracle, "--oracle-grid")?;
    Ok((exactness, config))
}

/// Checks that the lattice DP over `config` at `oracle`'s grid resolution
/// fits [`OracleConfig::max_table_entries`]; the complaint names
/// `grid_flag` as the knob to lower.
pub fn check_lattice(
    config: &mflb_core::SystemConfig,
    oracle: &OracleConfig,
    grid_flag: &str,
) -> Result<(), String> {
    let zs = config.num_states();
    let actions = ActionLibrary::softmin_default(zs, config.d).len();
    let levels = config.arrivals.num_levels();
    let entries = table_entries(zs, oracle.grid_resolution, levels, actions);
    match entries {
        Some(n) if n <= oracle.max_table_entries => Ok(()),
        _ => {
            let shown = entries.map_or("more than 2^64".to_string(), |n| n.to_string());
            Err(format!(
                "oracle solve infeasible: buffer {} at grid resolution {} needs {} \
                 transition-table entries (cap {}); lower {grid_flag} or use a \
                 smaller buffer",
                config.buffer, oracle.grid_resolution, shown, oracle.max_table_entries
            ))
        }
    }
}

/// Names the numerical method behind every mean-field transition the
/// solve tabulates. Cached values from another method differ in the low
/// bits, so changing the method changes the key and old entries miss.
const TRANSITION_KERNEL: &str = "uniformization";

/// The MDP-relevant fields the cache key hashes: everything the
/// discretized solve depends on, and nothing it does not (system sizes,
/// horizons and ν₀ are deliberately absent — the value function covers
/// the whole lattice).
#[derive(Serialize)]
struct MdpSignature {
    transition_kernel: &'static str,
    dt: f64,
    service_rate: f64,
    arrivals: ArrivalProcess,
    d: usize,
    buffer: usize,
    gamma: f64,
    holding_cost: f64,
    grid_resolution: usize,
    action_library: String,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content key of an oracle solve: FNV-1a 64 over the canonical JSON of
/// the MDP-relevant configuration fields plus grid resolution, action
/// library and transition-kernel tags, rendered as 16 hex digits.
fn scenario_oracle_key(config: &mflb_core::SystemConfig, grid_resolution: usize) -> String {
    oracle_key(config, grid_resolution, TRANSITION_KERNEL)
}

fn oracle_key(
    config: &mflb_core::SystemConfig,
    grid_resolution: usize,
    transition_kernel: &'static str,
) -> String {
    let sig = MdpSignature {
        transition_kernel,
        dt: config.dt,
        service_rate: config.service_rate,
        arrivals: config.arrivals.clone(),
        d: config.d,
        buffer: config.buffer,
        gamma: config.gamma,
        holding_cost: config.holding_cost,
        grid_resolution,
        action_library: "softmin_default".to_string(),
    };
    let json = serde_json::to_string(&sig).expect("signature serialization cannot fail");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Whether a cached solution actually answers this solve request (guards
/// against hash collisions and hand-edited cache files).
fn cache_entry_matches(
    sol: &DpSolution,
    config: &mflb_core::SystemConfig,
    oracle: &OracleConfig,
) -> bool {
    sol.grid().resolution() == oracle.grid_resolution
        && sol.config().dt == config.dt
        && sol.config().service_rate == config.service_rate
        && sol.config().d == config.d
        && sol.config().buffer == config.buffer
        && sol.config().gamma == config.gamma
        && sol.config().holding_cost == config.holding_cost
        && sol.config().arrivals == config.arrivals
        && sol.actions().len()
            == ActionLibrary::softmin_default(config.num_states(), config.d).len()
}

/// Solves (or loads from cache) the discretized MDP for a scenario and
/// wraps the greedy policy for evaluation.
///
/// Fails with a readable message — never a panic — on unsupported
/// engines, oversized solves, or malformed scenarios. Cache misses and
/// unreadable/mismatched cache files fall through to a fresh solve; cache
/// writes are best-effort (an unwritable cache directory costs time, not
/// correctness).
pub fn solve_oracle(scenario: &Scenario, oracle: &OracleConfig) -> Result<Oracle, String> {
    let (exactness, config) = feasible(scenario, oracle)?;
    let key = scenario_oracle_key(&config, oracle.grid_resolution);

    let cache_path = oracle.cache_dir.as_ref().map(|dir| dir.join(format!("oracle_{key}.json")));
    let cached = cache_path.as_ref().and_then(|path| DpSolution::load_json(path).ok());
    let cached = cached.filter(|sol| cache_entry_matches(sol, &config, oracle));
    let cache_hit = cached.is_some();
    let sol = match cached {
        Some(sol) => sol,
        None => {
            let library = ActionLibrary::softmin_default(config.num_states(), config.d);
            let dp = DpConfig {
                grid_resolution: oracle.grid_resolution,
                tol: oracle.tol,
                max_sweeps: oracle.max_sweeps,
                threads: oracle.threads,
            };
            let sol = DpSolution::solve(&config, library, &dp);
            if sol.residual > oracle.tol {
                return Err(format!(
                    "oracle value iteration did not converge: residual {} after {} sweeps \
                     (tol {}); raise --oracle-sweeps or loosen the tolerance",
                    sol.residual, sol.sweeps, oracle.tol
                ));
            }
            if let Some(path) = &cache_path {
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let _ = sol.save_json(path);
            }
            sol
        }
    };
    let (sweeps, residual) = (sol.sweeps, sol.residual);
    Ok(Oracle {
        policy: sol.into_policy().with_name("MF-DP (oracle)"),
        exactness,
        cache_hit,
        grid_resolution: oracle.grid_resolution,
        sweeps,
        residual,
        key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_core::mdp::UpperPolicy;
    use mflb_core::{CrashFaults, FaultPlan, SystemConfig, Topology};
    use mflb_sim::{EngineSpec, ServiceLaw};

    fn tiny_scenario() -> Scenario {
        let mut config = SystemConfig::paper().with_size(100, 10).with_buffer(2).with_dt(5.0);
        config.eval_time = 100.0;
        Scenario::new(config, EngineSpec::Aggregate)
    }

    /// The oracle's verdict on a scenario, read off its limit.
    fn oracle_exactness(scenario: &Scenario) -> Result<OracleExactness, String> {
        limit(scenario).and_then(|l| l.oracle)
    }

    fn tiny_oracle() -> OracleConfig {
        OracleConfig { grid_resolution: 4, ..OracleConfig::default() }
    }

    #[test]
    fn exactness_taxonomy_covers_every_engine_kind() {
        let base = tiny_scenario();
        let with = |engine: EngineSpec| Scenario::new(base.config.clone(), engine);
        assert!(oracle_exactness(&with(EngineSpec::Aggregate)).unwrap().is_exact());
        assert!(oracle_exactness(&with(EngineSpec::PerClient)).unwrap().is_exact());
        assert!(oracle_exactness(&with(EngineSpec::JobLevel)).unwrap().is_exact());
        // One cohort is the synchronous engine; with more, the staggered
        // engine sits well above the synchronous closure at every M.
        assert!(oracle_exactness(&with(EngineSpec::Staggered { cohorts: 1 })).unwrap().is_exact());
        let staggered = oracle_exactness(&with(EngineSpec::Staggered { cohorts: 4 })).unwrap();
        assert!(!staggered.is_exact());
        assert!(staggered.note().contains("synchronous"), "{}", staggered.note());
        assert!(oracle_exactness(&with(EngineSpec::Graph {
            topology: Topology::FullMesh,
            shard_size: None
        }))
        .unwrap()
        .is_exact());
        let ring = oracle_exactness(&with(EngineSpec::Graph {
            topology: Topology::Ring { radius: 2 },
            shard_size: None,
        }))
        .unwrap();
        assert!(!ring.is_exact());
        assert!(ring.note().contains("full-mesh"), "{}", ring.note());
        let exp = oracle_exactness(&with(EngineSpec::Ph {
            service: ServiceLaw::Exponential { rate: 1.0 },
        }))
        .unwrap();
        assert!(exp.is_exact(), "single-phase exponential is the homogeneous model");
        let erlang = oracle_exactness(&with(EngineSpec::Ph {
            service: ServiceLaw::Erlang { k: 2, rate: 2.0 },
        }))
        .unwrap();
        assert!(!erlang.is_exact());
        assert!(erlang.note().contains("mean-matched"), "{}", erlang.note());
        let hetero = oracle_exactness(&with(EngineSpec::Hetero { rates: vec![1.0; 10] }));
        assert!(hetero.is_err());
        assert!(hetero.unwrap_err().contains("heterogeneous"), "readable rejection");
        let event_exp = oracle_exactness(&with(EngineSpec::Event {
            job_size: mflb_core::JobSizeLaw::Exponential { rate: 1.0 },
        }))
        .unwrap();
        assert!(event_exp.is_exact(), "exponential sizes are the homogeneous model in law");
        let event_bp = oracle_exactness(&with(EngineSpec::Event {
            job_size: mflb_core::JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.5, hi: 50.0 },
        }))
        .unwrap();
        assert!(!event_bp.is_exact());
        assert!(event_bp.note().contains("mean-matched"), "{}", event_bp.note());
        let event_inf = oracle_exactness(&with(EngineSpec::Event {
            job_size: mflb_core::JobSizeLaw::Pareto { shape: 0.8, scale: 1.0 },
        }));
        assert!(event_inf.is_err());
        assert!(event_inf.unwrap_err().contains("infinite mean"), "readable rejection");
    }

    #[test]
    fn fault_plans_make_the_oracle_a_reference() {
        // The DP solves the fault-free model, whatever the arm's own verdict.
        let crashes = Some(CrashFaults { mttf: 15.0, mttr: 10.0 });
        let plan = FaultPlan { crashes, ..FaultPlan::empty() };
        let faulted = Scenario::new(tiny_scenario().config, EngineSpec::JobLevel).with_faults(plan);
        let verdict = oracle_exactness(&faulted).unwrap();
        assert!(!verdict.is_exact(), "a fault plan cannot carry an exact certificate");
        assert!(verdict.note().contains("fault plan (crashes)"), "{}", verdict.note());
        let empty = Scenario { faults: Some(FaultPlan::empty()), ..faulted };
        assert!(oracle_exactness(&empty).unwrap().is_exact(), "an empty plan injects nothing");
    }

    #[test]
    fn mean_matched_config_inverts_the_service_mean() {
        // Erlang-2 with per-phase rate 2 has mean 1 → rate 1.
        let scenario = Scenario::new(
            tiny_scenario().config,
            EngineSpec::Ph { service: ServiceLaw::Erlang { k: 2, rate: 2.0 } },
        );
        let config = oracle_mdp_config(&scenario).unwrap();
        assert!((config.service_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility_rejects_oversized_grids_with_a_readable_message() {
        let scenario = tiny_scenario();
        let huge = OracleConfig { grid_resolution: 100_000, ..OracleConfig::default() };
        let err = oracle_feasibility(&scenario, &huge).unwrap_err();
        assert!(err.contains("--oracle-grid"), "must tell the user the fix: {err}");
        assert!(oracle_feasibility(&scenario, &tiny_oracle()).is_ok());
    }

    #[test]
    fn cache_key_tracks_dynamics_but_not_system_size() {
        let a = tiny_scenario().config;
        let mut b = a.clone().with_size(10_000, 100);
        b.eval_time = 900.0;
        assert_eq!(
            scenario_oracle_key(&a, 4),
            scenario_oracle_key(&b, 4),
            "M/N/horizon sweeps must share the cache entry"
        );
        let c = a.clone().with_dt(2.0);
        assert_ne!(scenario_oracle_key(&a, 4), scenario_oracle_key(&c, 4), "dynamics change");
        assert_ne!(scenario_oracle_key(&a, 4), scenario_oracle_key(&a, 6), "resolution change");
    }

    #[test]
    fn cache_key_includes_the_transition_kernel() {
        // Entries solved with the Padé epoch must miss under the
        // uniformization kernel.
        let cfg = tiny_scenario().config;
        assert_eq!(scenario_oracle_key(&cfg, 4), oracle_key(&cfg, 4, TRANSITION_KERNEL));
        assert_ne!(scenario_oracle_key(&cfg, 4), oracle_key(&cfg, 4, "pade_expm"));
    }

    #[test]
    fn solve_then_cache_hit_roundtrip() {
        let dir = std::env::temp_dir().join("mflb_oracle_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = tiny_scenario();
        let oracle = OracleConfig { cache_dir: Some(dir.clone()), ..tiny_oracle() };
        let first = solve_oracle(&scenario, &oracle).unwrap();
        assert!(!first.cache_hit);
        assert!(first.exactness.is_exact());
        assert_eq!(first.policy.name(), "MF-DP (oracle)");
        assert!(
            dir.join(format!("oracle_{}.json", first.key)).exists(),
            "solution must be cached on disk"
        );
        let second = solve_oracle(&scenario, &oracle).unwrap();
        assert!(second.cache_hit, "second solve must come from the cache");
        assert_eq!(first.sweeps, second.sweeps);
        assert_eq!(first.residual, second.residual);
        // The cached policy decides identically.
        let nu = mflb_core::StateDist::uniform(scenario.config.buffer);
        for l in 0..scenario.config.arrivals.num_levels() {
            assert_eq!(
                first.policy.solution().greedy_action(&nu, l),
                second.policy.solution().greedy_action(&nu, l)
            );
        }
        // The self-check sees a converged solution either way.
        assert!(second.max_bellman_residual(7) < 1e-5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_fall_through_to_a_fresh_solve() {
        let dir = std::env::temp_dir().join("mflb_oracle_corrupt_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = tiny_scenario();
        let oracle = OracleConfig { cache_dir: Some(dir.clone()), ..tiny_oracle() };
        let key = scenario_oracle_key(&oracle_mdp_config(&scenario).unwrap(), 4);
        std::fs::write(dir.join(format!("oracle_{key}.json")), "{ not json").unwrap();
        let solved = solve_oracle(&scenario, &oracle).unwrap();
        assert!(!solved.cache_hit, "corrupt cache must not be trusted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncached_solve_works_without_a_cache_dir() {
        let solved = solve_oracle(&tiny_scenario(), &tiny_oracle()).unwrap();
        assert!(!solved.cache_hit);
        assert!(solved.residual <= tiny_oracle().tol);
    }
}
