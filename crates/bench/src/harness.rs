//! Shared experiment-harness utilities for the per-figure binaries.
//!
//! * [`BINARIES`] — the flag table of every binary, read through
//!   [`args`].
//! * [`Scale`] — every figure binary accepts `--scale quick|paper`; `quick`
//!   shrinks Monte-Carlo counts and system-size grids so the suite runs in
//!   minutes while preserving the qualitative shape, `paper` reproduces
//!   Table 1 exactly.
//! * [`mf_policy_for`] — resolves the "MF" policy for a given Δt: a trained
//!   PPO checkpoint from `assets/policies/mf_dt<Δt>.json` when present,
//!   otherwise the β-optimized softmin stand-in (clearly labelled).
//! * [`jsq_policy`], [`rnd_policy`] and [`fixed_rules`] — the fixed-rule
//!   baselines.

use crate::flags::{exit_usage, Args, Command, Flag, Kind};
use mflb_core::mdp::{FixedRulePolicy, UpperPolicy};
use mflb_core::SystemConfig;
use mflb_policy::{
    jsq_rule, optimize_beta, rnd_rule, softmin_rule, NeuralUpperPolicy, SoftminPolicy,
};
use mflb_rl::TrainingCheckpoint;
use mflb_sim::{EngineSpec, Scenario};
use std::path::PathBuf;

const SCALE: Flag = Flag::new(
    "--scale",
    Kind::Choice(&["quick", "paper", "full"]),
    "experiment scale (full = paper)",
)
.default("quick");
const DT: Flag = Flag::new("--dt", Kind::Number, "synchronization delay Δt").default("5");
const THREADS: Flag = Flag::new("--threads", Kind::Count, "PPO rollout threads").default("8");
const ITERS: Flag =
    Flag::new("--iters", Kind::Count, "PPO iterations [default 120 quick, 6250 paper]");

const fn seed(default: &'static str) -> Flag {
    Flag::new("--seed", Kind::Count, "RNG seed").default(default)
}

const fn bin(name: &'static str, about: &'static str, flags: &'static [Flag]) -> Command {
    Command { name, about, flags, groups: &[], positional: None }
}

/// The flag table of every binary in this crate.
pub static BINARIES: &[Command] = &[
    bin("ablation_dp", "learned policy vs the certified DP optimum", &[SCALE, seed("13")]),
    bin("ablation_learners", "PPO vs REINFORCE vs CEM at equal budgets", &[SCALE, seed("19")]),
    bin("ablation_partial_obs", "partially observed queue states", &[SCALE, seed("17")]),
    bin("ablation_rate", "arrival-rate sweep", &[SCALE, seed("29")]),
    bin("ablation_service_scv", "phase-type service variability", &[SCALE, seed("11")]),
    bin("ablation_softmin", "softmin temperature ablation", &[SCALE, seed("8")]),
    bin("ablation_staggered", "cohort-staggered refreshes", &[SCALE, seed("23")]),
    bin("fig3_training", "Figure 3: PPO training curve", &[SCALE, DT, THREADS, seed("1"), ITERS]),
    bin("fig4_convergence", "Figure 4: finite system -> mean field over M", &[SCALE, seed("4")]),
    bin("fig5_delay_sweep", "Figure 5: MF vs JSQ(2) vs RND over Δt", &[SCALE, seed("5")]),
    bin("fig6_ablation", "Figure 6: the N ⋡ M ablation", &[SCALE, seed("6")]),
    bin("fig7_d_sweep", "Figure 7: sweep over the choice count d", &[SCALE, seed("7")]),
    bin("fig8_sojourn", "Figure 8: job sojourn times", &[SCALE, seed("31")]),
    bin("fig_locality", "drops vs dispatcher neighborhood size", &[SCALE, seed("7"), DT]),
    bin(
        "fig_sparse_scale",
        "sharded sparse-graph epoch throughput",
        &[
            SCALE,
            seed("7"),
            Flag::new("--workers", Kind::Count, "shard worker threads (0 = all cores)")
                .default("0"),
        ],
    ),
    bin("table1_params", "Table 1: system parameters", &[]),
    bin("table2_hyperparams", "Table 2: PPO hyper-parameters", &[]),
];

/// Parses the process arguments against the table of binary `name`
/// (`env!("CARGO_BIN_NAME")`); bad input exits with status 2.
pub fn args(name: &str) -> Args {
    let command = BINARIES
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no flag table for binary {name}"));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    command.parse_or_exit(name, &argv)
}

/// The paper's configuration at `--dt`; an invalid Δt exits with status 2.
pub fn paper_config(dt: f64) -> SystemConfig {
    let config = SystemConfig { dt, ..SystemConfig::paper() };
    config.validate().unwrap_or_else(|e| exit_usage(format!("--dt: {e}")));
    config
}

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale run preserving the qualitative shape.
    Quick,
    /// The paper's full grid (Table 1 sizes, n = 100 Monte-Carlo runs).
    Paper,
}

/// Parses a `--scale` value; unknown values are an error (no silent
/// fallback).
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(value: &str) -> Result<Self, String> {
        match value {
            "quick" => Ok(Scale::Quick),
            "paper" | "full" => Ok(Scale::Paper),
            other => Err(format!("unknown --scale value `{other}` (expected quick|paper)")),
        }
    }
}

impl Scale {
    /// Monte-Carlo run count (Table 1: n = 100).
    pub fn n_runs(self) -> usize {
        match self {
            Scale::Quick => 20,
            Scale::Paper => 100,
        }
    }

    /// Queue-count grid for Fig. 4.
    pub fn m_grid_fig4(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![100, 200, 400],
            Scale::Paper => vec![100, 200, 400, 600, 800, 1000],
        }
    }

    /// Queue-count grid for Fig. 5.
    pub fn m_grid_fig5(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![400],
            Scale::Paper => vec![400, 600, 800, 1000],
        }
    }

    /// Synchronization-delay grid for Fig. 4.
    pub fn dt_grid_fig4(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![1.0, 5.0, 10.0],
            Scale::Paper => vec![1.0, 3.0, 5.0, 7.0, 10.0],
        }
    }

    /// Synchronization-delay grid for Fig. 5–6.
    pub fn dt_grid_fig5(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![1.0, 2.0, 3.0, 5.0, 7.0, 10.0],
            Scale::Paper => (1..=10).map(|d| d as f64).collect(),
        }
    }

    /// Label used in output files.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// The directory holding trained policy checkpoints.
pub(crate) fn policies_dir() -> PathBuf {
    PathBuf::from("assets/policies")
}

/// Checkpoint path convention for a given synchronization delay.
pub fn checkpoint_path(dt: f64) -> PathBuf {
    policies_dir().join(format!("mf_dt{}.json", dt as i64))
}

/// The resolved "MF" policy plus a provenance label.
pub struct ResolvedPolicy {
    /// The policy object.
    pub policy: Box<dyn UpperPolicy + Sync + Send>,
    /// `"ppo-checkpoint"` or `"softmin-beta*"`.
    pub provenance: String,
}

/// Resolves the learned MF policy for a configuration.
///
/// Candidates are (a) the PPO checkpoint trained for this Δt (if present
/// under `assets/policies/`) and (b) the deterministic β-optimized softmin
/// family. Both are scored in the *limiting mean-field model* (the
/// training objective, cheap and deterministic up to arrival noise) and
/// the better one is deployed — exactly the model-selection step a
/// practitioner performs before going to production. The provenance label
/// records which artifact won.
pub fn mf_policy_for(config: &SystemConfig, search_horizon: usize, seed: u64) -> ResolvedPolicy {
    use mflb_core::MeanFieldMdp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let res = optimize_beta(config, search_horizon, 8, seed);
    let softmin = SoftminPolicy::new(config.num_states(), config.d, res.beta);

    let path = checkpoint_path(config.dt);
    if path.exists() {
        match load_mf_checkpoint(config) {
            Ok(p) => {
                let mdp = MeanFieldMdp::new(config.clone());
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1E);
                let horizon = search_horizon.max(20);
                let ppo_score = mdp.evaluate(&p, horizon, 40, &mut rng).mean();
                let soft_score = mdp.evaluate(&softmin, horizon, 40, &mut rng).mean();
                if ppo_score >= soft_score {
                    return ResolvedPolicy {
                        policy: Box::new(p.with_name("MF (PPO)")),
                        provenance: "ppo-checkpoint".into(),
                    };
                }
                return ResolvedPolicy {
                    policy: Box::new(softmin),
                    provenance: format!(
                        "softmin-beta*={:.3} (beat checkpoint {:.1} vs {:.1})",
                        res.beta, soft_score, ppo_score
                    ),
                };
            }
            Err(e) => eprintln!("warning: failed to load {}: {e}", path.display()),
        }
    }
    ResolvedPolicy {
        policy: Box::new(softmin),
        provenance: format!("softmin-beta*={:.3}", res.beta),
    }
}

/// The PPO checkpoint trained for `config.dt` (see [`checkpoint_path`]).
/// Its network must fit *this* homogeneous configuration: the dt-keyed
/// path may hold a checkpoint trained for a different engine kind or
/// buffer.
pub fn load_mf_checkpoint(config: &SystemConfig) -> Result<NeuralUpperPolicy, String> {
    let homog = Scenario::new(config.clone(), EngineSpec::Aggregate);
    let path = checkpoint_path(config.dt).to_string_lossy().into_owned();
    TrainingCheckpoint::load(&path)?.fit(&path, &homog)
}

/// The MF-JSQ(d) baseline as an upper-level policy.
pub fn jsq_policy(config: &SystemConfig) -> FixedRulePolicy {
    FixedRulePolicy::new(jsq_rule(config.num_states(), config.d), format!("JSQ({})", config.d))
}

/// The MF-RND baseline as an upper-level policy.
pub fn rnd_policy(config: &SystemConfig) -> FixedRulePolicy {
    FixedRulePolicy::new(rnd_rule(config.num_states(), config.d), "RND")
}

/// The fixed rules the sweeps run, in their seed order: JSQ(d), RND and
/// softmin(`beta`).
pub fn fixed_rules(config: &SystemConfig, beta: f64) -> [FixedRulePolicy; 3] {
    let soft = softmin_rule(config.num_states(), config.d, beta);
    [jsq_policy(config), rnd_policy(config), FixedRulePolicy::new(soft, "SOFT")]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_grids_are_subsets_of_paper() {
        let q = Scale::Quick;
        let p = Scale::Paper;
        for m in q.m_grid_fig4() {
            assert!(p.m_grid_fig4().contains(&m));
        }
        for dt in q.dt_grid_fig4() {
            assert!(p.dt_grid_fig4().contains(&dt));
        }
        assert!(q.n_runs() <= p.n_runs());
    }

    #[test]
    fn scale_parse_rejects_unknown_values() {
        assert_eq!("quick".parse::<Scale>().unwrap(), Scale::Quick);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Paper);
        assert_eq!("full".parse::<Scale>().unwrap(), Scale::Paper);
        let err = "qick".parse::<Scale>().unwrap_err();
        assert!(err.contains("qick"), "message should name the bad value: {err}");
    }

    #[test]
    fn checkpoint_path_convention() {
        assert_eq!(checkpoint_path(5.0), PathBuf::from("assets/policies/mf_dt5.json"));
    }

    #[test]
    fn mf_policy_falls_back_to_softmin_without_checkpoint() {
        // dt = 9 has no shipped checkpoint; short search must resolve.
        let cfg = SystemConfig::paper().with_dt(9.0);
        let resolved = mf_policy_for(&cfg, 10, 1);
        assert!(resolved.provenance.starts_with("softmin"));
    }
}
