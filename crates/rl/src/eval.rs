//! Checkpoint evaluation: deploy a trained policy into the scenario's
//! finite-N system and compare it against the classical baselines.
//!
//! Mirrors the paper's Fig. 4–6 protocol: for each system size `M` (with
//! `N = M²`, the paper's scaling) the learned policy, JSQ(d), RND and the
//! tuned softmin run `n` independent Monte-Carlo episodes of the scenario's
//! finite engine over the evaluation horizon `T_e = round(eval_time/Δt)`,
//! and the report holds mean cumulative per-queue drops with 95% confidence
//! half-widths. Baselines are length-based; on heterogeneous pools they are
//! lifted to the composite `(length, class)` rule space with
//! [`mflb_policy::lift_to_composite`] (rate-blind, as in §5).

use crate::checkpoint::TrainingCheckpoint;
use crate::oracle::{solve_oracle, OracleConfig};
use crate::scenario_env::{limit, PolicyShape};
use mflb_core::mdp::FixedRulePolicy;
use mflb_policy::InferenceConfig;
use mflb_sim::{monte_carlo, EngineSpec, MonteCarloResult, Scenario};
use serde::{Deserialize, Serialize};

/// One (policy, system size) cell of the evaluation table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRow {
    /// Policy label (`MF (learned)`, `JSQ(d)`, `RND`, `SOFT(β*)`,
    /// `MF-DP (oracle)`).
    pub policy: String,
    /// Number of queues `M`.
    pub m: usize,
    /// Number of clients `N`.
    pub n: u64,
    /// Mean cumulative per-queue drops over the episode.
    pub mean_drops: f64,
    /// 95% confidence half-width over the Monte-Carlo runs.
    pub ci95: f64,
    /// Fraction of jobs dropped among all jobs that reached a queue.
    pub drop_fraction: f64,
    /// Optimality gap versus the DP oracle at the same `M`, in percent:
    /// `(drops − oracle drops) / max(oracle drops, ε) · 100`. Present only
    /// when the eval ran with an oracle; exactly `0` on the oracle's own
    /// row.
    #[serde(default)]
    pub gap_pct: Option<f64>,
}

/// Provenance of the oracle a gap-reporting eval ran against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Simplex lattice resolution of the solve.
    pub grid_resolution: usize,
    /// Value-iteration sweeps used.
    pub sweeps: usize,
    /// Final sup-norm residual of the solve.
    pub residual: f64,
    /// Whether the oracle is an exact certificate for this scenario (vs a
    /// mean-matched reference).
    pub exact: bool,
    /// Approximation note for non-exact oracles (empty when exact).
    pub note: String,
    /// Whether the solution came from the on-disk checkpoint cache.
    pub cache_hit: bool,
}

/// The full evaluation report (serialized by `mflb eval --out`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// The evaluated scenario (the checkpoint's, or an override).
    pub scenario: Scenario,
    /// Episode length in decision epochs (`T_e`).
    pub horizon: usize,
    /// Monte-Carlo runs per cell.
    pub runs: usize,
    /// Base seed of the per-run RNG streams.
    pub seed: u64,
    /// Softmin temperature used for the `SOFT` baseline.
    pub softmin_beta: f64,
    /// Provenance of the DP oracle when the eval ran with one.
    #[serde(default)]
    pub oracle: Option<OracleSummary>,
    /// The table, grouped by system size then policy.
    pub rows: Vec<EvalRow>,
}

impl EvalReport {
    /// Serializes the report to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Mean drops of a policy at the scenario's own system size (first
    /// swept `M`), if present.
    pub fn mean_drops_of(&self, policy: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.policy == policy).map(|r| r.mean_drops)
    }

    /// Optimality gap of a policy at the first swept `M`, if the eval ran
    /// with an oracle.
    pub fn gap_pct_of(&self, policy: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.policy == policy).and_then(|r| r.gap_pct)
    }
}

/// Derives the scenario for a swept system size `M` (`N = M²`, the
/// paper's scaling). Heterogeneous pools stretch their per-server rate
/// pattern proportionally so class fractions are preserved to within one
/// server.
pub fn scenario_with_m(scenario: &Scenario, m: usize) -> Scenario {
    let mut out = scenario.clone();
    out.config = out.config.with_m_squared(m);
    if let EngineSpec::Hetero { rates } = &scenario.engine {
        let old = rates.len().max(1);
        let stretched = (0..m).map(|i| rates[i * old / m.max(1)]).collect();
        out.engine = EngineSpec::Hetero { rates: stretched };
    }
    out
}

/// Drops-denominator floor of the gap computation: keeps the percentage
/// finite when the oracle achieves (numerically) zero drops.
const GAP_EPSILON: f64 = 1e-9;

/// Evaluates a checkpoint on its scenario's finite system for each `M` in
/// `m_sweep` (empty sweep → the scenario's own size), comparing the
/// learned policy against JSQ(d), RND and softmin(β*), with β* tuned in
/// the mean-field model at the scenario's [`limit`] config.
///
/// `threads = 0` uses all available cores for the Monte-Carlo fan-out.
///
/// With an [`OracleConfig`] the eval also certifies optimality gaps: the
/// discretized-MDP optimum is solved (or loaded from its cache), deployed
/// in the same finite system as an extra `MF-DP (oracle)` row per `M`,
/// and every row gains a `gap_pct` column —
/// `(drops − oracle drops) / max(oracle drops, ε) · 100`, with the
/// oracle's own row pinned to exactly `0`.
///
/// `inference` sets the learned policy's network precision tier and tanh
/// mode (`mflb eval --precision f32` / `--fast-math`); the baselines and
/// the oracle are rule tables and are unaffected. Plain evaluation is
/// `InferenceConfig::default()`.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_checkpoint_configured(
    ckpt: &TrainingCheckpoint,
    scenario: &Scenario,
    m_sweep: &[usize],
    runs: usize,
    seed: u64,
    threads: usize,
    oracle: Option<&OracleConfig>,
    inference: InferenceConfig,
) -> Result<EvalReport, String> {
    ckpt.validate_for(scenario)?;
    let oracle = match oracle {
        Some(cfg) => Some(solve_oracle(scenario, cfg)?),
        None => None,
    };
    let learned = ckpt.shape().into_policy(ckpt.policy_net.clone()).with_inference(inference);
    let shape = PolicyShape::for_scenario(scenario);
    let zs = shape.obs_states;
    let d = shape.d;
    let classes = shape.rule_states / zs;

    // Tune the softmin temperature once, in the homogeneous mean-field
    // model at the limit's config (mean-matched service rate for `Event`
    // and `Ph`, as training and the oracle use); cheap, deterministic up
    // to arrival noise.
    let horizon = scenario.config.eval_episode_len();
    let tuned_at = limit(scenario)?.config;
    let beta = mflb_policy::optimize_beta(&tuned_at, horizon.min(60), 6, seed).beta;

    let lift = |rule: mflb_core::DecisionRule| {
        if classes > 1 {
            mflb_policy::lift_to_composite(&rule, zs, classes)
        } else {
            rule
        }
    };
    let baselines: Vec<(String, FixedRulePolicy)> = vec![
        (format!("JSQ({d})"), FixedRulePolicy::new(lift(mflb_policy::jsq_rule(zs, d)), "JSQ")),
        ("RND".into(), FixedRulePolicy::new(lift(mflb_policy::rnd_rule(zs, d)), "RND")),
        (
            format!("SOFT(β*={beta:.2})"),
            FixedRulePolicy::new(lift(mflb_policy::softmin_rule(zs, d, beta)), "SOFT"),
        ),
    ];

    let sweep: Vec<usize> =
        if m_sweep.is_empty() { vec![scenario.config.num_queues] } else { m_sweep.to_vec() };

    let mut rows = Vec::new();
    for &m in &sweep {
        let sized = if m == scenario.config.num_queues {
            scenario.clone()
        } else {
            scenario_with_m(scenario, m)
        };
        let engine = sized.build()?;
        let n = sized.config.num_clients;
        let group_start = rows.len();
        let row = |policy: &str, mc: &MonteCarloResult| EvalRow {
            policy: policy.into(),
            m,
            n,
            mean_drops: mc.mean(),
            ci95: mc.ci95(),
            drop_fraction: mc.drop_fraction(),
            gap_pct: None,
        };
        let mc = monte_carlo(&engine, &learned, horizon, runs, seed, threads);
        rows.push(row("MF (learned)", &mc));
        for (label, policy) in &baselines {
            let mc = monte_carlo(&engine, policy, horizon, runs, seed, threads);
            rows.push(row(label, &mc));
        }
        if let Some(o) = &oracle {
            let mc = monte_carlo(&engine, &o.policy, horizon, runs, seed, threads);
            let oracle_drops = mc.mean();
            for r in &mut rows[group_start..] {
                r.gap_pct =
                    Some((r.mean_drops - oracle_drops) / oracle_drops.max(GAP_EPSILON) * 100.0);
            }
            // The oracle is its own yardstick: pinned to exactly 0, not
            // recomputed through the division.
            rows.push(EvalRow { gap_pct: Some(0.0), ..row("MF-DP (oracle)", &mc) });
        }
    }

    let oracle_summary = oracle.map(|o| OracleSummary {
        grid_resolution: o.grid_resolution,
        sweeps: o.sweeps,
        residual: o.residual,
        exact: o.exactness.is_exact(),
        note: o.exactness.note().to_string(),
        cache_hit: o.cache_hit,
    });
    Ok(EvalReport {
        scenario: scenario.clone(),
        horizon,
        runs,
        seed,
        softmin_beta: beta,
        oracle: oracle_summary,
        rows,
    })
}
