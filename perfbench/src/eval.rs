//! `eval_certify`: `evaluate_checkpoint_configured` over M ∈ {100, 1000}
//! with the DP oracle (G = 8, cache off) and a paper-shaped 2×256
//! checkpoint. The one workload where `policy` inference does real work
//! (M = 100) next to the `sim` aggregate engine (M = 1000), with the
//! `dp` oracle and `optimize_beta` riding along.

use crate::report::{Report, Samples};
use crate::stats::{median, repeat_for, repeated_setup};
use crate::trace::{timed, Counter, TimedEngine, TimedPolicy};
use crate::train::{scenario, weights};
use mflb_core::mdp::{FixedRulePolicy, UpperPolicy};
use mflb_dp::{ActionLibrary, DpConfig, DpSolution};
use mflb_policy::InferenceConfig;
use mflb_rl::{
    evaluate_checkpoint_configured, oracle_mdp_config, scenario_with_m, solve_oracle, EvalRow,
    OracleConfig, PolicyShape, PpoConfig, TrainingCheckpoint,
};
use mflb_sim::{monte_carlo, Scenario};

/// System sizes certified per pass.
pub(crate) const M_SWEEP: [usize; 2] = [100, 1000];
/// Monte-Carlo runs per (policy, M) row.
pub(crate) const RUNS: usize = 20;
/// Monte-Carlo and oracle-precompute worker threads.
pub(crate) const WORKERS: usize = 2;

/// Mirrors the gap floor of `mflb_rl::eval`.
const GAP_EPSILON: f64 = 1e-9;

/// The oracle as `mflb eval --oracle --oracle-grid 8 --oracle-cache none`
/// configures it.
pub(crate) fn oracle_config() -> OracleConfig {
    OracleConfig { grid_resolution: 8, threads: WORKERS, cache_dir: None, ..Default::default() }
}

/// The untrained paper-shaped (Table 2, 2×256) checkpoint for `scenario`.
pub(crate) fn paper_checkpoint(
    scenario: &Scenario,
    seed: u64,
) -> Result<TrainingCheckpoint, String> {
    Ok(mflb_rl::train_scenario(scenario, PpoConfig::paper(), 0, seed, false)?.checkpoint)
}

/// Layer totals of one system size in a traced eval.
#[derive(Debug, Default)]
pub struct SizeTrace {
    /// Number of queues.
    pub m: usize,
    /// `decide_batch` totals over every policy at this size.
    pub decide: Counter,
    /// Aggregate-engine `step` totals.
    pub step: Counter,
    /// Aggregate-engine `empirical` (observation) totals.
    pub observe: Counter,
    /// Wall time of the Monte-Carlo calls at this size.
    pub monte_carlo_ns: u64,
}

/// A traced certify eval.
#[derive(Debug)]
pub struct EvalTrace {
    /// The table, identical to `evaluate_checkpoint_configured`'s.
    pub rows: Vec<EvalRow>,
    /// Per-size layer totals, in sweep order.
    pub sizes: Vec<SizeTrace>,
    /// Wall time of `optimize_beta`.
    pub beta_ns: u64,
    /// Wall time of `solve_oracle`.
    pub oracle_ns: u64,
    /// Value-iteration sweeps of the oracle solve.
    pub oracle_sweeps: usize,
    /// Wall time of the whole eval.
    pub wall_ns: u64,
}

/// `evaluate_checkpoint_configured` (default inference, homogeneous
/// scenarios) recomposed from public calls, with every engine and policy
/// wrapped in timing decorators. Reproduces its rows exactly.
pub fn traced_eval(
    ckpt: &TrainingCheckpoint,
    scenario: &Scenario,
    m_sweep: &[usize],
    runs: usize,
    seed: u64,
    threads: usize,
    oracle: &OracleConfig,
) -> Result<EvalTrace, String> {
    let (result, wall_ns) = timed(|| -> Result<_, String> {
        ckpt.validate_for(scenario)?;
        let (oracle, oracle_ns) = timed(|| solve_oracle(scenario, oracle));
        let oracle = oracle?;
        let shape = PolicyShape::for_scenario(scenario);
        if shape.rule_states != shape.obs_states {
            return Err("traced eval covers homogeneous scenarios only".into());
        }
        let learned = ckpt.shape().into_policy(ckpt.policy_net.clone());
        let (zs, d) = (shape.obs_states, shape.d);
        let horizon = scenario.config.eval_episode_len();
        let (beta, beta_ns) =
            timed(|| mflb_policy::optimize_beta(&scenario.config, horizon.min(60), 6, seed).beta);
        let jsq = FixedRulePolicy::new(mflb_policy::jsq_rule(zs, d), "JSQ");
        let rnd = FixedRulePolicy::new(mflb_policy::rnd_rule(zs, d), "RND");
        let soft = FixedRulePolicy::new(mflb_policy::softmin_rule(zs, d, beta), "SOFT");
        let policies: [(String, &(dyn UpperPolicy + Sync)); 4] = [
            ("MF (learned)".into(), &learned),
            (format!("JSQ({d})"), &jsq),
            ("RND".into(), &rnd),
            (format!("SOFT(β*={beta:.2})"), &soft),
        ];

        let mut rows = Vec::new();
        let mut sizes = Vec::new();
        for &m in m_sweep {
            let sized = if m == scenario.config.num_queues {
                scenario.clone()
            } else {
                scenario_with_m(scenario, m)
            };
            let engine = sized.build().map_err(|e| e.to_string())?;
            let t = SizeTrace { m, ..SizeTrace::default() };
            let timed_engine = TimedEngine::new(&engine, &t.step, &t.observe);
            let mut mc_ns = 0;
            let mut row = |label: String, policy: &(dyn UpperPolicy + Sync)| {
                let timed_policy = TimedPolicy::new(policy, &t.decide);
                let (mc, ns) = timed(|| {
                    monte_carlo(&timed_engine, &timed_policy, horizon, runs, seed, threads)
                });
                mc_ns += ns;
                EvalRow {
                    policy: label,
                    m,
                    n: sized.config.num_clients,
                    mean_drops: mc.mean(),
                    ci95: mc.ci95(),
                    drop_fraction: mc.drop_fraction(),
                    gap_pct: None,
                }
            };
            let group_start = rows.len();
            for (label, policy) in &policies {
                rows.push(row(label.clone(), *policy));
            }
            let mut oracle_row = row("MF-DP (oracle)".into(), &oracle.policy);
            let oracle_drops = oracle_row.mean_drops;
            for r in &mut rows[group_start..] {
                r.gap_pct =
                    Some((r.mean_drops - oracle_drops) / oracle_drops.max(GAP_EPSILON) * 100.0);
            }
            oracle_row.gap_pct = Some(0.0);
            rows.push(oracle_row);
            sizes.push(SizeTrace { monte_carlo_ns: mc_ns, ..t });
        }
        Ok((rows, sizes, beta_ns, oracle_ns, oracle.sweeps))
    });
    let (rows, sizes, beta_ns, oracle_ns, oracle_sweeps) = result?;
    Ok(EvalTrace { rows, sizes, beta_ns, oracle_ns, oracle_sweeps, wall_ns })
}

/// Whether two eval tables hold the same rows, bit for bit.
pub fn rows_identical(a: &[EvalRow], b: &[EvalRow]) -> bool {
    let bits = |x: &EvalRow| {
        (
            x.policy.clone(),
            x.m,
            x.n,
            x.mean_drops.to_bits(),
            x.ci95.to_bits(),
            x.drop_fraction.to_bits(),
            x.gap_pct.map(f64::to_bits),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let (setup, setup_s) = repeated_setup(|| {
        let scenario = scenario()?;
        let ckpt = paper_checkpoint(&scenario, seed)?;
        Ok::<_, String>((scenario, ckpt))
    });
    r.set("setup_s", setup_s);
    let (scenario, ckpt) = match setup {
        Ok(s) => s,
        Err(e) => {
            r.check(false, || format!("eval set-up: {e}"));
            return r;
        }
    };
    let oracle = oracle_config();

    let mut samples = Samples::default();
    let mut reference: Option<Vec<EvalRow>> = None;
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    repeat_for(seconds, || {
        let (result, ns) = timed(|| {
            evaluate_checkpoint_configured(
                &ckpt,
                &scenario,
                &M_SWEEP,
                RUNS,
                seed,
                WORKERS,
                Some(&oracle),
                InferenceConfig::default(),
            )
        });
        let report = match result {
            Ok(report) => report,
            Err(e) => return r.check(false, || format!("evaluate_checkpoint_configured: {e}")),
        };
        let secs = ns as f64 * 1e-9;
        untraced_walls.push(secs);
        samples.push("throughput_per_s", M_SWEEP.len() as f64 / secs);
        check_rows(&mut r, &report.rows);
        let reference = reference.get_or_insert_with(|| report.rows.clone());
        r.check(rows_identical(reference, &report.rows), || {
            "eval rows differ between passes".into()
        });

        if trace {
            match traced_eval(&ckpt, &scenario, &M_SWEEP, RUNS, seed, WORKERS, &oracle) {
                Ok(t) => {
                    r.check(rows_identical(reference, &t.rows), || {
                        "traced eval rows differ from evaluate_checkpoint_configured".into()
                    });
                    traced_walls.push(t.wall_ns as f64 * 1e-9);
                    record_layers(&mut samples, &t, &ckpt, &scenario, &oracle);
                }
                Err(e) => r.check(false, || format!("traced eval: {e}")),
            }
        }
    });
    r.set_medians(&samples);
    if let Some(&tput) = r.values.get("throughput_per_s") {
        r.note(format!("eval.s_per_m = {:.4} s ({RUNS} runs, M in {M_SWEEP:?})", 1.0 / tput));
    }
    if trace {
        r.set("trace.overhead_frac", median(&traced_walls) / median(&untraced_walls) - 1.0);
    }
    r
}

/// Output checks of one eval table: five finite rows per size, and the
/// oracle row's gap exactly 0.
fn check_rows(r: &mut Report, rows: &[EvalRow]) {
    r.check(rows.len() == 5 * M_SWEEP.len(), || format!("eval produced {} rows", rows.len()));
    for row in rows {
        let finite = [row.mean_drops, row.ci95, row.drop_fraction]
            .into_iter()
            .chain(row.gap_pct)
            .all(f64::is_finite);
        r.check(finite && row.gap_pct.is_some(), || {
            format!("row {} at M={} is not finite: {row:?}", row.policy, row.m)
        });
        if row.policy == "MF-DP (oracle)" {
            r.check(row.gap_pct == Some(0.0), || {
                format!("oracle gap at M={} is {:?}, not 0", row.m, row.gap_pct)
            });
        }
    }
}

fn record_layers(
    samples: &mut Samples,
    t: &EvalTrace,
    ckpt: &TrainingCheckpoint,
    scenario: &Scenario,
    oracle: &OracleConfig,
) {
    // The value-iteration precompute alone: a solve capped at 0 sweeps,
    // timed outside the traced wall.
    let precompute = oracle_mdp_config(scenario).map(|config| {
        let library = ActionLibrary::softmin_default(config.num_states(), config.d);
        let dp = DpConfig {
            grid_resolution: oracle.grid_resolution,
            tol: oracle.tol,
            max_sweeps: 0,
            threads: oracle.threads,
        };
        timed(|| DpSolution::solve(&config, library, &dp))
    });
    let mut sweep_ns = 0.0;
    if let Ok((sol, precompute_ns)) = precompute {
        let entries = sol.grid().num_points() * sol.num_levels() * sol.actions().len();
        sweep_ns = t.oracle_ns.saturating_sub(precompute_ns) as f64;
        samples.push("dp.precompute.ns", precompute_ns as f64);
        samples.push("dp.precompute.entries", entries as f64);
        samples.push("dp.sweep.ns", sweep_ns);
        samples.push("dp.sweeps_per_s", t.oracle_sweeps as f64 / (sweep_ns * 1e-9));
    }
    samples.push("dp.sweep.count", t.oracle_sweeps as f64);
    samples.push("policy.optimize_beta.ns", t.beta_ns as f64);

    let (mut calls, mut rows, mut busy, mut mc) = (0, 0, 0, 0);
    for s in &t.sizes {
        let (decide, step, observe) = match s.m {
            100 => (
                "policy.decide_batch.ns.M100",
                "sim.aggregate.step.ns.M100",
                "sim.aggregate.observe.ns.M100",
            ),
            1000 => (
                "policy.decide_batch.ns.M1000",
                "sim.aggregate.step.ns.M1000",
                "sim.aggregate.observe.ns.M1000",
            ),
            _ => continue,
        };
        samples.push(decide, s.decide.ns() as f64);
        samples.push(step, s.step.ns() as f64);
        samples.push(observe, s.observe.ns() as f64);
        calls += s.decide.calls();
        rows += s.decide.rows();
        busy += s.decide.ns() + s.step.ns() + s.observe.ns();
        mc += s.monte_carlo_ns;
    }
    samples.push("policy.decide_batch.calls", calls as f64);
    samples.push("policy.decide_batch.rows_per_call", rows as f64 / calls.max(1) as f64);
    samples.push("sim.monte_carlo.ns", mc as f64);
    samples.push("sim.monte_carlo.busy_frac", busy as f64 / (mc as f64 * WORKERS as f64));

    let net = &ckpt.policy_net;
    let mut sizes = vec![net.input_dim()];
    sizes.extend(&ckpt.ppo.hidden);
    sizes.push(net.output_dim());
    samples.push("nn.decide.flops_per_row", 2.0 * weights(&sizes));
    samples.push("nn.decide.weight_bytes_per_call", (net.num_params() * 8) as f64);

    let spans = (t.oracle_ns + t.beta_ns + mc) as f64;
    samples.push("trace.span_coverage", spans / t.wall_ns as f64);
    // `dp.sweep.ns` is a residual: the oracle solve less the separately
    // timed precompute.
    samples.push("trace.residual_frac", sweep_ns / t.wall_ns as f64);
}
