//! `mflb` — command-line front end for the mean-field load-balancing
//! library.
//!
//! ```text
//! mflb train --scenario spec.json --scale quick    # PPO -> versioned checkpoint
//! mflb eval --checkpoint ckpt.json --m 50,100      # vs JSQ/RND/softmin, JSON table
//! mflb eval --checkpoint ckpt.json --oracle        # + exact-DP optimality-gap column
//! mflb distill --checkpoint ckpt.json              # NN -> tabular lattice policy
//! mflb simulate --dt 5 --m 100 --policy jsq        # finite-system episode
//! mflb meanfield --dt 5 --policy softmin --beta 2  # limiting-model episode
//! mflb compare --dt 5 --m 100                      # JSQ vs RND vs softmin
//! mflb tune-beta --dt 5                            # optimal softmin(β*)
//! mflb dp-solve --dt 5 --grid 8 --out dp.json      # certified lattice optimum
//! mflb scv-compare --dt 5 --scv 4                  # phase-type service check
//! mflb bench --quick --workers 1                   # tracked perf suite -> BENCH_kernels.json
//! mflb serve --checkpoint ckpt.json --duration 50  # online dispatcher: job stream -> metrics
//! ```
//!
//! The heavy experiment pipeline lives in `mflb-bench` (one binary per
//! paper artifact); this CLI is the interactive, single-command surface a
//! downstream operator uses to train, evaluate and poke at a
//! configuration. Invoking `mflb` with no subcommand or an unknown one
//! prints the usage synopsis and exits with status 2.

use mflb::core::mdp::{FixedRulePolicy, UpperPolicy};
use mflb::core::{MeanFieldMdp, SystemConfig};
use mflb::policy::{
    jsq_rule, optimize_beta, rnd_rule, softmin_rule, InferenceConfig, NeuralUpperPolicy, TanhMode,
};
use mflb::rl::{
    distill_checkpoint, evaluate_checkpoint_configured, oracle_feasibility, train_scenario,
    DistillConfig, DistilledCheckpoint, OracleConfig, PpoConfig, TrainingCheckpoint,
};
use mflb::sim::{monte_carlo, AggregateEngine, EngineSpec, Scenario, ServiceLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

fn parse<T: std::str::FromStr>(flag: &str, default: T) -> T {
    arg(flag).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `true` iff a valueless flag (e.g. `--quick`) is present.
fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Worker-thread count for parallel fan-outs: `--workers` (the documented
/// spelling, so CI perf runs pin their core count) with `--threads` kept
/// as an alias.
fn workers_flag(default: usize) -> usize {
    parse("--workers", parse("--threads", default))
}

/// Shared `--precision f64|f32` / `--fast-math` parser: the neural
/// inference tier, spelled identically across eval / simulate / serve /
/// bench. `f64` (the default) is bit-compatible with training; `f32`
/// converts the network weights once at load; `--fast-math` swaps libm
/// tanh for the vectorizable rational approximation. Unknown values are
/// usage errors (exit 2). Rule-table tiers (jsq/rnd/softmin/distilled)
/// ignore the result.
fn inference_flags() -> InferenceConfig {
    let f32_weights = match arg("--precision").as_deref() {
        None | Some("f64") => false,
        Some("f32") => true,
        Some(other) => fail_usage(format!("unknown --precision '{other}' (f64|f32)")),
    };
    let tanh_mode = if has_flag("--fast-math") { TanhMode::Fast } else { TanhMode::BitCompat };
    InferenceConfig { tanh_mode, f32_weights }
}

/// Prints an error and exits with status 1 (runtime failure; status 2 is
/// reserved for usage errors).
fn fail(msg: impl AsRef<str>) -> ! {
    eprintln!("error: {}", msg.as_ref());
    std::process::exit(1);
}

/// Prints an error and exits with status 2 (usage error: the request
/// itself is malformed or infeasible, not a runtime failure).
fn fail_usage(msg: impl AsRef<str>) -> ! {
    eprintln!("error: {}", msg.as_ref());
    std::process::exit(2);
}

/// `--oracle-cache <dir>` with a `target/oracle` default; the literal
/// value `none` disables checkpoint caching.
fn oracle_cache_dir() -> Option<std::path::PathBuf> {
    match arg("--oracle-cache").as_deref() {
        Some("none") => None,
        Some(dir) => Some(std::path::PathBuf::from(dir)),
        None => Some(std::path::PathBuf::from("target/oracle")),
    }
}

/// Assembles the oracle solve configuration from `--oracle-grid`,
/// `--oracle-sweeps`, `--oracle-cache` and the worker flags.
fn oracle_config_from_flags() -> OracleConfig {
    OracleConfig {
        grid_resolution: parse("--oracle-grid", 8),
        max_sweeps: parse("--oracle-sweeps", 4_000),
        threads: workers_flag(0),
        cache_dir: oracle_cache_dir(),
        ..OracleConfig::default()
    }
}

fn build_config() -> SystemConfig {
    let dt: f64 = parse("--dt", 5.0);
    let m: usize = parse("--m", 100);
    let n: u64 = parse("--n", (m as u64) * (m as u64));
    let b: usize = parse("--buffer", 5);
    let d: usize = parse("--d", 2);
    SystemConfig::paper().with_dt(dt).with_buffer(b).with_d(d).with_size(n, m)
}

/// Resolves the scenario: `--scenario <file>` wins; otherwise one is built
/// from `--engine` plus the common flags.
fn build_scenario() -> Scenario {
    if let Some(path) = arg("--scenario") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        let scenario =
            Scenario::from_json(&text).unwrap_or_else(|e| fail(format!("parse {path}: {e}")));
        if let Err(e) = scenario.validate() {
            fail(format!("invalid scenario {path}: {e}"));
        }
        return scenario;
    }
    let config = build_config();
    let engine = match arg("--engine").as_deref().unwrap_or("aggregate") {
        "aggregate" => EngineSpec::Aggregate,
        "perclient" => EngineSpec::PerClient,
        "staggered" => EngineSpec::Staggered { cohorts: parse("--cohorts", 4) },
        "ph" => {
            EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv: parse("--scv", 2.0) } }
        }
        "joblevel" => EngineSpec::JobLevel,
        "graph" => EngineSpec::Graph { topology: build_topology(), shard_size: None },
        "event" => EngineSpec::Event { job_size: build_job_size() },
        other => fail(format!(
            "unknown --engine '{other}' (aggregate|perclient|staggered|ph|joblevel|graph|event; \
             heterogeneous pools need a --scenario file)"
        )),
    };
    Scenario::new(config, engine)
}

/// Applies `--faults <plan.json>` to a resolved scenario. A malformed or
/// incompatible plan is a usage error (exit 2) caught before any
/// simulation work; the flag overrides a scenario-embedded plan.
fn apply_faults_flag(scenario: Scenario) -> Scenario {
    let Some(path) = arg("--faults") else { return scenario };
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail_usage(format!("{path}: {e}")));
    let plan = mflb::core::FaultPlan::from_json(&text)
        .unwrap_or_else(|e| fail_usage(format!("parse {path}: {e}")));
    let faulted = scenario.with_faults(plan);
    if let Err(e) = faulted.validate() {
        fail_usage(format!("fault plan {path}: {e}"));
    }
    faulted
}

/// Resolves `--topology` plus its parameters for `--engine graph`.
fn build_topology() -> mflb::core::Topology {
    use mflb::core::Topology;
    match arg("--topology").as_deref().unwrap_or("ring") {
        "ring" => Topology::Ring { radius: parse("--radius", 1) },
        "torus" => Topology::Torus { radius: parse("--radius", 1) },
        "random" => {
            Topology::RandomRegular { degree: parse("--degree", 4), seed: parse("--graph-seed", 1) }
        }
        "full" => Topology::FullMesh,
        other => fail(format!(
            "unknown --topology '{other}' (ring|torus|random|full; \
             richer graphs need a --scenario file)"
        )),
    }
}

/// Resolves `--job-size` plus its parameters for `--engine event`.
fn build_job_size() -> mflb::core::JobSizeLaw {
    use mflb::core::JobSizeLaw;
    match arg("--job-size").as_deref().unwrap_or("exp") {
        "exp" => JobSizeLaw::Exponential { rate: parse("--job-rate", 1.0) },
        "pareto" => JobSizeLaw::Pareto {
            shape: parse("--job-shape", 2.0),
            scale: parse("--job-scale", 0.5),
        },
        "bpareto" => JobSizeLaw::BoundedPareto {
            shape: parse("--job-shape", 1.5),
            lo: parse("--job-lo", 0.2),
            hi: parse("--job-hi", 20.0),
        },
        other => fail(format!(
            "unknown --job-size '{other}' (exp|pareto|bpareto; richer laws need a --scenario file)"
        )),
    }
}

/// Builds the `--policy` selection for a scenario. Rule-based baselines
/// are lifted to the composite `(length, class)` space on heterogeneous
/// pools; checkpoints are strictly validated against the scenario's shape.
fn build_policy_for(scenario: &Scenario) -> Box<dyn UpperPolicy + Sync + Send> {
    let name = arg("--policy").unwrap_or_else(|| "jsq".into());
    // Parsed unconditionally so a typo'd --precision exits 2 on every tier.
    let inference = inference_flags();
    let config = &scenario.config;
    let zs = config.num_states();
    let classes = match &scenario.engine {
        EngineSpec::Hetero { rates } => mflb::rl::hetero_classes(rates).1.len(),
        _ => 1,
    };
    let lift = |rule: mflb::core::DecisionRule| {
        if classes > 1 {
            mflb::policy::lift_to_composite(&rule, zs, classes)
        } else {
            rule
        }
    };
    match name.as_str() {
        "jsq" => Box::new(FixedRulePolicy::new(lift(jsq_rule(zs, config.d)), "JSQ(d)")),
        "rnd" => Box::new(FixedRulePolicy::new(lift(rnd_rule(zs, config.d)), "RND")),
        "softmin" => {
            let beta: f64 = parse("--beta", 1.0);
            Box::new(FixedRulePolicy::new(
                lift(softmin_rule(zs, config.d, beta)),
                format!("SOFT({beta})"),
            ))
        }
        "checkpoint" => {
            let path = arg("--checkpoint").unwrap_or_else(|| {
                fail("--policy checkpoint needs --checkpoint <path>");
            });
            // Versioned training checkpoints first, legacy format second.
            match TrainingCheckpoint::load(&path) {
                Ok(ckpt) => {
                    ckpt.validate_for(scenario).unwrap_or_else(|e| {
                        fail(format!("{path} does not fit this scenario: {e}"))
                    });
                    Box::new(
                        ckpt.into_policy()
                            .unwrap_or_else(|e| fail(format!("{path}: {e}")))
                            .with_inference(inference),
                    )
                }
                Err(versioned_err) => match NeuralUpperPolicy::load(&path) {
                    Ok(p) => {
                        // Legacy checkpoints carry no scenario; validate
                        // their network dims against this scenario's shape
                        // so a mismatch fails here, not inside an engine.
                        let shape = mflb::rl::PolicyShape::for_scenario(scenario);
                        if p.net().input_dim() != shape.obs_dim()
                            || p.net().output_dim() != shape.act_dim()
                        {
                            fail(format!(
                                "{path} does not fit this scenario: legacy checkpoint \
                                 network is {} -> {}, scenario needs {} -> {}",
                                p.net().input_dim(),
                                p.net().output_dim(),
                                shape.obs_dim(),
                                shape.act_dim()
                            ));
                        }
                        Box::new(p.with_inference(inference))
                    }
                    Err(legacy_err) => {
                        fail(format!("load {path}: {versioned_err} (legacy format: {legacy_err})"))
                    }
                },
            }
        }
        "distilled" => {
            let path = arg("--checkpoint").unwrap_or_else(|| {
                fail("--policy distilled needs --checkpoint <path>");
            });
            let table = DistilledCheckpoint::load(&path).unwrap_or_else(|e| fail(e));
            table
                .validate_for(scenario)
                .unwrap_or_else(|e| fail(format!("{path} does not fit this scenario: {e}")));
            Box::new(table.into_policy().unwrap_or_else(|e| fail(format!("{path}: {e}"))))
        }
        other => {
            eprintln!("unknown policy '{other}' (jsq|rnd|softmin|checkpoint|distilled)");
            std::process::exit(2);
        }
    }
}

/// Homogeneous-model variant of [`build_policy_for`] (the limiting-model
/// subcommands have no engine spec).
fn build_policy(config: &SystemConfig) -> Box<dyn UpperPolicy + Sync + Send> {
    build_policy_for(&Scenario::new(config.clone(), EngineSpec::Aggregate))
}

/// The CLI's PPO presets. `quick` is sized so `mflb train --scale quick`
/// finishes in minutes on a laptop core while still clearing the RND
/// baseline; `paper` is Table 2 verbatim.
fn ppo_for_scale(scale: &str, threads: usize) -> (PpoConfig, usize) {
    let (mut ppo, iters) = match scale {
        "paper" | "full" => (PpoConfig::paper(), 6250),
        "quick" => (
            PpoConfig {
                gamma: 0.9,
                gae_lambda: 0.9,
                lr: 1e-3,
                train_batch_size: 2000,
                minibatch_size: 250,
                num_epochs: 10,
                kl_target: 0.02,
                hidden: vec![32, 32],
                initial_log_std: -0.5,
                ..PpoConfig::paper()
            },
            60,
        ),
        other => {
            eprintln!("error: unknown --scale value `{other}` (expected quick|paper)");
            std::process::exit(2);
        }
    };
    ppo.rollout_threads = threads.max(1);
    (ppo, iters)
}

fn cmd_train() {
    let scenario = apply_faults_flag(build_scenario());
    let scale = arg("--scale").unwrap_or_else(|| "quick".into());
    let threads: usize = workers_flag(1);
    let seed: u64 = parse("--seed", 1);
    let (ppo, default_iters) = ppo_for_scale(&scale, threads);
    let iters: usize = parse("--iters", default_iters);
    let out = arg("--out").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::PathBuf::from(format!(
            "target/checkpoints/mf_{}_dt{}.json",
            engine_slug(&scenario.engine),
            scenario.config.dt
        ))
    });
    let curve_path = arg("--curve").map(std::path::PathBuf::from).unwrap_or_else(|| {
        let mut p = out.clone();
        p.set_extension("curve.json");
        p
    });

    println!(
        "training: engine={} Δt={} B={} d={} T={} scale={scale} iters={iters} seed={seed}",
        engine_slug(&scenario.engine),
        scenario.config.dt,
        scenario.config.buffer,
        scenario.config.d,
        scenario.config.train_episode_len,
    );
    let t0 = std::time::Instant::now();
    let result = train_scenario(&scenario, ppo, iters, seed, true).unwrap_or_else(|e| fail(e));
    println!(
        "trained {} steps in {:.1}s",
        result.checkpoint.total_steps,
        t0.elapsed().as_secs_f64()
    );

    result.checkpoint.save(&out).unwrap_or_else(|e| fail(e));
    println!(
        "checkpoint (format v{}) written to {}",
        result.checkpoint.format_version,
        out.display()
    );
    let curve_json = serde_json::to_string_pretty(&result.checkpoint.curve)
        .expect("curve serialization cannot fail");
    if let Some(parent) = curve_path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&curve_path, curve_json).unwrap_or_else(|e| fail(format!("write curve: {e}")));
    println!("training curve written to {}", curve_path.display());
    println!("next: mflb eval --checkpoint {}", out.display());
}

fn engine_slug(spec: &EngineSpec) -> &'static str {
    match spec {
        EngineSpec::PerClient => "perclient",
        EngineSpec::Aggregate => "aggregate",
        EngineSpec::Hetero { .. } => "hetero",
        EngineSpec::Staggered { .. } => "staggered",
        EngineSpec::Ph { .. } => "ph",
        EngineSpec::JobLevel => "joblevel",
        EngineSpec::Graph { .. } => "graph",
        EngineSpec::Event { .. } => "event",
    }
}

fn cmd_eval() {
    let path = arg("--checkpoint").unwrap_or_else(|| fail("eval needs --checkpoint <path>"));
    let ckpt = TrainingCheckpoint::load(&path).unwrap_or_else(|e| fail(e));
    let scenario = apply_faults_flag(match arg("--scenario") {
        Some(p) => {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| fail(format!("{p}: {e}")));
            Scenario::from_json(&text).unwrap_or_else(|e| fail(format!("parse {p}: {e}")))
        }
        None => ckpt.scenario.clone(),
    });
    let m_sweep: Vec<usize> = arg("--m")
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse().unwrap_or_else(|_| fail(format!("bad --m entry '{t}'"))))
                .collect()
        })
        .unwrap_or_default();
    let runs: usize = parse("--runs", 20);
    let seed: u64 = parse("--seed", 1);
    let threads: usize = workers_flag(0);
    let inference = inference_flags();
    let max_gap: Option<f64> = arg("--max-gap")
        .map(|v| v.parse().unwrap_or_else(|_| fail_usage(format!("bad --max-gap value '{v}'"))));

    // `--max-gap` is meaningless without an oracle, so it implies one.
    let oracle = if has_flag("--oracle") || max_gap.is_some() {
        let cfg = oracle_config_from_flags();
        // Pre-flight: unsupported engines and oversized lattices are
        // usage errors (exit 2) caught before minutes of value iteration.
        if let Err(e) = oracle_feasibility(&scenario, &cfg) {
            fail_usage(e);
        }
        Some(cfg)
    } else {
        None
    };

    let report = evaluate_checkpoint_configured(
        &ckpt,
        &scenario,
        &m_sweep,
        runs,
        seed,
        threads,
        oracle.as_ref(),
        inference,
    )
    .unwrap_or_else(|e| fail(e));
    println!(
        "eval: engine={} Δt={} Te={} ({} runs each, seed {seed}{})",
        engine_slug(&scenario.engine),
        scenario.config.dt,
        report.horizon,
        report.runs,
        if inference.is_bit_compat() {
            String::new()
        } else {
            format!(", inference {}", inference.label())
        },
    );
    let with_gap = report.oracle.is_some();
    if with_gap {
        println!(
            "{:<16} {:>6} {:>10} {:>14} {:>10} {:>10} {:>9}",
            "policy", "M", "N", "drops/queue", "±95%", "drop frac", "gap %"
        );
    } else {
        println!(
            "{:<16} {:>6} {:>10} {:>14} {:>10} {:>10}",
            "policy", "M", "N", "drops/queue", "±95%", "drop frac"
        );
    }
    for row in &report.rows {
        if with_gap {
            println!(
                "{:<16} {:>6} {:>10} {:>14.3} {:>10.3} {:>10.4} {:>9}",
                row.policy,
                row.m,
                row.n,
                row.mean_drops,
                row.ci95,
                row.drop_fraction,
                row.gap_pct.map_or("-".into(), |g| format!("{g:+.2}")),
            );
        } else {
            println!(
                "{:<16} {:>6} {:>10} {:>14.3} {:>10.3} {:>10.4}",
                row.policy, row.m, row.n, row.mean_drops, row.ci95, row.drop_fraction
            );
        }
    }
    if let Some(o) = &report.oracle {
        println!(
            "oracle: G={} lattice, {} sweeps, residual {:.2e}, {}{}",
            o.grid_resolution,
            o.sweeps,
            o.residual,
            if o.cache_hit { "cache hit, " } else { "" },
            if o.exact {
                "exact certificate".to_string()
            } else {
                format!("reference ({})", o.note)
            },
        );
    }
    let learned = report.mean_drops_of("MF (learned)");
    let rnd = report.rows.iter().find(|r| r.policy == "RND").map(|r| r.mean_drops);
    if let (Some(l), Some(r)) = (learned, rnd) {
        if l < r {
            println!("[check] learned policy beats RND ({l:.3} < {r:.3} drops/queue)");
        } else {
            println!("[check] WARNING: learned policy does not beat RND ({l:.3} >= {r:.3})");
        }
    }
    let out = arg("--out").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::PathBuf::from(format!(
            "target/experiments/eval_{}_dt{}.json",
            engine_slug(&scenario.engine),
            scenario.config.dt
        ))
    });
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| fail(format!("write report: {e}")));
    println!("JSON table written to {}", out.display());

    // Regression gate (the bench-diff pattern): the worst learned-policy
    // gap across the sweep must stay under --max-gap percent.
    if let Some(cap) = max_gap {
        let worst = report
            .rows
            .iter()
            .filter(|r| r.policy == "MF (learned)")
            .filter_map(|r| r.gap_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        if worst.is_finite() && worst <= cap {
            println!("[gate] learned optimality gap {worst:+.2}% within --max-gap {cap}%");
        } else {
            eprintln!(
                "error: learned optimality gap {worst:+.2}% exceeds the --max-gap {cap}% gate"
            );
            std::process::exit(1);
        }
    }
}

/// `mflb distill`: project a trained checkpoint onto a tabular lattice
/// policy (greedy-match against the softmin library + DP-polish sweep)
/// and write the versioned [`DistilledCheckpoint`] artifact.
fn cmd_distill() {
    let path = arg("--checkpoint").unwrap_or_else(|| fail("distill needs --checkpoint <path>"));
    let ckpt = TrainingCheckpoint::load(&path).unwrap_or_else(|e| fail(e));
    let scenario = match arg("--scenario") {
        Some(p) => {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| fail(format!("{p}: {e}")));
            Scenario::from_json(&text).unwrap_or_else(|e| fail(format!("parse {p}: {e}")))
        }
        None => ckpt.scenario.clone(),
    };
    let mut oracle = oracle_config_from_flags();
    // `--grid` is the natural spelling here (mirrors dp-solve);
    // --oracle-grid stays as the shared alias.
    oracle.grid_resolution = parse("--grid", oracle.grid_resolution);
    if let Err(e) = oracle_feasibility(&scenario, &oracle) {
        fail_usage(e);
    }
    let config = DistillConfig { oracle, polish_slack: parse("--slack", 0.005) };

    let t0 = std::time::Instant::now();
    let result = distill_checkpoint(&ckpt, &scenario, &config).unwrap_or_else(|e| fail(e));
    let table = &result.checkpoint;
    println!(
        "distilled {} lattice entries (G={}, {} levels, {} actions) in {:.1}s: \
         {:.0}% network-matched, {:.0}% oracle-corrected (slack {})",
        table.table.len(),
        table.grid_resolution,
        table.scenario.config.arrivals.num_levels(),
        table.action_names.len(),
        t0.elapsed().as_secs_f64(),
        table.nn_fraction * 100.0,
        (1.0 - table.nn_fraction) * 100.0,
        table.polish_slack,
    );
    if !result.oracle.exactness.is_exact() {
        println!("note: {}", result.oracle.exactness.note());
    }

    let out = arg("--out").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::PathBuf::from(format!(
            "target/checkpoints/distilled_{}_dt{}.json",
            engine_slug(&scenario.engine),
            scenario.config.dt
        ))
    });
    table.save(&out).unwrap_or_else(|e| fail(e));
    println!(
        "distilled checkpoint (format v{}) written to {}",
        table.format_version,
        out.display()
    );

    // Deployment check: the table vs its source network in the scenario's
    // finite system (skippable with --runs 0).
    let runs: usize = parse("--runs", 8);
    if runs > 0 {
        let seed: u64 = parse("--seed", 1);
        let engine = scenario.build().unwrap_or_else(|e| fail(e.to_string()));
        let horizon = scenario.config.eval_episode_len();
        let nn = ckpt.into_policy().unwrap_or_else(|e| fail(e));
        let tabular = table.into_policy().unwrap_or_else(|e| fail(e));
        let mc_nn = monte_carlo(&engine, &nn, horizon, runs, seed, workers_flag(0));
        let mc_tab = monte_carlo(&engine, &tabular, horizon, runs, seed, workers_flag(0));
        println!(
            "finite-system check (M={}, {runs} runs): network {:.3} ± {:.3}, \
             table {:.3} ± {:.3} drops/queue",
            scenario.config.num_queues,
            mc_nn.mean(),
            mc_nn.ci95(),
            mc_tab.mean(),
            mc_tab.ci95(),
        );
    }
    println!("deploy it via --policy distilled --checkpoint {}", out.display());
}

fn cmd_simulate() {
    let scenario = apply_faults_flag(build_scenario());
    if let Some(path) = arg("--record-trace") {
        record_trace(&scenario, &path);
        return;
    }
    let config = scenario.config.clone();
    let policy = build_policy_for(&scenario);
    let runs: usize = parse("--runs", 20);
    let seed: u64 = parse("--seed", 1);
    let horizon = config.eval_episode_len();
    let workers = workers_flag(0);
    // Engine-internal workers (the sharded graph engine's shard fan-out;
    // never affects results) vs the Monte-Carlo run fan-out: a single
    // sharded run parallelizes inside the epoch, so keep the run pool
    // sequential when the engine itself goes wide.
    let engine = scenario.build().unwrap_or_else(|e| fail(e.to_string())).with_workers(workers);
    let mc = monte_carlo(&engine, policy.as_ref(), horizon, runs, seed, 0);
    println!(
        "finite system engine={} N={} M={} Δt={} Te={horizon} policy={}",
        engine_slug(&scenario.engine),
        config.num_clients,
        config.num_queues,
        config.dt,
        policy.name()
    );
    println!("drops/queue over episode: {:.3} ± {:.3} ({} runs)", mc.mean(), mc.ci95(), runs);
}

/// `mflb simulate --record-trace <out.jsonl>`: run the synthetic serve
/// loop once and dump every job the engine consumed — in the serve trace
/// schema, in dispatch order — so `mflb serve --trace <out.jsonl>` at the
/// same seed and duration replays the run bit for bit.
fn record_trace(scenario: &Scenario, out: &str) {
    use mflb::sim::{serve_with, EventEngine, JobSource, ServeOptions};
    let EngineSpec::Event { job_size } = &scenario.engine else {
        fail_usage("--record-trace needs an event-engine scenario (--engine event)");
    };
    let seed: u64 = parse("--seed", 1);
    let duration: f64 = parse("--duration", scenario.config.eval_time);
    if !(duration > 0.0 && duration.is_finite()) {
        fail_usage(format!("--duration must be positive and finite, got {duration}"));
    }
    let mut engine = EventEngine::new(scenario.config.clone(), job_size.clone());
    if let Some(plan) = &scenario.faults {
        engine = engine.with_faults(plan.clone());
    }
    let policy = build_policy_for(scenario);
    let opts = ServeOptions { duration: Some(duration), seed, ..Default::default() };
    let mut jobs = Vec::new();
    let report = serve_with(
        &engine,
        policy.as_ref(),
        policy.name(),
        None,
        &JobSource::Synthetic,
        &opts,
        Some(&mut jobs),
        |_| {},
    )
    .unwrap_or_else(|e| fail(e.to_string()));
    let mut text = String::with_capacity(jobs.len() * 32);
    for job in &jobs {
        text.push_str(&job.to_jsonl());
        text.push('\n');
    }
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(out, text).unwrap_or_else(|e| fail(format!("write {out}: {e}")));
    println!(
        "recorded {} jobs over {:.1} time units to {out} (seed {seed}); replay with: \
         mflb serve --trace {out} --seed {seed} --duration {duration}",
        jobs.len(),
        report.sim_time,
    );
}

fn cmd_meanfield() {
    let config = build_config();
    let policy = build_policy(&config);
    let episodes: usize = parse("--episodes", 100);
    let seed: u64 = parse("--seed", 1);
    let horizon = config.eval_episode_len();
    let mdp = MeanFieldMdp::new(config.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let eval = mdp.evaluate(policy.as_ref(), horizon, episodes, &mut rng);
    println!("mean-field model Δt={} Te={horizon} policy={}", config.dt, policy.name());
    println!(
        "expected drops/queue over episode: {:.3} ± {:.3} ({episodes} episodes)",
        -eval.mean(),
        eval.ci95_half_width()
    );
}

fn cmd_compare() {
    let config = build_config();
    let runs: usize = parse("--runs", 20);
    let seed: u64 = parse("--seed", 1);
    let horizon = config.eval_episode_len();
    let engine = AggregateEngine::new(config.clone());
    let zs = config.num_states();
    println!(
        "N={} M={} Δt={} Te={horizon} ({} runs each)",
        config.num_clients, config.num_queues, config.dt, runs
    );
    let beta = optimize_beta(&config, horizon.min(100), 6, seed).beta;
    let policies: Vec<(String, Box<dyn UpperPolicy + Sync + Send>)> = vec![
        ("JSQ(2)".into(), Box::new(FixedRulePolicy::new(jsq_rule(zs, config.d), "JSQ"))),
        ("RND".into(), Box::new(FixedRulePolicy::new(rnd_rule(zs, config.d), "RND"))),
        (
            format!("SOFT(β*={beta:.2})"),
            Box::new(FixedRulePolicy::new(softmin_rule(zs, config.d, beta), "SOFT")),
        ),
    ];
    for (name, p) in &policies {
        let mc = monte_carlo(&engine, p.as_ref(), horizon, runs, seed, 0);
        println!("  {name:<16} {:8.3} ± {:.3}", mc.mean(), mc.ci95());
    }
}

fn cmd_tune_beta() {
    let config = build_config();
    let seed: u64 = parse("--seed", 1);
    let horizon = config.eval_episode_len().min(150);
    let res = optimize_beta(&config, horizon, 10, seed);
    println!("Δt={}: β* = {:.3}  (mean-field return {:.3})", config.dt, res.beta, res.value);
    println!("trace (β → return):");
    let mut trace = res.trace.clone();
    trace.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for (b, v) in trace.iter().take(24) {
        println!("  {b:>8.3} -> {v:>9.3}");
    }
}

fn cmd_dp_solve() {
    use mflb::dp::{ActionLibrary, DpConfig, DpSolution};
    let config = build_config();
    let grid: usize = parse("--grid", 8);
    let zs = config.num_states();
    let t0 = std::time::Instant::now();
    let dp_cfg = DpConfig { grid_resolution: grid, tol: 1e-6, max_sweeps: 4000, threads: 0 };
    let sol = DpSolution::solve(&config, ActionLibrary::softmin_default(zs, config.d), &dp_cfg);
    println!(
        "solved Δt={} B={} on a G={grid} lattice ({} states x {} levels): {} sweeps, {:.1}s",
        config.dt,
        config.buffer,
        sol.grid().num_points(),
        config.arrivals.num_levels(),
        sol.sweeps,
        t0.elapsed().as_secs_f64()
    );
    let nu0 = mflb::core::StateDist::all_empty(config.buffer);
    for l in 0..config.arrivals.num_levels() {
        println!(
            "  V(ν₀, λ-level {l}) = {:.3}, greedy action: {}",
            sol.value(&nu0, l),
            sol.actions().name(sol.greedy_action(&nu0, l))
        );
    }
    if let Some(path) = arg("--out") {
        sol.save_json(&path).unwrap_or_else(|e| fail(e.to_string()));
        println!("checkpoint written to {path}");
    }

    // Quick deployment check against the baselines in the limiting model.
    let mdp = MeanFieldMdp::new(config.clone());
    let horizon = config.eval_episode_len().min(120);
    let mut rng = StdRng::seed_from_u64(parse("--seed", 1));
    let policy = sol.into_policy();
    let v_dp = mdp.evaluate(&policy, horizon, 24, &mut rng).mean();
    let jsq = FixedRulePolicy::new(jsq_rule(config.num_states(), config.d), "JSQ");
    let v_jsq = mdp.evaluate(&jsq, horizon, 24, &mut rng).mean();
    println!("mean-field return over {horizon} epochs: DP {v_dp:.2} vs JSQ(d) {v_jsq:.2}");
}

fn cmd_scv_compare() {
    use mflb::core::PhMeanFieldMdp;
    use mflb::queue::PhaseType;
    use mflb::sim::{monte_carlo, PhAggregateEngine};
    let config = build_config();
    let scv: f64 = parse("--scv", 2.0);
    let runs: usize = parse("--runs", 16);
    let seed: u64 = parse("--seed", 1);
    let horizon = config.eval_episode_len();
    let service = PhaseType::fit_mean_scv(1.0 / config.service_rate, scv);
    println!(
        "service: mean {:.3}, SCV {:.3}, {} phases (two-moment PH fit)",
        service.mean(),
        service.scv(),
        service.num_phases()
    );
    let policy = build_policy(&config);

    let mdp = PhMeanFieldMdp::new(config.clone(), service.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mf = mflb::linalg::stats::Summary::new();
    for _ in 0..24 {
        mf.push(-mdp.rollout(policy.as_ref(), horizon, &mut rng).total_return);
    }
    let engine = PhAggregateEngine::new(config.clone(), service);
    let fin = monte_carlo(&engine, policy.as_ref(), horizon, runs, seed, 0).drops;
    println!(
        "policy {} at Δt={} Te={horizon}: mean-field drops {:.3} ± {:.3}, finite (M={}) {:.3} ± {:.3}",
        policy.name(),
        config.dt,
        mf.mean(),
        mf.ci95_half_width(),
        config.num_queues,
        fin.mean(),
        fin.ci95_half_width()
    );
}

/// `mflb serve`: stand up the continuous-time event engine as an online
/// dispatcher — load a policy, ingest jobs from a synthetic Poisson/MMPP
/// generator or a replayed JSONL trace, route each under
/// sampled-and-delayed observations and emit metrics.
///
/// Stdout is machine-readable: one JSON line per reporting interval
/// (`ServeTick`) followed by the final `ServeReport` as the last line;
/// human narration goes to stderr. Every malformed request — unknown
/// policy tier, missing or unloadable checkpoint, bad numeric flag,
/// malformed trace line — exits 2 *before* any simulation work starts;
/// a bad line of a trace streamed from stdin exits 2 when it is reached;
/// runtime failures exit 1.
fn cmd_serve() {
    use mflb::core::{FaultPlan, JobSizeLaw};
    use mflb::sim::{
        parse_trace, serve_with, EventEngine, JobSource, LineTraceReader, ServeError, ServeOptions,
    };
    use std::cell::RefCell;

    // Strict flag parsing: serve is the deployment surface, so a typo'd
    // value must die with exit 2 instead of silently running a default.
    fn strict<T: std::str::FromStr>(flag: &str) -> Option<T> {
        arg(flag)
            .map(|v| v.parse().unwrap_or_else(|_| fail_usage(format!("bad {flag} value '{v}'"))))
    }

    // With a --checkpoint but no explicit tier, serving the checkpoint is
    // what the caller meant — defaulting to jsq would silently ignore it.
    let ckpt_path = arg("--checkpoint");
    let default_tier = if ckpt_path.is_some() { "checkpoint" } else { "jsq" };
    let policy_name = arg("--policy").unwrap_or_else(|| default_tier.into());
    if !matches!(policy_name.as_str(), "jsq" | "rnd" | "softmin" | "checkpoint" | "distilled") {
        fail_usage(format!(
            "unknown --policy '{policy_name}' (jsq|rnd|softmin|checkpoint|distilled)"
        ));
    }
    let inference = inference_flags();
    let max_jobs: Option<u64> = strict("--max-jobs");
    if max_jobs == Some(0) {
        fail_usage("--max-jobs must be at least 1");
    }
    let duration: Option<f64> = strict("--duration");
    if let Some(t) = duration {
        if !t.is_finite() || t <= 0.0 {
            fail_usage(format!("--duration must be positive and finite, got {t}"));
        }
    }
    let report_every: usize = strict("--report-every").unwrap_or(10);
    if report_every == 0 {
        fail_usage("--report-every must be at least 1");
    }
    let seed: u64 = strict("--seed").unwrap_or(1);

    // Graceful-degradation knobs: bounded admission plus the staleness
    // watchdog (which needs a static tier to fall back to).
    let admission_cap: Option<u64> = strict("--admission-cap");
    if admission_cap == Some(0) {
        fail_usage("--admission-cap must be at least 1");
    }
    let staleness_threshold: Option<u64> = strict("--staleness-threshold");
    if staleness_threshold == Some(0) {
        fail_usage("--staleness-threshold must be at least 1");
    }
    let fallback_name = arg("--fallback");
    match (&staleness_threshold, &fallback_name) {
        (Some(_), None) => fail_usage("--staleness-threshold needs --fallback jsq|softmin"),
        (None, Some(_)) => fail_usage("--fallback needs --staleness-threshold <intervals>"),
        _ => {}
    }

    // Checkpoint tiers load (and shape-validate) before the trace is
    // touched, so a wrong path fails in milliseconds, not after I/O.
    let needs_ckpt = matches!(policy_name.as_str(), "checkpoint" | "distilled");
    if needs_ckpt && ckpt_path.is_none() {
        fail_usage(format!("--policy {policy_name} needs --checkpoint <path>"));
    }
    let mut loaded_train: Option<TrainingCheckpoint> = None;
    let mut loaded_distilled: Option<DistilledCheckpoint> = None;
    match policy_name.as_str() {
        "checkpoint" => {
            let path = ckpt_path.as_deref().expect("checked above");
            loaded_train = Some(TrainingCheckpoint::load(path).unwrap_or_else(|e| fail_usage(e)));
        }
        "distilled" => {
            let path = ckpt_path.as_deref().expect("checked above");
            loaded_distilled =
                Some(DistilledCheckpoint::load(path).unwrap_or_else(|e| fail_usage(e)));
        }
        _ => {}
    }

    // Scenario resolution: --scenario wins, then the checkpoint's
    // embedded scenario, then the common engine flags.
    let scenario = if let Some(p) = arg("--scenario") {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| fail_usage(format!("{p}: {e}")));
        let s =
            Scenario::from_json(&text).unwrap_or_else(|e| fail_usage(format!("parse {p}: {e}")));
        if let Err(e) = s.validate() {
            fail_usage(format!("invalid scenario {p}: {e}"));
        }
        s
    } else if let Some(c) = &loaded_train {
        c.scenario.clone()
    } else if let Some(c) = &loaded_distilled {
        c.scenario.clone()
    } else {
        build_scenario()
    };

    // Any homogeneous scenario serves: non-event engines adopt the event
    // engine with unit-mean exponential job sizes, so checkpoints trained
    // on the epoch engines deploy unchanged. Heterogeneous pools observe
    // a composite (length, class) space the job-level engine lacks.
    let job_size = match &scenario.engine {
        EngineSpec::Event { job_size } => job_size.clone(),
        EngineSpec::Hetero { .. } => fail_usage(
            "serve cannot drive heterogeneous pools; use a homogeneous scenario \
             (non-event engines serve with exponential job sizes)",
        ),
        _ => JobSizeLaw::Exponential { rate: 1.0 },
    };

    let zs = scenario.config.num_states();
    let d = scenario.config.d;
    let policy: Box<dyn UpperPolicy + Sync + Send> = match policy_name.as_str() {
        "jsq" => Box::new(FixedRulePolicy::new(jsq_rule(zs, d), "JSQ(d)")),
        "rnd" => Box::new(FixedRulePolicy::new(rnd_rule(zs, d), "RND")),
        "softmin" => {
            let beta: f64 = strict("--beta").unwrap_or(1.0);
            Box::new(FixedRulePolicy::new(softmin_rule(zs, d, beta), format!("SOFT({beta})")))
        }
        "checkpoint" => {
            let ckpt = loaded_train.take().expect("loaded above");
            ckpt.validate_for(&scenario).unwrap_or_else(|e| {
                fail_usage(format!("checkpoint does not fit this scenario: {e}"))
            });
            Box::new(ckpt.into_policy().unwrap_or_else(|e| fail_usage(e)).with_inference(inference))
        }
        "distilled" => {
            let table = loaded_distilled.take().expect("loaded above");
            table.validate_for(&scenario).unwrap_or_else(|e| {
                fail_usage(format!("checkpoint does not fit this scenario: {e}"))
            });
            Box::new(table.into_policy().unwrap_or_else(|e| fail_usage(e)))
        }
        _ => unreachable!("tier validated above"),
    };

    // The fallback tier is static by design: it must keep working when
    // the observation channel (which checkpoint policies lean on) stalls.
    let fallback: Option<Box<dyn UpperPolicy + Sync + Send>> = match fallback_name.as_deref() {
        None => None,
        Some("jsq") => Some(Box::new(FixedRulePolicy::new(jsq_rule(zs, d), "JSQ(d) fallback"))),
        Some("softmin") => {
            let beta: f64 = strict("--fallback-beta").unwrap_or(1.0);
            Some(Box::new(FixedRulePolicy::new(
                softmin_rule(zs, d, beta),
                format!("SOFT({beta}) fallback"),
            )))
        }
        Some(other) => fail_usage(format!("unknown --fallback '{other}' (jsq|softmin)")),
    };

    // Fault plan: the --faults flag wins, a scenario-embedded plan rides
    // along otherwise. Validated (exit 2) before the trace is touched.
    let fault_plan = match arg("--faults") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail_usage(format!("{path}: {e}")));
            let plan = FaultPlan::from_json(&text)
                .unwrap_or_else(|e| fail_usage(format!("parse {path}: {e}")));
            plan.validate_for(scenario.config.num_queues)
                .unwrap_or_else(|e| fail_usage(format!("fault plan {path}: {e}")));
            Some(plan)
        }
        None => scenario.faults.clone(),
    };

    // The trace is read last: everything above this line is pre-flight.
    // `--trace -` streams JSONL from stdin, parsed on an ingest thread
    // (with bounded retry-with-backoff on read errors).
    let source = match arg("--trace").as_deref() {
        Some("-") => {
            let retries: u32 = strict("--ingest-retries").unwrap_or(3);
            let backoff_ms: u64 = strict("--ingest-backoff-ms").unwrap_or(50);
            JobSource::Stream(RefCell::new(LineTraceReader::with_retry(
                Box::new(std::io::BufReader::new(std::io::stdin())),
                retries,
                backoff_ms,
            )))
        }
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail_usage(format!("{path}: {e}")));
            JobSource::Trace(
                parse_trace(&text).unwrap_or_else(|e| fail_usage(format!("{path}: {e}"))),
            )
        }
        None => JobSource::Synthetic,
    };

    let mut engine = EventEngine::new(scenario.config.clone(), job_size);
    if let Some(plan) = fault_plan {
        engine = engine.with_faults(plan);
    }
    let opts =
        ServeOptions { max_jobs, duration, report_every, seed, admission_cap, staleness_threshold };
    eprintln!(
        "serving: M={} B={} d={} Δt={} sizes={:?} policy={} source={} seed={seed}{}{}{}{}",
        scenario.config.num_queues,
        scenario.config.buffer,
        d,
        scenario.config.dt,
        engine.job_size(),
        policy.name(),
        source.label(),
        if inference.is_bit_compat() {
            String::new()
        } else {
            format!(" inference={}", inference.label())
        },
        if engine.faults().is_some() { " faults=on" } else { "" },
        admission_cap.map_or(String::new(), |c| format!(" admission-cap={c}")),
        staleness_threshold.map_or(String::new(), |t| format!(" staleness-threshold={t}")),
    );
    let report = serve_with(
        &engine,
        policy.as_ref(),
        policy.name(),
        fallback.as_deref().map(|p| p as &dyn UpperPolicy),
        &source,
        &opts,
        None,
        |tick| {
            println!("{}", serde_json::to_string(tick).expect("tick serialization cannot fail"));
        },
    )
    .unwrap_or_else(|e| match e {
        ServeError::TraceParse { .. }
        | ServeError::TraceUtf8 { .. }
        | ServeError::ArrivalTime { .. }
        | ServeError::ArrivalOrder { .. }
        | ServeError::JobSize { .. } => fail_usage(e.to_string()),
        _ => fail(e.to_string()),
    });
    // Compact, so stdout stays strict JSONL: ticks, then this last line.
    println!("{}", serde_json::to_string(&report).expect("report serialization cannot fail"));
    eprintln!(
        "served {} jobs over {:.1} time units ({} intervals): {} completed, {} dropped, \
         {} shed (loss fraction {:.4}), mean sojourn {:.3}, {:.0} jobs/s dispatched",
        report.jobs_arrived,
        report.sim_time,
        report.intervals,
        report.jobs_completed,
        report.jobs_dropped,
        report.jobs_shed,
        report.loss_fraction,
        report.mean_sojourn,
        report.jobs_per_sec,
    );
    if report.fallback_activations > 0 || report.observation_dropped > 0 {
        eprintln!(
            "degradation: {} observation refreshes dropped, watchdog fell back {} time(s) \
             covering {} interval(s)",
            report.observation_dropped, report.fallback_activations, report.fallback_intervals,
        );
    }
    if let Some(out) = arg("--out") {
        if let Some(parent) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(parent).ok();
        }
        std::fs::write(&out, report.to_json())
            .unwrap_or_else(|e| fail(format!("write {out}: {e}")));
        eprintln!("final report written to {out}");
    }
}

/// Runs the tracked perf suite ([`mflb::bench::perf`]) and writes the
/// `BENCH_kernels.json` trajectory file.
fn cmd_bench() {
    let quick = has_flag("--quick");
    let workers: usize = workers_flag(1);
    // Same spelling as eval/simulate/serve so a typo'd value exits 2 here
    // too; the kernel suite itself times every inference tier regardless.
    if inference_flags() != InferenceConfig::default() {
        eprintln!("note: the perf suites time every inference tier; --precision/--fast-math do not narrow them");
    }
    let suite = arg("--suite").unwrap_or_else(|| "kernels".into());
    let default_out = match suite.as_str() {
        "kernels" => "BENCH_kernels.json",
        "graph" => "BENCH_graph.json",
        "serve" => "BENCH_serve.json",
        other => fail_usage(format!("unknown bench suite '{other}' (kernels | graph | serve)")),
    };
    let out = arg("--out").unwrap_or_else(|| default_out.into());
    println!(
        "perf suite '{suite}': {} scale, {workers} worker(s) — pinned seeds, \
         wall-clock + throughput",
        if quick { "quick" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let report = match suite.as_str() {
        "graph" => mflb::bench::perf::run_graph_suite(quick, workers),
        "serve" => mflb::bench::perf::run_serve_suite(quick, workers),
        _ => mflb::bench::perf::run_suite(quick, workers),
    };
    println!(
        "{:<36} {:>8} {:>12} {:>14} {:>12} {:>9}",
        "benchmark", "iters", "per-op", "throughput", "baseline", "speedup"
    );
    for e in &report.entries {
        let (tp, unit) = human_rate(e.throughput, &e.unit);
        println!(
            "{:<36} {:>8} {:>10.1}us {:>9.2} {unit:<4} {:>10} {:>9}",
            e.name,
            e.iters,
            e.per_op_us,
            tp,
            e.baseline_per_op_us.map_or("-".into(), |b| format!("{b:.1}us")),
            e.speedup.map_or("-".into(), |s| format!("{s:.2}x")),
        );
    }
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| fail(format!("write {out}: {e}")));
    println!("suite finished in {:.1}s; JSON written to {out}", t0.elapsed().as_secs_f64());
}

/// Validates one or more scenario spec files (the CI scenario-corpus
/// gate): parse, semantic validation and a full engine build for each.
/// Exit 0 iff every file passes; any failure is reported per file and
/// turns the run into exit 1.
fn cmd_validate() {
    let files: Vec<String> = std::env::args().skip(2).filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("usage: mflb validate <scenario.json> [more.json ...]");
        std::process::exit(2);
    }
    // Above this many queues a full engine build materializes a
    // multi-megabyte CSR topology per file; semantic validation
    // (`Scenario::validate`, which includes the topology checks) already
    // catches everything a build would, so huge specs are validated
    // without materializing the graph.
    const BUILD_MAX_QUEUES: usize = 200_000;
    let mut failures = 0usize;
    for path in &files {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("read: {e}"))
            .and_then(|text| Scenario::from_json(&text).map_err(|e| format!("parse: {e}")))
            .and_then(|scenario| {
                if scenario.config.num_queues > BUILD_MAX_QUEUES {
                    scenario.validate().map_err(|e| format!("validate: {e}"))?;
                    Ok((scenario, false))
                } else {
                    scenario.build().map_err(|e| format!("build: {e}"))?;
                    Ok((scenario, true))
                }
            });
        match verdict {
            Ok((scenario, built)) => {
                println!(
                    "OK    {path} (engine={}, M={}, N={}, Δt={}{})",
                    engine_slug(&scenario.engine),
                    scenario.config.num_queues,
                    scenario.config.num_clients,
                    scenario.config.dt,
                    if built { "" } else { "; topology checked without materializing" }
                );
            }
            Err(e) => {
                eprintln!("FAIL  {path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("error: {failures} of {} scenario file(s) failed validation", files.len());
        std::process::exit(1);
    }
    println!("{} scenario file(s) valid", files.len());
}

/// Diffs a fresh perf report against the committed baseline and gates on
/// same-machine kernel speedup ratios (the CI perf-smoke gate). Prints
/// the markdown table on stdout (CI pipes it into
/// `$GITHUB_STEP_SUMMARY`); exits 1 when any tracked kernel regressed
/// past `--max-ratio` (default 1.3).
fn cmd_bench_diff() {
    use mflb::bench::perf::{compare_reports, BenchReport};
    let baseline_path = arg("--baseline").unwrap_or_else(|| "BENCH_kernels.json".into());
    let fresh_path =
        arg("--fresh").unwrap_or_else(|| fail("bench-diff needs --fresh <report.json>"));
    let max_ratio: f64 = parse("--max-ratio", 1.3);
    let load = |path: &str| -> BenchReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        BenchReport::from_json(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
    };
    let diff = compare_reports(&load(&baseline_path), &load(&fresh_path), max_ratio);
    println!("{}", diff.to_markdown());
    let regressions = diff.regressions();
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!(
                "error: kernel `{}` lost {:.2}x of its same-machine margin \
                 (baseline {:.2}x -> fresh {:.2}x, gate {max_ratio}x)",
                r.name,
                r.ratio.unwrap_or(f64::NAN),
                r.baseline_speedup.unwrap_or(f64::NAN),
                r.fresh_speedup.unwrap_or(f64::NAN),
            );
        }
        std::process::exit(1);
    }
}

/// Scales a rate into k/M/G for the table (`(value, unit)`).
fn human_rate(rate: f64, unit: &str) -> (f64, String) {
    if rate >= 1e9 {
        (rate / 1e9, format!("G{unit}"))
    } else if rate >= 1e6 {
        (rate / 1e6, format!("M{unit}"))
    } else if rate >= 1e3 {
        (rate / 1e3, format!("k{unit}"))
    } else {
        (rate, unit.to_string())
    }
}

fn cmd_fit_mmpp() {
    use mflb::queue::fit_mmpp;
    let levels: usize = parse("--levels", 2);
    let trace: Vec<f64> = match arg("--trace") {
        Some(path) => {
            let raw = std::fs::read_to_string(&path).expect("read trace file");
            raw.split(|c: char| c.is_whitespace() || c == ',')
                .filter(|t| !t.is_empty())
                .map(|t| t.parse().expect("trace entries must be numbers"))
                .collect()
        }
        None => {
            // Demo: sample the paper's process so the round-trip is visible.
            println!("no --trace <file> given; fitting a demo trace sampled from the paper's MMPP");
            let mut rng = StdRng::seed_from_u64(parse("--seed", 1));
            let process = mflb::queue::ArrivalProcess::paper_default();
            let mut level = process.sample_initial(&mut rng);
            (0..5_000)
                .map(|_| {
                    let r = process.level_rate(level);
                    level = process.step(level, &mut rng);
                    r
                })
                .collect()
        }
    };
    let fit = fit_mmpp(&trace, levels);
    println!(
        "fitted {levels}-level MMPP from {} samples ({} Lloyd iterations, distortion {:.3e}):",
        trace.len(),
        fit.iterations,
        fit.distortion
    );
    for l in 0..levels {
        println!(
            "  level {l}: rate {:.4}, kernel row {:?}",
            fit.process.level_rate(l),
            fit.process.kernel_row(l).iter().map(|p| format!("{p:.3}")).collect::<Vec<_>>()
        );
    }
    println!(
        "  stationary occupancy: {:?}, mean rate {:.4}",
        fit.process.stationary().iter().map(|p| format!("{p:.3}")).collect::<Vec<_>>(),
        fit.process.mean_rate()
    );
    println!("use it via SystemConfig::paper().with_arrivals(<the fit>) in library code.");
}

/// The usage synopsis, listing every subcommand.
fn usage() -> String {
    [
        "mflb — delayed-information load balancing (ICPP '22 reproduction)",
        "",
        "usage: mflb <command> [flags]",
        "",
        "commands:",
        "  train        train a PPO policy for a scenario -> versioned checkpoint + curve JSON",
        "  eval         evaluate a checkpoint vs JSQ/RND/softmin on its finite system -> JSON table",
        "               (--oracle adds an exact-DP row + per-policy optimality-gap column;",
        "                --max-gap <pct> gates the learned gap, exit 1 on breach)",
        "  distill      project a checkpoint onto a tabular lattice policy via the DP oracle",
        "               (--checkpoint <path> [--grid G] [--slack f] [--out <json>])",
        "  simulate     run a finite-system Monte-Carlo evaluation",
        "               (--record-trace <out.jsonl> instead records one synthetic serve run",
        "                as a replayable job trace; needs an event-engine scenario)",
        "  meanfield    evaluate a policy in the limiting mean-field MDP",
        "  compare      JSQ vs RND vs tuned softmin on one configuration",
        "  tune-beta    find the optimal softmin temperature for a Δt",
        "  dp-solve     solve the lattice DP (certified optimum), optionally --out <json>",
        "  scv-compare  phase-type service: mean-field vs finite at a given --scv",
        "  fit-mmpp     estimate an L-level MMPP from a rate trace (--trace <file>, --levels L)",
        "  serve        online dispatcher on the continuous-time event engine: jobs from a",
        "               synthetic generator or a replayed JSONL trace, routed by --policy",
        "               (defaults to checkpoint when --checkpoint is given, else jsq)",
        "               under delayed observations; JSON tick lines + final report on stdout",
        "               (--trace <jsonl>|- (- = stream stdin; --ingest-retries n",
        "                --ingest-backoff-ms t) --max-jobs <n> --duration <t> --report-every <k>",
        "                --seed <s> --out <json>; usage errors exit 2 before the trace is read)",
        "               graceful degradation: --admission-cap <jobs> sheds load above the cap,",
        "               --staleness-threshold <k> --fallback jsq|softmin [--fallback-beta f]",
        "               degrades to the static tier when observations go stale (hysteresis)",
        "  bench        run a tracked perf suite -> BENCH_<suite>.json (--quick for CI scale;",
        "               --suite kernels|graph|serve — graph covers sparse rates, sharded",
        "               epochs, CSR builds at up to 10^6 queues; serve tracks job-level",
        "               dispatch throughput)",
        "  bench-diff   gate a fresh perf report against the committed baseline",
        "               (--baseline <json> --fresh <json> [--max-ratio 1.3])",
        "  validate     validate scenario spec files (exit 1 on any invalid file)",
        "  help         print this synopsis",
        "",
        "scenario selection (train / eval / simulate):",
        "  --scenario <file.json>        a spec from examples/scenarios/, or",
        "  --engine aggregate|perclient|staggered|ph|joblevel|graph|event",
        "           [--cohorts k] [--scv f]",
        "           [--topology ring|torus|random|full --radius r --degree g --graph-seed s]",
        "           [--job-size exp|pareto|bpareto --job-rate r --job-shape a --job-scale x",
        "            --job-lo l --job-hi h] (job-size law for --engine event)",
        "",
        "fault injection (train / eval / simulate / serve):",
        "  --faults <plan.json>          deterministic fault plan (crashes, stragglers,",
        "                                observation drops, overload bursts); also embeddable",
        "                                as a \"faults\" key in scenario JSON. Same seed =>",
        "                                bit-identical faulted runs; malformed plans exit 2",
        "",
        "common flags: --dt <f> --m <int> --n <int> --buffer <int> --d <int>",
        "              --policy jsq|rnd|softmin|checkpoint|distilled [--beta f] [--checkpoint path]",
        "              --precision f64|f32 [--fast-math] (neural inference tier for",
        "              eval/simulate/serve/bench: f32 converts checkpoint weights at load,",
        "              --fast-math swaps libm tanh for the vectorizable rational approximation;",
        "              the f64 default reproduces training bit for bit)",
        "              --oracle [--oracle-grid G] [--oracle-sweeps n] [--oracle-cache dir|none]",
        "              [--max-gap <pct>] (DP-oracle certification on eval)",
        "              --runs <int> --episodes <int> --seed <int> --grid <int> --scv <f>",
        "              --scale quick|paper --iters <int> --out <path>",
        "              --workers <int> (worker threads for train/eval/bench fan-outs;",
        "              --threads is an alias — pin it on fixed-core CI runners)",
    ]
    .join("\n")
}

fn main() {
    let cmd = std::env::args().nth(1);
    match cmd.as_deref() {
        Some("train") => cmd_train(),
        Some("eval") => cmd_eval(),
        Some("distill") => cmd_distill(),
        Some("simulate") => cmd_simulate(),
        Some("meanfield") => cmd_meanfield(),
        Some("compare") => cmd_compare(),
        Some("tune-beta") => cmd_tune_beta(),
        Some("dp-solve") => cmd_dp_solve(),
        Some("scv-compare") => cmd_scv_compare(),
        Some("fit-mmpp") => cmd_fit_mmpp(),
        Some("serve") => cmd_serve(),
        Some("bench") => cmd_bench(),
        Some("bench-diff") => cmd_bench_diff(),
        Some("validate") => cmd_validate(),
        Some("help") | Some("--help") | Some("-h") => println!("{}", usage()),
        unknown => {
            // No subcommand or an unrecognized one: synopsis on stderr,
            // exit 2 (usage error), so scripts cannot mistake it for a run.
            if let Some(u) = unknown {
                eprintln!("error: unknown command '{u}'\n");
            }
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}
