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
//!
//! Each subcommand's flags are declared once in [`mflb::cli`]; the same
//! tables parse the command line and render `mflb help`. Bad input (an
//! unknown, repeated or unparseable flag, an invalid scenario, fault
//! plan, checkpoint or trace) exits 2; a runtime failure, a `validate`
//! verdict or a gate breach exits 1.

use mflb::bench::flags::{self, exit_failure as fail, exit_usage as fail_usage, Args};
use mflb::bench::inputs::load_scenario;
use mflb::cli;
use mflb::core::mdp::{FixedRulePolicy, UpperPolicy};
use mflb::core::{
    check_rule_table, DecisionRule, FaultPlan, JobSizeLaw, MeanFieldMdp, SystemConfig, Topology,
};
use mflb::policy::{
    jsq_rule, lift_to_composite, optimize_beta, rnd_rule, softmin_rule, InferenceConfig,
    NeuralUpperPolicy, TanhMode,
};
use mflb::rl::{
    check_lattice, distill_checkpoint, evaluate_checkpoint_configured, oracle_feasibility,
    train_scenario_from, DistillConfig, DistilledCheckpoint, OracleConfig, PolicyShape, PpoConfig,
    TrainingCheckpoint,
};
use mflb::sim::{monte_carlo, AggregateEngine, EngineSpec, Scenario, ServiceLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The neural inference tier (`--precision`, `--fast-math`), spelled
/// identically across eval / simulate / meanfield / scv-compare / serve.
/// `f64` (the default) is bit-compatible with training; `f32` converts
/// the network weights once at load; `--fast-math` swaps libm tanh for
/// the vectorizable rational approximation. Rule-table tiers ignore it.
fn inference(args: &Args) -> InferenceConfig {
    let tanh_mode = if args.has("--fast-math") { TanhMode::Fast } else { TanhMode::BitCompat };
    InferenceConfig { tanh_mode, f32_weights: args.str("--precision") == Some("f32") }
}

/// The oracle solve configuration: lattice resolution from `grid_flag`,
/// `--oracle-sweeps`, `--oracle-cache` (`none` disables caching) and
/// `--workers`.
fn oracle_config(args: &Args, grid_flag: &str) -> OracleConfig {
    OracleConfig {
        grid_resolution: args.get(grid_flag),
        max_sweeps: args.get("--oracle-sweeps"),
        threads: args.get("--workers"),
        cache_dir: args.str("--oracle-cache").filter(|d| *d != "none").map(PathBuf::from),
        ..OracleConfig::default()
    }
}

/// The system flags as a validated [`SystemConfig`] (exit 2 when invalid).
fn build_config(args: &Args) -> SystemConfig {
    let m: usize = args.get("--m");
    let buffer: usize = args.get("--buffer");
    let d: usize = args.get("--d");
    // The rule-table cap bounds B before ν₀ is allocated.
    check_rule_table(buffer.saturating_add(1), d)
        .unwrap_or_else(|e| fail_usage(format!("invalid system flags: {e}")));
    let mut initial_dist = vec![0.0; buffer + 1];
    initial_dist[0] = 1.0;
    let config = SystemConfig {
        dt: args.get("--dt"),
        num_queues: m,
        num_clients: args.get_or("--n", (m as u64).saturating_mul(m as u64)),
        buffer,
        initial_dist,
        d,
        ..SystemConfig::paper()
    };
    config.validate().unwrap_or_else(|e| fail_usage(format!("invalid system flags: {e}")));
    config
}

/// Resolves the scenario: `--scenario <file>` wins; otherwise one is built
/// from the engine and system flags. Either way it is validated (exit 2).
fn build_scenario(args: &Args) -> Scenario {
    if let Some(path) = args.str("--scenario") {
        return load_scenario(path).unwrap_or_else(|e| fail_usage(e));
    }
    let engine = match args.str("--engine") {
        Some("perclient") => EngineSpec::PerClient,
        Some("staggered") => EngineSpec::Staggered { cohorts: args.get("--cohorts") },
        Some("ph") => {
            EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv: args.get("--scv") } }
        }
        Some("joblevel") => EngineSpec::JobLevel,
        Some("graph") => EngineSpec::Graph { topology: build_topology(args), shard_size: None },
        Some("event") => EngineSpec::Event { job_size: build_job_size(args) },
        _ => EngineSpec::Aggregate,
    };
    let scenario = Scenario::new(build_config(args), engine);
    scenario.validate().unwrap_or_else(|e| fail_usage(format!("invalid engine flags: {e}")));
    scenario
}

/// Applies `--faults <plan.json>` to the scenario whose engine will run
/// it; the flag overrides a scenario-embedded plan. A malformed plan, or
/// one that engine cannot honor, exits 2 before any simulation work.
fn load_faults(args: &Args, scenario: Scenario) -> Scenario {
    let Some(path) = args.str("--faults") else { return scenario };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail_usage(format!("{path}: {e}")));
    let plan =
        FaultPlan::from_json(&text).unwrap_or_else(|e| fail_usage(format!("parse {path}: {e}")));
    let faulted = scenario.with_faults(plan);
    if let Err(e) = faulted.validate() {
        fail_usage(format!("fault plan {path}: {e}"));
    }
    faulted
}

/// `--topology` plus its parameters, for `--engine graph`.
fn build_topology(args: &Args) -> Topology {
    match args.str("--topology") {
        Some("torus") => Topology::Torus { radius: args.get("--radius") },
        Some("random") => {
            Topology::RandomRegular { degree: args.get("--degree"), seed: args.get("--graph-seed") }
        }
        Some("full") => Topology::FullMesh,
        _ => Topology::Ring { radius: args.get("--radius") },
    }
}

/// `--job-size` plus its parameters, for `--engine event`.
fn build_job_size(args: &Args) -> JobSizeLaw {
    match args.str("--job-size") {
        Some("pareto") => JobSizeLaw::Pareto {
            shape: args.get_or("--job-shape", 2.0),
            scale: args.get("--job-scale"),
        },
        Some("bpareto") => JobSizeLaw::BoundedPareto {
            shape: args.get_or("--job-shape", 1.5),
            lo: args.get("--job-lo"),
            hi: args.get("--job-hi"),
        },
        _ => JobSizeLaw::Exponential { rate: args.get("--job-rate") },
    }
}

/// A `--policy` tier with its checkpoint read, before it is fitted to a
/// scenario (serve takes its scenario from the checkpoint).
enum Tier {
    Jsq,
    Rnd,
    Softmin(f64),
    Neural(String, Box<TrainingCheckpoint>),
    Distilled(String, Box<DistilledCheckpoint>),
}

/// Reads `--policy` (`default` when absent) and loads the checkpoint it
/// names. A missing or unloadable checkpoint exits 2.
fn load_policy(args: &Args, default: &str) -> Tier {
    let tier = args.str("--policy").unwrap_or(default);
    let path = || {
        args.str("--checkpoint")
            .unwrap_or_else(|| fail_usage(format!("--policy {tier} needs --checkpoint <path>")))
    };
    match tier {
        "checkpoint" => Tier::Neural(path().to_string(), Box::new(load_checkpoint(path()))),
        "distilled" => Tier::Distilled(
            path().to_string(),
            Box::new(DistilledCheckpoint::load(path()).unwrap_or_else(|e| fail_usage(e))),
        ),
        "rnd" => Tier::Rnd,
        "softmin" => Tier::Softmin(args.get("--beta")),
        _ => Tier::Jsq,
    }
}

impl Tier {
    /// The scenario a checkpoint tier was trained or distilled on.
    fn scenario(&self) -> Option<&Scenario> {
        match self {
            Tier::Neural(_, ckpt) => Some(&ckpt.scenario),
            Tier::Distilled(_, table) => Some(&table.scenario),
            _ => None,
        }
    }

    /// The policy for `scenario`. Rule-based baselines are lifted to the
    /// composite `(length, class)` space on heterogeneous pools;
    /// checkpoints must fit the scenario's shape (exit 2 otherwise).
    fn build(self, args: &Args, scenario: &Scenario) -> Box<dyn UpperPolicy + Sync + Send> {
        let (zs, d) = (scenario.config.num_states(), scenario.config.d);
        let classes = PolicyShape::for_scenario(scenario).rule_states / zs;
        let rule = |rule: DecisionRule, name: String| -> Box<dyn UpperPolicy + Sync + Send> {
            let rule = if classes > 1 { lift_to_composite(&rule, zs, classes) } else { rule };
            Box::new(FixedRulePolicy::new(rule, name))
        };
        match self {
            Tier::Jsq => rule(jsq_rule(zs, d), "JSQ(d)".into()),
            Tier::Rnd => rule(rnd_rule(zs, d), "RND".into()),
            Tier::Softmin(beta) => rule(softmin_rule(zs, d, beta), format!("SOFT({beta})")),
            Tier::Neural(path, ckpt) => {
                Box::new(fit(&path, &ckpt, scenario).with_inference(inference(args)))
            }
            Tier::Distilled(path, table) => {
                table.validate_for(scenario).unwrap_or_else(|e| {
                    fail_usage(format!("{path} does not fit this scenario: {e}"))
                });
                Box::new(table.into_policy().unwrap_or_else(|e| fail_usage(format!("{path}: {e}"))))
            }
        }
    }
}

/// Writes `text` to `path`, creating its parent directories; a failure
/// exits 1.
fn write_out(path: &std::path::Path, text: &str) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(path, text).unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
}

/// The CLI's PPO presets. `quick` is sized so `mflb train --scale quick`
/// finishes in minutes on a laptop core while still clearing the RND
/// baseline; `paper` (alias `full`) is Table 2 verbatim.
fn ppo_for_scale(scale: &str, threads: usize) -> (PpoConfig, usize) {
    let (mut ppo, iters) = match scale {
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
        _ => (PpoConfig::paper(), 6250),
    };
    ppo.rollout_threads = threads.max(1);
    (ppo, iters)
}

fn cmd_train(args: &Args) {
    let scenario = load_faults(args, build_scenario(args));
    let scale = args.str("--scale").unwrap_or("quick");
    let threads: usize = args.get("--workers");
    let seed: u64 = args.get("--seed");
    let (ppo, default_iters) = ppo_for_scale(scale, threads);
    let iters: usize = args.get_or("--iters", default_iters);
    // Warm start: the checkpoint's network must fit the scenario trained.
    let init = args.str("--init").map(|path| {
        let policy = TrainingCheckpoint::load(path).and_then(|c| c.fit(path, &scenario));
        policy.unwrap_or_else(|e| fail_usage(format!("--init: {e}"))).net().clone()
    });
    let out = out_path(args, "target/checkpoints/mf", &scenario);
    let curve_path = args.str("--curve").map(PathBuf::from).unwrap_or_else(|| {
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
    // Every error training returns is a check of its inputs (the horizon
    // against the batch, the warm-start network against the preset) made
    // before the first iteration.
    let result = train_scenario_from(&scenario, ppo, iters, seed, true, init.as_ref())
        .unwrap_or_else(|e| fail_usage(e));
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
    write_out(&curve_path, &curve_json);
    println!("training curve written to {}", curve_path.display());
    println!("next: mflb eval --checkpoint {}", out.display());
}

/// `--out`, or `<prefix>_<engine>_dt<Δt>.json`.
fn out_path(args: &Args, prefix: &str, scenario: &Scenario) -> PathBuf {
    let slug = engine_slug(&scenario.engine);
    let default = || PathBuf::from(format!("{prefix}_{slug}_dt{}.json", scenario.config.dt));
    args.str("--out").map_or_else(default, PathBuf::from)
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

/// The training checkpoint at `path`; an unreadable or malformed file
/// exits 2.
fn load_checkpoint(path: &str) -> TrainingCheckpoint {
    TrainingCheckpoint::load(path).unwrap_or_else(|e| fail_usage(e))
}

/// The policy `ckpt`, read from `path`, deploys on `scenario`; a network
/// that does not fit the scenario exits 2.
fn fit(path: &str, ckpt: &TrainingCheckpoint, scenario: &Scenario) -> NeuralUpperPolicy {
    ckpt.fit(path, scenario).unwrap_or_else(|e| fail_usage(e))
}

/// The training checkpoint `--checkpoint` names and the scenario to run
/// it on: `--scenario` when given, else the checkpoint's own. Bad input
/// exits 2.
fn load_trained(args: &Args) -> (&str, TrainingCheckpoint, Scenario) {
    let path = args.required("--checkpoint");
    let ckpt = load_checkpoint(path);
    let scenario = match args.str("--scenario") {
        Some(p) => load_scenario(p).unwrap_or_else(|e| fail_usage(e)),
        None => ckpt.scenario.clone(),
    };
    (path, ckpt, scenario)
}

fn cmd_eval(args: &Args) {
    // Each M runs with N = M², so M² must fit the client counter.
    let m_sweep: Vec<usize> = args.str("--m").map_or(Vec::new(), |v| {
        v.split(',')
            .map(|t| match t.trim().parse::<usize>() {
                Ok(m) if m >= 1 && (m as u64).checked_mul(m as u64).is_some() => m,
                _ => fail_usage(format!("bad --m entry '{t}' (need 1 <= M < 2^32)")),
            })
            .collect()
    });
    let (path, ckpt, scenario) = load_trained(args);
    let scenario = load_faults(args, scenario);
    let runs: usize = args.get("--runs");
    let seed: u64 = args.get("--seed");
    let threads: usize = args.get("--workers");
    let inference = inference(args);
    let max_gap: Option<f64> = args.opt("--max-gap");

    // `--max-gap` is meaningless without an oracle, so it implies one.
    let oracle = if args.has("--oracle") || max_gap.is_some() {
        let cfg = oracle_config(args, "--oracle-grid");
        // Pre-flight: unsupported engines and oversized lattices are
        // usage errors (exit 2) caught before minutes of value iteration.
        if let Err(e) = oracle_feasibility(&scenario, &cfg) {
            fail_usage(e);
        }
        Some(cfg)
    } else {
        None
    };
    // Pre-flight: a network that does not fit the scenario exits 2 here.
    fit(path, &ckpt, &scenario);

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
    // The gap column only exists when the oracle ran.
    let gap = |cell: String| match report.oracle {
        Some(_) => format!(" {cell:>9}"),
        None => String::new(),
    };
    println!(
        "{:<16} {:>6} {:>10} {:>14} {:>10} {:>10}{}",
        "policy",
        "M",
        "N",
        "drops/queue",
        "±95%",
        "drop frac",
        gap("gap %".into())
    );
    for row in &report.rows {
        let cell = row.gap_pct.map_or("-".into(), |g| format!("{g:+.2}"));
        println!(
            "{:<16} {:>6} {:>10} {:>14.3} {:>10.3} {:>10.4}{}",
            row.policy,
            row.m,
            row.n,
            row.mean_drops,
            row.ci95,
            row.drop_fraction,
            gap(cell)
        );
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
    let out = out_path(args, "target/experiments/eval", &scenario);
    write_out(&out, &report.to_json());
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
fn cmd_distill(args: &Args) {
    let (path, ckpt, scenario) = load_trained(args);
    // `--grid` is the natural spelling here (mirrors dp-solve);
    // --oracle-grid stays as its alias.
    let oracle = oracle_config(args, "--grid");
    if let Err(e) = oracle_feasibility(&scenario, &oracle) {
        fail_usage(e);
    }
    let nn = fit(path, &ckpt, &scenario);
    let config = DistillConfig { oracle, polish_slack: args.get("--slack") };

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

    let out = out_path(args, "target/checkpoints/distilled", &scenario);
    table.save(&out).unwrap_or_else(|e| fail(e));
    println!(
        "distilled checkpoint (format v{}) written to {}",
        table.format_version,
        out.display()
    );

    // Deployment check: the table vs its source network in the scenario's
    // finite system (skippable with --runs 0).
    let runs: usize = args.get("--runs");
    if runs > 0 {
        let seed: u64 = args.get("--seed");
        let workers: usize = args.get("--workers");
        let engine = scenario.build().unwrap_or_else(|e| fail(e.to_string()));
        let horizon = scenario.config.eval_episode_len();
        let tabular = table.into_policy().unwrap_or_else(|e| fail(e));
        let mc_nn = monte_carlo(&engine, &nn, horizon, runs, seed, workers);
        let mc_tab = monte_carlo(&engine, &tabular, horizon, runs, seed, workers);
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

fn cmd_simulate(args: &Args) {
    let scenario = load_faults(args, build_scenario(args));
    if let Some(path) = args.str("--record-trace") {
        record_trace(args, &scenario, path);
        return;
    }
    let config = scenario.config.clone();
    let policy = load_policy(args, "jsq").build(args, &scenario);
    let runs: usize = args.get("--runs");
    let seed: u64 = args.get("--seed");
    let horizon = config.eval_episode_len();
    let workers: usize = args.get("--workers");
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
fn record_trace(args: &Args, scenario: &Scenario, out: &str) {
    use mflb::sim::{serve_with, EventEngine, JobSource, ServeOptions};
    let EngineSpec::Event { job_size } = &scenario.engine else {
        fail_usage("--record-trace needs an event-engine scenario (--engine event)");
    };
    let seed: u64 = args.get("--seed");
    let duration: f64 = args.get_or("--duration", scenario.config.eval_time);
    if !(duration > 0.0 && duration.is_finite()) {
        fail_usage(format!("--duration must be positive and finite, got {duration}"));
    }
    let mut engine = EventEngine::new(scenario.config.clone(), job_size.clone());
    if let Some(plan) = &scenario.faults {
        engine = engine.with_faults(plan.clone());
    }
    let policy = load_policy(args, "jsq").build(args, scenario);
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
    .unwrap_or_else(|e| serve_failure(e));
    let mut text = String::with_capacity(jobs.len() * 32);
    for job in &jobs {
        text.push_str(&job.to_jsonl());
        text.push('\n');
    }
    write_out(out.as_ref(), &text);
    println!(
        "recorded {} jobs over {:.1} time units to {out} (seed {seed}); replay with: \
         mflb serve --trace {out} --seed {seed} --duration {duration}",
        jobs.len(),
        report.sim_time,
    );
}

/// The `--policy` tier for the homogeneous limiting model of `config`.
fn homogeneous_policy(args: &Args, config: &SystemConfig) -> Box<dyn UpperPolicy + Sync + Send> {
    load_policy(args, "jsq").build(args, &Scenario::new(config.clone(), EngineSpec::Aggregate))
}

fn cmd_meanfield(args: &Args) {
    let config = build_config(args);
    let policy = homogeneous_policy(args, &config);
    let episodes: usize = args.get("--episodes");
    let seed: u64 = args.get("--seed");
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

fn cmd_compare(args: &Args) {
    let config = build_config(args);
    let runs: usize = args.get("--runs");
    let seed: u64 = args.get("--seed");
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

fn cmd_tune_beta(args: &Args) {
    let config = build_config(args);
    let seed: u64 = args.get("--seed");
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

fn cmd_dp_solve(args: &Args) {
    use mflb::dp::{ActionLibrary, DpConfig, DpSolution};
    let config = build_config(args);
    let grid: usize = args.get("--grid");
    if grid == 0 {
        fail_usage("--grid must be at least 1");
    }
    let lattice = OracleConfig { grid_resolution: grid, ..OracleConfig::default() };
    if let Err(e) = check_lattice(&config, &lattice, "--grid") {
        fail_usage(e);
    }
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
    if let Some(path) = args.str("--out") {
        sol.save_json(path).unwrap_or_else(|e| fail(e.to_string()));
        println!("checkpoint written to {path}");
    }

    // Quick deployment check against the baselines in the limiting model.
    let mdp = MeanFieldMdp::new(config.clone());
    let horizon = config.eval_episode_len().min(120);
    let mut rng = StdRng::seed_from_u64(args.get("--seed"));
    let policy = sol.into_policy();
    let v_dp = mdp.evaluate(&policy, horizon, 24, &mut rng).mean();
    let jsq = FixedRulePolicy::new(jsq_rule(config.num_states(), config.d), "JSQ");
    let v_jsq = mdp.evaluate(&jsq, horizon, 24, &mut rng).mean();
    println!("mean-field return over {horizon} epochs: DP {v_dp:.2} vs JSQ(d) {v_jsq:.2}");
}

fn cmd_scv_compare(args: &Args) {
    use mflb::core::mdp::{Integrand, MeanField};
    let config = build_config(args);
    let scv: f64 = args.get("--scv");
    let runs: usize = args.get("--runs");
    let seed: u64 = args.get("--seed");
    let horizon = config.eval_episode_len();
    let law = ServiceLaw::MeanScv { mean: 1.0 / config.service_rate, scv };
    let service = law.build().unwrap_or_else(|e| fail_usage(format!("--scv: {e}")));
    println!(
        "service: mean {:.3}, SCV {:.3}, {} phases (two-moment PH fit)",
        service.mean(),
        service.scv(),
        service.num_phases()
    );
    let policy = homogeneous_policy(args, &config);

    let closure = MeanField::new(&config, service.clone(), Integrand::FullMesh);
    let mdp = MeanFieldMdp::with_closure(config.clone(), closure);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mf = mflb::linalg::stats::Summary::new();
    for _ in 0..24 {
        mf.push(-mdp.rollout(policy.as_ref(), horizon, &mut rng).total_return);
    }
    let engine = Scenario::new(config.clone(), EngineSpec::Ph { service: law })
        .build()
        .unwrap_or_else(|e| fail_usage(e.to_string()));
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
fn cmd_serve(args: &Args) {
    use mflb::sim::{
        parse_trace, serve_with, EventEngine, JobSource, LineTraceReader, ServeOptions,
    };
    use std::cell::RefCell;

    let max_jobs: Option<u64> = args.opt("--max-jobs");
    if max_jobs == Some(0) {
        fail_usage("--max-jobs must be at least 1");
    }
    let duration: Option<f64> = args.opt("--duration");
    if let Some(t) = duration {
        if !t.is_finite() || t <= 0.0 {
            fail_usage(format!("--duration must be positive and finite, got {t}"));
        }
    }
    let report_every: usize = args.get("--report-every");
    if report_every == 0 {
        fail_usage("--report-every must be at least 1");
    }
    let seed: u64 = args.get("--seed");

    // Graceful-degradation knobs: bounded admission plus the staleness
    // watchdog (which needs a static tier to fall back to).
    let admission_cap: Option<u64> = args.opt("--admission-cap");
    if admission_cap == Some(0) {
        fail_usage("--admission-cap must be at least 1");
    }
    let staleness_threshold: Option<u64> = args.opt("--staleness-threshold");
    if staleness_threshold == Some(0) {
        fail_usage("--staleness-threshold must be at least 1");
    }
    match (staleness_threshold, args.str("--fallback")) {
        (Some(_), None) => fail_usage("--staleness-threshold needs --fallback jsq|softmin"),
        (None, Some(_)) => fail_usage("--fallback needs --staleness-threshold <intervals>"),
        _ => {}
    }

    // With a --checkpoint but no explicit tier, serving the checkpoint is
    // what the caller meant — defaulting to jsq would silently ignore it.
    // Checkpoints load before the trace is touched, so a wrong path fails
    // in milliseconds, not after I/O.
    let tier = load_policy(args, if args.has("--checkpoint") { "checkpoint" } else { "jsq" });

    // Scenario resolution: --scenario wins, then the checkpoint's
    // embedded scenario, then the engine and system flags.
    let scenario = match (args.has("--scenario"), tier.scenario()) {
        (false, Some(embedded)) => embedded.clone(),
        _ => build_scenario(args),
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
    let policy = tier.build(args, &scenario);

    // The fallback tier is static by design: it must keep working when
    // the observation channel (which checkpoint policies lean on) stalls.
    let (zs, d) = (scenario.config.num_states(), scenario.config.d);
    let fallback: Option<Box<dyn UpperPolicy + Sync + Send>> = match args.str("--fallback") {
        None => None,
        Some("softmin") => {
            let beta: f64 = args.get("--fallback-beta");
            Some(Box::new(FixedRulePolicy::new(
                softmin_rule(zs, d, beta),
                format!("SOFT({beta}) fallback"),
            )))
        }
        Some(_) => Some(Box::new(FixedRulePolicy::new(jsq_rule(zs, d), "JSQ(d) fallback"))),
    };

    // The fault plan runs on the event engine, so that is what it is
    // validated against: the --faults flag wins, a scenario-embedded plan
    // rides along otherwise.
    let engine_spec = EngineSpec::Event { job_size: job_size.clone() };
    let scenario = load_faults(args, Scenario { engine: engine_spec, ..scenario });

    // The trace is read last: everything above this line is pre-flight.
    // `--trace -` streams JSONL from stdin, parsed on an ingest thread
    // (with bounded retry-with-backoff on read errors).
    let source = match args.str("--trace") {
        Some("-") => {
            let retries: u32 = args.get("--ingest-retries");
            let backoff_ms: u64 = args.get("--ingest-backoff-ms");
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
    if let Some(plan) = scenario.faults {
        engine = engine.with_faults(plan);
    }
    let opts =
        ServeOptions { max_jobs, duration, report_every, seed, admission_cap, staleness_threshold };
    let inference = inference(args);
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
    .unwrap_or_else(|e| serve_failure(e));
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
    if let Some(out) = args.str("--out") {
        write_out(out.as_ref(), &report.to_json());
        eprintln!("final report written to {out}");
    }
}

/// Exits on a serve failure: bad input (a malformed trace, a job or a
/// synthetic run past the horizon cap) with 2, anything else with 1.
fn serve_failure(e: mflb::sim::ServeError) -> ! {
    use mflb::sim::ServeError;
    match e {
        ServeError::TraceParse { .. }
        | ServeError::TraceUtf8 { .. }
        | ServeError::ArrivalTime { .. }
        | ServeError::ArrivalOrder { .. }
        | ServeError::JobSize { .. }
        | ServeError::BeyondHorizon { .. }
        | ServeError::DurationBeyondHorizon { .. } => fail_usage(e),
        _ => fail(e),
    }
}

/// Runs the tracked perf suite ([`mflb::bench::perf`]) and writes the
/// `BENCH_kernels.json` trajectory file.
fn cmd_bench(args: &Args) {
    let quick = args.has("--quick");
    let workers: usize = args.get("--workers");
    let suite = args.str("--suite").unwrap_or("kernels");
    let out = args.str("--out").map_or_else(|| format!("BENCH_{suite}.json"), String::from);
    println!(
        "perf suite '{suite}': {} scale, {workers} worker(s) — pinned seeds, \
         wall-clock + throughput",
        if quick { "quick" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let report = match suite {
        "graph" => mflb::bench::perf::run_graph_suite(quick, workers),
        "serve" => mflb::bench::perf::run_serve_suite(quick, workers),
        _ => mflb::bench::perf::run_suite(quick, workers),
    };
    println!(
        "{:<40} {:>8} {:>12} {:>14} {:>12} {:>9}",
        "benchmark", "iters", "per-op", "throughput", "baseline", "speedup"
    );
    for e in &report.entries {
        let (tp, unit) = human_rate(e.throughput, &e.unit);
        println!(
            "{:<40} {:>8} {:>10.1}us {:>9.2} {unit:<4} {:>10} {:>9}",
            e.name,
            e.iters,
            e.per_op_us,
            tp,
            e.baseline_per_op_us.map_or("-".into(), |b| format!("{b:.1}us")),
            e.speedup.map_or("-".into(), |s| format!("{s:.2}x")),
        );
    }
    write_out(out.as_ref(), &report.to_json());
    println!("suite finished in {:.1}s; JSON written to {out}", t0.elapsed().as_secs_f64());
}

/// Validates one or more scenario spec files (the CI scenario-corpus
/// gate): parse, semantic validation and a full engine build for each.
/// Exit 0 iff every file passes; any failure is reported per file and
/// turns the run into exit 1.
fn cmd_validate(args: &Args) {
    let files = &args.positional;
    if files.is_empty() {
        fail_usage("validate needs at least one <scenario.json>");
    }
    // Above this many queues a full engine build materializes a
    // multi-megabyte CSR topology per file; semantic validation
    // (`Scenario::validate`, which includes the topology checks) already
    // catches everything a build would, so huge specs are validated
    // without materializing the graph.
    const BUILD_MAX_QUEUES: usize = 200_000;
    let mut failures = 0usize;
    for path in files {
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
/// `$GITHUB_STEP_SUMMARY`); exits 1 when a baseline entry is missing
/// from the fresh report or a tracked kernel regressed past
/// `--max-ratio` (default 1.3).
fn cmd_bench_diff(args: &Args) {
    use mflb::bench::perf::{compare_reports, BenchReport};
    let baseline_path = args.required("--baseline");
    let fresh_path = args.required("--fresh");
    let max_ratio: f64 = args.get("--max-ratio");
    let load = |path: &str| -> BenchReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        BenchReport::from_json(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
    };
    let diff = compare_reports(&load(baseline_path), &load(fresh_path), max_ratio);
    println!("{}", diff.to_markdown());
    let regressions = diff.regressions();
    if !regressions.is_empty() {
        for r in &regressions {
            if r.missing {
                eprintln!("error: kernel `{}` is in the baseline but not in {fresh_path}", r.name);
                continue;
            }
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

fn cmd_fit_mmpp(args: &Args) {
    use mflb::queue::fit_mmpp;
    let levels: usize = args.get("--levels");
    if levels == 0 {
        fail_usage("--levels must be at least 1");
    }
    let trace: Vec<f64> = match args.str("--trace") {
        Some(path) => {
            let raw = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail_usage(format!("{path}: {e}")));
            raw.split(|c: char| c.is_whitespace() || c == ',')
                .filter(|t| !t.is_empty())
                .map(|t| match t.parse::<f64>() {
                    Ok(r) if r.is_finite() && r >= 0.0 => r,
                    _ => fail_usage(format!("{path}: '{t}' is not a finite non-negative rate")),
                })
                .collect()
        }
        None => {
            // Demo: sample the paper's process so the round-trip is visible.
            println!("no --trace <file> given; fitting a demo trace sampled from the paper's MMPP");
            let mut rng = StdRng::seed_from_u64(args.get("--seed"));
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
    if trace.len() / 2 < levels {
        fail_usage(format!(
            "fitting {levels} levels needs at least 2 rate samples per level, got {}",
            trace.len()
        ));
    }
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

/// The usage synopsis, generated from the flag tables in [`mflb::cli`].
fn usage() -> String {
    flags::usage(
        "mflb",
        "delayed-information load balancing (ICPP '22 reproduction)",
        cli::COMMANDS,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map(String::as_str);
    if matches!(name, Some("--help" | "-h")) {
        println!("{}", usage());
        return;
    }
    let Some(command) = name.and_then(cli::command) else {
        // No subcommand or an unrecognized one: synopsis on stderr, exit 2
        // (usage error), so scripts cannot mistake it for a run.
        if let Some(u) = name {
            eprintln!("error: unknown command '{u}'\n");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let args = command.parse_or_exit(&format!("mflb {}", command.name), &argv[1..]);
    match command.name {
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "distill" => cmd_distill(&args),
        "simulate" => cmd_simulate(&args),
        "meanfield" => cmd_meanfield(&args),
        "compare" => cmd_compare(&args),
        "tune-beta" => cmd_tune_beta(&args),
        "dp-solve" => cmd_dp_solve(&args),
        "scv-compare" => cmd_scv_compare(&args),
        "fit-mmpp" => cmd_fit_mmpp(&args),
        "serve" => cmd_serve(&args),
        "bench" => cmd_bench(&args),
        "bench-diff" => cmd_bench_diff(&args),
        "validate" => cmd_validate(&args),
        _ => println!("{}", usage()),
    }
}
