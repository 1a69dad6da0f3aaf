//! Trains an MF policy with PPO — for a given synchronization delay or for
//! an arbitrary scenario file — and saves a **versioned** training
//! checkpoint (`mflb_rl::TrainingCheckpoint`).
//!
//! ```text
//! cargo run -p mflb-bench --release --bin train_policy -- \
//!     --dt 5 --iters 150 --threads 8 --seed 1 [--scale paper] [--out path] \
//!     [--scenario examples/scenarios/aggregate.json] \
//!     [--init assets/policies/mf_dt5.json]   # warm-start from a checkpoint
//! ```
//!
//! The driver is `mflb_rl::train_scenario` — the same code path as
//! `mflb train` — so checkpoints produced here and by the CLI are
//! interchangeable.

use mflb_bench::flags::{exit_failure, exit_usage};
use mflb_bench::harness::{checkpoint_path, paper_config, Scale};
use mflb_bench::inputs::{load_scenario, Checkpoint};
use mflb_bench::training::{iterations_for, ppo_config_for};
use mflb_core::MeanFieldMdp;
use mflb_rl::train_scenario_from;
use mflb_sim::{EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let dt: f64 = args.get("--dt");
    let threads: usize = args.get("--threads");
    let seed: u64 = args.get("--seed");
    let iters: usize = args.get_or("--iters", iterations_for(scale));
    let out = args.str("--out").map(PathBuf::from).unwrap_or_else(|| checkpoint_path(dt));

    let scenario = match args.str("--scenario") {
        Some(path) => load_scenario(path).unwrap_or_else(|e| exit_usage(e)),
        None => Scenario::new(paper_config(dt), EngineSpec::Aggregate),
    };
    println!(
        "training MF policy: scenario={:?} dt={} scale={} iters={iters} threads={threads} seed={seed}",
        scenario.engine,
        scenario.config.dt,
        scale.label()
    );

    // Warm start: the versioned format, with the legacy PolicyCheckpoint as
    // a fallback for old artifacts; the network must fit the scenario.
    let init_net = args.str("--init").map(|p| {
        let policy = Checkpoint::load(p).and_then(|c| c.fit(&scenario));
        policy.unwrap_or_else(|e| exit_usage(format!("--init: {e}"))).net().clone()
    });

    let ppo = ppo_config_for(scale, threads);
    let result = train_scenario_from(&scenario, ppo, iters, seed, true, init_net.as_ref())
        .unwrap_or_else(|e| exit_failure(format!("training failed: {e}")));

    // Final deterministic evaluation in the limiting model (homogeneous
    // scenarios only; richer dynamics are evaluated by `mflb eval`).
    if matches!(scenario.engine, EngineSpec::Aggregate | EngineSpec::PerClient) {
        let mdp = MeanFieldMdp::new(scenario.config.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xEAE);
        let eval = mdp.evaluate(&result.policy, scenario.config.train_episode_len, 20, &mut rng);
        println!(
            "deterministic MF return over T={} epochs: {:.2} ± {:.2}",
            scenario.config.train_episode_len,
            eval.mean(),
            eval.ci95_half_width()
        );
    }

    result.checkpoint.save(&out).unwrap_or_else(|e| exit_failure(e));
    println!(
        "versioned checkpoint (format v{}, {} steps) written to {}",
        result.checkpoint.format_version,
        result.checkpoint.total_steps,
        out.display()
    );
}
