//! Optimality-certification gate: quick-scale PPO training
//! must land within a pinned optimality gap of the exact DP oracle — a
//! much stronger quality bar than "beats RND" — on both the homogeneous
//! paper dynamics and the phase-type family, the oracle itself must pass
//! its Bellman-residual self-check, and distillation must stay within 5%
//! of the network it was projected from.

use mflb::rl::{
    distill_checkpoint, evaluate_checkpoint_with_oracle, solve_oracle, train_scenario,
    DistillConfig, OracleConfig, PpoConfig,
};
use mflb::sim::{monte_carlo, EngineSpec, Scenario, ServiceLaw};

/// The CLI's quick-scale preset, shortened: enough training to approach
/// the oracle, minutes not hours.
fn quick_ppo() -> PpoConfig {
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
        rollout_threads: 2,
        ..PpoConfig::paper()
    }
}

fn scenario_from_file(name: &str) -> Scenario {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Scenario::from_json(&text).unwrap()
}

fn quick_oracle(grid: usize) -> OracleConfig {
    OracleConfig { grid_resolution: grid, cache_dir: None, ..OracleConfig::default() }
}

/// Trains quick-scale, evaluates with the oracle and returns the learned
/// policy's optimality gap in percent.
fn learned_gap_pct(scenario: &Scenario, iters: usize) -> f64 {
    let result = train_scenario(scenario, quick_ppo(), iters, 1, false).expect("training failed");
    let report = evaluate_checkpoint_with_oracle(
        &result.checkpoint,
        scenario,
        &[],
        16,
        1,
        0,
        Some(&quick_oracle(6)),
    )
    .expect("evaluation failed");
    let gap = report.gap_pct_of("MF (learned)").expect("oracle evals must report a learned gap");
    println!("learned gap on {:?}: {gap:+.2}%", scenario.engine);
    gap
}

#[test]
fn oracle_passes_its_bellman_residual_self_check() {
    let scenario = scenario_from_file("oracle_tiny.json");
    let oracle = solve_oracle(&scenario, &quick_oracle(6)).expect("oracle solve failed");
    assert!(oracle.exactness.is_exact(), "the aggregate engine is an exact-oracle scenario");
    // The model-recomputed residual over the full lattice must agree with
    // the solver's convergence claim — a cached-or-fresh solution that
    // has not actually converged fails loudly here.
    let worst = oracle.max_bellman_residual(1);
    assert!(worst < 1e-5, "max Bellman residual {worst} betrays a non-converged solution");
}

#[test]
fn quick_scale_training_stays_within_the_pinned_gap_homogeneous() {
    let scenario = scenario_from_file("oracle_tiny.json");
    let gap = learned_gap_pct(&scenario, 60);
    // Pinned from seed-1 quick-scale runs (gap ≈ +26%; the oracle's tuned
    // softmin family is a strong bar at this training budget). A breach
    // means the training stack or the oracle regressed, not noise — every
    // RNG stream here is seeded.
    assert!(gap <= 35.0, "learned optimality gap {gap:+.2}% exceeds the pinned 35% ceiling");
}

#[test]
fn quick_scale_training_stays_within_the_pinned_gap_phase_type() {
    // The oracle is a mean-matched *reference* here (Erlang-2 service),
    // so the bar is looser: the gap is indicative, not a certificate.
    let scenario = Scenario::new(
        scenario_from_file("oracle_tiny.json").config,
        EngineSpec::Ph { service: ServiceLaw::Erlang { k: 2, rate: 2.0 } },
    );
    let gap = learned_gap_pct(&scenario, 60);
    // Pinned from seed-1 quick-scale runs (gap ≈ +24% against the
    // mean-matched reference).
    assert!(gap <= 35.0, "learned reference gap {gap:+.2}% exceeds the pinned 35% ceiling");
}

#[test]
fn distilled_table_stays_within_five_percent_of_its_source_network() {
    let scenario = scenario_from_file("oracle_tiny.json");
    let result = train_scenario(&scenario, quick_ppo(), 60, 1, false).expect("training failed");
    let config = DistillConfig { oracle: quick_oracle(6), ..DistillConfig::default() };
    let distilled =
        distill_checkpoint(&result.checkpoint, &scenario, &config).expect("distillation failed");

    let engine = scenario.build().expect("engine build failed");
    let horizon = scenario.config.eval_episode_len();
    let nn = result.checkpoint.into_policy().expect("checkpoint policy");
    let table = distilled.checkpoint.into_policy().expect("distilled policy");
    let mc_nn = monte_carlo(&engine, &nn, horizon, 16, 1, 0);
    let mc_table = monte_carlo(&engine, &table, horizon, 16, 1, 0);
    // "Within 5%" one-sided: the DP-polished table may well *beat* its
    // source network; it must not fall more than 5% behind it.
    assert!(
        mc_table.mean() <= mc_nn.mean() * 1.05,
        "distilled table ({:.3} drops/queue) fell more than 5% behind its source \
         network ({:.3})",
        mc_table.mean(),
        mc_nn.mean()
    );
}
