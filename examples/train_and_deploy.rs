//! Train a mean-field policy with PPO, then deploy it to a finite system —
//! the paper's full offline-training / online-deployment loop (Fig. 2 +
//! Algorithm 1), at toy scale so it finishes in about a minute.
//!
//! This drives the scenario subsystem end to end, exactly like
//! `mflb train` / `mflb eval` do:
//! `Scenario → train_scenario → TrainingCheckpoint → finite-N engines`.
//!
//! ```text
//! cargo run --release --example train_and_deploy
//! ```

use mflb::core::mdp::FixedRulePolicy;
use mflb::core::{MeanFieldMdp, SystemConfig};
use mflb::policy::{jsq_rule, rnd_rule};
use mflb::rl::{train_scenario, PpoConfig, TrainingCheckpoint};
use mflb::sim::{monte_carlo, EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Short training episodes keep the demo fast; the real experiment uses
    // T = 500 (see `cargo run -p mflb-bench --release --bin fig3_training`).
    let mut config = SystemConfig::paper().with_dt(5.0).with_m_squared(100);
    config.train_episode_len = 100;
    let horizon = config.eval_episode_len();
    let scenario = Scenario::new(config.clone(), EngineSpec::Aggregate);

    // --- offline: PPO in the mean-field control MDP -----------------------
    // Variance-reduced demo settings: the rule fixes the epoch's drops
    // immediately, so a short credit horizon (γ = 0.9) keeps the optimum
    // while making minutes-scale training possible (the same trade as
    // `mflb_bench::training::ppo_config_for` at quick scale).
    let ppo = PpoConfig {
        gamma: 0.9,
        gae_lambda: 0.9,
        lr: 1e-3,
        kl_target: 0.02,
        train_batch_size: 3000,
        minibatch_size: 375,
        num_epochs: 10,
        hidden: vec![32, 32],
        initial_log_std: -0.5,
        rollout_threads: 4,
        ..PpoConfig::paper()
    };
    println!("training PPO on the MFC MDP (toy scale) ...");
    let result = train_scenario(&scenario, ppo, 45, 42, false).expect("training failed");
    for p in result.checkpoint.curve.iter().step_by(5) {
        println!(
            "  iter {:>3}  steps {:>7}  episode return {:>8.2}",
            p.iteration, p.steps, p.mean_return
        );
    }
    let learned = result.policy;

    // --- evaluation in the mean-field model --------------------------------
    let mdp = MeanFieldMdp::new(config.clone());
    let jsq = FixedRulePolicy::new(jsq_rule(config.num_states(), config.d), "JSQ(2)");
    let rnd = FixedRulePolicy::new(rnd_rule(config.num_states(), config.d), "RND");
    let mut rng = StdRng::seed_from_u64(43);
    println!("\nmean-field expected drops over Te = {horizon} epochs:");
    for (name, value) in [
        ("MF (learned)", -mdp.evaluate(&learned, horizon, 50, &mut rng).mean()),
        ("JSQ(2)", -mdp.evaluate(&jsq, horizon, 50, &mut rng).mean()),
        ("RND", -mdp.evaluate(&rnd, horizon, 50, &mut rng).mean()),
    ] {
        println!("  {name:<13} {value:6.2}");
    }

    // --- online: deploy the SAME policy object to the finite system -------
    println!(
        "\ndeploying to the finite system (N = {}, M = {}):",
        config.num_clients, config.num_queues
    );
    let engine = scenario.build().expect("valid scenario");
    for (name, mc) in [
        ("MF (learned)", monte_carlo(&engine, &learned, horizon, 15, 1, 0)),
        ("JSQ(2)", monte_carlo(&engine, &jsq, horizon, 15, 2, 0)),
        ("RND", monte_carlo(&engine, &rnd, horizon, 15, 3, 0)),
    ] {
        println!("  {name:<13} {:6.2} ± {:.2}", mc.mean(), mc.ci95());
    }

    // --- persistence: the versioned checkpoint -----------------------------
    let path = std::env::temp_dir().join("mflb_quick_policy.json");
    result.checkpoint.save(&path).unwrap();
    let reloaded = TrainingCheckpoint::load(&path).unwrap();
    let check = monte_carlo(&engine, &reloaded.into_policy().unwrap(), horizon, 5, 1, 0);
    println!(
        "\ncheckpoint round-trip via {} (format v{}, drops {:.2}) — same policy, ready for production.",
        path.display(),
        reloaded.format_version,
        check.mean()
    );
}
