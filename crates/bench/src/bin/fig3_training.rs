//! Regenerates Figure 3: the PPO training curve in the MFC MDP at Δt = 5,
//! compared against the MF-JSQ(2) and MF-RND fixed-rule baselines and the
//! final deterministic MF return.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig3_training -- \
//!     [--scale quick|paper] [--dt 5] [--threads 8] [--seed 1]
//! ```
//!
//! Prints `(timesteps, episode return)` pairs (the paper's axes), the two
//! horizontal baselines and the red-dotted "MF final performance" line;
//! writes `target/experiments/fig3_training_curve.csv`. At quick scale the
//! learning curve is shorter than the paper's 2.5·10⁷ steps, but the
//! qualitative shape — starting near MF-RND, climbing past it towards and
//! beyond MF-JSQ(2) — is preserved.

use mflb_bench::harness::{
    checkpoint_path, jsq_policy, load_mf_checkpoint, paper_config, rnd_policy, Scale,
};
use mflb_bench::sweep::{Cell, Table};
use mflb_bench::training::{iterations_for, ppo_config_for};
use mflb_core::MeanFieldMdp;
use mflb_rl::train_scenario;
use mflb_sim::{EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let dt: f64 = args.get("--dt");
    let threads: usize = args.get("--threads");
    let seed: u64 = args.get("--seed");
    let iters: usize = args.get_or("--iters", iterations_for(scale));

    let config = paper_config(dt);
    let horizon = config.train_episode_len; // T = 500 epochs, as in Fig. 3
    let mdp = MeanFieldMdp::new(config.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF163);

    // Baselines (horizontal lines in the figure).
    let eval_episodes = match scale {
        Scale::Quick => 20,
        Scale::Paper => 100,
    };
    let jsq = mdp.evaluate(&jsq_policy(&config), horizon, eval_episodes, &mut rng);
    let rnd = mdp.evaluate(&rnd_policy(&config), horizon, eval_episodes, &mut rng);
    println!("MF-JSQ(2) expected episode return: {:.2} ± {:.2}", jsq.mean(), jsq.ci95_half_width());
    println!("MF-RND    expected episode return: {:.2} ± {:.2}", rnd.mean(), rnd.ci95_half_width());

    // Training, through the scenario subsystem (same path as `mflb train`).
    println!("\ntraining (scale={}, {iters} iterations) ...", scale.label());
    let ppo = ppo_config_for(scale, threads);
    let scenario = Scenario::new(config.clone(), EngineSpec::Aggregate);
    let result = train_scenario(&scenario, ppo, iters, seed, true).expect("training failed");
    let (policy, curve) = (result.policy, result.checkpoint.curve.clone());

    // Final deterministic performance (red dotted line).
    let final_eval = mdp.evaluate(&policy, horizon, eval_episodes, &mut rng);
    println!(
        "\nMF final deterministic return: {:.2} ± {:.2}",
        final_eval.mean(),
        final_eval.ci95_half_width()
    );

    // Save the checkpoint so fig4-6 pick it up — but never clobber a
    // better previously trained one (e.g. a longer train_policy run).
    let ckpt = checkpoint_path(dt);
    if let Some(parent) = ckpt.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let existing_better = match load_mf_checkpoint(&config).ok() {
        Some(old) => {
            let old_eval = mdp.evaluate(&old, horizon, eval_episodes, &mut rng);
            old_eval.mean() >= final_eval.mean()
        }
        None => false,
    };
    if existing_better {
        println!(
            "existing checkpoint at {} evaluates at least as well; keeping it",
            ckpt.display()
        );
    } else {
        result.checkpoint.save(&ckpt).expect("save checkpoint");
        println!("versioned checkpoint saved to {}", ckpt.display());
    }

    // Emit the curve (sub-sampled for the console, full in the CSV).
    let mut table = Table::new(
        &["timesteps", "episode return", "KL", "entropy"],
        &["timesteps", "episode_return", "kl", "entropy"],
    );
    for p in &curve {
        table.push(vec![
            Cell::text(p.steps),
            Cell::num(p.mean_return, 3, 3),
            Cell::num(p.kl, 5, 5),
            Cell::num(p.entropy, 2, 2),
        ]);
    }
    table
        .every((curve.len() / 20).max(1))
        .print(&format!("Figure 3: MF training curve (Δt = {dt}, T = {horizon})"));
    // Terminal rendering of the figure: training curve against the two
    // horizontal baselines.
    let returns: Vec<f64> = curve.iter().map(|p| p.mean_return).collect();
    if returns.len() >= 2 {
        let jsq_line = vec![jsq.mean(); returns.len()];
        let rnd_line = vec![rnd.mean(); returns.len()];
        println!(
            "\n{}",
            mflb_bench::chart::line_chart(
                &format!("episode return vs training steps (Δt = {dt})"),
                &[("MF training", &returns), ("MF-JSQ(2)", &jsq_line), ("MF-RND", &rnd_line)],
                72,
                16,
            )
        );
    }

    // Append baseline markers so the CSV is self-contained for plotting.
    for (label, value) in
        [("baseline:MF-JSQ(2)", &jsq), ("baseline:MF-RND", &rnd), ("final:MF", &final_eval)]
    {
        table.push(vec![
            Cell::text(label),
            Cell::num(value.mean(), 3, 3),
            Cell::text(""),
            Cell::text(""),
        ]);
    }
    table.write_csv("fig3_training_curve.csv");

    // Qualitative check mirrored from the figure: learning must end above
    // the MF-RND baseline.
    if final_eval.mean() > rnd.mean() {
        println!(
            "[shape] OK: learned MF beats MF-RND ({:.2} > {:.2})",
            final_eval.mean(),
            rnd.mean()
        );
    } else {
        println!(
            "[shape] WARNING: learned MF did not beat MF-RND at this scale ({:.2} <= {:.2})",
            final_eval.mean(),
            rnd.mean()
        );
    }
}
