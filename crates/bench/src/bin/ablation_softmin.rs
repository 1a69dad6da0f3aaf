//! Ablation: how much of the learned policy's gain over JSQ(2)/RND is
//! mere RND↔JSQ interpolation, and how much is state feedback?
//!
//! For every Δt we (a) optimize the 1-parameter softmin(β) family in the
//! mean-field MDP (no state feedback: one fixed rule), and (b) evaluate
//! the trained PPO checkpoint if one exists. The difference MF − SOFT(β*)
//! isolates the value of conditioning on `(ν_t, λ_t)`.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin ablation_softmin -- [--scale quick|paper]
//! ```
//!
//! A second sanity shape from the paper: β* must fall as Δt grows
//! (the staler the information, the softer the optimal routing).

use mflb_bench::harness::{jsq_policy, load_mf_checkpoint, rnd_policy, Scale};
use mflb_bench::sweep::{Cell, Table};
use mflb_core::{MeanFieldMdp, SystemConfig};
use mflb_policy::optimize_beta;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let dt_grid = scale.dt_grid_fig5();
    let episodes = match scale {
        Scale::Quick => 40,
        Scale::Paper => 200,
    };

    let mut table = Table::new(
        &["dt", "beta*", "SOFT(b*)", "JSQ(2)", "RND", "MF (PPO)", "PPO-SOFT"],
        &[
            "dt",
            "beta_star",
            "softmin_drops",
            "jsq_drops",
            "rnd_drops",
            "ppo_drops",
            "feedback_gain",
        ],
    );
    let mut betas = Vec::new();
    for &dt in &dt_grid {
        let cfg = SystemConfig::paper().with_dt(dt);
        let horizon = cfg.eval_episode_len();
        let mdp = MeanFieldMdp::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(seed);

        let search = optimize_beta(&cfg, horizon.min(150), 10, seed);
        betas.push((dt, search.beta));
        let soft = mflb_policy::SoftminPolicy::new(cfg.num_states(), cfg.d, search.beta);
        let soft_eval = mdp.evaluate(&soft, horizon, episodes, &mut rng);
        let jsq_eval = mdp.evaluate(&jsq_policy(&cfg), horizon, episodes, &mut rng);
        let rnd_eval = mdp.evaluate(&rnd_policy(&cfg), horizon, episodes, &mut rng);

        let mut row = vec![Cell::text(dt), Cell::num(search.beta, 3, 3)];
        row.extend([&soft_eval, &jsq_eval, &rnd_eval].map(|e| Cell::num(-e.mean(), 2, 2)));
        row.extend(match load_mf_checkpoint(&cfg) {
            Ok(p) => {
                let e = mdp.evaluate(&p, horizon, episodes, &mut rng);
                let gain = -e.mean() - -soft_eval.mean();
                [Cell::num(-e.mean(), 2, 2), Cell::text(format!("{gain:+.2}"))]
            }
            Err(_) => [Cell::text("-"), Cell::text("-")],
        });
        table.push(row);
    }
    table.print(
        "Ablation: softmin(β*) vs JSQ(2) vs RND vs learned MF (mean-field drops, lower is better)",
    );
    table.write_csv(&format!("ablation_softmin_{}.csv", scale.label()));

    // Shape check: β* decreasing in Δt (allowing plateau noise).
    let monotone_violations = betas.windows(2).filter(|w| w[1].1 > w[0].1 + 0.35).count();
    println!(
        "\n[shape] beta* sequence {:?} — {}",
        betas.iter().map(|(_, b)| (*b * 1000.0).round() / 1000.0).collect::<Vec<_>>(),
        if monotone_violations == 0 {
            "OK: decreasing with delay (staler info -> softer routing)"
        } else {
            "WARNING: non-monotone"
        }
    );
}
