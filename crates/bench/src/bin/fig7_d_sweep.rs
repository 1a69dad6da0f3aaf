//! Extension experiment (ours): the effect of the power-of-`d` sample
//! size under synchronization delay.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig7_d_sweep -- [--scale quick|paper]
//! ```
//!
//! The paper fixes `d = 2` citing Mitzenmacher's classic result (d = 1 →
//! 2 is an exponential improvement, 2 → 3 adds little) — but that result
//! assumes *fresh* information. This sweep re-examines the choice under
//! delay: for each `d ∈ {1, 2, 3, 4}` it runs JSQ(d), RND and the
//! β-optimized softmin(d) on the finite system at small and intermediate
//! Δt. Expected shape: at Δt = 1, JSQ(2) ≫ JSQ(1) and JSQ(3) adds little
//! (the classic picture); at larger Δt, *bigger d makes JSQ worse* — more
//! samples concentrate the herd onto the same stale-shortest queues —
//! while the tuned softmin degrades gracefully.

use mflb_bench::harness::{print_table, write_csv, Scale};
use mflb_core::mdp::FixedRulePolicy;
use mflb_core::SystemConfig;
use mflb_policy::{jsq_rule, optimize_beta, rnd_rule, softmin_rule};
use mflb_sim::{monte_carlo, AggregateEngine};

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let n_runs = scale.n_runs();
    let m = scale.m_grid_fig5()[0];
    let dt_grid: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 5.0],
        Scale::Paper => vec![1.0, 3.0, 5.0, 10.0],
    };
    let d_grid = [1usize, 2, 3, 4];

    let mut all_rows = Vec::new();
    for &dt in &dt_grid {
        let mut rows = Vec::new();
        for &d in &d_grid {
            let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m).with_d(d);
            let zs = cfg.num_states();
            let horizon = cfg.eval_episode_len();
            let engine = AggregateEngine::new(cfg.clone());

            let beta = optimize_beta(&cfg, horizon.min(120), 8, seed).beta;
            let soft = FixedRulePolicy::new(softmin_rule(zs, d, beta), format!("SOFT(d={d})"));
            let jsq = FixedRulePolicy::new(jsq_rule(zs, d), format!("JSQ({d})"));
            let rnd = FixedRulePolicy::new(rnd_rule(zs, d), "RND");

            let r_jsq = monte_carlo(&engine, &jsq, horizon, n_runs, seed, 0);
            let r_rnd = monte_carlo(&engine, &rnd, horizon, n_runs, seed + 1, 0);
            let r_soft = monte_carlo(&engine, &soft, horizon, n_runs, seed + 2, 0);

            rows.push(vec![
                format!("{dt}"),
                format!("{d}"),
                format!("{:.2} ± {:.2}", r_jsq.mean(), r_jsq.ci95()),
                format!("{:.2} ± {:.2}", r_rnd.mean(), r_rnd.ci95()),
                format!("{:.2} ± {:.2}", r_soft.mean(), r_soft.ci95()),
                format!("{beta:.3}"),
            ]);
            all_rows.push(vec![
                format!("{dt}"),
                format!("{d}"),
                format!("{:.4}", r_jsq.mean()),
                format!("{:.4}", r_jsq.ci95()),
                format!("{:.4}", r_rnd.mean()),
                format!("{:.4}", r_rnd.ci95()),
                format!("{:.4}", r_soft.mean()),
                format!("{:.4}", r_soft.ci95()),
                format!("{beta:.4}"),
            ]);
        }
        print_table(
            &format!("Fig. 7 (ours, M = {m}, N = M²): drops vs d at Δt = {dt}"),
            &["dt", "d", "JSQ(d)", "RND", "SOFT(d, beta*)", "beta*"],
            &rows,
        );
    }
    write_csv(
        &format!("fig7_d_sweep_{}.csv", scale.label()),
        &["dt", "d", "jsq", "jsq_ci", "rnd", "rnd_ci", "soft", "soft_ci", "beta_star"],
        &all_rows,
    );

    // Qualitative shape summary.
    println!("\n[shape] JSQ(d) drops by d per Δt (does larger d help or herd?):");
    for &dt in &dt_grid {
        let per_d: Vec<(usize, f64)> = all_rows
            .iter()
            .filter(|r| r[0] == format!("{dt}"))
            .map(|r| (r[1].parse().unwrap(), r[2].parse().unwrap()))
            .collect();
        let trend: Vec<String> = per_d.iter().map(|(d, v)| format!("d={d}: {v:.1}")).collect();
        println!("  Δt={dt}: {}", trend.join("  "));
    }
}
