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

use mflb_bench::harness::{fixed_rules, Scale};
use mflb_bench::sweep::{run_policies, Cell, Table};
use mflb_core::SystemConfig;
use mflb_policy::optimize_beta;
use mflb_sim::AggregateEngine;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let m = scale.m_grid_fig5()[0];
    let dt_grid: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 5.0],
        Scale::Paper => vec![1.0, 3.0, 5.0, 10.0],
    };
    let d_grid = [1usize, 2, 3, 4];

    let mut table = Table::new(
        &["dt", "d", "JSQ(d)", "RND", "SOFT(d, beta*)", "beta*"],
        &["dt", "d", "jsq", "jsq_ci", "rnd", "rnd_ci", "soft", "soft_ci", "beta_star"],
    );
    let mut jsq_drops = Vec::new();
    for &dt in &dt_grid {
        for &d in &d_grid {
            let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m).with_d(d);
            let horizon = cfg.eval_episode_len();
            let beta = optimize_beta(&cfg, horizon.min(120), 8, seed).beta;
            let [jsq, rnd, soft] = fixed_rules(&cfg, beta);
            let engine = AggregateEngine::new(cfg);
            let results =
                run_policies(&engine, &[&jsq, &rnd, &soft], horizon, scale.n_runs(), seed);

            let mut row = vec![Cell::text(dt), Cell::text(d)];
            row.extend(results.iter().map(|r| Cell::mean_ci(r.mean(), r.ci95())));
            row.push(Cell::num(beta, 3, 4));
            table.push(row);
            jsq_drops.push(results[0].mean());
        }
        table.print(&format!("Fig. 7 (ours, M = {m}, N = M²): drops vs d at Δt = {dt}"));
    }
    table.write_csv(&format!("fig7_d_sweep_{}.csv", scale.label()));

    // Qualitative shape summary.
    println!("\n[shape] JSQ(d) drops by d per Δt (does larger d help or herd?):");
    for (&dt, per_d) in dt_grid.iter().zip(jsq_drops.chunks(d_grid.len())) {
        let trend: Vec<String> =
            d_grid.iter().zip(per_d).map(|(d, v)| format!("d={d}: {v:.1}")).collect();
        println!("  Δt={dt}: {}", trend.join("  "));
    }
}
