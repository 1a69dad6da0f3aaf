//! Regenerates Figure 5: total packets dropped (per queue, accumulated
//! over ≈500 time units) of the MF policy vs JSQ(2) vs RND as the
//! synchronization delay Δt grows, for M ∈ {400, 600, 800, 1000} and
//! N = M².
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig5_delay_sweep -- [--scale quick|paper]
//! ```
//!
//! The paper's qualitative findings checked here: (i) all policies degrade
//! as Δt rises; (ii) MF ≥ JSQ(2) from intermediate delays (Δt ≳ 3) while
//! JSQ(2) wins for tiny delays; (iii) MF beats RND everywhere.

use mflb_bench::harness::{jsq_policy, mf_policy_for, print_table, rnd_policy, write_csv, Scale};
use mflb_core::SystemConfig;
use mflb_sim::{monte_carlo, AggregateEngine};

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let n_runs = scale.n_runs();
    let dt_grid = scale.dt_grid_fig5();
    let m_grid = scale.m_grid_fig5();

    let mut all_rows = Vec::new();
    for &m in &m_grid {
        let mut rows = Vec::new();
        for &dt in &dt_grid {
            let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m);
            let horizon = cfg.eval_episode_len();
            let engine = AggregateEngine::new(cfg.clone());

            let resolved = mf_policy_for(&cfg, horizon.min(120), seed);
            let mf = monte_carlo(&engine, resolved.policy.as_ref(), horizon, n_runs, seed, 0);
            let jsq = monte_carlo(&engine, &jsq_policy(&cfg), horizon, n_runs, seed + 1, 0);
            let rnd = monte_carlo(&engine, &rnd_policy(&cfg), horizon, n_runs, seed + 2, 0);

            rows.push(vec![
                format!("{m}"),
                format!("{dt}"),
                format!("{:.2} ± {:.2}", mf.mean(), mf.ci95()),
                format!("{:.2} ± {:.2}", jsq.mean(), jsq.ci95()),
                format!("{:.2} ± {:.2}", rnd.mean(), rnd.ci95()),
                resolved.provenance.clone(),
            ]);
            all_rows.push(vec![
                format!("{m}"),
                format!("{dt}"),
                format!("{:.4}", mf.mean()),
                format!("{:.4}", mf.ci95()),
                format!("{:.4}", jsq.mean()),
                format!("{:.4}", jsq.ci95()),
                format!("{:.4}", rnd.mean()),
                format!("{:.4}", rnd.ci95()),
                resolved.provenance.clone(),
            ]);
        }
        print_table(
            &format!("Figure 5 (M = {m}, N = M²): total packets dropped vs Δt"),
            &["M", "dt", "MF-NM", "JSQ(2)", "RND", "mf-policy"],
            &rows,
        );
        // Terminal rendering of this panel.
        let col = |i: usize| -> Vec<f64> {
            all_rows
                .iter()
                .filter(|r| r[0] == format!("{m}"))
                .map(|r| r[i].parse::<f64>().unwrap())
                .collect()
        };
        let (mf, jsq, rnd) = (col(2), col(4), col(6));
        println!(
            "\n{}",
            mflb_bench::chart::line_chart(
                &format!("drops vs Δt (M = {m}): lower is better"),
                &[("MF", &mf), ("JSQ(2)", &jsq), ("RND", &rnd)],
                64,
                14,
            )
        );
    }
    write_csv(
        &format!("fig5_delay_sweep_{}.csv", scale.label()),
        &["M", "dt", "mf", "mf_ci", "jsq", "jsq_ci", "rnd", "rnd_ci", "mf_policy"],
        &all_rows,
    );

    // Qualitative crossover summary per M.
    println!("\n[shape] crossover check (first Δt where MF < JSQ(2)):");
    for &m in &m_grid {
        let cross = all_rows
            .iter()
            .filter(|r| r[0] == format!("{m}"))
            .find(|r| r[2].parse::<f64>().unwrap() < r[4].parse::<f64>().unwrap())
            .map(|r| r[1].clone());
        println!("  M={m}: {}", cross.unwrap_or_else(|| "none in grid".into()));
    }
}
