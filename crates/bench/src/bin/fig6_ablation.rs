//! Regenerates Figure 6: the `N ⋡ M` ablation. The mean-field derivation
//! assumes N ≫ M; here the paper deliberately violates it with
//! (a) N = 1000, M = 1000 (N = M) and (b) N = 1000, M = 500 (N = 2M),
//! showing the MF policy still wins for intermediate-to-large delays.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig6_ablation -- [--scale quick|paper]
//! ```

use mflb_bench::harness::{jsq_policy, mf_policy_for, print_table, rnd_policy, write_csv, Scale};
use mflb_core::SystemConfig;
use mflb_sim::{monte_carlo, AggregateEngine};

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let n_runs = scale.n_runs();
    let dt_grid = scale.dt_grid_fig5();
    // (a) N = M = 1000; (b) N = 1000, M = 500.
    let size_grid: &[(u64, usize)] = &[(1000, 1000), (1000, 500)];

    let mut all_rows = Vec::new();
    for &(n, m) in size_grid {
        let mut rows = Vec::new();
        for &dt in &dt_grid {
            let cfg = SystemConfig::paper().with_dt(dt).with_size(n, m);
            let horizon = cfg.eval_episode_len();
            let engine = AggregateEngine::new(cfg.clone());

            let resolved = mf_policy_for(&cfg, horizon.min(120), seed);
            let mf = monte_carlo(&engine, resolved.policy.as_ref(), horizon, n_runs, seed, 0);
            let jsq = monte_carlo(&engine, &jsq_policy(&cfg), horizon, n_runs, seed + 1, 0);
            let rnd = monte_carlo(&engine, &rnd_policy(&cfg), horizon, n_runs, seed + 2, 0);

            rows.push(vec![
                format!("{n}"),
                format!("{m}"),
                format!("{dt}"),
                format!("{:.2} ± {:.2}", mf.mean(), mf.ci95()),
                format!("{:.2} ± {:.2}", jsq.mean(), jsq.ci95()),
                format!("{:.2} ± {:.2}", rnd.mean(), rnd.ci95()),
            ]);
            all_rows.push(vec![
                format!("{n}"),
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
            &format!("Figure 6 (N = {n}, M = {m}; N ⋡ M): total packets dropped vs Δt"),
            &["N", "M", "dt", "MF-NM", "JSQ(2)", "RND"],
            &rows,
        );
    }
    write_csv(
        &format!("fig6_ablation_{}.csv", scale.label()),
        &["N", "M", "dt", "mf", "mf_ci", "jsq", "jsq_ci", "rnd", "rnd_ci", "mf_policy"],
        &all_rows,
    );

    // The paper's observation: with N ⋡ M, RND is no longer flat in Δt
    // (queues get sampled unequally often); MF still dominates for larger
    // delays.
    println!("\n[shape] at the largest Δt, MF must beat both baselines:");
    for &(n, m) in size_grid {
        let last: Vec<&Vec<String>> =
            all_rows.iter().filter(|r| r[0] == format!("{n}") && r[1] == format!("{m}")).collect();
        if let Some(r) = last.last() {
            let (mf, jsq, rnd): (f64, f64, f64) =
                (r[3].parse().unwrap(), r[5].parse().unwrap(), r[7].parse().unwrap());
            println!(
                "  N={n} M={m} Δt={}: MF {:.2} vs JSQ {:.2} vs RND {:.2} -> {}",
                r[2],
                mf,
                jsq,
                rnd,
                if mf <= jsq && mf <= rnd { "OK" } else { "WARNING" }
            );
        }
    }
}
