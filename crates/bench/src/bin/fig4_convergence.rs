//! Regenerates Figure 4: convergence of the finite-system performance of
//! the MF policy to the mean-field (MFC MDP) value as the system grows
//! (`N = M²`, M ∈ {100, …, 1000}), for Δt ∈ {1, 3, 5, 7, 10}.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig4_convergence -- [--scale quick|paper]
//! ```
//!
//! For each Δt the binary prints the mean-field value ("MF-MFC", the red
//! dotted line) and one row per M with the finite-system estimate
//! ("MF-NM") ± 95% CI, plus the absolute gap — the empirical Theorem 1.

use mflb_bench::harness::{mf_policy_for, Scale};
use mflb_bench::sweep::{Cell, Table};
use mflb_core::{MeanFieldMdp, SystemConfig};
use mflb_sim::{monte_carlo, AggregateEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let n_runs = scale.n_runs();
    let m_grid = scale.m_grid_fig4();
    let dt_grid = scale.dt_grid_fig4();

    let mut table = Table::new(
        &["dt", "M", "N", "MF-NM drops", "ci95", "MF-MFC drops", "|gap|", "policy"],
        &["dt", "M", "N", "mf_nm_drops", "ci95", "mf_mfc_drops", "abs_gap", "policy"],
    );
    for &dt in &dt_grid {
        let base = SystemConfig::paper().with_dt(dt);
        let horizon = base.eval_episode_len();
        let resolved = mf_policy_for(&base, horizon.min(120), seed);
        println!(
            "\nΔt = {dt}: MF policy = {} [{}], Te = {horizon} epochs, n = {n_runs}",
            resolved.policy.name(),
            resolved.provenance
        );

        // Mean-field value (limiting system): Monte-Carlo over arrival
        // sequences only (the ν-dynamics are deterministic).
        let mdp = MeanFieldMdp::new(base.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF164);
        let mf_eval = mdp.evaluate(resolved.policy.as_ref(), horizon, 200, &mut rng);
        let mf_drops = -mf_eval.mean();

        let mut gaps = Vec::new();
        for &m in &m_grid {
            let cfg = base.clone().with_m_squared(m);
            let engine = AggregateEngine::new(cfg.clone());
            let mc = monte_carlo(&engine, resolved.policy.as_ref(), horizon, n_runs, seed, 0);
            let gap = (mc.mean() - mf_drops).abs();
            gaps.push(gap);
            table.push(vec![
                Cell::text(dt),
                Cell::text(m),
                Cell::text(cfg.num_clients),
                Cell::num(mc.mean(), 3, 3),
                Cell::num(mc.ci95(), 3, 3),
                Cell::num(mf_drops, 3, 3),
                Cell::num(gap, 3, 3),
                Cell::text(&resolved.provenance),
            ]);
        }
        table.print(&format!("Figure 4 (Δt = {dt}): average packet drops, MF-NM vs MF-MFC"));
        // Theorem-1 shape note: compare first vs last gap.
        if let [first_gap, .., last_gap] = gaps[..] {
            println!(
                "[shape] gap M={} -> M={}: {:.3} -> {:.3} ({})",
                m_grid.first().unwrap(),
                m_grid.last().unwrap(),
                first_gap,
                last_gap,
                if last_gap <= first_gap + 0.15 { "OK: shrinking/stable" } else { "WARNING: grew" }
            );
        }
    }
    table.write_csv(&format!("fig4_convergence_{}.csv", scale.label()));
}
