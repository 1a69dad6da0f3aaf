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

use mflb_bench::harness::Scale;
use mflb_bench::sweep::{delay_sweep, Cell, Table};

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let m_grid = scale.m_grid_fig5();
    let sizes: Vec<(u64, usize)> = m_grid.iter().map(|&m| ((m * m) as u64, m)).collect();
    let points = delay_sweep(&sizes, scale, seed);
    let panels: Vec<_> = points.chunks(scale.dt_grid_fig5().len()).collect();

    let mut table = Table::new(
        &["M", "dt", "MF-NM", "JSQ(2)", "RND", "mf-policy"],
        &["M", "dt", "mf", "mf_ci", "jsq", "jsq_ci", "rnd", "rnd_ci", "mf_policy"],
    );
    for (&m, panel) in m_grid.iter().zip(&panels) {
        for p in *panel {
            let mut row = vec![Cell::text(m), Cell::text(p.dt)];
            row.extend(p.results.iter().map(|r| Cell::mean_ci(r.mean(), r.ci95())));
            row.push(Cell::text(&p.provenance));
            table.push(row);
        }
        table.print(&format!("Figure 5 (M = {m}, N = M²): total packets dropped vs Δt"));
        // Terminal rendering of this panel.
        let col = |i: usize| -> Vec<f64> { panel.iter().map(|p| p.results[i].mean()).collect() };
        let (mf, jsq, rnd) = (col(0), col(1), col(2));
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
    table.write_csv(&format!("fig5_delay_sweep_{}.csv", scale.label()));

    // Qualitative crossover summary per M.
    println!("\n[shape] crossover check (first Δt where MF < JSQ(2)):");
    for (&m, panel) in m_grid.iter().zip(&panels) {
        let cross = panel.iter().find(|p| p.results[0].mean() < p.results[1].mean());
        println!("  M={m}: {}", cross.map_or_else(|| "none in grid".into(), |p| p.dt.to_string()));
    }
}
