//! Regenerates Figure 6: the `N ⋡ M` ablation. The mean-field derivation
//! assumes N ≫ M; here the paper deliberately violates it with
//! (a) N = 1000, M = 1000 (N = M) and (b) N = 1000, M = 500 (N = 2M),
//! showing the MF policy still wins for intermediate-to-large delays.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig6_ablation -- [--scale quick|paper]
//! ```

use mflb_bench::harness::Scale;
use mflb_bench::sweep::{delay_sweep, Cell, Table};

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    // (a) N = M = 1000; (b) N = 1000, M = 500.
    let points = delay_sweep(&[(1000, 1000), (1000, 500)], scale, seed);
    let panels: Vec<_> = points.chunks(scale.dt_grid_fig5().len()).collect();

    let mut table = Table::new(
        &["N", "M", "dt", "MF-NM", "JSQ(2)", "RND"],
        &["N", "M", "dt", "mf", "mf_ci", "jsq", "jsq_ci", "rnd", "rnd_ci", "mf_policy"],
    );
    for panel in &panels {
        let (n, m) = (panel[0].n, panel[0].m);
        for p in *panel {
            let mut row = vec![Cell::text(n), Cell::text(m), Cell::text(p.dt)];
            row.extend(p.results.iter().map(|r| Cell::mean_ci(r.mean(), r.ci95())));
            row.push(Cell::text(&p.provenance).csv_only());
            table.push(row);
        }
        table.print(&format!("Figure 6 (N = {n}, M = {m}; N ⋡ M): total packets dropped vs Δt"));
    }
    table.write_csv(&format!("fig6_ablation_{}.csv", scale.label()));

    // The paper's observation: with N ⋡ M, RND is no longer flat in Δt
    // (queues get sampled unequally often); MF still dominates for larger
    // delays.
    println!("\n[shape] at the largest Δt, MF must beat both baselines:");
    for p in panels.iter().filter_map(|panel| panel.last()) {
        let [mf, jsq, rnd] = [0, 1, 2].map(|i| p.results[i].mean());
        println!(
            "  N={} M={} Δt={}: MF {mf:.2} vs JSQ {jsq:.2} vs RND {rnd:.2} -> {}",
            p.n,
            p.m,
            p.dt,
            if mf <= jsq && mf <= rnd { "OK" } else { "WARNING" }
        );
    }
}
