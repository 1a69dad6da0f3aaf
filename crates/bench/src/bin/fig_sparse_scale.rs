//! Million-queue scaling demo (ours, after arXiv:2312.12973): sharded
//! sparse-graph epochs from 10^4 to 10^6 queues on a single process.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig_sparse_scale -- [--scale quick|paper]
//! ```
//!
//! For each system size the harness builds a torus and a random 4-regular
//! topology (streaming CSR generators), runs a seeded finite-system
//! episode under the β-optimized softmin rule on the sharded
//! [`mflb_sim::GraphEngine`], and reports build plus epoch-stepping
//! throughput (`epochs/s` and `queues·epochs/s`) next to the measured
//! drop rate. The `queues·epochs/s` column is the headline: it stays
//! roughly flat from 10^4 to 10^6 queues because a sharded epoch is
//! `O(M·(k + |support|^d·d))` — nothing in the hot loop looks at `N` or
//! at the dense `|Z|^d` tuple space. The tracked-gate twin of this demo
//! lives in `mflb bench --suite graph` (`BENCH_graph_quick.json`).

use mflb_bench::harness::Scale;
use mflb_bench::sweep::{Cell, Table};
use mflb_core::mdp::FixedRulePolicy;
use mflb_core::{SystemConfig, Topology};
use mflb_policy::{optimize_beta, softmin_rule};
use mflb_sim::{run_episode, run_rng, GraphEngine};
use std::time::Instant;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let workers: usize = args.get("--workers");
    // (queues, torus side, epochs): torus sizes are the nearest squares.
    let cases: Vec<(usize, usize, usize)> = match scale {
        Scale::Quick => vec![(10_000, 100, 50), (100_000, 316, 10), (1_000_000, 1_000, 5)],
        Scale::Paper => vec![(10_000, 100, 200), (100_000, 316, 60), (1_000_000, 1_000, 20)],
    };

    // β from the (size-independent) mean-field sweep at the Table-1 point.
    let base_cfg = SystemConfig::paper().with_dt(5.0);
    let zs = base_cfg.num_states();
    let d = base_cfg.d;
    let beta = optimize_beta(&base_cfg, 60, 8, seed).beta;
    let policy = FixedRulePolicy::new(softmin_rule(zs, d, beta), "SOFT");

    let mut table = Table::new(
        &[
            "topology",
            "M",
            "k",
            "epochs",
            "build s",
            "episode s",
            "epochs/s",
            "Mq·epochs/s",
            "drops",
        ],
        &[
            "topology",
            "m",
            "k",
            "epochs",
            "build_s",
            "wall_s",
            "epochs_per_s",
            "q_epochs_per_s",
            "drops",
        ],
    );
    let mut trend = Vec::new();
    for &(m, side, epochs) in &cases {
        for (topology, label, m_eff) in [
            (Topology::Torus { radius: 1 }, "torus r=1", side * side),
            (Topology::RandomRegular { degree: 4, seed: 11 }, "random 4-reg", m),
        ] {
            let cfg = base_cfg.clone().with_size(4 * m_eff as u64, m_eff);
            let t0 = Instant::now();
            let engine = GraphEngine::new(cfg, topology).with_workers(workers);
            let build_s = t0.elapsed().as_secs_f64();
            let k = engine.neighborhood_size();

            let t1 = Instant::now();
            let out = run_episode(&engine, &policy, epochs, &mut run_rng(seed, 1));
            let wall_s = t1.elapsed().as_secs_f64();
            let eps = epochs as f64 / wall_s;
            let qeps = m_eff as f64 * eps;

            table.push(vec![
                Cell::text(label).print_only(),
                Cell::text(label.replace(' ', "_")).csv_only(),
                Cell::text(m_eff),
                Cell::text(k),
                Cell::text(epochs),
                Cell::num(build_s, 2, 4),
                Cell::num(wall_s, 2, 4),
                Cell::num(eps, 1, 2),
                Cell::num(qeps / 1e6, 2, 2).print_only(),
                Cell::num(qeps, 0, 0).csv_only(),
                Cell::num(out.total_drops, 3, 4),
            ]);
            trend.push(format!("{} M={m_eff}: {qeps:.0}", label.replace(' ', "_")));
        }
    }

    table.print(&format!(
        "Sparse-graph scaling (N = 4M, Δt = 5, β* = {beta:.2}, sharded engine, \
             workers = {})",
        if workers == 0 { "auto".to_string() } else { workers.to_string() }
    ));
    table.write_csv(&format!("fig_sparse_scale_{}.csv", scale.label()));

    println!("\n[shape] q·epochs/s should stay ~flat across three decades of M:");
    println!("  {}", trend.join("  "));
}
