//! Locality experiment (ours, after arXiv:2312.12973): the effect of the
//! dispatcher neighborhood size under synchronization delay.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig_locality -- [--scale quick|paper]
//! ```
//!
//! For each ring reach `r` (accessible-set size `k = 2r + 1`) up to the
//! full mesh, JSQ(d), RND and the β-optimized softmin run Monte-Carlo
//! episodes of the locality-constrained finite system
//! ([`mflb_sim::GraphEngine`]), next to the degree-indexed mean-field
//! prediction for JSQ ([`mflb_core::mdp::Integrand::Graph`]).
//!
//! Expected shape: RND is locality-blind (a state-blind rule lands on a
//! uniformly random queue either way — tested in `mflb-core`), while
//! JSQ's dependence on `k` balances two opposing forces: a small
//! catchment caps how much of the stale-information herd can pile onto
//! one queue (the locality analogue of the paper's delay-herding effect)
//! but also shrinks the choice set. At the Table-1 operating point the
//! two roughly cancel; the herding cap dominates at small Δt. The
//! mean-field column is the annealed closure, which is not the ring's
//! limit at small `k`: it sits below the finite system by a gap that does
//! not shrink with `M` (quick scale: JSQ at `k = 3` is 35.70 finite
//! against 29.13 mean-field; at `M = 10⁴` and Δt = 5 it is 15.37 ± 0.05
//! against 13.26), and at Δt = 5 it ranks small rings ahead of the full
//! mesh where the engine ranks them behind.

use mflb_bench::harness::{fixed_rules, paper_config, Scale};
use mflb_bench::sweep::{run_policies, Cell, Table};
use mflb_core::mdp::{Integrand, MeanField, MeanFieldMdp};
use mflb_core::{Exponential, Topology};
use mflb_policy::optimize_beta;
use mflb_sim::GraphEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let dt: f64 = args.get("--dt");
    let (m, n_runs, mf_episodes) = match scale {
        Scale::Quick => (50usize, 10usize, 6usize),
        Scale::Paper => (100, 60, 24),
    };
    let radii: Vec<Option<usize>> = match scale {
        Scale::Quick => vec![Some(1), Some(2), Some(4), None], // None = full mesh
        Scale::Paper => vec![Some(1), Some(2), Some(4), Some(8), Some(16), None],
    };

    let cfg = paper_config(dt).with_m_squared(m);
    let horizon = cfg.eval_episode_len();
    let beta = optimize_beta(&cfg, horizon.min(120), 8, seed).beta;
    let [jsq, rnd, soft] = fixed_rules(&cfg, beta);

    let mut table = Table::new(
        &["topology", "k", "JSQ(d) finite", "JSQ(d) mean-field", "RND", "SOFT(β*)"],
        &["radius", "k", "jsq", "jsq_ci", "jsq_mf", "rnd", "rnd_ci", "soft", "soft_ci"],
    );
    let mut trend = Vec::new();
    for &radius in &radii {
        let (topology, label) = match radius {
            Some(r) => (Topology::Ring { radius: r }, format!("ring r={r}")),
            None => (Topology::FullMesh, "full mesh".to_string()),
        };
        let k = topology.neighborhood_size(m);
        let engine = GraphEngine::new(cfg.clone(), topology);
        let results = run_policies(&engine, &[&jsq, &rnd, &soft], horizon, n_runs, seed);
        let finite = |i: usize| Cell::mean_ci(results[i].mean(), results[i].ci95());
        // Mean-field prediction for the JSQ column (full mesh: k -> a size
        // large enough to be numerically at the limit).
        let mf_k = if radius.is_some() { k } else { 100_000 };
        let graph = MeanField::new(&cfg, Exponential, Integrand::Graph { k: mf_k });
        let mdp = MeanFieldMdp::with_closure(cfg.clone(), graph);
        let mf_rng = &mut StdRng::seed_from_u64(seed);
        let mf_jsq = -mdp.evaluate(&jsq, horizon, mf_episodes, mf_rng).mean();

        table.push(vec![
            Cell::text(label).print_only(),
            Cell::text(radius.unwrap_or(0)).csv_only(),
            Cell::text(k),
            finite(0),
            Cell::num(mf_jsq, 2, 4),
            finite(1),
            finite(2),
        ]);
        trend.push(format!("k={k}: {:.4}", results[0].mean()));
    }

    table.print(&format!(
        "Locality sweep (ours, M = {m}, N = M², Δt = {dt}, β* = {beta:.2}): \
         drops vs neighborhood size k"
    ));
    table.write_csv(&format!("fig_locality_{}.csv", scale.label()));

    println!("\n[shape] JSQ(d) drops by neighborhood size (does locality cap the herd?):");
    println!("  Δt={dt}: {}", trend.join("  "));
}
