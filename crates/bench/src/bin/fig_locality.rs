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
//! mean-field column tracks the finite system to leading order (it is an
//! annealed closure, so expect a several-percent bias on lattices).

use mflb_bench::harness::{paper_config, print_table, write_csv, Scale};
use mflb_core::mdp::{FixedRulePolicy, Integrand, MeanField, MeanFieldMdp};
use mflb_core::{Exponential, Topology};
use mflb_policy::{jsq_rule, optimize_beta, rnd_rule, softmin_rule};
use mflb_sim::{monte_carlo, GraphEngine};
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
    let zs = cfg.num_states();
    let d = cfg.d;
    let horizon = cfg.eval_episode_len();
    let beta = optimize_beta(&cfg, horizon.min(120), 8, seed).beta;

    let jsq = FixedRulePolicy::new(jsq_rule(zs, d), "JSQ");
    let rnd = FixedRulePolicy::new(rnd_rule(zs, d), "RND");
    let soft = FixedRulePolicy::new(softmin_rule(zs, d, beta), "SOFT");

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &radius in &radii {
        let (topology, label) = match radius {
            Some(r) => (Topology::Ring { radius: r }, format!("ring r={r}")),
            None => (Topology::FullMesh, "full mesh".to_string()),
        };
        let k = topology.neighborhood_size(m);
        let engine = GraphEngine::new(cfg.clone(), topology);

        let r_jsq = monte_carlo(&engine, &jsq, horizon, n_runs, seed, 0);
        let r_rnd = monte_carlo(&engine, &rnd, horizon, n_runs, seed + 1, 0);
        let r_soft = monte_carlo(&engine, &soft, horizon, n_runs, seed + 2, 0);
        // Mean-field prediction for the JSQ column (full mesh: k -> a size
        // large enough to be numerically at the limit).
        let mf_k = if radius.is_some() { k } else { 100_000 };
        let graph = MeanField::new(&cfg, Exponential, Integrand::Graph { k: mf_k });
        let mdp = MeanFieldMdp::with_closure(cfg.clone(), graph);
        let mf_rng = &mut StdRng::seed_from_u64(seed);
        let mf_jsq = -mdp.evaluate(&jsq, horizon, mf_episodes, mf_rng).mean();

        rows.push(vec![
            label.clone(),
            format!("{k}"),
            format!("{:.2} ± {:.2}", r_jsq.mean(), r_jsq.ci95()),
            format!("{mf_jsq:.2}"),
            format!("{:.2} ± {:.2}", r_rnd.mean(), r_rnd.ci95()),
            format!("{:.2} ± {:.2}", r_soft.mean(), r_soft.ci95()),
        ]);
        csv.push(vec![
            format!("{}", radius.map_or(0, |r| r)),
            format!("{k}"),
            format!("{:.4}", r_jsq.mean()),
            format!("{:.4}", r_jsq.ci95()),
            format!("{mf_jsq:.4}"),
            format!("{:.4}", r_rnd.mean()),
            format!("{:.4}", r_rnd.ci95()),
            format!("{:.4}", r_soft.mean()),
            format!("{:.4}", r_soft.ci95()),
        ]);
    }

    print_table(
        &format!(
            "Locality sweep (ours, M = {m}, N = M², Δt = {dt}, β* = {beta:.2}): \
             drops vs neighborhood size k"
        ),
        &["topology", "k", "JSQ(d) finite", "JSQ(d) mean-field", "RND", "SOFT(β*)"],
        &rows,
    );
    write_csv(
        &format!("fig_locality_{}.csv", scale.label()),
        &["radius", "k", "jsq", "jsq_ci", "jsq_mf", "rnd", "rnd_ci", "soft", "soft_ci"],
        &csv,
    );

    println!("\n[shape] JSQ(d) drops by neighborhood size (does locality cap the herd?):");
    let trend: Vec<String> = csv.iter().map(|r| format!("k={}: {}", r[1], r[2])).collect();
    println!("  Δt={dt}: {}", trend.join("  "));
}
