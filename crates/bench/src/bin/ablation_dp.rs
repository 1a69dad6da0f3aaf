//! Extension experiment (ours): how close do the learned policies get to
//! a certified optimum?
//!
//! ```text
//! cargo run -p mflb-bench --release --bin ablation_dp -- [--scale quick|paper]
//! ```
//!
//! For each synchronization delay Δt, solves the discretized MFC MDP
//! *exactly* (value iteration on a simplex lattice with linear-exact
//! interpolation, softmin action library — `mflb-dp`) and evaluates the
//! greedy DP policy in the **continuous** mean-field MDP against:
//!
//! * the resolved MF policy (PPO checkpoint or softmin-β*, whichever the
//!   harness deploys),
//! * MF-JSQ(2) and MF-RND (the paper's baselines).
//!
//! All policies share common arrival sequences, so differences are exact
//! up to lattice resolution. Expected shape: DP ≥ MF ≥ max(JSQ, RND)
//! everywhere, with DP ≈ MF at small and large Δt (constant rules
//! suffice) and the DP/constant-rule gap widening at intermediate Δt —
//! quantifying the value of ν-feedback that the paper attributes to the
//! learned policy.

use mflb_bench::harness::{jsq_policy, mf_policy_for, rnd_policy, Scale};
use mflb_bench::sweep::{Cell, Table};
use mflb_core::{MeanFieldMdp, SystemConfig};
use mflb_dp::{ActionLibrary, DpConfig, DpSolution};
use mflb_linalg::stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let (grid_resolution, dt_grid, episodes): (usize, Vec<f64>, usize) = match scale {
        Scale::Quick => (8, vec![1.0, 5.0, 10.0], 12),
        Scale::Paper => (14, vec![1.0, 3.0, 5.0, 7.0, 10.0], 40),
    };

    let mut table = Table::new(
        &["dt", "DP", "MF", "JSQ(2)", "RND", "DP-MF gap", "dp solve", "mf-policy"],
        &["dt", "dp", "mf", "jsq", "rnd", "grid_resolution", "mf_policy"],
    );
    for &dt in &dt_grid {
        let cfg = SystemConfig::paper().with_dt(dt);
        let zs = cfg.num_states();
        let horizon = cfg.eval_episode_len();
        let mdp = MeanFieldMdp::new(cfg.clone());

        // Exact DP over the softmin family.
        let t0 = std::time::Instant::now();
        let dp_cfg = DpConfig { grid_resolution, tol: 1e-6, max_sweeps: 4000, threads: 0 };
        let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &dp_cfg);
        let solve_secs = t0.elapsed().as_secs_f64();
        let sweeps = sol.sweeps;
        let dp_policy = sol.into_policy();

        let resolved = mf_policy_for(&cfg, horizon.min(120), seed);
        let jsq = jsq_policy(&cfg);
        let rnd = rnd_policy(&cfg);

        // Common arrival sequences for all four policies.
        let mut rng = StdRng::seed_from_u64(seed ^ (dt as u64));
        let seqs: Vec<Vec<usize>> = (0..episodes)
            .map(|_| mflb_core::theory::sample_lambda_sequence(&cfg, horizon, &mut rng))
            .collect();
        let eval = |policy: &dyn mflb_core::UpperPolicy| -> Summary {
            let mut s = Summary::new();
            for seq in &seqs {
                s.push(mdp.rollout_conditioned(policy, seq).total_return);
            }
            s
        };
        let v_dp = eval(&dp_policy);
        let v_mf = eval(resolved.policy.as_ref());
        let v_jsq = eval(&jsq);
        let v_rnd = eval(&rnd);

        let mut row = vec![Cell::text(dt)];
        row.extend([&v_dp, &v_mf, &v_jsq, &v_rnd].map(|v| Cell::num(v.mean(), 2, 4)));
        row.extend([
            Cell::num(v_dp.mean() - v_mf.mean(), 2, 2).print_only(),
            Cell::text(format!("{sweeps} it / {solve_secs:.1}s")).print_only(),
            Cell::text(grid_resolution).csv_only(),
            Cell::text(resolved.provenance),
        ]);
        table.push(row);
    }
    table.print(&format!(
        "DP ablation (B = 5, lattice G = {grid_resolution}): mean episode return (higher is better)"
    ));
    table.write_csv(&format!("ablation_dp_{}.csv", scale.label()));

    println!("\n[shape] DP should dominate every column; the DP−MF gap is the");
    println!("        value of exact ν-feedback the deployed policy leaves behind.");
}
