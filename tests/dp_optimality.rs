//! Cross-crate integration tests for the exact-DP yardstick: the lattice
//! value-iteration policy (`mflb-dp`) must dominate the paper's
//! baselines in the continuous mean-field MDP *and* carry that advantage
//! onto the finite system (`mflb-sim`).

use mflb::core::mdp::FixedRulePolicy;
use mflb::core::{MeanFieldMdp, StateDist, SystemConfig};
use mflb::dp::{ActionLibrary, DpConfig, DpSolution};
use mflb::policy::{jsq_rule, optimize_beta, rnd_rule, softmin_rule};
use mflb::sim::{monte_carlo, AggregateEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dp_policy(cfg: &SystemConfig, g: usize) -> mflb::dp::GridPolicy {
    let dp_cfg = DpConfig { grid_resolution: g, tol: 1e-7, max_sweeps: 4000, threads: 0 };
    DpSolution::solve(cfg, ActionLibrary::softmin_default(cfg.num_states(), cfg.d), &dp_cfg)
        .into_policy()
}

#[test]
fn dp_dominates_baselines_in_continuous_mdp() {
    let cfg = SystemConfig::paper().with_dt(5.0);
    let zs = cfg.num_states();
    let dp = dp_policy(&cfg, 8);
    let mdp = MeanFieldMdp::new(cfg.clone());
    let jsq = FixedRulePolicy::new(jsq_rule(zs, cfg.d), "MF-JSQ(2)");
    let rnd = FixedRulePolicy::new(rnd_rule(zs, cfg.d), "MF-RND");
    let mut rng = StdRng::seed_from_u64(1);
    let horizon = 80;
    let (mut v_dp, mut v_jsq, mut v_rnd) = (0.0, 0.0, 0.0);
    for _ in 0..10 {
        let seq = mflb::core::theory::sample_lambda_sequence(&cfg, horizon, &mut rng);
        v_dp += mdp.rollout_conditioned(&dp, &seq).total_return;
        v_jsq += mdp.rollout_conditioned(&jsq, &seq).total_return;
        v_rnd += mdp.rollout_conditioned(&rnd, &seq).total_return;
    }
    assert!(v_dp > v_jsq, "DP {v_dp:.1} must beat JSQ {v_jsq:.1} at dt=5");
    assert!(v_dp > v_rnd, "DP {v_dp:.1} must beat RND {v_rnd:.1}");
}

#[test]
fn dp_matches_or_beats_the_best_constant_softmin() {
    // The DP optimum over the softmin family with ν-feedback must be at
    // least as good as the best *constant* softmin (β* search) — the
    // feedback can only add value.
    let cfg = SystemConfig::paper().with_dt(5.0);
    let zs = cfg.num_states();
    let dp = dp_policy(&cfg, 8);
    let res = optimize_beta(&cfg, 60, 8, 3);
    let soft = FixedRulePolicy::new(softmin_rule(zs, cfg.d, res.beta), "SOFT");
    let mdp = MeanFieldMdp::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(4);
    let (mut v_dp, mut v_soft) = (0.0, 0.0);
    for _ in 0..12 {
        let seq = mflb::core::theory::sample_lambda_sequence(&cfg, 60, &mut rng);
        v_dp += mdp.rollout_conditioned(&dp, &seq).total_return;
        v_soft += mdp.rollout_conditioned(&soft, &seq).total_return;
    }
    // Small slack: lattice resolution vs the continuous β refinement.
    assert!(
        v_dp >= v_soft - 0.02 * v_soft.abs(),
        "DP {v_dp:.2} must not lose to constant softmin {v_soft:.2}"
    );
}

#[test]
fn dp_advantage_transfers_to_finite_system() {
    let cfg = SystemConfig::paper().with_dt(5.0).with_size(2_500, 50);
    let zs = cfg.num_states();
    let dp = dp_policy(&cfg, 8);
    let jsq = FixedRulePolicy::new(jsq_rule(zs, cfg.d), "JSQ(2)");
    let engine = AggregateEngine::new(cfg.clone());
    let horizon = cfg.eval_episode_len().min(60);
    let r_dp = monte_carlo(&engine, &dp, horizon, 30, 7, 0);
    let r_jsq = monte_carlo(&engine, &jsq, horizon, 30, 8, 0);
    let margin = 2.0 * (r_dp.drops.std_err() + r_jsq.drops.std_err());
    assert!(
        r_dp.mean() < r_jsq.mean() + margin,
        "finite-system DP drops {} should not exceed JSQ {} (margin {margin})",
        r_dp.mean(),
        r_jsq.mean()
    );
}

#[test]
fn dp_greedy_interpolates_between_rnd_and_jsq_regimes() {
    // Sanity on the *structure* of the solution: at Δt = 1 the optimum
    // should play (numerically) JSQ from the empty start; at Δt = 10 it
    // should play something much softer.
    let sharp = {
        let cfg = SystemConfig::paper().with_dt(1.0);
        let dp_cfg = DpConfig { grid_resolution: 8, tol: 1e-7, max_sweeps: 4000, threads: 0 };
        DpSolution::solve(&cfg, ActionLibrary::softmin_default(6, 2), &dp_cfg)
    };
    let soft = {
        let cfg = SystemConfig::paper().with_dt(10.0);
        let dp_cfg = DpConfig { grid_resolution: 8, tol: 1e-7, max_sweeps: 4000, threads: 0 };
        DpSolution::solve(&cfg, ActionLibrary::softmin_default(6, 2), &dp_cfg)
    };
    let nu = StateDist::uniform(5);
    // Library indices: 0 = RND (β = 0) … 9 = β = 64 ≈ JSQ.
    let a_sharp = sharp.greedy_action(&nu, 0);
    let a_soft = soft.greedy_action(&nu, 0);
    assert!(
        a_sharp > a_soft,
        "Δt = 1 should play a sharper rule (idx {a_sharp}) than Δt = 10 (idx {a_soft})"
    );
}
