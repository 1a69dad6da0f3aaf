//! The Monte-Carlo driver cuts runs into lockstep chunks whose layout
//! depends on the worker count. No result may depend on that layout:
//! for every worker count and run count, each run's outcome must equal,
//! bit for bit, the same run played alone on its `run_rng(seed, run)`.
//! Checked for a batched neural policy (one gemm per chunk and epoch)
//! and a fixed rule, on `monte_carlo` and `monte_carlo_conditioned`.
//!
//! `MonteCarloResult` exposes each run's `total_drops` (`per_run`) and
//! the run-order mean of the per-epoch drops, so the per-epoch
//! trajectories are compared through that mean, accumulated the same way.

use mflb::core::mdp::{action_dim, observation_dim, FixedRulePolicy, UpperPolicy};
use mflb::core::{DecisionRule, SystemConfig};
use mflb::nn::{Activation, Mlp};
use mflb::policy::NeuralUpperPolicy;
use mflb::sim::{
    monte_carlo, monte_carlo_conditioned, run_episode, run_episode_conditioned, run_rng,
    AggregateEngine, EpisodeOutcome, MonteCarloResult,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 4] = [1, 2, 3, 4];
/// Run counts below, at and just past one 16-run chunk, and the paper's 100.
const RUN_COUNTS: [usize; 8] = [1, 2, 15, 16, 17, 20, 33, 100];
const HORIZON: usize = 6;
const SEED: u64 = 29;

fn config() -> SystemConfig {
    SystemConfig::paper().with_size(200, 10).with_dt(2.0)
}

fn neural(cfg: &SystemConfig) -> NeuralUpperPolicy {
    let (zs, levels) = (cfg.num_states(), cfg.arrivals.num_levels());
    let mut rng = StdRng::seed_from_u64(3);
    let dims = [observation_dim(zs, levels), 16, action_dim(zs, cfg.d)];
    NeuralUpperPolicy::new(Mlp::new(&dims, Activation::Tanh, &mut rng), zs, cfg.d, levels)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts that `mc` holds the first `mc.per_run.len()` solo outcomes.
fn assert_matches_solo(mc: &MonteCarloResult, solo: &[EpisodeOutcome], what: &str) {
    let n = mc.per_run.len();
    let totals: Vec<f64> = solo[..n].iter().map(|o| o.total_drops).collect();
    assert_eq!(bits(&mc.per_run), bits(&totals), "{what}: per-run total_drops");
    let mut mean = vec![0.0; HORIZON];
    for o in &solo[..n] {
        for (acc, &v) in mean.iter_mut().zip(&o.drops_per_epoch) {
            *acc += v;
        }
    }
    mean.iter_mut().for_each(|v| *v /= n as f64);
    assert_eq!(bits(&mc.mean_drops_per_epoch), bits(&mean), "{what}: drops_per_epoch");
}

fn check_policy(engine: &AggregateEngine, policy: &(dyn UpperPolicy + Sync)) {
    let max_runs = RUN_COUNTS[RUN_COUNTS.len() - 1] as u64;
    let lambda_seq: Vec<usize> = (0..HORIZON).map(|t| t % 2).collect();
    let solo: Vec<_> = (0..max_runs)
        .map(|r| run_episode(engine, policy, HORIZON, &mut run_rng(SEED, r)))
        .collect();
    let solo_cond: Vec<_> = (0..max_runs)
        .map(|r| run_episode_conditioned(engine, policy, &lambda_seq, &mut run_rng(SEED, r)))
        .collect();
    for threads in THREADS {
        for n_runs in RUN_COUNTS {
            let what = format!("{} threads={threads} runs={n_runs}", policy.name());
            let mc = monte_carlo(engine, policy, HORIZON, n_runs, SEED, threads);
            assert_matches_solo(&mc, &solo, &what);
            let mc = monte_carlo_conditioned(engine, policy, &lambda_seq, n_runs, SEED, threads);
            assert_matches_solo(&mc, &solo_cond, &format!("conditioned {what}"));
        }
    }
}

#[test]
fn neural_policy_runs_match_solo_episodes_for_every_chunk_layout() {
    let cfg = config();
    check_policy(&AggregateEngine::new(cfg.clone()), &neural(&cfg));
}

#[test]
fn fixed_rule_runs_match_solo_episodes_for_every_chunk_layout() {
    let cfg = config();
    let policy = FixedRulePolicy::new(DecisionRule::uniform(cfg.num_states(), cfg.d), "RND");
    check_policy(&AggregateEngine::new(cfg), &policy);
}
