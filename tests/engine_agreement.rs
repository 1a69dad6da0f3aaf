//! Cross-crate integration test: the literal per-client engine and the
//! exact aggregated engine follow the same probability law (README, "The
//! engine layer"), across policies and delays.

use mflb::core::mdp::FixedRulePolicy;
use mflb::core::SystemConfig;
use mflb::linalg::stats::Summary;
use mflb::policy::{jsq_rule, rnd_rule, softmin_rule};
use mflb::sim::{monte_carlo, AggregateEngine, PerClientEngine};

fn compare(cfg: &SystemConfig, policy: &FixedRulePolicy, horizon: usize, runs: usize) {
    let agg = AggregateEngine::new(cfg.clone());
    let per = PerClientEngine::new(cfg.clone());
    let a = monte_carlo(&agg, policy, horizon, runs, 11, 0);
    let p = monte_carlo(&per, policy, horizon, runs, 22, 0);
    let sa = Summary::from_slice(&a.per_run);
    let sp = Summary::from_slice(&p.per_run);
    let tol = 4.5 * (sa.std_err() + sp.std_err()) + 0.05;
    assert!(
        (sa.mean() - sp.mean()).abs() < tol,
        "engines disagree for {:?} dt={}: {} vs {} (tol {tol})",
        cfg.num_queues,
        cfg.dt,
        sa.mean(),
        sp.mean()
    );
}

#[test]
fn engines_agree_under_jsq_small_delay() {
    let cfg = SystemConfig::paper().with_size(600, 24).with_dt(1.0);
    compare(&cfg, &FixedRulePolicy::new(jsq_rule(6, 2), "JSQ"), 25, 40);
}

#[test]
fn engines_agree_under_rnd_large_delay() {
    let cfg = SystemConfig::paper().with_size(900, 30).with_dt(8.0);
    compare(&cfg, &FixedRulePolicy::new(rnd_rule(6, 2), "RND"), 8, 40);
}

#[test]
fn engines_agree_under_softmin_with_n_not_much_larger_than_m() {
    // The aggregation stays exact even when N ⋡ M (Fig. 6 regime).
    let cfg = SystemConfig::paper().with_size(50, 25).with_dt(4.0);
    compare(&cfg, &FixedRulePolicy::new(softmin_rule(6, 2, 2.0), "SOFT"), 15, 48);
}

#[test]
fn aggregate_engine_handles_degenerate_sizes() {
    // Single queue: every client lands on it; both engines must agree
    // exactly in distribution (here: smoke + drops bound check).
    let cfg = SystemConfig::paper().with_size(10, 1).with_dt(2.0);
    let policy = FixedRulePolicy::new(rnd_rule(6, 2), "RND");
    let agg = AggregateEngine::new(cfg.clone());
    let mc = monte_carlo(&agg, &policy, 10, 10, 5, 0);
    // One queue receives ALL load: λ·M = 0.9 max per queue; drops bounded
    // by arrivals ≈ λ·Δt per epoch.
    assert!(mc.mean() <= 0.9 * 2.0 * 10.0);
}
