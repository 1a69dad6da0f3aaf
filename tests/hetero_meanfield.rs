//! Cross-crate check of the heterogeneous mean-field model (§2.5
//! extension): the finite heterogeneous engine must track the hetero
//! mean-field drops as the pool grows — Theorem 1 carried to the
//! composite-state extension.

use mflb::core::mdp::{FixedRulePolicy, Integrand, MeanField};
use mflb::core::{MeanFieldMdp, SystemConfig};
use mflb::policy::sed_rule;
use mflb::queue::ArrivalProcess;
use mflb::sim::{monte_carlo, AggregateEngine, RateClasses};

#[test]
fn finite_hetero_system_tracks_hetero_mean_field() {
    let dt = 4.0;
    let horizon = 15usize;
    let class_rates = [1.6f64, 0.4];
    let rule = sed_rule(6, 2, &class_rates);
    let policy = FixedRulePolicy::new(rule, "SED(2)");

    // Mean-field reference at constant λ = 0.9.
    let mut mf_cfg = SystemConfig::paper().with_dt(dt);
    mf_cfg.arrivals = ArrivalProcess::constant(0.9);
    let closure = MeanField::new(&mf_cfg, RateClasses::new(&class_rates), Integrand::FullMesh);
    let mdp = MeanFieldMdp::with_closure(mf_cfg, closure);
    let mf_drops = -mdp.rollout_conditioned(&policy, &vec![0; horizon]).total_return;

    // Finite pools of growing size, same constant arrival level.
    let mut gaps = Vec::new();
    for &half in &[10usize, 40, 160] {
        let mut cfg =
            SystemConfig::paper().with_dt(dt).with_size(((2 * half) * (2 * half)) as u64, 2 * half);
        cfg.arrivals = ArrivalProcess::constant(0.9);
        let mut rates = vec![1.6; half];
        rates.extend(std::iter::repeat_n(0.4, half));
        let engine = AggregateEngine::with_service(cfg, RateClasses::new(&rates));
        let s = monte_carlo(&engine, &policy, horizon, 24, half as u64, 0).drops;
        gaps.push(((s.mean() - mf_drops).abs(), s.std_err()));
    }
    // The largest pool must sit close to the limit (within noise + a
    // small finite-size allowance), and not farther than the smallest.
    let (gap_small, _) = gaps[0];
    let (gap_large, se_large) = gaps[2];
    assert!(
        gap_large <= gap_small + 4.0 * se_large,
        "gap must not grow with pool size: {gaps:?} (mean-field {mf_drops:.3})"
    );
    assert!(
        gap_large < 0.15 * mf_drops.max(1.0),
        "largest pool should be within 15% of the limit: {gaps:?} vs {mf_drops:.3}"
    );
}
