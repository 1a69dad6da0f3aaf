//! Cross-crate integration tests for the phase-type service extension:
//! the queue substrate (`mflb-queue`), the PH mean-field model
//! (`mflb-core`) and the finite PH engine (`mflb-sim`) must agree with
//! each other and collapse to the exponential baseline at one phase.

use mflb::core::mdp::{FixedRulePolicy, Integrand, MeanField};
use mflb::core::{MeanFieldMdp, SystemConfig};
use mflb::policy::{jsq_rule, rnd_rule, softmin_rule};
use mflb::queue::PhaseType;
use mflb::sim::{monte_carlo, monte_carlo_conditioned, AggregateEngine};

fn config() -> SystemConfig {
    SystemConfig::paper().with_dt(4.0).with_size(1_600, 40)
}

/// The mean-field MDP over the phase-type closure.
fn ph_mdp(cfg: &SystemConfig, service: &PhaseType) -> MeanFieldMdp<MeanField<PhaseType>> {
    let closure = MeanField::new(cfg, service.clone(), Integrand::FullMesh);
    MeanFieldMdp::with_closure(cfg.clone(), closure)
}

#[test]
fn whole_stack_collapses_to_exponential_at_one_phase() {
    // Mean-field: exact agreement over a long conditioned trajectory.
    let cfg = config();
    let policy = FixedRulePolicy::new(jsq_rule(cfg.num_states(), cfg.d), "JSQ(2)");
    let plain = MeanFieldMdp::new(cfg.clone());
    let ph = ph_mdp(&cfg, &PhaseType::exponential(1.0));
    let seq: Vec<usize> = (0..60).map(|t| (t / 7) % 2).collect();
    let a = plain.rollout_conditioned(&policy, &seq);
    let b = ph.rollout_conditioned(&policy, &seq);
    assert!((a.total_return - b.total_return).abs() < 1e-8);

    // Finite engines: statistical agreement of episode totals.
    let agg = AggregateEngine::new(cfg.clone());
    let ph_engine = AggregateEngine::with_service(cfg.clone(), PhaseType::exponential(1.0));
    let mc = monte_carlo(&agg, &policy, 20, 40, 3, 0);
    let s = monte_carlo(&ph_engine, &policy, 20, 40, 4, 0).drops;
    let tol = 4.0 * (mc.drops.std_err() + s.std_err());
    assert!(
        (mc.mean() - s.mean()).abs() < tol,
        "plain {} vs PH-exponential {} (tol {tol})",
        mc.mean(),
        s.mean()
    );
}

#[test]
fn scv_ordering_holds_in_mean_field_and_finite_system() {
    let cfg = config();
    let policy = FixedRulePolicy::new(softmin_rule(cfg.num_states(), cfg.d, 1.0), "SOFT(1)");
    let seq = vec![0usize; 25];
    let mut mf = Vec::new();
    let mut fin = Vec::new();
    for &scv in &[0.25, 1.0, 4.0] {
        let service = PhaseType::fit_mean_scv(1.0, scv);
        let mdp = ph_mdp(&cfg, &service);
        mf.push(-mdp.rollout_conditioned(&policy, &seq).total_return);
        let engine = AggregateEngine::with_service(cfg.clone(), service);
        fin.push(monte_carlo(&engine, &policy, 25, 24, 9, 0).mean());
    }
    assert!(mf[0] < mf[1] && mf[1] < mf[2], "mean-field SCV ordering: {mf:?}");
    assert!(fin[0] < fin[1] && fin[1] < fin[2], "finite SCV ordering: {fin:?}");
}

#[test]
fn finite_ph_system_approaches_mean_field_with_size() {
    // |finite − mean-field| should shrink as M grows (Theorem 1 carried
    // to the extension).
    let service = PhaseType::fit_mean_scv(1.0, 2.0);
    let policy = FixedRulePolicy::new(
        rnd_rule(6, 2),
        "RND", // state-independent: isolates the queue-dynamics agreement
    );
    let horizon = 15;
    let seq = vec![0usize; horizon];
    let mut gaps = Vec::new();
    for &m in &[10usize, 40, 160] {
        let cfg = SystemConfig::paper().with_dt(4.0).with_size((m * m) as u64, m);
        let mdp = ph_mdp(&cfg, &service);
        let reference = -mdp.rollout_conditioned(&policy, &seq).total_return;
        let engine = AggregateEngine::with_service(cfg, service.clone());
        // Conditioned finite episodes on the same arrival path.
        let mc = monte_carlo_conditioned(&engine, &policy, &seq, 30, 100 + m as u64, 0);
        gaps.push((mc.mean() - reference).abs() / reference.max(1.0));
    }
    assert!(gaps[2] < gaps[0] + 0.02, "relative gap should not grow with M: {gaps:?}");
    assert!(gaps[2] < 0.1, "largest system should be within 10%: {gaps:?}");
}

#[test]
fn ph_fit_quality_is_exact_across_the_sweep_grid() {
    // The bins sweep these SCVs; the two-moment fit must be exact there.
    for &scv in &[0.25, 0.5, 1.0, 2.0, 4.0] {
        let ph = PhaseType::fit_mean_scv(1.0, scv);
        assert!((ph.mean() - 1.0).abs() < 1e-9, "scv {scv}");
        assert!((ph.scv() - scv).abs() < 1e-9, "scv {scv}");
    }
}
