//! Property-based invariants of the phase-type extension, for arbitrary
//! distributions, rules and fitted service laws.

use mflb::core::mdp::{Closure, Integrand, MeanField};
use mflb::core::{DecisionRule, StateDist, SystemConfig};
use mflb::queue::{PhQueue, PhaseType};
use proptest::prelude::*;

/// The phase-type mean-field closure at `nu` (B = 4), lifted to the
/// joint `(length, phase)` space.
fn ph_closure(nu: &StateDist, service: PhaseType) -> MeanField<PhaseType> {
    let mut cfg = SystemConfig::paper().with_buffer(4);
    cfg.initial_dist = nu.as_slice().to_vec();
    MeanField::new(&cfg, service, Integrand::FullMesh)
}

/// Strategy: a random length distribution over `{0..B}` for B = 4.
fn dist_strategy() -> impl Strategy<Value = StateDist> {
    prop::collection::vec(0.01f64..1.0, 5).prop_map(|w| {
        let total: f64 = w.iter().sum();
        let mut probs: Vec<f64> = w.iter().map(|x| x / total).collect();
        let drift: f64 = 1.0 - probs.iter().sum::<f64>();
        probs[0] += drift;
        StateDist::new(probs)
    })
}

/// Strategy: a random row-stochastic decision rule for d = 2 over 5
/// states.
fn rule_strategy() -> impl Strategy<Value = DecisionRule> {
    prop::collection::vec(0.0f64..1.0, 25).prop_map(|ps| {
        DecisionRule::from_fn(5, 2, |tuple| {
            let p = ps[tuple[0] * 5 + tuple[1]].clamp(0.0, 1.0);
            vec![p, 1.0 - p]
        })
    })
}

/// Strategy: a fitted service law across the SCV range.
fn service_strategy() -> impl Strategy<Value = PhaseType> {
    (0.2f64..5.0).prop_map(|scv| PhaseType::fit_mean_scv(1.0, scv))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ph_step_preserves_mass_and_bounds_drops(
        nu in dist_strategy(),
        rule in rule_strategy(),
        service in service_strategy(),
        lambda in 0.0f64..1.5,
        dt in 0.2f64..8.0,
    ) {
        let mut joint = ph_closure(&nu, service);
        let (drops, _) = joint.step(&rule, lambda, 0.0, dt);
        let mass: f64 = joint.dist().as_slice().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-8, "mass {mass}");
        prop_assert!(joint.dist().as_slice().iter().all(|&p| p >= 0.0));
        prop_assert!(drops >= -1e-12);
        prop_assert!(drops <= lambda * dt + 1e-9,
            "drops {} exceed arrivals {}", drops, lambda * dt);
    }

    #[test]
    fn length_marginal_roundtrips_through_lift(
        nu in dist_strategy(),
        service in service_strategy(),
    ) {
        let joint = ph_closure(&nu, service);
        prop_assert!(joint.observed().l1_distance(&nu) < 1e-10);
    }

    #[test]
    fn fitted_laws_match_requested_moments(scv in 0.15f64..6.0, mean in 0.3f64..3.0) {
        let ph = PhaseType::fit_mean_scv(mean, scv);
        prop_assert!((ph.mean() - mean).abs() < 1e-8 * mean.max(1.0));
        prop_assert!((ph.scv() - scv).abs() < 1e-7,
            "fitted {} vs requested {scv}", ph.scv());
    }

    #[test]
    fn ph_queue_generator_is_conservative(
        service in service_strategy(),
        lambda in 0.0f64..2.0,
    ) {
        let q = PhQueue::new(lambda, service, 4);
        let g = q.generator();
        for i in 0..g.rows() {
            let row_sum: f64 = g.row(i).iter().sum();
            prop_assert!(row_sum.abs() < 1e-10, "row {i} sums to {row_sum}");
            prop_assert!(g[(i, i)] <= 1e-12, "diagonal must be nonpositive");
        }
    }

    #[test]
    fn ph_epoch_expectation_is_a_markov_kernel(
        service in service_strategy(),
        lambda in 0.0f64..1.5,
        dt in 0.2f64..6.0,
        start in 0usize..13,
    ) {
        let q = PhQueue::new(lambda, service, 4);
        let n = q.num_states();
        let idx = start % n;
        let mut v = vec![0.0; n];
        v[idx] = 1.0;
        let (dist, drops) = q.epoch_expectation(&v, dt);
        let mass: f64 = dist.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(dist.iter().all(|&p| p >= -1e-12));
        prop_assert!(drops >= -1e-12 && drops <= lambda * dt + 1e-9);
    }
}
