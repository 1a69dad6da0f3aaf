//! Classical load-balancing decision rules.
//!
//! All rules are expressed as [`DecisionRule`] tables over the observed
//! (stale) states of the `d` sampled queues, exactly as applied by the
//! paper's finite-system clients and mean-field baselines:
//!
//! * [`jsq_rule`] — Join-the-Shortest-Queue over the sample (MF-JSQ(d),
//!   Eq. 34): route to an argmin of the observed queue lengths, ties split
//!   uniformly,
//! * [`rnd_rule`] — uniform random choice among the `d` samples (MF-RND,
//!   Eq. 35),
//! * [`sed_rule`] — Shortest-Expected-Delay for heterogeneous pools over
//!   *composite* states `(queue length, rate class)`; with a single class
//!   it coincides with JSQ (tested).
//!
//! ### Neighborhood restriction
//!
//! Rules rank **sampled observations**, never queue identities, so no
//! separate "local" variants exist: deployed on a locality-constrained
//! engine (`mflb_sim::GraphEngine`, where samples come from each
//! dispatcher's closed neighborhood) the same tables become the
//! neighborhood-restricted baselines JSQ(d)/RND/softmin of the sparse
//! mean-field load-balancing literature (arXiv:2312.12973). The
//! restriction is enforced by the engine's sampling — property-tested in
//! `mflb-sim` ("routing never leaves the neighborhood").

pub use mflb_core::composite_index;
use mflb_core::{DecisionRule, StateDist};

/// MF-JSQ(d): probability `1/|argmin|` on each observed minimum (Eq. 34).
pub fn jsq_rule(num_states: usize, d: usize) -> DecisionRule {
    DecisionRule::from_fn(num_states, d, |tuple| {
        let min = *tuple.iter().min().expect("d >= 1");
        let n_min = tuple.iter().filter(|&&z| z == min).count() as f64;
        tuple.iter().map(|&z| if z == min { 1.0 / n_min } else { 0.0 }).collect()
    })
}

/// MF-RND: uniform over the `d` sampled queues (Eq. 35).
pub fn rnd_rule(num_states: usize, d: usize) -> DecisionRule {
    DecisionRule::uniform(num_states, d)
}

/// Decodes a composite index back into `(queue length, rate class)`.
fn composite_decode(idx: usize, num_queue_states: usize) -> (usize, usize) {
    (idx % num_queue_states, idx / num_queue_states)
}

/// Lifts a length-state rule to the composite `(length, class)` state space
/// by ignoring the class: the lifted rule looks only at the queue lengths
/// `idx % num_queue_states` of the sampled tuple.
///
/// This is how rate-blind baselines (JSQ(d), RND, softmin) are deployed on
/// heterogeneous pools, whose engines and mean-field model expect rules
/// over composite states (see [`composite_index`]).
pub fn lift_to_composite(
    rule: &DecisionRule,
    num_queue_states: usize,
    num_classes: usize,
) -> DecisionRule {
    assert!(num_classes >= 1);
    assert_eq!(rule.num_states(), num_queue_states, "rule must be over plain length states");
    let d = rule.d();
    DecisionRule::from_fn(num_queue_states * num_classes, d, |tuple| {
        let raw: Vec<usize> = tuple.iter().map(|&idx| idx % num_queue_states).collect();
        (0..d).map(|u| rule.prob(&raw, u)).collect()
    })
}

/// SED(d) for heterogeneous pools: route to the sampled queue minimizing
/// the expected delay `(z + 1)/α_class`, ties split uniformly.
///
/// The rule operates on composite states (see [`composite_index`]); the
/// table therefore has `(num_queue_states · class_rates.len())^d` rows.
pub fn sed_rule(num_queue_states: usize, d: usize, class_rates: &[f64]) -> DecisionRule {
    assert!(!class_rates.is_empty());
    assert!(class_rates.iter().all(|&r| r > 0.0));
    let composite_states = num_queue_states * class_rates.len();
    DecisionRule::from_fn(composite_states, d, |tuple| {
        let delays: Vec<f64> = tuple
            .iter()
            .map(|&idx| {
                let (z, c) = composite_decode(idx, num_queue_states);
                (z as f64 + 1.0) / class_rates[c]
            })
            .collect();
        let min = delays.iter().copied().fold(f64::INFINITY, f64::min);
        let n_min = delays.iter().filter(|&&x| (x - min).abs() < 1e-12).count() as f64;
        delays.iter().map(|&x| if (x - min).abs() < 1e-12 { 1.0 / n_min } else { 0.0 }).collect()
    })
}

/// Expected ℓ₁ distance between two decision rules' routing rows when the
/// `d` observed states are drawn i.i.d. from `ν`:
/// `Σ_{z̄} ν^⊗d(z̄) · Σ_u |a(u|z̄) − b(u|z̄)|`.
///
/// This is the natural "how differently would these rules route *right
/// now*" metric: observation tuples the current mean field never produces
/// contribute nothing. Used by the distillation pass to project a neural
/// rule onto the nearest library member per lattice vertex.
pub fn rule_l1_weighted(a: &DecisionRule, b: &DecisionRule, nu: &StateDist) -> f64 {
    assert_eq!(a.num_states(), b.num_states(), "rules must share the state space");
    assert_eq!(a.d(), b.d(), "rules must share d");
    assert_eq!(nu.num_states(), a.num_states(), "ν must match the rules' state space");
    let d = a.d();
    let mut total = 0.0;
    for row in 0..a.num_rows() {
        let tuple = a.decode_index(row);
        let w: f64 = tuple.iter().map(|&z| nu.prob(z)).product();
        if w == 0.0 {
            continue;
        }
        let mut dist = 0.0;
        for u in 0..d {
            dist += (a.prob_by_row(row, u) - b.prob_by_row(row, u)).abs();
        }
        total += w * dist;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsq_routes_to_unique_minimum() {
        let r = jsq_rule(6, 2);
        assert_eq!(r.prob(&[0, 5], 0), 1.0);
        assert_eq!(r.prob(&[5, 0], 1), 1.0);
        assert_eq!(r.prob(&[3, 4], 0), 1.0);
    }

    #[test]
    fn jsq_splits_ties_uniformly() {
        let r = jsq_rule(6, 3);
        // Two minima among three samples.
        assert!((r.prob(&[2, 2, 5], 0) - 0.5).abs() < 1e-12);
        assert!((r.prob(&[2, 2, 5], 1) - 0.5).abs() < 1e-12);
        assert_eq!(r.prob(&[2, 2, 5], 2), 0.0);
        // Full tie.
        for u in 0..3 {
            assert!((r.prob(&[1, 1, 1], u) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rnd_is_uniform_everywhere() {
        let r = rnd_rule(6, 2);
        for row in 0..r.num_rows() {
            assert!((r.prob_by_row(row, 0) - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    fn composite_roundtrip() {
        let zs = 6;
        for c in 0..3 {
            for z in 0..zs {
                let idx = composite_index(z, c, zs);
                assert_eq!(composite_decode(idx, zs), (z, c));
            }
        }
    }

    #[test]
    fn lifted_rule_ignores_class() {
        let zs = 4;
        let lifted = lift_to_composite(&jsq_rule(zs, 2), zs, 3);
        assert_eq!(lifted.num_states(), 12);
        // (z=1, class 2) vs (z=3, class 0): lengths decide, classes don't.
        let a = composite_index(1, 2, zs);
        let b = composite_index(3, 0, zs);
        assert_eq!(lifted.prob(&[a, b], 0), 1.0);
        // Equal lengths in different classes tie.
        let c = composite_index(2, 0, zs);
        let e = composite_index(2, 1, zs);
        assert!((lifted.prob(&[c, e], 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lift_single_class_is_identity() {
        let jsq = jsq_rule(5, 2);
        assert!(lift_to_composite(&jsq, 5, 1).max_abs_diff(&jsq) < 1e-15);
    }

    #[test]
    fn sed_single_class_equals_jsq() {
        let sed = sed_rule(6, 2, &[1.0]);
        let jsq = jsq_rule(6, 2);
        assert!(sed.max_abs_diff(&jsq) < 1e-12);
    }

    #[test]
    fn sed_prefers_fast_server_with_longer_queue() {
        // Classes: 0 fast (α = 2), 1 slow (α = 0.5).
        let zs = 6;
        let sed = sed_rule(zs, 2, &[2.0, 0.5]);
        // Fast server with 2 jobs: delay 1.5; slow empty server: delay 2.
        let fast2 = composite_index(2, 0, zs);
        let slow0 = composite_index(0, 1, zs);
        assert_eq!(sed.prob(&[fast2, slow0], 0), 1.0);
        // JSQ on raw lengths would pick the empty one — opposite choice.
        let jsq = jsq_rule(zs, 2);
        assert_eq!(jsq.prob(&[2, 0], 1), 1.0);
    }

    #[test]
    fn rule_l1_weighted_is_zero_on_identical_rules_and_bounded() {
        let nu = StateDist::new(vec![0.5, 0.3, 0.2, 0.0]);
        let jsq = jsq_rule(4, 2);
        let rnd = rnd_rule(4, 2);
        assert_eq!(rule_l1_weighted(&jsq, &jsq, &nu), 0.0);
        let d = rule_l1_weighted(&jsq, &rnd, &nu);
        assert!(d > 0.0 && d <= 2.0, "ℓ₁ between distributions is in [0, 2], got {d}");
        // Symmetry.
        assert!((d - rule_l1_weighted(&rnd, &jsq, &nu)).abs() < 1e-15);
    }

    #[test]
    fn rule_l1_weighted_ignores_unreachable_tuples() {
        // ν concentrated on state 0: only the (0,0) tuple matters, where
        // JSQ ties (0.5/0.5) and RND is 0.5/0.5 — so the distance is 0
        // even though the rules differ elsewhere.
        let nu = StateDist::delta(3, 0);
        let d = rule_l1_weighted(&jsq_rule(4, 2), &rnd_rule(4, 2), &nu);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn sed_ties_split() {
        let zs = 4;
        let sed = sed_rule(zs, 2, &[1.0, 2.0]);
        // (z=1, fast class 0): delay 2; (z=3, class 1): delay 2 — tie.
        let a = composite_index(1, 0, zs);
        let b = composite_index(3, 1, zs);
        assert!((sed.prob(&[a, b], 0) - 0.5).abs() < 1e-12);
    }
}
