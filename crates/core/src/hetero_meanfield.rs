//! Heterogeneous-server mean-field model — the §2.5 extension the paper
//! "omits for space reasons", carried through the exact discretization.
//!
//! Servers come in `C` rate classes with fixed population fractions
//! `w_c` and service rates `α_c`. Because a queue never changes class,
//! the mean-field state is a *per-class* family of length distributions
//! `ν_c ∈ P(Z)`; clients observe **composite** states `(z, c)` encoded
//! as `c·(B+1) + z` (the same convention as `mflb_policy::composite_index`
//! and the finite `AggregateEngine<RateClasses>` in `mflb-sim` — SED(d)
//! rules plug in directly). The derivation of §2.3 goes through verbatim on the
//! composite space:
//!
//! * the composite observation distribution is `ν̄(z, c) = w_c·ν_c(z)`;
//! * Eq. 22's per-state arrival rate integral is evaluated on `ν̄`
//!   ([`crate::meanfield::per_state_arrival_rates`] is generic in the
//!   state-space size, so it is reused unchanged);
//! * queues of class `c` observed at length `z` advance through
//!   `exp(Q̄(λ(ν̄, (z,c)), α_c)·Δt)` — the same epoch kernel with the
//!   class service rate (Eq. 27–28).
//!
//! With one class the model collapses *exactly* to
//! [`crate::meanfield::mean_field_step`] (tested), and the finite
//! heterogeneous engine tracks it statistically (integration tests).

use crate::dist::StateDist;
use crate::meanfield::{advance_states, per_state_arrival_rates};
use crate::rule::DecisionRule;
use serde::{Deserialize, Serialize};

/// Composite-state index of `(length z, class c)` — matches
/// `mflb_policy::composite_index`.
#[inline]
pub fn composite_state(z: usize, class: usize, num_lengths: usize) -> usize {
    class * num_lengths + z
}

/// The heterogeneous mean-field system: class fractions, class rates and
/// the per-class length distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroMeanField {
    /// Population fraction of each class (sums to 1).
    class_weights: Vec<f64>,
    /// Service rate of each class.
    class_rates: Vec<f64>,
    /// Per-class queue-length distributions `ν_c`.
    dists: Vec<StateDist>,
}

/// Output of one exact heterogeneous mean-field epoch.
#[derive(Debug, Clone)]
pub struct HeteroMeanFieldStep {
    /// The advanced system.
    pub next: HeteroMeanField,
    /// Expected packets dropped per queue (across all classes).
    pub expected_drops: f64,
    /// Arrival rate seen by a queue in each composite state (diagnostics).
    pub arrival_rates: Vec<f64>,
}

impl HeteroMeanField {
    /// Creates the system from explicit per-class distributions.
    ///
    /// # Panics
    /// Panics on empty/mismatched classes, non-positive rates or weights
    /// not summing to 1.
    pub fn new(class_weights: Vec<f64>, class_rates: Vec<f64>, dists: Vec<StateDist>) -> Self {
        assert!(!class_weights.is_empty(), "need at least one class");
        assert_eq!(class_weights.len(), class_rates.len(), "class shape");
        assert_eq!(class_weights.len(), dists.len(), "class shape");
        let mass: f64 = class_weights.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "class weights sum to {mass}");
        assert!(class_weights.iter().all(|&w| w > 0.0), "empty class");
        assert!(class_rates.iter().all(|&r| r > 0.0 && r.is_finite()));
        let zs = dists[0].num_states();
        assert!(dists.iter().all(|d| d.num_states() == zs), "buffer mismatch");
        Self { class_weights, class_rates, dists }
    }

    /// Number of rate classes `C`.
    pub fn num_classes(&self) -> usize {
        self.class_weights.len()
    }

    /// Number of length states `B + 1`.
    pub fn num_lengths(&self) -> usize {
        self.dists[0].num_states()
    }

    /// Number of composite states `C·(B+1)` — the rule's state space.
    pub fn num_composite_states(&self) -> usize {
        self.num_classes() * self.num_lengths()
    }

    /// The length distribution of one class.
    pub fn class_dist(&self, c: usize) -> &StateDist {
        &self.dists[c]
    }

    /// Class population fractions.
    pub fn class_weights(&self) -> &[f64] {
        &self.class_weights
    }

    /// Class service rates.
    pub fn class_rates(&self) -> &[f64] {
        &self.class_rates
    }

    /// The composite observation distribution `ν̄(z, c) = w_c·ν_c(z)`
    /// clients sample from.
    pub(crate) fn composite_dist(&self) -> StateDist {
        let zs = self.num_lengths();
        let mut probs = vec![0.0; self.num_composite_states()];
        for (c, (w, d)) in self.class_weights.iter().zip(&self.dists).enumerate() {
            for z in 0..zs {
                probs[composite_state(z, c, zs)] = w * d.prob(z);
            }
        }
        StateDist::new(probs)
    }

    /// Mean queue length across classes.
    pub fn mean_queue_length(&self) -> f64 {
        self.class_weights.iter().zip(&self.dists).map(|(w, d)| w * d.mean_queue_length()).sum()
    }

    /// Advances the system by one decision epoch of length `dt` under a
    /// composite-state decision rule (e.g. `mflb_policy::sed_rule`) and
    /// total arrival rate `lambda` per queue.
    ///
    /// # Panics
    /// Panics if the rule's state space does not match
    /// [`HeteroMeanField::num_composite_states`].
    pub fn step(&self, rule: &DecisionRule, lambda: f64, dt: f64) -> HeteroMeanFieldStep {
        assert!(lambda >= 0.0 && dt > 0.0);
        assert_eq!(
            rule.num_states(),
            self.num_composite_states(),
            "rule must cover composite states"
        );
        let zs = self.num_lengths();
        let composite = self.composite_dist();
        // Eq. 22 on the composite space: the integral is the same, only
        // the state alphabet grew.
        let rates = per_state_arrival_rates(&composite, rule, lambda);

        let mut next_dists = Vec::with_capacity(self.num_classes());
        let mut drops = 0.0f64;
        // Composite states `c·(B+1) + z` put each class's rates in one block.
        for (c, (dist, class_rates)) in self.dists.iter().zip(rates.chunks_exact(zs)).enumerate() {
            let (next, class_drops) =
                advance_states(dist.as_slice(), class_rates, self.class_rates[c], dt);
            // Per-queue drops weight by the class fraction; class mass is
            // conserved (queues never change class).
            drops += self.class_weights[c] * class_drops;
            next_dists.push(StateDist::new(next));
        }

        HeteroMeanFieldStep {
            next: HeteroMeanField {
                class_weights: self.class_weights.clone(),
                class_rates: self.class_rates.clone(),
                dists: next_dists,
            },
            expected_drops: drops,
            arrival_rates: rates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meanfield::mean_field_step;

    /// Two equal classes at `class_rates`, every queue empty (`B = 5`).
    fn two_classes_empty(class_rates: [f64; 2]) -> HeteroMeanField {
        let dists = vec![StateDist::all_empty(5); 2];
        HeteroMeanField::new(vec![0.5, 0.5], class_rates.to_vec(), dists)
    }

    /// `epochs` epochs under `rule` at arrival rate 0.9 and `Δt = 5`:
    /// the end state and the cumulative expected drops per queue.
    fn run(field: &HeteroMeanField, rule: &DecisionRule, epochs: usize) -> (HeteroMeanField, f64) {
        (0..epochs).fold((field.clone(), 0.0), |(field, drops), _| {
            let step = field.step(rule, 0.9, 5.0);
            (step.next, drops + step.expected_drops)
        })
    }

    /// JSQ over composite states comparing only lengths (rate-blind).
    fn composite_jsq(zs: usize, classes: usize) -> DecisionRule {
        DecisionRule::from_fn(zs * classes, 2, |t| {
            let (a, b) = (t[0] % zs, t[1] % zs);
            use std::cmp::Ordering::*;
            match a.cmp(&b) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        })
    }

    /// SED over composite states (delay = (z+1)/α_class).
    fn composite_sed(zs: usize, class_rates: &[f64]) -> DecisionRule {
        let rates = class_rates.to_vec();
        DecisionRule::from_fn(zs * rates.len(), 2, move |t| {
            let delay = |idx: usize| (idx % zs) as f64 / rates[idx / zs] + 1.0 / rates[idx / zs];
            let (da, db) = (delay(t[0]), delay(t[1]));
            if (da - db).abs() < 1e-12 {
                vec![0.5, 0.5]
            } else if da < db {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            }
        })
    }

    #[test]
    fn single_class_collapses_to_homogeneous_model() {
        let hetero = HeteroMeanField::new(
            vec![1.0],
            vec![1.0],
            vec![StateDist::new(vec![0.3, 0.25, 0.2, 0.15, 0.07, 0.03])],
        );
        let rule = composite_jsq(6, 1);
        let step = hetero.step(&rule, 0.9, 5.0);
        let reference = mean_field_step(
            &StateDist::new(vec![0.3, 0.25, 0.2, 0.15, 0.07, 0.03]),
            &rule,
            0.9,
            1.0,
            5.0,
        );
        assert!((step.expected_drops - reference.expected_drops).abs() < 1e-12);
        for (a, b) in step.next.class_dist(0).as_slice().iter().zip(reference.next_dist.as_slice())
        {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn step_conserves_class_masses_and_bounds_drops() {
        let hetero = two_classes_empty([1.6, 0.4]);
        let rule = composite_sed(6, &[1.6, 0.4]);
        let (end, drops) = run(&hetero, &rule, 20);
        for c in 0..2 {
            let mass: f64 = end.class_dist(c).as_slice().iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "class {c} mass {mass}");
        }
        assert!((0.0..=0.9 * 5.0 * 20.0).contains(&drops));
    }

    #[test]
    fn slow_class_fills_faster_under_rate_blind_routing() {
        // Under composite-blind JSQ, slow servers receive the same traffic
        // as fast ones and their queues must sit higher in steady state.
        let hetero = two_classes_empty([1.6, 0.4]);
        let rule = composite_jsq(6, 2);
        let (end, _) = run(&hetero, &rule, 40);
        assert!(
            end.class_dist(1).mean_queue_length() > end.class_dist(0).mean_queue_length() + 0.5,
            "slow {} vs fast {}",
            end.class_dist(1).mean_queue_length(),
            end.class_dist(0).mean_queue_length()
        );
    }

    #[test]
    fn sed_beats_rate_blind_jsq_in_hetero_mean_field() {
        let hetero = two_classes_empty([1.6, 0.4]);
        let (_, drops_sed) = run(&hetero, &composite_sed(6, &[1.6, 0.4]), 40);
        let (_, drops_jsq) = run(&hetero, &composite_jsq(6, 2), 40);
        assert!(
            drops_sed < drops_jsq,
            "SED {drops_sed:.3} must beat rate-blind JSQ {drops_jsq:.3}"
        );
    }

    #[test]
    fn composite_distribution_is_consistent() {
        let hetero = HeteroMeanField::new(
            vec![0.25, 0.75],
            vec![2.0, 0.5],
            vec![StateDist::uniform(5), StateDist::all_empty(5)],
        );
        let comp = hetero.composite_dist();
        let mass: f64 = comp.as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
        // ν̄(z=0, c=1) = 0.75 · 1.0 (class 1 is empty).
        assert!((comp.prob(composite_state(0, 1, 6)) - 0.75).abs() < 1e-12);
        assert!((comp.prob(composite_state(3, 0, 6)) - 0.25 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "composite states")]
    fn rejects_rules_over_wrong_state_space() {
        let hetero = two_classes_empty([1.0, 2.0]);
        let rule = DecisionRule::uniform(6, 2); // plain, not composite
        hetero.step(&rule, 0.9, 1.0);
    }
}
