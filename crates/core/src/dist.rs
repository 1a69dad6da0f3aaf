//! The queue-state distribution `ν ∈ P(Z)` — the mean-field state.

use serde::{Deserialize, Serialize};

/// A probability distribution over the queue states `Z = {0, …, B}`.
///
/// This is both the limiting mean-field state `ν_t` and the container used
/// for empirical distributions `H_t^M` of finite systems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDist {
    probs: Vec<f64>,
}

impl StateDist {
    /// Creates a distribution from raw probabilities.
    ///
    /// # Panics
    /// Panics if the vector is empty, has negative entries, or does not sum
    /// to 1 within `1e-8`.
    pub fn new(probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "distribution needs at least one state");
        let mass: f64 = probs.iter().sum();
        assert!((mass - 1.0).abs() < 1e-8, "probabilities must sum to 1 (got {mass})");
        assert!(probs.iter().all(|&p| p >= -1e-12), "negative probability");
        let mut probs = probs;
        // Clean tiny negative round-off so downstream code can rely on >= 0.
        for p in &mut probs {
            if *p < 0.0 {
                *p = 0.0;
            }
        }
        Self { probs }
    }

    /// All queues empty: `ν = δ_0` over `{0,…,B}` (the paper's ν₀).
    pub fn all_empty(buffer: usize) -> Self {
        let mut v = vec![0.0; buffer + 1];
        v[0] = 1.0;
        Self { probs: v }
    }

    /// Point mass at state `z`.
    pub fn delta(buffer: usize, z: usize) -> Self {
        assert!(z <= buffer);
        let mut v = vec![0.0; buffer + 1];
        v[z] = 1.0;
        Self { probs: v }
    }

    /// Uniform distribution over `{0,…,B}`.
    pub fn uniform(buffer: usize) -> Self {
        let n = buffer + 1;
        Self { probs: vec![1.0 / n as f64; n] }
    }

    /// Empirical distribution of explicit queue states (`H_t^M`, Eq. 2).
    pub fn empirical(states: &[usize], buffer: usize) -> Self {
        let mut v = vec![0.0; buffer + 1];
        for &z in states {
            assert!(z <= buffer, "state {z} exceeds buffer {buffer}");
            v[z] += 1.0;
        }
        let m = states.len().max(1) as f64;
        for p in &mut v {
            *p /= m;
        }
        Self { probs: v }
    }

    /// Empirical distribution from per-state counts.
    pub fn from_counts(counts: &[u64]) -> Self {
        let total: u64 = counts.iter().sum();
        assert!(total > 0, "empty count vector");
        Self { probs: counts.iter().map(|&c| c as f64 / total as f64).collect() }
    }

    /// Number of states `|Z| = B + 1`.
    pub fn num_states(&self) -> usize {
        self.probs.len()
    }

    /// Buffer size `B`.
    pub fn buffer(&self) -> usize {
        self.probs.len() - 1
    }

    /// Probability of state `z`.
    #[inline]
    pub fn prob(&self, z: usize) -> f64 {
        self.probs[z]
    }

    /// The raw probability slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Mean queue length `Σ_z z·ν(z)`.
    pub fn mean_queue_length(&self) -> f64 {
        self.probs.iter().enumerate().map(|(z, p)| z as f64 * p).sum()
    }

    /// Probability that a queue is full (`ν(B)`), the instantaneous
    /// drop-pressure indicator.
    pub fn full_fraction(&self) -> f64 {
        *self.probs.last().unwrap()
    }

    /// ℓ₁ distance `‖ν − ω‖₁` (the metric of Theorem 1's proof).
    pub fn l1_distance(&self, other: &StateDist) -> f64 {
        assert_eq!(self.num_states(), other.num_states());
        self.probs.iter().zip(other.probs.iter()).map(|(a, b)| (a - b).abs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_valid_distributions() {
        for d in [
            StateDist::all_empty(5),
            StateDist::delta(5, 3),
            StateDist::uniform(5),
            StateDist::empirical(&[0, 0, 1, 5, 3], 5),
            StateDist::from_counts(&[2, 0, 0, 0, 0, 8]),
        ] {
            let mass: f64 = d.as_slice().iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
            assert_eq!(d.num_states(), 6);
        }
    }

    #[test]
    fn empirical_counts_correctly() {
        let d = StateDist::empirical(&[0, 0, 2, 2, 2, 5], 5);
        assert!((d.prob(0) - 2.0 / 6.0).abs() < 1e-15);
        assert!((d.prob(2) - 3.0 / 6.0).abs() < 1e-15);
        assert!((d.prob(5) - 1.0 / 6.0).abs() < 1e-15);
        assert_eq!(d.prob(1), 0.0);
    }

    #[test]
    fn mean_queue_length_and_full_fraction() {
        let d = StateDist::new(vec![0.5, 0.0, 0.0, 0.0, 0.0, 0.5]);
        assert!((d.mean_queue_length() - 2.5).abs() < 1e-15);
        assert!((d.full_fraction() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn l1_distance_properties() {
        let a = StateDist::delta(3, 0);
        let b = StateDist::delta(3, 3);
        assert_eq!(a.l1_distance(&a), 0.0);
        assert_eq!(a.l1_distance(&b), 2.0); // maximal for disjoint support
        assert_eq!(a.l1_distance(&b), b.l1_distance(&a));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized() {
        StateDist::new(vec![0.5, 0.4]);
    }
}
