//! Lower-level decision rules `h : Z^d → P(U)`.
//!
//! A decision rule tells an agent that sampled `d` queues and observed
//! their (stale) states `z̄ = (z̄_1, …, z̄_d)` with which probability to send
//! its jobs to each of the `d` sampled queues. The rule is the *action* of
//! the upper-level mean-field MDP (Eq. 30) and simultaneously the common
//! policy applied by every client of the finite system (Fig. 2).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense decision-rule table over observation tuples.
///
/// Rows are indexed by the mixed-radix encoding of `z̄` (base `|Z|`, first
/// coordinate most significant); each row is a distribution over the `d`
/// queue choices `U = {0, …, d−1}` (the paper's `{1, …, d}`, 0-based here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRule {
    num_states: usize,
    d: usize,
    /// `table[row * d + u] = h(u | z̄(row))`.
    table: Vec<f64>,
}

impl DecisionRule {
    /// Creates a rule from a flat row-stochastic table of shape
    /// `|Z|^d × d`.
    ///
    /// # Panics
    /// Panics on shape mismatch or rows that are not distributions.
    pub fn new(num_states: usize, d: usize, table: Vec<f64>) -> Self {
        assert!(num_states >= 1 && d >= 1);
        let rows = num_states.pow(d as u32);
        assert_eq!(table.len(), rows * d, "table shape mismatch");
        for r in 0..rows {
            let row = &table[r * d..(r + 1) * d];
            let mass: f64 = row.iter().sum();
            assert!((mass - 1.0).abs() < 1e-8, "row {r} sums to {mass}, expected 1");
            assert!(row.iter().all(|&p| p >= -1e-12), "row {r} has negative mass");
        }
        Self { num_states, d, table }
    }

    /// The uniform rule: choose each sampled queue with probability `1/d`
    /// (the paper's MF-RND, Eq. 35).
    pub fn uniform(num_states: usize, d: usize) -> Self {
        let rows = num_states.pow(d as u32);
        Self { num_states, d, table: vec![1.0 / d as f64; rows * d] }
    }

    /// Builds a rule by evaluating `f` on every observation tuple; `f` must
    /// return a length-`d` distribution.
    pub fn from_fn<F>(num_states: usize, d: usize, mut f: F) -> Self
    where
        F: FnMut(&[usize]) -> Vec<f64>,
    {
        let rows = num_states.pow(d as u32);
        let mut table = Vec::with_capacity(rows * d);
        let mut tuple = vec![0usize; d];
        for row in 0..rows {
            Self::decode_into(row, num_states, &mut tuple);
            let probs = f(&tuple);
            assert_eq!(probs.len(), d, "rule function must return d probabilities");
            table.extend_from_slice(&probs);
        }
        Self::new(num_states, d, table)
    }

    /// Builds a rule from unconstrained logits by row-wise softmax — the
    /// "manual normalization" used to map the PPO policy network's
    /// continuous action vector into a valid decision rule (§4).
    pub fn from_logits(num_states: usize, d: usize, logits: &[f64]) -> Self {
        let rows = num_states.pow(d as u32);
        assert_eq!(logits.len(), rows * d, "logit shape mismatch");
        let mut table = vec![0.0; rows * d];
        for r in 0..rows {
            let row = &logits[r * d..(r + 1) * d];
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for (o, &l) in table[r * d..(r + 1) * d].iter_mut().zip(row.iter()) {
                let e = (l - max).exp();
                *o = e;
                sum += e;
            }
            for o in &mut table[r * d..(r + 1) * d] {
                *o /= sum;
            }
        }
        Self { num_states, d, table }
    }

    /// Number of queue states `|Z|`.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of sampled queues `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of observation tuples `|Z|^d`.
    pub fn num_rows(&self) -> usize {
        self.num_states.pow(self.d as u32)
    }

    /// Mixed-radix row index of an observation tuple.
    #[inline]
    pub(crate) fn tuple_index(&self, tuple: &[usize]) -> usize {
        debug_assert_eq!(tuple.len(), self.d);
        let mut idx = 0usize;
        for &z in tuple {
            debug_assert!(z < self.num_states);
            idx = idx * self.num_states + z;
        }
        idx
    }

    /// Decodes a row index into an observation tuple.
    pub fn decode_index(&self, mut idx: usize) -> Vec<usize> {
        let mut tuple = vec![0usize; self.d];
        for k in (0..self.d).rev() {
            tuple[k] = idx % self.num_states;
            idx /= self.num_states;
        }
        tuple
    }

    fn decode_into(mut idx: usize, num_states: usize, tuple: &mut [usize]) {
        for k in (0..tuple.len()).rev() {
            tuple[k] = idx % num_states;
            idx /= num_states;
        }
    }

    /// `h(u | z̄)` by row index.
    #[inline]
    pub fn prob_by_row(&self, row: usize, u: usize) -> f64 {
        self.table[row * self.d + u]
    }

    /// `h(u | z̄)` by observation tuple.
    #[inline]
    pub fn prob(&self, tuple: &[usize], u: usize) -> f64 {
        self.prob_by_row(self.tuple_index(tuple), u)
    }

    /// The action distribution row for an observation tuple.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.table[row * self.d..(row + 1) * self.d]
    }

    /// Samples `u ∼ h(· | z̄)`.
    pub fn sample<R: Rng + ?Sized>(&self, tuple: &[usize], rng: &mut R) -> usize {
        let row = self.row(self.tuple_index(tuple));
        let mut u = rng.gen::<f64>();
        for (k, &p) in row.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return k;
            }
        }
        self.d - 1
    }

    /// The flat table (row-major over tuples).
    pub fn as_slice(&self) -> &[f64] {
        &self.table
    }

    /// Maximum absolute difference to another rule of the same shape.
    pub fn max_abs_diff(&self, other: &DecisionRule) -> f64 {
        assert_eq!(self.num_states, other.num_states);
        assert_eq!(self.d, other.d);
        self.table.iter().zip(other.table.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_rule_rows_are_uniform() {
        let r = DecisionRule::uniform(6, 2);
        assert_eq!(r.num_rows(), 36);
        for row in 0..36 {
            assert!((r.prob_by_row(row, 0) - 0.5).abs() < 1e-15);
            assert!((r.prob_by_row(row, 1) - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    fn tuple_index_roundtrip() {
        let r = DecisionRule::uniform(6, 3);
        for idx in 0..r.num_rows() {
            let tuple = r.decode_index(idx);
            assert_eq!(r.tuple_index(&tuple), idx);
        }
    }

    #[test]
    fn from_fn_sees_correct_tuples() {
        // Rule that always routes to the arg-min coordinate; check a few
        // known tuples.
        let r =
            DecisionRule::from_fn(
                3,
                2,
                |t| {
                    if t[0] <= t[1] {
                        vec![1.0, 0.0]
                    } else {
                        vec![0.0, 1.0]
                    }
                },
            );
        assert_eq!(r.prob(&[0, 2], 0), 1.0);
        assert_eq!(r.prob(&[2, 0], 1), 1.0);
        assert_eq!(r.prob(&[1, 1], 0), 1.0); // ties at first coordinate
    }

    #[test]
    fn from_logits_is_row_softmax() {
        // One row: logits (ln 1, ln 3) -> probs (0.25, 0.75).
        let r = DecisionRule::from_logits(1, 2, &[0.0, 3.0f64.ln()]);
        assert!((r.prob_by_row(0, 0) - 0.25).abs() < 1e-12);
        assert!((r.prob_by_row(0, 1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_logits_handles_extreme_values() {
        let r = DecisionRule::from_logits(1, 2, &[1000.0, -1000.0]);
        assert!((r.prob_by_row(0, 0) - 1.0).abs() < 1e-12);
        let mass: f64 = r.row(0).iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let r = DecisionRule::from_logits(1, 2, &[0.0, (3.0f64).ln()]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ones = 0usize;
        let n = 100_000;
        for _ in 0..n {
            ones += r.sample(&[0, 0], &mut rng);
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn serde_roundtrip() {
        let r =
            DecisionRule::from_logits(3, 2, &(0..18).map(|i| i as f64 * 0.1).collect::<Vec<_>>());
        let json = serde_json::to_string(&r).unwrap();
        let back: DecisionRule = serde_json::from_str(&json).unwrap();
        assert!(r.max_abs_diff(&back) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "row 0 sums")]
    fn rejects_non_stochastic_rows() {
        DecisionRule::new(2, 2, vec![0.9, 0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]);
    }
}
