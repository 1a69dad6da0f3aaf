//! Per-queue service models, shared by the mean field and the finite
//! aggregate engine.
//!
//! A [`ServiceModel`] fixes what the mean-field closure
//! ([`crate::mdp::MeanField`]) and `mflb_sim::AggregateEngine` must agree
//! on: the states clients observe, the hidden per-queue state of the mean
//! field (its layout and its lift from `ν₀`) and, for each observed state,
//! the chain its queues follow for one epoch at a frozen arrival rate
//! (Eq. 27–28). The three models are [`Exponential`] (the paper's),
//! [`RateClasses`] (heterogeneous rates, §2.5) and
//! [`PhaseType`] (non-exponential service, §5).

use crate::dist::StateDist;
use mflb_linalg::Move;
use mflb_queue::{BirthDeathQueue, PhQueue, PhaseType};
use std::fmt::Debug;
use std::ops::Range;

/// The chain that queues observed in one state follow for an epoch: the
/// block of hidden states it lives on, and its moves and nonzero drop
/// rates numbered from the block's start.
#[derive(Debug, Clone)]
pub struct GroupChain {
    /// The hidden states the chain lives on.
    pub block: Range<usize>,
    /// The off-diagonal generator entries.
    pub moves: Vec<Move>,
    /// Drop rates `(state, rate)`: the arrival rate on full-buffer states.
    pub drop_rates: Vec<(usize, f64)>,
}

impl GroupChain {
    fn birth_death(
        block_start: usize,
        arrival_rate: f64,
        service_rate: f64,
        buffer: usize,
    ) -> Self {
        let queue = BirthDeathQueue::new(arrival_rate, service_rate, buffer);
        let block = block_start..block_start + buffer + 1;
        Self { block, moves: queue.moves(), drop_rates: queue.drop_rates() }
    }
}

/// A per-queue service model over `B + 1` queue lengths. The mean field
/// keeps a distribution over hidden per-queue states; the hidden states
/// of observed state `o` are the contiguous range
/// [`ServiceModel::group`]`(o)`, in observed-state order.
pub trait ServiceModel: Clone + Debug + Send + Sync + 'static {
    /// Number of observed states, given the `B + 1` queue lengths
    /// (decision rules range over exactly these states).
    fn num_observed(&self, num_lengths: usize) -> usize {
        num_lengths
    }

    /// Queue length of observed state `o`.
    fn observed_length(&self, o: usize, _num_lengths: usize) -> usize {
        o
    }

    /// The hidden per-queue distribution of a pool whose lengths follow
    /// `nu0`.
    fn lift(&self, nu0: &StateDist) -> Vec<f64> {
        nu0.as_slice().to_vec()
    }

    /// The hidden states of observed state `o`.
    fn group(&self, o: usize, _num_lengths: usize) -> Range<usize> {
        o..o + 1
    }

    /// The chain queues observed in state `o` follow for one epoch at
    /// arrival rate `arrival_rate` (≥ 0). `service_rate` is the pool's
    /// exponential rate, which models with their own rates ignore.
    fn chain(&self, o: usize, arrival_rate: f64, service_rate: f64, buffer: usize) -> GroupChain;
}

/// Exponential service at one rate on every queue — the paper's model.
/// The hidden state is the length itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exponential;

impl ServiceModel for Exponential {
    fn chain(&self, _o: usize, arrival_rate: f64, service_rate: f64, buffer: usize) -> GroupChain {
        GroupChain::birth_death(0, arrival_rate, service_rate, buffer)
    }
}

/// Composite-state index of `(length z, class c)`: `c·(B+1) + z`, the
/// observed states of [`RateClasses`].
#[inline]
pub fn composite_index(z: usize, class: usize, num_lengths: usize) -> usize {
    class * num_lengths + z
}

/// Heterogeneous exponential service (§2.5, an extension the paper omits
/// for space): server `j` serves at its rate class's rate, and clients
/// observe composite `(length, class)` states [`composite_index`], so
/// rules are built over `C·(B+1)` states (e.g. `mflb_policy::sed_rule`).
/// The pool's own service rate is ignored.
#[derive(Debug, Clone)]
pub struct RateClasses {
    /// Rate class of each server (index into `class_rates`).
    class_of: Vec<usize>,
    /// Distinct class rates, in class order.
    class_rates: Vec<f64>,
}

impl RateClasses {
    /// Quantizes per-server rates into classes, numbered in
    /// first-appearance order (rates within `1e-12` share a class). The
    /// training env, the policy shape and the finite engine all build
    /// this one type, so composite indices agree everywhere.
    pub fn new(rates: &[f64]) -> Self {
        let mut class_rates: Vec<f64> = Vec::new();
        let class_of = rates
            .iter()
            .map(|&r| match class_rates.iter().position(|&x| (x - r).abs() < 1e-12) {
                Some(c) => c,
                None => {
                    class_rates.push(r);
                    class_rates.len() - 1
                }
            })
            .collect();
        Self { class_of, class_rates }
    }

    /// Number of distinct rate classes.
    pub fn num_classes(&self) -> usize {
        self.class_rates.len()
    }

    /// Distinct class rates.
    pub fn class_rates(&self) -> &[f64] {
        &self.class_rates
    }

    /// Rate class of server `j`.
    pub fn class_of(&self, j: usize) -> usize {
        self.class_of[j]
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.class_of.len()
    }

    /// Fraction of servers in each class.
    pub fn class_weights(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.num_classes()];
        for &c in &self.class_of {
            counts[c] += 1;
        }
        let total = self.class_of.len().max(1) as f64;
        counts.iter().map(|&c| c as f64 / total).collect()
    }
}

/// A queue never changes class, so the mean-field state is a per-class
/// family of length distributions `ν_c` held as the composite measure
/// `ν̄(z, c) = w_c·ν_c(z)` over the observed states themselves (`w_c` the
/// class fractions). The derivation of §2.3 then goes through verbatim
/// on the composite space:
///
/// * Eq. 22's per-state arrival rate is evaluated on `ν̄` — the integral
///   is the same, only the state alphabet grew;
/// * queues of class `c` observed at length `z` advance through
///   `exp(Q̄(λ(ν̄, (z, c)), α_c)·Δt)` — the exponential epoch kernel with
///   the class rate, on the class's own block of `B + 1` states;
/// * class masses are conserved, and the policy observes the length
///   marginal `Σ_c ν̄(·, c)`, what a heterogeneous engine reports.
///
/// With one class the model is the exponential one exactly.
impl ServiceModel for RateClasses {
    fn num_observed(&self, num_lengths: usize) -> usize {
        self.num_classes() * num_lengths
    }

    fn observed_length(&self, o: usize, num_lengths: usize) -> usize {
        o % num_lengths
    }

    fn lift(&self, nu0: &StateDist) -> Vec<f64> {
        let zs = nu0.num_states();
        let mut hidden = vec![0.0; self.num_observed(zs)];
        for (c, w) in self.class_weights().into_iter().enumerate() {
            for (z, &p) in nu0.as_slice().iter().enumerate() {
                hidden[composite_index(z, c, zs)] = w * p;
            }
        }
        hidden
    }

    fn chain(&self, o: usize, arrival_rate: f64, _service_rate: f64, buffer: usize) -> GroupChain {
        let class = o / (buffer + 1);
        let rate = self.class_rates[class];
        GroupChain::birth_death(class * (buffer + 1), arrival_rate, rate, buffer)
    }
}

/// With `PH(α, S)` service the per-queue chain lives on the joint states
/// `{0} ∪ {1..B}×{phases}` (the flat layout of [`PhQueue`]: `0` is empty,
/// `1 + (z−1)·k + i` is length `z` in phase `i`) instead of `{0..B}`, and
/// everything else of §2.3–2.5 survives:
///
/// * clients still observe only the (stale) queue lengths, so decision
///   rules stay tables over `Z^d`, and Eq. 22 is computed from the length
///   marginal of the joint distribution;
/// * queues that start an epoch at length `z` share the frozen rate
///   `λ_t(ν, z)`, so the exact epoch is one uniformization chain per
///   length — the `M/PH/1/B` quasi-birth–death generator
///   ([`PhQueue::moves`]) on all `1 + B·k` joint states, started from
///   that length's phase mix;
/// * the lift of `ν₀` gives every busy queue the initial phase mix `α`.
///
/// The phase is hidden state that ages: after an epoch under load the
/// in-service phase mix is no longer `α`, which is why the joint state is
/// needed. With one phase the model is the exponential one exactly.
impl ServiceModel for PhaseType {
    fn lift(&self, nu0: &StateDist) -> Vec<f64> {
        let mut hidden = vec![nu0.prob(0)];
        for &p in &nu0.as_slice()[1..] {
            hidden.extend(self.init().iter().map(|&a| p * a));
        }
        hidden
    }

    fn group(&self, o: usize, _num_lengths: usize) -> Range<usize> {
        let k = self.num_phases();
        if o == 0 {
            0..1
        } else {
            1 + (o - 1) * k..1 + o * k
        }
    }

    fn chain(&self, _o: usize, arrival_rate: f64, _service_rate: f64, buffer: usize) -> GroupChain {
        let queue = PhQueue::new(arrival_rate, self.clone(), buffer);
        GroupChain {
            block: 0..queue.num_states(),
            moves: queue.moves(),
            drop_rates: queue.drop_rates(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_distribution_is_consistent() {
        let classes = RateClasses::new(&[2.0, 0.5, 0.5, 0.5]);
        assert_eq!((classes.num_classes(), classes.num_observed(6)), (2, 12));
        let hidden = classes.lift(&StateDist::uniform(5));
        let mass: f64 = hidden.iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
        // ν̄(z = 3, c = 1) = 0.75 · 1/6.
        assert!((hidden[composite_index(3, 1, 6)] - 0.75 / 6.0).abs() < 1e-12);
        assert_eq!(classes.observed_length(composite_index(3, 1, 6), 6), 3);
        let chain = classes.chain(composite_index(3, 1, 6), 0.9, 1.0, 5);
        assert_eq!(chain.block, 6..12);
    }

    #[test]
    fn joint_layout_roundtrip_and_marginal() {
        let nu = StateDist::new(vec![0.4, 0.3, 0.2, 0.1]);
        let service = PhaseType::erlang(2, 2.0);
        let hidden = service.lift(&nu);
        assert_eq!(hidden.len(), 1 + 3 * 2);
        for z in 0..4 {
            let mass: f64 = hidden[service.group(z, 4)].iter().sum();
            assert!((mass - nu.prob(z)).abs() < 1e-12);
        }
        // Busy states carry the α split (Erlang starts in phase 0).
        assert_eq!(&hidden[service.group(1, 4)], &[0.3, 0.0]);
    }
}
