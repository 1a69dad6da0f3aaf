//! Mean-field model with **phase-type service** — the paper's §5
//! "non-exponential service times" extension, carried through the exact
//! discretization machinery.
//!
//! With `PH(α, S)` service the per-queue CTMC lives on the joint states
//! `{0} ∪ {1..B}×{phases}` instead of `{0..B}`; everything else in §2.3–2.5
//! of the paper survives unchanged:
//!
//! * clients still observe only the (stale) queue **lengths**, so decision
//!   rules remain tables over `Z^d` and the per-state arrival rates of
//!   Eq. 22 are computed from the *length marginal* of the joint
//!   distribution;
//! * queues that start an epoch at length `z` share the frozen arrival
//!   rate `λ_t(ν, z)`, so the exact one-epoch advance is again one
//!   uniformization epoch per epoch-start length — of the `M/PH/1/B`
//!   quasi-birth–death generator ([`mflb_queue::PhQueue::moves`]) with its
//!   drop rates, all lengths stacked into one kernel call;
//! * the upper-level MDP keeps state `(joint distribution, λ_t)` and the
//!   same decision-rule action space, so every
//!   [`UpperPolicy`](crate::mdp::UpperPolicy) (JSQ, RND, softmin, trained
//!   networks) plugs in unmodified via the length marginal — it is
//!   [`MeanFieldMdp`](crate::mdp::MeanFieldMdp) over the
//!   [`Ph`](crate::mdp::Ph) closure.
//!
//! With one phase (`PH = exponential`) the model collapses *exactly* to
//! [`crate::meanfield::mean_field_step`] (tested).

use crate::dist::StateDist;
use crate::meanfield::{per_state_arrival_rates, renormalized};
use crate::rule::DecisionRule;
use mflb_linalg::ChainStack;
use mflb_queue::{PhQueue, PhaseType};
use serde::{Deserialize, Serialize};

/// A probability distribution over the joint `(length, phase)` states of
/// an `M/PH/1/B` queue (flat layout of [`PhQueue`]: index `0` is empty,
/// index `1 + (z−1)·k + phase` is length `z` in `phase`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhDist {
    probs: Vec<f64>,
    buffer: usize,
    num_phases: usize,
}

impl PhDist {
    /// Creates a joint distribution from raw probabilities.
    ///
    /// # Panics
    /// Panics if the length is not `1 + B·k` or the entries are not a
    /// probability vector.
    pub fn new(probs: Vec<f64>, buffer: usize, num_phases: usize) -> Self {
        assert_eq!(probs.len(), 1 + buffer * num_phases, "joint layout mismatch");
        let mass: f64 = probs.iter().sum();
        assert!((mass - 1.0).abs() < 1e-8, "joint mass {mass}");
        assert!(probs.iter().all(|&p| p >= -1e-12));
        let mut probs = probs;
        for p in &mut probs {
            if *p < 0.0 {
                *p = 0.0;
            }
        }
        Self { probs, buffer, num_phases }
    }

    /// All queues empty.
    pub fn all_empty(buffer: usize, num_phases: usize) -> Self {
        let mut v = vec![0.0; 1 + buffer * num_phases];
        v[0] = 1.0;
        Self { probs: v, buffer, num_phases }
    }

    /// Lifts a length distribution to the joint space by giving every busy
    /// queue the service distribution's initial phase mix `α` (the natural
    /// embedding used for ν₀ and for comparisons against the exponential
    /// model).
    pub fn from_lengths(lengths: &StateDist, service: &PhaseType) -> Self {
        let buffer = lengths.buffer();
        let k = service.num_phases();
        let alpha = service.init();
        let mut v = vec![0.0; 1 + buffer * k];
        v[0] = lengths.prob(0);
        for z in 1..=buffer {
            for (i, &a) in alpha.iter().enumerate() {
                v[1 + (z - 1) * k + i] = lengths.prob(z) * a;
            }
        }
        Self { probs: v, buffer, num_phases: k }
    }

    /// Buffer size `B`.
    pub fn buffer(&self) -> usize {
        self.buffer
    }

    /// Number of service phases `k`.
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// Raw joint probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Joint probability of `(length z, phase i)`; `phase` is ignored for
    /// `z = 0`.
    pub fn prob(&self, z: usize, phase: usize) -> f64 {
        if z == 0 {
            self.probs[0]
        } else {
            self.probs[1 + (z - 1) * self.num_phases + phase]
        }
    }

    /// The queue-**length** marginal `ν(z) = Σ_i joint(z, i)` — what the
    /// clients observe and what decision rules act on.
    pub fn length_marginal(&self) -> StateDist {
        let mut v = vec![0.0; self.buffer + 1];
        v[0] = self.probs[0];
        for z in 1..=self.buffer {
            for i in 0..self.num_phases {
                v[z] += self.probs[1 + (z - 1) * self.num_phases + i];
            }
        }
        // Guard against 1e-16 drift before the StateDist constructor.
        let mass: f64 = v.iter().sum();
        if mass > 0.0 {
            for p in &mut v {
                *p /= mass;
            }
        }
        StateDist::new(v)
    }

    /// Mean queue length under the length marginal.
    pub fn mean_queue_length(&self) -> f64 {
        self.length_marginal().mean_queue_length()
    }

    /// ℓ₁ distance to another joint distribution of the same shape.
    pub fn l1_distance(&self, other: &PhDist) -> f64 {
        assert_eq!(self.probs.len(), other.probs.len());
        self.probs.iter().zip(other.probs.iter()).map(|(a, b)| (a - b).abs()).sum()
    }
}

/// Output of one exact PH mean-field epoch.
#[derive(Debug, Clone)]
pub struct PhMeanFieldStep {
    /// Joint distribution at the end of the epoch.
    pub next_dist: PhDist,
    /// Expected packets dropped per queue during the epoch.
    pub expected_drops: f64,
    /// Per-length arrival rates `λ_t(ν, z)` used (diagnostics / tests).
    pub arrival_rates: Vec<f64>,
}

/// Advances the PH mean field by one decision epoch of length `dt`.
///
/// Exactly mirrors [`crate::meanfield::mean_field_step`]: queues are
/// grouped by their epoch-start **length** (which fixes their frozen
/// arrival rate), each group advances through the uniformization epoch of
/// the `M/PH/1/B` generator, and the results are mixed back.
pub fn ph_mean_field_step(
    joint: &PhDist,
    rule: &DecisionRule,
    lambda: f64,
    service: &PhaseType,
    dt: f64,
) -> PhMeanFieldStep {
    assert!(lambda >= 0.0 && dt > 0.0);
    assert_eq!(service.num_phases(), joint.num_phases(), "service/joint phase mismatch");
    let buffer = joint.buffer();
    let k = joint.num_phases();
    let nu = joint.length_marginal();
    let rates = per_state_arrival_rates(&nu, rule, lambda);

    // Queues that start the epoch at length z form one chain of the stack.
    let n = 1 + buffer * k;
    let mut stack = ChainStack::default();
    for z in 0..=buffer {
        let group = if z == 0 { 0..1 } else { 1 + (z - 1) * k..1 + z * k };
        let mut start = vec![0.0f64; n];
        start[group.clone()].copy_from_slice(&joint.as_slice()[group]);
        if start.iter().all(|&p| p == 0.0) {
            continue;
        }
        let queue = PhQueue::new(rates[z].max(0.0), service.clone(), buffer);
        stack.push(&queue.moves(), &queue.drop_rates(), &start);
    }
    let (next, drops) = stack.advance(dt, n);

    PhMeanFieldStep {
        next_dist: PhDist::new(renormalized(next), buffer, k),
        expected_drops: drops,
        arrival_rates: rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::mdp::{FixedRulePolicy, MeanFieldMdp, Ph};

    fn ph_mdp(cfg: SystemConfig, service: PhaseType) -> MeanFieldMdp<Ph> {
        let closure = Ph::new(&cfg, service);
        MeanFieldMdp::with_closure(cfg, closure)
    }

    fn jsq() -> DecisionRule {
        DecisionRule::from_fn(6, 2, |t| {
            use std::cmp::Ordering::*;
            match t[0].cmp(&t[1]) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        })
    }

    #[test]
    fn joint_layout_roundtrip_and_marginal() {
        let nu = StateDist::new(vec![0.4, 0.3, 0.2, 0.1]);
        let service = PhaseType::erlang(2, 2.0);
        let joint = PhDist::from_lengths(&nu, &service);
        assert_eq!(joint.as_slice().len(), 1 + 3 * 2);
        let back = joint.length_marginal();
        assert!(nu.l1_distance(&back) < 1e-12);
        // Busy states carry the α split (Erlang starts in phase 0).
        assert!((joint.prob(1, 0) - 0.3).abs() < 1e-12);
        assert_eq!(joint.prob(1, 1), 0.0);
    }

    #[test]
    fn one_phase_reduces_to_plain_mean_field() {
        // PH = exponential(α): the PH step must agree with the Eq. 20–28
        // implementation to machine precision on a whole trajectory.
        let cfg = SystemConfig::paper().with_dt(4.0);
        let plain = MeanFieldMdp::new(cfg.clone());
        let ph = ph_mdp(cfg, PhaseType::exponential(1.0));
        let policy = FixedRulePolicy::new(jsq(), "MF-JSQ(2)");
        let seq = vec![0usize, 1, 0, 0, 1, 1, 0, 1, 0, 0];
        let a = plain.rollout_conditioned(&policy, &seq);
        let b = ph.rollout_conditioned(&policy, &seq);
        for (x, y) in a.drops_per_epoch.iter().zip(b.drops_per_epoch.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn step_conserves_mass_and_bounds_drops() {
        let service = PhaseType::fit_mean_scv(1.0, 2.0);
        let joint = PhDist::from_lengths(&StateDist::uniform(5), &service);
        let step = ph_mean_field_step(&joint, &jsq(), 0.9, &service, 5.0);
        let mass: f64 = step.next_dist.as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 1e-10);
        assert!(step.expected_drops >= 0.0 && step.expected_drops <= 0.9 * 5.0);
    }

    #[test]
    fn higher_service_variability_drops_more() {
        // Long conditioned rollout at fixed mean service time: SCV 4
        // service must lose more packets than SCV 0.25 under JSQ.
        let cfg = SystemConfig::paper().with_dt(5.0);
        let policy = FixedRulePolicy::new(jsq(), "MF-JSQ(2)");
        let seq = vec![0usize; 30];
        let drops_of = |scv: f64| {
            let mdp = ph_mdp(cfg.clone(), PhaseType::fit_mean_scv(1.0, scv));
            -mdp.rollout_conditioned(&policy, &seq).total_return
        };
        let low = drops_of(0.25);
        let high = drops_of(4.0);
        assert!(low < high, "SCV 0.25 drops {low} must be below SCV 4 drops {high}");
    }

    #[test]
    fn phase_mix_drifts_away_from_alpha_under_load() {
        // After an epoch under load, the in-service phase distribution is
        // no longer the fresh-start α (phases age) — the whole reason the
        // joint state is necessary.
        let service = PhaseType::erlang(2, 2.0);
        let joint = PhDist::from_lengths(&StateDist::all_empty(5), &service);
        let step = ph_mean_field_step(&joint, &jsq(), 0.9, &service, 5.0);
        let d = &step.next_dist;
        // Some queues at length 1 must be in the second Erlang stage.
        assert!(d.prob(1, 1) > 1e-4, "aged phase mass {}", d.prob(1, 1));
    }

    #[test]
    fn seeded_rollouts_reproduce() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = SystemConfig::paper().with_dt(5.0);
        let mdp = ph_mdp(cfg, PhaseType::fit_mean_scv(1.0, 0.5));
        let policy = FixedRulePolicy::new(jsq(), "MF-JSQ(2)");
        let a = mdp.rollout(&policy, 12, &mut StdRng::seed_from_u64(9));
        let b = mdp.rollout(&policy, 12, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }
}
