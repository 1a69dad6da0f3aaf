//! The exact mean-field transition (Eq. 16–28).
//!
//! Given the queue-state distribution `ν_t`, the arrival-rate level `λ_t`
//! and a decision rule `h_t`, one decision epoch of length `Δt` maps to:
//!
//! 1. per-state arrival rates `λ_t(ν, z)` (Eq. 22) — the rate at which
//!    packets arrive at any *specific* queue currently observed in state
//!    `z`,
//! 2. for each `z`, the extended generator `Q̄(ν, z)` of Eq. 27 whose last
//!    row accumulates expected drops,
//! 3. the exact one-epoch advance `exp(Q̄·Δt)·[e_z; 0]` (Eq. 28), computed
//!    by uniformization ([`mflb_linalg::advance`], every occupied `z` one
//!    chain of a [`mflb_linalg::ChainStack`]): the queue generator pushes
//!    `e_z` through the Poisson series and the drop row becomes an integral
//!    of the arrival rate on the full-buffer state, exact up to a neglected
//!    Poisson tail of `1e-18` per substep (the `epoch_kernel` test of
//!    `mflb-linalg` bounds the gap to the Padé matrix exponential by
//!    `1e-10`),
//! 4. the aggregate update `ν_{t+1}(z') = Σ_z ν_t(z)·P^z_{z'}(Δt)` (Eq. 24)
//!    and expected per-queue drops `D_t = Σ_z ν_t(z)·D^z_t(Δt)` (Eq. 26).
//!
//! ### Numerical note on Eq. 22
//! The paper writes `λ_t(ν,z) = λ_t/ν(z) · ∫ 1{z̄_u = z} (ν^⊗d ⊗ h)`; the
//! integrand contains the factor `ν(z̄_u) = ν(z)`, so the division cancels
//! analytically. We implement the cancelled form
//! `λ_t(ν,z) = λ_t · Σ_u Σ_{z̄ : z̄_u = z} h(u|z̄) · Π_{k≠u} ν(z̄_k)`,
//! which is well-defined even when `ν(z) = 0` (no 0/0).

use crate::dist::StateDist;
use crate::rule::DecisionRule;
use crate::service::{Exponential, ServiceModel};
use mflb_linalg::ChainStack;

/// Output of one exact mean-field epoch.
#[derive(Debug, Clone)]
pub struct MeanFieldStep {
    /// Queue-state distribution at the end of the epoch (`ν_{t+1}`).
    pub next_dist: StateDist,
    /// Expected packets dropped per queue during the epoch (`D_t`).
    pub expected_drops: f64,
    /// Per-state arrival rates `λ_t(ν, z)` actually used (diagnostics /
    /// tests).
    pub arrival_rates: Vec<f64>,
}

/// Computes the per-state arrival rates `λ_t(ν, z)` for all `z ∈ Z`
/// (Eq. 22, in the analytically cancelled form described in the module
/// docs).
pub fn per_state_arrival_rates(nu: &StateDist, rule: &DecisionRule, lambda: f64) -> Vec<f64> {
    let mut rates = vec![0.0f64; nu.num_states()];
    per_state_arrival_rates_into(nu.as_slice(), rule, lambda, &mut rates);
    rates
}

/// Buffer-reusing, slice-level core of [`per_state_arrival_rates`]: the
/// state measure arrives as a raw probability slice and the rates are
/// written into `rates` (one slot per state). This is what the
/// graph-constrained engine calls once per *dispatcher neighborhood* per
/// epoch, so it must not allocate per call beyond the `d`-length tuple
/// scratch.
pub fn per_state_arrival_rates_into(
    nu: &[f64],
    rule: &DecisionRule,
    lambda: f64,
    rates: &mut [f64],
) {
    let zs = nu.len();
    let d = rule.d();
    assert_eq!(rule.num_states(), zs, "rule/state-space mismatch");
    assert_eq!(rates.len(), zs, "rate buffer/state-space mismatch");
    rates.iter_mut().for_each(|r| *r = 0.0);
    let mut tuple = [0usize; 8];
    let mut tuple_vec;
    let tuple: &mut [usize] = if d <= 8 {
        &mut tuple[..d]
    } else {
        tuple_vec = vec![0usize; d];
        &mut tuple_vec
    };
    for row in 0..rule.num_rows() {
        // Decode the observation tuple for this row.
        let mut idx = row;
        for k in (0..d).rev() {
            tuple[k] = idx % zs;
            idx /= zs;
        }
        for u in 0..d {
            let h = rule.prob_by_row(row, u);
            if h == 0.0 {
                continue;
            }
            // Π_{k≠u} ν(z̄_k)
            let mut others = 1.0;
            for (k, &z) in tuple.iter().enumerate() {
                if k != u {
                    others *= nu[z];
                }
            }
            if others == 0.0 {
                continue;
            }
            rates[tuple[u]] += lambda * h * others;
        }
    }
}

/// Sparse-support variant of [`per_state_arrival_rates_into`] for
/// measures concentrated on few states — the locality-constrained
/// engine's case, where `ν` is a `k`-queue neighborhood histogram with at
/// most `min(k, |Z|)` occupied states.
///
/// `support` must list the states with `ν(z) > 0` in **ascending** order.
/// Only observation tuples drawn entirely from the support are
/// enumerated — `|support|^d` of them instead of the dense `|Z|^d` rows —
/// because every excluded row has some coordinate with zero measure and
/// therefore contributes nothing to any *occupied* state's rate.
///
/// The enumeration visits the surviving rows in the same (row-index)
/// order as the dense sweep and accumulates the identical products, so
/// `rates[z]` is **bit-identical** to the dense result for every
/// `z ∈ support` (enforced by a `to_bits` test). Entries outside the
/// support are left at `0.0`; the dense sweep can assign them positive
/// rates (the analytically-cancelled Eq. 22 is defined for zero-mass
/// states too), so callers must read support states only.
pub fn per_state_arrival_rates_sparse_into(
    nu: &[f64],
    support: &[usize],
    rule: &DecisionRule,
    lambda: f64,
    rates: &mut [f64],
) {
    let zs = nu.len();
    let d = rule.d();
    let s = support.len();
    assert_eq!(rule.num_states(), zs, "rule/state-space mismatch");
    assert_eq!(rates.len(), zs, "rate buffer/state-space mismatch");
    debug_assert!(support.windows(2).all(|w| w[0] < w[1]), "support must be ascending");
    debug_assert!(support.iter().all(|&z| z < zs && nu[z] > 0.0), "support must carry mass");
    rates.iter_mut().for_each(|r| *r = 0.0);
    if s == 0 {
        return;
    }
    // Odometer over support positions; lexicographic tuple order is
    // ascending row order restricted to the support sub-grid.
    let mut pos = [0usize; 8];
    let mut pos_vec;
    let pos: &mut [usize] = if d <= 8 {
        &mut pos[..d]
    } else {
        pos_vec = vec![0usize; d];
        &mut pos_vec
    };
    let mut tuple = [0usize; 8];
    let mut tuple_vec;
    let tuple: &mut [usize] = if d <= 8 {
        &mut tuple[..d]
    } else {
        tuple_vec = vec![0usize; d];
        &mut tuple_vec
    };
    loop {
        let mut row = 0usize;
        for k in 0..d {
            tuple[k] = support[pos[k]];
            row = row * zs + tuple[k];
        }
        for u in 0..d {
            let h = rule.prob_by_row(row, u);
            if h == 0.0 {
                continue;
            }
            // Π_{k≠u} ν(z̄_k), multiplied in the dense sweep's index order.
            let mut others = 1.0;
            for (k, &z) in tuple.iter().enumerate() {
                if k != u {
                    others *= nu[z];
                }
            }
            if others == 0.0 {
                continue;
            }
            rates[tuple[u]] += lambda * h * others;
        }
        // Advance the odometer (most significant digit first ⇒ row order).
        let mut k = d;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            pos[k] += 1;
            if pos[k] < s {
                break;
            }
            pos[k] = 0;
        }
    }
}

/// Advances the mean field by one decision epoch of length `dt`.
///
/// Returns the next distribution, the expected per-queue drops and the
/// per-state arrival rates.
pub fn mean_field_step(
    nu: &StateDist,
    rule: &DecisionRule,
    lambda: f64,
    service_rate: f64,
    dt: f64,
) -> MeanFieldStep {
    assert!(lambda >= 0.0, "negative arrival rate");
    let rates = per_state_arrival_rates(nu, rule, lambda);
    let (next, drops) =
        advance_groups(&Exponential, nu.as_slice(), &rates, service_rate, nu.num_states(), dt);
    MeanFieldStep { next_dist: StateDist::new(next), expected_drops: drops, arrival_rates: rates }
}

/// One epoch of the hidden distribution `hidden` under per-observed-state
/// arrival rates `rates` (Eq. 24–28): every occupied observed state `o`
/// advances its group through `service`'s chain at `rates[o]` (negative
/// rates clamp to 0), all chains stacked into one [`ChainStack`]. Returns
/// the renormalized mixed end distribution and the expected per-queue
/// drops.
pub(crate) fn advance_groups<S: ServiceModel>(
    service: &S,
    hidden: &[f64],
    rates: &[f64],
    service_rate: f64,
    num_lengths: usize,
    dt: f64,
) -> (Vec<f64>, f64) {
    assert!(service_rate >= 0.0 && dt > 0.0);
    let mut stack = ChainStack::default();
    for (o, &rate) in rates.iter().enumerate() {
        let group = service.group(o, num_lengths);
        if hidden[group.clone()].iter().all(|&p| p == 0.0) {
            continue;
        }
        let chain = service.chain(o, rate.max(0.0), service_rate, num_lengths - 1);
        let at = group.start - chain.block.start;
        stack.push(chain.block, &chain.moves, &chain.drop_rates, at, &hidden[group]);
    }
    let (next, drops) = stack.advance(dt, hidden.len());
    (renormalized(next), drops)
}

/// The epoch kernel conserves mass up to round-off; renormalize
/// defensively so long roll-outs cannot drift.
pub(crate) fn renormalized(mut next: Vec<f64>) -> Vec<f64> {
    let total: f64 = next.iter().sum();
    debug_assert!((total - 1.0).abs() < 1e-8, "mass drift {total}");
    next.iter_mut().for_each(|v| *v = v.max(0.0) / total);
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsq_rule(zs: usize) -> DecisionRule {
        DecisionRule::from_fn(zs, 2, |t| {
            use std::cmp::Ordering::*;
            match t[0].cmp(&t[1]) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        })
    }

    #[test]
    fn arrival_rates_conserve_total_mass() {
        // Σ_z ν(z)·λ(ν,z) = λ for any rule and ν (Poisson-thinning
        // consistency): every arriving packet lands in exactly one queue.
        let nu = StateDist::new(vec![0.3, 0.25, 0.2, 0.15, 0.07, 0.03]);
        for rule in [DecisionRule::uniform(6, 2), jsq_rule(6)] {
            let rates = per_state_arrival_rates(&nu, &rule, 0.9);
            let total: f64 = rates.iter().enumerate().map(|(z, r)| nu.prob(z) * r).sum();
            assert!((total - 0.9).abs() < 1e-12, "total {total}");
        }
    }

    #[test]
    fn uniform_rule_gives_uniform_rates() {
        // Under MF-RND every queue receives rate λ regardless of its state
        // (for states with positive mass the thinned rate is λ·ν(z)·M /
        // (M·ν(z)) = λ).
        let nu = StateDist::new(vec![0.5, 0.3, 0.2]);
        let rule = DecisionRule::uniform(3, 2);
        let rates = per_state_arrival_rates(&nu, &rule, 0.7);
        for (z, &r) in rates.iter().enumerate() {
            assert!((r - 0.7).abs() < 1e-12, "state {z}: rate {r}");
        }
    }

    #[test]
    fn jsq_rule_prefers_short_queues() {
        let nu = StateDist::new(vec![0.5, 0.5, 0.0]);
        let rule = jsq_rule(3);
        let rates = per_state_arrival_rates(&nu, &rule, 1.0);
        // Queues in state 0 must receive strictly more than queues in
        // state 1; empty-measure state 2 must receive the residual formula
        // value but carries no mass.
        assert!(rates[0] > rates[1]);
        // State 0 is chosen when paired with state 1 (prob 2·0.5·0.5·1) and
        // when paired with itself (prob 0.25, split 0.5) -> rate
        // = (0.25·0.5·2 + 0.5)·2λ ... cross-check with direct enumeration:
        let manual_rate0: f64 = {
            // tuples (0,0): h=1/2 each side -> contribution for z=0 is
            // ν(0)·(1/2) + ν(0)·(1/2) = 0.5; tuple (0,1): u=0 h=1 others=ν(1);
            // tuple (1,0): u=1 h=1 others=ν(1).
            0.5 * 0.5 + 0.5 * 0.5 + 0.5 * 1.0 + 0.5 * 1.0
        };
        assert!((rates[0] - manual_rate0 * 1.0).abs() < 1e-12, "{}", rates[0]);
    }

    #[test]
    fn sparse_rates_are_bit_identical_to_dense_on_the_support() {
        // The sparse sweep is the graph engine's hot path; it must agree
        // with the dense Eq. 22 sweep to the last bit on occupied states,
        // for any support pattern — that is what lets the engine cut over
        // between the two without perturbing pinned RNG streams.
        let patterns: Vec<Vec<f64>> = vec![
            vec![0.4, 0.0, 0.6, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.2, 0.2, 0.2, 0.2, 0.1, 0.1],
            vec![0.0, 0.5, 0.0, 0.3, 0.0, 0.2],
        ];
        for rule in [DecisionRule::uniform(6, 2), jsq_rule(6)] {
            for nu in &patterns {
                let support: Vec<usize> =
                    nu.iter().enumerate().filter(|(_, &p)| p > 0.0).map(|(z, _)| z).collect();
                let mut dense = vec![0.0; 6];
                let mut sparse = vec![0.0; 6];
                per_state_arrival_rates_into(nu, &rule, 0.9, &mut dense);
                per_state_arrival_rates_sparse_into(nu, &support, &rule, 0.9, &mut sparse);
                for &z in &support {
                    assert_eq!(
                        dense[z].to_bits(),
                        sparse[z].to_bits(),
                        "state {z}: dense {} vs sparse {}",
                        dense[z],
                        sparse[z]
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_rates_handle_degenerate_supports() {
        let rule = jsq_rule(6);
        let mut rates = vec![1.0; 6];
        per_state_arrival_rates_sparse_into(&[0.0; 6], &[], &rule, 0.9, &mut rates);
        assert!(rates.iter().all(|&r| r == 0.0), "empty support zeroes the buffer");
        let mut nu = vec![0.0; 6];
        nu[3] = 1.0;
        per_state_arrival_rates_sparse_into(&nu, &[3], &rule, 0.9, &mut rates);
        // All mass in one state: that state receives exactly λ.
        assert!((rates[3] - 0.9).abs() < 1e-12, "{}", rates[3]);
    }

    #[test]
    fn zero_mass_states_do_not_produce_nan() {
        let nu = StateDist::delta(5, 0);
        let rule = jsq_rule(6);
        let rates = per_state_arrival_rates(&nu, &rule, 0.9);
        assert!(rates.iter().all(|r| r.is_finite()));
        // All mass in state 0 -> a queue in state 0 receives exactly λ.
        assert!((rates[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn step_outputs_valid_distribution_and_bounded_drops() {
        let nu = StateDist::new(vec![0.1, 0.2, 0.3, 0.2, 0.1, 0.1]);
        let rule = jsq_rule(6);
        for &dt in &[0.5, 1.0, 5.0, 10.0] {
            let step = mean_field_step(&nu, &rule, 0.9, 1.0, dt);
            let mass: f64 = step.next_dist.as_slice().iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
            assert!(step.expected_drops >= 0.0);
            // D_t ≤ λ·Δt: cannot drop more than arrives.
            assert!(step.expected_drops <= 0.9 * dt + 1e-9, "dt={dt}");
        }
    }

    #[test]
    fn empty_system_no_arrivals_stays_empty() {
        let nu = StateDist::all_empty(5);
        let rule = DecisionRule::uniform(6, 2);
        let step = mean_field_step(&nu, &rule, 0.0, 1.0, 5.0);
        assert!((step.next_dist.prob(0) - 1.0).abs() < 1e-12);
        assert_eq!(step.expected_drops, 0.0);
    }

    #[test]
    fn jsq_beats_rnd_with_instant_information() {
        // Single epoch from a mixed state: choosing shorter queues must
        // yield fewer expected drops than random assignment (no delay
        // within one epoch from the same ν, so JSQ's information is fresh).
        let nu = StateDist::new(vec![0.2, 0.1, 0.1, 0.1, 0.1, 0.4]);
        let drops_jsq = mean_field_step(&nu, &jsq_rule(6), 0.9, 1.0, 1.0).expected_drops;
        let drops_rnd =
            mean_field_step(&nu, &DecisionRule::uniform(6, 2), 0.9, 1.0, 1.0).expected_drops;
        assert!(
            drops_jsq < drops_rnd,
            "jsq {drops_jsq} should beat rnd {drops_rnd} for one fresh epoch"
        );
    }

    #[test]
    fn matches_single_queue_expectation_when_rates_are_uniform() {
        // Under MF-RND the per-state rate is λ everywhere, so the mean
        // field must equal the transient of ONE M/M/1/B queue with rate λ
        // started from ν.
        let nu = StateDist::delta(5, 2);
        let rule = DecisionRule::uniform(6, 2);
        let (lam, alpha, dt) = (0.8, 1.0, 4.0);
        let step = mean_field_step(&nu, &rule, lam, alpha, dt);
        let q = mflb_queue::BirthDeathQueue::new(lam, alpha, 5);
        let (dist, drops) = q.epoch_expectation(2, dt);
        for (a, b) in step.next_dist.as_slice().iter().zip(dist.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((step.expected_drops - drops).abs() < 1e-10);
    }
}
