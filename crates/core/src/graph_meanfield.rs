//! Degree-indexed mean-field approximation of the **locality-constrained**
//! system (graph topologies, [`crate::topology::Topology`]).
//!
//! In the graph model every dispatcher samples its `d` queues from a
//! closed neighborhood of fixed size `k` instead of from all `M` queues
//! (cf. Tahir, Cui & Koeppl, arXiv:2312.12973). As `M → ∞` with `k`
//! fixed, queue states stay exchangeable on vertex-transitive families,
//! but a tagged queue's arrival rate now depends on the *composition of
//! its neighborhood*, not only on the global measure `ν_t` — the limit is
//! no longer the closed Eq. 20–28 recursion.
//!
//! This module implements the standard first-order ("annealed") closure,
//! indexed by the single parameter `k`:
//!
//! * a tagged queue in state `z` belongs to the accessible sets of `k`
//!   dispatchers (itself and its neighbors);
//! * each such dispatcher's neighborhood contains the tagged queue plus
//!   `k − 1` other queues, approximated as i.i.d. draws from `ν_t`
//!   (exact on locally tree-like graphs at independence order 1, a
//!   heuristic on lattices where neighbor states correlate);
//! * the dispatcher's sampling measure is therefore the **self-weighted**
//!   mixture `H̄_z = (1/k)·δ_z + ((k−1)/k)·ν_t`, and the tagged queue's
//!   arrival rate is `λ_t(ν, z) = λ_t · ρ(H̄_z)[z]` with `ρ` the Eq. 22
//!   integrand ([`per_state_arrival_rates_into`]) — each of the `k`
//!   covering dispatchers routes a specific-queue share `ρ(H̄_z)[z]/k` of
//!   its `λ_t` traffic to the tagged queue.
//!
//! Because `H̄_z` varies with the tagged state, the raw rates conserve
//! arrival mass only approximately; they are renormalized so
//! `Σ_z ν(z)·λ_t(ν, z) = λ_t` holds exactly (Poisson-thinning
//! consistency — every packet lands somewhere). As `k → ∞`, `H̄_z → ν`
//! and both the raw rates and the normalization converge to the paper's
//! full-mesh Eq. 22, so the approximation nests the original model
//! (tested below).

//!
//! ## Second order: the pair approximation
//!
//! The annealed closure treats a tagged queue's `k − 1` neighbors as
//! i.i.d. `ν_t` draws, discarding edge correlations entirely. The **pair
//! approximation** keeps one more moment: the symmetric edge distribution
//! `q_t(z, z') = P(tagged queue in z, uniformly random neighbor in z')`,
//! stored as a dense `|Z|²` vector. The tagged queue's dispatchers now
//! sample their other `k − 1` queues from the **conditional neighbor
//! measure** `ν̃_z = q_t(z, ·)/ν_t(z)` instead of `ν_t`
//! ([`pair_arrival_rates`]), which is what distinguishes e.g. a lattice
//! (where long neighbors cluster next to long queues) from a tree at the
//! same `k`. [`pair_mean_field_step`] then advances the edge
//! distribution with the per-endpoint exact CTMC kernels (Eq. 24–28 per
//! state). Transitions factorize across the edge — correlation is
//! *propagated* through the conditional rates, not generated by the
//! step — so `q = ν ⊗ ν` reproduces the annealed closure exactly, and
//! correlated initial edges (e.g. finite-system snapshots) relax toward
//! it; both nestings are tested below.

use crate::dist::StateDist;
use crate::meanfield::{per_state_arrival_rates_into, renormalized, MeanFieldStep};
use crate::rule::DecisionRule;
use mflb_queue::BirthDeathQueue;

/// Computes the degree-indexed per-state arrival rates `λ_t(ν, z)` for a
/// closed-neighborhood size `k` (see the module docs for the derivation).
pub fn graph_arrival_rates(nu: &StateDist, rule: &DecisionRule, lambda: f64, k: usize) -> Vec<f64> {
    assert!(k >= 1, "neighborhood size must be at least 1");
    assert!(lambda >= 0.0, "negative arrival rate");
    let zs = nu.num_states();
    let mut rates = vec![0.0f64; zs];
    let mut hbar = vec![0.0f64; zs];
    let mut local = vec![0.0f64; zs];
    let self_w = 1.0 / k as f64;
    let other_w = (k - 1) as f64 / k as f64;
    for z in 0..zs {
        for (s, h) in hbar.iter_mut().enumerate() {
            *h = other_w * nu.prob(s);
        }
        hbar[z] += self_w;
        per_state_arrival_rates_into(&hbar, rule, lambda, &mut local);
        rates[z] = local[z];
    }
    // Renormalize for exact thinning consistency (see module docs). The
    // factor tends to 1 as k grows; with all mass in zero-rate states the
    // rates are already all ~0 and nothing needs scaling.
    let mass: f64 = (0..zs).map(|z| nu.prob(z) * rates[z]).sum();
    if mass > 0.0 && lambda > 0.0 {
        let scale = lambda / mass;
        for r in &mut rates {
            *r *= scale;
        }
    }
    rates
}

/// Builds the independent (annealed-equivalent) edge distribution
/// `q(z, z') = ν(z)·ν(z')` — the canonical initializer of the pair
/// closure when no correlation information is available.
pub fn independent_pair(nu: &StateDist) -> Vec<f64> {
    let zs = nu.num_states();
    let mut q = vec![0.0f64; zs * zs];
    for z1 in 0..zs {
        for z2 in 0..zs {
            q[z1 * zs + z2] = nu.prob(z1) * nu.prob(z2);
        }
    }
    q
}

/// Marginalizes a `|Z|²` edge distribution onto its first coordinate. On
/// vertex-transitive graphs the edge law is symmetric, so this is *the*
/// queue-state distribution of the pair closure.
pub fn pair_marginal(pair: &[f64]) -> StateDist {
    let zs = pair_num_states(pair);
    let nu: Vec<f64> = (0..zs).map(|z1| pair[z1 * zs..(z1 + 1) * zs].iter().sum()).collect();
    StateDist::new(nu)
}

fn pair_num_states(pair: &[f64]) -> usize {
    let zs = (pair.len() as f64).sqrt().round() as usize;
    assert_eq!(zs * zs, pair.len(), "edge distribution must be a |Z|² vector");
    assert!(zs >= 1, "empty state space");
    zs
}

/// Computes the pair-approximation per-state arrival rates: the tagged
/// queue in state `z` sees the sampling measure
/// `H̄_z = (1/k)·δ_z + ((k−1)/k)·ν̃_z` with `ν̃_z = q(z,·)/ν(z)` the
/// conditional neighbor measure (see the module docs). Renormalized so
/// `Σ_z ν(z)·rate(z) = λ` exactly, like [`graph_arrival_rates`] — to
/// which this reduces, exactly, when `q = ν ⊗ ν`.
pub fn pair_arrival_rates(pair: &[f64], rule: &DecisionRule, lambda: f64, k: usize) -> Vec<f64> {
    assert!(k >= 1, "neighborhood size must be at least 1");
    assert!(lambda >= 0.0, "negative arrival rate");
    let zs = pair_num_states(pair);
    let mut rates = vec![0.0f64; zs];
    let mut hbar = vec![0.0f64; zs];
    let mut local = vec![0.0f64; zs];
    let self_w = 1.0 / k as f64;
    let other_w = (k - 1) as f64 / k as f64;
    let mut mass = 0.0f64;
    for z in 0..zs {
        let nu_z: f64 = pair[z * zs..(z + 1) * zs].iter().sum();
        if nu_z == 0.0 {
            continue; // no tagged queues in state z: rate is irrelevant
        }
        for (s, h) in hbar.iter_mut().enumerate() {
            *h = other_w * (pair[z * zs + s] / nu_z);
        }
        hbar[z] += self_w;
        per_state_arrival_rates_into(&hbar, rule, lambda, &mut local);
        rates[z] = local[z];
        mass += nu_z * rates[z];
    }
    if mass > 0.0 && lambda > 0.0 {
        let scale = lambda / mass;
        for r in &mut rates {
            *r *= scale;
        }
    }
    rates
}

/// Advances the pair closure by one decision epoch of length `dt`.
///
/// Rates come from [`pair_arrival_rates`]; each endpoint of an edge then
/// evolves by its state's exact CTMC kernel (the distribution block of
/// `exp(Q̄(rate_z) Δt)`, Eq. 24–28), so the edge update is
/// `q'(y₁,y₂) = Σ q(z₁,z₂)·P^{z₁}(y₁)·P^{z₂}(y₂)`. Returns the next edge
/// distribution plus the marginal [`MeanFieldStep`], mixed from the same
/// kernels: `ν'(y) = Σ_z ν(z)·P^z(y)` and `D = Σ_z ν(z)·D^z`.
pub fn pair_mean_field_step(
    pair: &[f64],
    rule: &DecisionRule,
    lambda: f64,
    service_rate: f64,
    dt: f64,
    k: usize,
) -> (Vec<f64>, MeanFieldStep) {
    assert!(service_rate >= 0.0 && dt > 0.0);
    let zs = pair_num_states(pair);
    let buffer = zs - 1;
    let nu = pair_marginal(pair);
    let rates = pair_arrival_rates(pair, rule, lambda, k);

    // Per-state endpoint kernels: kernel[z] = (P(z → ·) in Δt, D^z), the
    // epoch kernel from e_z. Unused endpoint states need no kernel.
    let kernels: Vec<Option<(Vec<f64>, f64)>> = (0..zs)
        .map(|z| {
            (nu.prob(z) != 0.0).then(|| {
                BirthDeathQueue::new(rates[z].max(0.0), service_rate, buffer)
                    .epoch_expectation(z, dt)
            })
        })
        .collect();

    let mut next = vec![0.0f64; zs * zs];
    let mut marginal = vec![0.0f64; zs];
    let mut drops = 0.0f64;
    for z1 in 0..zs {
        let Some((p1, d1)) = kernels[z1].as_ref() else { continue };
        for (m, &a) in marginal.iter_mut().zip(p1) {
            *m += nu.prob(z1) * a;
        }
        drops += nu.prob(z1) * d1;
        for z2 in 0..zs {
            let mass = pair[z1 * zs + z2];
            if mass == 0.0 {
                continue;
            }
            let (p2, _) = kernels[z2].as_ref().expect("edge mass implies endpoint mass");
            for (y1, &a) in p1.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let row = &mut next[y1 * zs..(y1 + 1) * zs];
                let ma = mass * a;
                for (nx, &b) in row.iter_mut().zip(p2.iter()) {
                    *nx += ma * b;
                }
            }
        }
    }
    let step = MeanFieldStep {
        next_dist: StateDist::new(renormalized(marginal)),
        expected_drops: drops,
        arrival_rates: rates,
    };
    (renormalized(next), step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::mdp::{Closure, Integrand, MeanField};
    use crate::meanfield::{mean_field_step, per_state_arrival_rates};
    use crate::service::Exponential;

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

    fn mixed_nu() -> StateDist {
        StateDist::new(vec![0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
    }

    /// The degree-indexed closure at `nu` with unit service rate.
    fn graph_closure(nu: &StateDist, k: usize) -> MeanField {
        let cfg = SystemConfig::paper();
        MeanField::new(&cfg, Exponential, Integrand::Graph { k }).with_dist(nu.clone())
    }

    #[test]
    fn rates_conserve_total_mass_for_every_degree() {
        let nu = mixed_nu();
        for rule in [DecisionRule::uniform(6, 2), jsq_rule(6)] {
            for k in [1, 2, 3, 5, 9, 50] {
                let rates = graph_arrival_rates(&nu, &rule, 0.9, k);
                let total: f64 = rates.iter().enumerate().map(|(z, r)| nu.prob(z) * r).sum();
                assert!((total - 0.9).abs() < 1e-12, "k={k}: total {total}");
                assert!(rates.iter().all(|r| r.is_finite() && *r >= 0.0));
            }
        }
    }

    #[test]
    fn uniform_rule_gives_lambda_everywhere_for_any_degree() {
        // Under RND every accessible queue receives exactly λ regardless of
        // its state — locality cannot change a state-blind rule.
        let nu = mixed_nu();
        let rule = DecisionRule::uniform(6, 2);
        for k in [1, 3, 7] {
            let rates = graph_arrival_rates(&nu, &rule, 0.7, k);
            for (z, &r) in rates.iter().enumerate() {
                assert!((r - 0.7).abs() < 1e-12, "k={k}, state {z}: rate {r}");
            }
        }
    }

    #[test]
    fn k1_is_an_isolated_queue() {
        // A size-1 neighborhood means every dispatcher routes all its
        // traffic to its own queue: rate λ in every state, for any rule.
        let nu = mixed_nu();
        for rule in [DecisionRule::uniform(6, 2), jsq_rule(6)] {
            let rates = graph_arrival_rates(&nu, &rule, 0.9, 1);
            for &r in &rates {
                assert!((r - 0.9).abs() < 1e-12, "isolated queues get exactly λ, got {r}");
            }
        }
    }

    #[test]
    fn large_k_converges_to_the_full_mesh_rates() {
        let nu = mixed_nu();
        let rule = jsq_rule(6);
        let full = per_state_arrival_rates(&nu, &rule, 0.9);
        let mut prev_err = f64::INFINITY;
        for k in [5, 20, 100, 1000] {
            let graph = graph_arrival_rates(&nu, &rule, 0.9, k);
            let err: f64 = graph.iter().zip(&full).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < prev_err + 1e-12, "error must shrink with k (k={k}: {err})");
            prev_err = err;
        }
        assert!(prev_err < 1e-2, "k=1000 must be close to the mesh rates ({prev_err})");
    }

    #[test]
    fn small_neighborhoods_damp_jsq_discrimination() {
        // With a small k, a short queue competes against itself inside its
        // dispatchers' samples, so JSQ concentrates less traffic on it than
        // in the full mesh (the locality analogue of delayed herding).
        let nu = mixed_nu();
        let rule = jsq_rule(6);
        let full = per_state_arrival_rates(&nu, &rule, 0.9);
        let local = graph_arrival_rates(&nu, &rule, 0.9, 3);
        assert!(
            local[0] < full[0],
            "short-queue rate must be damped: local {} vs mesh {}",
            local[0],
            full[0]
        );
    }

    #[test]
    fn step_outputs_valid_distribution_and_bounded_drops() {
        let nu = mixed_nu();
        let rule = jsq_rule(6);
        for k in [1, 3, 5] {
            for &dt in &[0.5, 5.0] {
                let mut graph = graph_closure(&nu, k);
                let (drops, _) = graph.step(&rule, 0.9, 0.0, dt);
                let mass: f64 = graph.dist().as_slice().iter().sum();
                assert!((mass - 1.0).abs() < 1e-12, "k={k} dt={dt}");
                assert!(drops >= 0.0);
                assert!(drops <= 0.9 * dt + 1e-9, "cannot drop more than arrives");
            }
        }
    }

    /// A correlated (non-product) symmetric edge distribution: mixes the
    /// independent edge with the "assortative" diagonal `ν(z)·δ_{z=z'}`.
    fn correlated_pair(nu: &StateDist, w: f64) -> Vec<f64> {
        let zs = nu.num_states();
        let mut q = independent_pair(nu);
        for (z, v) in q.iter_mut().enumerate() {
            *v *= 1.0 - w;
            if z / zs == z % zs {
                *v += w * nu.prob(z / zs);
            }
        }
        q
    }

    #[test]
    fn independent_pair_reproduces_the_annealed_rates_exactly() {
        // q = ν⊗ν makes the conditional neighbor measure equal ν, so the
        // pair closure must nest the annealed one to the last bit of the
        // same floating-point pipeline.
        let nu = mixed_nu();
        let q = independent_pair(&nu);
        for rule in [DecisionRule::uniform(6, 2), jsq_rule(6)] {
            for k in [1, 3, 5, 20] {
                let annealed = graph_arrival_rates(&nu, &rule, 0.9, k);
                let pairwise = pair_arrival_rates(&q, &rule, 0.9, k);
                for (z, (a, p)) in annealed.iter().zip(&pairwise).enumerate() {
                    assert!((a - p).abs() < 1e-12, "k={k} z={z}: annealed {a} vs pair {p}");
                }
            }
        }
    }

    #[test]
    fn pair_rates_conserve_mass_and_see_correlation() {
        let nu = mixed_nu();
        let q = correlated_pair(&nu, 0.35);
        let rule = jsq_rule(6);
        for k in [2, 3, 7] {
            let rates = pair_arrival_rates(&q, &rule, 0.9, k);
            let total: f64 = rates.iter().enumerate().map(|(z, r)| nu.prob(z) * r).sum();
            assert!((total - 0.9).abs() < 1e-12, "k={k}: total {total}");
            // Assortative edges put short queues next to short queues, so a
            // short queue competes against more rivals than the annealed
            // closure predicts: its JSQ rate must drop.
            let annealed = graph_arrival_rates(&nu, &rule, 0.9, k);
            assert!(
                rates[0] < annealed[0] - 1e-9,
                "k={k}: assortative edges must damp the short-queue rate \
                 (pair {} vs annealed {})",
                rates[0],
                annealed[0]
            );
        }
    }

    #[test]
    fn pair_step_preserves_symmetry_mass_and_marginal_consistency() {
        let nu = mixed_nu();
        let rule = jsq_rule(6);
        let mut q = correlated_pair(&nu, 0.25);
        for _ in 0..4 {
            let (next, step) = pair_mean_field_step(&q, &rule, 0.9, 1.0, 2.0, 3);
            let zs = 6;
            let mass: f64 = next.iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
            for z1 in 0..zs {
                for z2 in 0..z1 {
                    let (a, b) = (next[z1 * zs + z2], next[z2 * zs + z1]);
                    assert!((a - b).abs() < 1e-12, "edge symmetry: {a} vs {b}");
                }
            }
            // The factorized edge update and the marginal Eq. 24–28 step use
            // the same kernels, so their marginals must coincide.
            let marg = pair_marginal(&next);
            for (a, b) in marg.as_slice().iter().zip(step.next_dist.as_slice()) {
                assert!((a - b).abs() < 1e-10, "marginal consistency: {a} vs {b}");
            }
            assert!(step.expected_drops >= 0.0);
            q = next;
        }
    }

    #[test]
    fn pair_closure_converges_to_annealed_then_mesh_as_k_grows() {
        // Validation ladder: pair(q=ν⊗ν) ≡ annealed for every k, and both
        // converge to the full-mesh Eq. 22 rates as k → ∞.
        let nu = mixed_nu();
        let rule = jsq_rule(6);
        let full = per_state_arrival_rates(&nu, &rule, 0.9);
        let q = independent_pair(&nu);
        let mut prev_err = f64::INFINITY;
        for k in [5, 20, 100, 1000] {
            let pairwise = pair_arrival_rates(&q, &rule, 0.9, k);
            let err: f64 =
                pairwise.iter().zip(&full).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < prev_err + 1e-12, "error must shrink with k (k={k}: {err})");
            prev_err = err;
        }
        assert!(prev_err < 1e-2, "k=1000 pair rates must approach the mesh ({prev_err})");
    }

    #[test]
    fn rnd_dynamics_match_full_mesh_for_any_degree() {
        // State-blind routing makes locality invisible: the whole step must
        // coincide with the Eq. 20–28 model.
        let nu = mixed_nu();
        let rule = DecisionRule::uniform(6, 2);
        let mesh = mean_field_step(&nu, &rule, 0.9, 1.0, 5.0);
        let mut graph = graph_closure(&nu, 3);
        let (drops, _) = graph.step(&rule, 0.9, 0.0, 5.0);
        for (a, b) in graph.dist().as_slice().iter().zip(mesh.next_dist.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((drops - mesh.expected_drops).abs() < 1e-12);
    }
}
