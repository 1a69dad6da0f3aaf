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
//!   `k − 1` other queues, approximated as i.i.d. draws from `ν_t`. Only
//!   the `k → ∞` limit of this is exact. At finite `k` the closure sits
//!   below the graph engine's drops on rings and on random-regular graphs
//!   alike, tree-like or not, and the gap does not shrink with `M`. For
//!   JSQ(2) at the Table-1 point and `M = 10⁴`: ring `k = 3` at Δt = 5
//!   gives 13.26 here against 15.37 ± 0.05 on the engine, and
//!   random-regular degree 2 is 14–25% low; degree 8 is 1.9% low at
//!   Δt = 5. It also cannot tell a ring from a random-regular graph of
//!   the same `k`. The likely cause is that the dispatchers covering a
//!   queue share most of their neighborhoods, which correlates neighbor
//!   states;
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
//! A second-order pair closure over the edge law `q(z, z')` is not kept:
//! its epoch step factorizes across the edge, so from the i.i.d. `ν₀`
//! every engine starts from, `q` stays the product `ν ⊗ ν` and the pair
//! closure equals this annealed one on every reachable trajectory.

use crate::dist::StateDist;
use crate::meanfield::per_state_arrival_rates_into;
use crate::rule::DecisionRule;

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
