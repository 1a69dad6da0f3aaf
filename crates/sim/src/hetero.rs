//! Heterogeneous-server finite system — the paper's §5 extension.
//!
//! Servers carry per-class service rates ([`mflb_queue::hetero::ServerPool`]);
//! clients observe *composite* states `(queue length, rate class)` and
//! apply a decision rule over composite indices (built e.g. with
//! [`mflb_policy::sed_rule`]). Assignment is per-client (the clean
//! aggregation of the homogeneous engine would need per-(state, class)
//! grouping; at the example scales N ≤ 10⁵ the literal loop is fine), but
//! episodes run through the generic [`crate::run_episode`] /
//! [`crate::monte_carlo()`] drivers like every other engine, so the §5
//! evaluations get thread-parallel Monte Carlo and conditioned-λ episodes
//! for free.

use crate::episode::{length_epoch_stats, simulate_birth_death_epoch, Engine, EpochStats};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use mflb_queue::hetero::ServerPool;
use rand::rngs::StdRng;

/// Quantizes per-server rates into classes, numbered in first-appearance
/// order: returns each server's class and the distinct class rates. The
/// training env and the scenario validation use the same quantization,
/// so composite `(length, class)` indices agree everywhere.
pub fn rate_classes(rates: &[f64]) -> (Vec<usize>, Vec<f64>) {
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
    (class_of, class_rates)
}

/// Episode state of [`HeteroEngine`]: queue lengths plus per-epoch scratch.
#[derive(Debug, Clone)]
pub struct HeteroState {
    queues: Vec<usize>,
    counts: Vec<u64>,
    sampled: Vec<usize>,
    tuple: Vec<usize>,
}

impl HeteroState {
    /// Current queue lengths.
    pub fn queues(&self) -> &[usize] {
        &self.queues
    }
}

/// Finite system with heterogeneous service rates.
#[derive(Debug, Clone)]
pub struct HeteroEngine {
    config: SystemConfig,
    pool: ServerPool,
    /// Rate class of each server (index into the distinct-rate table).
    class_of: Vec<usize>,
    /// Distinct class rates, in class order.
    class_rates: Vec<f64>,
}

impl HeteroEngine {
    /// Builds the engine from a configuration (N, d, Δt, arrivals, buffer)
    /// and a server pool; the pool's size overrides `config.num_queues`.
    pub fn new(mut config: SystemConfig, pool: ServerPool) -> Self {
        config.num_queues = pool.len();
        config.validate().expect("invalid system configuration");
        let (class_of, class_rates) = rate_classes(pool.rates());
        Self { config, pool, class_of, class_rates }
    }

    /// The server pool in force.
    pub fn pool(&self) -> &ServerPool {
        &self.pool
    }

    /// Number of distinct rate classes.
    pub fn num_classes(&self) -> usize {
        self.class_rates.len()
    }

    /// Distinct class rates.
    pub fn class_rates(&self) -> &[f64] {
        &self.class_rates
    }

    /// Composite state (for rule lookup) of server `j` holding `z` jobs.
    pub fn composite_state(&self, j: usize, z: usize) -> usize {
        mflb_policy::composite_index(z, self.class_of[j], self.config.num_states())
    }
}

impl Engine for HeteroEngine {
    type State = HeteroState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The §5 heterogeneous experiments start from an empty system; `ν₀`
    /// is a length-only distribution and carries no class information, so
    /// the engine does not consume randomness here (composite initial
    /// sampling is the sparse/localized follow-up work's territory).
    fn init_state(&self, _rng: &mut StdRng) -> HeteroState {
        let m = self.pool.len();
        HeteroState {
            queues: vec![0; m],
            counts: vec![0; m],
            sampled: vec![0; self.config.d],
            tuple: vec![0; self.config.d],
        }
    }

    fn empirical(&self, state: &HeteroState) -> StateDist {
        StateDist::empirical(&state.queues, self.config.buffer)
    }

    /// One decision epoch under a composite-state decision rule. `rule`
    /// must be built over `num_states × num_classes` composite states with
    /// the same `d`.
    fn step(
        &self,
        state: &mut HeteroState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let HeteroState { queues, counts, sampled, tuple } = state;
        let m = queues.len();
        assert_eq!(
            rule.num_states(),
            self.config.num_states() * self.num_classes(),
            "rule must cover composite states"
        );
        crate::episode::sample_per_client_assignments(
            self.config.num_clients,
            &|j| self.composite_state(j, queues[j]),
            rule,
            rng,
            counts,
            sampled,
            tuple,
        );
        let scale = m as f64 * lambda / self.config.num_clients as f64;
        let (dropped, served) = simulate_birth_death_epoch(
            queues,
            counts,
            scale,
            &|j| self.pool.rate(j),
            self.config.buffer,
            self.config.dt,
            rng,
        );
        length_epoch_stats(queues, counts, self.config.num_clients, dropped, served)
    }

    fn name(&self) -> &'static str {
        "hetero"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_policy::{jsq_rule, sed_rule};

    fn two_speed_engine() -> HeteroEngine {
        let cfg = mflb_core::SystemConfig::paper().with_size(2_000, 20).with_dt(2.0);
        // 10 fast servers (α = 1.6), 10 slow (α = 0.4): same total capacity
        // as 20 homogeneous α = 1 servers.
        let pool = ServerPool::two_speed(10, 1.6, 10, 0.4, 5);
        HeteroEngine::new(cfg, pool)
    }

    #[test]
    fn classes_detected() {
        let e = two_speed_engine();
        assert_eq!(e.num_classes(), 2);
        assert_eq!(e.class_rates(), &[1.6, 0.4]);
        assert_eq!(e.composite_state(0, 3), 3); // class 0
        assert_eq!(e.composite_state(19, 3), 6 + 3); // class 1
    }

    #[test]
    fn sed_beats_state_only_jsq_on_two_speed_pool() {
        // JSQ ignores rates and overloads slow servers; SED accounts for
        // them. Expanded to composite states, JSQ compares only z.
        let e = two_speed_engine();
        let zs = 6;
        let sed = FixedRulePolicy::new(sed_rule(zs, 2, e.class_rates()), "SED");
        // State-only JSQ lifted to composite indices.
        let jsq_plain = jsq_rule(zs, 2);
        let jsq_lifted = FixedRulePolicy::new(
            mflb_core::DecisionRule::from_fn(zs * 2, 2, |t| {
                let raw: Vec<usize> = t.iter().map(|&c| c % zs).collect();
                (0..2).map(|u| jsq_plain.prob(&raw, u)).collect()
            }),
            "JSQ",
        );
        let mut drops_sed = 0.0;
        let mut drops_jsq = 0.0;
        let runs = 24;
        for r in 0..runs {
            drops_sed += run_episode(&e, &sed, 30, &mut run_rng(1, r)).total_drops;
            drops_jsq += run_episode(&e, &jsq_lifted, 30, &mut run_rng(2, r)).total_drops;
        }
        assert!(
            drops_sed < drops_jsq,
            "SED ({drops_sed:.2}) must beat rate-blind JSQ ({drops_jsq:.2})"
        );
    }

    #[test]
    fn homogeneous_pool_reduces_to_plain_engine_statistics() {
        // One class -> composite == plain states; compare against the
        // homogeneous aggregate engine.
        let cfg = mflb_core::SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let pool = ServerPool::homogeneous(30, 1.0, 5);
        let hetero = HeteroEngine::new(cfg.clone(), pool);
        let policy = FixedRulePolicy::new(jsq_rule(6, 2), "JSQ");
        let mut h_total = 0.0;
        // Per-episode drop counts are skewed (sd ≈ 0.7 vs mean ≈ 1.6), so 30
        // runs leave the sample means ~0.4 apart at the 95th percentile; 120
        // runs bring both engines within ~0.1 of each other.
        let runs = 120;
        for r in 0..runs {
            h_total += run_episode(&hetero, &policy, 15, &mut run_rng(3, r)).total_drops;
        }
        let agg = crate::aggregate::AggregateEngine::new(cfg);
        let mc = crate::monte_carlo::monte_carlo(&agg, &policy, 15, runs as usize, 9, 0);
        let h_mean = h_total / runs as f64;
        // Loose statistical agreement (different engines, same law).
        assert!(
            (h_mean - mc.mean()).abs() < 0.25 * mc.mean().max(1.0),
            "hetero {h_mean} vs aggregate {}",
            mc.mean()
        );
    }
}
