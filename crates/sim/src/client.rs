//! The literal per-client finite-system engine (Algorithm 1, lines 10–19).
//!
//! Every client independently samples `d` queue indices uniformly at random
//! (Eq. 3), observes their *epoch-start* states (the synchronously
//! broadcast, hence stale, information), draws its destination from the
//! decision rule (Eq. 4), and commits its share of the epoch's traffic to
//! that queue. Queue `j` then runs an exact birth–death CTMC for `Δt` time
//! units with frozen arrival rate `λ_j = M·λ_t·(#clients on j)/N` (Eq. 5).
//!
//! Cost is `O(N·d + M·events)` per epoch — the faithful baseline against
//! which the O(M)-per-epoch [`crate::aggregate::AggregateEngine`] is
//! validated (they follow the same probability law; see the crate docs).

use crate::episode::{length_epoch_stats, simulate_birth_death_epoch, Engine, EpochStats};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use rand::rngs::StdRng;

/// Episode state of [`PerClientEngine`]: queue lengths plus reusable
/// per-epoch scratch buffers (client counts and `d`-sample workspace).
#[derive(Debug, Clone)]
pub struct PerClientState {
    queues: Vec<usize>,
    counts: Vec<u64>,
    sampled: Vec<usize>,
    tuple: Vec<usize>,
}

impl PerClientState {
    /// Wraps explicit queue lengths (benchmarks and tests).
    pub fn from_queues(queues: Vec<usize>, d: usize) -> Self {
        let m = queues.len();
        Self { queues, counts: vec![0; m], sampled: vec![0; d], tuple: vec![0; d] }
    }

    /// Current queue lengths.
    pub fn queues(&self) -> &[usize] {
        &self.queues
    }
}

/// Per-client epoch executor.
#[derive(Debug, Clone)]
pub struct PerClientEngine {
    config: SystemConfig,
}

impl PerClientEngine {
    /// Creates the engine for a validated configuration.
    pub fn new(config: SystemConfig) -> Self {
        config.validate().expect("invalid system configuration");
        Self { config }
    }

    /// Samples every client's assignment and returns the per-queue client
    /// counts (exposed for the engine-agreement tests).
    pub fn sample_assignments(
        &self,
        queues: &[usize],
        rule: &DecisionRule,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; queues.len()];
        let mut sampled = vec![0usize; self.config.d];
        let mut tuple = vec![0usize; self.config.d];
        self.sample_assignments_into(queues, rule, rng, &mut counts, &mut sampled, &mut tuple);
        counts
    }

    fn sample_assignments_into(
        &self,
        queues: &[usize],
        rule: &DecisionRule,
        rng: &mut StdRng,
        counts: &mut [u64],
        sampled: &mut [usize],
        tuple: &mut [usize],
    ) {
        crate::episode::sample_per_client_assignments(
            self.config.num_clients,
            &|j| queues[j],
            rule,
            rng,
            counts,
            sampled,
            tuple,
        );
    }
}

impl Engine for PerClientEngine {
    type State = PerClientState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> PerClientState {
        PerClientState::from_queues(
            crate::episode::sample_initial_queues(&self.config, rng),
            self.config.d,
        )
    }

    fn empirical(&self, state: &PerClientState) -> StateDist {
        StateDist::empirical(&state.queues, self.config.buffer)
    }

    fn step(
        &self,
        state: &mut PerClientState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let PerClientState { queues, counts, sampled, tuple } = state;
        debug_assert_eq!(queues.len(), self.config.num_queues);
        self.sample_assignments_into(queues, rule, rng, counts, sampled, tuple);

        // Per-queue arrival rates (Eq. 5) and exact CTMC simulation.
        let m = queues.len();
        let scale = m as f64 * lambda / self.config.num_clients as f64;
        let (dropped, served) = simulate_birth_death_epoch(
            queues,
            counts,
            scale,
            &|_| self.config.service_rate,
            &self.config,
            rng,
        );
        length_epoch_stats(queues.iter().copied(), counts, self.config.num_clients, dropped, served)
    }

    fn name(&self) -> &'static str {
        "per-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_core::DecisionRule;
    use rand::SeedableRng;

    fn small_config() -> SystemConfig {
        SystemConfig::paper().with_size(400, 20).with_dt(2.0)
    }

    #[test]
    fn assignment_counts_sum_to_n() {
        let cfg = small_config();
        let engine = PerClientEngine::new(cfg.clone());
        let queues = vec![0usize; cfg.num_queues];
        let rule = DecisionRule::uniform(cfg.num_states(), cfg.d);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = engine.sample_assignments(&queues, &rule, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), cfg.num_clients);
    }

    #[test]
    fn uniform_rule_spreads_assignments() {
        let cfg = small_config();
        let engine = PerClientEngine::new(cfg.clone());
        let queues = vec![0usize; cfg.num_queues];
        let rule = DecisionRule::uniform(cfg.num_states(), cfg.d);
        let mut rng = StdRng::seed_from_u64(2);
        let counts = engine.sample_assignments(&queues, &rule, &mut rng);
        let expect = cfg.num_clients as f64 / cfg.num_queues as f64; // 20
        for &c in &counts {
            // 6σ band for Binomial(400, 1/20).
            let sd = (cfg.num_clients as f64 * (1.0 / 20.0) * (19.0 / 20.0)).sqrt();
            assert!((c as f64 - expect).abs() < 6.0 * sd, "count {c}");
        }
    }

    #[test]
    fn jsq_rule_sends_everyone_to_short_queues() {
        let cfg = SystemConfig::paper().with_size(1000, 10).with_dt(1.0);
        let engine = PerClientEngine::new(cfg.clone());
        // Queue 0 empty, the rest full.
        let mut queues = vec![5usize; 10];
        queues[0] = 0;
        let rule = mflb_core::DecisionRule::from_fn(6, 2, |t| {
            use std::cmp::Ordering::*;
            match t[0].cmp(&t[1]) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        });
        let mut rng = StdRng::seed_from_u64(3);
        let counts = engine.sample_assignments(&queues, &rule, &mut rng);
        // Herd behaviour: every client that sampled queue 0 sends there.
        // P(sample includes queue 0) = 1 - (9/10)^2 = 0.19.
        let frac = counts[0] as f64 / 1000.0;
        assert!((frac - 0.19).abs() < 0.06, "herding fraction {frac}");
    }

    #[test]
    fn episode_runs_and_accumulates() {
        let cfg = small_config();
        let engine = PerClientEngine::new(cfg.clone());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(cfg.num_states(), cfg.d), "RND");
        let mut rng = run_rng(7, 0);
        let out = run_episode(&engine, &policy, 20, &mut rng);
        assert_eq!(out.drops_per_epoch.len(), 20);
        assert!((out.total_drops + out.total_return).abs() < 1e-12);
        assert!(out.total_drops >= 0.0);
        assert!(out.mean_queue_len.iter().all(|&l| (0.0..=5.0).contains(&l)));
        // The richer outcome fields are filled for every engine.
        assert_eq!(out.max_share_per_epoch.len(), 20);
        assert!(out.max_share_per_epoch.iter().all(|&s| (0.0..=1.0).contains(&s)));
        // total_drops is Σ_t (dropped_t / M): the raw counter matches it
        // up to float summation order.
        assert!((out.jobs_dropped as f64 / cfg.num_queues as f64 - out.total_drops).abs() < 1e-9);
    }

    #[test]
    fn seeded_episodes_reproduce() {
        let cfg = small_config();
        let engine = PerClientEngine::new(cfg.clone());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(cfg.num_states(), cfg.d), "RND");
        let a = run_episode(&engine, &policy, 10, &mut run_rng(11, 3));
        let b = run_episode(&engine, &policy, 10, &mut run_rng(11, 3));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }

    #[test]
    fn state_scratch_buffers_do_not_leak_between_epochs() {
        // Two consecutive steps on one state must match two fresh
        // single-step states driven by the same RNG stream.
        let cfg = small_config();
        let engine = PerClientEngine::new(cfg.clone());
        let rule = DecisionRule::uniform(cfg.num_states(), cfg.d);
        let mut rng_a = run_rng(5, 0);
        let mut rng_b = run_rng(5, 0);
        let mut state = engine.init_state(&mut rng_a);
        let mut queues = crate::episode::sample_initial_queues(&cfg, &mut rng_b);
        let s1 = engine.step(&mut state, &rule, 0.9, &mut rng_a);
        let s2 = engine.step(&mut state, &rule, 0.9, &mut rng_a);
        for expect in [s1, s2] {
            let mut fresh = PerClientState::from_queues(queues.clone(), cfg.d);
            let got = engine.step(&mut fresh, &rule, 0.9, &mut rng_b);
            assert_eq!(got, expect);
            queues = fresh.queues().to_vec();
        }
    }
}
