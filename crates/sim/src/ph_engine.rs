//! Finite `N,M` system with **phase-type service** — the simulator
//! counterpart of [`mflb_core::ph_meanfield`].
//!
//! Clients still observe only the queue lengths, so the assignment law per
//! epoch is identical to the homogeneous system (it depends on the
//! empirical **length** profile only) and the exact hierarchical
//! multinomial aggregation of [`crate::aggregate`] is reused verbatim.
//! Each queue then evolves as an independent `M/PH/1/B` chain over joint
//! `(length, phase)` states, simulated exactly with Gillespie
//! ([`mflb_queue::PhQueue::simulate_epoch`]). Phases persist *across*
//! epochs — residual service ages correctly, which is the whole point of
//! the extension. The joint states live in [`PhState`], so the engine
//! runs through the generic [`crate::run_episode`] and thread-parallel
//! [`crate::monte_carlo()`] drivers like every other engine.

use mflb_core::{DecisionRule, StateDist, SystemConfig};
use mflb_queue::{PhQueue, PhQueueState, PhaseType};
use rand::rngs::StdRng;

use crate::aggregate::sample_client_assignments_into;
use crate::episode::{Engine, EpochStats};

/// Episode state of [`PhAggregateEngine`]: joint `(length, phase)` queue
/// states, a reusable `M/PH/1/B` model (only the frozen arrival rate
/// varies per queue) and per-epoch scratch.
#[derive(Debug, Clone)]
pub struct PhState {
    queues: Vec<PhQueueState>,
    model: PhQueue,
    lengths: Vec<usize>,
    counts: Vec<u64>,
}

impl PhState {
    /// Current joint queue states.
    pub fn queues(&self) -> &[PhQueueState] {
        &self.queues
    }
}

/// Aggregated finite-system engine with phase-type service.
///
/// The `service_rate` of the wrapped [`SystemConfig`] is ignored; the
/// service law is the supplied [`PhaseType`].
#[derive(Debug, Clone)]
pub struct PhAggregateEngine {
    config: SystemConfig,
    service: PhaseType,
}

impl PhAggregateEngine {
    /// Creates the engine.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(config: SystemConfig, service: PhaseType) -> Self {
        config.validate().expect("invalid system configuration");
        Self { config, service }
    }

    /// Service-time distribution.
    pub fn service(&self) -> &PhaseType {
        &self.service
    }

    /// Wraps explicit joint queue states (tests).
    pub fn state_from_queues(&self, queues: Vec<PhQueueState>) -> PhState {
        let m = queues.len();
        PhState {
            queues,
            model: PhQueue::new(0.0, self.service.clone(), self.config.buffer),
            lengths: vec![0; m],
            counts: vec![0; m],
        }
    }
}

impl Engine for PhAggregateEngine {
    type State = PhState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> PhState {
        self.state_from_queues(sample_initial_ph_queues(&self.config, &self.service, rng))
    }

    fn empirical(&self, state: &PhState) -> StateDist {
        // Length histogram over B+1 bins — O(B) temporary, not O(M).
        let mut counts = vec![0u64; self.config.num_states()];
        for q in &state.queues {
            counts[q.len] += 1;
        }
        StateDist::from_counts(&counts)
    }

    /// Runs one decision epoch in place on the joint queue states.
    fn step(
        &self,
        state: &mut PhState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let PhState { queues, model, lengths, counts } = state;
        let m = queues.len();
        debug_assert_eq!(m, self.config.num_queues);
        for (l, q) in lengths.iter_mut().zip(queues.iter()) {
            *l = q.len;
        }
        sample_client_assignments_into(
            self.config.num_clients,
            self.config.buffer,
            lengths,
            rule,
            rng,
            counts,
        );

        let n = self.config.num_clients as f64;
        let scale = m as f64 * lambda / n;
        let mut dropped = 0u64;
        let mut served = 0u64;
        for (j, q) in queues.iter_mut().enumerate() {
            if counts[j] == 0 && q.len == 0 {
                continue; // idle empty queue: nothing can happen
            }
            model.arrival_rate = scale * counts[j] as f64;
            let (end, outcome) = model.simulate_epoch(*q, self.config.dt, rng);
            *q = end;
            dropped += outcome.drops;
            served += outcome.served;
        }
        let max_count = counts.iter().copied().max().unwrap_or(0);
        EpochStats {
            drops: dropped as f64 / m as f64,
            dropped,
            completed: served,
            mean_queue_len: queues.iter().map(|q| q.len as f64).sum::<f64>() / m as f64,
            max_share: max_count as f64 / self.config.num_clients.max(1) as f64,
            sojourns: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        "ph-aggregate"
    }
}

/// Samples initial joint states: lengths i.i.d. from ν₀, in-service phases
/// from the service law's initial mix `α`.
pub fn sample_initial_ph_queues(
    config: &SystemConfig,
    service: &PhaseType,
    rng: &mut StdRng,
) -> Vec<PhQueueState> {
    crate::episode::sample_initial_queues(config, rng)
        .into_iter()
        .map(|len| PhQueueState { len, phase: if len > 0 { service.sample_phase(rng) } else { 0 } })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateEngine;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_linalg::stats::Summary;
    use rand::SeedableRng;

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
    fn exponential_service_matches_plain_aggregate_engine() {
        // k = 1 PH service is exponential: episode drop totals from the PH
        // engine and the plain aggregate engine must agree statistically.
        let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let ph = PhAggregateEngine::new(cfg.clone(), PhaseType::exponential(1.0));
        let agg = AggregateEngine::new(cfg);
        let policy = FixedRulePolicy::new(jsq(), "JSQ(2)");
        let (mut sa, mut sb) = (Summary::new(), Summary::new());
        let runs = 50;
        for r in 0..runs {
            sa.push(run_episode(&ph, &policy, 15, &mut run_rng(10, r)).total_drops);
            sb.push(run_episode(&agg, &policy, 15, &mut run_rng(20, r)).total_drops);
        }
        let tol = 4.0 * (sa.std_err() + sb.std_err());
        assert!(
            (sa.mean() - sb.mean()).abs() < tol,
            "PH {} vs plain {} (tol {tol})",
            sa.mean(),
            sb.mean()
        );
    }

    #[test]
    fn zero_arrivals_drain_and_clear_phases() {
        let cfg = SystemConfig::paper().with_size(100, 10).with_dt(60.0);
        let engine = PhAggregateEngine::new(cfg, PhaseType::erlang(3, 3.0));
        let mut state = engine.state_from_queues(vec![PhQueueState { len: 5, phase: 1 }; 10]);
        let mut rng = StdRng::seed_from_u64(1);
        let stats = engine.step(&mut state, &DecisionRule::uniform(6, 2), 0.0, &mut rng);
        assert_eq!(stats.drops, 0.0);
        assert!(state.queues().iter().all(|q| q.len == 0 && q.phase == 0), "{:?}", state.queues());
    }

    #[test]
    fn finite_ph_system_tracks_ph_mean_field() {
        // Episode drop totals of a moderately large finite PH system must
        // approach the PH mean-field value (the Theorem-1 story carried to
        // the extension).
        let cfg = SystemConfig::paper().with_size(10_000, 100).with_dt(5.0);
        let service = PhaseType::fit_mean_scv(1.0, 2.0);
        let engine = PhAggregateEngine::new(cfg.clone(), service.clone());
        let policy = FixedRulePolicy::new(jsq(), "JSQ(2)");
        let horizon = 20;
        let mut s = Summary::new();
        for r in 0..40 {
            s.push(run_episode(&engine, &policy, horizon, &mut run_rng(30, r)).total_drops);
        }
        // Mean-field reference on matched random arrival sequences.
        let closure = mflb_core::mdp::Ph::new(&cfg, service);
        let mdp = mflb_core::MeanFieldMdp::with_closure(cfg, closure);
        let mut mf = Summary::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            mf.push(-mdp.rollout(&policy, horizon, &mut rng).total_return);
        }
        let tol = 4.0 * (s.std_err() + mf.std_err()) + 0.05 * mf.mean().abs();
        assert!(
            (s.mean() - mf.mean()).abs() < tol,
            "finite {} vs mean-field {} (tol {tol})",
            s.mean(),
            mf.mean()
        );
    }

    #[test]
    fn high_scv_service_drops_more_in_finite_system() {
        let cfg = SystemConfig::paper().with_size(2_500, 50).with_dt(5.0);
        let policy = FixedRulePolicy::new(jsq(), "JSQ(2)");
        let mut total = Vec::new();
        for &scv in &[0.25, 4.0] {
            let engine = PhAggregateEngine::new(cfg.clone(), PhaseType::fit_mean_scv(1.0, scv));
            let mut s = Summary::new();
            for r in 0..40 {
                s.push(run_episode(&engine, &policy, 25, &mut run_rng(40, r)).total_drops);
            }
            total.push(s.mean());
        }
        assert!(
            total[0] < total[1],
            "SCV .25 drops {} must be below SCV 4 drops {}",
            total[0],
            total[1]
        );
    }

    #[test]
    fn initial_ph_queues_respect_nu0_and_alpha() {
        let mut cfg = SystemConfig::paper().with_size(100, 2_000);
        cfg.initial_dist = vec![0.5, 0.5, 0.0, 0.0, 0.0, 0.0];
        let service = PhaseType::hyperexponential(&[0.3, 0.7], &[1.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let queues = sample_initial_ph_queues(&cfg, &service, &mut rng);
        let busy = queues.iter().filter(|q| q.len == 1).count();
        assert!((busy as f64 / 2_000.0 - 0.5).abs() < 0.05);
        let phase1 = queues.iter().filter(|q| q.len == 1 && q.phase == 1).count();
        assert!((phase1 as f64 / busy as f64 - 0.7).abs() < 0.06);
        assert!(queues.iter().all(|q| q.len > 0 || q.phase == 0));
    }
}
