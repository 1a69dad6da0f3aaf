//! Job-level finite-system engine: every queue is a FIFO queue with
//! per-job arrival/departure timestamps ([`mflb_queue::fifo::FifoQueue`]),
//! so **sojourn times** (waiting + service) of completed jobs can be
//! measured next to drops — the response-time story the paper's
//! introduction motivates, executed in `fig8_sojourn`.
//!
//! Service is exponential, so the queue-*length* process coincides in law
//! with [`crate::aggregate::AggregateEngine`] (the FIFO discipline only
//! decides *which* job departs); client assignment reuses the exact
//! hierarchical multinomial aggregation over observed lengths, so each
//! client sends its whole epoch's traffic to one queue. That sets this
//! engine apart from [`crate::EventEngine`], which routes every job on
//! its own: the event engine is this one's `N/M → ∞` limit and loses
//! fewer jobs at small `N/M`. Sojourn samples of each epoch flow into
//! [`crate::episode::EpisodeOutcome::sojourns`] through the generic
//! episode drivers, and [`crate::monte_carlo()`] pools them across runs.

use crate::aggregate::sample_client_assignments_into;
use crate::episode::{Engine, EpochStats};
use mflb_core::{DecisionRule, FaultPlan, StateDist, SystemConfig};
use mflb_queue::fifo::FifoQueue;
use rand::rngs::StdRng;
use rand::Rng;

/// Episode state of [`FifoEngine`]: the job-level queues plus scratch.
#[derive(Debug, Clone)]
pub struct FifoState {
    queues: Vec<FifoQueue>,
    /// Observed (buffer-capped) queue lengths, kept in sync with `queues`.
    lengths: Vec<usize>,
    counts: Vec<u64>,
    /// Epochs stepped so far — the clock (`t0 = epoch · Δt`) for
    /// window-based fault lookups. Advances even without a fault plan.
    epoch: u64,
    /// Per-queue crash renewal state; only consulted when a
    /// [`FaultPlan`] is attached.
    fault_up: Vec<bool>,
    /// Per-queue service-rate multipliers of the current epoch (all ones
    /// without service faults).
    mult: Vec<f64>,
}

impl FifoState {
    /// Current job-level queues.
    pub fn queues(&self) -> &[FifoQueue] {
        &self.queues
    }
}

/// Job-level epoch executor with homogeneous exponential service.
#[derive(Debug, Clone)]
pub struct FifoEngine {
    config: SystemConfig,
    /// Deterministic fault plan (`None` = pristine engine; empty plans
    /// are normalized to `None` so they cannot perturb any stream).
    faults: Option<FaultPlan>,
}

impl FifoEngine {
    /// Creates the engine for a validated configuration.
    pub fn new(config: SystemConfig) -> Self {
        config.validate().expect("invalid system configuration");
        Self { config, faults: None }
    }

    /// Attaches a deterministic [`FaultPlan`]. Empty plans are dropped so
    /// a fault-free engine stays bit-identical to one never handed a
    /// plan; faulted epochs draw one extra `epoch_base` to key the
    /// crash/straggler streams.
    ///
    /// # Panics
    /// Panics on an invalid plan — construct via [`crate::Scenario::build`]
    /// for an `Err`-reporting path.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        plan.validate_for(self.config.num_queues).expect("invalid fault plan");
        self.faults = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }
}

impl Engine for FifoEngine {
    type State = FifoState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> FifoState {
        let lengths = crate::episode::sample_initial_queues(&self.config, rng);
        let queues: Vec<FifoQueue> = lengths
            .iter()
            .map(|&n| {
                let mut q = FifoQueue::new(self.config.service_rate, self.config.buffer);
                q.preload(n);
                q
            })
            .collect();
        let m = queues.len();
        FifoState {
            queues,
            lengths,
            counts: vec![0; m],
            epoch: 0,
            fault_up: vec![true; m],
            mult: vec![1.0; m],
        }
    }

    fn empirical(&self, state: &FifoState) -> StateDist {
        StateDist::empirical(&state.lengths, self.config.buffer)
    }

    fn step(
        &self,
        state: &mut FifoState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let FifoState { queues, lengths, counts, epoch, fault_up, mult } = state;
        let m = queues.len();
        debug_assert_eq!(m, self.config.num_queues);
        let t0 = *epoch as f64 * self.config.dt;
        *epoch += 1;
        // A faulted epoch draws one extra `epoch_base` for the fault
        // streams *before* any other randomness (and rewrites each
        // queue's public `service_rate` for the interval); a fault-free
        // engine never reaches either, so pinned streams are untouched.
        let lambda = match &self.faults {
            Some(plan) => {
                let epoch_base: u64 = rng.gen();
                let factor = plan.open_interval(epoch_base, t0, self.config.dt, fault_up, mult);
                for (q, f) in queues.iter_mut().zip(mult.iter()) {
                    q.service_rate = self.config.service_rate * f;
                }
                lambda * factor
            }
            None => lambda,
        };
        sample_client_assignments_into(
            self.config.num_clients,
            self.config.num_states(),
            lengths,
            rule,
            rng,
            counts,
        );

        let scale = m as f64 * lambda / self.config.num_clients as f64;
        let mut dropped = 0u64;
        let mut completed = 0u64;
        let mut sojourns = Vec::new();
        let mut total_len = 0usize;
        for (j, q) in queues.iter_mut().enumerate() {
            let stats = q.run_epoch(scale * counts[j] as f64, self.config.dt, rng);
            dropped += stats.drops;
            completed += stats.completed;
            if sojourns.is_empty() {
                sojourns = stats.sojourn_times;
            } else {
                sojourns.extend(stats.sojourn_times);
            }
            lengths[j] = q.len().min(self.config.buffer);
            total_len += q.len();
        }
        let max_count = counts.iter().copied().max().unwrap_or(0);
        EpochStats {
            drops: dropped as f64 / m as f64,
            dropped,
            completed,
            mean_queue_len: total_len as f64 / m as f64,
            max_share: max_count as f64 / self.config.num_clients.max(1) as f64,
            sojourns,
        }
    }

    fn name(&self) -> &'static str {
        "fifo-job-level"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateEngine;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_linalg::stats::Summary;
    use mflb_policy::{jsq_rule, rnd_rule};

    #[test]
    fn drop_totals_agree_with_aggregate_engine_in_law() {
        // Exponential service: the length process matches the aggregate
        // birth–death engine, so episode drop totals agree statistically.
        let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let fifo = FifoEngine::new(cfg.clone());
        let agg = AggregateEngine::new(cfg);
        let policy = FixedRulePolicy::new(jsq_rule(6, 2), "JSQ(2)");
        let (mut sa, mut sb) = (Summary::new(), Summary::new());
        for r in 0..50 {
            sa.push(run_episode(&fifo, &policy, 15, &mut run_rng(61, r)).total_drops);
            sb.push(run_episode(&agg, &policy, 15, &mut run_rng(62, r)).total_drops);
        }
        let tol = 4.0 * (sa.std_err() + sb.std_err());
        assert!(
            (sa.mean() - sb.mean()).abs() < tol,
            "fifo {} vs aggregate {} (tol {tol})",
            sa.mean(),
            sb.mean()
        );
    }

    #[test]
    fn episodes_report_sojourns_and_job_counters() {
        let cfg = SystemConfig::paper().with_size(400, 20).with_dt(5.0);
        let engine = FifoEngine::new(cfg.clone());
        let policy = FixedRulePolicy::new(rnd_rule(6, 2), "RND");
        let out = run_episode(&engine, &policy, 20, &mut run_rng(70, 0));
        assert!(out.jobs_completed > 0, "busy system must complete jobs");
        assert_eq!(out.sojourns.len() as u64, out.jobs_completed);
        // Sojourn = waiting + service > 0, and bounded by the episode span.
        let span = cfg.dt * 20.0;
        assert!(out.sojourns.iter().all(|&s| s > 0.0 && s <= span));
        assert!((0.0..=1.0).contains(&out.drop_fraction()));
    }
}
