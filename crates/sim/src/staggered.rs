//! Staggered (asynchronous) information updates — the information
//! structure of Zhou/Shroff/Wierman \[43\] that the paper contrasts its
//! synchronous broadcast against, built so the two can be compared
//! head-to-head.
//!
//! The paper's model refreshes *every* client's `d`-sample and observed
//! states at every decision epoch (synchronous broadcast every Δt). Here
//! clients are partitioned into `c` cohorts; cohort `r` refreshes its
//! sample/observations only at epochs `t ≡ r (mod c)`, and routes on its
//! **stored stale snapshot** in between. Each client therefore works with
//! information aged 0..c−1 epochs — but crucially the refresh times are
//! *spread out*, so clients do not all chase the same momentary shortest
//! queues.
//!
//! The head-to-head this enables (`ablation_staggered`): synchronized
//! broadcast with period `c·Δt` versus `c` staggered cohorts at epoch
//! `Δt` — identical per-client refresh period, very different herding
//! behaviour.
//!
//! Assignment is per-client (the aggregate multinomial law does not
//! apply: a client's destination now depends on its private stale
//! snapshot, not the current queue states alone). The per-client
//! snapshots live in [`StaggeredState`], so the engine runs through the
//! generic [`crate::run_episode`] and thread-parallel
//! [`crate::monte_carlo()`] drivers like every other engine.

use crate::episode::{length_epoch_stats, simulate_birth_death_epoch, Engine, EpochStats};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// Episode state of [`StaggeredEngine`]: queue lengths, every client's
/// persistent `d`-sample and stale state snapshot, the epoch counter that
/// drives the cohort refresh schedule, and per-epoch scratch.
#[derive(Debug, Clone)]
pub struct StaggeredState {
    queues: Vec<usize>,
    /// Sampled queue indices, `d` per client.
    samples: Vec<usize>,
    /// States observed at the owning client's last refresh.
    snapshots: Vec<u8>,
    /// Epoch counter (selects the due cohort).
    epoch: usize,
    /// Cold-start flag: the first step initializes every client's
    /// snapshot (fresh broadcast), exactly like the synchronous model.
    primed: bool,
    counts: Vec<u64>,
    tuple: Vec<usize>,
}

impl StaggeredState {
    /// Current queue lengths.
    pub fn queues(&self) -> &[usize] {
        &self.queues
    }
}

/// Finite system with cohort-staggered information refreshes.
#[derive(Debug, Clone)]
pub struct StaggeredEngine {
    config: SystemConfig,
    cohorts: usize,
}

impl StaggeredEngine {
    /// Creates the engine with `cohorts ≥ 1` refresh cohorts
    /// (`cohorts = 1` is the paper's synchronous model).
    ///
    /// # Panics
    /// Panics on an invalid configuration, zero cohorts, or a buffer
    /// beyond 255 (client snapshots store queue lengths as `u8`).
    pub fn new(config: SystemConfig, cohorts: usize) -> Self {
        config.validate().expect("invalid system configuration");
        assert!(cohorts >= 1, "need at least one cohort");
        assert!(config.buffer <= u8::MAX as usize, "u8 snapshots cap the buffer at 255");
        Self { config, cohorts }
    }

    /// Number of refresh cohorts.
    pub fn cohorts(&self) -> usize {
        self.cohorts
    }
}

impl Engine for StaggeredEngine {
    type State = StaggeredState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> StaggeredState {
        let n = self.config.num_clients as usize;
        let d = self.config.d;
        StaggeredState {
            queues: crate::episode::sample_initial_queues(&self.config, rng),
            samples: vec![0; n * d],
            snapshots: vec![0; n * d],
            epoch: 0,
            primed: false,
            counts: vec![0; self.config.num_queues],
            tuple: vec![0; d],
        }
    }

    fn empirical(&self, state: &StaggeredState) -> StateDist {
        StateDist::empirical(&state.queues, self.config.buffer)
    }

    /// One epoch: the due cohort resamples its `d` queues and snapshots
    /// their states; every client draws its destination from the epoch's
    /// decision rule applied to its **own stored snapshot**; queues then
    /// evolve for `Δt` with frozen arrival splits (Algorithm 1 lines
    /// 15–19).
    fn step(
        &self,
        state: &mut StaggeredState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let cfg = &self.config;
        let n = cfg.num_clients as usize;
        let m = cfg.num_queues;
        let d = cfg.d;
        let StaggeredState { queues, samples, snapshots, epoch, primed, counts, tuple } = state;

        // Cold start: epoch 0 initializes everyone (fresh broadcast).
        if !*primed {
            for i in 0..n {
                for k in 0..d {
                    let j = rng.gen_range(0..m);
                    samples[i * d + k] = j;
                    snapshots[i * d + k] = queues[j] as u8;
                }
            }
            *primed = true;
        }

        // Refresh the due cohort (all cohorts when c = 1).
        let due = *epoch % self.cohorts;
        for i in 0..n {
            if i % self.cohorts == due {
                for k in 0..d {
                    let j = rng.gen_range(0..m);
                    samples[i * d + k] = j;
                    snapshots[i * d + k] = queues[j] as u8;
                }
            }
        }

        // Route every client on its stored (possibly stale) snapshot.
        counts.iter_mut().for_each(|c| *c = 0);
        for i in 0..n {
            for k in 0..d {
                tuple[k] = snapshots[i * d + k] as usize;
            }
            let u = rule.sample(tuple, rng);
            counts[samples[i * d + u]] += 1;
        }

        // Queue evolution with frozen per-queue arrival rates.
        let scale = m as f64 * lambda / n as f64;
        let (dropped, served) =
            simulate_birth_death_epoch(queues, counts, scale, &|_| cfg.service_rate, cfg, rng);
        *epoch += 1;
        length_epoch_stats(queues.iter().copied(), counts, cfg.num_clients, dropped, served)
    }

    fn name(&self) -> &'static str {
        "staggered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PerClientEngine;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_core::DecisionRule;
    use mflb_linalg::stats::Summary;
    use mflb_queue::ArrivalProcess;

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
    fn one_cohort_matches_per_client_engine_statistically() {
        // c = 1 refreshes everyone every epoch — the paper's synchronous
        // model — so episode totals must agree in law with the literal
        // per-client engine.
        let cfg = SystemConfig::paper().with_size(800, 20).with_dt(2.0);
        let staggered = StaggeredEngine::new(cfg.clone(), 1);
        let per = PerClientEngine::new(cfg);
        let policy = FixedRulePolicy::new(jsq(), "JSQ(2)");
        let (mut sa, mut sb) = (Summary::new(), Summary::new());
        for r in 0..40 {
            sa.push(run_episode(&staggered, &policy, 12, &mut run_rng(1, r)).total_drops);
            sb.push(run_episode(&per, &policy, 12, &mut run_rng(2, r)).total_drops);
        }
        let tol = 4.0 * (sa.std_err() + sb.std_err());
        assert!(
            (sa.mean() - sb.mean()).abs() < tol,
            "staggered(1) {} vs per-client {} (tol {tol})",
            sa.mean(),
            sb.mean()
        );
    }

    #[test]
    fn staleness_hurts_jsq() {
        // More cohorts = older private snapshots. Under JSQ (which trusts
        // its observations absolutely) drops must grow with the cohort
        // count at fixed epoch length.
        let mut cfg = SystemConfig::paper().with_size(2_000, 20).with_dt(1.0);
        cfg.arrivals = ArrivalProcess::constant(0.9);
        let policy = FixedRulePolicy::new(jsq(), "JSQ(2)");
        let drops_at = |c: usize| {
            let engine = StaggeredEngine::new(cfg.clone(), c);
            let mut s = Summary::new();
            for r in 0..24 {
                s.push(
                    run_episode(&engine, &policy, 30, &mut run_rng(10 + c as u64, r)).total_drops,
                );
            }
            s.mean()
        };
        let fresh = drops_at(1);
        let stale = drops_at(10);
        assert!(
            stale > fresh,
            "10-epoch-old snapshots ({stale:.2}) must drop more than fresh ({fresh:.2})"
        );
    }

    #[test]
    fn staggering_beats_synchronized_slow_broadcast() {
        // Same per-client refresh period (4 time units), two architectures:
        // (a) synchronized broadcast every 4 time units (paper's model at
        //     Δt = 4), (b) 4 staggered cohorts refreshing every 4 epochs
        //     of length 1. Staggering de-synchronizes the herd, so JSQ
        //     should drop fewer packets under (b).
        let mut base = SystemConfig::paper().with_size(2_000, 20);
        base.arrivals = ArrivalProcess::constant(0.9);
        let policy = FixedRulePolicy::new(jsq(), "JSQ(2)");

        let sync_cfg = base.clone().with_dt(4.0);
        let sync = PerClientEngine::new(sync_cfg);
        let mut s_sync = Summary::new();
        for r in 0..30 {
            s_sync.push(run_episode(&sync, &policy, 10, &mut run_rng(30, r)).total_drops);
        }

        let stag_cfg = base.with_dt(1.0);
        let stag = StaggeredEngine::new(stag_cfg, 4);
        let mut s_stag = Summary::new();
        for r in 0..30 {
            // 40 epochs of length 1 = the same 40 time units.
            s_stag.push(run_episode(&stag, &policy, 40, &mut run_rng(31, r)).total_drops);
        }

        assert!(
            s_stag.mean() < s_sync.mean(),
            "staggered {:.2} should beat synchronized {:.2}",
            s_stag.mean(),
            s_sync.mean()
        );
    }

    #[test]
    fn per_epoch_assignment_conserves_clients() {
        // Sanity through observable behaviour: with zero service and tiny
        // buffers, total drops + accepted across an epoch equal arrivals;
        // indirectly verified by the drop bound D ≤ λ·Δt·horizon.
        let mut cfg = SystemConfig::paper().with_size(500, 10).with_dt(2.0);
        cfg.arrivals = ArrivalProcess::constant(0.9);
        let engine = StaggeredEngine::new(cfg, 3);
        let policy = FixedRulePolicy::new(DecisionRule::uniform(6, 2), "RND");
        let out = run_episode(&engine, &policy, 20, &mut run_rng(50, 0));
        assert_eq!(out.drops_per_epoch.len(), 20);
        for &dpq in &out.drops_per_epoch {
            assert!((0.0..=0.9 * 2.0 + 1.0).contains(&dpq));
        }
    }
}
