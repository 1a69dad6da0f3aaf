//! Parallel Monte-Carlo evaluation of policies on the finite system.
//!
//! The paper evaluates every configuration with `n = 100` independent
//! simulations and reports means with 95% confidence intervals (Fig. 4–6).
//! Runs are distributed over worker threads with crossbeam's scoped
//! threads; each run derives its RNG from `(base_seed, run_index)` so the
//! result is bit-identical regardless of the worker count. Each worker
//! runs chunks of consecutive runs through the one episode loop,
//! [`run_episodes_lockstep`], on the arrival chain ([`monte_carlo()`]) or
//! on a shared `λ` path ([`monte_carlo_conditioned`]). Both are generic
//! over [`Engine`], so every engine — including the
//! heterogeneous, staggered-information, phase-type and job-level ones —
//! fans out over threads.

use crate::episode::{run_episodes_lockstep, run_rng, Engine, EpisodeOutcome};
use mflb_core::mdp::UpperPolicy;
use mflb_core::worker_count;
use mflb_linalg::stats::Summary;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Aggregated Monte-Carlo output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloResult {
    /// Summary over runs of the cumulative per-queue drops.
    pub drops: Summary,
    /// Total drops of each run (for downstream statistics/plots).
    pub per_run: Vec<f64>,
    /// Mean per-epoch drop trajectory averaged over runs.
    pub mean_drops_per_epoch: Vec<f64>,
    /// Sojourn times of completed jobs pooled over all runs, in run order
    /// (job-level engines only; empty elsewhere).
    #[serde(default)]
    pub sojourns: Vec<f64>,
    /// Raw service completions summed over runs.
    #[serde(default)]
    pub jobs_completed: u64,
    /// Raw dropped-packet count summed over runs.
    #[serde(default)]
    pub jobs_dropped: u64,
}

impl MonteCarloResult {
    /// Mean cumulative drops.
    pub fn mean(&self) -> f64 {
        self.drops.mean()
    }

    /// 95% confidence half-width.
    pub fn ci95(&self) -> f64 {
        self.drops.ci95_half_width()
    }

    /// Fraction of jobs dropped among all jobs that reached a queue.
    pub fn drop_fraction(&self) -> f64 {
        let total = self.jobs_dropped + self.jobs_completed;
        self.jobs_dropped as f64 / (total.max(1)) as f64
    }
}

/// Most episodes per lockstep chunk: a worker steps a chunk of
/// consecutive run indices together, so the neural policy sees one gemm
/// of up to 16 rows per decision epoch instead of 16 gemvs; 16 rows
/// already amortize the 2×256 weight streaming. Chunk boundaries may
/// follow the worker count (see [`chunk_bounds`]) because no result
/// depends on them.
const LOCKSTEP_CHUNK: usize = 16;

/// Runs `n_runs` independent episodes of `horizon` epochs and aggregates
/// drop statistics, using up to `threads` workers (0 → available
/// parallelism).
///
/// Episodes run in lockstep chunks of [`run_episodes_lockstep`] so
/// batched policies amortize inference across runs; per-run results are
/// bit-identical to running each episode alone (each run's RNG is
/// private and `decide_batch` matches `decide`).
pub fn monte_carlo<E: Engine>(
    engine: &E,
    policy: &(dyn UpperPolicy + Sync),
    horizon: usize,
    n_runs: usize,
    base_seed: u64,
    threads: usize,
) -> MonteCarloResult {
    run_many_chunks(engine, policy, horizon, None, n_runs, base_seed, threads)
}

/// Conditioned variant: every run uses the same arrival-level sequence
/// (queue noise still differs per run), isolating the Theorem-1
/// comparison. Runs on the same lockstep chunks as [`monte_carlo`].
pub fn monte_carlo_conditioned<E: Engine>(
    engine: &E,
    policy: &(dyn UpperPolicy + Sync),
    lambda_seq: &[usize],
    n_runs: usize,
    base_seed: u64,
    threads: usize,
) -> MonteCarloResult {
    run_many_chunks(engine, policy, lambda_seq.len(), Some(lambda_seq), n_runs, base_seed, threads)
}

/// Chunk layout, as `(start, len)` pairs, for `n_runs` runs on
/// `workers ≥ 1` workers: the chunk count `k` is the smallest multiple of
/// `workers` whose chunks hold at most [`LOCKSTEP_CHUNK`] runs, capped at
/// `n_runs`, and chunk `c` covers runs `[c·n_runs/k, (c+1)·n_runs/k)`.
/// So every worker gets the same number of chunks, and chunk sizes
/// differ by at most one (20 runs on 2 workers: 10 + 10).
fn chunk_bounds(n_runs: usize, workers: usize) -> Vec<(u64, usize)> {
    let k = (n_runs.div_ceil(LOCKSTEP_CHUNK).div_ceil(workers) * workers).min(n_runs);
    let start = |c: usize| c * n_runs / k;
    (0..k).map(|c| (start(c) as u64, start(c + 1) - start(c))).collect()
}

/// Work-stealing chunk scheduler over [`chunk_bounds`]: each chunk runs
/// its consecutive runs through one [`run_episodes_lockstep`] call, and
/// the outcomes are merged in run order. Results are bit-identical for
/// every worker count and chunk layout because each run draws from its
/// private `run_rng(base_seed, run)` and `decide_batch` equals `decide`
/// row by row, so a run's outcome does not depend on which runs share
/// its chunk.
fn run_many_chunks<E: Engine>(
    engine: &E,
    policy: &(dyn UpperPolicy + Sync),
    horizon: usize,
    levels: Option<&[usize]>,
    n_runs: usize,
    base_seed: u64,
    threads: usize,
) -> MonteCarloResult {
    let workers = worker_count(threads);
    let chunks = chunk_bounds(n_runs, workers);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(u64, Vec<EpisodeOutcome>)>> =
        Mutex::new(Vec::with_capacity(chunks.len()));

    crossbeam::scope(|scope| {
        for _ in 0..workers.min(chunks.len()) {
            scope.spawn(|_| {
                while let Some(&(start, len)) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut rngs: Vec<_> =
                        (0..len as u64).map(|i| run_rng(base_seed, start + i)).collect();
                    let outcomes =
                        run_episodes_lockstep(engine, policy, horizon, levels, &mut rngs);
                    results.lock().push((start, outcomes));
                }
            });
        }
    })
    .expect("monte-carlo worker panicked");

    let mut done = results.into_inner();
    done.sort_by_key(|(start, _)| *start);
    let outcomes: Vec<EpisodeOutcome> = done.into_iter().flat_map(|(_, outs)| outs).collect();

    let mut drops = Summary::new();
    let mut per_run = Vec::with_capacity(n_runs);
    let mut mean_per_epoch: Vec<f64> = Vec::new();
    let mut sojourns = Vec::new();
    let mut jobs_completed = 0u64;
    let mut jobs_dropped = 0u64;
    for o in &outcomes {
        drops.push(o.total_drops);
        per_run.push(o.total_drops);
        if mean_per_epoch.len() < o.drops_per_epoch.len() {
            mean_per_epoch.resize(o.drops_per_epoch.len(), 0.0);
        }
        for (acc, &v) in mean_per_epoch.iter_mut().zip(&o.drops_per_epoch) {
            *acc += v;
        }
        sojourns.extend_from_slice(&o.sojourns);
        jobs_completed += o.jobs_completed;
        jobs_dropped += o.jobs_dropped;
    }
    let n = outcomes.len().max(1) as f64;
    for v in &mut mean_per_epoch {
        *v /= n;
    }

    MonteCarloResult {
        drops,
        per_run,
        mean_drops_per_epoch: mean_per_epoch,
        sojourns,
        jobs_completed,
        jobs_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateEngine;
    use crate::staggered::StaggeredEngine;
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_core::{DecisionRule, SystemConfig};

    fn setup() -> (AggregateEngine, FixedRulePolicy) {
        let cfg = SystemConfig::paper().with_size(400, 20).with_dt(2.0);
        let engine = AggregateEngine::new(cfg.clone());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(cfg.num_states(), cfg.d), "RND");
        (engine, policy)
    }

    #[test]
    fn chunk_bounds_tile_the_runs_evenly_per_worker() {
        for workers in 1..=8 {
            for n_runs in 0..=200 {
                let chunks = chunk_bounds(n_runs, workers);
                let mut next = 0;
                for &(start, len) in &chunks {
                    assert_eq!(start, next, "n={n_runs} w={workers}: contiguous, in order");
                    assert!((1..=LOCKSTEP_CHUNK).contains(&len), "n={n_runs} w={workers}");
                    next += len as u64;
                }
                assert_eq!(next, n_runs as u64, "n={n_runs} w={workers}: covers every run");
                let (min, max) = chunks
                    .iter()
                    .fold((usize::MAX, 0), |(lo, hi), &(_, len)| (lo.min(len), hi.max(len)));
                assert!(chunks.is_empty() || max - min <= 1, "n={n_runs} w={workers}");
                if n_runs >= workers {
                    assert_eq!(chunks.len() % workers, 0, "n={n_runs} w={workers}");
                }
            }
        }
    }

    #[test]
    fn chunk_bounds_match_the_documented_layouts() {
        let lens = |n, w| chunk_bounds(n, w).iter().map(|&(_, len)| len).collect::<Vec<_>>();
        assert_eq!(lens(20, 2), [10, 10]);
        assert_eq!(lens(20, 4), [5; 4]);
        assert_eq!(lens(16, 2), [8, 8]);
        assert_eq!(lens(100, 2), [12, 13, 12, 13, 12, 13, 12, 13]);
        assert_eq!(lens(3, 4), [1, 1, 1]);
        assert_eq!(lens(40, 1), [13, 13, 14]);
        assert!(chunk_bounds(0, 2).is_empty());
    }

    #[test]
    fn no_runs_give_an_empty_result() {
        let (engine, policy) = setup();
        let r = monte_carlo(&engine, &policy, 10, 0, 42, 2);
        assert!(r.per_run.is_empty() && r.mean_drops_per_epoch.is_empty());
        assert_eq!(r.drops.count(), 0);
    }

    #[test]
    fn lockstep_chunks_match_independent_episodes() {
        // More runs than one LOCKSTEP_CHUNK so a chunk boundary is crossed;
        // every per-run outcome must equal a standalone `run_episode`.
        let (engine, policy) = setup();
        let r = monte_carlo(&engine, &policy, 10, LOCKSTEP_CHUNK + 5, 42, 2);
        for run in 0..(LOCKSTEP_CHUNK + 5) as u64 {
            let solo = crate::episode::run_episode(&engine, &policy, 10, &mut run_rng(42, run));
            assert_eq!(r.per_run[run as usize], solo.total_drops, "run {run}");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (engine, policy) = setup();
        let a = monte_carlo(&engine, &policy, 10, 8, 42, 1);
        let b = monte_carlo(&engine, &policy, 10, 8, 42, 4);
        assert_eq!(a.per_run, b.per_run);
        assert_eq!(a.mean_drops_per_epoch, b.mean_drops_per_epoch);
    }

    #[test]
    fn stateful_engines_are_deterministic_across_thread_counts_too() {
        // The staggered engine carries per-client snapshot state; the
        // unified driver must still be reproducible under parallelism.
        let cfg = SystemConfig::paper().with_size(300, 15).with_dt(2.0);
        let engine = StaggeredEngine::new(cfg.clone(), 3);
        let policy = FixedRulePolicy::new(DecisionRule::uniform(cfg.num_states(), cfg.d), "RND");
        let a = monte_carlo(&engine, &policy, 8, 6, 13, 1);
        let b = monte_carlo(&engine, &policy, 8, 6, 13, 3);
        assert_eq!(a.per_run, b.per_run);
    }

    #[test]
    fn summary_matches_per_run_values() {
        let (engine, policy) = setup();
        let r = monte_carlo(&engine, &policy, 10, 12, 7, 0);
        assert_eq!(r.per_run.len(), 12);
        let mean = r.per_run.iter().sum::<f64>() / 12.0;
        assert!((r.mean() - mean).abs() < 1e-12);
        assert!(r.ci95() >= 0.0);
        assert_eq!(r.mean_drops_per_epoch.len(), 10);
    }

    #[test]
    fn conditioned_runs_share_lambda_path() {
        let (engine, policy) = setup();
        let seq = vec![0usize; 10];
        let r = monte_carlo_conditioned(&engine, &policy, &seq, 6, 3, 2);
        assert_eq!(r.per_run.len(), 6);
        // All-high-load conditioning: more drops than all-low.
        let seq_low = vec![1usize; 10];
        let r_low = monte_carlo_conditioned(&engine, &policy, &seq_low, 6, 3, 2);
        assert!(r.mean() > r_low.mean());
    }

    #[test]
    fn job_counters_pool_across_runs() {
        let cfg = SystemConfig::paper().with_size(400, 20).with_dt(3.0);
        let engine = crate::fifo_engine::FifoEngine::new(cfg.clone());
        let policy = FixedRulePolicy::new(DecisionRule::uniform(cfg.num_states(), cfg.d), "RND");
        let r = monte_carlo(&engine, &policy, 10, 4, 9, 2);
        assert!(r.jobs_completed > 0);
        assert_eq!(r.sojourns.len() as u64, r.jobs_completed);
        assert!((0.0..=1.0).contains(&r.drop_fraction()));
    }
}
