//! The stateful [`Engine`] abstraction and the generic episode drivers
//! (Algorithm 1 of the paper).
//!
//! One evaluation episode runs `T_e` decision epochs. At each epoch:
//!
//! 1. the empirical queue-state distribution `H_t^M` is computed (line 8)
//!    via [`Engine::empirical`],
//! 2. the upper-level policy produces the decision rule `h_t` (line 9),
//! 3. [`Engine::step`] assigns clients and simulates every queue's CTMC
//!    for `Δt` time units, counting drops (lines 10–19),
//! 4. the arrival level advances (line 20).
//!
//! Engines own an associated [`Engine::State`] type, so variants whose
//! per-queue state is richer than a plain length — phase-carrying or
//! class-composite ([`crate::aggregate::AggregateEngine`] over a
//! [`crate::aggregate::Service`]), private-snapshot
//! ([`crate::staggered::StaggeredEngine`]) and job-level
//! ([`crate::fifo_engine::FifoEngine`]) — all run through the one episode
//! loop, [`run_episodes_lockstep`], as the homogeneous
//! [`crate::client::PerClientEngine`]. It steps a batch of episodes
//! together, on the arrival chain or on a prescribed `λ` path;
//! [`run_episode`] is its one-episode case and [`crate::monte_carlo()`]
//! fans chunks of it out over threads.

use mflb_core::mdp::{ObservationBatch, UpperPolicy};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A finite-system simulation engine with persistent episode state.
///
/// The state carries everything that must survive from one decision epoch
/// to the next (queue lengths, service phases, per-client snapshots, …)
/// plus reusable scratch buffers, so the per-epoch hot path allocates
/// nothing proportional to `M` or `N`.
pub trait Engine: Send + Sync {
    /// Per-episode simulation state (queue contents + scratch buffers).
    type State;

    /// System configuration in force.
    fn config(&self) -> &SystemConfig;

    /// Samples a fresh episode-start state (Alg. 1, lines 4–6).
    fn init_state(&self, rng: &mut StdRng) -> Self::State;

    /// The empirical queue-**length** distribution `H_t^M` the upper-level
    /// policy observes (Eq. 2). Richer engines project onto lengths.
    fn empirical(&self, state: &Self::State) -> StateDist;

    /// Runs one decision epoch in place and returns its statistics
    /// (lines 10–19; drops are `D_t^{N,M}` of Eq. 6).
    fn step(
        &self,
        state: &mut Self::State,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats;

    /// Engine identifier for harness output.
    fn name(&self) -> &'static str;
}

/// Everything one [`Engine::step`] reports about its epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochStats {
    /// Average drops per queue during the epoch (`D_t^{N,M}`, Eq. 6).
    pub drops: f64,
    /// Raw dropped-packet count (i.e. `drops · M`).
    pub dropped: u64,
    /// Raw service completions during the epoch.
    pub completed: u64,
    /// Mean queue length at the end of the epoch.
    pub mean_queue_len: f64,
    /// Largest fraction of all `N` clients assigned to a single queue —
    /// the herding diagnostic of the paper's §1.
    pub max_share: f64,
    /// Sojourn times of jobs completed this epoch (job-level engines
    /// only; empty elsewhere).
    pub sojourns: Vec<f64>,
}

/// Everything recorded over one finite-system episode, for every engine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpisodeOutcome {
    /// Average per-queue drops in each epoch (`D_t^{N,M}`).
    pub drops_per_epoch: Vec<f64>,
    /// Cumulative average per-queue drops `Σ_t D_t^{N,M}` — the quantity
    /// plotted in Fig. 4–6 ("total packets dropped", normalized per queue).
    pub total_drops: f64,
    /// Episode return `−total_drops` (comparable to the MFC MDP value).
    pub total_return: f64,
    /// Mean queue length at the end of each epoch (diagnostics).
    pub mean_queue_len: Vec<f64>,
    /// Arrival-level index in force during each epoch.
    pub lambda_trace: Vec<usize>,
    /// Per-epoch herding diagnostic: largest fraction of all clients
    /// assigned to one queue (`examples/herd_behaviour`).
    #[serde(default)]
    pub max_share_per_epoch: Vec<f64>,
    /// Sojourn times of completed jobs (job-level engines only; Fig. 8).
    #[serde(default)]
    pub sojourns: Vec<f64>,
    /// Raw service completions over the episode.
    #[serde(default)]
    pub jobs_completed: u64,
    /// Raw dropped-packet count over the episode.
    #[serde(default)]
    pub jobs_dropped: u64,
}

impl EpisodeOutcome {
    fn record(&mut self, lambda_idx: usize, stats: EpochStats) {
        self.drops_per_epoch.push(stats.drops);
        self.total_drops += stats.drops;
        self.mean_queue_len.push(stats.mean_queue_len);
        self.lambda_trace.push(lambda_idx);
        self.max_share_per_epoch.push(stats.max_share);
        self.sojourns.extend(stats.sojourns);
        self.jobs_completed += stats.completed;
        self.jobs_dropped += stats.dropped;
    }

    fn finish(&mut self) {
        self.total_return = -self.total_drops;
    }

    /// Fraction of jobs dropped among all jobs that reached a queue.
    pub fn drop_fraction(&self) -> f64 {
        let total = self.jobs_dropped + self.jobs_completed;
        self.jobs_dropped as f64 / (total.max(1)) as f64
    }
}

/// Samples initial queue states i.i.d. from the configured `ν₀` (Alg. 1,
/// lines 4–6).
pub fn sample_initial_queues(config: &SystemConfig, rng: &mut StdRng) -> Vec<usize> {
    let nu0 = &config.initial_dist;
    (0..config.num_queues)
        .map(|_| {
            let mut u: f64 = rng.gen();
            for (z, &p) in nu0.iter().enumerate() {
                u -= p;
                if u <= 0.0 {
                    return z;
                }
            }
            nu0.len() - 1
        })
        .collect()
}

/// Runs one episode of `horizon` epochs under an upper-level policy, with
/// the arrival level evolving stochastically (Algorithm 1): the
/// one-episode case of [`run_episodes_lockstep`].
pub fn run_episode<E: Engine>(
    engine: &E,
    policy: &dyn UpperPolicy,
    horizon: usize,
    rng: &mut StdRng,
) -> EpisodeOutcome {
    let mut outs = run_episodes_lockstep(engine, policy, horizon, None, std::slice::from_mut(rng));
    outs.pop().expect("one episode per RNG")
}

/// The episode loop: runs `rngs.len()` episodes of `horizon` epochs in
/// lockstep. Each decision epoch stacks every episode's observation into
/// one [`ObservationBatch`] and makes a single
/// [`UpperPolicy::decide_batch`] call, turning the neural policy's
/// per-episode gemvs into one gemm per layer.
///
/// With `levels = None` the arrival level follows its Markov chain
/// (Algorithm 1). With a prescribed path, `levels[t]` is the level in
/// force during epoch `t` for every episode, and the chain is neither
/// sampled nor stepped — the Theorem-1 setting, where the same `λ` path is
/// fed to the mean-field model ([`mflb_core::MeanFieldMdp`]'s
/// `rollout_conditioned`) and the finite system.
///
/// Each episode's outcome is a function of its own RNG alone: the RNG is
/// private and consumed in the same order for any batch (`init_state`,
/// `sample_initial` if the chain runs, then per epoch `step` and the
/// chain transition), and `decide`/`decide_batch` draw no randomness and
/// agree row by row. So a batch of `k` episodes is bit-identical to `k`
/// calls of [`run_episode`]; [`crate::monte_carlo()`] relies on this to
/// cut runs into chunks freely.
///
/// # Panics
///
/// If a prescribed path is shorter than `horizon`.
pub fn run_episodes_lockstep<E: Engine>(
    engine: &E,
    policy: &dyn UpperPolicy,
    horizon: usize,
    levels: Option<&[usize]>,
    rngs: &mut [StdRng],
) -> Vec<EpisodeOutcome> {
    let config = engine.config();
    let k = rngs.len();
    let mut states: Vec<E::State> = rngs.iter_mut().map(|r| engine.init_state(r)).collect();
    // A prescribed path overwrites every level at the top of each epoch.
    let mut lambda_idxs: Vec<usize> = match levels {
        Some(_) => vec![0; k],
        None => rngs.iter_mut().map(|r| config.arrivals.sample_initial(r)).collect(),
    };
    let mut outs = vec![EpisodeOutcome::default(); k];
    let mut batch = ObservationBatch::new(config.num_states(), config.arrivals.num_levels());
    let mut rules = vec![DecisionRule::uniform(1, 1); k];
    for t in 0..horizon {
        if let Some(seq) = levels {
            lambda_idxs.fill(seq[t]);
        }
        batch.clear();
        for i in 0..k {
            let lambda = config.arrivals.level_rate(lambda_idxs[i]);
            batch.push(engine.empirical(&states[i]), lambda_idxs[i], lambda);
        }
        policy.decide_batch(&batch, &mut rules);
        for i in 0..k {
            let stats = engine.step(&mut states[i], &rules[i], batch.lambda(i), &mut rngs[i]);
            outs[i].record(lambda_idxs[i], stats);
            if levels.is_none() {
                lambda_idxs[i] = config.arrivals.step(lambda_idxs[i], &mut rngs[i]);
            }
        }
    }
    for o in &mut outs {
        o.finish();
    }
    outs
}

/// Derives a per-run RNG from a base seed (stable across thread counts so
/// Monte-Carlo results are reproducible regardless of parallelism).
pub fn run_rng(base_seed: u64, run_index: u64) -> StdRng {
    // SplitMix64 scramble keeps consecutive run seeds decorrelated.
    let mut z = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(run_index + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Derives the RNG for one `(phase, entity)` pair of an epoch: a
/// SplitMix64-style scramble of `(epoch_base ^ salt) + idx·φ` seeds the
/// engine-wide `StdRng` (whose `seed_from_u64` adds four more SplitMix64
/// rounds), keeping streams decorrelated across entities and phases.
/// Shared by the sharded [`crate::graph_engine::GraphEngine`], the
/// job-level [`crate::event_engine::EventEngine`] and the fault layer
/// ([`mflb_core::FaultPlan`]): giving each logical entity (queue,
/// dispatcher, job) its *own* counter-keyed stream is what makes epochs
/// bit-identical regardless of shard partition, worker count, or the
/// order in which the event engine visits its queues. The scramble
/// itself lives in `mflb_core::faults` so the fault streams are salts of
/// the exact same scheme.
pub(crate) use mflb_core::stream_rng;

/// Shared per-client assignment sweep (Eq. 3–4): every client samples `d`
/// queue indices uniformly with replacement, observes each through
/// `observe(j)` (the plain length for [`crate::client::PerClientEngine`]; a
/// composite `(length, class)` index when it serves as the per-client law
/// oracle of a heterogeneous [`crate::aggregate::AggregateEngine`]), draws
/// its action from the rule and increments its destination's count. The
/// draw order is part of the seed-pinned regression contract — change it
/// only together with `tests/engine_regression.rs`.
pub(crate) fn sample_per_client_assignments(
    num_clients: u64,
    observe: &dyn Fn(usize) -> usize,
    rule: &DecisionRule,
    rng: &mut StdRng,
    counts: &mut [u64],
    sampled: &mut [usize],
    tuple: &mut [usize],
) {
    let m = counts.len();
    let d = tuple.len();
    debug_assert_eq!(sampled.len(), d);
    counts.iter_mut().for_each(|c| *c = 0);
    for _ in 0..num_clients {
        for k in 0..d {
            sampled[k] = rng.gen_range(0..m);
            tuple[k] = observe(sampled[k]);
        }
        let u = rule.sample(tuple, rng);
        counts[sampled[u]] += 1;
    }
}

/// Runs one exponential-service queue for `config.dt` with frozen
/// arrival and service rates (Alg. 1 lines 15–19), in place; returns
/// `(dropped, served)`.
pub(crate) fn birth_death_queue_epoch(
    queue: &mut usize,
    arrival_rate: f64,
    service_rate: f64,
    config: &SystemConfig,
    rng: &mut StdRng,
) -> (u64, u64) {
    let model = mflb_queue::BirthDeathQueue::new(arrival_rate, service_rate, config.buffer);
    let outcome = model.simulate_epoch(*queue, config.dt, rng);
    *queue = outcome.final_state;
    (outcome.drops, outcome.served)
}

/// Shared birth–death epoch sweep: every queue `j` runs an exact CTMC for
/// `config.dt` with frozen arrival rate `scale · counts[j]`.
/// Idle empty queues are skipped — [`mflb_queue::BirthDeathQueue`] with a
/// zero total rate consumes no randomness, so the skip is RNG-neutral.
/// Returns `(dropped, served)` raw event counts.
pub(crate) fn simulate_birth_death_epoch(
    queues: &mut [usize],
    counts: &[u64],
    scale: f64,
    service_rate: &dyn Fn(usize) -> f64,
    config: &SystemConfig,
    rng: &mut StdRng,
) -> (u64, u64) {
    let mut dropped = 0u64;
    let mut served = 0u64;
    for (j, q) in queues.iter_mut().enumerate() {
        if counts[j] == 0 && *q == 0 {
            continue; // idle empty queue: nothing can happen
        }
        let (d, s) =
            birth_death_queue_epoch(q, scale * counts[j] as f64, service_rate(j), config, rng);
        dropped += d;
        served += s;
    }
    (dropped, served)
}

/// Assembles the [`EpochStats`] common to all length-state engines from
/// the end-of-epoch queue lengths and the epoch's per-queue client counts.
pub(crate) fn length_epoch_stats(
    lengths: impl Iterator<Item = usize>,
    counts: &[u64],
    num_clients: u64,
    dropped: u64,
    served: u64,
) -> EpochStats {
    let m = counts.len().max(1) as f64;
    let max_count = counts.iter().copied().max().unwrap_or(0);
    EpochStats {
        drops: dropped as f64 / m,
        dropped,
        completed: served,
        mean_queue_len: lengths.map(|z| z as f64).sum::<f64>() / m,
        max_share: max_count as f64 / num_clients.max(1) as f64,
        sojourns: Vec::new(),
    }
}
