//! Event-heap, continuous-time **job-level** engine: the piece that turns
//! the epoch-synchronous simulators into a system.
//!
//! The paper's engines advance in lockstep epochs of length `Δt` and only
//! ever see queue *lengths*. [`EventEngine`] instead materializes every
//! job as an event on a [`Timeline`] — a [`std::collections::BinaryHeap`]
//! of typed events popped in `(time, seq)` order:
//!
//! * **arrival** — a job reaches the dispatcher, samples `d` queues,
//!   observes their *stale* lengths (the snapshot frozen at the last
//!   sync boundary), routes through the [`DecisionRule`], and either
//!   joins its queue or is dropped if the queue is at buffer `B`;
//! * **service completion** — the head-of-line job finishes after
//!   `size / α` time units and reports its sojourn time; the next job
//!   (if any) starts service;
//! * **observation refresh** — the sync-delay boundary at `clock + Δt`:
//!   the epoch ends, lengths are re-snapshotted, and the upper-level
//!   policy gets to emit a fresh rule.
//!
//! Job sizes come from a [`JobSizeLaw`] ([`mflb_core::jobs`]) —
//! exponential makes every queue an M/M/1/B queue, Pareto/bounded-Pareto
//! open the heavy-tailed workload axis. Routing is per job: each arrival
//! samples its own `d` queues, whereas the epoch engines freeze one
//! routing choice per *client* for the whole epoch. This engine is hence
//! the `N/M → ∞` limit of [`crate::FifoEngine`], not its equal in law —
//! with exponential sizes it loses fewer jobs, by a gap that closes as
//! `N/M` grows (tested in `tests/engine_regression.rs`).
//!
//! # Determinism
//!
//! Every random draw comes from a **counter-keyed stream** in the PR-7
//! sharded-graph style (`stream_rng(epoch_base, salt, k)`): the `k`-th
//! job of an epoch draws its interarrival gap, its size and its routing
//! from three streams keyed by `k` alone. Service completions consume no
//! randomness at all (the completion instant is `start + size/α`).
//! Consequently the simulation is a deterministic function of the
//! episode RNG's one `epoch_base` draw per epoch — heap tie-breaking,
//! internal `BinaryHeap` layout, or a refactor of the pop loop cannot
//! perturb results, and ties are themselves broken deterministically by
//! the monotone schedule sequence number. The regression suite pins an
//! episode of this engine bit-exactly.

use crate::episode::{sample_initial_queues, stream_rng, Engine, EpochStats};
use mflb_core::{DecisionRule, FaultPlan, JobSizeLaw, StateDist, SystemConfig};
use mflb_queue::sampler::Sampler;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BinaryHeap, VecDeque};

/// Stream salts keeping an epoch's three per-job draw families
/// (interarrival gap, job size, routing) on disjoint counter streams.
const SALT_ARRIVE: u64 = 0x6C62_272E_07BB_0142;
const SALT_SIZE: u64 = 0x27D4_EB2F_1656_67C5;
const SALT_ROUTE: u64 = 0x5851_F42D_4C95_7F2D;

/// One scheduled entry of a [`Timeline`].
#[derive(Debug, Clone)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == std::cmp::Ordering::Equal && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `BinaryHeap` is a max-heap; reversing `(time, seq)` makes
        // `pop` yield the earliest event, ties broken by schedule order.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event heap: entries pop in nondecreasing
/// `(time, seq)` order, where `seq` is the monotone counter assigned by
/// [`Timeline::schedule`]. Equal-time events therefore resolve in
/// schedule order — deterministically, independent of the underlying
/// heap's internal layout.
#[derive(Debug, Clone)]
pub struct Timeline<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Timeline<T> {
    /// An empty timeline.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` at `time` (must be finite) and returns the
    /// sequence number that breaks ties against equal-time events.
    pub fn schedule(&mut self, time: f64, payload: T) -> u64 {
        assert!(time.is_finite(), "event times must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
        seq
    }

    /// Removes and returns the earliest `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.heap.pop().map(|s| (s.time, s.seq, s.payload))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all scheduled events (sequence numbers keep advancing).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Typed events of the job-level engine.
#[derive(Debug, Clone)]
pub(crate) enum EngineEvent {
    /// A job of the given size reaches the dispatcher.
    Arrival {
        /// Work units the job carries.
        size: f64,
    },
    /// The head-of-line job of this queue finishes service.
    Completion {
        /// Queue index.
        queue: usize,
    },
    /// The sync-delay boundary: the epoch/interval ends here.
    Refresh,
}

/// A stream of jobs feeding one [`EventEngine`] interval: either the
/// engine's own counter-keyed Poisson process or a replayed trace.
/// `peek` must be idempotent until `advance` consumes the job.
pub(crate) trait ArrivalFeed {
    /// The next job's `(time, size)`: `prev_time` is the previous
    /// arrival's time (interval start for `k = 0`), `k` the job's index
    /// within the interval (the counter-stream key). `None` = exhausted.
    fn peek(&mut self, prev_time: f64, k: u64) -> Option<(f64, f64)>;
    /// Consumes the job last returned by `peek`.
    fn advance(&mut self);
}

/// The engine's own arrival law: a Poisson process of total rate
/// `M · λ` (matching the epoch engines, whose per-queue rates sum to
/// `M · λ`) with i.i.d. sizes, every draw keyed by the job index so the
/// stream is independent of processing order. Restarted fresh at each
/// sync boundary — exact by memorylessness of the Poisson process.
pub(crate) struct PoissonFeed {
    epoch_base: u64,
    rate: f64,
    law: JobSizeLaw,
    cached: Option<(u64, f64, f64)>,
}

impl PoissonFeed {
    pub(crate) fn new(epoch_base: u64, rate: f64, law: JobSizeLaw) -> Self {
        Self { epoch_base, rate, law, cached: None }
    }
}

impl ArrivalFeed for PoissonFeed {
    fn peek(&mut self, prev_time: f64, k: u64) -> Option<(f64, f64)> {
        if self.rate <= 0.0 {
            return None; // a silent arrival level produces no jobs
        }
        if let Some((ck, t, s)) = self.cached {
            if ck == k {
                return Some((t, s));
            }
        }
        let gap = Sampler::exponential(&mut stream_rng(self.epoch_base, SALT_ARRIVE, k), self.rate);
        let size = self.law.sample(&mut stream_rng(self.epoch_base, SALT_SIZE, k));
        let t = prev_time + gap;
        self.cached = Some((k, t, size));
        Some((t, size))
    }

    fn advance(&mut self) {
        self.cached = None;
    }
}

/// Episode state of [`EventEngine`]: job-level queues, the stale
/// observation snapshot, the event heap and lifetime job counters.
#[derive(Debug, Clone)]
pub struct EventState {
    /// Per-queue FIFO of `(arrival_time, size)`; front is in service.
    queues: Vec<VecDeque<(f64, f64)>>,
    /// Current queue lengths, kept in sync with `queues`.
    lengths: Vec<usize>,
    /// Lengths frozen at the last sync boundary — what arrivals observe.
    snapshot: Vec<usize>,
    /// Pending events (completions persist across epoch boundaries).
    timeline: Timeline<EngineEvent>,
    /// Simulation clock (end of the last completed interval).
    clock: f64,
    /// Per-interval dispatch counts (scratch, reported via `max_share`).
    counts: Vec<u64>,
    /// Routing scratch: the `d` sampled queue indices.
    sampled: Vec<usize>,
    /// Routing scratch: their observed (stale) lengths.
    tuple: Vec<usize>,
    /// Whether a completion event is scheduled for each queue. Without
    /// faults this is exactly `lengths[j] > 0`; a fully-crashed interval
    /// (multiplier 0) stalls a nonempty queue with no completion pending
    /// until [`EventEngine::begin_interval`] rescues it on recovery.
    in_service: Vec<bool>,
    /// Per-queue effective service-rate multiplier for the current
    /// interval (crash up-fraction × straggler factor); all `1.0` when no
    /// fault plan is attached.
    mult: Vec<f64>,
    /// Crash-renewal Up/Down phase per queue.
    fault_up: Vec<bool>,
    /// Sync intervals since the last observation refresh landed (`0` =
    /// the snapshot is fresh; grows only under observation faults).
    obs_age: u64,
    jobs_arrived: u64,
    jobs_completed: u64,
    jobs_dropped: u64,
    jobs_shed: u64,
}

impl EventState {
    /// Jobs that ever reached the dispatcher (preloaded jobs included).
    pub fn jobs_arrived(&self) -> u64 {
        self.jobs_arrived
    }

    /// Jobs that finished service.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Jobs dropped at a full buffer.
    pub fn jobs_dropped(&self) -> u64 {
        self.jobs_dropped
    }

    /// Jobs shed by admission control before routing (back-pressure).
    pub fn jobs_shed(&self) -> u64 {
        self.jobs_shed
    }

    /// Jobs currently queued or in service.
    pub fn jobs_in_system(&self) -> u64 {
        self.lengths.iter().map(|&l| l as u64).sum()
    }

    /// Current simulation time.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Sync intervals since the last observation refresh landed; `0`
    /// whenever the snapshot is fresh. Grows only under observation
    /// faults — the `serve` staleness watchdog monitors this.
    pub fn observation_age(&self) -> u64 {
        self.obs_age
    }
}

/// Continuous-time job-level engine over a [`Timeline`] event heap.
///
/// Implements [`Engine`], so it runs through [`crate::run_episode`] and
/// [`crate::monte_carlo()`] like every epoch engine: each `step` is one
/// sync interval `[clock, clock + Δt)` driven by its own Poisson job
/// stream. The `mflb serve` runtime drives the same event loop directly
/// (via the crate-internal interval runner) with either a synthetic feed
/// or a replayed trace.
#[derive(Debug, Clone)]
pub struct EventEngine {
    config: SystemConfig,
    job_size: JobSizeLaw,
    faults: Option<FaultPlan>,
}

impl EventEngine {
    /// Creates the engine for a validated configuration and size law.
    pub fn new(config: SystemConfig, job_size: JobSizeLaw) -> Self {
        config.validate().expect("invalid system configuration");
        job_size.validate().expect("invalid job-size law");
        Self { config, job_size, faults: None }
    }

    /// Attaches a fault plan ([`mflb_core::faults`]). An empty plan is
    /// dropped on the floor, keeping the engine on the exact fault-free
    /// code path (and its pinned RNG streams).
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate_for`] — construct
    /// via [`crate::Scenario::build`] for an `Err`-reporting path.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        plan.validate_for(self.config.num_queues).expect("invalid fault plan");
        self.faults = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// The configured job-size law.
    pub fn job_size(&self) -> &JobSizeLaw {
        &self.job_size
    }

    /// The attached fault plan, if any non-empty one is configured.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Empirical distribution of the **observation snapshot** — what the
    /// dispatchers (and the `serve` policy tier) actually see. Identical
    /// to [`Engine::empirical`] right after a successful refresh; stale
    /// whenever observation faults dropped the refresh.
    pub fn observed(&self, state: &EventState) -> StateDist {
        StateDist::empirical(&state.snapshot, self.config.buffer)
    }

    /// Opens the sync interval `[state.clock, state.clock + Δt)`: decides
    /// whether this interval's observation refresh lands (under the fault
    /// plan's observation channel), re-snapshots the lengths if it does,
    /// opens the interval on the plan ([`FaultPlan::open_interval`]:
    /// per-queue service-rate multipliers), reschedules service for queues
    /// recovering from a full stall, and returns the interval's arrival
    /// factor, by which a synthetic Poisson feed must scale its rate. Must
    /// be called exactly once before each [`EventEngine::run_interval`];
    /// with no fault plan it reduces to the plain snapshot copy and
    /// returns exactly `1.0`.
    pub(crate) fn begin_interval(&self, state: &mut EventState, epoch_base: u64) -> f64 {
        let Some(plan) = &self.faults else {
            state.snapshot.copy_from_slice(&state.lengths);
            return 1.0;
        };
        if plan.refresh_dropped(epoch_base) {
            state.obs_age += 1;
        } else {
            state.snapshot.copy_from_slice(&state.lengths);
            state.obs_age = 0;
        }
        let t0 = state.clock;
        let factor = plan.open_interval(
            epoch_base,
            t0,
            self.config.dt,
            &mut state.fault_up,
            &mut state.mult,
        );
        let service_rate = self.config.service_rate;
        for j in 0..self.config.num_queues {
            // Rescue a stalled queue: its head job starts service at the
            // interval boundary, served at this interval's rate.
            if !state.in_service[j] && state.lengths[j] > 0 && state.mult[j] > 0.0 {
                let size = state.queues[j].front().expect("nonempty queue has a head job").1;
                state.timeline.schedule(
                    t0 + size / (service_rate * state.mult[j]),
                    EngineEvent::Completion { queue: j },
                );
                state.in_service[j] = true;
            }
        }
        factor
    }

    /// Runs the event loop over `[state.clock, t_end)`: pulls jobs from
    /// `feed` (at most `max_arrivals`), routes each through `rule` under
    /// the stale snapshot, and services queues until the refresh event at
    /// `t_end` pops. `shed_above` is the admission cap: a job arriving
    /// while the in-system count is at or above it is shed before routing
    /// (back-pressure), counted in [`EventState::jobs_shed`]. The caller
    /// must open the interval with [`EventEngine::begin_interval`] first.
    /// Advances the clock to `t_end` and returns the interval's
    /// statistics (completions of jobs from earlier intervals count
    /// toward this one).
    #[allow(clippy::too_many_arguments)] // crate-internal; serve_with is the public surface
    pub(crate) fn run_interval(
        &self,
        state: &mut EventState,
        rule: &DecisionRule,
        epoch_base: u64,
        t_end: f64,
        feed: &mut dyn ArrivalFeed,
        max_arrivals: u64,
        shed_above: Option<u64>,
    ) -> EpochStats {
        let m = self.config.num_queues;
        let buffer = self.config.buffer;
        let service_rate = self.config.service_rate;
        let faulted = self.faults.as_ref().is_some_and(|p| p.has_service_faults());
        let EventState {
            queues,
            lengths,
            snapshot,
            timeline,
            clock,
            counts,
            sampled,
            tuple,
            in_service,
            mult,
            fault_up: _,
            obs_age: _,
            jobs_arrived,
            jobs_completed,
            jobs_dropped,
            jobs_shed,
        } = state;

        counts.iter_mut().for_each(|c| *c = 0);
        timeline.schedule(t_end, EngineEvent::Refresh);

        let mut in_system: u64 = match shed_above {
            Some(_) => lengths.iter().map(|&l| l as u64).sum(),
            None => 0,
        };
        let mut prev_arrival = *clock;
        let mut k: u64 = 0;
        let mut arrived = 0u64;
        let mut dropped = 0u64;
        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut sojourns = Vec::new();
        let mut arrival_scheduled = false;

        loop {
            // Keep exactly one upcoming arrival on the heap: the next one
            // is only materialized once the previous has been processed,
            // so a trace feed is consumed lazily and a Poisson feed draws
            // nothing past the boundary.
            if !arrival_scheduled && arrived < max_arrivals {
                if let Some((t, size)) = feed.peek(prev_arrival, k) {
                    if t < t_end {
                        timeline.schedule(t, EngineEvent::Arrival { size });
                        arrival_scheduled = true;
                    }
                }
            }
            let (t, _seq, event) =
                timeline.pop().expect("refresh sentinel keeps the timeline non-empty");
            match event {
                EngineEvent::Refresh => break,
                EngineEvent::Arrival { size } => {
                    feed.advance();
                    arrival_scheduled = false;
                    prev_arrival = t;
                    if shed_above.is_some_and(|cap| in_system >= cap) {
                        // Back-pressure: reject before routing — no
                        // routing randomness is consumed, so shedding is
                        // itself a deterministic function of the state.
                        k += 1;
                        arrived += 1;
                        shed += 1;
                        continue;
                    }
                    let mut rng = stream_rng(epoch_base, SALT_ROUTE, k);
                    for s in 0..self.config.d {
                        sampled[s] = rng.gen_range(0..m);
                        tuple[s] = snapshot[sampled[s]];
                    }
                    let u = rule.sample(tuple, &mut rng);
                    let j = sampled[u];
                    k += 1;
                    arrived += 1;
                    counts[j] += 1;
                    if lengths[j] >= buffer {
                        dropped += 1;
                    } else {
                        if !in_service[j] {
                            let rate = if faulted { service_rate * mult[j] } else { service_rate };
                            if rate > 0.0 {
                                timeline.schedule(
                                    t + size / rate,
                                    EngineEvent::Completion { queue: j },
                                );
                                in_service[j] = true;
                            }
                        }
                        queues[j].push_back((t, size));
                        lengths[j] += 1;
                        in_system += 1;
                    }
                }
                EngineEvent::Completion { queue: j } => {
                    let (arrived_at, _size) =
                        queues[j].pop_front().expect("completion implies a job in service");
                    lengths[j] -= 1;
                    in_system = in_system.saturating_sub(1);
                    sojourns.push(t - arrived_at);
                    completed += 1;
                    match queues[j].front() {
                        Some(&(_, next_size)) => {
                            let rate = if faulted { service_rate * mult[j] } else { service_rate };
                            if rate > 0.0 {
                                timeline.schedule(
                                    t + next_size / rate,
                                    EngineEvent::Completion { queue: j },
                                );
                            } else {
                                in_service[j] = false;
                            }
                        }
                        None => in_service[j] = false,
                    }
                }
            }
        }

        *clock = t_end;
        *jobs_arrived += arrived;
        *jobs_completed += completed;
        *jobs_dropped += dropped;
        *jobs_shed += shed;

        let max_count = counts.iter().copied().max().unwrap_or(0);
        EpochStats {
            drops: dropped as f64 / m as f64,
            dropped,
            completed,
            mean_queue_len: lengths.iter().map(|&l| l as f64).sum::<f64>() / m as f64,
            // Epoch engines report the share of all N clients herding
            // onto one queue; job-level intervals have no client
            // population, so this is the share of *this interval's jobs*
            // dispatched to the most-loaded queue.
            max_share: max_count as f64 / arrived.max(1) as f64,
            sojourns,
        }
    }
}

impl Engine for EventEngine {
    type State = EventState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> EventState {
        let lengths = sample_initial_queues(&self.config, rng);
        let mut timeline = Timeline::new();
        let queues: Vec<VecDeque<(f64, f64)>> = lengths
            .iter()
            .enumerate()
            .map(|(j, &n)| {
                let mut q = VecDeque::with_capacity(n.max(4));
                for i in 0..n {
                    let size = self.job_size.sample(rng);
                    if i == 0 {
                        timeline.schedule(
                            size / self.config.service_rate,
                            EngineEvent::Completion { queue: j },
                        );
                    }
                    q.push_back((0.0, size));
                }
                q
            })
            .collect();
        let m = queues.len();
        let preloaded: u64 = lengths.iter().map(|&l| l as u64).sum();
        EventState {
            queues,
            snapshot: lengths.clone(),
            in_service: lengths.iter().map(|&n| n > 0).collect(),
            lengths,
            timeline,
            clock: 0.0,
            counts: vec![0; m],
            sampled: vec![0; self.config.d],
            tuple: vec![0; self.config.d],
            mult: vec![1.0; m],
            fault_up: vec![true; m],
            obs_age: 0,
            jobs_arrived: preloaded,
            jobs_completed: 0,
            jobs_dropped: 0,
            jobs_shed: 0,
        }
    }

    fn empirical(&self, state: &EventState) -> StateDist {
        StateDist::empirical(&state.lengths, self.config.buffer)
    }

    fn step(
        &self,
        state: &mut EventState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let epoch_base: u64 = rng.gen();
        let arrival_factor = self.begin_interval(state, epoch_base);
        let t_end = state.clock + self.config.dt;
        let rate = self.config.num_queues as f64 * (lambda * arrival_factor);
        let mut feed = PoissonFeed::new(epoch_base, rate, self.job_size.clone());
        self.run_interval(state, rule, epoch_base, t_end, &mut feed, u64::MAX, None)
    }

    fn name(&self) -> &'static str {
        "event-job-level"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_policy::{jsq_rule, rnd_rule};

    fn engine(law: JobSizeLaw) -> EventEngine {
        EventEngine::new(SystemConfig::paper().with_size(400, 20).with_dt(4.0), law)
    }

    #[test]
    fn timeline_pops_in_time_then_seq_order() {
        let mut tl = Timeline::new();
        tl.schedule(3.0, "c");
        tl.schedule(1.0, "a");
        tl.schedule(2.0, "b1");
        tl.schedule(2.0, "b2");
        let popped: Vec<&str> = std::iter::from_fn(|| tl.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(popped, vec!["a", "b1", "b2", "c"]);
        assert!(tl.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn timeline_rejects_non_finite_times() {
        Timeline::new().schedule(f64::NAN, ());
    }

    #[test]
    fn episodes_run_and_conserve_job_mass() {
        for law in [
            JobSizeLaw::Exponential { rate: 1.0 },
            JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 },
        ] {
            let e = engine(law);
            let policy = FixedRulePolicy::new(jsq_rule(6, 2), "JSQ(2)");
            let mut rng = run_rng(11, 0);
            let mut state = e.init_state(&mut rng);
            let rule = jsq_rule(6, 2);
            for _ in 0..10 {
                e.step(&mut state, &rule, 0.9, &mut rng);
            }
            assert!(state.jobs_arrived() > 0, "busy system must see jobs");
            assert_eq!(
                state.jobs_arrived(),
                state.jobs_completed() + state.jobs_dropped() + state.jobs_in_system(),
                "job mass must be conserved"
            );
            let out = run_episode(&e, &policy, 10, &mut run_rng(12, 0));
            assert_eq!(out.drops_per_epoch.len(), 10);
            assert_eq!(out.sojourns.len() as u64, out.jobs_completed);
            assert!(out.sojourns.iter().all(|&s| s > 0.0));
        }
    }

    #[test]
    fn episodes_are_bit_identical_across_reruns() {
        let e = engine(JobSizeLaw::Pareto { shape: 2.5, scale: 0.4 });
        let policy = FixedRulePolicy::new(rnd_rule(6, 2), "RND");
        let a = run_episode(&e, &policy, 15, &mut run_rng(21, 3));
        let b = run_episode(&e, &policy, 15, &mut run_rng(21, 3));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
        assert_eq!(a.sojourns, b.sojourns);
        assert_eq!(a.mean_queue_len, b.mean_queue_len);
    }
}
