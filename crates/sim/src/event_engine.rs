//! Continuous-time **job-level** engine: the piece that turns the
//! epoch-synchronous simulators into a system.
//!
//! The paper's engines advance in lockstep epochs of length `Δt` and only
//! ever see queue *lengths*. [`EventEngine`] instead follows every job
//! through three kinds of event:
//!
//! * **arrival** — a job reaches the dispatcher, samples `d` queues,
//!   observes their *stale* lengths (the snapshot frozen at the last
//!   sync boundary), routes through the [`DecisionRule`], and either
//!   joins its queue or is dropped if the queue is at buffer `B`;
//! * **service completion** — the head-of-line job finishes after
//!   `size / α` time units and reports its sojourn time; the next job
//!   (if any) starts service;
//! * **observation refresh** — the sync-delay boundary at `clock + Δt`:
//!   the interval ends, lengths are re-snapshotted, and the upper-level
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
//! # One sync interval, queue by queue
//!
//! Between two refreshes every job routes on the same frozen snapshot, so
//! no routing decision reads live queue state, and once each job's queue
//! is known the queues evolve independently. An interval therefore runs
//! in three steps, with no event heap:
//!
//! 1. **route** — the interval's jobs are pulled from the feed in arrival
//!    order and routed on the snapshot;
//! 2. **bucket** — a stable counting sort groups them by queue;
//! 3. **advance** — each queue alone interleaves its FIFO completions
//!    with its arrivals. The in-service job's completion time is kept per
//!    queue; the interval's completions are then sorted into time order
//!    for the sojourn record.
//!
//! Bounded admission (`ServeOptions::admission_cap`) couples the queues:
//! whether a job is shed depends on the system-wide in-system count at
//! its arrival. An admission-capped interval therefore pulls its jobs one
//! at a time and merges them in global time order with a heap of the
//! pending completions, keyed by `(time, queue)`, routing only the jobs
//! it admits.
//!
//! # Determinism
//!
//! Every random draw comes from a **counter-keyed stream**
//! (`stream_rng(epoch_base, salt, k)`): the `k`-th job of an interval
//! draws its interarrival gap, its size and its routing from three
//! streams keyed by `k` alone. Service completions consume no randomness
//! at all (the completion instant is `start + size/α`), so the simulation
//! is a deterministic function of the episode RNG's one `epoch_base` draw
//! per interval.
//!
//! With Poisson arrivals and continuous sizes two events share an instant
//! with probability zero, but trace timestamps make exact ties real. Both
//! interval paths settle them by one rule:
//!
//! * at one instant, completions go before arrivals, so a job arriving
//!   as its queue's head finishes finds that slot free — a completion
//!   started at the instant (a zero-length service) included;
//! * an event due exactly at the refresh `clock + Δt` belongs to the next
//!   interval, as an arrival at that instant already does;
//! * an interval's sojourns are reported sorted by (completion time,
//!   queue), and completions of one queue at one instant stay in service
//!   order.
//!
//! The two paths therefore agree bit for bit, and the regression suite
//! pins episodes and serve runs of this engine bit-exactly.

use crate::episode::{sample_initial_queues, stream_rng, Engine, EpochStats};
use mflb_core::{DecisionRule, FaultPlan, JobSizeLaw, StateDist, SystemConfig};
use mflb_queue::sampler::Sampler;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Stream salts keeping an epoch's three per-job draw families
/// (interarrival gap, job size, routing) on disjoint counter streams.
const SALT_ARRIVE: u64 = 0x6C62_272E_07BB_0142;
const SALT_SIZE: u64 = 0x27D4_EB2F_1656_67C5;
const SALT_ROUTE: u64 = 0x5851_F42D_4C95_7F2D;

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

/// A job of the current interval, routed on the snapshot.
#[derive(Debug, Clone, Copy)]
struct Routed {
    t: f64,
    size: f64,
    queue: u32,
}

/// A service completion of the current interval.
#[derive(Debug, Clone, Copy)]
struct Done {
    t: f64,
    queue: u32,
    sojourn: f64,
}

/// A pending completion on the admission-capped path's heap: the
/// earliest pops first, ties by queue index.
#[derive(Debug, Clone, Copy)]
struct Pending {
    t: f64,
    queue: u32,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap, so the comparison is reversed.
        other.t.total_cmp(&self.t).then(other.queue.cmp(&self.queue))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// Buffers one interval reuses from the last.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The interval's jobs in arrival order.
    jobs: Vec<Routed>,
    /// Job indices grouped by queue, in arrival order within a queue.
    by_queue: Vec<u32>,
    /// Queue `j`'s group is `by_queue[starts[j]..starts[j + 1]]`.
    starts: Vec<u32>,
    /// Queues with jobs or a completion due this interval (a prefix).
    active: Vec<u32>,
    /// The interval's completions, each queue's in service order.
    done: Vec<Done>,
    /// The completions in report order, as `(time, index into done)`.
    order: Vec<(f64, u32)>,
    /// Pending completions of an admission-capped interval.
    heap: BinaryHeap<Pending>,
}

/// Episode state of [`EventEngine`]: job-level queues, their pending
/// completions, the stale observation snapshot and lifetime job counters.
#[derive(Debug, Clone)]
pub struct EventState {
    /// Per-queue FIFO of `(arrival_time, size)`; front is in service.
    queues: Vec<VecDeque<(f64, f64)>>,
    /// Current queue lengths, kept in sync with `queues`.
    lengths: Vec<usize>,
    /// Lengths frozen at the last sync boundary — what arrivals observe.
    snapshot: Vec<usize>,
    /// Completion time of each queue's in-service job, `f64::INFINITY`
    /// when none is pending (completions persist across intervals).
    /// Without faults one is pending exactly when the queue is nonempty;
    /// a fully-crashed interval (multiplier 0) stalls a nonempty queue
    /// with none pending until [`EventEngine::begin_interval`] rescues it
    /// on recovery.
    next_done: Vec<f64>,
    /// Jobs queued or in service: the sum of `lengths`.
    in_system: u64,
    /// Simulation clock (end of the last completed interval).
    clock: f64,
    /// Per-interval dispatch counts (scratch, reported via `max_share`).
    counts: Vec<u64>,
    /// Routing scratch: the `d` sampled queue indices.
    sampled: Vec<usize>,
    /// Routing scratch: their observed (stale) lengths.
    tuple: Vec<usize>,
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
    scratch: Box<Scratch>,
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
        self.in_system
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

/// Continuous-time job-level engine, advanced one sync interval at a
/// time (see the module docs).
///
/// Implements [`Engine`], so it runs through [`crate::run_episode`] and
/// [`crate::monte_carlo()`] like every epoch engine: each `step` is one
/// sync interval `[clock, clock + Δt)` driven by its own Poisson job
/// stream. The `mflb serve` runtime drives the same intervals directly
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

    /// Service rate of queue `j` in the current interval.
    fn rate(&self, mult: &[f64], j: usize) -> f64 {
        let faulted = self.faults.as_ref().is_some_and(|p| p.has_service_faults());
        if faulted {
            self.config.service_rate * mult[j]
        } else {
            self.config.service_rate
        }
    }

    /// Opens the sync interval `[state.clock, state.clock + Δt)`: decides
    /// whether this interval's observation refresh lands (under the fault
    /// plan's observation channel), re-snapshots the lengths if it does,
    /// opens the interval on the plan ([`FaultPlan::open_interval`]:
    /// per-queue service-rate multipliers), restarts service for queues
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
            if state.next_done[j] == f64::INFINITY && state.lengths[j] > 0 && state.mult[j] > 0.0 {
                let size = state.queues[j].front().expect("nonempty queue has a head job").1;
                state.next_done[j] = t0 + size / (service_rate * state.mult[j]);
            }
        }
        factor
    }

    /// Runs the interval `[state.clock, t_end)`: pulls jobs from `feed`
    /// (at most `max_arrivals`, all before `t_end`), routes each through
    /// `rule` under the stale snapshot, and services the queues up to the
    /// refresh at `t_end`. `shed_above` is the admission cap: a job
    /// arriving while the in-system count is at or above it is shed
    /// before routing (back-pressure), counted in
    /// [`EventState::jobs_shed`]. The caller must open the interval with
    /// [`EventEngine::begin_interval`] first. Advances the clock to
    /// `t_end` and returns the interval's statistics (completions of jobs
    /// from earlier intervals count toward this one).
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
        let (arrived, dropped, shed, sojourns) = match shed_above {
            None => {
                self.route(state, rule, epoch_base, t_end, feed, max_arrivals);
                let (dropped, sojourns) = self.advance_queues(state, t_end);
                (state.scratch.jobs.len() as u64, dropped, 0, sojourns)
            }
            Some(cap) => self.run_capped(state, rule, epoch_base, t_end, feed, max_arrivals, cap),
        };

        let m = self.config.num_queues;
        let completed = sojourns.len() as u64;
        state.clock = t_end;
        state.jobs_arrived += arrived;
        state.jobs_completed += completed;
        state.jobs_dropped += dropped;
        state.jobs_shed += shed;

        let max_count = state.counts.iter().copied().max().unwrap_or(0);
        EpochStats {
            drops: dropped as f64 / m as f64,
            dropped,
            completed,
            // The same bits as summing the lengths as floats: every partial
            // sum is an integer below 2⁵³, so none of them rounds.
            mean_queue_len: state.in_system as f64 / m as f64,
            // Epoch engines report the share of all N clients herding
            // onto one queue; job-level intervals have no client
            // population, so this is the share of *this interval's jobs*
            // dispatched to the most-loaded queue.
            max_share: max_count as f64 / arrived.max(1) as f64,
            sojourns,
        }
    }

    /// The queue job `k` of the interval joins: it samples `d` queues on
    /// its counter-keyed stream and `rule` picks among their stale
    /// lengths.
    fn pick(
        &self,
        rule: &DecisionRule,
        epoch_base: u64,
        k: u64,
        snapshot: &[usize],
        sampled: &mut [usize],
        tuple: &mut [usize],
    ) -> usize {
        let mut rng = stream_rng(epoch_base, SALT_ROUTE, k);
        for s in 0..self.config.d {
            sampled[s] = rng.gen_range(0..self.config.num_queues);
            tuple[s] = snapshot[sampled[s]];
        }
        sampled[rule.sample(tuple, &mut rng)]
    }

    /// Step 1 of an uncapped interval: pulls the interval's jobs from
    /// `feed` and routes each on the snapshot.
    fn route(
        &self,
        state: &mut EventState,
        rule: &DecisionRule,
        epoch_base: u64,
        t_end: f64,
        feed: &mut dyn ArrivalFeed,
        max_arrivals: u64,
    ) {
        let EventState { snapshot, sampled, tuple, clock, counts, scratch, .. } = state;
        let jobs = &mut scratch.jobs;
        jobs.clear();
        counts.iter_mut().for_each(|c| *c = 0);
        let mut prev = *clock;
        while let Some((t, size)) = next_job(feed, prev, jobs.len() as u64, t_end, max_arrivals) {
            feed.advance();
            let queue = self.pick(rule, epoch_base, jobs.len() as u64, snapshot, sampled, tuple);
            counts[queue] += 1;
            jobs.push(Routed { t, size, queue: queue as u32 });
            prev = t;
        }
    }

    /// Steps 2 and 3 of an uncapped interval: buckets the routed jobs by
    /// queue and advances each queue alone to `t_end`. Returns the drop
    /// count and the interval's sojourns in report order.
    fn advance_queues(&self, state: &mut EventState, t_end: f64) -> (u64, Vec<f64>) {
        let m = self.config.num_queues;
        let buffer = self.config.buffer;
        let EventState { queues, lengths, next_done, in_system, counts, mult, scratch, .. } = state;
        let Scratch { jobs, by_queue, starts, active, done, order, .. } = &mut **scratch;

        // Step 2: a stable counting sort of the jobs by queue over the
        // dispatch counts. `starts[j + 1]` first holds where queue j's
        // group begins and is advanced past each job placed, ending where
        // the group ends. A queue is active if it has jobs or a completion
        // due before `t_end`.
        starts.clear();
        starts.resize(m + 1, 0);
        active.clear();
        active.resize(m, 0);
        let mut placed = 0;
        let mut n_active = 0;
        for j in 0..m {
            starts[j + 1] = placed;
            placed += counts[j] as u32;
            active[n_active] = j as u32;
            n_active += ((counts[j] > 0) | (next_done[j] < t_end)) as usize;
        }
        by_queue.clear();
        by_queue.resize(jobs.len(), 0);
        for (k, job) in jobs.iter().enumerate() {
            let slot = &mut starts[job.queue as usize + 1];
            by_queue[*slot as usize] = k as u32;
            *slot += 1;
        }

        // Step 3: each active queue on its own, in queue order, so `done`
        // lists each queue's completions in service order. A completion
        // goes ahead of a job due at the same instant; one due at `t_end`
        // is left to the next interval.
        done.clear();
        let mut dropped = 0u64;
        for &j in &active[..n_active] {
            let rate = self.rate(mult, j as usize);
            let queue = &mut queues[j as usize];
            let mut due = next_done[j as usize];
            for &k in &by_queue[starts[j as usize] as usize..starts[j as usize + 1] as usize] {
                let job = jobs[k as usize];
                while due <= job.t {
                    complete(queue, done, j, &mut due, rate);
                }
                if queue.len() >= buffer {
                    dropped += 1;
                    continue;
                }
                if due == f64::INFINITY && rate > 0.0 {
                    due = job.t + job.size / rate;
                }
                queue.push_back((job.t, job.size));
            }
            while due < t_end {
                complete(queue, done, j, &mut due, rate);
            }
            let j = j as usize;
            *in_system = *in_system - lengths[j] as u64 + queue.len() as u64;
            lengths[j] = queue.len();
            next_done[j] = due;
        }
        (dropped, sojourns_in_order(done, order))
    }

    /// An admission-capped interval: shedding reads the system-wide
    /// in-system count at each arrival, so the jobs are pulled from the
    /// feed one at a time and merged in time order with a heap of the
    /// pending completions; a shed job is not routed. Returns the arrival,
    /// drop and shed counts and the sojourns in report order.
    #[allow(clippy::too_many_arguments)]
    fn run_capped(
        &self,
        state: &mut EventState,
        rule: &DecisionRule,
        epoch_base: u64,
        t_end: f64,
        feed: &mut dyn ArrivalFeed,
        max_arrivals: u64,
        cap: u64,
    ) -> (u64, u64, u64, Vec<f64>) {
        let m = self.config.num_queues;
        let buffer = self.config.buffer;
        let EventState {
            queues,
            lengths,
            snapshot,
            next_done,
            in_system,
            clock,
            counts,
            sampled,
            tuple,
            mult,
            scratch,
            ..
        } = state;
        let Scratch { done, order, heap, .. } = &mut **scratch;

        // The heap is rebuilt from the pending completions in linear time;
        // `next_done` stays the record, so nothing is drained back.
        counts.iter_mut().for_each(|c| *c = 0);
        let mut pending = std::mem::take(heap).into_vec();
        pending.clear();
        pending.extend(
            (0..m)
                .filter(|&j| next_done[j].is_finite())
                .map(|j| Pending { t: next_done[j], queue: j as u32 }),
        );
        *heap = BinaryHeap::from(pending);

        done.clear();
        let (mut dropped, mut shed) = (0u64, 0u64);
        let mut k = 0;
        let mut next = next_job(feed, *clock, 0, t_end, max_arrivals);
        loop {
            // A completion goes ahead of a job due at the same instant; one
            // due at `t_end` is left to the next interval.
            let completion =
                heap.peek().copied().filter(|c| c.t < t_end && next.is_none_or(|(t, _)| c.t <= t));
            if let Some(Pending { t, queue }) = completion {
                heap.pop();
                let j = queue as usize;
                let (arrived_at, _) =
                    queues[j].pop_front().expect("a completion implies a job in service");
                lengths[j] -= 1;
                *in_system -= 1;
                done.push(Done { t, queue, sojourn: t - arrived_at });
                next_done[j] = f64::INFINITY;
                let rate = self.rate(mult, j);
                if let Some(&(_, size)) = queues[j].front() {
                    if rate > 0.0 {
                        schedule(heap, next_done, j, t + size / rate);
                    }
                }
            } else if let Some((t, size)) = next {
                feed.advance();
                if *in_system >= cap {
                    shed += 1;
                } else {
                    let j = self.pick(rule, epoch_base, k, snapshot, sampled, tuple);
                    counts[j] += 1;
                    if lengths[j] >= buffer {
                        dropped += 1;
                    } else {
                        let rate = self.rate(mult, j);
                        if next_done[j] == f64::INFINITY && rate > 0.0 {
                            schedule(heap, next_done, j, t + size / rate);
                        }
                        queues[j].push_back((t, size));
                        lengths[j] += 1;
                        *in_system += 1;
                    }
                }
                k += 1;
                next = next_job(feed, t, k, t_end, max_arrivals);
            } else {
                break;
            }
        }
        // A job starting a zero-length service after other queues'
        // completions at the same instant popped puts its completion out
        // of (time, queue) order; the sort restores it.
        (k, dropped, shed, sojourns_in_order(done, order))
    }
}

/// Job `k` of the interval as `(time, size)`, if the feed has one before
/// `t_end` and the interval admits more than `k` arrivals.
fn next_job(
    feed: &mut dyn ArrivalFeed,
    prev: f64,
    k: u64,
    t_end: f64,
    max_arrivals: u64,
) -> Option<(f64, f64)> {
    if k >= max_arrivals {
        return None;
    }
    feed.peek(prev, k).filter(|&(t, _)| t < t_end)
}

/// Completes the in-service job of `queue` (queue `j`), due at `*due`,
/// recording it in `done`, and starts the next one (if any, and if the
/// queue serves).
#[inline(always)]
fn complete(
    queue: &mut VecDeque<(f64, f64)>,
    done: &mut Vec<Done>,
    j: u32,
    due: &mut f64,
    rate: f64,
) {
    let (arrived_at, _) = queue.pop_front().expect("a pending completion implies a job in service");
    done.push(Done { t: *due, queue: j, sojourn: *due - arrived_at });
    *due = match queue.front() {
        Some(&(_, size)) if rate > 0.0 => *due + size / rate,
        _ => f64::INFINITY,
    };
}

/// Makes `t` queue `j`'s pending completion on the capped path's heap.
fn schedule(heap: &mut BinaryHeap<Pending>, next_done: &mut [f64], j: usize, t: f64) {
    assert!(t.is_finite(), "event times must be finite, got {t}");
    next_done[j] = t;
    heap.push(Pending { t, queue: j as u32 });
}

/// The sojourns of `done` sorted by (completion time, queue), the
/// completions of one queue at one instant kept in their order in `done`
/// (service order).
fn sojourns_in_order(done: &[Done], order: &mut Vec<(f64, u32)>) -> Vec<f64> {
    order.clear();
    order.extend(done.iter().enumerate().map(|(i, d)| (d.t, i as u32)));
    order.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| done[a.1 as usize].queue.cmp(&done[b.1 as usize].queue))
            .then(a.1.cmp(&b.1))
    });
    order.iter().map(|&(_, i)| done[i as usize].sojourn).collect()
}

impl Engine for EventEngine {
    type State = EventState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> EventState {
        let lengths = sample_initial_queues(&self.config, rng);
        let m = lengths.len();
        let mut next_done = vec![f64::INFINITY; m];
        let queues: Vec<VecDeque<(f64, f64)>> = lengths
            .iter()
            .enumerate()
            .map(|(j, &n)| {
                let mut q = VecDeque::with_capacity(n.max(4));
                for i in 0..n {
                    let size = self.job_size.sample(rng);
                    if i == 0 {
                        next_done[j] = size / self.config.service_rate;
                    }
                    q.push_back((0.0, size));
                }
                q
            })
            .collect();
        let preloaded: u64 = lengths.iter().map(|&l| l as u64).sum();
        EventState {
            queues,
            snapshot: lengths.clone(),
            lengths,
            next_done,
            in_system: preloaded,
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
            scratch: Box::default(),
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

    /// A replayed `(time, size)` list as an interval feed.
    struct Replay<'a> {
        jobs: &'a [(f64, f64)],
        next: usize,
    }

    impl ArrivalFeed for Replay<'_> {
        fn peek(&mut self, _prev_time: f64, _k: u64) -> Option<(f64, f64)> {
            self.jobs.get(self.next).copied()
        }

        fn advance(&mut self) {
            self.next += 1;
        }
    }

    #[test]
    fn a_completion_due_at_the_refresh_counts_in_the_next_interval() {
        // One queue, Δt = 1: the job of interval 0 finishes at exactly
        // 2.0, the end of interval 1, so both paths count it in interval 2.
        let cfg = SystemConfig::paper().with_size(4, 1).with_buffer(2).with_dt(1.0);
        let e = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let rule = rnd_rule(3, 2);
        for cap in [None, Some(u64::MAX)] {
            let mut state = e.init_state(&mut run_rng(3, 1));
            assert_eq!(state.jobs_in_system(), 0);
            let mut feed = Replay { jobs: &[(0.5, 1.5)], next: 0 };
            let completed: Vec<u64> = (0..3)
                .map(|i| {
                    e.begin_interval(&mut state, i);
                    let t_end = state.clock() + 1.0;
                    e.run_interval(&mut state, &rule, i, t_end, &mut feed, u64::MAX, cap).completed
                })
                .collect();
            assert_eq!(completed, [0, 0, 1], "cap {cap:?}");
        }
    }

    /// Runs `jobs` through `intervals` sync intervals with no cap, with a
    /// cap that never binds and with `cap`, asserts that the first two
    /// agree, and returns FNV digests of every interval's sojourn bits in
    /// report order and its drop, completion and shed counts: without a
    /// cap and under `cap`.
    fn tie_digests(cfg: SystemConfig, jobs: &[(f64, f64)], intervals: u64, cap: u64) -> (u64, u64) {
        let dt = cfg.dt;
        let rule = rnd_rule(cfg.buffer + 1, 2);
        let e = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let init = e.init_state(&mut run_rng(3, 1));
        let mut states = [init.clone(), init.clone(), init];
        let mut feeds = [0, 1, 2].map(|_| Replay { jobs, next: 0 });
        let caps = [None, Some(u64::MAX), Some(cap)];
        let mut digests = [0xcbf2_9ce4_8422_2325u64; 3];
        for interval in 0..intervals {
            let base = interval.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let t_end = states[0].clock() + dt;
            for p in 0..3 {
                let state = &mut states[p];
                e.begin_interval(state, base);
                let s = e.run_interval(state, &rule, base, t_end, &mut feeds[p], u64::MAX, caps[p]);
                let counts = [s.dropped, s.completed, state.jobs_shed()];
                for v in s.sojourns.iter().map(|v| v.to_bits()).chain(counts) {
                    digests[p] = (digests[p] ^ v).wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(digests[0], digests[1], "interval {interval}");
        }
        (digests[0], digests[2])
    }

    /// Up to `most` jobs at each of `instants` grid points `step` apart,
    /// with sizes drawn from `sizes`.
    fn grid_trace(instants: u32, step: f64, most: u32, sizes: &[f64]) -> Vec<(f64, f64)> {
        let mut rng = run_rng(3, 0);
        let mut jobs = Vec::new();
        for i in 0..instants {
            for _ in 0..rng.gen_range(0..most + 1) {
                jobs.push((i as f64 * step, sizes[rng.gen_range(0..sizes.len())]));
            }
        }
        jobs
    }

    #[test]
    fn both_interval_paths_pop_exact_ties_in_heap_order() {
        // Traces on time grids put completions, arrivals and sync
        // boundaries on the same instants, with sojourns whose order
        // moves float sums and buffers small enough that tie order
        // decides drops. The sizes of 1e-300 finish service on the
        // instant it starts. Both paths follow the order of the capped
        // path's `(time, queue)` completion heap, completions ahead of
        // arrivals (see the module docs). The digests were re-pinned
        // when that rule replaced the emulated `(time, seq)` schedule
        // order; the serve-level pins of `tests/interval_paths.rs`, which
        // recorded the `(time, seq)` engine, still hold.
        let paper = SystemConfig::paper();
        let cases = [
            (
                "integer instants",
                paper.clone().with_size(36, 6).with_buffer(3).with_dt(1.0),
                grid_trace(2000, 1.0, 5, &[1.0, 0.5, 0.731_820_431_7, 1.294_387_192_5, 2.0]),
                2000,
                8,
                (0x1538_334b_ee18_8f69, 0xdd82_e9c3_5ead_8bb3),
            ),
            (
                "quarter grid",
                paper.clone().with_size(16, 4).with_buffer(3).with_dt(1.0),
                grid_trace(8000, 0.25, 3, &[0.25, 0.5, 0.75, 1.25, 1e-300]),
                2000,
                6,
                (0x204c_63b1_294b_2e27, 0x6989_8e18_b359_4ec5),
            ),
            (
                "one job or none per instant",
                paper.clone().with_size(4, 2).with_buffer(2).with_dt(1.0),
                grid_trace(8000, 0.25, 1, &[0.25, 0.5, 0.75, 1.0]),
                2000,
                3,
                (0x6c94_7da5_4525_98eb, 0x1bbb_877b_c269_93a4),
            ),
            (
                "overloaded eighth grid",
                paper.with_size(4, 2).with_buffer(16).with_dt(16.0),
                grid_trace(5120, 0.125, 5, &[0.125]),
                40,
                20,
                (0xbda7_de07_0e87_a9fd, 0xacde_7029_edde_a352),
            ),
        ];
        for (what, cfg, jobs, intervals, cap, pinned) in cases {
            let digests = tie_digests(cfg, &jobs, intervals, cap);
            assert_eq!(digests, pinned, "{what}: {:#x}, {:#x}", digests.0, digests.1);
        }
    }
}
