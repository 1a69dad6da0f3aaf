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
//! in three steps, with no event heap unless two of its events are due
//! at the same instant (see below):
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
//! at a time and merges them with a completion-only [`Timeline`] heap in
//! global time order, routing only the jobs it admits.
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
//! Both interval paths process each queue's events in the order of one
//! `(time, seq)` heap holding every arrival, completion and refresh,
//! where `seq` is the order in which events are scheduled: the refresh
//! and then job 0 as the interval opens, job `k` as job `k − 1` is
//! processed, a completion as its service starts. At an exact time tie —
//! trace timestamps make them real — the event scheduled first goes
//! first, so a completion at exactly `clock + Δt` belongs to the interval
//! only if it was scheduled before the interval opened. Sojourns are
//! reported in that same order. The two paths therefore agree bit for
//! bit, and the regression suite pins episodes and serve runs of this
//! engine bit-exactly.
//!
//! On the queue-by-queue path a tie within one queue, between a pending
//! completion and a job, is settled by how many of the interval's jobs
//! popped before the event that scheduled the completion, a count worked
//! out at most once per completion. If any completion of an interval
//! shares its instant with another event, the interval's pop order is
//! found by replaying its events on a heap, each event scheduling the
//! completion it started as it pops.

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

/// One scheduled entry of a [`Timeline`].
#[derive(Debug, Clone)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reversing `(time, seq)` makes
        // `pop` yield the earliest event, ties broken by schedule order.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
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
        let seq = self.reserve();
        self.heap.push(Scheduled { time, seq, payload });
        seq
    }

    /// Takes the next sequence number without scheduling anything, so an
    /// event kept off the heap still holds its place in the tie order.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The earliest `(time, seq)`, left on the heap.
    pub fn peek(&self) -> Option<(f64, u64)> {
        self.heap.peek().map(|s| (s.time, s.seq))
    }

    /// Removes and returns the earliest `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.heap.pop().map(|s| (s.time, s.seq, s.payload))
    }

    /// The sequence number the next scheduled event will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Replaces the scheduled events with `events`, given as `(time,
    /// seq, payload)` with every `seq` below `next_seq`, and numbers the
    /// events scheduled later from `next_seq` on. Builds the heap in
    /// linear time.
    pub(crate) fn refill(&mut self, next_seq: u64, events: impl Iterator<Item = (f64, u64, T)>) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        entries.extend(events.map(|(time, seq, payload)| Scheduled { time, seq, payload }));
        self.heap = BinaryHeap::from(entries);
        self.next_seq = next_seq;
    }

    /// Removes every scheduled event, in no particular order, as `(time,
    /// seq, payload)`.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (f64, u64, T)> + '_ {
        self.heap.drain().map(|s| (s.time, s.seq, s.payload))
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

/// What scheduled a pending completion. Its place in the pop order
/// breaks ties against events due at the same instant.
#[derive(Debug, Clone, Copy)]
enum Cause {
    /// Scheduled before the interval opened, with this schedule rank.
    Earlier(u64),
    /// Service started as the interval's job `k` arrived.
    Arrival(u32),
    /// Service started as the interval's completion `i` finished.
    Completion(u32),
}

/// `Done::jobs_before` before it is first needed.
const UNKNOWN: u32 = u32::MAX;

/// A service completion of the current interval.
#[derive(Debug, Clone, Copy)]
struct Done {
    t: f64,
    sojourn: f64,
    cause: Cause,
    /// How many of the interval's jobs pop before this completion;
    /// worked out only at an exact tie (see `jobs_before`).
    jobs_before: u32,
}

/// An event of the current interval: a job by its arrival index, or a
/// completion by its index in the interval's completion record.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(u32),
    Completion(u32),
}

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
    /// The interval's completions, queue by queue.
    done: Vec<Done>,
    /// Completions whose `jobs_before` waits on an earlier one's.
    chain: Vec<u32>,
    /// The completions in pop order, as `(time, index into done)`.
    order: Vec<(f64, u32)>,
    /// Pop position of each job and of each completion in the interval.
    job_pos: Vec<u32>,
    done_pos: Vec<u32>,
    /// Queues whose pending completion was scheduled this interval.
    fresh: Vec<(u32, Cause)>,
    /// By job, then by completion: the completion whose service that
    /// event started this interval, or `UNKNOWN` (intervals with ties).
    started: Vec<u32>,
    /// The interval's events replayed on a heap (intervals with ties).
    replay: Timeline<Ev>,
    /// Pending completions of an admission-capped interval.
    timeline: Timeline<usize>,
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
    /// Schedule rank of each pending completion: completions due at the
    /// same instant pop in this order.
    done_seq: Vec<u64>,
    /// The next unused schedule rank.
    next_seq: u64,
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
                state.done_seq[j] = state.next_seq;
                state.next_seq += 1;
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
    /// count and the interval's sojourns in pop order.
    fn advance_queues(&self, state: &mut EventState, t_end: f64) -> (u64, Vec<f64>) {
        let m = self.config.num_queues;
        let buffer = self.config.buffer;
        let EventState {
            queues,
            lengths,
            next_done,
            done_seq,
            next_seq,
            in_system,
            counts,
            mult,
            scratch,
            ..
        } = state;
        let Scratch {
            jobs,
            by_queue,
            starts,
            active,
            done,
            chain,
            order,
            job_pos,
            done_pos,
            fresh,
            started,
            replay,
            ..
        } = &mut **scratch;

        // Step 2: a stable counting sort of the jobs by queue over the
        // dispatch counts. `starts[j + 1]` first holds where queue j's
        // group begins and is advanced past each job placed, ending where
        // the group ends. A queue is active if it has jobs or a completion
        // due by `t_end`.
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
            n_active += ((counts[j] > 0) | (next_done[j] <= t_end)) as usize;
        }
        by_queue.clear();
        by_queue.resize(jobs.len(), 0);
        for (k, job) in jobs.iter().enumerate() {
            let slot = &mut starts[job.queue as usize + 1];
            by_queue[*slot as usize] = k as u32;
            *slot += 1;
        }

        // Step 3: each active queue on its own. A pending completion goes
        // ahead of a job due at the same instant only if it was scheduled
        // first, and ahead of the refresh only if it was scheduled before
        // the interval opened.
        // Every index and pop position of the interval's events must fit
        // below `UNKNOWN`; a completion's job arrived earlier or now.
        assert!(
            2 * jobs.len() as u64 + *in_system < UNKNOWN as u64,
            "too many events in one interval"
        );
        done.clear();
        fresh.clear();
        let mut dropped = 0u64;
        for &j in &active[..n_active] {
            let j = j as usize;
            let rate = self.rate(mult, j);
            let queue = &mut queues[j];
            let mut due = next_done[j];
            let mut cause = Cause::Earlier(done_seq[j]);
            for &k in &by_queue[starts[j] as usize..starts[j + 1] as usize] {
                let job = jobs[k as usize];
                while due <= job.t && (due < job.t || completes_first(jobs, done, chain, cause, k))
                {
                    complete(queue, done, &mut due, &mut cause, rate);
                }
                if queue.len() >= buffer {
                    dropped += 1;
                    continue;
                }
                if due == f64::INFINITY && rate > 0.0 {
                    due = job.t + job.size / rate;
                    cause = Cause::Arrival(k);
                }
                queue.push_back((job.t, job.size));
            }
            while due <= t_end && (due < t_end || matches!(cause, Cause::Earlier(_))) {
                complete(queue, done, &mut due, &mut cause, rate);
            }
            *in_system = *in_system - lengths[j] as u64 + queue.len() as u64;
            lengths[j] = queue.len();
            next_done[j] = due;
            if due.is_finite() && !matches!(cause, Cause::Earlier(_)) {
                fresh.push((j as u32, cause));
            }
        }

        // Every event's pop position: from the times alone, unless two
        // events are due at the same instant. A completion scheduled this
        // interval takes its schedule rank from the position of the event
        // that scheduled it.
        order.clear();
        order.extend(done.iter().enumerate().map(|(i, d)| (d.t, i as u32)));
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        job_pos.clear();
        job_pos.resize(jobs.len(), 0);
        done_pos.clear();
        done_pos.resize(done.len(), 0);
        if !merge_by_time(jobs, order, job_pos, done_pos) {
            replay_ties(jobs, done, order, job_pos, done_pos, started, replay);
        }
        let base = *next_seq;
        for &(j, cause) in fresh.iter() {
            let p = match cause {
                Cause::Arrival(k) => job_pos[k as usize],
                Cause::Completion(i) => done_pos[i as usize],
                Cause::Earlier(_) => {
                    unreachable!("fresh completions are scheduled in the interval")
                }
            };
            done_seq[j as usize] = base + p as u64;
        }
        *next_seq = base + (jobs.len() + done.len()) as u64;
        let sojourns = order.iter().map(|&(_, i)| done[i as usize].sojourn).collect();
        (dropped, sojourns)
    }

    /// An admission-capped interval: shedding reads the system-wide
    /// in-system count at each arrival, so the jobs are pulled from the
    /// feed one at a time and merged in pop order with a heap of the
    /// pending completions; a shed job is not routed. Returns the arrival,
    /// drop and shed counts and the sojourns in pop order.
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
            done_seq,
            next_seq,
            in_system,
            clock,
            counts,
            sampled,
            tuple,
            mult,
            scratch,
            ..
        } = state;
        let timeline = &mut scratch.timeline;

        // The pending completions keep their schedule ranks; the refresh
        // and then job 0 are scheduled as the interval opens, each holding
        // its place in the tie order without entering the heap.
        counts.iter_mut().for_each(|c| *c = 0);
        timeline.refill(
            *next_seq,
            (0..m).filter(|&j| next_done[j].is_finite()).map(|j| (next_done[j], done_seq[j], j)),
        );
        let refresh = (t_end, timeline.reserve());
        let mut job_seq = timeline.reserve();
        let pops_before =
            |a: (f64, u64), b: (f64, u64)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt();

        let (mut dropped, mut shed) = (0u64, 0u64);
        let mut sojourns = Vec::new();
        let mut k = 0;
        let mut next = next_job(feed, *clock, 0, t_end, max_arrivals);
        loop {
            let completion_first = timeline.peek().is_some_and(|top| {
                pops_before(top, refresh)
                    && next.is_none_or(|(t, _)| pops_before(top, (t, job_seq)))
            });
            if completion_first {
                let (t, _, j) = timeline.pop().expect("peeked");
                let (arrived_at, _) =
                    queues[j].pop_front().expect("a completion implies a job in service");
                lengths[j] -= 1;
                *in_system -= 1;
                sojourns.push(t - arrived_at);
                next_done[j] = f64::INFINITY;
                let rate = self.rate(mult, j);
                if let Some(&(_, size)) = queues[j].front() {
                    if rate > 0.0 {
                        next_done[j] = t + size / rate;
                        timeline.schedule(next_done[j], j);
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
                            next_done[j] = t + size / rate;
                            timeline.schedule(next_done[j], j);
                        }
                        queues[j].push_back((t, size));
                        lengths[j] += 1;
                        *in_system += 1;
                    }
                }
                // The next job is scheduled as this one is processed.
                k += 1;
                job_seq = timeline.reserve();
                next = next_job(feed, t, k, t_end, max_arrivals);
            } else {
                break;
            }
        }

        // What is left pending carries its schedule rank over.
        *next_seq = timeline.next_seq();
        for (_, seq, j) in timeline.drain() {
            done_seq[j] = seq;
        }
        (k, dropped, shed, sojourns)
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

/// Completes the in-service job of `queue`, due at `*due`, recording it
/// in `done`, and starts the next one (if any, and if the queue serves).
#[inline(always)]
fn complete(
    queue: &mut VecDeque<(f64, f64)>,
    done: &mut Vec<Done>,
    due: &mut f64,
    cause: &mut Cause,
    rate: f64,
) {
    let (arrived_at, _) = queue.pop_front().expect("a pending completion implies a job in service");
    done.push(Done { t: *due, sojourn: *due - arrived_at, cause: *cause, jobs_before: UNKNOWN });
    *cause = Cause::Completion(done.len() as u32 - 1);
    *due = match queue.front() {
        Some(&(_, size)) if rate > 0.0 => *due + size / rate,
        _ => f64::INFINITY,
    };
}

/// Whether a completion scheduled by `cause` pops before job `k`, both
/// being due at the same instant, in the same queue: whether it was
/// scheduled first. Job `k` is scheduled as job `k − 1` pops, after any
/// completion that job starts; so a completion scheduled before the
/// interval or by an earlier job of the queue goes first, and one
/// scheduled by completion `i` goes first if `i` popped before job `k − 1`.
fn completes_first(
    jobs: &[Routed],
    done: &mut [Done],
    chain: &mut Vec<u32>,
    cause: Cause,
    k: u32,
) -> bool {
    match cause {
        Cause::Earlier(_) | Cause::Arrival(_) => true,
        Cause::Completion(i) => jobs_before(jobs, done, chain, i) < k,
    }
}

/// How many of the interval's jobs pop before completion `i`, memoised
/// in `done`. Jobs due before it pop first and jobs due after it pop
/// later. Of the jobs due at its instant, job `j` pops first if it was
/// scheduled first: job `0` as the interval opened, job `j` as job
/// `j − 1` popped; the completion when the event that started its
/// service popped — before the interval, job `k`, or completion `p`.
/// That is if `j` is below 0, `k + 1` or `p`'s own count plus one, so
/// the counts of a chain of completions are found oldest first.
fn jobs_before(jobs: &[Routed], done: &mut [Done], chain: &mut Vec<u32>, i: u32) -> u32 {
    let mut x = i;
    while done[x as usize].jobs_before == UNKNOWN {
        chain.push(x);
        match done[x as usize].cause {
            Cause::Completion(p) => x = p,
            _ => break,
        }
    }
    while let Some(x) = chain.pop() {
        let d = done[x as usize];
        let scheduled_after = match d.cause {
            Cause::Earlier(_) => 0,
            Cause::Arrival(k) => k + 1,
            Cause::Completion(p) => done[p as usize].jobs_before + 1,
        };
        let due_before = jobs.partition_point(|job| job.t < d.t);
        let due_by = due_before + jobs[due_before..].partition_point(|job| job.t == d.t);
        done[x as usize].jobs_before = scheduled_after.clamp(due_before as u32, due_by as u32);
    }
    done[i as usize].jobs_before
}

/// Gives every event of the interval its pop position by merging the
/// jobs with the completions sorted by time. Returns `false`, leaving the
/// positions unfinished, if a completion is due at the same instant as
/// another completion or a job: their order then depends on when each was
/// scheduled.
fn merge_by_time(
    jobs: &[Routed],
    order: &[(f64, u32)],
    job_pos: &mut [u32],
    done_pos: &mut [u32],
) -> bool {
    if order.windows(2).any(|w| w[0].0 == w[1].0) {
        return false;
    }
    // Each step writes the current position to both heads; the head that
    // does not move is written again on a later step.
    let (mut k, mut c) = (0, 0);
    while k < jobs.len() && c < order.len() {
        let (t, i) = order[c];
        if jobs[k].t == t {
            return false;
        }
        job_pos[k] = (k + c) as u32;
        done_pos[i as usize] = (k + c) as u32;
        let job_first = jobs[k].t < t;
        k += job_first as usize;
        c += !job_first as usize;
    }
    for (k, p) in job_pos.iter_mut().enumerate().skip(k) {
        *p = (k + c) as u32;
    }
    for (c, &(_, i)) in order.iter().enumerate().skip(c) {
        done_pos[i as usize] = (k + c) as u32;
    }
    true
}

/// The pop positions of an interval with exact time ties, and its
/// completions in pop order: the interval's events are replayed on a
/// `(time, seq)` heap, each scheduling as it pops the completion it
/// started and, for a job, the next job, as the one heap holding every
/// event of the interval did. The completions scheduled before the
/// interval enter first, in their schedule order.
fn replay_ties(
    jobs: &[Routed],
    done: &[Done],
    order: &mut Vec<(f64, u32)>,
    job_pos: &mut [u32],
    done_pos: &mut [u32],
    started: &mut Vec<u32>,
    heap: &mut Timeline<Ev>,
) {
    let n = jobs.len();
    started.clear();
    started.resize(n + done.len(), UNKNOWN);
    heap.clear();
    order.clear();
    for (i, d) in done.iter().enumerate() {
        match d.cause {
            Cause::Earlier(_) => order.push((d.t, i as u32)),
            Cause::Arrival(k) => started[k as usize] = i as u32,
            Cause::Completion(p) => started[n + p as usize] = i as u32,
        }
    }
    order.sort_unstable_by_key(|&(_, i)| match done[i as usize].cause {
        Cause::Earlier(seq) => seq,
        _ => unreachable!("only earlier completions are listed"),
    });
    for &(_, i) in order.iter() {
        heap.schedule(done[i as usize].t, Ev::Completion(i));
    }
    if let Some(first) = jobs.first() {
        heap.schedule(first.t, Ev::Arrival(0));
    }
    order.clear();
    let mut pos = 0;
    while let Some((t, _, ev)) = heap.pop() {
        let event = match ev {
            Ev::Arrival(k) => {
                job_pos[k as usize] = pos;
                k as usize
            }
            Ev::Completion(i) => {
                done_pos[i as usize] = pos;
                order.push((t, i));
                n + i as usize
            }
        };
        pos += 1;
        let i = started[event];
        if i != UNKNOWN {
            heap.schedule(done[i as usize].t, Ev::Completion(i));
        }
        if let Ev::Arrival(k) = ev {
            if let Some(job) = jobs.get(k as usize + 1) {
                heap.schedule(job.t, Ev::Arrival(k + 1));
            }
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
        let m = lengths.len();
        let mut next_done = vec![f64::INFINITY; m];
        let mut done_seq = vec![0; m];
        let mut next_seq = 0;
        let queues: Vec<VecDeque<(f64, f64)>> = lengths
            .iter()
            .enumerate()
            .map(|(j, &n)| {
                let mut q = VecDeque::with_capacity(n.max(4));
                for i in 0..n {
                    let size = self.job_size.sample(rng);
                    if i == 0 {
                        next_done[j] = size / self.config.service_rate;
                        done_seq[j] = next_seq;
                        next_seq += 1;
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
            done_seq,
            next_seq,
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
    fn jobs_before_counts_the_jobs_scheduled_ahead_of_a_tied_completion() {
        // Jobs at 0, 1, 1 and 2; completions due at 1 scheduled before
        // the interval, by job 1 and by that completion (both of zero
        // duration), and one due at 2 started by the first. Job 2 is
        // scheduled as job 1 pops: after job 1's completion, before the
        // completion that one starts. Job 3 is scheduled as job 2 pops,
        // after the first completion.
        let jobs = [0.0, 1.0, 1.0, 2.0].map(|t| Routed { t, size: 1.0, queue: 0 });
        let mut done = [
            (1.0, Cause::Earlier(0)),
            (1.0, Cause::Arrival(1)),
            (1.0, Cause::Completion(1)),
            (2.0, Cause::Completion(0)),
        ]
        .map(|(t, cause)| Done { t, sojourn: 1.0, cause, jobs_before: UNKNOWN });
        let mut chain = Vec::new();
        let counts: Vec<u32> =
            (0..4).map(|i| jobs_before(&jobs, &mut done, &mut chain, i)).collect();
        assert_eq!(counts, [1, 2, 3, 3]);
    }

    /// Runs `jobs` through `intervals` sync intervals with no cap, with a
    /// cap that never binds and with `cap`, asserts that the first two
    /// agree, and returns FNV digests of every interval's sojourn bits in
    /// pop order and its drop, completion and shed counts: without a cap
    /// and under `cap`.
    fn heap_order_digests(
        cfg: SystemConfig,
        jobs: &[(f64, f64)],
        intervals: u64,
        cap: u64,
    ) -> (u64, u64) {
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
        // instant it starts. The digests are those of the engine that
        // kept every arrival, completion and refresh on one `(time, seq)`
        // heap.
        let paper = SystemConfig::paper();
        let cases = [
            (
                "integer instants",
                paper.clone().with_size(36, 6).with_buffer(3).with_dt(1.0),
                grid_trace(2000, 1.0, 5, &[1.0, 0.5, 0.731_820_431_7, 1.294_387_192_5, 2.0]),
                2000,
                8,
                (0x88a1_1432_eab2_5115, 0xd352_f1b9_c5cf_088f),
            ),
            (
                "quarter grid",
                paper.clone().with_size(16, 4).with_buffer(3).with_dt(1.0),
                grid_trace(8000, 0.25, 3, &[0.25, 0.5, 0.75, 1.25, 1e-300]),
                2000,
                6,
                (0x8978_b973_45a4_a99f, 0x8e70_e9e3_517e_1a23),
            ),
            (
                "one job or none per instant",
                paper.clone().with_size(4, 2).with_buffer(2).with_dt(1.0),
                grid_trace(8000, 0.25, 1, &[0.25, 0.5, 0.75, 1.0]),
                2000,
                3,
                (0xdcdc_7da5_4525_98eb, 0x09d3_877b_c269_93a4),
            ),
            (
                "overloaded eighth grid",
                paper.with_size(4, 2).with_buffer(16).with_dt(16.0),
                grid_trace(5120, 0.125, 5, &[0.125]),
                40,
                20,
                (0x3b67_de07_0e87_a9fd, 0x1e6e_7029_edde_a352),
            ),
        ];
        for (what, cfg, jobs, intervals, cap, heap) in cases {
            let digests = heap_order_digests(cfg, &jobs, intervals, cap);
            assert_eq!(digests, heap, "{what}: {:#x}, {:#x}", digests.0, digests.1);
        }
    }
}
