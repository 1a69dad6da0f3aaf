//! Timing decorators for the public traits the benchmark traces from
//! outside the program: [`mflb_rl::Env`], [`mflb_sim::Engine`] and
//! [`UpperPolicy`]. Each forwards every trait method to the wrapped value
//! unchanged (so results stay bit-identical) and adds the wall time of the
//! timed methods into shared atomic counters, summed over worker threads.

use mflb_core::mdp::{ObservationBatch, UpperPolicy};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use mflb_rl::{Env, StepResult};
use mflb_sim::{Engine, EpochStats};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Time, call and row totals of one traced layer. Statistics only: the
/// counters publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Counter {
    ns: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
}

impl Counter {
    /// Runs `f`, adding its wall time, one call and `rows` work items.
    pub fn time<T>(&self, rows: u64, f: impl FnOnce() -> T) -> T {
        let (out, ns) = timed(f);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        out
    }

    /// Total nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Total calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total work items (observation rows for a policy).
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// An [`Env`] whose `step` is timed into a shared counter; its
/// `boxed_clone`s (one per rollout worker) share the counter.
pub struct TimedEnv {
    inner: Box<dyn Env>,
    step: Arc<Counter>,
}

impl TimedEnv {
    /// Wraps `inner`, timing `step` into `step`.
    pub fn new(inner: Box<dyn Env>, step: Arc<Counter>) -> Self {
        Self { inner, step }
    }
}

impl Env for TimedEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn act_dim(&self) -> usize {
        self.inner.act_dim()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.inner.reset(rng)
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> StepResult {
        let inner = &mut self.inner;
        self.step.time(1, || inner.step(action, rng))
    }

    fn boxed_clone(&self) -> Box<dyn Env> {
        Box::new(TimedEnv { inner: self.inner.boxed_clone(), step: Arc::clone(&self.step) })
    }

    fn horizon_hint(&self) -> Option<usize> {
        self.inner.horizon_hint()
    }
}

/// An [`Engine`] whose `step` and `empirical` (the observation) are timed.
pub struct TimedEngine<'a, E: Engine> {
    inner: &'a E,
    step: &'a Counter,
    observe: &'a Counter,
}

impl<'a, E: Engine> TimedEngine<'a, E> {
    /// Wraps `inner`, timing `step` and `empirical` into the two counters.
    pub fn new(inner: &'a E, step: &'a Counter, observe: &'a Counter) -> Self {
        Self { inner, step, observe }
    }
}

impl<E: Engine> Engine for TimedEngine<'_, E> {
    type State = E::State;

    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn init_state(&self, rng: &mut StdRng) -> E::State {
        self.inner.init_state(rng)
    }

    fn empirical(&self, state: &E::State) -> StateDist {
        self.observe.time(1, || self.inner.empirical(state))
    }

    fn step(
        &self,
        state: &mut E::State,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        self.step.time(1, || self.inner.step(state, rule, lambda, rng))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An [`UpperPolicy`] whose `decide` and `decide_batch` are timed; the
/// counter's rows are the observations decided.
pub struct TimedPolicy<'a> {
    inner: &'a (dyn UpperPolicy + Sync),
    decide: &'a Counter,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`, timing its decisions into `decide`.
    pub fn new(inner: &'a (dyn UpperPolicy + Sync), decide: &'a Counter) -> Self {
        Self { inner, decide }
    }
}

impl UpperPolicy for TimedPolicy<'_> {
    fn decide(&self, dist: &StateDist, lambda_idx: usize, lambda: f64) -> DecisionRule {
        self.decide.time(1, || self.inner.decide(dist, lambda_idx, lambda))
    }

    fn decide_batch(&self, batch: &ObservationBatch, out: &mut [DecisionRule]) {
        self.decide.time(batch.len() as u64, || self.inner.decide_batch(batch, out))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Runs `f` and returns its result with its wall time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}
