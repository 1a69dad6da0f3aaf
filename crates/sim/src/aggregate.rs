//! The exact aggregated finite-system engine: `O(M)` per epoch instead of
//! `O(N·d)`, following the *same probability law* as the per-client engine,
//! for every per-queue [`Service`] model.
//!
//! ### Exactness argument
//! Conditional on the epoch-start queue states and the decision rule, the
//! clients' (sampled queues, action) tuples are i.i.d. (Eq. 3–4). A single
//! client assigns its traffic to one specific queue `j` with probability
//! depending only on the *observed state* `z_j` of that queue:
//!
//! ```text
//! q_z = (1/M) · Σ_u Σ_{z̄ : z̄_u = z} h(u | z̄) · Π_{k≠u} H(z̄_k)
//! ```
//!
//! where `H` is the empirical observed-state distribution. (This is exactly
//! `per_state_arrival_rates(H, h, 1)/M` from `mflb-core` — the same integral
//! as the mean-field arrival rate, evaluated at the empirical measure.)
//! Therefore the client-count vector over queues is
//! `Multinomial(N, (q_{z_1}, …, q_{z_M}))`, which we sample hierarchically:
//!
//! 1. counts per *state group* `C_z ∼ Multinomial(N, (m_z·q_z)_z)` —
//!    `|Z|` categories,
//! 2. within a group, clients split uniformly over its `m_z` queues
//!    (exchangeability) — conditional binomials, `O(M)` total.
//!
//! Nothing in the argument needs the observed state to be a length: it
//! holds word for word over the composite `(length, rate class)` states of
//! a heterogeneous pool ([`RateClasses`], indices `c·(B+1) + z`), where the
//! groups are the composite states. Phase-type service ([`PhaseType`])
//! keeps the phase private to the queue, so clients observe lengths only.
//!
//! Both levels use the exact samplers from `mflb-queue`, so the resulting
//! per-queue counts have *identical* distribution to the per-client engine
//! for any `N` — including the paper's `N = M² = 10^6` (Fig. 4–5) and the
//! `N ⋡ M` ablation (Fig. 6). The unit tests check the agreement with a
//! chi-square test for lengths and for composite states.

use crate::episode::{
    birth_death_queue_epoch, length_epoch_stats, sample_initial_queues, Engine, EpochStats,
};
use mflb_core::meanfield::per_state_arrival_rates;
use mflb_core::service::{composite_index, ServiceModel};
pub use mflb_core::service::{Exponential, RateClasses};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use mflb_queue::sampler::Sampler;
use mflb_queue::{PhQueueState, PhaseType};
use rand::rngs::StdRng;
use std::fmt::Debug;

/// Samples the per-queue client counts for one epoch by the hierarchical
/// multinomial decomposition described in the module docs. `observed`
/// holds each queue's epoch-start observed state, an index below
/// `num_observed` (queue lengths with `num_observed = B + 1` for the
/// length-observing engines); the result assigns all `num_clients`
/// clients.
pub fn sample_client_assignments(
    num_clients: u64,
    num_observed: usize,
    observed: &[usize],
    rule: &DecisionRule,
    rng: &mut StdRng,
) -> Vec<u64> {
    let mut counts = vec![0u64; observed.len()];
    sample_client_assignments_into(num_clients, num_observed, observed, rule, rng, &mut counts);
    counts
}

/// Buffer-reusing core of [`sample_client_assignments`]: writes the counts
/// into `counts` (which must have one slot per queue) instead of
/// allocating. Shared by every [`AggregateEngine`], the job-level FIFO
/// engine and the full-mesh graph engine. The `O(|Z|)` group-level
/// temporaries are negligible next to the `O(M)` count vector and are
/// kept local.
pub fn sample_client_assignments_into(
    num_clients: u64,
    num_observed: usize,
    observed: &[usize],
    rule: &DecisionRule,
    rng: &mut StdRng,
    counts: &mut [u64],
) {
    let m = observed.len();
    debug_assert_eq!(counts.len(), m);

    // Per-state group sizes and the empirical observed-state distribution.
    let mut group_size = vec![0u64; num_observed];
    for &z in observed {
        group_size[z] += 1;
    }
    let h = StateDist::from_counts(&group_size);

    // q_z·M = per-state specific-queue assignment probability × M.
    // per_state_arrival_rates(H, h, 1.0) returns exactly M·q_z.
    let m_qz = per_state_arrival_rates(&h, rule, 1.0);

    // Level 1: clients per state group, Multinomial(N, m_z·q_z).
    let group_probs: Vec<f64> =
        (0..num_observed).map(|z| (group_size[z] as f64 / m as f64) * m_qz[z]).collect();
    let group_counts = Sampler::multinomial(rng, num_clients, &group_probs);

    // Level 2: uniform split of each group's clients over its queues.
    let mut remaining_in_group = group_size;
    let mut remaining_clients = group_counts;
    for (j, &z) in observed.iter().enumerate() {
        let g = remaining_in_group[z];
        debug_assert!(g >= 1);
        let c = if g == 1 {
            remaining_clients[z]
        } else {
            Sampler::binomial(rng, remaining_clients[z], 1.0 / g as f64)
        };
        counts[j] = c;
        remaining_clients[z] -= c;
        remaining_in_group[z] -= 1;
    }
}

/// A per-queue service model of [`AggregateEngine`]: what a queue carries
/// across epochs, what the clients observe of it, how it starts and how
/// it evolves for one epoch. The observed-state count and the chains the
/// mean field runs come from the [`ServiceModel`] supertrait, so the
/// engine and its mean-field limit ([`mflb_core::mdp::MeanField`]) share
/// one type.
pub trait Service: ServiceModel {
    /// Per-queue state carried across epochs.
    type Queue: Copy + Debug + Send + Sync;

    /// Engine identifier for harness output.
    fn name(&self) -> &'static str;

    /// Queue length of a per-queue state.
    fn length(queue: Self::Queue) -> usize;

    /// Observed state of queue `j` in state `queue` (its length unless the
    /// service says otherwise).
    fn observe(&self, _j: usize, queue: Self::Queue, _num_lengths: usize) -> usize {
        Self::length(queue)
    }

    /// Samples the episode-start queues (Alg. 1, lines 4–6).
    fn initial_queues(&self, config: &SystemConfig, rng: &mut StdRng) -> Vec<Self::Queue>;

    /// Runs queue `j` for one epoch of `config.dt` under the frozen
    /// `arrival_rate`; returns `(dropped, served)`.
    fn epoch(
        &self,
        j: usize,
        queue: &mut Self::Queue,
        arrival_rate: f64,
        config: &SystemConfig,
        rng: &mut StdRng,
    ) -> (u64, u64);
}

/// Exponential service at `config.service_rate` on every queue — the
/// paper's model.
impl Service for Exponential {
    type Queue = usize;

    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn length(queue: usize) -> usize {
        queue
    }

    fn initial_queues(&self, config: &SystemConfig, rng: &mut StdRng) -> Vec<usize> {
        sample_initial_queues(config, rng)
    }

    fn epoch(
        &self,
        _j: usize,
        queue: &mut usize,
        arrival_rate: f64,
        config: &SystemConfig,
        rng: &mut StdRng,
    ) -> (u64, u64) {
        birth_death_queue_epoch(queue, arrival_rate, config.service_rate, config, rng)
    }
}

/// Heterogeneous exponential service: server `j` serves at its class
/// rate and is observed in its composite `(length, class)` state.
/// `config.service_rate` is ignored.
impl Service for RateClasses {
    type Queue = usize;

    fn name(&self) -> &'static str {
        "hetero"
    }

    fn length(queue: usize) -> usize {
        queue
    }

    fn observe(&self, j: usize, queue: usize, num_lengths: usize) -> usize {
        composite_index(queue, self.class_of(j), num_lengths)
    }

    fn initial_queues(&self, config: &SystemConfig, rng: &mut StdRng) -> Vec<usize> {
        assert_eq!(self.num_servers(), config.num_queues, "one rate per server");
        sample_initial_queues(config, rng)
    }

    fn epoch(
        &self,
        j: usize,
        queue: &mut usize,
        arrival_rate: f64,
        config: &SystemConfig,
        rng: &mut StdRng,
    ) -> (u64, u64) {
        let rate = self.class_rates()[self.class_of(j)];
        birth_death_queue_epoch(queue, arrival_rate, rate, config, rng)
    }
}

/// Phase-type service. Each queue is an `M/PH/1/B` chain over joint
/// `(length, phase)` states, simulated exactly with Gillespie; phases
/// persist across epochs, so residual service ages correctly. Clients
/// observe lengths only. `config.service_rate` is ignored.
impl Service for PhaseType {
    type Queue = PhQueueState;

    fn name(&self) -> &'static str {
        "ph-aggregate"
    }

    fn length(queue: PhQueueState) -> usize {
        queue.len
    }

    /// Lengths i.i.d. from ν₀, then in-service phases from the initial
    /// phase mix `α`.
    fn initial_queues(&self, config: &SystemConfig, rng: &mut StdRng) -> Vec<PhQueueState> {
        sample_initial_queues(config, rng)
            .into_iter()
            .map(|len| PhQueueState {
                len,
                phase: if len > 0 { self.sample_phase(rng) } else { 0 },
            })
            .collect()
    }

    fn epoch(
        &self,
        _j: usize,
        queue: &mut PhQueueState,
        arrival_rate: f64,
        config: &SystemConfig,
        rng: &mut StdRng,
    ) -> (u64, u64) {
        let (end, outcome) =
            self.simulate_queue_epoch(arrival_rate, config.buffer, *queue, config.dt, rng);
        *queue = end;
        (outcome.drops, outcome.served)
    }
}

/// Episode state of [`AggregateEngine`]: the per-queue states plus the
/// reusable observed-state and client-count buffers.
#[derive(Debug, Clone)]
pub struct AggregateState<Q = usize> {
    queues: Vec<Q>,
    observed: Vec<usize>,
    counts: Vec<u64>,
}

impl<Q> AggregateState<Q> {
    /// Wraps explicit queue states (benchmarks and tests).
    pub fn from_queues(queues: Vec<Q>) -> Self {
        let m = queues.len();
        Self { queues, observed: vec![0; m], counts: vec![0; m] }
    }

    /// Current queue states.
    pub fn queues(&self) -> &[Q] {
        &self.queues
    }
}

/// Aggregated epoch executor over a per-queue [`Service`] model.
#[derive(Debug, Clone)]
pub struct AggregateEngine<S: Service = Exponential> {
    config: SystemConfig,
    service: S,
}

impl AggregateEngine {
    /// Creates the exponential-service engine for a validated
    /// configuration.
    pub fn new(config: SystemConfig) -> Self {
        Self::with_service(config, Exponential)
    }
}

impl<S: Service> AggregateEngine<S> {
    /// Creates the engine for a validated configuration and a service
    /// model.
    pub fn with_service(config: SystemConfig, service: S) -> Self {
        config.validate().expect("invalid system configuration");
        Self { config, service }
    }

    /// The service model in force.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Number of observed states the decision rule must cover.
    pub fn num_observed(&self) -> usize {
        self.service.num_observed(self.config.num_states())
    }

    /// Observed state of queue `j` in state `queue`.
    pub fn observe(&self, j: usize, queue: S::Queue) -> usize {
        self.service.observe(j, queue, self.config.num_states())
    }

    /// Samples the per-queue client counts for the given observed states
    /// by the hierarchical multinomial decomposition (exposed for the
    /// engine-agreement tests).
    pub fn sample_assignments(
        &self,
        observed: &[usize],
        rule: &DecisionRule,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        sample_client_assignments(self.config.num_clients, self.num_observed(), observed, rule, rng)
    }
}

impl<S: Service> Engine for AggregateEngine<S> {
    type State = AggregateState<S::Queue>;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> Self::State {
        AggregateState::from_queues(self.service.initial_queues(&self.config, rng))
    }

    fn empirical(&self, state: &Self::State) -> StateDist {
        // Length histogram over B+1 bins — O(B) temporary, not O(M).
        let mut counts = vec![0u64; self.config.num_states()];
        for &q in &state.queues {
            counts[S::length(q)] += 1;
        }
        StateDist::from_counts(&counts)
    }

    /// One decision epoch in place. `rule` must cover
    /// [`AggregateEngine::num_observed`] states with the configured `d`.
    fn step(
        &self,
        state: &mut Self::State,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let AggregateState { queues, observed, counts } = state;
        debug_assert_eq!(queues.len(), self.config.num_queues);
        for (j, (o, &q)) in observed.iter_mut().zip(queues.iter()).enumerate() {
            *o = self.observe(j, q);
        }
        let n = self.config.num_clients;
        sample_client_assignments_into(n, self.num_observed(), observed, rule, rng, counts);

        let scale = queues.len() as f64 * lambda / n as f64;
        let (mut dropped, mut served) = (0u64, 0u64);
        for (j, q) in queues.iter_mut().enumerate() {
            if counts[j] == 0 && S::length(*q) == 0 {
                continue; // idle empty queue: nothing can happen
            }
            let (d, s) = self.service.epoch(j, q, scale * counts[j] as f64, &self.config, rng);
            dropped += d;
            served += s;
        }
        length_epoch_stats(queues.iter().map(|&q| S::length(q)), counts, n, dropped, served)
    }

    fn name(&self) -> &'static str {
        self.service.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, run_rng, sample_per_client_assignments};
    use crate::monte_carlo::monte_carlo;
    use mflb_core::mdp::{FixedRulePolicy, Integrand, MeanField};
    use mflb_linalg::stats::{chi_square_two_sample, Summary};
    use mflb_policy::sed_rule;
    use rand::SeedableRng;

    fn jsq_rule() -> DecisionRule {
        DecisionRule::from_fn(6, 2, |t| {
            use std::cmp::Ordering::*;
            match t[0].cmp(&t[1]) {
                Less => vec![1.0, 0.0],
                Greater => vec![0.0, 1.0],
                Equal => vec![0.5, 0.5],
            }
        })
    }

    /// `m_fast` servers at α = 1.6 followed by `m_slow` at α = 0.4.
    fn two_speed(m_fast: usize, m_slow: usize) -> RateClasses {
        let mut rates = vec![1.6; m_fast];
        rates.extend(std::iter::repeat_n(0.4, m_slow));
        RateClasses::new(&rates)
    }

    fn two_speed_engine() -> AggregateEngine<RateClasses> {
        // 10 fast servers (α = 1.6), 10 slow (α = 0.4): same total capacity
        // as 20 homogeneous α = 1 servers.
        let cfg = SystemConfig::paper().with_size(2_000, 20).with_dt(2.0);
        AggregateEngine::with_service(cfg, two_speed(10, 10))
    }

    #[test]
    fn counts_sum_to_n() {
        let cfg = SystemConfig::paper().with_size(10_000, 50);
        let engine = AggregateEngine::new(cfg.clone());
        let queues: Vec<usize> = (0..50).map(|j| j % 6).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for rule in [DecisionRule::uniform(6, 2), jsq_rule()] {
            let counts = engine.sample_assignments(&queues, &rule, &mut rng);
            assert_eq!(counts.iter().sum::<u64>(), 10_000);
        }
    }

    /// Resamples the client counts of one epoch from the same queue states
    /// with the hierarchical sampler and with the per-client oracle (every
    /// client samples `d` queues and observes them through
    /// [`AggregateEngine::observe`]); the count distribution of queue `j`
    /// must agree: means within joint noise, and a two-sample chi-square
    /// test on the count histograms (30 buckets over `[0, max_c]`) at
    /// p > 1e-4.
    fn assert_count_marginal_matches_per_client_oracle<S: Service>(
        engine: &AggregateEngine<S>,
        queues: &[S::Queue],
        rule: &DecisionRule,
        j: usize,
    ) {
        let observed: Vec<usize> =
            queues.iter().enumerate().map(|(i, &q)| engine.observe(i, q)).collect();
        let (n, d) = (engine.config().num_clients, engine.config().d);
        let (mut oracle, mut sampled, mut tuple) = (vec![0; queues.len()], vec![0; d], vec![0; d]);
        let reps = 4_000;
        let mut rng_a = StdRng::seed_from_u64(2);
        let mut rng_b = StdRng::seed_from_u64(3);
        let mut sum_a = Summary::new();
        let mut sum_b = Summary::new();
        let (mut counts_a, mut counts_b) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for _ in 0..reps {
            let ca = engine.sample_assignments(&observed, rule, &mut rng_a)[j];
            sample_per_client_assignments(
                n,
                &|i| observed[i],
                rule,
                &mut rng_b,
                &mut oracle,
                &mut sampled,
                &mut tuple,
            );
            let cb = oracle[j];
            sum_a.push(ca as f64);
            sum_b.push(cb as f64);
            counts_a.push(ca);
            counts_b.push(cb);
        }
        let tol = 4.0 * (sum_a.std_err() + sum_b.std_err());
        assert!(
            (sum_a.mean() - sum_b.mean()).abs() < tol,
            "queue {j} means {} vs {}",
            sum_a.mean(),
            sum_b.mean()
        );
        // Histogram agreement via the two-sample chi-square test (both
        // histograms are sampled), on bins about sd/2 wide over the range
        // the samples cover, so the test keeps ≥ 10 df after pooling.
        let all = || counts_a.iter().chain(&counts_b).copied();
        let lo = all().min().unwrap();
        let sd = (sum_a.variance() + sum_b.variance()).sqrt() / 2f64.sqrt();
        let width = (sd / 2.0).round().max(1.0) as u64;
        let bins = ((all().max().unwrap() - lo) / width + 1) as usize;
        let histogram = |counts: &[u64]| {
            let mut h = vec![0.0; bins];
            counts.iter().for_each(|&c| h[((c - lo) / width) as usize] += 1.0);
            h
        };
        let (_, df, p) = chi_square_two_sample(&histogram(&counts_a), &histogram(&counts_b), 8.0);
        assert!(df >= 10.0, "queue {j} count histogram keeps only {df} df");
        assert!(p > 1e-4, "queue {j} count-histogram chi-square p = {p}");
    }

    #[test]
    fn per_queue_count_marginals_match_per_client_engine() {
        // Mixed length profile under JSQ(2); queue 0 is a short queue.
        let engine = AggregateEngine::new(SystemConfig::paper().with_size(2_000, 10));
        let queues: Vec<usize> = vec![0, 0, 1, 2, 3, 4, 5, 5, 2, 1];
        assert_count_marginal_matches_per_client_oracle(&engine, &queues, &jsq_rule(), 0);
    }

    #[test]
    fn composite_count_marginals_match_per_client_oracle() {
        // Two-speed pool under SED(2) over composite (length, class)
        // states, matched length profiles in both classes: the grouping
        // must follow the composite state, not the length. Queue 0 is the
        // empty fast server, queue 5 the empty slow one.
        let cfg = SystemConfig::paper().with_size(2_000, 10);
        let engine = AggregateEngine::with_service(cfg, two_speed(5, 5));
        let queues: Vec<usize> = vec![0, 1, 2, 3, 5, 0, 1, 2, 4, 5];
        let sed = sed_rule(6, 2, engine.service().class_rates());
        for j in [0, 5] {
            assert_count_marginal_matches_per_client_oracle(&engine, &queues, &sed, j);
        }
    }

    #[test]
    fn episode_totals_agree_between_engines_statistically() {
        let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let agg = AggregateEngine::new(cfg.clone());
        let per = crate::client::PerClientEngine::new(cfg.clone());
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let horizon = 15;
        let runs = 60;
        let mut sa = Summary::new();
        let mut sb = Summary::new();
        for r in 0..runs {
            sa.push(run_episode(&agg, &policy, horizon, &mut run_rng(100, r)).total_drops);
            sb.push(run_episode(&per, &policy, horizon, &mut run_rng(200, r)).total_drops);
        }
        let tol = 4.0 * (sa.std_err() + sb.std_err());
        assert!(
            (sa.mean() - sb.mean()).abs() < tol,
            "episode drops {} vs {} (tol {tol})",
            sa.mean(),
            sb.mean()
        );
    }

    #[test]
    fn large_n_runs_fast_enough_to_be_usable() {
        // N = 10^6 clients, M = 1000 queues: one epoch must complete for
        // every service model (this is the whole point of the aggregation).
        fn one_epoch<S: Service>(engine: AggregateEngine<S>, rule: &DecisionRule) {
            let mut rng = StdRng::seed_from_u64(4);
            // The paper's ν₀ = δ₀: every queue starts empty.
            let mut state = engine.init_state(&mut rng);
            let stats = engine.step(&mut state, rule, 0.9, &mut rng);
            assert!(stats.drops >= 0.0);
            // After one epoch from empty under load 0.9, some queues are
            // occupied.
            assert!(state.queues().iter().any(|&q| S::length(q) > 0), "{}", engine.name());
        }
        let cfg = SystemConfig::paper().with_m_squared(1000).with_dt(5.0);
        one_epoch(AggregateEngine::new(cfg.clone()), &jsq_rule());
        let sed = sed_rule(6, 2, &[1.6, 0.4]);
        one_epoch(AggregateEngine::with_service(cfg.clone(), two_speed(500, 500)), &sed);
        one_epoch(
            AggregateEngine::with_service(cfg, PhaseType::fit_mean_scv(1.0, 2.0)),
            &jsq_rule(),
        );
    }

    #[test]
    fn zero_arrival_rate_only_drains() {
        let cfg = SystemConfig::paper().with_size(100, 10).with_dt(50.0);
        let engine = AggregateEngine::new(cfg.clone());
        let mut state = AggregateState::from_queues(vec![5usize; 10]);
        let rule = DecisionRule::uniform(6, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let stats = engine.step(&mut state, &rule, 0.0, &mut rng);
        assert_eq!(stats.drops, 0.0);
        assert!(state.queues().iter().all(|&z| z == 0), "queues must drain: {:?}", state.queues());
    }

    #[test]
    fn classes_detected() {
        let e = two_speed_engine();
        assert_eq!(e.service().num_classes(), 2);
        assert_eq!(e.service().class_rates(), &[1.6, 0.4]);
        assert_eq!(e.service().class_weights(), vec![0.5, 0.5]);
        assert_eq!(e.num_observed(), 12);
        assert_eq!(e.observe(0, 3), 3); // class 0
        assert_eq!(e.observe(19, 3), 6 + 3); // class 1
    }

    #[test]
    fn rate_classes_start_from_nu0() {
        // The mean field starts every class at ν₀; so must the engine.
        let mut cfg = SystemConfig::paper().with_size(400, 20);
        cfg.initial_dist = vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let engine = AggregateEngine::with_service(cfg, two_speed(10, 10));
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(engine.empirical(&engine.init_state(&mut rng)), StateDist::delta(5, 2));
    }

    #[test]
    fn sed_beats_state_only_jsq_on_two_speed_pool() {
        // JSQ ignores rates and overloads slow servers; SED accounts for
        // them. Expanded to composite states, JSQ compares only z.
        let e = two_speed_engine();
        let zs = 6;
        let sed = FixedRulePolicy::new(sed_rule(zs, 2, e.service().class_rates()), "SED");
        // State-only JSQ lifted to composite indices.
        let jsq_plain = jsq_rule();
        let jsq_lifted = FixedRulePolicy::new(
            DecisionRule::from_fn(zs * 2, 2, |t| {
                let raw: Vec<usize> = t.iter().map(|&c| c % zs).collect();
                (0..2).map(|u| jsq_plain.prob(&raw, u)).collect()
            }),
            "JSQ",
        );
        let mut drops_sed = 0.0;
        let mut drops_jsq = 0.0;
        let runs = 24;
        for r in 0..runs {
            drops_sed += run_episode(&e, &sed, 30, &mut run_rng(1, r)).total_drops;
            drops_jsq += run_episode(&e, &jsq_lifted, 30, &mut run_rng(2, r)).total_drops;
        }
        assert!(
            drops_sed < drops_jsq,
            "SED ({drops_sed:.2}) must beat rate-blind JSQ ({drops_jsq:.2})"
        );
    }

    #[test]
    fn homogeneous_pool_reduces_to_plain_engine_statistics() {
        // One class -> composite == plain states; compare against the
        // exponential-service engine.
        let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let hetero = AggregateEngine::with_service(cfg.clone(), RateClasses::new(&[1.0; 30]));
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ");
        let mut h_total = 0.0;
        // Per-episode drop counts are skewed (sd ≈ 0.7 vs mean ≈ 1.6), so 30
        // runs leave the sample means ~0.4 apart at the 95th percentile; 120
        // runs bring both engines within ~0.1 of each other.
        let runs = 120;
        for r in 0..runs {
            h_total += run_episode(&hetero, &policy, 15, &mut run_rng(3, r)).total_drops;
        }
        let agg = AggregateEngine::new(cfg);
        let mc = monte_carlo(&agg, &policy, 15, runs as usize, 9, 0);
        let h_mean = h_total / runs as f64;
        // Loose statistical agreement (different services, same law).
        assert!(
            (h_mean - mc.mean()).abs() < 0.25 * mc.mean().max(1.0),
            "hetero {h_mean} vs aggregate {}",
            mc.mean()
        );
    }

    #[test]
    fn exponential_service_matches_plain_aggregate_engine() {
        // k = 1 PH service is exponential: episode drop totals from the PH
        // service and the exponential one must agree statistically.
        let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let ph = AggregateEngine::with_service(cfg.clone(), PhaseType::exponential(1.0));
        let agg = AggregateEngine::new(cfg);
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
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
        let engine = AggregateEngine::with_service(cfg, PhaseType::erlang(3, 3.0));
        let mut state = AggregateState::from_queues(vec![PhQueueState { len: 5, phase: 1 }; 10]);
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
        let engine = AggregateEngine::with_service(cfg.clone(), service.clone());
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let horizon = 20;
        let mut s = Summary::new();
        for r in 0..40 {
            s.push(run_episode(&engine, &policy, horizon, &mut run_rng(30, r)).total_drops);
        }
        // Mean-field reference on matched random arrival sequences.
        let closure = MeanField::new(&cfg, service, Integrand::FullMesh);
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
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let mut total = Vec::new();
        for &scv in &[0.25, 4.0] {
            let service = PhaseType::fit_mean_scv(1.0, scv);
            let engine = AggregateEngine::with_service(cfg.clone(), service);
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
        let queues = service.initial_queues(&cfg, &mut rng);
        let busy = queues.iter().filter(|q| q.len == 1).count();
        assert!((busy as f64 / 2_000.0 - 0.5).abs() < 0.05);
        let phase1 = queues.iter().filter(|q| q.len == 1 && q.phase == 1).count();
        assert!((phase1 as f64 / busy as f64 - 0.7).abs() < 0.06);
        assert!(queues.iter().all(|q| q.len > 0 || q.phase == 0));
    }
}
