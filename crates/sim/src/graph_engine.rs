//! The locality-constrained finite-system engine: dispatchers route over
//! a graph [`Topology`] instead of the paper's full mesh.
//!
//! ### Model
//! Every queue `j` hosts a dispatcher whose **accessible set** `A(j)` is
//! its closed neighborhood (itself plus its graph neighbors, size `k` —
//! see [`mflb_core::Topology`]). Each epoch:
//!
//! 1. every client connects to a uniformly random dispatcher (clients are
//!    exchangeable traffic sources, re-mixed every epoch), so the
//!    per-dispatcher client counts are `Multinomial(N, 1/M, …, 1/M)`;
//! 2. each of a dispatcher's clients samples `d` queues uniformly **with
//!    replacement from `A(j)`**, observes their epoch-start (stale)
//!    lengths — the same delayed/staggered information semantics as every
//!    other engine — and draws its destination from the decision rule;
//! 3. every queue runs its exact birth–death CTMC for `Δt` (Alg. 1,
//!    lines 15–19), unchanged.
//!
//! ### Exact aggregation per neighborhood
//! Conditional on the epoch-start lengths, a dispatcher's clients are
//! i.i.d., and a single client routes to the *specific* queue `j ∈ A(i)`
//! with probability `ρ(H_i)[z_j] / k`, where `H_i` is the empirical
//! length distribution of `A(i)` and `ρ` is the Eq. 22 integrand — the
//! same hierarchical argument as [`crate::aggregate::AggregateEngine`],
//! applied to the `k`-queue neighborhood instead of all `M` queues. `H_i`
//! occupies at most `min(k, |Z|)` states, so `ρ` is evaluated by the
//! **sparse-support** sweep
//! ([`mflb_core::per_state_arrival_rates_sparse_into`], cost
//! `|support|^d·d`) whenever the support is smaller than the state space,
//! and by the dense `|Z|^d·d` sweep otherwise — a bit-identical,
//! perf-only cutover. Per-epoch cost is `O(M·(k + min(k,|Z|)^d·d))`,
//! independent of `N`.
//!
//! ### Sharded stepping
//! On a sparse topology every stochastic ingredient of an epoch is keyed
//! to its own SplitMix64-derived stream: one `epoch_base` draw from the
//! episode RNG per epoch, then per-tree-node home-count splits,
//! per-dispatcher assignment draws and per-queue CTMCs. The epoch is
//! stepped shard-by-shard, in parallel when workers allow, and stays
//! **bit-identical across any shard size and worker count**: cross-shard
//! routing counts accumulate through relaxed `AtomicU64` adds (integer
//! addition commutes) and per-epoch statistics are merged as integers in
//! shard-index-free form. A system smaller than one shard is stepped as a
//! single shard on the calling thread.
//!
//! ### Full mesh ≡ aggregate, bit for bit
//! When the topology's accessible sets cover all `M` queues
//! ([`Topology::is_full_mesh`]), dispatcher identity is irrelevant and
//! the assignment law is exactly the paper's. The engine then takes the
//! [`crate::aggregate`] fast path — the *same* RNG call sequence as
//! [`crate::aggregate::AggregateEngine`], regardless of the shard
//! settings — so a full-mesh graph episode is **bit-identical** to an
//! aggregate-engine episode under the same seed (enforced by
//! `tests/engine_regression.rs` and the sim property suite).

use crate::aggregate::sample_client_assignments_into;
use crate::episode::{
    birth_death_queue_epoch, length_epoch_stats, simulate_birth_death_epoch, stream_rng, Engine,
    EpochStats,
};
use mflb_core::{
    per_state_arrival_rates_into, per_state_arrival_rates_sparse_into, worker_count,
    CsrNeighborhoods, DecisionRule, FaultPlan, StateDist, SystemConfig, Topology,
};
use mflb_queue::sampler::Sampler;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stream salts keeping the sharded epoch's three phase families (home
/// counts, per-dispatcher assignment, per-queue service) on disjoint
/// SplitMix64-derived streams.
const SALT_HOME: u64 = 0x9AE1_6A3B_2F90_404F;
const SALT_ASSIGN: u64 = 0xD1B5_4A32_D192_ED03;
const SALT_SERVE: u64 = 0x8CB9_2BA7_2F3D_8DD7;

/// Default contiguous dispatcher range per shard.
const DEFAULT_SHARD_SIZE: usize = 16_384;

/// Below this many clients a dispatcher draws per-client categorical
/// inversions over its `k`-entry support instead of the `k`-binomial
/// chain — fewer RNG draws when `N/M` is small, same law. The cutoff
/// depends only on the (partition-independent) client count, so it never
/// perturbs cross-shard determinism.
const PER_CLIENT_DRAW_MAX: u64 = 16;

/// Episode state of [`GraphEngine`]: queue lengths plus reusable
/// per-epoch scratch (client counts, per-dispatcher counts, and the
/// atomic count lattice shards accumulate cross-shard routing into).
#[derive(Debug)]
pub struct GraphState {
    queues: Vec<usize>,
    counts: Vec<u64>,
    /// Cross-shard accumulation target: dispatchers add their routed
    /// clients here with relaxed `fetch_add` (commutative, hence
    /// deterministic under any thread interleaving); drained back to
    /// zero into `counts` before the service pass.
    counts_atomic: Vec<AtomicU64>,
    home_counts: Vec<u64>,
    /// Epochs stepped so far — the engine's clock (`t0 = epoch · Δt`) for
    /// window-based fault lookups. Advances even without a fault plan
    /// (no randomness involved).
    epoch: u64,
    /// Per-queue crash renewal state (`true` = up at interval start);
    /// only consulted when a [`FaultPlan`] is attached.
    fault_up: Vec<bool>,
    /// Per-queue service-rate multipliers of the current epoch (all ones
    /// without a fault plan).
    mult: Vec<f64>,
}

impl Clone for GraphState {
    fn clone(&self) -> Self {
        Self {
            queues: self.queues.clone(),
            counts: self.counts.clone(),
            counts_atomic: self
                .counts_atomic
                .iter()
                .map(|a| AtomicU64::new(a.load(Ordering::Relaxed)))
                .collect(),
            home_counts: self.home_counts.clone(),
            epoch: self.epoch,
            fault_up: self.fault_up.clone(),
            mult: self.mult.clone(),
        }
    }
}

impl GraphState {
    /// Wraps explicit queue lengths (benchmarks and tests).
    pub fn from_queues(queues: Vec<usize>) -> Self {
        let m = queues.len();
        Self {
            queues,
            counts: vec![0; m],
            counts_atomic: (0..m).map(|_| AtomicU64::new(0)).collect(),
            home_counts: vec![0; m],
            epoch: 0,
            fault_up: vec![true; m],
            mult: vec![1.0; m],
        }
    }

    /// Current queue lengths.
    pub fn queues(&self) -> &[usize] {
        &self.queues
    }
}

/// Locality-constrained epoch executor over a graph topology.
#[derive(Debug, Clone)]
pub struct GraphEngine {
    config: SystemConfig,
    topology: Topology,
    /// CSR closed neighborhoods (`None` on the full-mesh fast path, which
    /// never consults them).
    csr: Option<CsrNeighborhoods>,
    /// Accessible-set size.
    k: usize,
    /// Whether the accessible sets cover all `M` queues (aggregate fast
    /// path, bit-identical RNG stream).
    full_mesh: bool,
    /// Contiguous dispatcher range per shard.
    shard_size: usize,
    /// Worker threads for sharded stepping (`0` = one per available
    /// core). Never affects results — only wall-clock.
    workers: usize,
    /// Deterministic fault plan (`None` = pristine engine; empty plans
    /// are normalized to `None` so they cannot perturb any stream).
    faults: Option<FaultPlan>,
}

impl GraphEngine {
    /// Creates the engine for a validated configuration and topology.
    ///
    /// # Panics
    /// Panics if the configuration or topology is invalid — construct via
    /// [`crate::Scenario::build`] for an `Err`-reporting path.
    pub fn new(config: SystemConfig, topology: Topology) -> Self {
        config.validate().expect("invalid system configuration");
        let m = config.num_queues;
        topology.validate(m).expect("invalid topology");
        let full_mesh = topology.is_full_mesh(m);
        let (csr, k) = if full_mesh {
            (None, m)
        } else {
            let csr = topology.csr(m).expect("validated topology must materialize");
            let k = csr.neighborhood_size();
            (Some(csr), k)
        };
        Self {
            config,
            topology,
            csr,
            k,
            full_mesh,
            shard_size: DEFAULT_SHARD_SIZE,
            workers: 0,
            faults: None,
        }
    }

    /// Attaches a deterministic [`FaultPlan`]. Empty plans are dropped so
    /// a fault-free engine stays bit-identical to one never handed a
    /// plan; faulted epochs key their crash/straggler streams off the
    /// sharded epoch base (or, on the full-mesh fast path, one extra
    /// `epoch_base` draw), so they stay bit-identical across shard/worker
    /// counts.
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

    /// Sets the contiguous dispatcher range per shard (≥ 1). Episodes are
    /// bit-identical for **any** shard size; this knob only trades
    /// scheduling granularity against per-shard overhead.
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Sets the worker-thread count (`0` = one per available core).
    /// Results are bit-identical for any value.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The topology in force.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accessible-set size `k` (equals `M` on the full-mesh fast path).
    pub fn neighborhood_size(&self) -> usize {
        self.k
    }

    /// The closed neighborhood `A(node)` (own queue first, CSR row).
    /// Empty slice on the full-mesh fast path, where `A(node)` is
    /// implicitly all queues.
    pub fn neighborhood(&self, node: usize) -> &[u32] {
        match &self.csr {
            Some(csr) => csr.row(node),
            None => &[],
        }
    }

    /// Samples the assignments of `clients` clients connected to
    /// dispatcher `node`, **adding** the resulting counts into `counts`.
    /// Draws from the node's `(epoch_base, node)`-derived stream — the
    /// exact stream an epoch uses, independent of which shard or worker
    /// processes the node (exposed for the locality property tests:
    /// counts outside [`GraphEngine::neighborhood`]`(node)` are never
    /// touched).
    ///
    /// # Panics
    /// Panics on the full-mesh fast path, which has no per-dispatcher
    /// assignment stage.
    pub fn sample_node_assignments(
        &self,
        node: usize,
        clients: u64,
        queues: &[usize],
        rule: &DecisionRule,
        epoch_base: u64,
        counts: &mut [u64],
    ) {
        assert!(!self.full_mesh, "full-mesh fast path has no per-node stage");
        let zs = self.config.num_states();
        let mut hist = vec![0.0; zs];
        let mut rates = vec![0.0; zs];
        let mut probs = vec![0.0; self.k];
        let mut support = Vec::with_capacity(zs);
        self.node_probs(node, queues, rule, &mut hist, &mut rates, &mut probs, &mut support);
        let row = self.csr.as_ref().expect("sparse path").row(node);
        sharded_assign_draws(node, clients, &probs, row, epoch_base, |j, c| {
            counts[j] += c;
        });
    }

    /// Builds dispatcher `node`'s neighborhood histogram `H_i`, its
    /// occupied support, the per-state rates `ρ(H_i)` (sparse/dense
    /// cutover — bit-identical either way) and the routing probabilities
    /// `probs[t] = ρ[z_{A(i)_t}]/k`.
    #[allow(clippy::too_many_arguments)]
    fn node_probs(
        &self,
        node: usize,
        queues: &[usize],
        rule: &DecisionRule,
        hist: &mut [f64],
        rates: &mut [f64],
        probs: &mut [f64],
        support: &mut Vec<usize>,
    ) {
        let row = self.csr.as_ref().expect("sparse path").row(node);
        let k = self.k;
        // Empirical length distribution of the accessible set.
        hist.iter_mut().for_each(|h| *h = 0.0);
        support.clear();
        for &j in row {
            let z = queues[j as usize];
            if hist[z] == 0.0 {
                support.push(z);
            }
            hist[z] += 1.0;
        }
        let inv_k = 1.0 / k as f64;
        hist.iter_mut().for_each(|h| *h *= inv_k);
        support.sort_unstable();
        // ρ(H_i)[z] = k · (specific-queue pick probability for state z);
        // Σ_j ρ[z_j]/k = Σ_z H_i(z)·ρ[z] = 1 exactly (thinning identity).
        // The sparse sweep visits only the ≤ min(k,|Z|) occupied states
        // and is bit-identical to the dense one on them, so the cutover
        // cannot shift any downstream draw.
        if support.len() < hist.len() {
            per_state_arrival_rates_sparse_into(hist, support, rule, 1.0, rates);
        } else {
            per_state_arrival_rates_into(hist, rule, 1.0, rates);
        }
        for (t, &j) in row.iter().enumerate() {
            probs[t] = rates[queues[j as usize]] * inv_k;
        }
    }

    /// Samples the per-queue client counts for one epoch (exposed for the
    /// engine-agreement and conservation tests). On a sparse topology it
    /// consumes exactly one `u64` from `rng` (the epoch base); the
    /// full-mesh fast path follows the aggregate engine's stream.
    pub fn sample_assignments(
        &self,
        queues: &[usize],
        rule: &DecisionRule,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        let m = queues.len();
        if self.full_mesh {
            let (n, zs) = (self.config.num_clients, self.config.num_states());
            let mut counts = vec![0; m];
            sample_client_assignments_into(n, zs, queues, rule, rng, &mut counts);
            return counts;
        }
        let mut home_counts = vec![0; m];
        let counts_atomic: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(0)).collect();
        let epoch_base: u64 = rng.gen();
        self.run_assignment_pass(queues, &mut home_counts, &counts_atomic, rule, epoch_base);
        counts_atomic.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// Sharded phase 1+2: per-shard home counts (dyadic multinomial
    /// splitting) followed by per-dispatcher assignment draws, with
    /// routed counts accumulated into the atomic lattice. Shards are
    /// distributed round-robin over workers; every draw comes from an
    /// `(epoch_base, entity)`-derived stream, so the outcome is
    /// independent of the shard/worker partition.
    fn run_assignment_pass(
        &self,
        queues: &[usize],
        home_counts: &mut [u64],
        counts_atomic: &[AtomicU64],
        rule: &DecisionRule,
        epoch_base: u64,
    ) {
        let shard = self.shard_size.max(1);
        let num_shards = home_counts.len().div_ceil(shard);
        let workers = worker_count(self.workers).clamp(1, num_shards.max(1));
        if workers == 1 {
            for (s, home) in home_counts.chunks_mut(shard).enumerate() {
                self.shard_assignment_pass(
                    s * shard,
                    home,
                    queues,
                    counts_atomic,
                    rule,
                    epoch_base,
                );
            }
            return;
        }
        let mut buckets: Vec<Vec<(usize, &mut [u64])>> = (0..workers).map(|_| Vec::new()).collect();
        for (s, home) in home_counts.chunks_mut(shard).enumerate() {
            buckets[s % workers].push((s * shard, home));
        }
        crossbeam::scope(|scope| {
            for bucket in buckets {
                scope.spawn(move |_| {
                    for (start, home) in bucket {
                        self.shard_assignment_pass(
                            start,
                            home,
                            queues,
                            counts_atomic,
                            rule,
                            epoch_base,
                        );
                    }
                });
            }
        })
        .expect("assignment worker panicked");
    }

    /// Phase 1+2 for one shard `[start, start + home.len())`.
    fn shard_assignment_pass(
        &self,
        start: usize,
        home: &mut [u64],
        queues: &[usize],
        counts_atomic: &[AtomicU64],
        rule: &DecisionRule,
        epoch_base: u64,
    ) {
        let m = self.config.num_queues;
        dyadic_home_counts(
            epoch_base,
            self.config.num_clients,
            0,
            m,
            start,
            start + home.len(),
            home,
        );
        let zs = self.config.num_states();
        let mut hist = vec![0.0; zs];
        let mut rates = vec![0.0; zs];
        let mut probs = vec![0.0; self.k];
        let mut support = Vec::with_capacity(zs);
        let csr = self.csr.as_ref().expect("sparse path");
        for (off, &clients) in home.iter().enumerate() {
            if clients == 0 {
                continue;
            }
            let node = start + off;
            self.node_probs(node, queues, rule, &mut hist, &mut rates, &mut probs, &mut support);
            sharded_assign_draws(node, clients, &probs, csr.row(node), epoch_base, |j, c| {
                counts_atomic[j].fetch_add(c, Ordering::Relaxed);
            });
        }
    }

    /// Sharded phase 3: drain the atomic counts, run every queue's CTMC
    /// from its `(epoch_base, queue)`-derived stream, and merge the
    /// integer drop/serve totals (order-free).
    fn run_service_pass(
        &self,
        queues: &mut [usize],
        counts: &mut [u64],
        counts_atomic: &[AtomicU64],
        scale: f64,
        mult: &[f64],
        epoch_base: u64,
    ) -> (u64, u64) {
        let shard = self.shard_size.max(1);
        let num_shards = queues.len().div_ceil(shard);
        let workers = worker_count(self.workers).clamp(1, num_shards.max(1));
        if workers == 1 {
            let (mut dropped, mut served) = (0u64, 0u64);
            for (s, (qs, cs)) in queues.chunks_mut(shard).zip(counts.chunks_mut(shard)).enumerate()
            {
                let (d, sv) = self.shard_service_pass(
                    s * shard,
                    qs,
                    cs,
                    counts_atomic,
                    scale,
                    mult,
                    epoch_base,
                );
                dropped += d;
                served += sv;
            }
            return (dropped, served);
        }
        // A shard's work item: (first queue index, queue states, counts).
        type ShardItem<'a> = (usize, &'a mut [usize], &'a mut [u64]);
        let mut buckets: Vec<Vec<ShardItem>> = (0..workers).map(|_| Vec::new()).collect();
        for (s, (qs, cs)) in queues.chunks_mut(shard).zip(counts.chunks_mut(shard)).enumerate() {
            buckets[s % workers].push((s * shard, qs, cs));
        }
        let (mut dropped, mut served) = (0u64, 0u64);
        crossbeam::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move |_| {
                        let (mut d, mut sv) = (0u64, 0u64);
                        for (start, qs, cs) in bucket {
                            let (bd, bs) = self.shard_service_pass(
                                start,
                                qs,
                                cs,
                                counts_atomic,
                                scale,
                                mult,
                                epoch_base,
                            );
                            d += bd;
                            sv += bs;
                        }
                        (d, sv)
                    })
                })
                .collect();
            for h in handles {
                let (d, sv) = h.join().expect("service worker panicked");
                dropped += d;
                served += sv;
            }
        })
        .expect("service worker panicked");
        (dropped, served)
    }

    /// Phase 3 for one shard `[start, start + queues.len())`. `mult` is
    /// the (epoch-wide, shard-independent) per-queue service multiplier
    /// lattice — exactly `1.0` everywhere without a fault plan, which
    /// leaves the service rate bit-identical.
    #[allow(clippy::too_many_arguments)]
    fn shard_service_pass(
        &self,
        start: usize,
        queues: &mut [usize],
        counts: &mut [u64],
        counts_atomic: &[AtomicU64],
        scale: f64,
        mult: &[f64],
        epoch_base: u64,
    ) -> (u64, u64) {
        let (mut dropped, mut served) = (0u64, 0u64);
        for (off, (q, c)) in queues.iter_mut().zip(counts.iter_mut()).enumerate() {
            let j = start + off;
            let cj = counts_atomic[j].swap(0, Ordering::Relaxed);
            *c = cj;
            if cj == 0 && *q == 0 {
                continue; // idle empty queue: nothing can happen
            }
            let mut rng = stream_rng(epoch_base, SALT_SERVE, j as u64);
            let rate = self.config.service_rate * mult[j];
            let (d, s) =
                birth_death_queue_epoch(q, scale * cj as f64, rate, &self.config, &mut rng);
            dropped += d;
            served += s;
        }
        (dropped, served)
    }

    /// One sparse-topology epoch: a single `epoch_base` draw from the episode RNG
    /// re-keys all phase streams; both passes run shard-parallel. Fault
    /// multipliers ride the same epoch base (computed once, serially),
    /// so faulted sharded episodes stay bit-identical across any shard
    /// size and worker count.
    fn step_sharded(
        &self,
        state: &mut GraphState,
        rule: &DecisionRule,
        lambda: f64,
        t0: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let epoch_base: u64 = rng.gen();
        let lambda = self.apply_faults(state, epoch_base, t0, lambda);
        let GraphState { queues, counts, counts_atomic, home_counts, mult, .. } = state;
        self.run_assignment_pass(queues, home_counts, counts_atomic, rule, epoch_base);
        let m = queues.len();
        let scale = m as f64 * lambda / self.config.num_clients as f64;
        let (dropped, served) =
            self.run_service_pass(queues, counts, counts_atomic, scale, mult, epoch_base);
        length_epoch_stats(queues.iter().copied(), counts, self.config.num_clients, dropped, served)
    }

    /// Advances the per-queue fault state for the interval `[t0, t0+Δt)`
    /// under `epoch_base`, filling `state.mult`, and returns the
    /// (overload-scaled) arrival rate. No-op returning `lambda` untouched
    /// when no plan is attached.
    fn apply_faults(&self, state: &mut GraphState, epoch_base: u64, t0: f64, lambda: f64) -> f64 {
        let Some(plan) = &self.faults else { return lambda };
        let dt = self.config.dt;
        lambda * plan.open_interval(epoch_base, t0, dt, &mut state.fault_up, &mut state.mult)
    }
}

/// Writes the `Multinomial(N, uniform)` home counts for dispatchers in
/// `[a, b)` into `out` by descending a **fixed dyadic splitting tree**
/// over `[lo, hi)`: each internal node draws `Binomial(n, left/width)`
/// from its own `(epoch_base, node)`-derived stream to split its client
/// mass between halves. The tree shape depends only on `M`, so every
/// shard recomputes the `O(log M)` ancestors of its range plus its own
/// subtree and gets counts that are **independent of the shard
/// partition** — the key to bit-identical episodes across shard sizes.
fn dyadic_home_counts(
    epoch_base: u64,
    clients: u64,
    lo: usize,
    hi: usize,
    a: usize,
    b: usize,
    out: &mut [u64],
) {
    if hi <= a || lo >= b {
        return; // subtree entirely outside the shard
    }
    if hi - lo == 1 {
        out[lo - a] = clients;
        return;
    }
    if clients == 0 {
        out[lo.max(a) - a..hi.min(b) - a].iter_mut().for_each(|h| *h = 0);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let p = (mid - lo) as f64 / (hi - lo) as f64;
    // (lo, hi) identifies the tree node; hi ≤ M < 2³² cannot collide.
    let key = ((lo as u64) << 32).wrapping_add(hi as u64);
    let mut rng = stream_rng(epoch_base, SALT_HOME, key);
    let left = Sampler::binomial(&mut rng, clients, p);
    dyadic_home_counts(epoch_base, left, lo, mid, a, b, out);
    dyadic_home_counts(epoch_base, clients - left, mid, hi, a, b, out);
}

/// Draws one dispatcher's `Multinomial(clients, probs)` from its
/// `(epoch_base, node)`-derived stream and feeds nonzero category counts
/// to `add(queue, count)`. Small client batches use per-client categorical
/// inversion over the `k`-entry support (the "cumulative sampling over the
/// nonzero support" of the sparse design — cheaper than `k` binomials
/// when `N/M` is small); larger ones the conditional-binomial chain. The
/// branch depends only on `clients`, never on the partition.
fn sharded_assign_draws(
    node: usize,
    clients: u64,
    probs: &[f64],
    targets: &[u32],
    epoch_base: u64,
    mut add: impl FnMut(usize, u64),
) {
    debug_assert_eq!(probs.len(), targets.len());
    let mut rng = stream_rng(epoch_base, SALT_ASSIGN, node as u64);
    if clients <= PER_CLIENT_DRAW_MAX {
        for _ in 0..clients {
            let t = categorical_positive(&mut rng, probs);
            add(targets[t] as usize, 1);
        }
        return;
    }
    let mut remaining_n = clients;
    let mut remaining_mass: f64 = probs.iter().sum();
    for (t, &p) in probs.iter().enumerate() {
        if remaining_n == 0 {
            break;
        }
        // FP subtraction is not exact, so neither `remaining_mass <= p` at
        // the last positive category nor a nonpositive residual can be
        // relied on alone: the last index must absorb unconditionally
        // (else drift above p_last strands clients), and an early absorb
        // must require p > 0 (else drift below zero dumps clients on a
        // zero-probability neighbor).
        let c = if t + 1 == probs.len() || (p > 0.0 && remaining_mass <= p) {
            remaining_n
        } else {
            Sampler::binomial(&mut rng, remaining_n, (p / remaining_mass).clamp(0.0, 1.0))
        };
        if c > 0 {
            add(targets[t] as usize, c);
        }
        remaining_n -= c;
        remaining_mass -= p;
    }
    debug_assert_eq!(remaining_n, 0, "every client must land in the neighborhood");
}

/// Inversion sample over an unnormalized pmf that never lands on a
/// zero-probability category (floating-point slack falls back to the
/// last *positive* entry, mirroring the binomial chain's absorb rule in
/// [`sharded_assign_draws`]).
fn categorical_positive(rng: &mut StdRng, pmf: &[f64]) -> usize {
    let total: f64 = pmf.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    let mut last_positive = 0usize;
    for (t, &p) in pmf.iter().enumerate() {
        if p > 0.0 {
            last_positive = t;
            u -= p;
            if u <= 0.0 {
                return t;
            }
        }
    }
    last_positive
}

impl Engine for GraphEngine {
    type State = GraphState;

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn init_state(&self, rng: &mut StdRng) -> GraphState {
        GraphState::from_queues(crate::episode::sample_initial_queues(&self.config, rng))
    }

    fn empirical(&self, state: &GraphState) -> StateDist {
        StateDist::empirical(&state.queues, self.config.buffer)
    }

    fn step(
        &self,
        state: &mut GraphState,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        debug_assert_eq!(state.queues.len(), self.config.num_queues);
        let t0 = state.epoch as f64 * self.config.dt;
        state.epoch += 1;
        if !self.full_mesh {
            return self.step_sharded(state, rule, lambda, t0, rng);
        }
        // A faulted full-mesh epoch draws one extra `epoch_base` for the
        // crash/straggler streams *before* any other randomness; a
        // fault-free engine never reaches this draw, so it stays on the
        // aggregate engine's stream.
        let lambda = match &self.faults {
            Some(_) => {
                let epoch_base: u64 = rng.gen();
                self.apply_faults(state, epoch_base, t0, lambda)
            }
            None => lambda,
        };
        // Dispatcher identity is irrelevant when every accessible set
        // covers all M queues: take the aggregate engine's exact
        // hierarchical-multinomial path — same law, same RNG stream.
        let GraphState { queues, counts, mult, .. } = state;
        let (n, zs) = (self.config.num_clients, self.config.num_states());
        sample_client_assignments_into(n, zs, queues, rule, rng, counts);
        let m = queues.len();
        let scale = m as f64 * lambda / self.config.num_clients as f64;
        let (dropped, served) = simulate_birth_death_epoch(
            queues,
            counts,
            scale,
            &|j| self.config.service_rate * mult[j],
            &self.config,
            rng,
        );
        length_epoch_stats(queues.iter().copied(), counts, self.config.num_clients, dropped, served)
    }

    fn name(&self) -> &'static str {
        "graph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateEngine;
    use crate::episode::{run_episode, run_rng};
    use mflb_core::mdp::FixedRulePolicy;
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

    #[test]
    fn counts_sum_to_n_on_sparse_topologies() {
        let cfg = SystemConfig::paper().with_size(10_000, 36);
        for top in [
            Topology::Ring { radius: 1 },
            Topology::Ring { radius: 3 },
            Topology::Torus { radius: 1 },
            Topology::RandomRegular { degree: 4, seed: 3 },
        ] {
            let engine = GraphEngine::new(cfg.clone(), top.clone());
            let queues: Vec<usize> = (0..36).map(|j| j % 6).collect();
            let mut rng = StdRng::seed_from_u64(1);
            for rule in [DecisionRule::uniform(6, 2), jsq_rule()] {
                let counts = engine.sample_assignments(&queues, &rule, &mut rng);
                assert_eq!(counts.iter().sum::<u64>(), 10_000, "{top:?}");
            }
        }
    }

    #[test]
    fn node_assignments_stay_in_the_neighborhood() {
        let cfg = SystemConfig::paper().with_size(5_000, 20);
        let engine = GraphEngine::new(cfg, Topology::Ring { radius: 2 });
        let queues: Vec<usize> = (0..20).map(|j| (j * 3) % 6).collect();
        let mut counts = vec![0u64; 20];
        engine.sample_node_assignments(7, 1_000, &queues, &jsq_rule(), 99, &mut counts);
        assert_eq!(counts.iter().sum::<u64>(), 1_000);
        let nbrs = engine.neighborhood(7);
        for j in 0..20u32 {
            if !nbrs.contains(&j) {
                assert_eq!(counts[j as usize], 0, "queue {j} is outside A(7) = {nbrs:?}");
            }
        }
    }

    #[test]
    fn full_mesh_episode_is_bit_identical_to_aggregate() {
        let cfg = SystemConfig::paper().with_size(900, 30).with_dt(3.0);
        let graph = GraphEngine::new(cfg.clone(), Topology::FullMesh);
        let agg = AggregateEngine::new(cfg);
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let a = run_episode(&graph, &policy, 15, &mut run_rng(9, 0));
        let b = run_episode(&agg, &policy, 15, &mut run_rng(9, 0));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
        assert_eq!(a.mean_queue_len, b.mean_queue_len);
        assert_eq!(a.lambda_trace, b.lambda_trace);
    }

    #[test]
    fn covering_ring_takes_the_full_mesh_fast_path_too() {
        // 2·radius + 1 = M: the ring is a full mesh in disguise and must
        // take the bit-identical aggregate path.
        let cfg = SystemConfig::paper().with_size(200, 9).with_dt(2.0);
        let ring = GraphEngine::new(cfg.clone(), Topology::Ring { radius: 4 });
        let agg = AggregateEngine::new(cfg);
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let a = run_episode(&ring, &policy, 10, &mut run_rng(3, 1));
        let b = run_episode(&agg, &policy, 10, &mut run_rng(3, 1));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }

    #[test]
    fn ring_episode_runs_and_accumulates() {
        let cfg = SystemConfig::paper().with_size(400, 20).with_dt(2.0);
        let engine = GraphEngine::new(cfg.clone(), Topology::Ring { radius: 2 });
        let policy = FixedRulePolicy::new(DecisionRule::uniform(6, 2), "RND");
        let out = run_episode(&engine, &policy, 20, &mut run_rng(7, 0));
        assert_eq!(out.drops_per_epoch.len(), 20);
        assert!(out.total_drops >= 0.0);
        assert!(out.max_share_per_epoch.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert!((out.jobs_dropped as f64 / 20.0 - out.total_drops).abs() < 1e-9);
    }

    #[test]
    fn seeded_ring_episodes_reproduce() {
        let cfg = SystemConfig::paper().with_size(400, 20).with_dt(2.0);
        let engine = GraphEngine::new(cfg, Topology::RandomRegular { degree: 4, seed: 5 });
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let a = run_episode(&engine, &policy, 10, &mut run_rng(11, 3));
        let b = run_episode(&engine, &policy, 10, &mut run_rng(11, 3));
        assert_eq!(a.drops_per_epoch, b.drops_per_epoch);
    }

    #[test]
    fn sharded_episodes_are_bit_identical_across_shard_and_worker_counts() {
        // The sharded stream's defining property: the (shard size, worker
        // count) pair is pure execution detail. One shard on one thread,
        // many tiny shards on one thread, and many shards on many threads
        // must produce byte-identical episodes.
        let cfg = SystemConfig::paper().with_size(2_000, 60).with_dt(2.0);
        let policy = FixedRulePolicy::new(jsq_rule(), "JSQ(2)");
        let base = GraphEngine::new(cfg.clone(), Topology::Ring { radius: 2 });
        let reference = run_episode(
            &base.clone().with_shard_size(1 << 20).with_workers(1),
            &policy,
            12,
            &mut run_rng(21, 0),
        );
        for (shard_size, workers) in [(7usize, 1usize), (16, 3), (1, 4), (60, 2)] {
            let engine = base.clone().with_shard_size(shard_size).with_workers(workers);
            let out = run_episode(&engine, &policy, 12, &mut run_rng(21, 0));
            assert_eq!(
                out.drops_per_epoch, reference.drops_per_epoch,
                "shard_size={shard_size} workers={workers}"
            );
            assert_eq!(out.mean_queue_len, reference.mean_queue_len);
            assert_eq!(out.max_share_per_epoch, reference.max_share_per_epoch);
            assert_eq!(out.jobs_completed, reference.jobs_completed);
        }
    }

    #[test]
    fn per_queue_client_means_match_the_neighborhood_routing_law() {
        // Every client picks a uniform dispatcher, then routes through that
        // dispatcher's `node_probs`, so E[counts_j] = Σ_i (N/M)·probs_i[j].
        // Checked on every queue at five standard errors.
        let (n, m) = (4_000u64, 36usize);
        let cfg = SystemConfig::paper().with_size(n, m);
        let engine =
            GraphEngine::new(cfg.clone(), Topology::Torus { radius: 1 }).with_shard_size(13);
        let queues: Vec<usize> = (0..m).map(|j| (j * 7) % 6).collect();
        let rule = jsq_rule();
        let zs = cfg.num_states();
        let (mut hist, mut rates, mut support) = (vec![0.0; zs], vec![0.0; zs], Vec::new());
        let mut probs = vec![0.0; engine.neighborhood_size()];
        let mut expected = vec![0.0; m];
        for i in 0..m {
            engine.node_probs(i, &queues, &rule, &mut hist, &mut rates, &mut probs, &mut support);
            for (&j, &p) in engine.neighborhood(i).iter().zip(&probs) {
                expected[j as usize] += n as f64 / m as f64 * p;
            }
        }
        let reps = 400;
        let mut rng = StdRng::seed_from_u64(8);
        let (mut sum, mut sum_sq) = (vec![0.0; m], vec![0.0; m]);
        for _ in 0..reps {
            for (j, c) in
                engine.sample_assignments(&queues, &rule, &mut rng).into_iter().enumerate()
            {
                sum[j] += c as f64;
                sum_sq[j] += (c as f64).powi(2);
            }
        }
        for j in 0..m {
            let mean = sum[j] / reps as f64;
            let se = ((sum_sq[j] / reps as f64 - mean * mean) / reps as f64).sqrt();
            assert!(
                (mean - expected[j]).abs() <= 5.0 * se,
                "queue {j}: mean {mean} vs analytic {} (se {se})",
                expected[j]
            );
        }
    }

    #[test]
    fn rnd_marginals_match_the_mesh_but_jsq_localizes() {
        // Under RND, locality is invisible in law (each client lands on a
        // uniformly random queue either way): per-queue count means match
        // the aggregate engine's. Under JSQ they must differ, because a
        // locally short queue only attracts its own neighborhood.
        let cfg = SystemConfig::paper().with_size(4_000, 10);
        let ring = GraphEngine::new(cfg.clone(), Topology::Ring { radius: 1 });
        let agg = AggregateEngine::new(cfg);
        // Queue 0 is the unique empty queue; the rest are full.
        let mut queues = vec![5usize; 10];
        queues[0] = 0;
        let reps = 300;
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(4);
        let (mut rnd_ring, mut rnd_agg, mut jsq_ring, mut jsq_agg) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..reps {
            rnd_ring +=
                ring.sample_assignments(&queues, &DecisionRule::uniform(6, 2), &mut rng_a)[0];
            rnd_agg += agg.sample_assignments(&queues, &DecisionRule::uniform(6, 2), &mut rng_b)[0];
            jsq_ring += ring.sample_assignments(&queues, &jsq_rule(), &mut rng_a)[0];
            jsq_agg += agg.sample_assignments(&queues, &jsq_rule(), &mut rng_b)[0];
        }
        let (rnd_ring, rnd_agg) = (rnd_ring as f64 / reps as f64, rnd_agg as f64 / reps as f64);
        let (jsq_ring, jsq_agg) = (jsq_ring as f64 / reps as f64, jsq_agg as f64 / reps as f64);
        assert!(
            (rnd_ring - rnd_agg).abs() < 0.05 * rnd_agg,
            "RND means must agree: ring {rnd_ring} vs mesh {rnd_agg}"
        );
        // Mesh JSQ: every client seeing queue 0 routes there, P = 1−(9/10)²
        // = 0.19 → ≈760 clients. Ring: only the 3 neighborhoods containing
        // queue 0 can reach it (1200 clients, each P = 1−(2/3)² = 5/9)
        // → ≈667. The catchment cap must show up well beyond noise.
        assert!(
            jsq_ring < 0.93 * jsq_agg,
            "locality must cap the herd: ring {jsq_ring} vs mesh {jsq_agg}"
        );
    }

    #[test]
    fn zero_arrival_rate_only_drains_in_both_modes() {
        // Both stepping modes: the sharded sparse path and the full-mesh
        // fast path.
        for top in [Topology::Ring { radius: 1 }, Topology::FullMesh] {
            let cfg = SystemConfig::paper().with_size(100, 10).with_dt(50.0);
            let engine = GraphEngine::new(cfg, top.clone());
            let mut state = GraphState::from_queues(vec![5usize; 10]);
            let mut rng = StdRng::seed_from_u64(5);
            let stats = engine.step(&mut state, &DecisionRule::uniform(6, 2), 0.0, &mut rng);
            assert_eq!(stats.drops, 0.0, "{top:?}");
            assert!(
                state.queues().iter().all(|&z| z == 0),
                "queues must drain ({top:?}): {:?}",
                state.queues()
            );
        }
    }

    #[test]
    fn dyadic_home_counts_are_partition_independent_and_conserving() {
        let (m, n, base) = (37usize, 10_000u64, 0xFEED_u64);
        let mut whole = vec![0u64; m];
        dyadic_home_counts(base, n, 0, m, 0, m, &mut whole);
        assert_eq!(whole.iter().sum::<u64>(), n);
        // Recompute each sub-range independently: identical counts.
        for (a, b) in [(0usize, 5usize), (5, 6), (6, 20), (20, 37)] {
            let mut part = vec![0u64; b - a];
            dyadic_home_counts(base, n, 0, m, a, b, &mut part);
            assert_eq!(part, whole[a..b], "range [{a},{b})");
        }
    }
}
