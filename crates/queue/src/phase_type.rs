//! Phase-type (PH) service-time distributions and the `M/PH/1/B` queue —
//! the paper's §5 "non-exponential … service times" extension.
//!
//! A phase-type distribution `PH(α, S)` is the absorption time of a CTMC
//! with `k` transient phases, initial phase distribution `α` and
//! sub-generator `S` (absorption rates `s⁰ = −S·1`). The family is dense in
//! the distributions on `[0, ∞)` and closes the queueing model under
//! Markovian analysis: a queue with Poisson arrivals and PH service is
//! still a finite CTMC over `(queue length, service phase)`, so the paper's
//! *exact discretization* (Eq. 27–28) carries over verbatim — only the
//! generator grows from `B+2` to `B·k+2` states.
//!
//! Provided here:
//!
//! * [`PhaseType`] with the classic named members — exponential,
//!   Erlang-`k` (SCV `1/k < 1`) and hyperexponential `H₂` (SCV `> 1`) —
//!   plus [`PhaseType::fit_mean_scv`], the standard
//!   two-moment fit (Tijms' mixed-Erlang below SCV 1, balanced-means `H₂`
//!   above) used by the service-variability ablation,
//! * [`PhQueue`] — the `M/PH/1/B` queue: joint `(z, phase)` generator and
//!   drop rates and exact epoch expectation via the uniformization kernel;
//!   [`PhaseType::simulate_queue_epoch`] is its exact Gillespie simulation
//!   for the finite-system engine.

use crate::birth_death::EpochOutcome;
use crate::sampler::Sampler;
use mflb_linalg::{advance, dense_generator, expm, Lu, Mat, Move, EPOCH_TOL};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A phase-type distribution `PH(α, S)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseType {
    /// Initial phase distribution `α` (length `k`).
    init: Vec<f64>,
    /// Sub-generator `S` in row convention (`k × k`): `S[i][j]`, `j ≠ i`,
    /// is the rate of moving from phase `i` to phase `j`; `−S[i][i]` is the
    /// total exit rate of phase `i`.
    subgen: Mat,
    /// Absorption (service-completion) rates `s⁰ = −S·1` per phase.
    exit: Vec<f64>,
}

impl PhaseType {
    /// Creates a PH distribution from an initial distribution and a
    /// sub-generator.
    ///
    /// # Panics
    /// Panics if `α` is not a probability vector, `S` is not square of
    /// matching size, off-diagonal entries are negative, or any row sum is
    /// positive (absorption rates must be nonnegative).
    pub fn new(init: Vec<f64>, subgen: Mat) -> Self {
        let k = init.len();
        assert!(k >= 1, "need at least one phase");
        assert!(subgen.rows() == k && subgen.cols() == k, "sub-generator shape");
        let mass: f64 = init.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "initial phases must sum to 1 (got {mass})");
        assert!(init.iter().all(|&p| p >= -1e-12), "negative initial phase mass");
        let mut exit = vec![0.0f64; k];
        for i in 0..k {
            let mut row_sum = 0.0;
            for j in 0..k {
                let s = subgen[(i, j)];
                assert!(s.is_finite(), "non-finite rate");
                if i != j {
                    assert!(s >= 0.0, "negative off-diagonal rate at ({i},{j})");
                }
                row_sum += s;
            }
            assert!(
                row_sum <= 1e-9,
                "row {i} of S sums to {row_sum} > 0: absorption rate would be negative"
            );
            exit[i] = (-row_sum).max(0.0);
        }
        Self { init, subgen, exit }
    }

    /// The exponential distribution as a 1-phase PH (`SCV = 1`).
    pub fn exponential(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite());
        let mut s = Mat::zeros(1, 1);
        s[(0, 0)] = -rate;
        Self::new(vec![1.0], s)
    }

    /// Erlang-`k` with per-phase rate `rate`: mean `k/rate`, `SCV = 1/k`.
    pub fn erlang(k: usize, rate: f64) -> Self {
        assert!(k >= 1);
        assert!(rate > 0.0 && rate.is_finite());
        let mut s = Mat::zeros(k, k);
        for i in 0..k {
            s[(i, i)] = -rate;
            if i + 1 < k {
                s[(i, i + 1)] = rate;
            }
        }
        let mut init = vec![0.0; k];
        init[0] = 1.0;
        Self::new(init, s)
    }

    /// Hyperexponential: with probability `probs[i]` the service is
    /// exponential with `rates[i]` (`SCV ≥ 1`).
    pub fn hyperexponential(probs: &[f64], rates: &[f64]) -> Self {
        assert_eq!(probs.len(), rates.len());
        assert!(!probs.is_empty());
        assert!(rates.iter().all(|&r| r > 0.0 && r.is_finite()));
        let k = probs.len();
        let mut s = Mat::zeros(k, k);
        for i in 0..k {
            s[(i, i)] = -rates[i];
        }
        Self::new(probs.to_vec(), s)
    }

    /// Standard two-moment fit: returns a PH distribution with the given
    /// mean and squared coefficient of variation (`SCV = Var/mean²`).
    ///
    /// * `scv == 1` → exponential;
    /// * `scv < 1` → Tijms' mixture of Erlang-`(k−1)` and Erlang-`k` with a
    ///   common phase rate, where `k = ⌈1/scv⌉` (matches both moments
    ///   exactly for `scv ≥ 1/k`);
    /// * `scv > 1` → balanced-means two-phase hyperexponential `H₂`
    ///   (matches both moments exactly).
    ///
    /// # Panics
    /// Panics on non-positive mean or SCV.
    pub fn fit_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite());
        assert!(scv > 0.0 && scv.is_finite());
        if (scv - 1.0).abs() < 1e-12 {
            return Self::exponential(1.0 / mean);
        }
        if scv > 1.0 {
            // Balanced-means H₂: p₁/μ₁ = p₂/μ₂ = mean/2.
            let p1 = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
            let p2 = 1.0 - p1;
            let mu1 = 2.0 * p1 / mean;
            let mu2 = 2.0 * p2 / mean;
            return Self::hyperexponential(&[p1, p2], &[mu1, mu2]);
        }
        // Mixed Erlang(k−1, k): k such that 1/k ≤ scv ≤ 1/(k−1).
        let k = (1.0 / scv).ceil() as usize;
        let kf = k as f64;
        if k == 1 {
            return Self::exponential(1.0 / mean);
        }
        let p = (kf * scv - (kf * (1.0 + scv) - kf * kf * scv).sqrt()) / (1.0 + scv);
        let mu = (kf - p) / mean;
        // Series of k phases at rate μ; with probability p skip the first
        // phase (leaving k−1 stages), else traverse all k.
        let mut s = Mat::zeros(k, k);
        for i in 0..k {
            s[(i, i)] = -mu;
            if i + 1 < k {
                s[(i, i + 1)] = mu;
            }
        }
        let mut init = vec![0.0; k];
        init[0] = 1.0 - p;
        init[1] = p;
        Self::new(init, s)
    }

    /// Number of phases `k`.
    pub fn num_phases(&self) -> usize {
        self.init.len()
    }

    /// Initial phase distribution `α`.
    pub fn init(&self) -> &[f64] {
        &self.init
    }

    /// Sub-generator `S` (row convention).
    pub(crate) fn subgen(&self) -> &Mat {
        &self.subgen
    }

    /// Absorption rates `s⁰` per phase.
    pub(crate) fn exit_rates(&self) -> &[f64] {
        &self.exit
    }

    /// Raw moments via `(−S)⁻¹`: `E[T] = α·(−S)⁻¹·1`,
    /// `E[T²] = 2·α·(−S)⁻²·1`.
    fn first_two_moments(&self) -> (f64, f64) {
        let k = self.num_phases();
        let neg_s = self.subgen.scaled(-1.0);
        let lu = Lu::new(&neg_s);
        let x = lu
            .solve_vec(&vec![1.0; k])
            .expect("sub-generator of a proper PH distribution is nonsingular");
        let y = lu.solve_vec(&x).expect("nonsingular");
        let m1: f64 = self.init.iter().zip(&x).map(|(a, b)| a * b).sum();
        let m2: f64 = 2.0 * self.init.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>();
        (m1, m2)
    }

    /// Mean service time `E[T]`.
    pub fn mean(&self) -> f64 {
        self.first_two_moments().0
    }

    /// Variance `Var[T]`.
    pub fn variance(&self) -> f64 {
        let (m1, m2) = self.first_two_moments();
        m2 - m1 * m1
    }

    /// Squared coefficient of variation `Var[T]/E[T]²`.
    pub fn scv(&self) -> f64 {
        let (m1, m2) = self.first_two_moments();
        m2 / (m1 * m1) - 1.0
    }

    /// Distribution function `F(t) = 1 − α·exp(S·t)·1`.
    pub fn cdf(&self, t: f64) -> f64 {
        assert!(t >= 0.0);
        if t == 0.0 {
            return 0.0;
        }
        let e = expm(&self.subgen.scaled(t));
        let survival: f64 = (0..self.num_phases())
            .map(|i| {
                let row_sum: f64 = e.row(i).iter().sum();
                self.init[i] * row_sum
            })
            .sum();
        (1.0 - survival).clamp(0.0, 1.0)
    }

    /// Samples a starting phase `∼ α`.
    pub fn sample_phase<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u: f64 = rng.gen();
        for (i, &p) in self.init.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return i;
            }
        }
        self.num_phases() - 1
    }

    /// Samples one service time by exact simulation of the phase process.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut phase = self.sample_phase(rng);
        let mut t = 0.0;
        loop {
            let total = -self.subgen[(phase, phase)];
            debug_assert!(total > 0.0, "trapped in a zero-exit phase");
            t += Sampler::exponential(rng, total);
            // Absorb with probability exit/total, else jump to a phase.
            let mut u = rng.gen::<f64>() * total;
            u -= self.exit[phase];
            if u <= 0.0 {
                return t;
            }
            let mut next = phase;
            for j in 0..self.num_phases() {
                if j == phase {
                    continue;
                }
                u -= self.subgen[(phase, j)];
                if u <= 0.0 {
                    next = j;
                    break;
                }
            }
            phase = next;
        }
    }

    /// Exact Gillespie simulation of one epoch of length `dt` of an
    /// `M/PH/1/B` queue with this service law, arrival rate `arrival_rate`
    /// and buffer `buffer`, from a joint state, counting drops.
    pub fn simulate_queue_epoch<R: Rng + ?Sized>(
        &self,
        arrival_rate: f64,
        buffer: usize,
        state: PhQueueState,
        dt: f64,
        rng: &mut R,
    ) -> (PhQueueState, EpochOutcome) {
        debug_assert!(state.len <= buffer);
        let k = self.num_phases();
        let s = &self.subgen;
        let exit = &self.exit;
        let lam = arrival_rate;
        let mut z = state.len;
        let mut phase = if z > 0 { state.phase } else { 0 };
        let mut t = 0.0;
        let mut out = EpochOutcome::default();
        loop {
            let service_total = if z > 0 { -s[(phase, phase)] } else { 0.0 };
            let total = lam + service_total;
            if total <= 0.0 {
                break;
            }
            t += Sampler::exponential(rng, total);
            if t > dt {
                break;
            }
            let mut u = rng.gen::<f64>() * total;
            if u < lam {
                // Arrival.
                if z == buffer {
                    out.drops += 1;
                } else {
                    if z == 0 {
                        phase = self.sample_phase(rng);
                    }
                    z += 1;
                    out.accepted += 1;
                }
                continue;
            }
            u -= lam;
            // Service-phase event: absorption or internal jump.
            if u < exit[phase] {
                z -= 1;
                out.served += 1;
                phase = if z > 0 { self.sample_phase(rng) } else { 0 };
                continue;
            }
            u -= exit[phase];
            for j in 0..k {
                if j == phase {
                    continue;
                }
                u -= s[(phase, j)];
                if u <= 0.0 {
                    phase = j;
                    break;
                }
            }
        }
        out.final_state = z;
        (PhQueueState { len: z, phase: if z > 0 { phase } else { 0 } }, out)
    }
}

/// Joint state of an `M/PH/1/B` queue: the queue length and, when busy,
/// the service phase of the job in service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhQueueState {
    /// Queue length `z ∈ {0, …, B}`.
    pub len: usize,
    /// Service phase of the in-service job; meaningful only when `len ≥ 1`
    /// (kept `0` when idle).
    pub phase: usize,
}

impl PhQueueState {
    /// The empty-queue state.
    pub fn empty() -> Self {
        Self { len: 0, phase: 0 }
    }
}

/// A finite-buffer queue with Poisson arrivals (rate frozen per epoch) and
/// phase-type service, over joint states `{0} ∪ {1..B}×{phases}`.
#[derive(Debug, Clone)]
pub struct PhQueue {
    /// Arrival rate λ during the epoch.
    pub arrival_rate: f64,
    /// Service-time distribution.
    pub service: PhaseType,
    /// Buffer capacity B.
    pub buffer: usize,
}

impl PhQueue {
    /// Creates the queue model.
    ///
    /// # Panics
    /// Panics on a negative arrival rate or zero-capacity buffer.
    pub fn new(arrival_rate: f64, service: PhaseType, buffer: usize) -> Self {
        assert!(arrival_rate >= 0.0 && arrival_rate.is_finite());
        assert!(buffer >= 1);
        Self { arrival_rate, service, buffer }
    }

    /// Number of joint CTMC states `1 + B·k`.
    pub fn num_states(&self) -> usize {
        1 + self.buffer * self.service.num_phases()
    }

    /// Flat index of a joint state (`0` = empty).
    #[inline]
    pub(crate) fn state_index(&self, state: PhQueueState) -> usize {
        if state.len == 0 {
            0
        } else {
            debug_assert!(state.len <= self.buffer);
            debug_assert!(state.phase < self.service.num_phases());
            1 + (state.len - 1) * self.service.num_phases() + state.phase
        }
    }

    /// Decodes a flat index back into a joint state.
    pub fn decode_index(&self, idx: usize) -> PhQueueState {
        if idx == 0 {
            return PhQueueState::empty();
        }
        let k = self.service.num_phases();
        let rem = idx - 1;
        PhQueueState { len: 1 + rem / k, phase: rem % k }
    }

    /// Row-convention generator over the joint states (arrivals at a full
    /// buffer are lost without a state change).
    pub fn generator(&self) -> Mat {
        dense_generator(self.num_states(), &self.moves())
    }

    /// [`PhQueue::generator`] as the quasi-birth–death move list the epoch
    /// kernel runs on.
    pub fn moves(&self) -> Vec<Move> {
        let k = self.service.num_phases();
        let lam = self.arrival_rate;
        let alpha = self.service.init();
        let s = self.service.subgen();
        let exit = self.service.exit_rates();
        let at = |len, phase| self.state_index(PhQueueState { len, phase });
        let mut moves = Vec::new();
        // From empty: an arrival starts service in phase j ~ α.
        for j in 0..k {
            moves.push((0, at(1, j), lam * alpha[j]));
        }
        for z in 1..=self.buffer {
            for i in 0..k {
                let from = at(z, i);
                // Arrival: queue grows, in-service phase unchanged.
                if z < self.buffer {
                    moves.push((from, at(z + 1, i), lam));
                }
                // Internal phase changes.
                for j in (0..k).filter(|&j| j != i) {
                    moves.push((from, at(z, j), s[(i, j)]));
                }
                // Service completion: next job (if any) starts in phase ~ α.
                if z == 1 {
                    moves.push((from, 0, exit[i]));
                } else {
                    for j in 0..k {
                        moves.push((from, at(z - 1, j), exit[i] * alpha[j]));
                    }
                }
            }
        }
        moves
    }

    /// The drop rates of the epoch kernel: arrivals at a full buffer, in
    /// every service phase.
    pub fn drop_rates(&self) -> Vec<(usize, f64)> {
        (0..self.service.num_phases())
            .map(|i| {
                (self.state_index(PhQueueState { len: self.buffer, phase: i }), self.arrival_rate)
            })
            .collect()
    }

    /// Exact end-of-epoch expectation from a *joint* start distribution
    /// over the `1 + B·k` states: returns `(joint end distribution,
    /// expected drops)`.
    ///
    /// # Panics
    /// Panics if the start vector has the wrong length.
    pub fn epoch_expectation(&self, joint_start: &[f64], dt: f64) -> (Vec<f64>, f64) {
        let n = self.num_states();
        assert_eq!(joint_start.len(), n, "joint start distribution length");
        let mut v = joint_start.to_vec();
        let drops = advance(&self.moves(), &self.drop_rates(), &mut v, dt, EPOCH_TOL).drops;
        (v, drops)
    }

    /// Stationary distribution of the joint `(length, phase)` chain
    /// (fixed arrival rate), via the CTMC stationary solver.
    ///
    /// # Panics
    /// Panics if the chain has no unique stationary distribution (e.g.
    /// zero service rates).
    pub fn stationary(&self) -> Vec<f64> {
        mflb_linalg::ctmc_stationary(&self.generator())
            .expect("M/PH/1/B chain is irreducible for positive rates")
    }

    /// Stationary queue-**length** marginal (sums the phase dimension).
    pub(crate) fn stationary_lengths(&self) -> Vec<f64> {
        let joint = self.stationary();
        let k = self.service.num_phases();
        let mut lengths = vec![0.0; self.buffer + 1];
        lengths[0] = joint[0];
        for z in 1..=self.buffer {
            for i in 0..k {
                lengths[z] += joint[1 + (z - 1) * k + i];
            }
        }
        lengths
    }

    /// Stationary blocking probability: the long-run fraction of arrivals
    /// dropped. By PASTA (arrivals are Poisson) this is the stationary
    /// probability of a full buffer.
    pub fn stationary_blocking_probability(&self) -> f64 {
        *self.stationary_lengths().last().unwrap()
    }

    /// Exact Gillespie simulation of one epoch of length `dt` from a joint
    /// state, counting drops (see [`PhaseType::simulate_queue_epoch`]).
    pub fn simulate_epoch<R: Rng + ?Sized>(
        &self,
        state: PhQueueState,
        dt: f64,
        rng: &mut R,
    ) -> (PhQueueState, EpochOutcome) {
        self.service.simulate_queue_epoch(self.arrival_rate, self.buffer, state, dt, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::birth_death::BirthDeathQueue;
    use mflb_linalg::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erlang_moments() {
        let ph = PhaseType::erlang(4, 2.0);
        assert!((ph.mean() - 2.0).abs() < 1e-12);
        assert!((ph.scv() - 0.25).abs() < 1e-12);
        assert!((ph.variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_one_phase_scv_one() {
        let ph = PhaseType::exponential(3.0);
        assert_eq!(ph.num_phases(), 1);
        assert!((ph.mean() - 1.0 / 3.0).abs() < 1e-12);
        assert!((ph.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hyperexponential_moments_match_mixture_formulas() {
        let (p, r) = ([0.3, 0.7], [0.5, 2.0]);
        let ph = PhaseType::hyperexponential(&p, &r);
        let m1 = p[0] / r[0] + p[1] / r[1];
        let m2 = 2.0 * (p[0] / (r[0] * r[0]) + p[1] / (r[1] * r[1]));
        assert!((ph.mean() - m1).abs() < 1e-12);
        assert!((ph.variance() - (m2 - m1 * m1)).abs() < 1e-12);
        assert!(ph.scv() > 1.0);
    }

    #[test]
    fn fit_matches_both_moments_across_scv_range() {
        for &scv in &[0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0] {
            for &mean in &[0.5, 1.0, 3.0] {
                let ph = PhaseType::fit_mean_scv(mean, scv);
                assert!((ph.mean() - mean).abs() < 1e-9, "scv={scv} mean: {} vs {mean}", ph.mean());
                assert!((ph.scv() - scv).abs() < 1e-9, "scv fit: {} vs {scv}", ph.scv());
            }
        }
    }

    #[test]
    fn fit_scv_below_half_uses_erlang_mixture() {
        let ph = PhaseType::fit_mean_scv(1.0, 1.0 / 3.0);
        assert_eq!(ph.num_phases(), 3);
        // 1/k ≤ scv exactly at k=3: pure Erlang-3, p ≈ 0.
        assert!((ph.init()[0] - 1.0).abs() < 1e-9, "init {:?}", ph.init());
    }

    #[test]
    fn cdf_is_monotone_and_proper() {
        let ph = PhaseType::fit_mean_scv(1.0, 2.5);
        assert_eq!(ph.cdf(0.0), 0.0);
        let mut last = 0.0;
        for i in 1..=30 {
            let f = ph.cdf(i as f64 * 0.4);
            assert!(f >= last - 1e-12, "CDF must be nondecreasing");
            last = f;
        }
        assert!(ph.cdf(60.0) > 0.999);
    }

    #[test]
    fn exponential_cdf_closed_form() {
        let ph = PhaseType::exponential(1.5);
        for &t in &[0.1, 0.5, 1.0, 2.0] {
            let expect = 1.0 - (-1.5f64 * t).exp();
            assert!((ph.cdf(t) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_analytic_mean_and_variance() {
        let ph = PhaseType::fit_mean_scv(2.0, 3.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Summary::new();
        for _ in 0..200_000 {
            s.push(ph.sample(&mut rng));
        }
        assert!((s.mean() - 2.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.variance() - 12.0).abs() < 0.8, "var {}", s.variance());
    }

    #[test]
    fn erlang_sampling_matches_moments() {
        let ph = PhaseType::erlang(3, 3.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = Summary::new();
        for _ in 0..100_000 {
            s.push(ph.sample(&mut rng));
        }
        assert!((s.mean() - 1.0).abs() < 0.01);
        assert!((s.variance() - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn ph_queue_state_index_roundtrip() {
        let q = PhQueue::new(0.9, PhaseType::erlang(3, 3.0), 5);
        assert_eq!(q.num_states(), 16);
        for idx in 0..q.num_states() {
            let st = q.decode_index(idx);
            assert_eq!(q.state_index(st), idx);
        }
    }

    #[test]
    fn exponential_ph_queue_reduces_to_birth_death() {
        // With k=1 the joint chain *is* the birth–death chain; the epoch
        // expectation must agree with the M/M/1/B implementation exactly.
        let (lam, alpha, b, dt) = (1.1, 0.8, 5, 3.0);
        let phq = PhQueue::new(lam, PhaseType::exponential(alpha), b);
        let bd = BirthDeathQueue::new(lam, alpha, b);
        assert_eq!(phq.num_states(), b + 1);
        for z in 0..=b {
            let mut start = vec![0.0; b + 1];
            start[z] = 1.0;
            let (ph_dist, ph_drops) = phq.epoch_expectation(&start, dt);
            let (bd_dist, bd_drops) = bd.epoch_expectation(z, dt);
            for (a, e) in ph_dist.iter().zip(bd_dist.iter()) {
                assert!((a - e).abs() < 1e-10, "z={z}: {a} vs {e}");
            }
            assert!((ph_drops - bd_drops).abs() < 1e-10);
        }
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let q = PhQueue::new(0.7, PhaseType::fit_mean_scv(1.0, 2.0), 4);
        let g = q.generator();
        for i in 0..g.rows() {
            let s: f64 = g.row(i).iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn epoch_expectation_preserves_mass_and_bounds_drops() {
        let q = PhQueue::new(1.3, PhaseType::erlang(2, 2.0), 5);
        let n = q.num_states();
        let start = vec![1.0 / n as f64; n];
        for &dt in &[0.5, 2.0, 8.0] {
            let (dist, drops) = q.epoch_expectation(&start, dt);
            let mass: f64 = dist.iter().sum();
            assert!((mass - 1.0).abs() < 1e-9);
            assert!(dist.iter().all(|&p| p >= -1e-12));
            assert!(drops >= 0.0 && drops <= 1.3 * dt + 1e-9);
        }
    }

    #[test]
    fn gillespie_end_state_matches_expm() {
        let q = PhQueue::new(0.9, PhaseType::fit_mean_scv(1.0, 0.5), 4);
        let dt = 2.5;
        let start = PhQueueState { len: 2, phase: 0 };
        let mut start_dist = vec![0.0; q.num_states()];
        start_dist[q.state_index(start)] = 1.0;
        let (analytic, analytic_drops) = q.epoch_expectation(&start_dist, dt);
        let mut rng = StdRng::seed_from_u64(3);
        let runs = 150_000;
        let mut counts = vec![0.0; q.num_states()];
        let mut drops = Summary::new();
        for _ in 0..runs {
            let (end, out) = q.simulate_epoch(start, dt, &mut rng);
            counts[q.state_index(end)] += 1.0;
            drops.push(out.drops as f64);
        }
        for c in &mut counts {
            *c /= runs as f64;
        }
        for (e, a) in counts.iter().zip(analytic.iter()) {
            assert!((e - a).abs() < 6e-3, "{e} vs {a}");
        }
        assert!(
            (drops.mean() - analytic_drops).abs() < 4.0 * drops.std_err() + 1e-3,
            "drops {} vs {analytic_drops}",
            drops.mean()
        );
    }

    #[test]
    fn gillespie_conservation_law() {
        let q = PhQueue::new(1.5, PhaseType::fit_mean_scv(1.0, 3.0), 4);
        let mut rng = StdRng::seed_from_u64(4);
        for len in 0..=4usize {
            let start = PhQueueState { len, phase: 0 };
            for _ in 0..300 {
                let (end, o) = q.simulate_epoch(start, 3.0, &mut rng);
                assert_eq!(end.len as i64, len as i64 + o.accepted as i64 - o.served as i64);
                assert!(end.len <= 4);
                if end.len > 0 {
                    assert!(end.phase < q.service.num_phases());
                }
            }
        }
    }

    #[test]
    fn no_arrivals_drains_and_never_drops() {
        let q = PhQueue::new(0.0, PhaseType::erlang(2, 4.0), 5);
        let mut rng = StdRng::seed_from_u64(5);
        let (end, o) = q.simulate_epoch(PhQueueState { len: 5, phase: 1 }, 100.0, &mut rng);
        assert_eq!(end.len, 0);
        assert_eq!(o.drops, 0);
        assert_eq!(o.served, 5);
    }

    #[test]
    fn low_variability_service_drops_less_under_load() {
        // Classic queueing fact: at equal mean service time and load, lower
        // service variability yields less blocking. Compare Erlang-4
        // (SCV .25) against H2 (SCV 4) in steady operation.
        let dt = 200.0;
        let mut drops_by_scv = Vec::new();
        for &scv in &[0.25, 4.0] {
            let q = PhQueue::new(0.95, PhaseType::fit_mean_scv(1.0, scv), 5);
            let n = q.num_states();
            let mut start = vec![0.0; n];
            start[0] = 1.0;
            let (_, d) = q.epoch_expectation(&start, dt);
            drops_by_scv.push(d);
        }
        assert!(
            drops_by_scv[0] < drops_by_scv[1],
            "Erlang drops {} must be below H2 drops {}",
            drops_by_scv[0],
            drops_by_scv[1]
        );
    }

    #[test]
    fn stationary_reduces_to_mm1b_for_one_phase() {
        let (lam, alpha, b) = (0.8, 1.0, 5);
        let phq = PhQueue::new(lam, PhaseType::exponential(alpha), b);
        let bd = BirthDeathQueue::new(lam, alpha, b);
        let ph_pi = phq.stationary_lengths();
        for (a, e) in ph_pi.iter().zip(bd.stationary().iter()) {
            assert!((a - e).abs() < 1e-10, "{a} vs {e}");
        }
        assert!(
            (phq.stationary_blocking_probability() - bd.stationary_blocking_probability()).abs()
                < 1e-10
        );
    }

    #[test]
    fn stationary_blocking_grows_with_service_variability() {
        // Equal load, equal mean service time: SCV 4 blocks more than
        // SCV 0.25 in steady state (the PH analogue of the classic
        // variability penalty).
        let p = |scv: f64| {
            PhQueue::new(0.9, PhaseType::fit_mean_scv(1.0, scv), 5)
                .stationary_blocking_probability()
        };
        assert!(p(0.25) < p(1.0), "{} vs {}", p(0.25), p(1.0));
        assert!(p(1.0) < p(4.0), "{} vs {}", p(1.0), p(4.0));
    }

    #[test]
    fn stationary_matches_long_epoch_expectation() {
        let q = PhQueue::new(0.7, PhaseType::fit_mean_scv(1.0, 2.0), 4);
        let n = q.num_states();
        let mut start = vec![0.0; n];
        start[0] = 1.0;
        let (transient, _) = q.epoch_expectation(&start, 400.0);
        for (a, e) in transient.iter().zip(q.stationary().iter()) {
            assert!((a - e).abs() < 1e-7, "{a} vs {e}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_initial_distribution() {
        let mut s = Mat::zeros(2, 2);
        s[(0, 0)] = -1.0;
        s[(1, 1)] = -1.0;
        PhaseType::new(vec![0.7, 0.7], s);
    }

    #[test]
    #[should_panic(expected = "absorption rate")]
    fn rejects_positive_row_sum() {
        let mut s = Mat::zeros(1, 1);
        s[(0, 0)] = 1.0; // not a sub-generator
        PhaseType::new(vec![1.0], s);
    }
}
