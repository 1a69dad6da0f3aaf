//! The paper's per-queue model: a finite-buffer birth–death CTMC with
//! packet-drop accounting.
//!
//! Within a decision epoch `[t, t+Δt)` every queue `j` evolves as an
//! independent birth–death chain with *frozen* arrival rate `λ_j` (fixed by
//! the clients' epoch-start decisions) and service rate `α` (Algorithm 1,
//! lines 15–19). Arrivals hitting a full buffer are *dropped* and counted —
//! they do not change the state. This module provides:
//!
//! * [`BirthDeathQueue::simulate_epoch`] — exact Gillespie simulation of
//!   one epoch, returning the end state and the number of drops,
//! * [`BirthDeathQueue::generator`] — the row-convention generator used by
//!   the analytic transient solvers,
//! * [`BirthDeathQueue::epoch_expectation`] — the exact one-epoch advance
//!   (Eq. 28) with its expected drops, by uniformization,
//! * [`BirthDeathQueue::extended_generator_column`] — the paper's extended
//!   rate matrix `Q̄` (Eq. 27) in *column* convention, which simultaneously
//!   tracks the state distribution and the accumulated expected drops (the
//!   Padé reference of the epoch),
//! * [`BirthDeathQueue::stationary`] — the analytic M/M/1/B stationary
//!   distribution (test oracle).

use crate::sampler::Sampler;
use mflb_linalg::{advance, dense_generator, Mat, Move, EPOCH_TOL};
use rand::Rng;

/// A finite-buffer `M/M/1/B` queue with fixed rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirthDeathQueue {
    /// Arrival rate λ (jobs per time unit) during the epoch.
    pub arrival_rate: f64,
    /// Service rate α (jobs per time unit).
    pub service_rate: f64,
    /// Buffer capacity B: states are `{0, 1, …, B}`.
    pub buffer: usize,
}

/// Result of simulating one decision epoch on a single queue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochOutcome {
    /// Queue length at the end of the epoch.
    pub final_state: usize,
    /// Number of packets dropped (arrivals while the buffer was full).
    pub drops: u64,
    /// Number of packets accepted into the queue.
    pub accepted: u64,
    /// Number of service completions.
    pub served: u64,
}

impl BirthDeathQueue {
    /// Creates a queue model.
    ///
    /// # Panics
    /// Panics on negative rates or a zero-capacity buffer.
    pub fn new(arrival_rate: f64, service_rate: f64, buffer: usize) -> Self {
        assert!(arrival_rate >= 0.0 && arrival_rate.is_finite());
        assert!(service_rate >= 0.0 && service_rate.is_finite());
        assert!(buffer >= 1, "buffer must hold at least one job");
        Self { arrival_rate, service_rate, buffer }
    }

    /// Number of states `B + 1`.
    pub fn num_states(&self) -> usize {
        self.buffer + 1
    }

    /// Exact Gillespie simulation of one epoch of length `dt` starting from
    /// `state`.
    ///
    /// The arrival clock always runs (arrivals at a full buffer are counted
    /// as drops); the service clock runs only while the queue is nonempty.
    pub fn simulate_epoch<R: Rng + ?Sized>(
        &self,
        state: usize,
        dt: f64,
        rng: &mut R,
    ) -> EpochOutcome {
        debug_assert!(state <= self.buffer);
        let mut z = state;
        let mut t = 0.0;
        let mut out = EpochOutcome { final_state: state, ..Default::default() };
        let lam = self.arrival_rate;
        let alpha = self.service_rate;
        loop {
            let down = if z > 0 { alpha } else { 0.0 };
            let total = lam + down;
            if total <= 0.0 {
                break;
            }
            t += Sampler::exponential(rng, total);
            if t > dt {
                break;
            }
            if rng.gen::<f64>() * total < lam {
                // Arrival event.
                if z == self.buffer {
                    out.drops += 1;
                } else {
                    z += 1;
                    out.accepted += 1;
                }
            } else {
                // Service completion.
                z -= 1;
                out.served += 1;
            }
        }
        out.final_state = z;
        out
    }

    /// Row-convention generator of the queue-length chain (drops ignored:
    /// the chain simply has no up-transition out of `B`).
    pub fn generator(&self) -> Mat {
        dense_generator(self.num_states(), &self.moves())
    }

    /// [`BirthDeathQueue::generator`] as the move list the epoch kernel
    /// runs on: arrivals `z → z+1` below `B`, departures `z → z−1`.
    pub fn moves(&self) -> Vec<Move> {
        let mut moves = Vec::with_capacity(2 * self.buffer);
        for z in 0..self.num_states() {
            if z < self.buffer {
                moves.push((z, z + 1, self.arrival_rate));
            }
            if z > 0 {
                moves.push((z, z - 1, self.service_rate));
            }
        }
        moves
    }

    /// The paper's extended rate matrix `Q̄` (Eq. 27) in **column**
    /// convention, size `(B+2) × (B+2)`.
    ///
    /// Column convention means the probability column-vector evolves as
    /// `Ṗ = Q̄·P`; the extra last row accumulates the expected drops
    /// `Ḋ = λ·P_B`. `exp(Q̄·Δt)·[e_z; 0]` yields the end-of-epoch state
    /// distribution in its first `B+1` entries and the expected number of
    /// drops in its last entry.
    pub fn extended_generator_column(&self) -> Mat {
        let n = self.num_states();
        let mut q = Mat::zeros(n + 1, n + 1);
        // Column convention: entry (i, j) is the rate from state j to i.
        for z in 0..n {
            if z < self.buffer {
                // Arrival z -> z+1.
                q[(z + 1, z)] += self.arrival_rate;
                q[(z, z)] -= self.arrival_rate;
            }
            if z > 0 {
                // Departure z -> z-1.
                q[(z - 1, z)] += self.service_rate;
                q[(z, z)] -= self.service_rate;
            }
        }
        // Drop accumulator: Ḋ = λ · P_B (mass is NOT removed from state B;
        // D is an additive functional, not a chain state).
        q[(n, n - 1)] = self.arrival_rate;
        q
    }

    /// The drop rates of the epoch kernel: arrivals at the full buffer.
    pub fn drop_rates(&self) -> Vec<(usize, f64)> {
        vec![(self.buffer, self.arrival_rate)]
    }

    /// Expected end-of-epoch distribution and drops from a deterministic
    /// start state: Eq. 28's `exp(Q̄·Δt)·[e_state; 0]`, computed by the
    /// uniformization kernel ([`mflb_linalg::advance`]) to
    /// [`mflb_linalg::EPOCH_TOL`].
    ///
    /// Returns `(distribution over {0..B}, expected drops)`.
    pub fn epoch_expectation(&self, state: usize, dt: f64) -> (Vec<f64>, f64) {
        debug_assert!(state <= self.buffer);
        let mut v = vec![0.0; self.num_states()];
        v[state] = 1.0;
        let drops = advance(&self.moves(), &self.drop_rates(), &mut v, dt, EPOCH_TOL).drops;
        (v, drops)
    }

    /// Analytic stationary distribution of the M/M/1/B queue
    /// (`π_k ∝ ρ^k`, ρ = λ/α), the classic closed form used as a test
    /// oracle.
    ///
    /// # Panics
    /// Panics if the service rate is zero (no stationary distribution).
    pub fn stationary(&self) -> Vec<f64> {
        assert!(self.service_rate > 0.0, "stationary requires positive service rate");
        let rho = self.arrival_rate / self.service_rate;
        let n = self.num_states();
        if (rho - 1.0).abs() < 1e-12 {
            return vec![1.0 / n as f64; n];
        }
        let mut pi: Vec<f64> = (0..n).map(|k| rho.powi(k as i32)).collect();
        let total: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= total;
        }
        pi
    }

    /// Stationary drop (blocking) probability `π_B` — by PASTA, the
    /// long-run fraction of arrivals that are dropped.
    pub fn stationary_blocking_probability(&self) -> f64 {
        *self.stationary().last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_linalg::stats::Summary;
    use mflb_linalg::transient_distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epoch_conservation_law() {
        // state_end = state_start + accepted - served, always.
        let q = BirthDeathQueue::new(1.3, 0.9, 5);
        let mut rng = StdRng::seed_from_u64(1);
        for start in 0..=5usize {
            for _ in 0..200 {
                let o = q.simulate_epoch(start, 4.0, &mut rng);
                assert_eq!(
                    o.final_state as i64,
                    start as i64 + o.accepted as i64 - o.served as i64
                );
                assert!(o.final_state <= 5);
            }
        }
    }

    #[test]
    fn no_arrivals_drains_queue() {
        let q = BirthDeathQueue::new(0.0, 2.0, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let o = q.simulate_epoch(5, 100.0, &mut rng);
        assert_eq!(o.final_state, 0);
        assert_eq!(o.drops, 0);
        assert_eq!(o.served, 5);
    }

    #[test]
    fn saturated_queue_drops_at_arrival_rate() {
        // With no service, a full queue drops every arrival: E[drops] = λ·Δt.
        let q = BirthDeathQueue::new(3.0, 0.0, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(q.simulate_epoch(4, 2.0, &mut rng).drops as f64);
        }
        assert!((s.mean() - 6.0).abs() < 0.1, "mean drops {}", s.mean());
    }

    #[test]
    fn empirical_end_state_matches_expm_prediction() {
        let q = BirthDeathQueue::new(0.9, 1.0, 5);
        let dt = 3.0;
        let start = 0usize;
        let (analytic, _) = q.epoch_expectation(start, dt);
        let mut rng = StdRng::seed_from_u64(4);
        let n_runs = 200_000;
        let mut counts = vec![0.0; q.num_states()];
        for _ in 0..n_runs {
            counts[q.simulate_epoch(start, dt, &mut rng).final_state] += 1.0;
        }
        for c in &mut counts {
            *c /= n_runs as f64;
        }
        for (e, a) in counts.iter().zip(analytic.iter()) {
            assert!((e - a).abs() < 5e-3, "{e} vs {a}");
        }
    }

    #[test]
    fn empirical_drops_match_extended_generator() {
        let q = BirthDeathQueue::new(2.0, 1.0, 3); // overloaded -> real drops
        let dt = 5.0;
        let start = 2usize;
        let (_, expected_drops) = q.epoch_expectation(start, dt);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Summary::new();
        for _ in 0..100_000 {
            s.push(q.simulate_epoch(start, dt, &mut rng).drops as f64);
        }
        assert!(
            (s.mean() - expected_drops).abs() < 0.05,
            "empirical {} vs analytic {expected_drops}",
            s.mean()
        );
    }

    #[test]
    fn extended_generator_preserves_distribution_block() {
        // The kernel's distribution must match the first B+1 entries of the
        // Padé exp(Q̄ t)·[e_z;0] (drops accounting must not disturb the
        // chain).
        let q = BirthDeathQueue::new(1.7, 0.8, 6);
        let dt = 2.5;
        for z in 0..=6usize {
            let (dist, _) = q.epoch_expectation(z, dt);
            let mut e_z = vec![0.0; 8];
            e_z[z] = 1.0;
            let reference =
                mflb_linalg::expm(&q.extended_generator_column().scaled(dt)).matvec(&e_z);
            for (a, b) in dist.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-9, "z={z}: {a} vs {b}");
            }
            let mass: f64 = dist.iter().sum();
            assert!((mass - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stationary_matches_long_transient() {
        let q = BirthDeathQueue::new(0.7, 1.0, 5);
        let pi = q.stationary();
        let mut p0 = vec![0.0; q.num_states()];
        p0[0] = 1.0;
        let p = transient_distribution(&q.generator(), &p0, 500.0, 1e-12).unwrap();
        for (a, b) in p.iter().zip(pi.iter()) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn stationary_critical_load_is_uniform() {
        let q = BirthDeathQueue::new(1.0, 1.0, 4);
        let pi = q.stationary();
        for &p in &pi {
            assert!((p - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_drops_increase_with_load() {
        let dt = 4.0;
        let mut last = -1.0;
        for &lam in &[0.2, 0.6, 1.0, 1.6, 2.4] {
            let q = BirthDeathQueue::new(lam, 1.0, 5);
            let (_, d) = q.epoch_expectation(0, dt);
            assert!(d > last, "drops must increase with load");
            last = d;
        }
    }

    #[test]
    fn drops_bounded_by_arrival_mass() {
        // E[drops] can never exceed λ·Δt (total expected arrivals).
        for &(lam, dt, z) in &[(0.9f64, 10.0f64, 0usize), (2.0, 3.0, 5), (0.1, 1.0, 3)] {
            let q = BirthDeathQueue::new(lam, 1.0, 5);
            let (_, d) = q.epoch_expectation(z, dt);
            assert!(d >= -1e-12 && d <= lam * dt + 1e-9);
        }
    }
}
