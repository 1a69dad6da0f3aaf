//! The mean-field epoch kernel: transient CTMC analysis by uniformization
//! (Jensen's method), with drop accounting.
//!
//! For a conservative generator `Q` in row convention, a start vector `v`
//! and a rate vector `r`, with `q = max_i |Q_ii|` and `P = I + Q/q`,
//!
//! ```text
//! v·exp(Q t)              = Σ_k PoissonPmf(k; q t) · v Pᵏ
//! ∫₀ᵗ v·exp(Q s)·r ds     = Σ_k P(N_{qt} > k)/q · (v Pᵏ · r)
//! ```
//!
//! `P` is stochastic, so every term is nonnegative and the series is
//! unconditionally stable. This is the paper's exact discretization
//! (Eq. 27–28) with the extended generator `Q̄` split into the queue
//! generator `Q` and the drop rates `r` (the arrival rate on the
//! full-buffer states). [`advance`] is the epoch of every mean-field
//! closure and of both queues' `epoch_expectation`; the Padé
//! [`crate::expm()`] is its test reference (`tests/epoch_kernel.rs`).
//!
//! * **No `1 − cdf`.** The weights run forward to a right truncation point
//!   past which the Poisson mass is provably below the tolerance, and are
//!   normalized by their sum. The drop integral forms no tail at all:
//!   summation by parts turns `Σ_k P(N > k)·(v Pᵏ·r)` into
//!   `Σ_k PoissonPmf(k)·Σ_{j<k} v Pʲ·r`, a sum of nonnegative terms. A tail
//!   taken as `1 − cdf` stalls at about `1e-16`.
//! * **Substeps.** `exp(−q t)` underflows past `q t ≈ 745`, so a longer
//!   epoch runs as equal substeps with `q t ≤ 500`; the vector and the
//!   drop integral both compose across substeps.

use crate::matrix::Mat;
use std::ops::Range;

/// Poisson mass [`advance`] may neglect per substep on the mean-field
/// epoch path.
pub const EPOCH_TOL: f64 = 1e-18;

/// Floor on the tolerance, so `tol = 0` still truncates after a number of
/// terms bounded by a function of `q t` alone.
const MIN_TOL: f64 = 1e-30;

/// Largest `q t` of one substep.
const MAX_SUBSTEP_EVENTS: f64 = 500.0;

/// Errors reported by [`transient_distribution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UniformizationError {
    /// The matrix is not square.
    NotSquare,
    /// A row does not sum to (numerically) zero or an off-diagonal entry is
    /// negative, i.e. the matrix is not a conservative generator.
    NotAGenerator { row: usize },
    /// The initial vector is not a probability distribution.
    NotADistribution,
}

impl std::fmt::Display for UniformizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotSquare => write!(f, "uniformization requires a square generator"),
            Self::NotAGenerator { row } => {
                write!(f, "row {row} violates the conservative-generator property")
            }
            Self::NotADistribution => write!(f, "initial vector is not a distribution"),
        }
    }
}

impl std::error::Error for UniformizationError {}

/// Validates that `q` is a conservative generator in row convention.
pub fn validate_generator(q: &Mat, tol: f64) -> Result<(), UniformizationError> {
    if !q.is_square() {
        return Err(UniformizationError::NotSquare);
    }
    for i in 0..q.rows() {
        let mut sum = 0.0;
        for j in 0..q.cols() {
            let v = q[(i, j)];
            sum += v;
            if i != j && v < -tol {
                return Err(UniformizationError::NotAGenerator { row: i });
            }
        }
        if sum.abs() > tol * (1.0 + q.norm_inf()) {
            return Err(UniformizationError::NotAGenerator { row: i });
        }
    }
    Ok(())
}

/// One off-diagonal generator entry `(from, to, rate)`. A list of moves is
/// a sparse conservative generator in row convention; `Q_ii` is minus the
/// total rate out of `i`.
pub type Move = (usize, usize, f64);

/// The dense row-convention generator of `moves` on `n` states.
pub fn dense_generator(n: usize, moves: &[Move]) -> Mat {
    let mut q = Mat::zeros(n, n);
    for &(from, to, rate) in moves {
        q[(from, to)] += rate;
        q[(from, from)] -= rate;
    }
    q
}

/// Outcome of [`advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advance {
    /// `∫₀^Δt v·exp(Q s)·r ds`: the expected drops.
    pub drops: f64,
    /// Products with `P` taken, over all substeps.
    pub terms: usize,
}

/// The epoch kernel: replaces `v` by `v·exp(Q·dt)` for the generator of
/// `moves`, and returns the integral of `r` along the way, where
/// `drop_rates` lists the nonzero entries of `r` as `(state, rate)`. Each
/// substep neglects at most `max(tol, 1e-30)` of Poisson mass; epochs pass
/// [`EPOCH_TOL`].
///
/// # Panics
/// Panics on a state outside `v`, a move that keeps its state, a negative
/// or non-finite rate, or a negative or non-finite `dt`.
pub fn advance(
    moves: &[Move],
    drop_rates: &[(usize, f64)],
    v: &mut [f64],
    dt: f64,
    tol: f64,
) -> Advance {
    let n = v.len();
    assert!(dt >= 0.0 && dt.is_finite(), "epoch length must be finite and nonnegative");
    assert!(
        moves.iter().all(|&(from, to, rate)| from != to
            && from.max(to) < n
            && rate >= 0.0
            && rate.is_finite()),
        "a move must change a state in 0..{n} at a finite nonnegative rate"
    );
    assert!(drop_rates.iter().all(|&(i, _)| i < n), "drop rate outside 0..{n}");
    if dt == 0.0 {
        return Advance { drops: 0.0, terms: 0 };
    }
    let mut stay = vec![0.0; n];
    for &(from, _, rate) in moves {
        stay[from] += rate;
    }
    // Any q ≥ max exit rate uniformizes; the zero generator takes q = 1/dt.
    let max_exit = stay.iter().copied().fold(0.0, f64::max);
    let q = if max_exit > 0.0 { max_exit } else { 1.0 / dt };
    let substeps = (q * dt / MAX_SUBSTEP_EVENTS).ceil();
    let qh = q * dt / substeps;
    stay.iter_mut().for_each(|s| *s = 1.0 - *s / q);
    // The off-diagonal part of P by diagonals: band d carries rate/q into
    // each target j from the state at `windows[d] + j` of a term padded by
    // `pad` zeros on both sides. A product is then a few full-length
    // vector updates; a birth–death chain has two bands.
    let pad = moves.iter().map(|&(from, to, _)| from.abs_diff(to)).max().unwrap_or(0);
    let (mut windows, mut bands) = (Vec::new(), Vec::new());
    for &(from, to, rate) in moves.iter().filter(|m| m.2 > 0.0) {
        let window = pad + from - to;
        let d = windows.iter().position(|&w| w == window).unwrap_or_else(|| {
            windows.push(window);
            bands.resize(bands.len() + n, 0.0);
            windows.len() - 1
        });
        bands[d * n + to] += rate / q;
    }

    let tol = tol.max(MIN_TOL);
    let (mut term, mut next, mut acc) =
        (vec![0.0; n + 2 * pad], vec![0.0; n + 2 * pad], vec![0.0; n]);
    let (mut drops, mut terms) = (0.0, 0);
    for _ in 0..substeps as usize {
        term[pad..pad + n].copy_from_slice(v);
        acc.iter_mut().for_each(|a| *a = 0.0);
        // Term k has weight w = PoissonPmf(k; qh); `seen` sums the drop
        // rates of the terms before k, so `integral` = Σ_k w·seen.
        let (mut w, mut total, mut seen, mut integral) = ((-qh).exp(), 0.0, 0.0, 0.0);
        let mut k = 0usize;
        loop {
            let now = &term[pad..pad + n];
            total += w;
            integral += w * seen;
            for (a, &t) in acc.iter_mut().zip(now) {
                *a += w * t;
            }
            // With k terms summed, the ratio of each later weight to the one
            // before is at most qh/k; once that is below 1, the mass not yet
            // summed is at most w·qh/(k − qh).
            k += 1;
            if k as f64 > qh && w * qh <= tol * (k as f64 - qh) {
                break;
            }
            seen += drop_rates.iter().map(|&(i, r)| now[i] * r).sum::<f64>();
            product(&mut next[pad..pad + n], &term, pad, &stay, &windows, &bands);
            std::mem::swap(&mut term, &mut next);
            w *= qh / k as f64;
        }
        for (x, &a) in v.iter_mut().zip(&acc) {
            *x = a / total;
        }
        drops += integral / (q * total);
        terms += k - 1;
    }
    Advance { drops, terms }
}

/// `out = term·P` for the band layout of [`advance`]. Slices as arguments
/// let the compiler treat `out` as unaliased and vectorize every band.
fn product(
    out: &mut [f64],
    term: &[f64],
    pad: usize,
    stay: &[f64],
    windows: &[usize],
    bands: &[f64],
) {
    let n = out.len();
    for ((x, &t), &s) in out.iter_mut().zip(&term[pad..pad + n]).zip(stay) {
        *x = t * s;
    }
    for (&window, band) in windows.iter().zip(bands.chunks_exact(n)) {
        for ((x, &t), &p) in out.iter_mut().zip(&term[window..window + n]).zip(band) {
            *x += t * p;
        }
    }
}

/// Chains stacked block-diagonally so one [`advance`] call moves them all.
/// They share `Δt` and the largest uniformization rate among them, which
/// is exact for each, and every product runs over the whole stack instead
/// of one short vector per chain: a mean-field epoch stacks one chain per
/// occupied observed state.
#[derive(Debug, Clone, Default)]
pub struct ChainStack {
    moves: Vec<Move>,
    drop_rates: Vec<(usize, f64)>,
    v: Vec<f64>,
    /// The output states each chain's end vector is added into.
    targets: Vec<Range<usize>>,
}

impl ChainStack {
    /// Stacks a chain on the output states `target`: its moves and nonzero
    /// drop rates, with states numbered from 0 within the chain, and its
    /// start vector — `start` on the chain's states `start_at..`, zero
    /// elsewhere.
    pub fn push(
        &mut self,
        target: Range<usize>,
        moves: &[Move],
        drop_rates: &[(usize, f64)],
        start_at: usize,
        start: &[f64],
    ) {
        let offset = self.v.len();
        self.moves.extend(moves.iter().map(|&(from, to, rate)| (offset + from, offset + to, rate)));
        self.drop_rates.extend(drop_rates.iter().map(|&(i, rate)| (offset + i, rate)));
        self.v.resize(offset + target.len(), 0.0);
        self.v[offset + start_at..offset + start_at + start.len()].copy_from_slice(start);
        self.targets.push(target);
    }

    /// Advances every chain by `dt` to [`EPOCH_TOL`]; returns the end
    /// vectors summed into an `n`-vector at their targets, and the summed
    /// drops.
    pub fn advance(mut self, dt: f64, n: usize) -> (Vec<f64>, f64) {
        let drops = advance(&self.moves, &self.drop_rates, &mut self.v, dt, EPOCH_TOL).drops;
        let mut sum = vec![0.0; n];
        let mut chains = self.v.as_slice();
        for target in self.targets {
            let (chain, rest) = chains.split_at(target.len());
            sum[target].iter_mut().zip(chain).for_each(|(s, x)| *s += x);
            chains = rest;
        }
        (sum, drops)
    }
}

/// Computes `p₀ · exp(Q t)` for a conservative generator `Q`: [`advance`]
/// with no drop rates, truncating the Poisson series once the remaining
/// mass is below `tol` (floored at `1e-30`).
pub fn transient_distribution(
    q: &Mat,
    p0: &[f64],
    t: f64,
    tol: f64,
) -> Result<Vec<f64>, UniformizationError> {
    validate_generator(q, 1e-9)?;
    let n = q.rows();
    let mass: f64 = p0.iter().sum();
    if p0.len() != n || (mass - 1.0).abs() > 1e-9 || p0.iter().any(|&v| v < -1e-12) {
        return Err(UniformizationError::NotADistribution);
    }
    let moves: Vec<Move> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j, q[(i, j)].max(0.0))))
        .collect();
    let mut p = p0.to_vec();
    advance(&moves, &[], &mut p, t, tol);
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expm::expm;

    /// Row-convention birth–death generator on {0,..,b} with constant birth
    /// rate `lam` and death rate `mu`.
    fn birth_death(b: usize, lam: f64, mu: f64) -> Mat {
        let n = b + 1;
        let mut q = Mat::zeros(n, n);
        for i in 0..n {
            if i < b {
                q[(i, i + 1)] = lam;
            }
            if i > 0 {
                q[(i, i - 1)] = mu;
            }
            let total = q.row(i).iter().sum::<f64>() - q[(i, i)];
            q[(i, i)] = -total;
        }
        q
    }

    #[test]
    fn matches_pade_expm_on_birth_death() {
        let q = birth_death(5, 0.9, 1.0);
        let p0 = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for &t in &[0.1, 1.0, 5.0, 10.0] {
            let via_uni = transient_distribution(&q, &p0, t, 1e-12).unwrap();
            let via_pade = expm(&q.scaled(t)).vecmat(&p0);
            for (a, b) in via_uni.iter().zip(via_pade.iter()) {
                assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn long_horizon_converges_to_stationary() {
        // M/M/1/B stationary distribution: geometric in rho = lam/mu.
        let (lam, mu, b) = (0.5, 1.0, 4usize);
        let q = birth_death(b, lam, mu);
        let p0 = [0.0, 0.0, 1.0, 0.0, 0.0];
        let p = transient_distribution(&q, &p0, 2000.0, 1e-12).unwrap();
        let rho: f64 = lam / mu;
        let norm: f64 = (0..=b).map(|k| rho.powi(k as i32)).sum();
        for (k, &v) in p.iter().enumerate() {
            let expect = rho.powi(k as i32) / norm;
            assert!((v - expect).abs() < 1e-8, "state {k}: {v} vs {expect}");
        }
    }

    #[test]
    fn zero_time_returns_input() {
        let q = birth_death(3, 1.0, 2.0);
        let p0 = [0.25, 0.25, 0.25, 0.25];
        let p = transient_distribution(&q, &p0, 0.0, 1e-12).unwrap();
        assert_eq!(p, p0.to_vec());
    }

    #[test]
    fn output_is_distribution() {
        let q = birth_death(6, 2.0, 0.5);
        let p0 = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let p = transient_distribution(&q, &p0, 3.0, 1e-12).unwrap();
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn tolerances_at_or_below_one_ulp_truncate_after_a_bounded_number_of_terms() {
        // `1 − cdf` never drops below 0 or 1e-17; the provable tail bound
        // still truncates, after a number of terms that depends on qt only
        // (tol is floored at 1e-30), and agrees with tol = 1e-13.
        let q = birth_death(5, 0.9, 1.0);
        let moves: Vec<Move> = (0..5).flat_map(|z| [(z, z + 1, 0.9), (z + 1, z, 1.0)]).collect();
        let p0 = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for t in [0.5, 5.0, 50.0] {
            let qt = 1.9 * t;
            let reference = transient_distribution(&q, &p0, t, 1e-13).unwrap();
            for tol in [0.0, 1e-17] {
                let p = transient_distribution(&q, &p0, t, tol).unwrap();
                for (a, b) in p.iter().zip(&reference) {
                    assert!((a - b).abs() < 1e-13, "t={t} tol={tol}: {a} vs {b}");
                }
                let mut v = p0;
                let terms = advance(&moves, &[], &mut v, t, tol).terms;
                let bound = qt + 12.0 * qt.sqrt() + 90.0;
                assert!((terms as f64) < bound, "t={t} tol={tol}: {terms} terms, bound {bound}");
            }
        }
    }

    #[test]
    fn zero_generator_integrates_the_drop_rate_over_the_epoch() {
        let mut v = [0.25, 0.75];
        let out = advance(&[], &[(1, 2.0)], &mut v, 3.0, EPOCH_TOL);
        assert_eq!(v, [0.25, 0.75]);
        assert!((out.drops - 4.5).abs() < 1e-14, "{}", out.drops);
    }

    #[test]
    fn rejects_non_generator() {
        let m = Mat::from_rows(&[&[0.5, 0.5], &[0.1, -0.1]]);
        let err = transient_distribution(&m, &[1.0, 0.0], 1.0, 1e-10).unwrap_err();
        assert!(matches!(err, UniformizationError::NotAGenerator { .. }));
    }

    #[test]
    fn rejects_bad_distribution() {
        let q = birth_death(2, 1.0, 1.0);
        let err = transient_distribution(&q, &[0.9, 0.0, 0.0], 1.0, 1e-10).unwrap_err();
        assert_eq!(err, UniformizationError::NotADistribution);
    }
}
