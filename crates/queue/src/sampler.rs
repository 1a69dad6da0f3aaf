//! Exact non-uniform random variate generation.
//!
//! The `rand` crate is used **only** as a uniform bit/float source; every
//! non-uniform distribution needed by the simulators is implemented here
//! from first principles so the whole stochastic stack is auditable:
//!
//! * [`Sampler::exponential`] — inversion,
//! * [`Sampler::poisson`] — chop-down inversion for small means and
//!   Hörmann's PTRS transformed-rejection for large means,
//! * [`Sampler::binomial`] — BINV chop-down inversion for small `n·min(p,q)`
//!   and Hörmann's BTRS transformed-rejection otherwise,
//! * [`Sampler::multinomial`] — exact conditional-binomial decomposition
//!   (the key to simulating `N = 10^6` clients in O(M) per epoch),
//! * [`AliasTable`] — Walker/Vose alias method for O(1) categorical draws.
//!
//! Each sampler is validated in the test-suite with chi-square
//! goodness-of-fit tests against the exact pmf.

use mflb_linalg::stats::ln_gamma;
use rand::Rng;

/// Ergonomic façade over a [`rand::Rng`] adding the exact non-uniform
/// samplers used throughout the workspace.
///
/// The struct is a zero-cost wrapper: it borrows the RNG mutably for the
/// duration of a call.
pub struct Sampler;

impl Sampler {
    /// Exponential variate with the given `rate` (mean `1/rate`).
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "exponential rate must be positive");
        // Inversion: -ln(U)/rate with U in (0,1]; gen::<f64>() is [0,1), so
        // flip to (0,1] to avoid ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / rate
    }

    /// Poisson variate with the given `mean`.
    ///
    /// Uses chop-down inversion for `mean < 10` and the PTRS transformed
    /// rejection method (Hörmann 1993) above, with the acceptance test
    /// evaluated through the exact log-pmf.
    pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
        assert!(mean >= 0.0 && mean.is_finite(), "poisson mean must be nonnegative");
        if mean == 0.0 {
            return 0;
        }
        if mean < 10.0 {
            poisson_inversion(rng, mean)
        } else {
            poisson_ptrs(rng, mean)
        }
    }

    /// Binomial variate `Binomial(n, p)`.
    ///
    /// Uses BINV chop-down inversion when `n·min(p, 1−p)` is small and the
    /// BTRS transformed-rejection method otherwise; `p > 1/2` is handled by
    /// symmetry.
    pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "binomial p must be in [0,1]");
        if n == 0 || p == 0.0 {
            return 0;
        }
        if p == 1.0 {
            return n;
        }
        if p > 0.5 {
            return n - Self::binomial(rng, n, 1.0 - p);
        }
        // Here p <= 0.5.
        let np = n as f64 * p;
        // BINV is exact and fast while both the expected chop-down length
        // and the q^n underflow risk stay small.
        if np < 30.0 && (n as f64) * (1.0 - p).ln() > -700.0 {
            binomial_binv(rng, n, p)
        } else {
            binomial_btrs(rng, n, p)
        }
    }

    /// Exact multinomial sample: allocates `n` trials over `probs` (which
    /// must sum to ≤ 1; the residual mass is an implicit "none" category)
    /// using the conditional-binomial decomposition.
    ///
    /// Returns a count per explicit category. Cost O(len(probs)) regardless
    /// of `n`.
    pub fn multinomial<R: Rng + ?Sized>(rng: &mut R, n: u64, probs: &[f64]) -> Vec<u64> {
        let mut counts = vec![0u64; probs.len()];
        let mut remaining_n = n;
        let mut remaining_mass = 1.0f64;
        for (i, &p) in probs.iter().enumerate() {
            if remaining_n == 0 {
                break;
            }
            debug_assert!(p >= -1e-12, "negative category probability");
            let p = p.max(0.0);
            if remaining_mass <= 0.0 {
                break;
            }
            let cond = (p / remaining_mass).clamp(0.0, 1.0);
            let c = Self::binomial(rng, remaining_n, cond);
            counts[i] = c;
            remaining_n -= c;
            remaining_mass -= p;
        }
        counts
    }

    /// Samples an index from an explicit discrete pmf by linear inversion.
    ///
    /// Suitable for short pmfs (the action spaces here have ≤ a few dozen
    /// entries); use [`AliasTable`] for repeated draws from longer ones.
    pub fn categorical<R: Rng + ?Sized>(rng: &mut R, pmf: &[f64]) -> usize {
        debug_assert!(!pmf.is_empty());
        let total: f64 = pmf.iter().sum();
        let mut u = rng.gen::<f64>() * total;
        for (i, &p) in pmf.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return i;
            }
        }
        pmf.len() - 1 // floating-point slack lands on the last category
    }
}

/// Chop-down inversion for Poisson (small mean).
fn poisson_inversion<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    let mut k = 0u64;
    let mut prob = (-mean).exp();
    let mut cdf = prob;
    let u: f64 = rng.gen();
    while u > cdf {
        k += 1;
        prob *= mean / k as f64;
        cdf += prob;
        if k > 10_000 {
            break; // unreachable for mean < 10; defensive cap
        }
    }
    k
}

/// PTRS transformed rejection for Poisson (mean ≥ 10), exact log-pmf
/// acceptance.
fn poisson_ptrs<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    let b = 0.931 + 2.53 * mean.sqrt();
    let a = -0.059 + 0.024_83 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    let ln_mean = mean.ln();
    loop {
        let u: f64 = rng.gen::<f64>() - 0.5;
        let v: f64 = rng.gen();
        let us = 0.5 - u.abs();
        let k_f = (2.0 * a / us + b) * u + mean + 0.43;
        if k_f < 0.0 {
            continue;
        }
        let k = k_f.floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if us < 0.013 && v > us {
            continue;
        }
        // Exact acceptance: ln of hat density vs ln pmf.
        let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
        let rhs = k * ln_mean - mean - ln_gamma(k + 1.0);
        if lhs <= rhs {
            return k as u64;
        }
    }
}

/// BINV chop-down inversion for binomial (requires p ≤ 1/2, small n·p).
fn binomial_binv<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n + 1) as f64 * s;
    let mut r = q.powf(n as f64);
    let mut u: f64 = rng.gen();
    let mut x = 0u64;
    loop {
        if u <= r {
            return x;
        }
        u -= r;
        x += 1;
        if x > n {
            // Numerical tail exhaustion: the leftover mass is < 1e-15.
            return n;
        }
        r *= a / x as f64 - s;
    }
}

/// BTRS transformed rejection for binomial (requires p ≤ 1/2, n·p ≥ 10),
/// with the acceptance test evaluated through the exact log-pmf ratio to
/// the mode.
fn binomial_btrs<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let npq = nf * p * q;
    let spq = npq.sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    // The exact test's constants (two `ln_gamma`s and a `ln`), set up the
    // first time a draw reaches it: most leave through the quick box.
    let mut exact: Option<(f64, f64, f64, f64)> = None;
    loop {
        let u: f64 = rng.gen::<f64>() - 0.5;
        let v: f64 = rng.gen();
        let us = 0.5 - u.abs();
        let k_f = ((2.0 * a / us + b) * u + c).floor();
        if k_f < 0.0 || k_f > nf {
            continue;
        }
        if us >= 0.07 && v <= v_r {
            return k_f as u64;
        }
        // Exact acceptance against the pmf ratio f(k)/f(m), m the mode.
        let (alpha, lpq, m, h) = *exact.get_or_insert_with(|| {
            let m = ((n + 1) as f64 * p).floor();
            let h = ln_gamma(m + 1.0) + ln_gamma(nf - m + 1.0);
            ((2.83 + 5.1 / b) * spq, (p / q).ln(), m, h)
        });
        let k = k_f;
        let lhs = (v * alpha / (a / (us * us) + b)).ln();
        let rhs = h - ln_gamma(k + 1.0) - ln_gamma(nf - k + 1.0) + (k - m) * lpq;
        if lhs <= rhs {
            return k as u64;
        }
    }
}

/// Walker/Vose alias table for O(1) sampling from a fixed categorical
/// distribution.
///
/// Construction is O(K); each draw consumes one uniform for the column and
/// one for the coin.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from (unnormalized) nonnegative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/non-finite entry,
    /// or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one category");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "alias table weights must sum to a positive finite value"
        );
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "alias weights must be nonnegative");
        }
        let k = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * k as f64 / total).collect();
        let mut alias = vec![0usize; k];
        let mut small: Vec<usize> = Vec::with_capacity(k);
        let mut large: Vec<usize> = Vec::with_capacity(k);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            // Donate mass from the large column to fill the small one.
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` iff the table has no categories (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let k = self.prob.len();
        let col = rng.gen_range(0..k);
        if rng.gen::<f64>() < self.prob[col] {
            col
        } else {
            self.alias[col]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_linalg::stats::{chi_square_test, ln_gamma};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn poisson_pmf(mean: f64, k: u64) -> f64 {
        (k as f64 * mean.ln() - mean - ln_gamma(k as f64 + 1.0)).exp()
    }

    fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
        let (nf, kf) = (n as f64, k as f64);
        (ln_gamma(nf + 1.0) - ln_gamma(kf + 1.0) - ln_gamma(nf - kf + 1.0)
            + kf * p.ln()
            + (nf - kf) * (1.0 - p).ln())
        .exp()
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(1);
        let rate = 2.5;
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = Sampler::exponential(&mut rng, rate);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 5e-3, "mean {mean}");
    }

    #[test]
    fn poisson_small_mean_chi_square() {
        let mut rng = StdRng::seed_from_u64(2);
        let mean = 3.7;
        let draws = 100_000usize;
        let maxk = 25usize;
        let mut obs = vec![0.0; maxk + 1];
        for _ in 0..draws {
            let k = Sampler::poisson(&mut rng, mean) as usize;
            obs[k.min(maxk)] += 1.0;
        }
        let mut exp: Vec<f64> =
            (0..=maxk).map(|k| poisson_pmf(mean, k as u64) * draws as f64).collect();
        // Fold the tail into the last bin.
        let tail = draws as f64 - exp.iter().sum::<f64>();
        *exp.last_mut().unwrap() += tail.max(0.0);
        let (_, _, p) = chi_square_test(&obs, &exp, 5.0);
        assert!(p > 1e-4, "poisson small-mean chi-square p = {p}");
    }

    #[test]
    fn poisson_large_mean_chi_square() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean = 80.0;
        let draws = 100_000usize;
        let lo = 30usize;
        let hi = 140usize;
        let mut obs = vec![0.0; hi - lo + 1];
        for _ in 0..draws {
            let k = (Sampler::poisson(&mut rng, mean) as usize).clamp(lo, hi);
            obs[k - lo] += 1.0;
        }
        let mut exp: Vec<f64> =
            (lo..=hi).map(|k| poisson_pmf(mean, k as u64) * draws as f64).collect();
        let covered: f64 = exp.iter().sum();
        exp[0] += ((draws as f64) - covered).max(0.0) / 2.0;
        let last = exp.len() - 1;
        exp[last] += ((draws as f64) - covered).max(0.0) / 2.0;
        let (_, _, p) = chi_square_test(&obs, &exp, 5.0);
        assert!(p > 1e-4, "poisson large-mean chi-square p = {p}");
    }

    #[test]
    fn poisson_mean_variance_large() {
        let mut rng = StdRng::seed_from_u64(4);
        let mean = 500.0;
        let n = 50_000;
        let mut s = mflb_linalg::stats::Summary::new();
        for _ in 0..n {
            s.push(Sampler::poisson(&mut rng, mean) as f64);
        }
        assert!((s.mean() - mean).abs() < 0.5, "mean {}", s.mean());
        assert!((s.variance() - mean).abs() < 15.0, "var {}", s.variance());
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(Sampler::binomial(&mut rng, 0, 0.3), 0);
        assert_eq!(Sampler::binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(Sampler::binomial(&mut rng, 10, 1.0), 10);
    }

    #[test]
    fn binomial_small_chi_square() {
        let mut rng = StdRng::seed_from_u64(6);
        let (n, p) = (20u64, 0.3);
        let draws = 100_000usize;
        let mut obs = vec![0.0; n as usize + 1];
        for _ in 0..draws {
            obs[Sampler::binomial(&mut rng, n, p) as usize] += 1.0;
        }
        let exp: Vec<f64> = (0..=n).map(|k| binomial_pmf(n, p, k) * draws as f64).collect();
        let (_, _, pv) = chi_square_test(&obs, &exp, 5.0);
        assert!(pv > 1e-4, "binomial BINV chi-square p = {pv}");
    }

    #[test]
    fn binomial_btrs_chi_square() {
        let mut rng = StdRng::seed_from_u64(7);
        let (n, p) = (10_000u64, 0.02); // np = 200 -> BTRS path
        let draws = 60_000usize;
        let lo = 120u64;
        let hi = 280u64;
        let mut obs = vec![0.0; (hi - lo + 1) as usize];
        for _ in 0..draws {
            let k = Sampler::binomial(&mut rng, n, p).clamp(lo, hi);
            obs[(k - lo) as usize] += 1.0;
        }
        let mut exp: Vec<f64> = (lo..=hi).map(|k| binomial_pmf(n, p, k) * draws as f64).collect();
        let covered: f64 = exp.iter().sum();
        exp[0] += ((draws as f64) - covered).max(0.0);
        let (_, _, pv) = chi_square_test(&obs, &exp, 5.0);
        assert!(pv > 1e-4, "binomial BTRS chi-square p = {pv}");
    }

    #[test]
    fn binomial_symmetry_large_p() {
        let mut rng = StdRng::seed_from_u64(8);
        let (n, p) = (5_000u64, 0.97);
        let mut s = mflb_linalg::stats::Summary::new();
        for _ in 0..20_000 {
            s.push(Sampler::binomial(&mut rng, n, p) as f64);
        }
        let expect_mean = n as f64 * p;
        let expect_var = n as f64 * p * (1.0 - p);
        assert!((s.mean() - expect_mean).abs() < 0.5, "mean {}", s.mean());
        assert!((s.variance() - expect_var).abs() < expect_var * 0.1);
    }

    #[test]
    fn multinomial_counts_sum_and_marginals() {
        let mut rng = StdRng::seed_from_u64(9);
        let probs = [0.1, 0.25, 0.05, 0.4, 0.2];
        let n = 1_000_000u64;
        let counts = Sampler::multinomial(&mut rng, n, &probs);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, n); // probs sum to 1 -> everything allocated
        for (c, p) in counts.iter().zip(probs.iter()) {
            let expect = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(((*c as f64) - expect).abs() < 6.0 * sd, "count {c} vs expected {expect}");
        }
    }

    #[test]
    fn multinomial_with_residual_mass() {
        let mut rng = StdRng::seed_from_u64(10);
        let probs = [0.2, 0.3]; // 0.5 implicit "none"
        let n = 100_000u64;
        let counts = Sampler::multinomial(&mut rng, n, &probs);
        let total: u64 = counts.iter().sum();
        assert!(total < n);
        let expect = 0.5 * n as f64;
        assert!(((total as f64) - expect).abs() < 6.0 * (n as f64 * 0.25).sqrt());
    }

    #[test]
    fn alias_table_matches_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights = [1.0, 5.0, 0.5, 3.5, 0.0, 2.0];
        let table = AliasTable::new(&weights);
        let draws = 200_000usize;
        let mut obs = vec![0.0; weights.len()];
        for _ in 0..draws {
            obs[table.sample(&mut rng)] += 1.0;
        }
        let total: f64 = weights.iter().sum();
        let exp: Vec<f64> = weights.iter().map(|w| w / total * draws as f64).collect();
        assert_eq!(obs[4], 0.0, "zero-weight category must never be drawn");
        let (_, _, p) = chi_square_test(&obs, &exp, 5.0);
        assert!(p > 1e-4, "alias chi-square p = {p}");
    }

    #[test]
    fn categorical_respects_pmf() {
        let mut rng = StdRng::seed_from_u64(12);
        let pmf = [0.5, 0.5];
        let mut ones = 0usize;
        for _ in 0..10_000 {
            ones += Sampler::categorical(&mut rng, &pmf);
        }
        assert!((ones as f64 - 5_000.0).abs() < 300.0);
    }

    /// Uniform draws pinned just below 1, so BINV walks its whole
    /// chop-down.
    struct TopOfUnitInterval;

    impl rand::RngCore for TopOfUnitInterval {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn binomial_draws_match_their_pinned_digest() {
        // 36 (n, p) cells × 3 000 draws: BINV (n·min(p, 1−p) < 30) and both
        // BTRS exits (the quick acceptance box and the exact log-pmf test),
        // for p on both sides of 1/2.
        let ns = [1u64, 7, 50, 400, 5_000, 1_000_000];
        let ps = [0.001, 0.03, 0.2, 0.5, 0.8, 0.999];
        let mut rng = StdRng::seed_from_u64(11);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &n in &ns {
            for &p in &ps {
                for _ in 0..3_000 {
                    mix(Sampler::binomial(&mut rng, n, p));
                }
            }
        }
        // BINV's tail exit: a uniform above the summed pmf, as for these two
        // cells.
        for (n, p) in [(2u64, 0.3), (40, 0.25)] {
            mix(Sampler::binomial(&mut TopOfUnitInterval, n, p));
        }
        assert_eq!(hash, 0x7d7b_c13e_1d09_d2ed, "binomial draw digest moved");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(Sampler::poisson(&mut a, 47.0), Sampler::poisson(&mut b, 47.0));
            assert_eq!(
                Sampler::binomial(&mut a, 1_000_000, 0.001),
                Sampler::binomial(&mut b, 1_000_000, 0.001)
            );
        }
    }
}
