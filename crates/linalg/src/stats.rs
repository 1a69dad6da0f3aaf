//! Scalar statistics used across the workspace.
//!
//! * running/batch summary statistics ([`Summary`]),
//! * 95% (or arbitrary-level) confidence intervals as plotted in the
//!   paper's Figures 4–6,
//! * chi-square goodness-of-fit machinery (regularized incomplete gamma)
//!   used to validate the hand-rolled Poisson/binomial/alias samplers.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample: count, mean and unbiased variance,
/// accumulated with Welford's online algorithm (numerically stable for the
/// long Monte-Carlo streams of the experiment harness).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Builds a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Two-sided confidence interval for the mean at the given level using
    /// the Student-t critical value (matches the paper's 95% error bars).
    pub(crate) fn confidence_interval(&self, level: f64) -> (f64, f64) {
        if self.n < 2 {
            return (self.mean(), self.mean());
        }
        let t = student_t_critical(self.n - 1, level);
        let half = t * self.std_err();
        (self.mean - half, self.mean + half)
    }

    /// Convenience accessor for the 95% half-width.
    pub fn ci95_half_width(&self) -> f64 {
        let (lo, hi) = self.confidence_interval(0.95);
        (hi - lo) / 2.0
    }
}

/// Two-sided Student-t critical value `t_{(1+level)/2, df}`.
///
/// Computed by inverting the CDF with bisection on top of the regularized
/// incomplete beta function; accurate to ~1e-8 which is far below the Monte
/// Carlo noise it is used to quantify.
pub fn student_t_critical(df: u64, level: f64) -> f64 {
    assert!((0.0..1.0).contains(&level), "level must be in (0,1)");
    let p = 0.5 + level / 2.0; // upper-tail quantile position
    let mut lo = 0.0f64;
    let mut hi = 1e3f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df as f64) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Student-t cumulative distribution function.
pub(crate) fn student_t_cdf(t: f64, df: f64) -> f64 {
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let ib = regularized_incomplete_beta(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - 0.5 * ib
    } else {
        0.5 * ib
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients from the classic Lanczos g=7 fit; |error| < 1e-13 for
    // x > 0 after the reflection below.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
pub(crate) fn regularized_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0);
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation converges quickly here.
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut k = a;
        for _ in 0..500 {
            k += 1.0;
            term *= x / k;
            sum += term;
            if term.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for the upper tail (Lentz's algorithm).
        1.0 - regularized_upper_gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma via continued fraction.
fn regularized_upper_gamma_cf(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)` via the standard
/// continued fraction with the symmetry transformation for convergence.
pub(crate) fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0);
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < tiny {
        d = tiny;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Chi-square survival function (upper tail probability) with `df` degrees
/// of freedom: `P(X > stat)`.
pub fn chi_square_sf(stat: f64, df: f64) -> f64 {
    assert!(stat >= 0.0 && df > 0.0);
    1.0 - regularized_lower_gamma(df / 2.0, stat / 2.0)
}

/// Pearson chi-square goodness-of-fit statistic for observed counts against
/// expected counts. Bins with expected count below `min_expected` are pooled
/// into their neighbour to keep the asymptotics valid.
///
/// Returns `(statistic, degrees_of_freedom, p_value)`.
pub fn chi_square_test(observed: &[f64], expected: &[f64], min_expected: f64) -> (f64, f64, f64) {
    assert_eq!(observed.len(), expected.len());
    let mut stat = 0.0;
    let mut bins = 0usize;
    let mut pool_obs = 0.0;
    let mut pool_exp = 0.0;
    for (&o, &e) in observed.iter().zip(expected.iter()) {
        pool_obs += o;
        pool_exp += e;
        if pool_exp >= min_expected {
            stat += (pool_obs - pool_exp).powi(2) / pool_exp;
            bins += 1;
            pool_obs = 0.0;
            pool_exp = 0.0;
        }
    }
    if pool_exp > 0.0 {
        if bins > 0 {
            // Fold the trailing under-filled pool into the statistic anyway;
            // it has positive expectation so the test stays conservative.
            stat += (pool_obs - pool_exp).powi(2) / pool_exp;
            bins += 1;
        } else {
            bins = 1;
        }
    }
    let df = (bins.max(2) - 1) as f64;
    let p = chi_square_sf(stat, df);
    (stat, df, p)
}

/// Two-sample chi-square homogeneity test: do histograms `a` and `b`
/// (counts over the same bins, both sampled) come from one law?
///
/// With totals `N_a`, `N_b` the statistic is
/// `Σ (√(N_b/N_a)·a − √(N_a/N_b)·b)² / (a + b)`, which is
/// `Σ (a − b)² / (a + b)` for equal totals. Pooling follows
/// [`chi_square_test`]: bins are merged left to right until both
/// samples' expected pooled counts under the null,
/// `(a + b)·N_a/(N_a + N_b)` and `(a + b)·N_b/(N_a + N_b)`, reach
/// `min_expected`, and an under-filled trailing pool is folded in.
///
/// Returns `(statistic, degrees_of_freedom, p_value)`.
pub fn chi_square_two_sample(a: &[f64], b: &[f64], min_expected: f64) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len());
    let (na, nb): (f64, f64) = (a.iter().sum(), b.iter().sum());
    assert!(na > 0.0 && nb > 0.0, "both samples need counts");
    let (ka, kb) = ((nb / na).sqrt(), (na / nb).sqrt());
    let min_pooled = min_expected * (na + nb) / na.min(nb);
    let term = |pa: f64, pb: f64| (ka * pa - kb * pb).powi(2) / (pa + pb);
    let (mut stat, mut bins, mut pool_a, mut pool_b) = (0.0, 0usize, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        pool_a += x;
        pool_b += y;
        if pool_a + pool_b >= min_pooled {
            stat += term(pool_a, pool_b);
            bins += 1;
            pool_a = 0.0;
            pool_b = 0.0;
        }
    }
    if pool_a + pool_b > 0.0 {
        if bins > 0 {
            stat += term(pool_a, pool_b);
        }
        bins += 1;
    }
    let df = (bins.max(2) - 1) as f64;
    (stat, df, chi_square_sf(stat, df))
}

/// Welch's unequal-variances t-test for the difference of two means.
///
/// Returns `(t statistic, Satterthwaite degrees of freedom, two-sided
/// p-value)` for `H₀: mean(a) = mean(b)`. Used by the experiment harness
/// to report whether "MF beats JSQ(2)" is statistically significant at a
/// given system size, instead of eyeballing overlapping error bars.
///
/// # Panics
/// Panics unless both summaries hold at least two observations.
pub fn welch_t_test(a: &Summary, b: &Summary) -> (f64, f64, f64) {
    assert!(a.count() >= 2 && b.count() >= 2, "need ≥ 2 samples per group");
    let (na, nb) = (a.count() as f64, b.count() as f64);
    let (va, vb) = (a.variance() / na, b.variance() / nb);
    let se = (va + vb).sqrt();
    if se == 0.0 {
        // Degenerate zero-variance groups: identical means ⇒ p = 1.
        let p = if (a.mean() - b.mean()).abs() < 1e-300 { 1.0 } else { 0.0 };
        return (if p == 1.0 { 0.0 } else { f64::INFINITY }, na + nb - 2.0, p);
    }
    let t = (a.mean() - b.mean()) / se;
    // Welch–Satterthwaite effective degrees of freedom.
    let df = (va + vb) * (va + vb) / (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
    let p = 2.0 * (1.0 - student_t_cdf(t.abs(), df));
    (t, df, p.clamp(0.0, 1.0))
}

/// Ordinary least-squares fit `y ≈ slope·x + intercept`.
///
/// Returns `(slope, intercept, r²)`. Used by the Theorem-1 rate
/// experiment to fit `log gap` against `log M` and read off the
/// empirical convergence order.
///
/// # Panics
/// Panics on mismatched lengths, fewer than two points, or degenerate
/// (constant) x values.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let (dx, dy) = (x - mean_x, y - mean_y);
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "x values are constant");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_direct_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_pooled_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 3.0 + 1.0).collect();
        let mut a = Summary::from_slice(&xs[..37]);
        let b = Summary::from_slice(&xs[37..]);
        a.merge(&b);
        let full = Summary::from_slice(&xs);
        assert!((a.mean() - full.mean()).abs() < 1e-12);
        assert!((a.variance() - full.variance()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..12u64 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-10, "n={n}");
        }
        // Gamma(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_gamma_limits() {
        assert!((regularized_lower_gamma(3.0, 0.0) - 0.0).abs() < 1e-15);
        assert!((regularized_lower_gamma(3.0, 1e3) - 1.0).abs() < 1e-12);
        // P(1, x) = 1 - exp(-x).
        for &x in &[0.1, 1.0, 2.5] {
            assert!((regularized_lower_gamma(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn chi_square_sf_known_values() {
        // df=1: P(X > 3.841) ≈ 0.05; df=10: P(X > 18.307) ≈ 0.05.
        assert!((chi_square_sf(3.841, 1.0) - 0.05).abs() < 2e-3);
        assert!((chi_square_sf(18.307, 10.0) - 0.05).abs() < 2e-3);
        assert!((chi_square_sf(0.0, 3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn student_t_critical_known_values() {
        // Classic table values for 95% two-sided.
        assert!((student_t_critical(1, 0.95) - 12.706).abs() < 1e-2);
        assert!((student_t_critical(10, 0.95) - 2.228).abs() < 1e-2);
        assert!((student_t_critical(100, 0.95) - 1.984).abs() < 1e-2);
        // Large df approaches the normal z = 1.96.
        assert!((student_t_critical(100_000, 0.95) - 1.96).abs() < 1e-2);
    }

    #[test]
    fn incomplete_beta_symmetry() {
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.0, 0.2)] {
            let lhs = regularized_incomplete_beta(a, b, x);
            let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn chi_square_test_accepts_exact_match() {
        let obs = [10.0, 20.0, 30.0, 40.0];
        let (stat, _, p) = chi_square_test(&obs, &obs, 5.0);
        assert!(stat < 1e-12);
        assert!(p > 0.999);
    }

    #[test]
    fn chi_square_test_rejects_gross_mismatch() {
        let obs = [100.0, 0.0, 0.0, 0.0];
        let exp = [25.0, 25.0, 25.0, 25.0];
        let (_, _, p) = chi_square_test(&obs, &exp, 5.0);
        assert!(p < 1e-6);
    }

    #[test]
    fn two_sample_statistic_is_the_homogeneity_sum() {
        // Equal totals: Σ (a − b)²/(a + b) over the unpooled bins.
        let a = [30.0, 50.0, 20.0];
        let b = [20.0, 50.0, 30.0];
        let (stat, df, p) = chi_square_two_sample(&a, &b, 5.0);
        assert!((stat - (100.0 / 50.0 + 0.0 + 100.0 / 50.0)).abs() < 1e-12);
        assert_eq!(df, 2.0);
        assert!((p - chi_square_sf(4.0, 2.0)).abs() < 1e-15);
        // Identical histograms at different totals are homogeneous.
        let (stat, _, p) = chi_square_two_sample(&[10.0, 20.0, 30.0], &[20.0, 40.0, 60.0], 5.0);
        assert!(stat < 1e-12 && p > 0.999);
    }

    #[test]
    fn two_sample_pools_sparse_bins_and_rejects_gross_mismatch() {
        // Sparse tail bins pool into one (df = 3 − 1), then a mismatch.
        let a = [40.0, 40.0, 1.0, 1.0, 0.0];
        let b = [40.0, 40.0, 0.0, 1.0, 1.0];
        let (_, df, p) = chi_square_two_sample(&a, &b, 5.0);
        assert_eq!(df, 2.0);
        assert!(p > 0.5);
        let (_, _, p) = chi_square_two_sample(&[100.0, 0.0], &[0.0, 100.0], 5.0);
        assert!(p < 1e-6);
    }

    #[test]
    fn two_sample_false_alarm_rate_is_nominal() {
        // Two multinomial samples of one law: p < 0.05 about 5 % of the
        // time, where treating one sample as the exact expectation
        // (doubling the variance of each term) alarms far more often.
        let probs = [0.05, 0.15, 0.3, 0.3, 0.15, 0.05];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut sample = |n: usize| {
            let mut h = [0.0; 6];
            for _ in 0..n {
                let (mut u, mut k) = (uniform(), 0);
                while k < 5 && u >= probs[k] {
                    u -= probs[k];
                    k += 1;
                }
                h[k] += 1.0;
            }
            h
        };
        let trials = 400;
        let (mut two_sample, mut one_sample) = (0, 0);
        for _ in 0..trials {
            let (a, b) = (sample(400), sample(400));
            two_sample += (chi_square_two_sample(&a, &b, 8.0).2 < 0.05) as usize;
            one_sample += (chi_square_test(&a, &b, 8.0).2 < 0.05) as usize;
        }
        let rate = two_sample as f64 / trials as f64;
        assert!((0.02..0.09).contains(&rate), "two-sample false-alarm rate {rate}");
        assert!(one_sample > 2 * two_sample, "{one_sample} vs {two_sample}");
    }

    #[test]
    fn confidence_interval_covers_mean_reasonably() {
        let xs: Vec<f64> = (0..50).map(|i| 10.0 + ((i * 7919) % 13) as f64 * 0.1).collect();
        let s = Summary::from_slice(&xs);
        let (lo, hi) = s.confidence_interval(0.95);
        assert!(lo < s.mean() && s.mean() < hi);
        assert!(hi - lo < 2.0);
    }

    #[test]
    fn welch_accepts_identical_groups() {
        let xs: Vec<f64> = (0..40).map(|i| ((i * 31) % 17) as f64).collect();
        let a = Summary::from_slice(&xs);
        let (t, df, p) = welch_t_test(&a, &a);
        assert!(t.abs() < 1e-12);
        assert!(df > 10.0);
        assert!(p > 0.999);
    }

    #[test]
    fn welch_detects_separated_groups() {
        let a =
            Summary::from_slice(&(0..30).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect::<Vec<_>>());
        let b =
            Summary::from_slice(&(0..30).map(|i| 9.0 + (i % 7) as f64 * 0.1).collect::<Vec<_>>());
        let (t, _, p) = welch_t_test(&a, &b);
        assert!(t < -10.0, "t = {t}");
        assert!(p < 1e-9, "p = {p}");
    }

    #[test]
    fn welch_matches_textbook_example() {
        // Two small groups with hand-computed Welch statistic.
        let a = Summary::from_slice(&[
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ]);
        let b = Summary::from_slice(&[
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0,
            23.9,
        ]);
        let (t, df, p) = welch_t_test(&a, &b);
        // Reference values computed independently (Welch formulas + the
        // regularized incomplete beta): t ≈ −2.83526, df ≈ 27.7136,
        // two-sided p ≈ 0.0084527.
        assert!((t - (-2.8352638)).abs() < 1e-6, "t = {t}");
        assert!((df - 27.713626).abs() < 1e-4, "df = {df}");
        assert!((p - 0.0084527).abs() < 1e-4, "p = {p}");
    }

    #[test]
    fn welch_symmetry_in_group_order() {
        let a = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 2.5]);
        let b = Summary::from_slice(&[2.0, 3.5, 4.0, 5.0, 3.0, 2.8]);
        let (t_ab, df_ab, p_ab) = welch_t_test(&a, &b);
        let (t_ba, df_ba, p_ba) = welch_t_test(&b, &a);
        assert!((t_ab + t_ba).abs() < 1e-12);
        assert!((df_ab - df_ba).abs() < 1e-12);
        assert!((p_ab - p_ba).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.5 * x + 2.0).collect();
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        assert!((slope + 0.5).abs() < 1e-12);
        assert!((intercept - 2.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_handles_noise_with_reduced_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x - 1.0 + if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        assert!((slope - 3.0).abs() < 0.05, "slope {slope}");
        assert!((intercept + 1.0).abs() < 0.3, "intercept {intercept}");
        assert!(r2 > 0.98 && r2 < 1.0, "r2 {r2}");
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn linear_fit_rejects_constant_x() {
        linear_fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
    }
}
