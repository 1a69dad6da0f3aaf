//! A lattice discretization of the probability simplex `P(Z)`.
//!
//! Grid points are the distributions `ν = c/G` where `c ∈ ℕ^{|Z|}` is a
//! composition of the *resolution* `G` into `|Z|` nonnegative parts. The
//! number of points is `C(G + |Z| − 1, |Z| − 1)`, i.e. polynomial in `G`
//! for fixed `B` — small enough for exact value iteration at the paper's
//! `B = 5` and the resolutions used by the DP ablation.
//!
//! Indexing uses the combinatorial number system (lexicographic ranking of
//! compositions), so lookups need no hashing and rank/unrank are exact
//! inverses. [`SimplexGrid::snap`] projects an arbitrary distribution to a
//! nearest grid point (largest-remainder rounding, which minimizes the ℓ₁
//! distance among lattice points).

use mflb_core::StateDist;

/// A fixed-resolution lattice over the simplex of distributions on
/// `{0, …, B}`.
#[derive(Debug, Clone)]
pub struct SimplexGrid {
    num_states: usize,
    resolution: usize,
    /// `binom[n][k] = C(n, k)` for ranking, up to `G + |Z|`.
    binom: Vec<Vec<u64>>,
    num_points: usize,
}

impl SimplexGrid {
    /// Creates the grid for distributions over `num_states` states at
    /// resolution `G` (probabilities are multiples of `1/G`).
    ///
    /// # Panics
    /// Panics when there are no states, the resolution is zero, or the
    /// point count would overflow `usize`.
    pub fn new(num_states: usize, resolution: usize) -> Self {
        assert!(num_states >= 1);
        assert!(resolution >= 1);
        let n = resolution + num_states;
        let mut binom = vec![vec![0u64; n + 1]; n + 1];
        for i in 0..=n {
            binom[i][0] = 1;
            for k in 1..=i {
                let upper = if k < i { binom[i - 1][k] } else { 0 };
                binom[i][k] = binom[i - 1][k - 1]
                    .checked_add(upper)
                    .expect("binomial overflow: grid too large");
            }
        }
        let num_points = binom[resolution + num_states - 1][num_states - 1];
        let num_points = usize::try_from(num_points).expect("grid too large");
        Self { num_states, resolution, binom, num_points }
    }

    /// Number of states `|Z|`.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Resolution `G`.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Number of lattice points `C(G + |Z| − 1, |Z| − 1)`.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    fn choose(&self, n: usize, k: usize) -> u64 {
        if k > n {
            0
        } else {
            self.binom[n][k]
        }
    }

    /// Number of compositions of `total` into `parts` nonnegative parts.
    fn compositions(&self, total: usize, parts: usize) -> u64 {
        if parts == 0 {
            return u64::from(total == 0);
        }
        self.choose(total + parts - 1, parts - 1)
    }

    /// Lexicographic rank of a composition (counts summing to `G`).
    ///
    /// # Panics
    /// Panics if the counts have the wrong length or sum.
    pub fn rank(&self, counts: &[usize]) -> usize {
        assert_eq!(counts.len(), self.num_states, "composition length");
        debug_assert_eq!(counts.iter().sum::<usize>(), self.resolution, "composition sum");
        let mut rank = 0u64;
        let mut remaining = self.resolution;
        for (pos, &c) in counts.iter().enumerate().take(self.num_states - 1) {
            let parts_after = self.num_states - pos - 1;
            // Compositions with a smaller count at this position come first.
            for smaller in 0..c {
                rank += self.compositions(remaining - smaller, parts_after);
            }
            remaining -= c;
        }
        usize::try_from(rank).expect("rank fits usize")
    }

    /// Inverse of [`SimplexGrid::rank`].
    pub fn unrank(&self, mut index: usize) -> Vec<usize> {
        assert!(index < self.num_points, "index {index} out of range");
        let mut counts = vec![0usize; self.num_states];
        let mut remaining = self.resolution;
        for pos in 0..self.num_states - 1 {
            let parts_after = self.num_states - pos - 1;
            let mut c = 0usize;
            loop {
                let block = self.compositions(remaining - c, parts_after) as usize;
                if index < block {
                    break;
                }
                index -= block;
                c += 1;
            }
            counts[pos] = c;
            remaining -= c;
        }
        counts[self.num_states - 1] = remaining;
        counts
    }

    /// The distribution at a lattice index.
    pub fn point(&self, index: usize) -> StateDist {
        let counts = self.unrank(index);
        let g = self.resolution as f64;
        StateDist::new(counts.iter().map(|&c| c as f64 / g).collect())
    }

    /// Projects a distribution to a nearest lattice point by
    /// largest-remainder rounding and returns its index.
    ///
    /// Rounding each `ν_i·G` down and distributing the leftover units to
    /// the largest fractional parts minimizes `‖ν − c/G‖₁` over the
    /// lattice (ties broken towards lower state indices).
    pub fn snap(&self, dist: &StateDist) -> usize {
        assert_eq!(dist.num_states(), self.num_states);
        let g = self.resolution;
        let mut counts = vec![0usize; self.num_states];
        let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(self.num_states);
        let mut used = 0usize;
        for (i, &p) in dist.as_slice().iter().enumerate() {
            let scaled = p * g as f64;
            let floor = scaled.floor() as usize;
            let floor = floor.min(g); // guard against 1+ε round-off
            counts[i] = floor;
            used += floor;
            fracs.push((scaled - floor as f64, i));
        }
        debug_assert!(used <= g, "floor counts exceed resolution");
        let mut leftover = g - used;
        // Largest fractional parts first; stable tie-break on state index.
        fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        for &(_, i) in &fracs {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        debug_assert_eq!(counts.iter().sum::<usize>(), g);
        self.rank(&counts)
    }

    /// Iterates over all lattice indices (0..num_points).
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.num_points
    }

    /// Decomposes a distribution into a convex combination of lattice
    /// points whose weighted average is **exactly** `ν` (linear-exact
    /// interpolation): returns `(index, weight)` pairs with positive
    /// weights summing to 1, at most `|Z|` of them.
    ///
    /// Construction: write `G·ν = f + φ` with integer floors `f` and
    /// fractional parts `φ` summing to an integer `r`; decompose `φ` over
    /// the 0/1 vectors with exactly `r` ones by *systematic sampling* —
    /// the selection `X(u)`, `u ∈ [0,1)`, picks coordinate `i` iff the
    /// interval `(C_{i−1}, C_i]` of cumulative `φ` contains a point of
    /// `u + ℤ`. `X(·)` is piecewise constant with `E[X] = φ`, so
    /// integrating `u` yields exact weights. Every resulting `f + X` is a
    /// valid composition of `G`. The pieces of `u ↦ X(u)` lie between the
    /// fractional parts of `C_0, …, C_{|Z|−2}` and `0` and `1` (`C_{|Z|−1}
    /// = r` adds no breakpoint), so there are at most `|Z|` of them.
    ///
    /// Compared to [`SimplexGrid::snap`], this removes the `O(1/G)`
    /// first-order bias of nearest-point value lookups while remaining a
    /// sup-norm non-expansion (convex weights), so value iteration with
    /// interpolated continuation values is still a `γ`-contraction.
    pub fn interpolate(&self, dist: &StateDist) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.num_states);
        self.interpolate_into(dist, &mut InterpolationScratch::default(), &mut out);
        out
    }

    /// [`SimplexGrid::interpolate`] into `out` (cleared first), with its
    /// working buffers kept in `scratch`, so repeated calls allocate
    /// nothing once the buffers have grown.
    pub(crate) fn interpolate_into(
        &self,
        dist: &StateDist,
        scratch: &mut InterpolationScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        assert_eq!(dist.num_states(), self.num_states);
        out.clear();
        let n = self.num_states;
        let g = self.resolution as f64;
        let InterpolationScratch { floors, cum, breaks, vertex } = scratch;
        floors.clear();
        floors.reserve(n);
        cum.clear();
        cum.reserve(n);
        let mut floor_sum = 0usize;
        for &p in dist.as_slice() {
            let y = p * g;
            let mut f = y.floor();
            let mut phi = y - f;
            // Treat 1−ε fractional parts as integers (fp drift guard).
            if phi >= 1.0 - 1e-9 {
                f += 1.0;
                phi = 0.0;
            }
            floors.push(f as usize);
            cum.push(phi.max(0.0));
            floor_sum += f as usize;
        }
        debug_assert!(floor_sum <= self.resolution, "floors exceed resolution");
        let r = self.resolution - floor_sum;
        if r == 0 {
            out.push((self.rank(floors), 1.0));
            return;
        }
        // Force the fractional mass to sum to r exactly.
        let s: f64 = cum.iter().sum();
        debug_assert!((s - r as f64).abs() < 1e-6, "fractional mass {s} vs r={r}");
        if s > 0.0 {
            let scale = r as f64 / s;
            for phi in cum.iter_mut() {
                *phi = (*phi * scale).min(1.0);
            }
        }
        // Cumulative sums (in place) with the last pinned to r.
        let mut acc = 0.0;
        for c in cum.iter_mut() {
            acc += *c;
            *c = acc;
        }
        cum[n - 1] = r as f64;
        // Breakpoints of u ↦ X(u): fractional parts of the cumulative sums.
        breaks.clear();
        breaks.reserve(n + 2);
        breaks.extend(cum.iter().map(|c| c - c.floor()));
        breaks.push(0.0);
        breaks.push(1.0);
        breaks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        breaks.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        vertex.clear();
        vertex.resize(n, 0);
        for w in breaks.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let weight = hi - lo;
            if weight <= 1e-12 {
                continue;
            }
            let u = 0.5 * (lo + hi);
            // X(u)_i = #integers in (C_{i−1} − u, C_i − u] ∈ {0, 1}.
            let mut prev = 0.0f64;
            let mut selected = 0usize;
            for i in 0..n {
                let k = ((cum[i] - u).floor() - (prev - u).floor()) as isize;
                debug_assert!((0..=1).contains(&k), "selection multiplicity {k}");
                vertex[i] = floors[i] + k as usize;
                selected += k as usize;
                prev = cum[i];
            }
            debug_assert_eq!(selected, r, "systematic sample size");
            let idx = self.rank(vertex);
            match out.iter_mut().find(|(i, _)| *i == idx) {
                Some((_, acc_w)) => *acc_w += weight,
                None => out.push((idx, weight)),
            }
        }
        debug_assert!(out.len() <= n, "{} interpolation pairs for {n} states", out.len());
        // Weights sum to 1 up to fp; renormalize defensively.
        let total: f64 = out.iter().map(|(_, w)| w).sum();
        debug_assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        for (_, w) in out.iter_mut() {
            *w /= total;
        }
    }
}

/// Working buffers of [`SimplexGrid::interpolate_into`]; one per thread.
#[derive(Debug, Default)]
pub(crate) struct InterpolationScratch {
    floors: Vec<usize>,
    cum: Vec<f64>,
    breaks: Vec<f64>,
    vertex: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_count_matches_stars_and_bars() {
        // C(G + n − 1, n − 1).
        assert_eq!(SimplexGrid::new(6, 8).num_points(), 1287); // C(13,5)
        assert_eq!(SimplexGrid::new(3, 4).num_points(), 15); // C(6,2)
        assert_eq!(SimplexGrid::new(1, 5).num_points(), 1);
        assert_eq!(SimplexGrid::new(4, 1).num_points(), 4);
    }

    #[test]
    fn rank_unrank_roundtrip_exhaustive() {
        for (n, g) in [(3usize, 5usize), (4, 4), (6, 3), (2, 10)] {
            let grid = SimplexGrid::new(n, g);
            for idx in grid.indices() {
                let counts = grid.unrank(idx);
                assert_eq!(counts.len(), n);
                assert_eq!(counts.iter().sum::<usize>(), g);
                assert_eq!(grid.rank(&counts), idx, "n={n} g={g} idx={idx}");
            }
        }
    }

    #[test]
    fn unrank_is_lexicographically_increasing() {
        let grid = SimplexGrid::new(3, 4);
        let mut prev = grid.unrank(0);
        for idx in 1..grid.num_points() {
            let cur = grid.unrank(idx);
            assert!(cur > prev, "{cur:?} must follow {prev:?}");
            prev = cur;
        }
    }

    #[test]
    fn points_are_valid_distributions() {
        let grid = SimplexGrid::new(6, 8);
        for idx in [0, 1, 100, 642, 1286] {
            let p = grid.point(idx);
            let mass: f64 = p.as_slice().iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn snap_is_identity_on_lattice_points() {
        let grid = SimplexGrid::new(6, 8);
        for idx in grid.indices().step_by(37) {
            assert_eq!(grid.snap(&grid.point(idx)), idx);
        }
    }

    #[test]
    fn snap_minimizes_l1_distance() {
        // Brute-force check on a small grid: snapped point is no farther
        // than any other lattice point.
        let grid = SimplexGrid::new(3, 5);
        let candidates = [
            StateDist::new(vec![0.5, 0.3, 0.2]),
            StateDist::new(vec![0.05, 0.05, 0.9]),
            StateDist::new(vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
            StateDist::new(vec![0.11, 0.46, 0.43]),
        ];
        for nu in &candidates {
            let snapped = grid.point(grid.snap(nu));
            let ours = nu.l1_distance(&snapped);
            for idx in grid.indices() {
                let other = nu.l1_distance(&grid.point(idx));
                assert!(
                    ours <= other + 1e-12,
                    "snap {:?} -> {:?} (d={ours}) beaten by {:?} (d={other})",
                    nu.as_slice(),
                    snapped.as_slice(),
                    grid.point(idx).as_slice()
                );
            }
        }
    }

    #[test]
    fn snap_error_shrinks_with_resolution() {
        let nu = StateDist::new(vec![0.23, 0.17, 0.31, 0.12, 0.09, 0.08]);
        let mut last = f64::INFINITY;
        for g in [2usize, 4, 8, 16, 32] {
            let grid = SimplexGrid::new(6, g);
            let err = nu.l1_distance(&grid.point(grid.snap(&nu)));
            assert!(err <= last + 1e-12, "g={g}: err {err} > previous {last}");
            last = err;
        }
        assert!(last < 0.1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_rejects_out_of_range() {
        let grid = SimplexGrid::new(3, 2);
        grid.unrank(grid.num_points());
    }

    #[test]
    fn interpolation_is_linear_exact() {
        // Σ_k w_k · point_k == ν coordinate-wise, for assorted ν and G.
        let cases = [
            (3usize, 5usize, vec![0.5, 0.3, 0.2]),
            (6, 8, vec![0.23, 0.17, 0.31, 0.12, 0.09, 0.08]),
            (4, 3, vec![0.7, 0.1, 0.1, 0.1]),
            (6, 16, vec![0.01, 0.02, 0.03, 0.04, 0.4, 0.5]),
        ];
        for (n, g, probs) in cases {
            let grid = SimplexGrid::new(n, g);
            let nu = StateDist::new(probs);
            let parts = grid.interpolate(&nu);
            let wsum: f64 = parts.iter().map(|(_, w)| w).sum();
            assert!((wsum - 1.0).abs() < 1e-12);
            assert!(parts.iter().all(|&(_, w)| w > 0.0));
            assert!(parts.len() <= n);
            let mut recon = vec![0.0f64; n];
            for &(idx, w) in &parts {
                for (r, &p) in recon.iter_mut().zip(grid.point(idx).as_slice()) {
                    *r += w * p;
                }
            }
            for (a, b) in recon.iter().zip(nu.as_slice()) {
                assert!((a - b).abs() < 1e-9, "reconstruction {a} vs {b} (n={n}, g={g})");
            }
        }
    }

    #[test]
    fn interpolation_of_lattice_point_is_itself() {
        let grid = SimplexGrid::new(6, 8);
        for idx in grid.indices().step_by(101) {
            let parts = grid.interpolate(&grid.point(idx));
            assert_eq!(parts.len(), 1, "{parts:?}");
            assert_eq!(parts[0].0, idx);
            assert!((parts[0].1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_beats_snap_on_linear_functions() {
        // For the linear functional ν ↦ ν(B), interpolation is exact while
        // the nearest snap generally is not.
        let grid = SimplexGrid::new(6, 8);
        let nu = StateDist::new(vec![0.21, 0.19, 0.18, 0.17, 0.13, 0.12]);
        let f = |d: &StateDist| d.full_fraction();
        let interp: f64 =
            grid.interpolate(&nu).iter().map(|&(idx, w)| w * f(&grid.point(idx))).sum();
        let snapped = f(&grid.point(grid.snap(&nu)));
        assert!((interp - f(&nu)).abs() < 1e-9);
        assert!((interp - f(&nu)).abs() <= (snapped - f(&nu)).abs());
    }
}
