//! Locality topologies: which queues each dispatcher can observe and
//! route to.
//!
//! The paper's model is a **full mesh** — every client may sample any of
//! the `M` queues. The sparse/localized follow-up work (Tahir, Cui &
//! Koeppl, *Sparse Mean Field Load Balancing in Large Localized Queueing
//! Systems*, arXiv:2312.12973) constrains dispatchers to a graph
//! neighborhood instead, which changes both the finite-system dynamics
//! and the mean-field limit. A [`Topology`] describes that constraint as
//! data:
//!
//! * every queue `j ∈ {0,…,M−1}` hosts a dispatcher;
//! * the dispatcher's **accessible set** `A(j)` is its *closed*
//!   neighborhood — the queue itself plus its graph neighbors;
//! * clients connected to dispatcher `j` sample their `d` queues
//!   uniformly **with replacement from `A(j)`** (instead of from all `M`
//!   queues) and observe the same synchronously-broadcast, hence stale,
//!   epoch-start states as in the full-mesh model.
//!
//! All supported families are **vertex-transitive or regular**, so every
//! accessible set has the same size `k` — the quantity the degree-indexed
//! mean-field approximation ([`crate::graph_meanfield`]) is indexed by.
//! The full mesh is the degenerate case `k = M`, recovering the paper's
//! model exactly.
//!
//! ### Storage and build cost
//! Neighborhoods materialize as a [`CsrNeighborhoods`] — compressed
//! sparse rows (`offsets` + `u32` `indices`), 4 bytes per entry — built
//! by **streaming** generators that cost `O(M·k)` time and one exact-size
//! allocation per array: a `10^6`-node torus or random `d`-regular
//! topology builds in well under a second. The random-regular draw uses
//! the configuration model with *incremental* pair-swap repair (no
//! from-scratch revalidation), keeping it linear in `M·d` too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Closed neighborhoods in compressed-sparse-row form: row `j` is the
/// accessible set `A(j)`, stored as `u32` queue indices with `j` itself
/// first and its neighbors in ascending order (the same per-row contract
/// as the legacy flat layout, so engine RNG streams are unchanged).
///
/// All current [`Topology`] families are `k`-regular, so every row has
/// the same length and `offsets[j] = j·k`; the offsets array is kept
/// explicit so irregular families can join without an engine change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrNeighborhoods {
    /// Row length (accessible-set size `k`; uniform for all rows).
    k: usize,
    /// Row start offsets, length `num_nodes + 1`.
    offsets: Vec<u32>,
    /// Concatenated rows: own queue first, then neighbors ascending.
    indices: Vec<u32>,
}

impl CsrNeighborhoods {
    /// Number of nodes (rows).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Uniform row length `k` (the accessible-set size).
    pub fn neighborhood_size(&self) -> usize {
        self.k
    }

    /// Total number of stored entries (`M·k`).
    pub fn num_entries(&self) -> usize {
        self.indices.len()
    }

    /// The closed neighborhood `A(j)`: own queue first, neighbors
    /// ascending.
    #[inline]
    pub fn row(&self, j: usize) -> &[u32] {
        &self.indices[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    /// Uniform-stride offsets for `m` rows of length `k`.
    fn regular_offsets(m: usize, k: usize) -> Vec<u32> {
        (0..=m).map(|j| (j * k) as u32).collect()
    }
}

/// A locality constraint on dispatcher routing, as data.
///
/// Serializes with externally tagged variants, e.g.
/// `"FullMesh"`, `{"Ring": {"radius": 2}}`,
/// `{"Torus": {"radius": 1}}`, `{"RandomRegular": {"degree": 4, "seed": 1}}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Every dispatcher reaches every queue (the paper's model; the
    /// degenerate `k = M` case).
    FullMesh,
    /// Queues on a cycle; dispatcher `j` reaches `j ± 1, …, j ± radius`
    /// (mod `M`). Accessible-set size `k = 2·radius + 1`.
    Ring {
        /// Reach on each side of the cycle (≥ 1).
        radius: usize,
    },
    /// Queues on a `√M × √M` 2-D torus; dispatcher `(x, y)` reaches every
    /// cell within L1 distance `radius` (wrapped). Accessible-set size
    /// `k = 2·radius² + 2·radius + 1` (5 for the von-Neumann `radius = 1`).
    Torus {
        /// L1 reach on the lattice (≥ 1).
        radius: usize,
    },
    /// A uniformly random simple `degree`-regular graph, drawn once from
    /// the configuration model with a pinned seed (so the same spec always
    /// builds the same graph). Accessible-set size `k = degree + 1`.
    RandomRegular {
        /// Number of neighbors per queue (≥ 1, < M, `degree·M` even).
        degree: usize,
        /// Seed of the graph draw (part of the spec: same seed, same graph).
        seed: u64,
    },
}

impl Topology {
    /// Size `k` of every accessible set for an `m`-queue system.
    pub fn neighborhood_size(&self, m: usize) -> usize {
        match self {
            Topology::FullMesh => m,
            Topology::Ring { radius } => 2 * radius + 1,
            Topology::Torus { radius } => 2 * radius * radius + 2 * radius + 1,
            Topology::RandomRegular { degree, .. } => degree + 1,
        }
    }

    /// Accessible-set size in the `M → ∞` limit: `None` means it grows
    /// with `M` (full mesh — the limit is the paper's Eq. 20–28 mean
    /// field), `Some(k)` is the fixed size the degree-indexed mean-field
    /// approximation ([`crate::graph_meanfield`]) is evaluated at.
    pub fn limit_neighborhood_size(&self) -> Option<usize> {
        match self {
            Topology::FullMesh => None,
            other => Some(other.neighborhood_size(usize::MAX)),
        }
    }

    /// Whether the accessible sets cover all `m` queues — the degenerate
    /// case in which a graph-constrained system *is* the paper's full-mesh
    /// system (e.g. a ring with `2·radius + 1 = M`, or `degree = M − 1`).
    pub fn is_full_mesh(&self, m: usize) -> bool {
        self.neighborhood_size(m) >= m
    }

    /// Checks the topology against a system size; returns a
    /// human-readable complaint.
    pub fn validate(&self, m: usize) -> Result<(), String> {
        if m == 0 {
            return Err("topology needs at least one queue".into());
        }
        match self {
            Topology::FullMesh => Ok(()),
            Topology::Ring { radius } => {
                if *radius == 0 {
                    return Err("ring radius must be at least 1".into());
                }
                if 2 * radius + 1 > m {
                    return Err(format!(
                        "ring radius {radius} needs 2·{radius}+1 = {} queues, got {m}",
                        2 * radius + 1
                    ));
                }
                Ok(())
            }
            Topology::Torus { radius } => {
                if *radius == 0 {
                    return Err("torus radius must be at least 1".into());
                }
                let side = (m as f64).sqrt().round() as usize;
                if side * side != m {
                    return Err(format!("torus topology needs a square number of queues, got {m}"));
                }
                // Distinct wrapped neighbors need the ball diameter to fit.
                if 2 * radius + 1 > side {
                    return Err(format!(
                        "torus radius {radius} needs a side of at least {}, got {side}",
                        2 * radius + 1
                    ));
                }
                Ok(())
            }
            Topology::RandomRegular { degree, .. } => {
                if *degree == 0 {
                    return Err("random-regular degree must be at least 1".into());
                }
                if *degree >= m {
                    return Err(format!(
                        "random-regular degree {degree} needs more than {degree} queues, got {m}"
                    ));
                }
                if !(*degree * m).is_multiple_of(2) {
                    return Err(format!(
                        "random-regular graph needs degree·M even, got {degree}·{m}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The [`Topology::csr`] rows for an `m`-queue system, flattened with
    /// stride [`Topology::neighborhood_size`] and widened to `usize`.
    #[cfg(test)]
    fn neighborhoods(&self, m: usize) -> Result<Vec<usize>, String> {
        let csr = self.csr(m)?;
        Ok(csr.indices.iter().map(|&i| i as usize).collect())
    }

    /// Materializes the closed neighborhoods in compressed-sparse-row
    /// form (`O(M·k)` time, two exact-size allocations). Each row holds
    /// the dispatcher's own queue first, then its neighbors in ascending
    /// index order. Deterministic for a fixed spec — the random-regular
    /// draw is pinned by its embedded seed.
    pub fn csr(&self, m: usize) -> Result<CsrNeighborhoods, String> {
        self.validate(m)?;
        let k = self.neighborhood_size(m);
        if (m as u64) * (k as u64) > u32::MAX as u64 {
            return Err(format!("topology too large for u32 CSR indices: {m}·{k} entries"));
        }
        let offsets = CsrNeighborhoods::regular_offsets(m, k);
        let mut indices: Vec<u32> = Vec::with_capacity(m * k);
        match self {
            Topology::FullMesh => {
                for j in 0..m {
                    indices.push(j as u32);
                    indices.extend((0..m as u32).filter(|&i| i != j as u32));
                }
            }
            Topology::Ring { radius } => {
                // Reused scratch keeps the per-node sort allocation-free;
                // k is O(radius), so the total cost stays O(M·k·log k).
                let mut nbrs: Vec<u32> = Vec::with_capacity(k - 1);
                for j in 0..m {
                    indices.push(j as u32);
                    nbrs.clear();
                    for r in 1..=*radius {
                        nbrs.push(((j + r) % m) as u32);
                        nbrs.push(((j + m - r) % m) as u32);
                    }
                    nbrs.sort_unstable();
                    indices.extend_from_slice(&nbrs);
                }
            }
            Topology::Torus { radius } => {
                let side = (m as f64).sqrt().round() as usize;
                let r = *radius as isize;
                let s = side as isize;
                let mut nbrs: Vec<u32> = Vec::with_capacity(k - 1);
                for j in 0..m {
                    let (x, y) = ((j % side) as isize, (j / side) as isize);
                    indices.push(j as u32);
                    nbrs.clear();
                    for dx in -r..=r {
                        let budget = r - dx.abs();
                        for dy in -budget..=budget {
                            if dx == 0 && dy == 0 {
                                continue;
                            }
                            let nx = (x + dx).rem_euclid(s) as usize;
                            let ny = (y + dy).rem_euclid(s) as usize;
                            nbrs.push((ny * side + nx) as u32);
                        }
                    }
                    nbrs.sort_unstable();
                    indices.extend_from_slice(&nbrs);
                }
            }
            Topology::RandomRegular { degree, seed } => {
                random_regular_into(m, *degree, *seed, &mut indices)?;
            }
        }
        debug_assert_eq!(indices.len(), m * k);
        Ok(CsrNeighborhoods { k, offsets, indices })
    }
}

/// Draws a random simple `degree`-regular graph on `m` vertices via the
/// configuration model with **incremental** pair-swap repair,
/// deterministically from `seed`, writing closed-neighborhood CSR rows
/// (own vertex first, neighbors ascending) into `out`.
///
/// One uniform stub matching is drawn (Fisher–Yates), the edge list is
/// built in a single pass, and every offending pair — a self-loop or a
/// parallel edge — is queued and later re-matched against a random *good*
/// pair by an edge swap that is validated against the current adjacency
/// in `O(degree)`. No from-scratch revalidation ever happens, so the
/// whole draw is `O(M·degree)` expected time (the expected number of bad
/// pairs is `O(degree²)`, independent of `M`). A bounded number of failed
/// swap proposals abandons the matching and reshuffles, which keeps
/// pathological specs (near-complete graphs) terminating.
fn random_regular_into(
    m: usize,
    degree: usize,
    seed: u64,
    out: &mut Vec<u32>,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_62A9);
    const MAX_ATTEMPTS: usize = 40;
    let mut stubs: Vec<u32> = (0..m as u32).flat_map(|v| std::iter::repeat_n(v, degree)).collect();
    let half = stubs.len() / 2;
    // Flat adjacency under construction: vertex v's neighbors so far are
    // nbrs[v·degree..v·degree + deg[v]] (unsorted until the final pass).
    let mut nbrs: Vec<u32> = vec![0; m * degree];
    let mut deg: Vec<u32> = vec![0; m];
    let mut bad: Vec<usize> = Vec::new();
    let mut is_bad: Vec<bool> = vec![false; half];

    let has_edge = |nbrs: &[u32], deg: &[u32], u: u32, v: u32| -> bool {
        let base = u as usize * degree;
        nbrs[base..base + deg[u as usize] as usize].contains(&v)
    };
    let add_edge = |nbrs: &mut [u32], deg: &mut [u32], u: u32, v: u32| {
        nbrs[u as usize * degree + deg[u as usize] as usize] = v;
        deg[u as usize] += 1;
        nbrs[v as usize * degree + deg[v as usize] as usize] = u;
        deg[v as usize] += 1;
    };
    let remove_edge = |nbrs: &mut [u32], deg: &mut [u32], u: u32, v: u32| {
        for (a, b) in [(u, v), (v, u)] {
            let base = a as usize * degree;
            let len = deg[a as usize] as usize;
            let pos = nbrs[base..base + len].iter().position(|&x| x == b).expect("edge present");
            nbrs.swap(base + pos, base + len - 1);
            deg[a as usize] -= 1;
        }
    };

    'attempt: for _ in 0..MAX_ATTEMPTS {
        // Fisher–Yates shuffle; pair `t` is (stubs[2t], stubs[2t+1]).
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            stubs.swap(i, j);
        }
        deg.iter_mut().for_each(|d| *d = 0);
        bad.clear();
        is_bad.iter_mut().for_each(|b| *b = false);
        // Single build pass: good pairs become edges, offenders queue up.
        for t in 0..half {
            let (a, b) = (stubs[2 * t], stubs[2 * t + 1]);
            if a == b || has_edge(&nbrs, &deg, a, b) {
                bad.push(t);
                is_bad[t] = true;
            } else {
                add_edge(&mut nbrs, &mut deg, a, b);
            }
        }
        // Incremental repair: swap each bad pair's endpoints with a random
        // good pair's, accepting only swaps that keep the graph simple.
        // Each acceptance retires one bad pair for good.
        let mut proposals_left = 200 * (bad.len() + 1);
        while let Some(t) = bad.pop() {
            let (a, b) = (stubs[2 * t], stubs[2 * t + 1]);
            loop {
                if proposals_left == 0 {
                    continue 'attempt; // hopeless matching: reshuffle
                }
                proposals_left -= 1;
                let o = rng.gen_range(0..half);
                if o == t || is_bad[o] {
                    continue;
                }
                let (c, d) = (stubs[2 * o], stubs[2 * o + 1]);
                // Proposed swap: (a,b),(c,d) → (a,d),(c,b). Both new edges
                // must be simple and distinct; (a,d) ≠ (c,d) etc. are
                // implied by the has_edge checks since (c,d) is still in
                // the adjacency here.
                let distinct = !((a == c && d == b) || (a == b && d == c));
                if a == d
                    || c == b
                    || !distinct
                    || has_edge(&nbrs, &deg, a, d)
                    || has_edge(&nbrs, &deg, c, b)
                {
                    continue;
                }
                remove_edge(&mut nbrs, &mut deg, c, d);
                add_edge(&mut nbrs, &mut deg, a, d);
                add_edge(&mut nbrs, &mut deg, c, b);
                stubs[2 * t + 1] = d;
                stubs[2 * o + 1] = b;
                is_bad[t] = false;
                break;
            }
        }
        // Assemble closed-neighborhood CSR rows.
        debug_assert!(deg.iter().all(|&d| d as usize == degree));
        for v in 0..m {
            out.push(v as u32);
            let start = out.len();
            out.extend_from_slice(&nbrs[v * degree..(v + 1) * degree]);
            out[start..].sort_unstable();
        }
        return Ok(());
    }
    Err(format!(
        "could not draw a simple {degree}-regular graph on {m} vertices (seed {seed}); \
         lower the degree or change the seed"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_regular(top: &Topology, m: usize) {
        let k = top.neighborhood_size(m);
        let flat = top.neighborhoods(m).expect("valid topology");
        assert_eq!(flat.len(), m * k);
        for j in 0..m {
            let nbrs = &flat[j * k..(j + 1) * k];
            assert_eq!(nbrs[0], j, "own queue first");
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "accessible set of {j} must be distinct: {nbrs:?}");
            assert!(sorted.iter().all(|&i| i < m));
        }
    }

    #[test]
    fn ring_neighborhoods_are_symmetric_windows() {
        let top = Topology::Ring { radius: 2 };
        check_regular(&top, 10);
        let flat = top.neighborhoods(10).unwrap();
        // Node 0 reaches {0, 1, 2, 8, 9}.
        assert_eq!(&flat[0..5], &[0, 1, 2, 8, 9]);
    }

    #[test]
    fn torus_radius1_is_von_neumann() {
        let top = Topology::Torus { radius: 1 };
        assert_eq!(top.neighborhood_size(25), 5);
        check_regular(&top, 25);
        let flat = top.neighborhoods(25).unwrap();
        // Node 6 = (1,1) on the 5×5 torus reaches (0,1),(2,1),(1,0),(1,2).
        assert_eq!(&flat[6 * 5..7 * 5], &[6, 1, 5, 7, 11]);
    }

    #[test]
    fn random_regular_is_regular_and_seed_pinned() {
        let top = Topology::RandomRegular { degree: 4, seed: 7 };
        check_regular(&top, 30);
        let a = top.neighborhoods(30).unwrap();
        let b = top.neighborhoods(30).unwrap();
        assert_eq!(a, b, "same seed, same graph");
        let other = Topology::RandomRegular { degree: 4, seed: 8 }.neighborhoods(30).unwrap();
        assert_ne!(a, other, "different seed, different graph (w.h.p.)");
        // Undirected: j ∈ A(i) ⇔ i ∈ A(j).
        let k = 5;
        for i in 0..30 {
            for &j in &a[i * k + 1..(i + 1) * k] {
                assert!(a[j * k..(j + 1) * k].contains(&i), "edge {i}-{j} must be symmetric");
            }
        }
    }

    #[test]
    fn full_mesh_covers_everything() {
        let top = Topology::FullMesh;
        assert!(top.is_full_mesh(17));
        assert_eq!(top.neighborhood_size(17), 17);
        assert_eq!(top.limit_neighborhood_size(), None);
        check_regular(&top, 8);
    }

    #[test]
    fn degenerate_covers_are_detected() {
        // Ring whose window wraps the whole cycle, and a complete
        // random-regular graph, are full meshes in disguise.
        assert!(Topology::Ring { radius: 3 }.is_full_mesh(7));
        assert!(!Topology::Ring { radius: 3 }.is_full_mesh(8));
        assert!(Topology::RandomRegular { degree: 9, seed: 1 }.is_full_mesh(10));
    }

    #[test]
    fn invalid_specs_are_rejected_with_reasons() {
        let cases: Vec<(&str, Topology, usize)> = vec![
            ("zero ring radius", Topology::Ring { radius: 0 }, 10),
            ("ring wider than the cycle", Topology::Ring { radius: 5 }, 10),
            ("zero torus radius", Topology::Torus { radius: 0 }, 25),
            ("non-square torus", Topology::Torus { radius: 1 }, 24),
            ("torus ball wider than the side", Topology::Torus { radius: 3 }, 25),
            ("zero degree", Topology::RandomRegular { degree: 0, seed: 1 }, 10),
            ("degree >= M", Topology::RandomRegular { degree: 10, seed: 1 }, 10),
            ("odd stub count", Topology::RandomRegular { degree: 3, seed: 1 }, 9),
        ];
        for (what, top, m) in cases {
            assert!(top.validate(m).is_err(), "{what} must be rejected");
            assert!(top.neighborhoods(m).is_err(), "{what} must not materialize");
        }
    }

    #[test]
    fn limit_sizes_are_m_independent_for_sparse_families() {
        assert_eq!(Topology::Ring { radius: 2 }.limit_neighborhood_size(), Some(5));
        assert_eq!(Topology::Torus { radius: 1 }.limit_neighborhood_size(), Some(5));
        assert_eq!(
            Topology::RandomRegular { degree: 4, seed: 1 }.limit_neighborhood_size(),
            Some(5)
        );
    }

    #[test]
    fn csr_matches_the_flat_layout_on_every_family() {
        // The CSR form is the storage of record; the legacy flat layout is
        // a widening copy of it. Check the row contract (own queue first,
        // neighbors ascending) and the byte-level agreement family by
        // family so engine RNG streams cannot shift.
        for (top, m) in [
            (Topology::FullMesh, 8),
            (Topology::Ring { radius: 2 }, 10),
            (Topology::Torus { radius: 1 }, 25),
            (Topology::RandomRegular { degree: 4, seed: 7 }, 30),
        ] {
            let k = top.neighborhood_size(m);
            let csr = top.csr(m).expect("valid topology");
            let flat = top.neighborhoods(m).expect("valid topology");
            assert_eq!(csr.num_nodes(), m);
            assert_eq!(csr.neighborhood_size(), k);
            assert_eq!(csr.num_entries(), m * k);
            for j in 0..m {
                let row = csr.row(j);
                assert_eq!(row.len(), k);
                assert_eq!(row[0] as usize, j, "own queue first");
                assert!(row[1..].windows(2).all(|w| w[0] < w[1]), "neighbors ascending");
                let widened: Vec<usize> = row.iter().map(|&i| i as usize).collect();
                assert_eq!(widened, flat[j * k..(j + 1) * k], "{top:?} row {j}");
            }
        }
    }

    #[test]
    fn csr_rejects_what_validate_rejects() {
        assert!(Topology::Ring { radius: 0 }.csr(10).is_err());
        assert!(Topology::Torus { radius: 1 }.csr(24).is_err());
    }

    #[test]
    fn topology_serde_round_trips() {
        for top in [
            Topology::FullMesh,
            Topology::Ring { radius: 2 },
            Topology::Torus { radius: 1 },
            Topology::RandomRegular { degree: 4, seed: 9 },
        ] {
            let json = serde_json::to_string(&top).unwrap();
            let back: Topology = serde_json::from_str(&json).unwrap();
            assert_eq!(top, back, "{json}");
        }
    }
}
