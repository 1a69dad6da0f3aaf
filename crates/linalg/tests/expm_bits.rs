//! Bit-pins `expm` over a fixed corpus of the paper's extended generators.
//!
//! The matrix exponential is the reference the epoch kernel is bounded
//! against (`epoch_kernel.rs`), so its output bits stay pinned. The digest
//! below was captured from the allocating Padé implementation; a change
//! that reorders a single floating-point operation moves it. The
//! interleaving tests check that no state carries from one call into the
//! next (a different size in between, or another thread at the same time).

use mflb_linalg::{expm, Mat};

/// FNV-1a (64-bit) digest of `expm` over [`corpus`], in corpus order.
const PINNED_DIGEST: u64 = 0xc9a9_a819_3e6e_1eab;

/// Higham's degree thresholds `θ_3, θ_5, θ_7, θ_9, θ_13`: the corpus must
/// put at least one matrix in every band, and one above `θ_13` (squaring).
const THETAS: [f64; 5] = [
    1.495_585_217_958_292e-2,
    2.539_398_330_063_23e-1,
    9.504_178_996_162_932e-1,
    2.097_847_961_257_068,
    5.371_920_351_148_152,
];

/// The extended rate matrix `Q̄` of a `{0,…,B}` queue plus its drop
/// accumulator, column convention, size `(B+2)×(B+2)` (Eq. 27).
fn extended_generator(arrival: f64, service: f64, buffer: usize) -> Mat {
    let n = buffer + 1;
    let mut q = Mat::zeros(n + 1, n + 1);
    for z in 0..n {
        if z < buffer {
            q[(z + 1, z)] += arrival;
            q[(z, z)] -= arrival;
        }
        if z > 0 {
            q[(z - 1, z)] += service;
            q[(z, z)] -= service;
        }
    }
    q[(n, n - 1)] = arrival;
    q
}

/// `Q̄·Δt` for B ∈ {5, 20}, λ ∈ {0, 0.3, 0.9, 2.7} (μ = 1) and Δt from
/// 0.005 (degree 3) through 0.01 (5), 0.2 (7), 0.5 (9 and 13) to 5 and 10
/// (scaling and squaring).
fn corpus() -> Vec<Mat> {
    let mut out = Vec::new();
    for buffer in [5, 20] {
        for dt in [0.005, 0.01, 0.2, 0.5, 5.0, 10.0] {
            for lambda in [0.0, 0.3, 0.9, 2.7] {
                out.push(extended_generator(lambda, 1.0, buffer).scaled(dt));
            }
        }
    }
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, m: &Mat) {
    for v in m.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn corpus_digest(corpus: &[Mat]) -> u64 {
    let mut hash = FNV_OFFSET;
    for q in corpus {
        fnv1a(&mut hash, &expm(q));
    }
    hash
}

#[test]
fn corpus_covers_every_pade_degree_and_squaring() {
    let norms: Vec<f64> = corpus().iter().map(Mat::norm_one).collect();
    let mut lo = 0.0;
    for hi in THETAS {
        assert!(norms.iter().any(|&n| n > lo && n <= hi), "no corpus matrix in ({lo}, {hi}]");
        lo = hi;
    }
    assert!(norms.iter().any(|&n| n > lo), "no corpus matrix needs squaring");
}

#[test]
fn expm_bits_match_pinned_digest() {
    let digest = corpus_digest(&corpus());
    assert_eq!(digest, PINNED_DIGEST, "expm output bits moved: digest {digest:#018x}");
}

#[test]
fn interleaved_sizes_reproduce_bits() {
    // A 3×3 (B = 1) generator after every corpus call, so each call starts
    // from a workspace last sized for another n: 3, 7 or 22.
    let small = extended_generator(0.7, 1.0, 1).scaled(3.0);
    let small_bits = expm(&small);
    let corpus = corpus();
    expm(corpus.last().expect("corpus is not empty"));
    let mut hash = FNV_OFFSET;
    for q in &corpus {
        fnv1a(&mut hash, &expm(q));
        assert_eq!(expm(&small), small_bits, "3×3 result depends on the previous call");
    }
    assert_eq!(hash, PINNED_DIGEST);
}

#[test]
fn concurrent_threads_reproduce_bits() {
    let corpus = corpus();
    let start = std::sync::Barrier::new(2);
    let digests: Vec<u64> = std::thread::scope(|s| {
        let run = || {
            start.wait();
            corpus_digest(&corpus)
        };
        let handles: Vec<_> = (0..2).map(|_| s.spawn(run)).collect();
        handles.into_iter().map(|h| h.join().expect("expm thread panicked")).collect()
    });
    assert_eq!(digests, vec![PINNED_DIGEST; 2]);
}
