//! Bounds the uniformization epoch kernel against the Padé matrix
//! exponential of the paper's extended generator (Eq. 27–28).
//!
//! The kernel advances `v` by `exp(Q·Δt)` and integrates the drop rates
//! `r`; Padé gets the same numbers from `exp(Q̄·Δt)·[v; 0]`, where `Q̄` is
//! `Q` in column convention with `r` as an extra accumulator row. The
//! corpus is the `expm_bits.rs` one (every Padé degree and the squaring
//! path), plus Δt = 60, epochs at the `MAX_EPOCH_EVENTS` edge (q·Δt ≈ 1e4,
//! about twenty substeps) and an `H₂`-service `M/PH/1/B` queue, each from
//! every start state. Bounds: 1e-10 per distribution entry, and
//! 1e-10·max(D, 1e-6) on the drops `D`: a purely relative bound would ask
//! for agreement far below one ulp when `D ≈ 1e-12`.

use mflb_linalg::{advance, expm, Mat, Move, EPOCH_TOL};

/// Largest `q·Δt` a validated configuration admits
/// (`mflb_core::config::MAX_EPOCH_EVENTS`).
const MAX_EPOCH_EVENTS: f64 = 1e4;

/// A queue model as a move list `(from, to, rate)` on `n` states plus its
/// drop rates (the arrival rate on the full-buffer states).
struct Chain {
    n: usize,
    moves: Vec<Move>,
    drop_rates: Vec<(usize, f64)>,
}

impl Chain {
    /// The extended rate matrix `Q̄` in column convention, `(n+1)×(n+1)`.
    fn extended_column(&self) -> Mat {
        let n = self.n;
        let mut q = Mat::zeros(n + 1, n + 1);
        for &(from, to, rate) in &self.moves {
            q[(to, from)] += rate;
            q[(from, from)] -= rate;
        }
        for &(i, r) in &self.drop_rates {
            q[(n, i)] = r;
        }
        q
    }

    fn max_exit(&self) -> f64 {
        let mut exit = vec![0.0; self.n];
        for &(from, _, rate) in &self.moves {
            exit[from] += rate;
        }
        exit.into_iter().fold(0.0, f64::max)
    }
}

/// `M/M/1/B` with arrival rate `arrival` and service rate `service`.
fn birth_death(arrival: f64, service: f64, buffer: usize) -> Chain {
    let mut moves = Vec::new();
    for z in 0..=buffer {
        if z < buffer {
            moves.push((z, z + 1, arrival));
        }
        if z > 0 {
            moves.push((z, z - 1, service));
        }
    }
    Chain { n: buffer + 1, moves, drop_rates: vec![(buffer, arrival)] }
}

/// `M/H₂/1/B` with unit-mean, SCV-2 balanced-means service, over the
/// joint states `0` (empty) and `1 + (z−1)·2 + phase`.
fn h2_queue(arrival: f64, buffer: usize) -> Chain {
    let scv: f64 = 2.0;
    let p1 = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
    let init = [p1, 1.0 - p1];
    let rates = [2.0 * p1, 2.0 * (1.0 - p1)];
    let at = |z: usize, phase: usize| 1 + (z - 1) * 2 + phase;
    let mut moves = Vec::new();
    for (j, &a) in init.iter().enumerate() {
        moves.push((0, at(1, j), arrival * a));
    }
    for z in 1..=buffer {
        for i in 0..2 {
            if z < buffer {
                moves.push((at(z, i), at(z + 1, i), arrival));
            }
            if z == 1 {
                moves.push((at(z, i), 0, rates[i]));
            } else {
                for (j, &a) in init.iter().enumerate() {
                    moves.push((at(z, i), at(z - 1, j), rates[i] * a));
                }
            }
        }
    }
    let drop_rates = vec![(at(buffer, 0), arrival), (at(buffer, 1), arrival)];
    Chain { n: 1 + 2 * buffer, moves, drop_rates }
}

/// Largest `(entry error, drop error / max(D, 1e-6))` over every start
/// state of `chain` at `dt`.
fn worst_gap(chain: &Chain, dt: f64) -> (f64, f64) {
    let n = chain.n;
    let pade = expm(&chain.extended_column().scaled(dt));
    let (mut entry, mut drop) = (0.0f64, 0.0f64);
    for start in 0..n {
        let mut v = vec![0.0; n];
        v[start] = 1.0;
        let out = advance(&chain.moves, &chain.drop_rates, &mut v, dt, EPOCH_TOL);
        for (i, a) in v.iter().enumerate() {
            entry = entry.max((a - pade[(i, start)]).abs());
        }
        let d = pade[(n, start)];
        drop = drop.max((out.drops - d).abs() / d.abs().max(1e-6));
    }
    (entry, drop)
}

fn assert_within_bounds(label: &str, chain: &Chain, dt: f64) {
    let (entry, drop) = worst_gap(chain, dt);
    assert!(entry <= 1e-10, "{label} dt={dt}: entry gap {entry:e}");
    assert!(drop <= 1e-10, "{label} dt={dt}: drop gap {drop:e} of max(D, 1e-6)");
}

#[test]
fn birth_death_epochs_match_pade_on_the_expm_bits_corpus_and_dt_60() {
    for buffer in [5, 20] {
        for dt in [0.005, 0.01, 0.2, 0.5, 5.0, 10.0, 60.0] {
            for lambda in [0.0, 0.3, 0.9, 2.7] {
                let chain = birth_death(lambda, 1.0, buffer);
                assert_within_bounds(&format!("B={buffer} λ={lambda}"), &chain, dt);
            }
        }
    }
}

#[test]
fn birth_death_epochs_match_pade_at_the_max_epoch_events_edge() {
    for buffer in [5, 20] {
        for lambda in [0.9, 2.7] {
            let chain = birth_death(lambda, 1.0, buffer);
            let dt = MAX_EPOCH_EVENTS / chain.max_exit();
            let mut v = vec![0.0; chain.n];
            v[0] = 1.0;
            let terms = advance(&chain.moves, &chain.drop_rates, &mut v, dt, EPOCH_TOL).terms;
            assert!(terms > 20 * 500, "B={buffer} λ={lambda}: {terms} terms, expected substeps");
            assert_within_bounds(&format!("B={buffer} λ={lambda}"), &chain, dt);
        }
    }
}

#[test]
fn phase_type_epochs_match_pade_on_an_h2_qbd() {
    for lambda in [0.0, 0.3, 0.9, 2.7] {
        for dt in [0.01, 0.5, 5.0, 60.0] {
            let chain = h2_queue(lambda, 5);
            assert_within_bounds(&format!("H2 λ={lambda}"), &chain, dt);
        }
    }
}
