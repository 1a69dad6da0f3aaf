//! Seed-pinned certification tests for the DP solver itself: the solved
//! lattice optimum must be internally consistent (greedy actions, Q-values
//! and Bellman residuals all telling the same story), stable under
//! checkpoint round-trips down to the byte, and its error paths must
//! surface as typed [`DpError`] variants, not panics or bare strings.

use mflb_core::{StateDist, SystemConfig};
use mflb_dp::{ActionLibrary, DpCheckpoint, DpConfig, DpError, DpSolution, SimplexGrid};
use mflb_queue::mmpp::ArrivalProcess;

/// `unwrap_err` without requiring `DpSolution: Debug`.
fn expect_err(result: Result<DpSolution, DpError>) -> DpError {
    match result {
        Err(e) => e,
        Ok(_) => panic!("expected an error, got a solution"),
    }
}

/// A deliberately tiny, hand-inspectable MDP: one deterministic arrival
/// level (no modulation), buffer 1 (two length states — empty or full), so
/// the lattice is a 1-simplex and every quantity is cheap to recompute.
fn tiny_config() -> SystemConfig {
    let arrivals = ArrivalProcess::new(vec![0.8], vec![vec![1.0]], vec![1.0]);
    SystemConfig::paper().with_size(100, 10).with_buffer(1).with_dt(2.0).with_arrivals(arrivals)
}

/// Single-threaded solve so every test sees bit-identical tables.
fn solve_tiny(grid: usize) -> DpSolution {
    let config = tiny_config();
    let dp = DpConfig { grid_resolution: grid, tol: 1e-9, max_sweeps: 10_000, threads: 1 };
    DpSolution::solve(&config, ActionLibrary::softmin_default(config.num_states(), config.d), &dp)
}

#[test]
fn greedy_q_values_and_residuals_agree_everywhere() {
    let sol = solve_tiny(16);
    assert!(sol.residual <= 1e-9, "solver reported non-convergence: {}", sol.residual);
    for s in sol.grid().indices() {
        for l in 0..sol.num_levels() {
            let nu = sol.grid().point(s);
            let q = sol.q_values(&nu, l);
            // Greedy action is the argmax of the Q-values, through both
            // entry points (distribution and lattice-index addressed).
            let greedy = sol.greedy_action(&nu, l);
            assert_eq!(greedy, sol.greedy_action_at(s, l), "entry points disagree at ({s}, {l})");
            let q_max = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                q[greedy] >= q_max - 1e-12,
                "greedy action {greedy} is not the Q-argmax at ({s}, {l})"
            );
            // The residual the solver reports is exactly |max_a Q − V|.
            let by_hand = (q_max - sol.value(&nu, l)).abs();
            let reported = sol.bellman_residual_at(s, l);
            assert!(
                (by_hand - reported).abs() < 1e-12,
                "residual at ({s}, {l}): by hand {by_hand}, reported {reported}"
            );
            // And a converged solution has (numerically) zero residual.
            assert!(reported < 1e-7, "Bellman residual {reported} at ({s}, {l})");
        }
    }
}

#[test]
fn value_matches_a_directly_iterated_discounted_rollout() {
    // On a 1-simplex the interpolated value function is piecewise linear,
    // so following the greedy policy through the *continuous* model and
    // summing discounted rewards must land very close to V.
    let sol = solve_tiny(32);
    let config = tiny_config();
    let mdp = mflb_core::MeanFieldMdp::new(config.clone());
    for s in [0, 8, 16, 24, 32] {
        let mut closure = mdp.closure().with_dist(sol.grid().point(s));
        let expected = sol.value(closure.dist(), 0);
        let mut total = 0.0;
        let mut discount = 1.0;
        // γ = 0.99 ⇒ the tail after 2500 steps is bounded by
        // 0.99^2500 · max|V| ≈ 1e-11 · |V|: negligible.
        for t in 0..2_500 {
            let a = sol.greedy_action(closure.dist(), 0);
            total += discount * mdp.epoch(&mut closure, sol.actions().rule(a), 0, t);
            discount *= config.gamma;
        }
        let scale = expected.abs().max(1.0);
        assert!(
            (expected - total).abs() / scale < 0.02,
            "V({s}) = {expected} but the greedy rollout returned {total}"
        );
    }
}

#[test]
fn pinned_value_at_the_empty_vertex_is_stable() {
    // Regression pin: the solved value at ν₀ = δ_empty. Deterministic
    // (single-threaded sweeps, no RNG anywhere in the solver), so any
    // drift means the dynamics, reward or interpolation changed.
    let sol = solve_tiny(16);
    let nu0 = StateDist::all_empty(tiny_config().buffer);
    let v = sol.value(&nu0, 0);
    let pinned = -68.553_365_950_285_15;
    assert!(
        (v - pinned).abs() < 1e-9,
        "V(ν₀) drifted from its pinned value: {v} (pinned {pinned})"
    );
}

#[test]
fn checkpoint_roundtrip_is_bit_identical() {
    let sol = solve_tiny(8);
    let dir = std::env::temp_dir().join("mflb_dp_certificates_roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let first = dir.join("first.json");
    let second = dir.join("second.json");

    sol.save_json(&first).unwrap();
    let loaded = DpSolution::load_json(&first).unwrap();
    loaded.save_json(&second).unwrap();

    // Byte-identical files: the round-trip loses nothing, and a re-save
    // is deterministic.
    let a = std::fs::read(&first).unwrap();
    let b = std::fs::read(&second).unwrap();
    assert_eq!(a, b, "save → load → save must be byte-identical");

    // The reloaded solution answers queries identically.
    assert_eq!(loaded.sweeps, sol.sweeps);
    assert!((loaded.residual - sol.residual).abs() == 0.0);
    for s in sol.grid().indices() {
        for l in 0..sol.num_levels() {
            let nu = sol.grid().point(s);
            assert_eq!(loaded.greedy_action_at(s, l), sol.greedy_action_at(s, l));
            assert!((loaded.value(&nu, l) - sol.value(&nu, l)).abs() == 0.0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_surfaces_as_a_typed_io_error() {
    let path = std::env::temp_dir().join("mflb_dp_certificates_missing.json");
    let _ = std::fs::remove_file(&path);
    let err = expect_err(DpSolution::load_json(&path));
    match &err {
        DpError::Io { path: p, .. } => assert_eq!(p, &path),
        other => panic!("expected DpError::Io, got {other:?}"),
    }
    assert!(std::error::Error::source(&err).is_some(), "Io carries its cause");
    assert!(format!("{err}").contains("mflb_dp_certificates_missing.json"), "names the path");
}

#[test]
fn corrupt_json_surfaces_as_a_typed_parse_error() {
    let path = std::env::temp_dir().join("mflb_dp_certificates_corrupt.json");
    std::fs::write(&path, "{ this is not json").unwrap();
    let err = expect_err(DpSolution::load_json(&path));
    assert!(matches!(err, DpError::Json { .. }), "expected DpError::Json, got {err:?}");
    assert!(std::error::Error::source(&err).is_some(), "Json carries its cause");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_table_surfaces_as_a_checkpoint_error() {
    let sol = solve_tiny(4);
    let mut ckpt: DpCheckpoint = sol.to_checkpoint();
    ckpt.values.pop();
    let err = expect_err(DpSolution::try_from_checkpoint(ckpt));
    match &err {
        DpError::Checkpoint(msg) => {
            assert!(!msg.is_empty(), "checkpoint errors must say what is wrong")
        }
        other => panic!("expected DpError::Checkpoint, got {other:?}"),
    }
    assert!(std::error::Error::source(&err).is_none(), "Checkpoint has no deeper cause");
}

#[test]
fn checkpoint_grid_shape_is_consistent() {
    let sol = solve_tiny(6);
    let grid = SimplexGrid::new(tiny_config().num_states(), 6);
    assert_eq!(sol.grid().num_points(), grid.num_points());
    let ckpt = sol.to_checkpoint();
    assert_eq!(ckpt.values.len(), grid.num_points() * sol.num_levels());
}
