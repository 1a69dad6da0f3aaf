//! Bit pin of one oracle solve.
//!
//! The G = 8 value iteration of `examples/scenarios/aggregate.json` (the
//! solve `mflb eval --oracle` runs on it by default) is digested over its
//! value and greedy-action tables, sweep count and residual, at one and at
//! two worker threads. Any change to the transition precompute, the
//! interpolation or the order of a sweep's arithmetic moves the digest.

use mflb_rl::{solve_oracle, OracleConfig};
use mflb_sim::Scenario;
use std::path::Path;

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn solve_digest(scenario: &Scenario, threads: usize) -> u64 {
    let oracle =
        OracleConfig { grid_resolution: 8, threads, cache_dir: None, ..Default::default() };
    let oracle = solve_oracle(scenario, &oracle).expect("aggregate.json has an oracle");
    let ckpt = oracle.policy.solution().to_checkpoint();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for v in &ckpt.values {
        hash = fnv1a64(hash, &v.to_bits().to_le_bytes());
    }
    for a in &ckpt.best {
        hash = fnv1a64(hash, &a.to_le_bytes());
    }
    hash = fnv1a64(hash, &(ckpt.sweeps as u64).to_le_bytes());
    fnv1a64(hash, &ckpt.residual.to_bits().to_le_bytes())
}

#[test]
fn aggregate_oracle_solve_is_pinned_at_one_and_two_threads() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/aggregate.json");
    let text = std::fs::read_to_string(path).expect("example readable");
    let scenario = Scenario::from_json(&text).expect("example parses");
    for threads in [1, 2] {
        assert_eq!(
            solve_digest(&scenario, threads),
            0x8bfb_695c_8d32_3f45,
            "G = 8 solve digest at {threads} threads"
        );
    }
}
