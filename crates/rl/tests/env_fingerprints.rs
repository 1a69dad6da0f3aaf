//! Checkpoint fingerprints of every training-environment kind.
//!
//! Each scenario below trains one PPO iteration at a fixed seed and pins
//! the FNV-1a hash of the checkpoint JSON. Together the scenarios reach
//! every `build_env` arm: full-mesh, degree-indexed graph, heterogeneous
//! pools, phase-type service, the mean-matched event model and the
//! fault-degraded two-pool model over both integrands. Any change to an
//! environment's transition, reward, observation or RNG consumption moves
//! at least one hash.

use mflb_core::{CrashFaults, FaultPlan, SystemConfig, Topology};
use mflb_rl::{train_scenario, PpoConfig};
use mflb_sim::{EngineSpec, Scenario};
use std::path::Path;

/// The `tiny_ppo` preset of `training_determinism.rs`.
fn tiny_ppo(threads: usize) -> PpoConfig {
    PpoConfig {
        lr: 1e-3,
        train_batch_size: 128,
        minibatch_size: 32,
        num_epochs: 2,
        hidden: vec![8, 8],
        rollout_threads: threads,
        ..PpoConfig::paper()
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn fingerprint(mut scenario: Scenario) -> u64 {
    scenario.config.train_episode_len = 10;
    let result = train_scenario(&scenario, tiny_ppo(2), 1, 17, false).expect("trainable scenario");
    fnv1a64(result.checkpoint.to_json().as_bytes())
}

fn built_config() -> SystemConfig {
    SystemConfig::paper().with_size(100, 10).with_dt(5.0)
}

/// Scenarios constructed in code: the env paths no shipped example
/// reaches, plus holding-cost variants (every example has `h = 0`) of the
/// envs whose cost reads a hidden state rather than the observation.
fn built_scenarios() -> Vec<(&'static str, Scenario)> {
    let graph = |topology| EngineSpec::Graph { topology, shard_size: None };
    let mut crashes = FaultPlan::empty();
    crashes.crashes = Some(CrashFaults { mttf: 10.0, mttr: 5.0 });
    let holding = |name: &str| {
        let mut s = example(name);
        s.config.holding_cost = 0.05;
        s
    };
    vec![
        ("full_mesh_graph", Scenario::new(built_config(), graph(Topology::FullMesh))),
        (
            "ring_graph_crashes",
            Scenario::new(built_config(), graph(Topology::Ring { radius: 2 })).with_faults(crashes),
        ),
        ("event_crashy_holding", holding("event_crashy.json")),
        ("hetero_holding", holding("hetero_two_speed.json")),
        ("ph_holding", holding("ph_erlang2.json")),
    ]
}

fn examples_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

fn example(name: &str) -> Scenario {
    let text = std::fs::read_to_string(examples_dir().join(name)).expect("example readable");
    Scenario::from_json(&text).expect("example parses")
}

#[test]
fn checkpoint_fingerprints_are_pinned_per_env_kind() {
    let pinned: &[(&str, u64)] = &[
        ("aggregate.json", 0xd26132d3c50661de),
        ("event_crashy.json", 0xd4c4c1cf650c6f98),
        ("event_pareto.json", 0xeaabc50e3821be9d),
        ("graph_ring.json", 0x18cb1ce98c2621b4),
        ("graph_torus_large.json", 0xea9f355a3d08d913),
        ("hetero_two_speed.json", 0x8f0de3157621e64d),
        ("joblevel.json", 0xe6509f0369497c6e),
        ("oracle_tiny.json", 0x71ef5c51b9a08dba),
        ("perclient.json", 0x0cd2a7bd0ff0260d),
        ("ph_erlang2.json", 0x84687a2771cf4985),
        ("staggered.json", 0xcc8d9b6cdfcac0a1),
        ("full_mesh_graph", 0x10a6d5bc5ebeda77),
        ("ring_graph_crashes", 0x65cc49430740429a),
        ("event_crashy_holding", 0x29673344a523920c),
        ("hetero_holding", 0x70c356dfb3978c6a),
        ("ph_holding", 0x96c69dfbe655db1d),
    ];
    let mut names: Vec<String> = std::fs::read_dir(examples_dir())
        .expect("examples/scenarios exists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    let mut got: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let hash = fingerprint(example(&name));
            (name, hash)
        })
        .collect();
    got.extend(built_scenarios().into_iter().map(|(n, s)| (n.to_string(), fingerprint(s))));
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, pinned, "a training environment changed its checkpoint bytes");
}
