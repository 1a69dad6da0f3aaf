//! Locality-constrained load balancing on a ring: the graph-topology
//! scenario family end to end.
//!
//! Loads `examples/scenarios/graph_ring.json` (M queues on a cycle, each
//! dispatcher routing within `±radius`), runs the neighborhood-restricted
//! JSQ(2) and RND baselines on the finite system, compares against the
//! same rules on the full mesh, and checks the degree-indexed mean-field
//! approximation against the finite ring.
//!
//! Expected picture: RND is locality-blind (same drops either way),
//! while ring-JSQ keeps pace with mesh-JSQ despite seeing only `k` of
//! `M` queues — each dispatcher's small catchment caps the herd that
//! stale information sends to the globally shortest queues, offsetting
//! the loss of global choice. The degree-indexed mean field is printed
//! next to the finite ring, but it is not the ring's limit: it sits below
//! the engine by a gap that does not shrink with `M` (JSQ(2) at Δt = 5,
//! `k = 3`, `M = 10⁴`: 13.26 against 15.37 ± 0.05).
//!
//! ```text
//! cargo run --release --example locality_ring
//! ```

use mflb::core::mdp::{FixedRulePolicy, Integrand, MeanField, MeanFieldMdp};
use mflb::core::{Exponential, Topology};
use mflb::policy::{jsq_rule, rnd_rule};
use mflb::sim::{monte_carlo, EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios/graph_ring.json");
    let text = std::fs::read_to_string(path).expect("shipped scenario must exist");
    let ring = Scenario::from_json(&text).expect("shipped scenario must parse");
    let config = ring.config.clone();
    let radius = match &ring.engine {
        EngineSpec::Graph { topology: Topology::Ring { radius }, .. } => *radius,
        other => panic!("graph_ring.json must hold a ring topology, got {other:?}"),
    };
    let k = 2 * radius + 1;
    let zs = config.num_states();
    let d = config.d;
    let horizon = config.eval_episode_len();
    let (runs, seed) = (12, 7);

    println!(
        "ring topology: M = {} queues, reach ±{radius} (k = {k} accessible queues), \
         Δt = {}, Te = {horizon}",
        config.num_queues, config.dt
    );

    // The same rule tables serve both topologies: rules rank *sampled
    // observations*, so locality comes entirely from the engine's sampling.
    let jsq = FixedRulePolicy::new(jsq_rule(zs, d), "JSQ(2)");
    let rnd = FixedRulePolicy::new(rnd_rule(zs, d), "RND");
    let mesh = Scenario::new(
        config.clone(),
        EngineSpec::Graph { topology: Topology::FullMesh, shard_size: None },
    );

    println!("\n{:<10} {:>16} {:>16}", "policy", "ring drops/q", "mesh drops/q");
    let mut ring_jsq_mean = 0.0;
    for (label, policy) in [("JSQ(2)", &jsq), ("RND", &rnd)] {
        let on_ring =
            monte_carlo(&ring.build().expect("valid ring"), policy, horizon, runs, seed, 0);
        let on_mesh =
            monte_carlo(&mesh.build().expect("valid mesh"), policy, horizon, runs, seed, 0);
        println!(
            "{label:<10} {:>10.2} ± {:<4.2} {:>10.2} ± {:<4.2}",
            on_ring.mean(),
            on_ring.ci95(),
            on_mesh.mean(),
            on_mesh.ci95()
        );
        if label == "JSQ(2)" {
            ring_jsq_mean = on_ring.mean();
        }
    }

    // Degree-indexed mean field: the k-neighborhood annealed closure draws
    // neighbor states i.i.d., so on a ring it predicts fewer drops than the
    // finite system, at every M.
    let graph = MeanField::new(&config, Exponential, Integrand::Graph { k });
    let mdp = MeanFieldMdp::with_closure(config.clone(), graph);
    let mf_drops = -mdp.evaluate(&jsq, horizon, 8, &mut StdRng::seed_from_u64(seed)).mean();
    println!(
        "\ndegree-indexed mean field (k = {k}): {mf_drops:.2} expected drops/queue \
         vs {ring_jsq_mean:.2} finite-ring JSQ"
    );
    println!(
        "relative gap: {:.1}%",
        100.0 * (mf_drops - ring_jsq_mean).abs() / ring_jsq_mean.max(1e-9)
    );
    println!("\nnext: mflb train --scenario examples/scenarios/graph_ring.json --scale quick");
}
