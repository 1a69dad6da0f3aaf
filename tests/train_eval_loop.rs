//! Full-loop reproduction tests: `Scenario → PPO → checkpoint →
//! finite-N eval` for four engine kinds (including the locality-constrained
//! ring graph), asserting the quality bar of the quick-scale pipeline —
//! the learned policy beats the (neighborhood-restricted) RND baseline.
//!
//! They are the slowest tier-1 tests (about 100 s together on 2 cores at
//! the test profile); `cargo test --test train_eval_loop` runs them alone.

use mflb::policy::InferenceConfig;
use mflb::rl::{
    evaluate_checkpoint_configured, train_scenario, train_scenario_from, EvalReport, PpoConfig,
    TrainingCheckpoint,
};
use mflb::sim::Scenario;

/// The CLI's quick-scale preset, shortened: enough training to clear RND.
fn quick_ppo() -> PpoConfig {
    PpoConfig {
        gamma: 0.9,
        gae_lambda: 0.9,
        lr: 1e-3,
        train_batch_size: 2000,
        minibatch_size: 250,
        num_epochs: 10,
        kl_target: 0.02,
        hidden: vec![32, 32],
        initial_log_std: -0.5,
        rollout_threads: 2,
        ..PpoConfig::paper()
    }
}

/// Plain evaluation (no oracle, default inference) at the scenario's size.
fn eval(ckpt: &TrainingCheckpoint, scenario: &Scenario, runs: usize) -> Result<EvalReport, String> {
    evaluate_checkpoint_configured(
        ckpt,
        scenario,
        &[],
        runs,
        1,
        0,
        None,
        InferenceConfig::default(),
    )
}

fn scenario_from_file(name: &str) -> Scenario {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Scenario::from_json(&text).unwrap()
}

#[test]
fn fault_trained_policy_beats_fault_blind_on_the_crash_scenario() {
    // Train twice on the quick-scale crash scenario: once fault-aware
    // (the scenario as shipped — the TwoPool closure: a two-pool Up/Down crash
    // mean field, overload bursts, stale snapshots) and once fault-blind
    // (same scenario with the plan stripped — the pristine mean field).
    // Deployed in the *faulted* finite system, the fault-aware policy
    // must lose fewer jobs: training under the degradation it will meet
    // is worth real drops.
    let faulted = scenario_from_file("event_crashy.json");
    assert!(faulted.faults.is_some(), "crash scenario must carry a fault plan");
    let mut blind = faulted.clone();
    blind.faults = None;

    // Pretrain-then-adapt: both arms share one competently pretrained
    // policy (PPO alone converges too slowly inside the noisy faulted
    // env for a from-scratch comparison to measure anything but
    // convergence luck). The fault-aware arm then fine-tunes that
    // network *inside* the TwoPool env — crashes push its optimum toward
    // sharper length-avoidance than the pristine one — while the
    // fault-blind arm keeps the pretrained checkpoint as is.
    let ppo = quick_ppo();
    let blind_ckpt =
        train_scenario(&blind, ppo.clone(), 300, 1, false).expect("fault-blind training");
    let aware_ckpt =
        train_scenario_from(&faulted, ppo, 250, 1, false, Some(&blind_ckpt.checkpoint.policy_net))
            .expect("fault-aware fine-tuning");

    let aware = eval(&aware_ckpt.checkpoint, &faulted, 20)
        .expect("fault-aware eval")
        .mean_drops_of("MF (learned)")
        .unwrap();
    let blind = eval(&blind_ckpt.checkpoint, &faulted, 20)
        .expect("fault-blind eval")
        .mean_drops_of("MF (learned)")
        .unwrap();
    println!("fault-trained {aware:.3} vs fault-blind {blind:.3} drops/queue");
    assert!(
        aware < blind,
        "fault-trained policy ({aware:.3} drops/queue) must beat fault-blind ({blind:.3}) \
         on the crash scenario"
    );
}

#[test]
fn learned_policy_beats_rnd_on_four_engine_kinds() {
    for (file, iters) in [
        ("aggregate.json", 40),
        ("hetero_two_speed.json", 40),
        ("ph_erlang2.json", 40),
        ("graph_ring.json", 40),
    ] {
        let scenario = scenario_from_file(file);
        let result =
            train_scenario(&scenario, quick_ppo(), iters, 1, false).expect("training failed");
        let report = eval(&result.checkpoint, &scenario, 10).expect("evaluation failed");
        let learned = report.mean_drops_of("MF (learned)").unwrap();
        let rnd = report.rows.iter().find(|r| r.policy == "RND").map(|r| r.mean_drops).unwrap();
        assert!(
            learned < rnd,
            "{file}: learned policy ({learned:.3} drops/queue) must beat RND ({rnd:.3})"
        );
    }
}
