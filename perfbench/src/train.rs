//! `train_quick`: the `mflb train --scale quick` path on the aggregate
//! scenario — PPO over the mean-field env with two rollout workers. The
//! only workload that loads `rl` and `nn` training; it touches no `sim`
//! engine and no `dp`.

use crate::report::{Report, Samples};
use crate::stats::{median, repeat_for, repeated_setup};
use crate::trace::{timed, Counter, TimedEnv};
use mflb_rl::{
    build_env, train_scenario, CurvePoint, PpoConfig, PpoTrainer, TrainingCheckpoint,
    CHECKPOINT_FORMAT_VERSION,
};
use mflb_sim::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// PPO iterations per measured pass.
pub(crate) const ITERATIONS: usize = 10;
/// Rollout worker threads (the machine the benchmark targets has 2 cores).
pub(crate) const WORKERS: usize = 2;

/// The aggregate scenario file (a copy of
/// `examples/scenarios/aggregate.json`: Table 1, Δt = 5, M = 100, N = 10⁴,
/// the scenario `mflb train` also builds without flags).
pub(crate) const SCENARIO_JSON: &str = include_str!("../fixtures/aggregate.json");

/// Parses and validates [`SCENARIO_JSON`], as `mflb train --scenario` does.
pub(crate) fn scenario() -> Result<Scenario, String> {
    let scenario = Scenario::from_json(SCENARIO_JSON).map_err(|e| e.to_string())?;
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

/// The `mflb train --scale quick` PPO preset: 2×32 nets, batch 2000,
/// 10 epochs of minibatches of 250.
pub fn quick_ppo(workers: usize) -> PpoConfig {
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
        rollout_threads: workers,
        ..PpoConfig::paper()
    }
}

/// Multiply-accumulate count of one forward pass of an MLP with these
/// layer widths (weights only).
pub(crate) fn weights(sizes: &[usize]) -> f64 {
    sizes.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
}

/// A traced training run: the checkpoint plus its layer times.
pub struct TrainTrace {
    /// The checkpoint, assembled exactly as `train_scenario` assembles it.
    pub checkpoint: TrainingCheckpoint,
    /// Wall time of the whole run.
    pub wall_ns: u64,
    /// Time in `PpoTrainer::collect_batch`.
    pub collect_ns: u64,
    /// Time in `PpoTrainer::update`.
    pub update_ns: u64,
    /// `Env::step` totals, summed over rollout workers.
    pub env_step: Arc<Counter>,
    /// Samples the updates processed (batch rows × epochs).
    pub update_samples: u64,
}

/// `train_scenario` recomposed from the public `PpoTrainer` API, with the
/// env wrapped in [`TimedEnv`] and collect and update timed apart. Gives
/// the same checkpoint bytes as `train_scenario`.
pub fn traced_train(
    scenario: &Scenario,
    ppo: &PpoConfig,
    iterations: usize,
    seed: u64,
) -> Result<TrainTrace, String> {
    let (result, wall_ns) = timed(|| -> Result<_, String> {
        let env_step = Arc::new(Counter::default());
        let env = TimedEnv::new(build_env(scenario)?, Arc::clone(&env_step));
        let mut trainer = PpoTrainer::new(&env, ppo.clone(), seed);
        // The update RNG seed `train_scenario` derives from the run seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let (mut collect_ns, mut update_ns, mut update_samples) = (0, 0, 0);
        let mut curve = Vec::with_capacity(iterations);
        for it in 0..iterations {
            let ((buffer, collect), c_ns) = timed(|| trainer.collect_batch());
            let (update, u_ns) = timed(|| trainer.update(&buffer, &mut rng));
            collect_ns += c_ns;
            update_ns += u_ns;
            update_samples += (buffer.len() * ppo.num_epochs) as u64;
            if !collect.mean_episode_return.is_nan() {
                curve.push(CurvePoint {
                    iteration: it as u64 + 1,
                    steps: trainer.total_steps(),
                    mean_return: collect.mean_episode_return,
                    kl: update.mean_kl,
                    entropy: update.entropy,
                });
            }
        }
        let checkpoint = TrainingCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            scenario: scenario.clone(),
            ppo: ppo.clone(),
            seed,
            total_steps: trainer.total_steps(),
            curve,
            policy_net: trainer.policy_net().clone(),
            value_net: trainer.value_net().clone(),
            log_std: trainer.log_std().to_vec(),
        };
        Ok((checkpoint, collect_ns, update_ns, env_step, update_samples))
    });
    let (checkpoint, collect_ns, update_ns, env_step, update_samples) = result?;
    Ok(TrainTrace { checkpoint, wall_ns, collect_ns, update_ns, env_step, update_samples })
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    // Set-up loads the scenario and trains one warm-up iteration: a
    // scenario that cannot train fails here, the first timed pass does not
    // pay for cold caches and buffers, and set-up has a steady cost to time.
    let ppo = quick_ppo(WORKERS);
    let (scenario, setup_s) = repeated_setup(|| {
        let scenario = scenario()?;
        train_scenario(&scenario, ppo.clone(), 1, seed, false)?;
        Ok::<_, String>(scenario)
    });
    r.set("setup_s", setup_s);
    let scenario = match scenario {
        Ok(s) => s,
        Err(e) => {
            r.check(false, || format!("train set-up: {e}"));
            return r;
        }
    };

    let mut samples = Samples::default();
    let mut reference: Option<String> = None;
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    repeat_for(seconds, || {
        let (result, ns) =
            timed(|| train_scenario(&scenario, ppo.clone(), ITERATIONS, seed, false));
        let ckpt = match result {
            Ok(t) => t.checkpoint,
            Err(e) => return r.check(false, || format!("train_scenario: {e}")),
        };
        let secs = ns as f64 * 1e-9;
        untraced_walls.push(secs);
        samples.push("throughput_per_s", ckpt.total_steps as f64 / secs);
        let bytes = ckpt.to_json();
        let expected_steps = (ITERATIONS * ppo.train_batch_size) as u64;
        r.check(ckpt.total_steps == expected_steps, || {
            format!("trained {} steps, expected {expected_steps}", ckpt.total_steps)
        });
        r.check(ckpt.curve.iter().all(|p| p.mean_return.is_finite() && p.kl.is_finite()), || {
            "training curve holds a non-finite value".into()
        });
        let reference = reference.get_or_insert_with(|| bytes.clone());
        r.check(*reference == bytes, || "checkpoint bytes differ between passes".into());

        if trace {
            match traced_train(&scenario, &ppo, ITERATIONS, seed) {
                Ok(t) => {
                    r.check(t.checkpoint.to_json() == *reference, || {
                        "traced checkpoint bytes differ from the untraced ones".into()
                    });
                    traced_walls.push(t.wall_ns as f64 * 1e-9);
                    record_layers(&mut samples, &t, &ppo);
                }
                Err(e) => r.check(false, || format!("traced train: {e}")),
            }
        }
    });
    r.set_medians(&samples);
    if let Some(&tput) = r.values.get("throughput_per_s") {
        r.note(format!("train.env_steps_per_s = {tput:.1} 1/s ({ITERATIONS} iterations a pass)"));
    }
    if trace {
        r.set("trace.overhead_frac", median(&traced_walls) / median(&untraced_walls) - 1.0);
    }
    r
}

fn record_layers(samples: &mut Samples, t: &TrainTrace, ppo: &PpoConfig) {
    let env_ns = t.env_step.ns() as f64;
    let collect_ns = t.collect_ns as f64;
    let wall_ns = t.wall_ns as f64;
    samples.push("rl.collect_batch.ns", collect_ns);
    samples.push("rl.env_step.ns", env_ns);
    samples.push("rl.env_step.calls", t.env_step.calls() as f64);
    samples.push("rl.collect.env_share", env_ns / (collect_ns * ppo.rollout_threads as f64));
    samples.push("rl.update.ns", t.update_ns as f64);
    samples.push("rl.update.samples", t.update_samples as f64);
    // Forward 2 and backward 4 flops per weight and sample, for the
    // policy and the value network.
    let net = &t.checkpoint.policy_net;
    let mut policy_sizes = vec![net.input_dim()];
    policy_sizes.extend(&ppo.hidden);
    let mut value_sizes = policy_sizes.clone();
    policy_sizes.push(net.output_dim());
    value_sizes.push(1);
    let per_sample = 6.0 * (weights(&policy_sizes) + weights(&value_sizes));
    samples.push("nn.update.gflops_computed", per_sample * t.update_samples as f64 * 1e-9);
    let spans = collect_ns + t.update_ns as f64;
    samples.push("trace.span_coverage", spans / wall_ns);
    samples.push("trace.residual_frac", 0.0);
}
