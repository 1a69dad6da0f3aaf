//! Criterion micro-benchmarks of the computational kernels.
//!
//! These quantify the cost of the pieces that dominate experiment runtime:
//! an MFC-MDP rollout, per-client and staggered finite-system epochs,
//! neural policy inference and a PPO network update. The matrix
//! exponential, the mean-field epochs (JSQ, softmin, phase-type and one
//! birth–death queue) and the aggregate engine's epochs are timed by
//! `mflb bench` instead (`crates/bench/src/perf.rs`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mflb_core::mdp::FixedRulePolicy;
use mflb_core::{DecisionRule, MeanFieldMdp, StateDist, SystemConfig};
use mflb_nn::{Activation, Mlp, Tensor, Workspace};
use mflb_policy::jsq_rule;
use mflb_queue::sampler::Sampler;
use mflb_sim::client::PerClientState;
use mflb_sim::{Engine, PerClientEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_mfc_rollout(c: &mut Criterion) {
    let mdp = MeanFieldMdp::new(SystemConfig::paper().with_dt(5.0));
    let policy = FixedRulePolicy::new(jsq_rule(6, 2), "JSQ");
    c.bench_function("mfc_mdp_rollout_100_epochs", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            mdp.rollout(black_box(&policy), 100, &mut rng)
        })
    });
}

fn bench_engines(c: &mut Criterion) {
    // Per-client engine at a moderate size: M = 100, N = 10^4.
    let rule = jsq_rule(6, 2);
    let cfg_small = SystemConfig::paper().with_m_squared(100).with_dt(5.0);
    let per = PerClientEngine::new(cfg_small.clone());
    c.bench_function("per_client_epoch_M100_N1e4", |b| {
        let mut state = PerClientState::from_queues(vec![1usize; 100], cfg_small.d);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            per.step(black_box(&mut state), &rule, 0.9, &mut rng)
        })
    });

    // Staggered engine (per-client with persistent snapshots) at the same
    // size — newly reachable through the unified Engine trait.
    let stag = mflb_sim::StaggeredEngine::new(cfg_small, 4);
    c.bench_function("staggered_epoch_M100_N1e4_c4", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut state = stag.init_state(&mut rng);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            stag.step(black_box(&mut state), &rule, 0.9, &mut rng)
        })
    });
}

fn bench_samplers(c: &mut Criterion) {
    c.bench_function("binomial_btrs_n1e6_p1e-3", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| Sampler::binomial(&mut rng, 1_000_000, black_box(0.001)))
    });
    c.bench_function("poisson_ptrs_mean4500", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| Sampler::poisson(&mut rng, black_box(4500.0)))
    });
    c.bench_function("multinomial_6cat_n1e6", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        let probs = [0.3, 0.25, 0.2, 0.15, 0.07, 0.03];
        b.iter(|| Sampler::multinomial(&mut rng, 1_000_000, black_box(&probs)))
    });
}

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mlp = Mlp::new(&[8, 256, 256, 72], Activation::Tanh, &mut rng);
    let obs = vec![0.25; 8];
    c.bench_function("policy_forward_one_2x256", |b| b.iter(|| mlp.forward_one(black_box(&obs))));
    let mut ws = Workspace::new();
    c.bench_function("policy_forward_one_into_2x256", |b| {
        b.iter(|| {
            let out = mlp.forward_one_into(black_box(&obs), &mut ws);
            black_box(out[0])
        })
    });
    let batch = Tensor::from_vec(128, 8, vec![0.25; 128 * 8]);
    c.bench_function("policy_forward_batch128_2x256", |b| {
        b.iter(|| mlp.forward(black_box(&batch)))
    });
    c.bench_function("policy_forward_backward_batch128", |b| {
        b.iter(|| {
            let cache = mlp.forward_cached(black_box(&batch));
            let grad = cache.output().clone();
            mlp.backward(&cache, &grad)
        })
    });
    let mut bws = Workspace::new();
    let mut grad = Tensor::zeros(128, 72);
    c.bench_function("policy_forward_backward_into_batch128", |b| {
        b.iter(|| {
            mlp.forward_into(black_box(&batch), &mut bws);
            grad.reset(128, 72);
            grad.as_mut_slice().copy_from_slice(bws.output().as_slice());
            let flat = mlp.backward_into(&mut bws, &grad);
            black_box(flat[0])
        })
    });
}

/// Blocked `*_into` kernels vs the naive allocating matmuls at the
/// paper's 256×256 policy shape, plus the batch-1 `gemv_into` fast path —
/// local guardrails against kernel regressions (the tracked numbers live
/// in `mflb bench`'s BENCH_kernels.json).
fn bench_gemm_kernels(c: &mut Criterion) {
    let salted = |rows: usize, cols: usize, salt: u64| {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i as f64 + salt as f64) * 0.789).sin()).collect(),
        )
    };
    let a = salted(128, 256, 1);
    let w = salted(256, 256, 2);
    c.bench_function("gemm_nn_128x256x256_naive", |b| b.iter(|| black_box(&a).matmul(&w)));
    let mut out = Tensor::zeros(128, 256);
    c.bench_function("gemm_nn_128x256x256_blocked", |b| {
        b.iter(|| {
            black_box(&a).matmul_into(&w, &mut out);
            black_box(out.get(0, 0))
        })
    });
    let g = salted(128, 256, 3);
    c.bench_function("gemm_tn_128x256x256_naive", |b| b.iter(|| black_box(&a).matmul_tn(&g)));
    let mut tn_out = Tensor::zeros(256, 256);
    c.bench_function("gemm_tn_128x256x256_blocked", |b| {
        b.iter(|| {
            black_box(&a).matmul_tn_into(&g, &mut tn_out);
            black_box(tn_out.get(0, 0))
        })
    });
    let x = salted(1, 256, 4);
    let mut row = vec![0.0; 256];
    c.bench_function("gemv_into_256x256", |b| {
        b.iter(|| {
            Tensor::gemv_into(black_box(x.as_slice()), &w, &mut row);
            black_box(row[0])
        })
    });
}

/// One full PPO minibatch-SGD phase (`PpoTrainer::update` over a single
/// 128-sample minibatch, one epoch) — the training hot loop end to end.
fn bench_ppo_minibatch(c: &mut Criterion) {
    use mflb_rl::{Env, PpoConfig, PpoTrainer, ToyControlEnv};
    let env = ToyControlEnv::new(16);
    let cfg = PpoConfig {
        train_batch_size: 128,
        minibatch_size: 128,
        num_epochs: 1,
        hidden: vec![64, 64],
        ..PpoConfig::paper()
    };
    let mut trainer = PpoTrainer::new(&env as &dyn Env, cfg, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let (buffer, _) = trainer.collect_batch();
    trainer.update(&buffer, &mut rng); // warm the workspaces
    c.bench_function("ppo_update_minibatch128_1epoch", |b| {
        b.iter(|| black_box(trainer.update(&buffer, &mut rng)))
    });
}

fn bench_rule_decoding(c: &mut Criterion) {
    let logits: Vec<f64> = (0..72).map(|i| (i as f64 * 0.37).sin()).collect();
    c.bench_function("decision_rule_from_logits_36x2", |b| {
        b.iter(|| DecisionRule::from_logits(6, 2, black_box(&logits)))
    });
}

fn bench_phase_type(c: &mut Criterion) {
    use mflb_queue::PhaseType;
    let service = PhaseType::fit_mean_scv(1.0, 2.0);
    // Gillespie on one PH queue for an epoch (the finite engine's inner
    // loop).
    let q = mflb_queue::PhQueue::new(0.9, service, 5);
    c.bench_function("ph_queue_gillespie_epoch_dt5", |b| {
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| {
            q.simulate_epoch(
                black_box(mflb_queue::PhQueueState { len: 2, phase: 0 }),
                5.0,
                &mut rng,
            )
        })
    });
}

fn bench_dp(c: &mut Criterion) {
    use mflb_dp::{ActionLibrary, DpConfig, DpSolution, SimplexGrid};
    // Simplex-lattice interpolation: the inner kernel of every Bellman
    // backup.
    let grid = SimplexGrid::new(6, 12);
    let nu = StateDist::new(vec![0.23, 0.17, 0.31, 0.12, 0.09, 0.08]);
    c.bench_function("simplex_interpolate_B5_G12", |b| b.iter(|| grid.interpolate(black_box(&nu))));
    c.bench_function("simplex_snap_B5_G12", |b| b.iter(|| grid.snap(black_box(&nu))));
    // A full (small) DP solve: B = 3 lattice, softmin library — the
    // certified-optimum pipeline of the ablation experiments.
    let cfg = SystemConfig::paper().with_buffer(3).with_dt(5.0);
    let mut group = c.benchmark_group("dp_solve");
    group.sample_size(10);
    group.bench_function("value_iteration_B3_G8", |b| {
        b.iter(|| {
            let dp_cfg = DpConfig { grid_resolution: 8, tol: 1e-6, max_sweeps: 4000, threads: 1 };
            DpSolution::solve(black_box(&cfg), ActionLibrary::softmin_default(4, 2), &dp_cfg)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mfc_rollout,
    bench_engines,
    bench_samplers,
    bench_nn,
    bench_gemm_kernels,
    bench_ppo_minibatch,
    bench_rule_decoding,
    bench_phase_type,
    bench_dp
);
criterion_main!(benches);
