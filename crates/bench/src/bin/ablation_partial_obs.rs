//! Extension experiment (ours): the value of information — partial
//! observability of the mean-field state (paper §2.1 remark / §5 future
//! work).
//!
//! ```text
//! cargo run -p mflb-bench --release --bin ablation_partial_obs -- [--scale quick|paper]
//! ```
//!
//! Takes the strongest ν-feedback policy available (the exact-DP greedy
//! policy over the softmin family) and degrades its observations:
//!
//! * `sampled(k)` — the policy sees an empirical estimate of `ν_t` from
//!   `k` polled queues, `k ∈ {3, 10, 30, 100, 1000}`,
//! * `stale(e)` — the observation is `e` extra epochs old,
//! * `no-lambda` — the arrival level is hidden,
//! * `exact` — the fully observed reference.
//!
//! Expected shape: returns improve monotonically in `k` and approach the
//! exact value (≈ `k ≳ 100` suffices — queue polling is cheap);
//! staleness costs roughly one Δt of the Fig. 5 degradation per epoch;
//! hiding λ costs little at Δt = 5 (ν already encodes the load level).

use mflb_bench::harness::Scale;
use mflb_bench::sweep::{Cell, Table};
use mflb_core::partial::{ObservationModel, PartialObservationPolicy};
use mflb_core::{MeanFieldMdp, SystemConfig};
use mflb_dp::{ActionLibrary, DpConfig, DpSolution, GridPolicy};
use mflb_linalg::stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluate_model(
    mdp: &MeanFieldMdp,
    base: &GridPolicy,
    model: ObservationModel,
    seqs: &[Vec<usize>],
    seed: u64,
) -> Summary {
    let mut s = Summary::new();
    for (run, seq) in seqs.iter().enumerate() {
        // Fresh wrapper state per episode: staleness buffers and estimator
        // noise must not leak across runs.
        let wrapped = PartialObservationPolicy::new(base.clone(), model, seed + run as u64);
        s.push(mdp.rollout_conditioned(&wrapped, seq).total_return);
    }
    s
}

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let (grid_resolution, episodes) = match scale {
        Scale::Quick => (8usize, 12usize),
        Scale::Paper => (14, 40),
    };
    let dt = 5.0;
    let cfg = SystemConfig::paper().with_dt(dt);
    let zs = cfg.num_states();
    let horizon = cfg.eval_episode_len();
    let mdp = MeanFieldMdp::new(cfg.clone());

    println!("solving the lattice DP (G = {grid_resolution}) for the ν-feedback policy …");
    let dp_cfg = DpConfig { grid_resolution, tol: 1e-6, max_sweeps: 4000, threads: 0 };
    let sol = DpSolution::solve(&cfg, ActionLibrary::softmin_default(zs, cfg.d), &dp_cfg);
    let base = sol.into_policy();

    let mut rng = StdRng::seed_from_u64(seed);
    let seqs: Vec<Vec<usize>> = (0..episodes)
        .map(|_| mflb_core::theory::sample_lambda_sequence(&cfg, horizon, &mut rng))
        .collect();

    let models = vec![
        ObservationModel::Exact,
        ObservationModel::SampledQueues { k: 3 },
        ObservationModel::SampledQueues { k: 10 },
        ObservationModel::SampledQueues { k: 30 },
        ObservationModel::SampledQueues { k: 100 },
        ObservationModel::SampledQueues { k: 1000 },
        ObservationModel::Stale { epochs: 1 },
        ObservationModel::Stale { epochs: 2 },
        ObservationModel::NoArrivalInfo,
    ];

    let exact_value = evaluate_model(&mdp, &base, ObservationModel::Exact, &seqs, seed).mean();
    let mut table = Table::new(
        &["observation", "return", "vs exact"],
        &["observation", "return", "ci95", "gap_vs_exact"],
    );
    for model in models {
        let s = evaluate_model(&mdp, &base, model, &seqs, seed);
        let gap = s.mean() - exact_value;
        table.push(vec![
            Cell::text(model.label()),
            Cell::mean_ci(s.mean(), s.ci95_half_width()),
            Cell::text(format!("{gap:+.2}")).print_only(),
            Cell::num(gap, 4, 4).csv_only(),
        ]);
    }
    table.print(&format!(
        "Partial-observability ablation (Δt = {dt}, DP policy, B = 5): episode return"
    ));
    table.write_csv(&format!("ablation_partial_obs_{}.csv", scale.label()));

    println!("\n[shape] sampled(k) should climb towards exact as k grows;");
    println!("        staleness should cost more than estimation noise;");
    println!("        hiding λ should cost the least (ν encodes the load).");
}
