//! The tracked performance suite behind `mflb bench`.
//!
//! A pinned-seed wall-clock/throughput suite over the four hot paths the
//! training and deployment pipelines funnel through:
//!
//! 1. **kernels** — the register-blocked `*_into` GEMMs vs the naive
//!    allocating matmuls at the paper's 2×256 policy shape, the Padé
//!    `expm` reference, the uniformization epoch and mean-field steps
//!    behind every mean-field closure, the aggregate engine's binomial,
//!    Poisson and multinomial draws, and logit-to-rule decoding,
//! 2. **inference tiers** — the `gemv`/workspace `forward_one_into`
//!    batch-1 fast path vs the allocating `forward_one` it replaced, the
//!    batched `forward_rows_into` gemm vs K sequential gemvs (the
//!    `decide_batch` cutover), the f32 serving tier vs the f64 batched
//!    path, and the distilled tabular tier's snap-and-lookup `decide()`,
//! 3. **PPO** — rollout collection and minibatch-update throughput of
//!    [`mflb_rl::PpoTrainer`] on the mean-field control environment,
//! 4. **deployment** — Monte-Carlo finite-system epochs driven by a
//!    [`mflb_policy::NeuralUpperPolicy`] decision per epoch, the aggregate,
//!    staggered and phase-type Gillespie epochs, plus one end-to-end
//!    pinned-seed quick-scale `train_scenario` run,
//! 5. **lattice DP** — simplex snap and interpolation (the inner step of
//!    every Bellman backup) and one whole value-iteration solve.
//!
//! Entries with a naive twin time both sides in alternating rounds and
//! report each side's median round, so drift in machine speed during the
//! run hits both sides alike.
//!
//! `mflb bench` serializes the [`BenchReport`] to `BENCH_kernels.json`,
//! establishing the repo's perf trajectory: every PR's CI uploads the
//! quick-suite JSON as an artifact **and gates on it** — `mflb bench-diff`
//! runs [`compare_reports`] against the committed quick-scale baseline
//! (`BENCH_kernels_quick.json`; quick vs quick, because measured margins
//! shift with iteration count) and fails the job when any tracked kernel
//! lost more than 1.3x of its same-machine speedup over its naive twin.
//! All workloads are seeded, so two runs on the same machine measure the
//! same computation.

use mflb_core::mdp::MeanField;
use mflb_core::SystemConfig;
use mflb_nn::{Activation, F32Workspace, Mlp, Tensor, Workspace};
use mflb_policy::{action_dim, observation_dim, NeuralUpperPolicy};
use mflb_rl::{train_scenario, MeanFieldEnv, PpoConfig, PpoTrainer};
use mflb_sim::{monte_carlo, AggregateEngine, EngineSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// One benchmarked operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable identifier (compare across commits).
    pub name: String,
    /// Timed repetitions.
    pub iters: usize,
    /// Total wall-clock of the timed loop, milliseconds.
    pub wall_ms: f64,
    /// Wall-clock per repetition, microseconds.
    pub per_op_us: f64,
    /// Work rate in `unit`.
    pub throughput: f64,
    /// Unit of `throughput` (`ops/s`, `steps/s`, `epochs/s`).
    pub unit: String,
    /// Per-repetition cost of the naive/allocating baseline path, when
    /// the suite times one (microseconds; `null` otherwise).
    pub baseline_per_op_us: Option<f64>,
    /// `baseline_per_op_us / per_op_us` (≥ 1 means the fast path wins;
    /// `null` when no baseline was timed).
    pub speedup: Option<f64>,
}

/// The full suite result (`mflb bench` writes this as JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Seconds since the Unix epoch at suite start.
    pub unix_time: u64,
    /// Whether the reduced CI-scale suite ran.
    pub quick: bool,
    /// Worker threads used for rollout/Monte-Carlo fan-outs.
    pub workers: usize,
    /// The measurements, in execution order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Pretty-JSON serialization (the `BENCH_kernels.json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parses a report from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("parse perf report: {e}"))
    }
}

/// One kernel's baseline-vs-fresh comparison (see [`compare_reports`]).
#[derive(Debug, Clone)]
pub struct PerfDiffRow {
    /// Kernel identifier.
    pub name: String,
    /// `speedup` recorded in the committed baseline report.
    pub baseline_speedup: Option<f64>,
    /// `speedup` measured by the fresh run.
    pub fresh_speedup: Option<f64>,
    /// `baseline_speedup / fresh_speedup` — how much of the kernel's
    /// same-machine margin over its naive twin was lost (`> 1` = lost).
    pub ratio: Option<f64>,
    /// Whether the fresh report lacks this baseline entry.
    pub missing: bool,
    /// Whether the entry is missing or `ratio` exceeds the gate threshold.
    pub regressed: bool,
}

/// Result of diffing a fresh perf report against the committed baseline.
///
/// Wall-clock numbers are machine-dependent (the committed baseline and a
/// CI runner are different machines), so the gate compares each kernel's
/// **speedup over its own in-run naive twin** — a same-machine ratio by
/// construction. Entries without an in-run baseline (rollout/update/MC
/// throughputs) are listed for visibility and gate only on being present.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Per-kernel comparison, in baseline-report order.
    pub rows: Vec<PerfDiffRow>,
    /// The gating threshold on `ratio` (e.g. `1.3`).
    pub max_ratio: f64,
}

impl PerfDiff {
    /// The kernels that are missing from the fresh report or whose
    /// same-machine margin regressed past the threshold.
    pub fn regressions(&self) -> Vec<&PerfDiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// Renders the comparison as a GitHub-flavored markdown table (the
    /// `$GITHUB_STEP_SUMMARY` payload of the CI perf gate).
    pub fn to_markdown(&self) -> String {
        let mut out =
            String::from("### Perf gate: kernel speedup ratios vs committed baseline\n\n");
        out.push_str(&format!(
            "Gate: a tracked kernel fails if `baseline speedup / fresh speedup` exceeds \
             **{:.2}x** (speedups are same-machine: each run times the kernel against its \
             own naive twin).\n\n",
            self.max_ratio
        ));
        out.push_str("| kernel | baseline speedup | fresh speedup | ratio | verdict |\n");
        out.push_str("|---|---|---|---|---|\n");
        let fmt = |v: Option<f64>| v.map_or("–".to_string(), |s| format!("{s:.2}x"));
        for r in &self.rows {
            let verdict = match (r.ratio, r.regressed) {
                _ if r.missing => "**MISSING**",
                (None, _) => "untracked",
                (Some(_), true) => "**REGRESSED**",
                (Some(_), false) => "ok",
            };
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                r.name,
                fmt(r.baseline_speedup),
                fmt(r.fresh_speedup),
                r.ratio.map_or("–".to_string(), |x| format!("{x:.2}")),
                verdict
            ));
        }
        let n = self.regressions().len();
        if n == 0 {
            out.push_str("\nAll tracked kernels within the gate.\n");
        } else {
            out.push_str(&format!(
                "\n**{n} kernel(s) missing or regressed past the {:.2}x gate.**\n",
                self.max_ratio
            ));
        }
        out
    }
}

/// Diffs a fresh perf report against the committed baseline (see
/// [`PerfDiff`] for the gating semantics). A baseline entry the fresh
/// report lacks is a failing `missing` row, so renaming or dropping an
/// entry needs the committed baseline regenerated with it; entries only
/// the fresh report has are not compared.
pub fn compare_reports(baseline: &BenchReport, fresh: &BenchReport, max_ratio: f64) -> PerfDiff {
    assert!(max_ratio > 0.0 && max_ratio.is_finite());
    let rows = baseline
        .entries
        .iter()
        .map(|b| {
            let f = fresh.entries.iter().find(|f| f.name == b.name);
            let fresh_speedup = f.and_then(|f| f.speedup);
            let ratio = match (b.speedup, fresh_speedup) {
                (Some(bs), Some(fs)) if fs > 0.0 => Some(bs / fs),
                _ => None,
            };
            PerfDiffRow {
                name: b.name.clone(),
                baseline_speedup: b.speedup,
                fresh_speedup,
                ratio,
                missing: f.is_none(),
                regressed: f.is_none() || ratio.is_some_and(|r| r > max_ratio),
            }
        })
        .collect();
    PerfDiff { rows, max_ratio }
}

/// Times `iters` repetitions of `f`; returns total seconds.
fn time_loop<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64()
}

/// Most rounds a naive-vs-fast comparison is split into (see
/// [`interleaved`]).
const ROUNDS: usize = 20;

/// Times `iters` repetitions of each closure in `min(ROUNDS, iters)`
/// alternating rounds (see [`interleaved_rounds`]). Returns each side's
/// median round scaled to `iters` repetitions (total seconds, like
/// [`time_loop`]).
fn interleaved<const K: usize>(iters: usize, sides: [&mut dyn FnMut(); K]) -> [f64; K] {
    let rounds = ROUNDS.min(iters);
    assert!(iters.is_multiple_of(rounds), "{iters} repetitions do not split into {rounds} rounds");
    interleaved_rounds(rounds, [iters / rounds; K], sides).map(|per_op| per_op * iters as f64)
}

/// Times `rounds` alternating rounds in which side `k` runs `reps[k]`
/// repetitions, so that drift in machine speed over the run hits every
/// side alike, whatever each side's cost. Returns each side's median
/// round per repetition (seconds).
fn interleaved_rounds<const K: usize>(
    rounds: usize,
    reps: [usize; K],
    mut sides: [&mut dyn FnMut(); K],
) -> [f64; K] {
    let mut secs = [(); K].map(|_| Vec::with_capacity(rounds));
    for _ in 0..rounds {
        for ((side, f), &n) in secs.iter_mut().zip(sides.iter_mut()).zip(&reps) {
            side.push(time_loop(n, f) / n as f64);
        }
    }
    secs.map(|mut side| {
        side.sort_by(f64::total_cmp);
        (side[(rounds - 1) / 2] + side[rounds / 2]) / 2.0
    })
}

/// Builds an entry from a timed loop: `ops_per_iter` units of work per
/// repetition, reported in `unit`.
fn entry(name: &str, iters: usize, secs: f64, ops_per_iter: f64, unit: &str) -> BenchEntry {
    BenchEntry {
        name: name.to_string(),
        iters,
        wall_ms: secs * 1e3,
        per_op_us: secs / iters as f64 * 1e6,
        throughput: iters as f64 * ops_per_iter / secs,
        unit: unit.to_string(),
        baseline_per_op_us: None,
        speedup: None,
    }
}

/// Attaches a naive-path baseline (seconds for the same `iters`).
fn with_baseline(mut e: BenchEntry, baseline_secs: f64) -> BenchEntry {
    let base_us = baseline_secs / e.iters as f64 * 1e6;
    e.speedup = Some(base_us / e.per_op_us);
    e.baseline_per_op_us = Some(base_us);
    e
}

/// Deterministic test matrix (same generator as the nn property tests).
fn bench_tensor(rows: usize, cols: usize, salt: u64) -> Tensor {
    let data = (0..rows * cols).map(|i| ((i as f64 + salt as f64) * 0.789).sin()).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Runs the suite. `quick` shrinks every workload to CI scale (a few
/// seconds total); `workers` pins the rollout/Monte-Carlo thread fan-out
/// so runs on fixed-core CI machines are comparable.
pub fn run_suite(quick: bool, workers: usize) -> BenchReport {
    let unix_time =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs();
    let mut entries = Vec::new();

    // --- 1. Kernels: blocked vs naive GEMM at the 2×256 policy shape. ---
    let scale = if quick { 1 } else { 10 };
    {
        let a = bench_tensor(128, 256, 1);
        let w = bench_tensor(256, 256, 2);
        let iters = 40 * scale;
        let mut out = Tensor::zeros(128, 256);
        let [naive, blocked] = interleaved(
            iters,
            [
                &mut || {
                    black_box(black_box(&a).matmul(&w));
                },
                &mut || {
                    black_box(&a).matmul_into(&w, &mut out);
                    black_box(&out);
                },
            ],
        );
        let flops = 2.0 * 128.0 * 256.0 * 256.0;
        entries.push(with_baseline(
            entry("gemm_nn_128x256x256_blocked", iters, blocked, flops, "flop/s"),
            naive,
        ));

        // Weight-gradient shape: activationsᵀ·∂y, both batch-major.
        let g = bench_tensor(128, 256, 5);
        let mut gout = Tensor::zeros(256, 256);
        let [gnaive, gblocked] = interleaved(
            iters,
            [
                &mut || {
                    black_box(black_box(&a).matmul_tn(&g));
                },
                &mut || {
                    black_box(&a).matmul_tn_into(&g, &mut gout);
                    black_box(&gout);
                },
            ],
        );
        entries.push(with_baseline(
            entry("gemm_tn_128x256x256_blocked", iters, gblocked, flops, "flop/s"),
            gnaive,
        ));
    }

    // --- 1b. Mean-field kernels: the Padé `expm` (the epoch's test
    //     reference) on the paper's B = 5 extended generator and on a
    //     B = 20 birth-death generator; the uniformization epoch of one
    //     B = 5 birth-death queue; and full mean-field steps (one epoch per
    //     occupied state) under JSQ(2), softmin and a 2-phase H2 service,
    //     all at Δt = 5. Untracked (no naive twin to ratio against); the
    //     absolute cost is the datum. ---
    {
        use mflb_core::mdp::{Closure, Integrand};
        use mflb_core::{Exponential, SystemConfig};
        use mflb_linalg::{expm, Mat};
        use mflb_policy::{jsq_rule, softmin_rule};
        use mflb_queue::{BirthDeathQueue, PhaseType};

        let queue = BirthDeathQueue::new(0.9, 1.0, 5);
        let q = queue.extended_generator_column().scaled(5.0);
        let iters = 2_000 * scale;
        let secs = time_loop(iters, || {
            black_box(expm(black_box(&q)));
        });
        entries.push(entry("expm_7x7_extended_generator", iters, secs, 1.0, "ops/s"));

        let mut big = Mat::zeros(22, 22);
        for i in 0..21 {
            big[(i + 1, i)] = 0.9;
            big[(i, i + 1)] = 1.0;
            big[(i, i)] = -1.9;
        }
        let big = big.scaled(5.0);
        let iters = 200 * scale;
        let secs = time_loop(iters, || {
            black_box(expm(black_box(&big)));
        });
        entries.push(entry("expm_22x22_B20_generator", iters, secs, 1.0, "ops/s"));

        // One generic closure step from the same ν each iteration.
        let mut config = SystemConfig::paper();
        config.initial_dist = vec![0.3, 0.25, 0.2, 0.15, 0.07, 0.03];
        let exp = MeanField::new(&config, Exponential, Integrand::FullMesh);
        let rule = jsq_rule(6, 2);
        let iters = 500 * scale;
        let secs = time_loop(iters, || {
            black_box(black_box(&exp).clone().step(black_box(&rule), 0.9, 0.0, 5.0));
        });
        entries.push(entry("mean_field_step_dt5", iters, secs, 1.0, "ops/s"));

        let soft = softmin_rule(6, 2, 2.0);
        let secs = time_loop(iters, || {
            black_box(black_box(&exp).clone().step(black_box(&soft), 0.9, 0.0, 5.0));
        });
        entries.push(entry("mean_field_step_softmin", iters, secs, 1.0, "ops/s"));

        // Six length groups of 1 + 5·2 = 11 joint states, one kernel call.
        let service = PhaseType::fit_mean_scv(1.0, 2.0);
        let ph = MeanField::new(&config, service, Integrand::FullMesh);
        let iters = 100 * scale;
        let secs = time_loop(iters, || {
            black_box(black_box(&ph).clone().step(black_box(&rule), 0.9, 0.0, 5.0));
        });
        entries.push(entry("ph_mean_field_step_2phase_dt5", iters, secs, 1.0, "ops/s"));

        let iters = 2_000 * scale;
        let secs = time_loop(iters, || {
            black_box(black_box(&queue).epoch_expectation(2, 5.0));
        });
        entries.push(entry("birth_death_epoch_dt5", iters, secs, 1.0, "ops/s"));
    }

    // --- 1c. The aggregate engine's per-epoch draws: BTRS binomial, PTRS
    //     Poisson and a six-way multinomial at N = 10^6 clients, plus
    //     decoding a policy's logits into a decision rule (|Z| = 6, d = 2).
    //     Untracked. ---
    {
        use mflb_core::DecisionRule;
        use mflb_queue::Sampler;

        let mut rng = StdRng::seed_from_u64(4);
        let iters = 20_000 * scale;
        let secs = time_loop(iters, || {
            black_box(Sampler::binomial(&mut rng, 1_000_000, black_box(0.001)));
        });
        entries.push(entry("binomial_btrs_n1e6_p1e-3", iters, secs, 1.0, "ops/s"));
        let secs = time_loop(iters, || {
            black_box(Sampler::poisson(&mut rng, black_box(4500.0)));
        });
        entries.push(entry("poisson_ptrs_mean4500", iters, secs, 1.0, "ops/s"));
        let probs = [0.3, 0.25, 0.2, 0.15, 0.07, 0.03];
        let iters = 5_000 * scale;
        let secs = time_loop(iters, || {
            black_box(Sampler::multinomial(&mut rng, 1_000_000, black_box(&probs)));
        });
        entries.push(entry("multinomial_6cat_n1e6", iters, secs, 1.0, "ops/s"));

        let logits: Vec<f64> = (0..72).map(|i| (i as f64 * 0.37).sin()).collect();
        let secs = time_loop(iters, || {
            black_box(DecisionRule::from_logits(6, 2, black_box(&logits)));
        });
        entries.push(entry("decision_rule_from_logits_36x2", iters, secs, 1.0, "ops/s"));
    }

    // --- 2. Batch-1 inference: gemv fast path vs allocating forward_one
    //     on the paper's 2×256 policy network (the Monte-Carlo decide and
    //     rollout hot path). ---
    {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&[8, 256, 256, 72], Activation::Tanh, &mut rng);
        let obs = [0.25; 8];
        let iters = 2_000 * scale;
        let mut ws = Workspace::new();
        let [naive, fast] = interleaved(
            iters,
            [
                &mut || {
                    black_box(mlp.forward_one(black_box(&obs)));
                },
                &mut || {
                    black_box(mlp.forward_one_into(black_box(&obs), &mut ws));
                },
            ],
        );
        entries.push(with_baseline(
            entry("policy_forward_one_batch1_gemv", iters, fast, 1.0, "ops/s"),
            naive,
        ));

        // The quick-scale deployment net (`mflb train --scale quick`
        // checkpoints deploy 2×32 policies): small enough to live in L1,
        // so the allocating path's overhead dominates and the gemv fast
        // path shows its full margin. The 2×256 paper net above is bounded
        // by streaming 512 KB of weights per call, which caps any batch-1
        // kernel on this shape.
        let quick_net = Mlp::new(&[8, 32, 32, 72], Activation::Tanh, &mut rng);
        let qiters = 20_000 * scale;
        let mut qws = Workspace::new();
        let [qnaive, qfast] = interleaved(
            qiters,
            [
                &mut || {
                    black_box(quick_net.forward_one(black_box(&obs)));
                },
                &mut || {
                    black_box(quick_net.forward_one_into(black_box(&obs), &mut qws));
                },
            ],
        );
        entries.push(with_baseline(
            entry("policy_forward_one_batch1_gemv_2x32", qiters, qfast, 1.0, "ops/s"),
            qnaive,
        ));

        // The batch-1 gemv kernel against the allocating matmul layer path
        // it replaced, isolated on the quick-scale policy head (32 → 72
        // logits, linear). Whole-net forward_one ratios above are bounded
        // by work both paths share — `tanh` (≈10 ns/element through libm)
        // on the 2×32 net, and streaming 512 KB of weights per call on the
        // 2×256 net — whereas the layer itself shows the full
        // allocation+register-blocking margin.
        let head = mflb_nn::Linear::xavier(32, 72, &mut rng);
        let hx: Vec<f64> = (0..32).map(|i| (i as f64 * 0.17).sin()).collect();
        let hiters = 50_000 * scale;
        let mut hout = Tensor::zeros(1, 72);
        let hxt = Tensor::from_row(&hx);
        let [hnaive, hfast] = interleaved(
            hiters,
            [
                &mut || {
                    black_box(head.forward(&Tensor::from_row(black_box(&hx))));
                },
                &mut || {
                    head.forward_into(black_box(&hxt), &mut hout);
                    black_box(&hout);
                },
            ],
        );
        entries.push(with_baseline(
            entry("gemv_policy_head_32x72_batch1", hiters, hfast, 1.0, "ops/s"),
            hnaive,
        ));
    }

    // --- 2b. Batched decision-epoch inference on the paper net: one
    //     K-row gemm through `forward_rows_into` vs K sequential
    //     `forward_one_into` gemvs — the `decide_batch` vs `decide`
    //     cutover the lockstep Monte-Carlo driver rides (bit-identical
    //     outputs, so the margin is purely from amortizing the 512 KB
    //     weight stream over the batch). The f32 serving tier then runs
    //     the same batch with converted weights as its own tracked entry,
    //     baselined against the f64 batched path. ---
    {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&[8, 256, 256, 72], Activation::Tanh, &mut rng);
        let k = 32usize;
        let rows: Vec<f64> = (0..k * 8).map(|i| ((i as f64) * 0.13).sin() * 0.5 + 0.5).collect();
        let iters = 200 * scale;
        let f32_net = mlp.to_f32();
        let (mut ws_seq, mut ws, mut ws32) =
            (Workspace::new(), Workspace::new(), F32Workspace::new());
        let [gemv, batched, f32_secs] = interleaved(
            iters,
            [
                &mut || {
                    for r in 0..k {
                        let row = black_box(&rows[r * 8..(r + 1) * 8]);
                        black_box(mlp.forward_one_into(row, &mut ws_seq));
                    }
                },
                &mut || {
                    black_box(mlp.forward_rows_into(k, black_box(&rows), &mut ws));
                },
                &mut || {
                    black_box(f32_net.forward_rows_into(k, black_box(&rows), &mut ws32));
                },
            ],
        );
        entries.push(with_baseline(
            entry("batched_vs_gemv", iters, batched, k as f64, "rows/s"),
            gemv,
        ));
        entries
            .push(with_baseline(entry("f32_vs_f64", iters, f32_secs, k as f64, "rows/s"), batched));
    }

    // --- 2c. Distilled tabular tier: snap-and-lookup `decide()`, timed at
    //     the same decision granularity as the neural tiers so the three
    //     serving tiers read off one table. Untracked (no naive twin to
    //     ratio against) — the absolute per-op cost is the datum. ---
    {
        use mflb_core::mdp::UpperPolicy;
        use mflb_core::StateDist;
        use mflb_dp::SimplexGrid;
        use mflb_policy::{jsq_rule, softmin_rule};
        use mflb_rl::{DistilledCheckpoint, DISTILLED_FORMAT_VERSION};

        let config = SystemConfig::paper().with_m_squared(100).with_dt(5.0);
        let zs = config.num_states();
        let d = config.d;
        let levels = config.arrivals.num_levels();
        let grid_resolution = 8;
        let points = SimplexGrid::new(zs, grid_resolution).num_points();
        let ckpt = DistilledCheckpoint {
            format_version: DISTILLED_FORMAT_VERSION,
            scenario: Scenario::new(config.clone(), EngineSpec::Aggregate),
            grid_resolution,
            action_names: vec!["JSQ".into(), "SOFT(1)".into(), "SOFT(4)".into()],
            action_rules: vec![jsq_rule(zs, d), softmin_rule(zs, d, 1.0), softmin_rule(zs, d, 4.0)],
            table: (0..points * levels).map(|i| (i % 3) as u32).collect(),
            nn_fraction: 1.0,
            polish_slack: 0.005,
            source_steps: 0,
            source_seed: 0,
        };
        let tabular = ckpt.into_policy().expect("bench table is consistent");
        let dists: Vec<StateDist> = (0..8usize)
            .map(|s| {
                let lengths: Vec<usize> = (0..100).map(|j| (j * (s + 3)) % zs).collect();
                StateDist::empirical(&lengths, config.buffer)
            })
            .collect();
        let iters = 20_000 * scale;
        let mut k = 0usize;
        let secs = time_loop(iters, || {
            black_box(tabular.decide(black_box(&dists[k % dists.len()]), k % levels, 1.0));
            k += 1;
        });
        entries.push(entry("tabular_policy_decide", iters, secs, 1.0, "ops/s"));
    }

    // --- 3. Backward pass: workspace vs allocating, batch 128. ---
    {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(&[8, 256, 256, 72], Activation::Tanh, &mut rng);
        let batch = bench_tensor(128, 8, 3);
        let iters = 20 * scale;
        let mut ws = Workspace::new();
        let mut grad = Tensor::zeros(0, 0);
        let [naive, fast] = interleaved(
            iters,
            [
                &mut || {
                    let cache = mlp.forward_cached(black_box(&batch));
                    let grad = cache.output().clone();
                    black_box(mlp.backward(&cache, &grad));
                },
                &mut || {
                    mlp.forward_into(black_box(&batch), &mut ws);
                    grad.reset(128, 72);
                    grad.as_mut_slice().copy_from_slice(ws.output().as_slice());
                    black_box(mlp.backward_into(&mut ws, &grad));
                },
            ],
        );
        entries.push(with_baseline(
            entry("mlp_forward_backward_batch128_ws", iters, fast, 1.0, "ops/s"),
            naive,
        ));
    }

    // --- 4. PPO rollout collection + minibatch update throughput. ---
    {
        let mut config = SystemConfig::paper().with_dt(5.0);
        config.train_episode_len = 50;
        let env = MeanFieldEnv::homogeneous(config);
        let ppo = PpoConfig {
            train_batch_size: if quick { 500 } else { 2000 },
            minibatch_size: 125,
            num_epochs: if quick { 2 } else { 8 },
            hidden: vec![64, 64],
            rollout_threads: workers.max(1),
            ..PpoConfig::paper()
        };
        let steps = ppo.train_batch_size as f64;
        let epochs = ppo.num_epochs as f64;
        let mut trainer = PpoTrainer::new(&env, ppo, 42);
        let mut rng = StdRng::seed_from_u64(43);
        // Warm up workspaces and caches out of the timed region.
        let (warm_buffer, _) = trainer.collect_batch();
        trainer.update(&warm_buffer, &mut rng);

        let iters = if quick { 2 } else { 5 };
        let mut buffers = Vec::new();
        let collect = time_loop(iters, || {
            buffers.push(trainer.collect_batch().0);
        });
        entries.push(entry("ppo_collect_batch_mfc", iters, collect, steps, "steps/s"));
        let mut it = buffers.iter();
        // With two or more workers the value head trains on a second
        // thread beside the policy head (the per-row Gaussian loss loop
        // runs inside the policy head).
        let update = time_loop(iters, || {
            let buf = it.next().expect("one buffer per iter");
            black_box(trainer.update(buf, &mut rng));
        });
        entries.push(entry("ppo_update_minibatch_sgd", iters, update, steps * epochs, "steps/s"));
    }

    // --- 5. Deployment-side Monte Carlo: neural decide per epoch. ---
    {
        let config = SystemConfig::paper().with_m_squared(100).with_dt(5.0);
        let zs = config.num_states();
        let levels = config.arrivals.num_levels();
        let mut rng = StdRng::seed_from_u64(11);
        let net = Mlp::new(
            &[observation_dim(zs, levels), 256, 256, action_dim(zs, config.d)],
            Activation::Tanh,
            &mut rng,
        );
        let policy = NeuralUpperPolicy::new(net, zs, config.d, levels);
        let engine = AggregateEngine::new(config);
        let horizon = 50;
        let runs = if quick { 4 } else { 16 };
        let iters = if quick { 2 } else { 5 };
        let secs = time_loop(iters, || {
            black_box(monte_carlo(&engine, &policy, horizon, runs, 17, workers));
        });
        entries.push(entry(
            "monte_carlo_neural_decide_M100",
            iters,
            secs,
            (horizon * runs) as f64,
            "epochs/s",
        ));
    }

    // --- 5b. Aggregate engine epochs at the paper's largest size,
    //     M = 1000, N = 10^6 (Δt = 5): exponential service under JSQ(2)
    //     and a two-speed rate-class pool under SED(2) over composite
    //     states. Each state evolves across iterations (steady-state
    //     epochs, not cold ones). Tracked: the naive twin is the
    //     per-client engine's O(N·d) epoch at the same N and M, so the
    //     gate catches either service model falling off the O(M) path.
    //     The three engines alternate rounds of one per-client epoch and
    //     `reps` aggregate epochs each; every side reports its median
    //     round per epoch. ---
    {
        use mflb_policy::{jsq_rule, sed_rule};
        use mflb_sim::aggregate::AggregateState;
        use mflb_sim::client::PerClientState;
        use mflb_sim::{Engine, PerClientEngine, RateClasses};

        let config = SystemConfig::paper().with_m_squared(1000).with_dt(5.0);
        let m = config.num_queues;
        let jsq = jsq_rule(config.num_states(), config.d);

        let per = PerClientEngine::new(config.clone());
        let mut per_state = PerClientState::from_queues(vec![1; m], config.d);
        let mut per_rng = StdRng::seed_from_u64(19);

        let exp = AggregateEngine::new(config.clone());
        let mut exp_state = AggregateState::from_queues(vec![1; m]);
        let mut exp_rng = StdRng::seed_from_u64(20);

        let mut rates = vec![1.6; m / 2];
        rates.resize(m, 0.4);
        let classes = RateClasses::new(&rates);
        let sed = sed_rule(config.num_states(), config.d, classes.class_rates());
        let hetero = AggregateEngine::with_service(config, classes);
        let mut hetero_state = AggregateState::from_queues(vec![1; m]);
        let mut hetero_rng = StdRng::seed_from_u64(21);

        let (rounds, reps) = if quick { (10, 10) } else { (20, 50) };
        let [naive, exp_secs, hetero_secs] = interleaved_rounds(
            rounds,
            [1, reps, reps],
            [
                &mut || {
                    black_box(per.step(&mut per_state, &jsq, 0.9, &mut per_rng));
                },
                &mut || {
                    black_box(exp.step(&mut exp_state, &jsq, 0.9, &mut exp_rng));
                },
                &mut || {
                    black_box(hetero.step(&mut hetero_state, &sed, 0.9, &mut hetero_rng));
                },
            ],
        );
        let iters = rounds * reps;
        let total = |per_op: f64| per_op * iters as f64;
        for (name, secs) in [
            ("aggregate_epoch_exp_M1000_N1e6", exp_secs),
            ("aggregate_epoch_rate_classes_M1000_N1e6", hetero_secs),
        ] {
            entries.push(with_baseline(
                entry(name, iters, total(secs), 1.0, "epochs/s"),
                total(naive),
            ));
        }
    }

    // --- 5c. Finite-system epochs off the aggregate path: the staggered
    //     engine (per-client, 4 snapshot cohorts) at M = 100, N = 10^4, and
    //     one Gillespie epoch of a single H2 phase-type queue (Δt = 5), the
    //     per-queue step of `AggregateEngine<PhaseType>`. Untracked. ---
    {
        use mflb_policy::jsq_rule;
        use mflb_queue::{PhQueue, PhQueueState, PhaseType};
        use mflb_sim::{Engine, StaggeredEngine};

        let config = SystemConfig::paper().with_m_squared(100).with_dt(5.0);
        let rule = jsq_rule(config.num_states(), config.d);
        let staggered = StaggeredEngine::new(config, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = staggered.init_state(&mut rng);
        let iters = 20 * scale;
        let secs = time_loop(iters, || {
            black_box(staggered.step(&mut state, &rule, 0.9, &mut rng));
        });
        entries.push(entry("staggered_epoch_M100_N1e4_c4", iters, secs, 1.0, "epochs/s"));

        let queue = PhQueue::new(0.9, PhaseType::fit_mean_scv(1.0, 2.0), 5);
        let iters = 10_000 * scale;
        let secs = time_loop(iters, || {
            black_box(queue.simulate_epoch(PhQueueState { len: 2, phase: 0 }, 5.0, &mut rng));
        });
        entries.push(entry("ph_queue_gillespie_epoch_dt5", iters, secs, 1.0, "epochs/s"));
    }

    // --- 5d. The lattice DP: snapping and interpolating a distribution on
    //     the B = 5, G = 12 simplex lattice (the inner step of every
    //     Bellman backup), and one whole value-iteration solve on the
    //     B = 3, G = 8 lattice with the softmin action library (about
    //     0.1 s, so quick runs it once). Untracked. ---
    {
        use mflb_core::StateDist;
        use mflb_dp::{ActionLibrary, DpConfig, DpSolution, SimplexGrid};

        let grid = SimplexGrid::new(6, 12);
        let nu = StateDist::new(vec![0.23, 0.17, 0.31, 0.12, 0.09, 0.08]);
        let iters = 10_000 * scale;
        let secs = time_loop(iters, || {
            black_box(grid.interpolate(black_box(&nu)));
        });
        entries.push(entry("simplex_interpolate_B5_G12", iters, secs, 1.0, "ops/s"));
        let secs = time_loop(iters, || {
            black_box(grid.snap(black_box(&nu)));
        });
        entries.push(entry("simplex_snap_B5_G12", iters, secs, 1.0, "ops/s"));

        let config = SystemConfig::paper().with_buffer(3).with_dt(5.0);
        let dp = DpConfig { grid_resolution: 8, tol: 1e-6, max_sweeps: 4000, threads: 1 };
        let secs = time_loop(scale, || {
            let actions = ActionLibrary::softmin_default(config.num_states(), config.d);
            black_box(DpSolution::solve(black_box(&config), actions, &dp));
        });
        entries.push(entry("value_iteration_B3_G8", scale, secs, 1.0, "ops/s"));
    }

    // --- 6. End-to-end pinned-seed quick-scale training run. ---
    {
        let config = SystemConfig::paper().with_m_squared(20).with_dt(5.0);
        let scenario = Scenario::new(config, EngineSpec::Aggregate);
        let ppo = PpoConfig {
            gamma: 0.9,
            gae_lambda: 0.9,
            lr: 1e-3,
            train_batch_size: 2000,
            minibatch_size: 250,
            num_epochs: 10,
            kl_target: 0.02,
            hidden: vec![32, 32],
            initial_log_std: -0.5,
            rollout_threads: workers.max(1),
            ..PpoConfig::paper()
        };
        let iters = if quick { 2 } else { 8 };
        let secs = time_loop(1, || {
            black_box(
                train_scenario(&scenario, ppo.clone(), iters, 1, false)
                    .expect("bench training run"),
            );
        });
        entries.push(entry(
            "train_scenario_aggregate_quick",
            1,
            secs,
            (iters * ppo.train_batch_size) as f64,
            "steps/s",
        ));
    }

    BenchReport { unix_time, quick, workers, entries }
}

/// Runs the sparse-graph suite behind `mflb bench --suite graph`
/// (`BENCH_graph_quick.json` is its committed CI baseline).
///
/// Two gated kernels time the sparse-support Eq. 22 sweep against the
/// dense `|Z|^d·d` sweep it replaced — same machine, same inputs,
/// bit-identical outputs (tested in `mflb-core`), so the speedup is
/// purely algorithmic: first as a single-histogram micro-op, then as the
/// full per-dispatcher rate sweep of a 10^4-node ring (exactly the inner
/// loop a graph epoch runs). The untracked throughput entries record the
/// scaling trajectory: sharded epoch rates at 10^4/10^5/10^6 queues
/// (unit `q·epochs/s`; `per_op_us` is the epoch time, so epoch-steps/s
/// is its reciprocal) and the streaming CSR build of a 10^6-node random
/// 4-regular topology.
pub fn run_graph_suite(quick: bool, workers: usize) -> BenchReport {
    use mflb_core::{per_state_arrival_rates_into, per_state_arrival_rates_sparse_into, Topology};
    use mflb_policy::jsq_rule;
    use mflb_sim::{Engine, GraphEngine, GraphState};

    let unix_time =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs();
    let scale = if quick { 1 } else { 10 };
    let mut entries = Vec::new();

    // --- 1. Sparse vs dense Eq. 22 rates, single histogram. B = 10 and a
    //     5-state support is the regime a degree-4 neighborhood lives in:
    //     the dense sweep enumerates 11² = 121 length-d tuples, the
    //     sparse one at most 5² = 25. ---
    {
        let zs = 11;
        let rule = jsq_rule(zs, 2);
        let mut hist = vec![0.0f64; zs];
        for (z, w) in [(0usize, 0.2f64), (2, 0.2), (5, 0.2), (7, 0.2), (10, 0.2)] {
            hist[z] = w;
        }
        let support = vec![0usize, 2, 5, 7, 10];
        let (mut dense_rates, mut sparse_rates) = (vec![0.0f64; zs], vec![0.0f64; zs]);
        // Sub-µs kernel: enough iterations that the timed region is tens of
        // milliseconds even at quick scale, or the margin ratio is noise.
        let iters = 200_000 * scale;
        let [dense, sparse] = interleaved(
            iters,
            [
                &mut || {
                    per_state_arrival_rates_into(black_box(&hist), &rule, 1.0, &mut dense_rates);
                    black_box(&dense_rates);
                },
                &mut || {
                    per_state_arrival_rates_sparse_into(
                        black_box(&hist),
                        black_box(&support),
                        &rule,
                        1.0,
                        &mut sparse_rates,
                    );
                    black_box(&sparse_rates);
                },
            ],
        );
        entries.push(with_baseline(
            entry("graph_rates_sparse_B10_d2", iters, sparse, 1.0, "ops/s"),
            dense,
        ));
    }

    // --- 2. The same cutover at engine granularity: the per-dispatcher
    //     rate sweep over every node of a 10^4-queue ring (k = 5),
    //     replaying exactly what one epoch's assignment phase computes.
    //     ---
    {
        let m = 10_000usize;
        let zs = 11;
        let rule = jsq_rule(zs, 2);
        let csr = Topology::Ring { radius: 2 }.csr(m).expect("ring CSR");
        let k = csr.neighborhood_size();
        let queues: Vec<usize> = (0..m).map(|j| (j * 7) % zs).collect();
        let inv_k = 1.0 / k as f64;
        let fill_hist = |node: usize, hist: &mut [f64], support: &mut Vec<usize>| {
            hist.iter_mut().for_each(|h| *h = 0.0);
            support.clear();
            for &j in csr.row(node) {
                let z = queues[j as usize];
                if hist[z] == 0.0 {
                    support.push(z);
                }
                hist[z] += 1.0;
            }
            hist.iter_mut().for_each(|h| *h *= inv_k);
            support.sort_unstable();
        };
        // Each side sweeps with its own scratch (histogram, support, rates).
        let scratch = || (vec![0.0f64; zs], Vec::with_capacity(zs), vec![0.0f64; zs]);
        let (mut dense_hist, mut dense_support, mut dense_rates) = scratch();
        let (mut hist, mut support, mut rates) = scratch();
        let iters = 10 * scale;
        let [dense, sparse] = interleaved(
            iters,
            [
                &mut || {
                    for node in 0..m {
                        fill_hist(node, &mut dense_hist, &mut dense_support);
                        per_state_arrival_rates_into(
                            black_box(&dense_hist),
                            &rule,
                            1.0,
                            &mut dense_rates,
                        );
                        black_box(&dense_rates);
                    }
                },
                &mut || {
                    for node in 0..m {
                        fill_hist(node, &mut hist, &mut support);
                        per_state_arrival_rates_sparse_into(
                            black_box(&hist),
                            black_box(&support),
                            &rule,
                            1.0,
                            &mut rates,
                        );
                        black_box(&rates);
                    }
                },
            ],
        );
        entries.push(with_baseline(
            entry("graph_rates_sweep_ring_M10k", iters, sparse, m as f64, "nodes/s"),
            dense,
        ));
    }

    // --- 3. Sharded epoch throughput at 10^4 / 10^5 / 10^6 queues
    //     (N = 4M clients, JSQ(2), pinned seeds). ---
    let epoch_cases: [(usize, Topology, usize, &str); 3] = [
        (10_000, Topology::Ring { radius: 2 }, 4 * scale, "graph_epoch_ring_M10k"),
        (100_000, Topology::Ring { radius: 2 }, 2 * scale, "graph_epoch_ring_M100k"),
        (1_000_000, Topology::RandomRegular { degree: 4, seed: 7 }, scale, "graph_epoch_rr4_M1m"),
    ];
    for (m, topology, iters, name) in epoch_cases {
        let cfg = SystemConfig::paper().with_size(4 * m as u64, m);
        let zs = cfg.num_states();
        let rule = jsq_rule(zs, cfg.d);
        let engine = GraphEngine::new(cfg, topology).with_workers(workers);
        let queues: Vec<usize> = (0..m).map(|j| (j * 5) % zs).collect();
        let mut state = GraphState::from_queues(queues);
        let mut rng = StdRng::seed_from_u64(29);
        // One warm-up epoch touches every page out of the timed region.
        black_box(engine.step(&mut state, &rule, 0.9, &mut rng));
        let secs = time_loop(iters, || {
            black_box(engine.step(&mut state, &rule, 0.9, &mut rng));
        });
        entries.push(entry(name, iters, secs, m as f64, "q·epochs/s"));
    }

    // --- 4. Streaming CSR build of a million-node random 4-regular
    //     topology (the O(M·d) configuration-model draw). ---
    {
        let m = 1_000_000usize;
        let iters = scale;
        let secs = time_loop(iters, || {
            black_box(
                Topology::RandomRegular { degree: 4, seed: 7 }.csr(m).expect("build must succeed"),
            );
        });
        entries.push(entry("topology_build_rr4_M1m", iters, secs, m as f64, "nodes/s"));
    }

    BenchReport { unix_time, quick, workers, entries }
}

/// Runs the serving suite behind `mflb bench --suite serve`
/// (`BENCH_serve_quick.json` is its committed CI baseline).
///
/// Two gated entries time the event engine's design choices against
/// their naive twins on the same machine and inputs: a synthetic serve
/// run at M = 1000 on the uncapped queue-by-queue interval path against
/// the same run under an admission cap that never binds, whose intervals
/// merge every job with a heap of pending completions (the two runs agree
/// bit for bit), and the once-per-`Δt` sampled-and-delayed observation
/// refresh against recomputing the empirical histogram for every
/// dispatched job. The untracked throughput entries record the ROADMAP
/// bar — jobs dispatched per wall-clock second through the full
/// [`mflb_sim::serve()`] loop, on the uncapped path — for a synthetic
/// Poisson/MMPP stream at M = 100 and M = 1000 queues and for a replayed
/// 50k-job trace.
pub fn run_serve_suite(quick: bool, workers: usize) -> BenchReport {
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_core::{JobSizeLaw, StateDist};
    use mflb_policy::jsq_rule;
    use mflb_sim::{serve, EventEngine, Job, JobSource, ServeOptions};

    let unix_time =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs();
    let scale = if quick { 1 } else { 10 };
    let mut entries = Vec::new();

    // --- 1. The queue-by-queue interval vs the heap-merged one: the
    //     same synthetic serve at M = 1000 uncapped and under a cap of
    //     u64::MAX, one run per side and round, in alternating rounds. ---
    {
        let cfg = SystemConfig::paper().with_size(1_000_000, 1000);
        let policy = FixedRulePolicy::new(jsq_rule(cfg.num_states(), cfg.d), "JSQ(d)");
        let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let run = |admission_cap| {
            let opts = ServeOptions {
                duration: Some(20.0 * scale as f64),
                seed: 17,
                admission_cap,
                ..Default::default()
            };
            let report = serve(&engine, &policy, "JSQ(d)", &JobSource::Synthetic, &opts, |_| {})
                .expect("synthetic serve run");
            report.jobs_arrived as f64
        };
        let mut jobs = 0.0;
        let [heap, per_queue] =
            interleaved(ROUNDS, [&mut || _ = run(Some(u64::MAX)), &mut || jobs = run(None)]);
        entries.push(with_baseline(
            entry("serve_interval_per_queue_M1k", ROUNDS, per_queue, jobs, "jobs/s"),
            heap,
        ));
    }

    // --- 2. The sampled-and-delayed observation design as a kernel: one
    //     empirical-histogram refresh per sync interval vs recomputing it
    //     for each of the interval's 256 jobs (M = 1000 queues). ---
    {
        let m = 1000usize;
        let buffer = 5usize;
        let lengths: Vec<usize> = (0..m).map(|j| (j * 3) % (buffer + 1)).collect();
        let jobs_per_interval = 256usize;
        let iters = 200 * scale;
        let [per_job, once] = interleaved(
            iters,
            [
                &mut || {
                    for _ in 0..jobs_per_interval {
                        black_box(StateDist::empirical(black_box(&lengths), buffer));
                    }
                },
                &mut || {
                    black_box(StateDist::empirical(black_box(&lengths), buffer));
                },
            ],
        );
        entries.push(with_baseline(
            entry("serve_observe_refresh_M1k", iters, once, jobs_per_interval as f64, "jobs/s"),
            per_job,
        ));
    }

    // --- 3. End-to-end dispatch throughput of the serve loop on a
    //     synthetic Poisson/MMPP stream (the ROADMAP jobs/sec bar). ---
    let synth_cases: [(usize, u64, f64, &str); 2] = [
        (100, 10_000, 200.0, "serve_dispatch_synthetic_M100"),
        (1000, 1_000_000, 100.0, "serve_dispatch_synthetic_M1k"),
    ];
    for (m, n, duration, name) in synth_cases {
        let cfg = SystemConfig::paper().with_size(n, m);
        let policy = FixedRulePolicy::new(jsq_rule(cfg.num_states(), cfg.d), "JSQ(d)");
        let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let opts = ServeOptions {
            duration: Some(duration * scale as f64),
            seed: 17,
            ..Default::default()
        };
        let t0 = Instant::now();
        let report = serve(&engine, &policy, "JSQ(d)", &JobSource::Synthetic, &opts, |_| {})
            .expect("synthetic serve run");
        let secs = t0.elapsed().as_secs_f64();
        entries.push(entry(name, 1, secs, report.jobs_arrived as f64, "jobs/s"));
    }

    // --- 4. Trace replay throughput: a deterministic 50k-job trace at
    //     ~0.85 per-queue load, drained to completion. ---
    {
        let m = 100usize;
        let cfg = SystemConfig::paper().with_size(10_000, m);
        let policy = FixedRulePolicy::new(jsq_rule(cfg.num_states(), cfg.d), "JSQ(d)");
        let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let num_jobs = 50_000 * scale;
        let mean_gap = 1.0 / (0.85 * m as f64);
        let jobs: Vec<Job> = (0..num_jobs)
            .map(|i| Job { t: i as f64 * mean_gap, size: 0.25 + (i as f64 * 0.377).fract() * 1.5 })
            .collect();
        let source = JobSource::Trace(jobs);
        let opts = ServeOptions { seed: 23, ..Default::default() };
        let t0 = Instant::now();
        let report =
            serve(&engine, &policy, "JSQ(d)", &source, &opts, |_| {}).expect("trace serve run");
        let secs = t0.elapsed().as_secs_f64();
        entries.push(entry(
            "serve_dispatch_trace_M100",
            1,
            secs,
            report.jobs_arrived as f64,
            "jobs/s",
        ));
    }

    // --- 5. Fault-injection overhead: the M = 100 synthetic stream
    //     dispatched through (a) a fully faulted engine — crashes,
    //     stragglers, dropped observation refreshes, overload bursts —
    //     and (b) an engine handed an *empty* plan. Empty plans must
    //     normalize onto the pristine fast path, so the empty-plan entry
    //     carries the pristine runs, timed in alternating rounds with
    //     it, as its same-machine baseline: its
    //     "speedup" is pinned ≈ 1.0 and bench-diff gates the
    //     no-plan-no-overhead contract. The faulted entry tracks
    //     absolute faulted-dispatch throughput. ---
    {
        use mflb_core::{
            CrashFaults, FaultPlan, ObservationFaults, OverloadWindow, StragglerWindow,
        };
        let m = 100usize;
        let cfg = SystemConfig::paper().with_size(10_000, m);
        let policy = FixedRulePolicy::new(jsq_rule(cfg.num_states(), cfg.d), "JSQ(d)");
        let opts =
            ServeOptions { duration: Some(100.0 * scale as f64), seed: 17, ..Default::default() };
        let run = |engine: &EventEngine| {
            let t0 = Instant::now();
            let report = serve(engine, &policy, "JSQ(d)", &JobSource::Synthetic, &opts, |_| {})
                .expect("faulted serve run");
            (t0.elapsed().as_secs_f64(), report.jobs_arrived as f64)
        };
        let pristine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });

        let plan = FaultPlan {
            crashes: Some(CrashFaults { mttf: 50.0, mttr: 10.0 }),
            stragglers: vec![StragglerWindow { start: 20.0, end: 60.0, factor: 0.5, queues: None }],
            observation: Some(ObservationFaults { drop_prob: 0.2 }),
            overloads: vec![OverloadWindow { start: 70.0, end: 90.0, factor: 1.3 }],
        };
        let (faulted_secs, faulted_jobs) = run(&pristine.clone().with_faults(plan));
        entries.push(entry("serve_dispatch_faulted_M100", 1, faulted_secs, faulted_jobs, "jobs/s"));

        // One serve run per side and round, in alternating rounds.
        let empty = pristine.clone().with_faults(FaultPlan::empty());
        let mut empty_jobs = 0.0;
        let [pristine_secs, empty_secs] =
            interleaved(ROUNDS, [&mut || _ = run(&pristine), &mut || empty_jobs = run(&empty).1]);
        entries.push(with_baseline(
            entry("serve_dispatch_empty_plan_M100", ROUNDS, empty_secs, empty_jobs, "jobs/s"),
            pristine_secs,
        ));
    }

    BenchReport { unix_time, quick, workers, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_optional_fields() {
        let report = BenchReport {
            unix_time: 0,
            quick: true,
            workers: 1,
            entries: vec![
                entry("a", 2, 0.5, 1.0, "ops/s"),
                with_baseline(entry("b", 2, 0.5, 1.0, "ops/s"), 1.0),
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"speedup\": 2.0"), "{json}");
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries.len(), 2);
        assert!(back.entries[0].speedup.is_none());
    }

    fn report_with(speedups: &[(&str, Option<f64>)]) -> BenchReport {
        BenchReport {
            unix_time: 0,
            quick: true,
            workers: 1,
            entries: speedups
                .iter()
                .map(|(name, s)| {
                    let mut e = entry(name, 2, 0.5, 1.0, "ops/s");
                    if let Some(s) = s {
                        // entry() timed 0.5 s for the fast path; a baseline
                        // of 0.5·s seconds makes the speedup exactly `s`.
                        e = with_baseline(e, 0.5 * s);
                    }
                    e
                })
                .collect(),
        }
    }

    #[test]
    fn compare_reports_gates_on_same_machine_speedup_ratios() {
        let baseline = report_with(&[("gemv", Some(2.6)), ("gemm", Some(1.8)), ("rollout", None)]);
        // gemv kept its margin, gemm lost half of it (1.8 / 0.9 = 2.0 > 1.3).
        let fresh = report_with(&[
            ("gemv", Some(2.5)),
            ("gemm", Some(0.9)),
            ("rollout", None),
            ("brand_new", Some(3.0)),
        ]);
        let diff = compare_reports(&baseline, &fresh, 1.3);
        assert_eq!(diff.rows.len(), 3, "entries only the fresh report has are not compared");
        let regressed: Vec<&str> = diff.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(regressed, vec!["gemm"]);
        let md = diff.to_markdown();
        assert!(md.contains("| `gemm` |"), "{md}");
        assert!(md.contains("REGRESSED"), "{md}");
        assert!(md.contains("untracked"), "throughput-only entries never gate: {md}");
        assert!(md.contains("1 kernel(s) missing or regressed"), "{md}");
    }

    #[test]
    fn compare_reports_fails_on_baseline_entries_missing_from_fresh() {
        let baseline = report_with(&[("gemv", Some(2.0)), ("rollout", None), ("gemm", Some(1.5))]);
        let fresh = report_with(&[("gemv", Some(2.0))]);
        let diff = compare_reports(&baseline, &fresh, 1.3);
        assert_eq!(diff.rows.len(), 3, "every baseline entry gets a row");
        let missing: Vec<&str> = diff.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(missing, vec!["rollout", "gemm"], "untracked entries must be present too");
        assert!(diff.regressions().iter().all(|r| r.missing && r.fresh_speedup.is_none()));
        let md = diff.to_markdown();
        assert!(md.contains("| `rollout` | – | – | – | **MISSING** |"), "{md}");
        assert!(md.contains("2 kernel(s) missing or regressed"), "{md}");
    }

    #[test]
    fn compare_reports_passes_when_margins_hold() {
        let baseline = report_with(&[("gemv", Some(2.0))]);
        let fresh = report_with(&[("gemv", Some(1.7))]); // ratio 1.18 < 1.3
        let diff = compare_reports(&baseline, &fresh, 1.3);
        assert!(diff.regressions().is_empty());
        assert!(diff.to_markdown().contains("All tracked kernels within the gate"));
    }

    #[test]
    fn committed_baseline_files_parse_and_self_compare_clean() {
        // BENCH_kernels_quick.json and BENCH_graph_quick.json are the CI
        // gates' references (quick compares against quick — margins shift
        // with iteration count); BENCH_kernels.json is the full-suite perf
        // trajectory. All must stay parseable and trivially pass against
        // themselves.
        for file in [
            "BENCH_kernels_quick.json",
            "BENCH_kernels.json",
            "BENCH_graph_quick.json",
            "BENCH_serve_quick.json",
        ] {
            let path =
                std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("committed baseline {file} must exist: {e}"));
            let report = BenchReport::from_json(&text)
                .unwrap_or_else(|e| panic!("committed baseline {file} must parse: {e}"));
            assert!(!report.entries.is_empty());
            let diff = compare_reports(&report, &report, 1.3);
            assert!(diff.regressions().is_empty(), "{file}: self-comparison cannot regress");
            assert!(
                diff.rows.iter().any(|r| r.ratio.is_some()),
                "{file}: at least one kernel must carry a same-machine speedup to gate on"
            );
        }
    }
}
