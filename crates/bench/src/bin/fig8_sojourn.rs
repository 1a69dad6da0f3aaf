//! Extension experiment (ours): job-level response times under delay.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin fig8_sojourn -- [--scale quick|paper]
//! ```
//!
//! The paper's objective is packet drops, but its introduction motivates
//! the problem through "higher response times" under herd behaviour.
//! This experiment runs the finite system at the *job level* — every
//! queue is a FIFO queue with per-job arrival/departure timestamps
//! ([`mflb_sim::FifoEngine`], built from a [`mflb_sim::Scenario`]) — and
//! reports the mean and p95 sojourn time of completed jobs, next to the
//! drop fraction, for JSQ(2)/RND/tuned softmin across Δt. Sojourn
//! samples flow through the generic `EpisodeOutcome` and are pooled over
//! the thread-parallel `monte_carlo` fan-out.
//!
//! Expected shape: sojourn times mirror the drop story — RND keeps them
//! flat-but-high, JSQ(2) is best at small Δt and degrades past the
//! crossover, the tuned softmin tracks the lower envelope. p95 amplifies
//! the effect (herding creates long-queue episodes that tail jobs eat).

use mflb_bench::harness::{fixed_rules, Scale};
use mflb_bench::sweep::{run_policies, Cell, Table};
use mflb_core::SystemConfig;
use mflb_policy::optimize_beta;
use mflb_sim::{EngineSpec, Scenario};

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[pos.min(sorted.len() - 1)]
}

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let (n_runs, m) = match scale {
        Scale::Quick => (10usize, 50usize),
        Scale::Paper => (40, 200),
    };
    let dt_grid: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 3.0, 5.0, 10.0],
        Scale::Paper => (1..=10).map(|d| d as f64).collect(),
    };

    let mut table = Table::new(
        &["dt", "JSQ(2)", "RND", "SOFT(beta*)"],
        &[
            "dt",
            "beta_star",
            "jsq_mean",
            "jsq_p95",
            "jsq_dropfrac",
            "rnd_mean",
            "rnd_p95",
            "rnd_dropfrac",
            "soft_mean",
            "soft_p95",
            "soft_dropfrac",
        ],
    );
    for &dt in &dt_grid {
        let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m);
        let horizon = cfg.eval_episode_len();
        let beta = optimize_beta(&cfg, horizon.min(100), 6, seed).beta;
        let [jsq, rnd, soft] = fixed_rules(&cfg, beta);
        let engine =
            Scenario::new(cfg, EngineSpec::JobLevel).build().expect("valid job-level scenario");
        let mut row = vec![Cell::text(dt), Cell::num(beta, 4, 4).csv_only()];
        for mc in run_policies(&engine, &[&jsq, &rnd, &soft], horizon, n_runs, seed) {
            let drop_frac = mc.drop_fraction();
            let mut all = mc.sojourns;
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = all.iter().sum::<f64>() / all.len().max(1) as f64;
            let p95 = percentile(&all, 0.95);
            row.extend([
                Cell::text(format!("{mean:.2}/{p95:.2}/{:.1}%", drop_frac * 100.0)).print_only(),
                Cell::num(mean, 4, 4).csv_only(),
                Cell::num(p95, 4, 4).csv_only(),
                Cell::num(drop_frac, 5, 5).csv_only(),
            ]);
        }
        table.push(row);
    }
    table.print(&format!(
        "Fig. 8 (ours, M = {m}, N = M²): job sojourn mean/p95/drop% vs Δt (job-level FIFO)"
    ));
    table.write_csv(&format!("fig8_sojourn_{}.csv", scale.label()));

    println!("\n[shape] sojourn times mirror the drop story: JSQ best at small Δt,");
    println!("        degrading past the crossover; SOFT tracks the lower envelope;");
    println!("        p95 amplifies herding (long-queue episodes hit tail jobs).");
}
