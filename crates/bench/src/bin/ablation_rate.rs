//! Extension experiment (ours): the Theorem-1 convergence **rate** —
//! "Quantifying the error convergence rate more precisely is left to
//! future work" (paper §3), measured here.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin ablation_rate -- [--scale quick|paper]
//! ```
//!
//! Two sweeps, both conditioned on one fixed arrival-level sequence so
//! the mean-field value `J(π̂)` is a deterministic reference:
//!
//! 1. **Joint limit** (the paper's Fig. 4 path): `N = M²`, `M` doubling;
//!    measures `gap(M) = |J − E[J^{N,M}]|` and fits
//!    `log₂ gap ~ slope · log₂ M`. Mean-field theory suggests the
//!    empirical measure fluctuates at `O(M^{−1/2})`, while the *mean*
//!    value often converges faster (O(1/M), first-order fluctuation
//!    terms averaging out) — the fitted slope settles the question for
//!    this model.
//! 2. **Client limit at fixed M**: the conditional-LLN direction
//!    (`N → ∞`, M fixed) with `gap(N)` against a large-`N` surrogate of
//!    `J^{∞,M}`.
//!
//! Gaps are reported with the Monte-Carlo standard error of the finite
//! estimate; fitted points whose gap is inside 2·SE are flagged (the
//! bias is below measurement resolution there).

use mflb_bench::harness::Scale;
use mflb_bench::sweep::{Cell, Table};
use mflb_core::mdp::FixedRulePolicy;
use mflb_core::theory::conditioned_return;
use mflb_core::SystemConfig;
use mflb_linalg::stats::{linear_fit, Summary};
use mflb_policy::softmin_rule;
use mflb_sim::{monte_carlo_conditioned, AggregateEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let (m_grid, n_runs, horizon): (Vec<usize>, usize, usize) = match scale {
        Scale::Quick => (vec![8, 16, 32, 64, 128], 400, 20),
        Scale::Paper => (vec![8, 16, 32, 64, 128, 256, 512], 1000, 50),
    };
    let dt = 5.0;
    let base = SystemConfig::paper().with_dt(dt);
    let zs = base.num_states();
    let policy = FixedRulePolicy::new(softmin_rule(zs, base.d, 1.0), "SOFT(1)");

    // One fixed arrival path shared by the limit and every finite system.
    let mut rng = StdRng::seed_from_u64(seed);
    let seq = mflb_core::theory::sample_lambda_sequence(&base, horizon, &mut rng);
    let reference = conditioned_return(&base, &policy, &seq);
    println!("mean-field reference J = {reference:.4} over {horizon} epochs (Δt = {dt})");

    // ---- Sweep 1: joint limit N = M². ----
    let mut joint = Table::new(
        &["M", "N", "E[J^{N,M}]", "gap", "SE", "gap resolvable"],
        &["M", "N", "finite", "gap", "se"],
    );
    let mut log_m = Vec::new();
    let mut log_gap = Vec::new();
    for &m in &m_grid {
        let cfg = base.clone().with_m_squared(m);
        let engine = AggregateEngine::new(cfg);
        let mc = monte_carlo_conditioned(&engine, &policy, &seq, n_runs, seed + m as u64, 0);
        let finite = Summary::from_slice(&mc.per_run.iter().map(|d| -d).collect::<Vec<_>>());
        let gap = (reference - finite.mean()).abs();
        let resolvable = gap > 2.0 * finite.std_err();
        if resolvable {
            log_m.push((m as f64).log2());
            log_gap.push(gap.log2());
        }
        joint.push(vec![
            Cell::text(m),
            Cell::text(m * m),
            Cell::num(finite.mean(), 4, 6),
            Cell::num(gap, 4, 6),
            Cell::num(finite.std_err(), 4, 6),
            Cell::text(if resolvable { "yes" } else { "below noise" }).print_only(),
        ]);
    }
    joint.print(&format!(
        "Theorem-1 rate, joint limit N = M² (J = {reference:.3}, n = {n_runs} runs)"
    ));
    if log_m.len() >= 3 {
        let (slope, _, r2) = linear_fit(&log_m, &log_gap);
        println!(
            "\n[rate] fitted gap ∝ M^({slope:.2}) over {} resolvable points (r² = {r2:.3})",
            log_m.len()
        );
        println!("       (−0.5 = CLT fluctuation order; −1 = first-order bias cancellation)");
    } else {
        println!("\n[rate] too few noise-resolvable points for a joint-limit fit");
    }
    joint.write_csv(&format!("ablation_rate_joint_{}.csv", scale.label()));

    // ---- Sweep 2: N → ∞ at fixed M. ----
    let m_fixed = 20usize;
    let n_grid: Vec<u64> = vec![40, 160, 640, 2_560, 10_240];
    let n_surrogate: u64 = 163_840; // stands in for N = ∞ at this M
    let cfg_inf = base.clone().with_size(n_surrogate, m_fixed);
    let engine_inf = AggregateEngine::new(cfg_inf);
    let mc_inf = monte_carlo_conditioned(&engine_inf, &policy, &seq, n_runs, seed ^ 0xA5A5, 0);
    let j_inf = -mc_inf.mean();

    let mut clients =
        Table::new(&["N", "E[J^{N,M}]", "gap vs surrogate", "SE"], &["N", "finite", "gap", "se"]);
    for &n in &n_grid {
        let cfg = base.clone().with_size(n, m_fixed);
        let engine = AggregateEngine::new(cfg);
        let mc = monte_carlo_conditioned(&engine, &policy, &seq, n_runs, seed + n, 0);
        let finite = -mc.mean();
        let gap = (j_inf - finite).abs();
        clients.push(vec![
            Cell::text(n),
            Cell::num(finite, 4, 6),
            Cell::num(gap, 4, 6),
            Cell::num(mc.drops.std_err(), 4, 6),
        ]);
    }
    clients.print(&format!(
        "Theorem-1 rate, client limit at M = {m_fixed} (surrogate J^{{∞,M}} = {j_inf:.3} at N = {n_surrogate})"
    ));
    clients.write_csv(&format!("ablation_rate_clients_{}.csv", scale.label()));

    println!("\n[shape] both gap columns should decay towards measurement noise;");
    println!("        the joint-limit slope quantifies the rate Theorem 1 leaves open.");
}
