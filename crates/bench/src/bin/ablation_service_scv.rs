//! Extension experiment (ours): sensitivity to service-time variability —
//! the paper's §5 "non-exponential service times" future work, executed.
//!
//! ```text
//! cargo run -p mflb-bench --release --bin ablation_service_scv -- [--scale quick|paper]
//! ```
//!
//! Sweeps the squared coefficient of variation of the service law,
//! `SCV ∈ {0.25, 0.5, 1, 2, 4}` at fixed mean 1 (two-moment phase-type
//! fits: Erlang mixtures below 1, balanced-means H₂ above; SCV 1 is the
//! paper's exponential). For each SCV:
//!
//! * JSQ(2), RND and a softmin(β) tuned *in the PH mean-field model* run
//!   on the finite PH system (a [`mflb_sim::Scenario`]-built PH engine,
//!   evaluated with the thread-parallel `monte_carlo` fan-out),
//! * the PH mean-field value is reported next to the finite-system value
//!   (the Theorem-1 story carried to the extension).
//!
//! Expected shape: drops increase with SCV for every policy (more
//! variable service ⇒ burstier queues at equal load), the MF/softmin
//! advantage over JSQ(2) persists across SCV, and the finite system
//! tracks the PH mean field.

use mflb_bench::harness::{fixed_rules, Scale};
use mflb_bench::sweep::{run_policies, Cell, Table};
use mflb_core::mdp::{FixedRulePolicy, Integrand, MeanField, MeanFieldMdp};
use mflb_core::{JobSizeLaw, SystemConfig};
use mflb_linalg::stats::Summary;
use mflb_policy::softmin_rule;
use mflb_queue::PhaseType;
use mflb_sim::{EngineSpec, Scenario, ServiceLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tunes softmin(β) in the PH mean-field model on common arrival
/// sequences (coarse log grid; the deterministic model makes this exact
/// up to the grid).
fn tune_beta_ph(cfg: &SystemConfig, service: &PhaseType, horizon: usize, seed: u64) -> f64 {
    let closure = MeanField::new(cfg, service.clone(), Integrand::FullMesh);
    let mdp = MeanFieldMdp::with_closure(cfg.clone(), closure);
    let mut rng = StdRng::seed_from_u64(seed);
    let seqs: Vec<Vec<usize>> =
        (0..6).map(|_| mflb_core::theory::sample_lambda_sequence(cfg, horizon, &mut rng)).collect();
    let zs = cfg.num_states();
    let mut best = (0.0, f64::NEG_INFINITY);
    for beta in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let policy = FixedRulePolicy::new(softmin_rule(zs, cfg.d, beta), "soft");
        let v: f64 =
            seqs.iter().map(|s| mdp.rollout_conditioned(&policy, s).total_return).sum::<f64>()
                / seqs.len() as f64;
        if v > best.1 {
            best = (beta, v);
        }
    }
    best.0
}

fn main() {
    let args = mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let scale: Scale = args.get("--scale");
    let seed: u64 = args.get("--seed");
    let (n_runs, m) = match scale {
        Scale::Quick => (20, 50),
        Scale::Paper => (100, 200),
    };
    let dt = 5.0;
    let scv_grid = [0.25, 0.5, 1.0, 2.0, 4.0];
    let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m);
    let horizon = cfg.eval_episode_len();

    let mut table = Table::new(
        &[
            "SCV",
            "phases",
            "beta*",
            "JSQ(2) finite",
            "RND finite",
            "SOFT finite",
            "SOFT mean-field",
        ],
        &[
            "scv",
            "beta_star",
            "jsq_finite",
            "rnd_finite",
            "soft_finite",
            "jsq_mf",
            "rnd_mf",
            "soft_mf",
        ],
    );
    for &scv in &scv_grid {
        let service = PhaseType::fit_mean_scv(1.0, scv);
        let beta = tune_beta_ph(&cfg, &service, horizon.min(60), seed);
        let [jsq, rnd, soft] = fixed_rules(&cfg, beta);

        // Finite PH system (aggregate multinomial + Gillespie PH queues),
        // built from a data-level scenario and fanned out over threads.
        let scenario = Scenario::new(
            cfg.clone(),
            EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv } },
        );
        let engine = scenario.build().expect("valid SCV scenario");
        let finite = run_policies(&engine, &[&jsq, &rnd, &soft], horizon, n_runs, seed);

        // PH mean-field reference (stochastic only through λ).
        let closure = MeanField::new(&cfg, service.clone(), Integrand::FullMesh);
        let mdp = MeanFieldMdp::with_closure(cfg.clone(), closure);
        let mut mf = Vec::new();
        for (i, policy) in [&jsq, &rnd, &soft].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (100 + i as u64));
            let mut s = Summary::new();
            for _ in 0..24 {
                s.push(-mdp.rollout(policy, horizon, &mut rng).total_return);
            }
            mf.push(s.mean());
        }

        let mut row = vec![Cell::text(scv), Cell::text(service.num_phases()).print_only()];
        row.push(Cell::num(beta, 2, 4));
        row.extend(finite.iter().map(|r| Cell::mean_ci(r.mean(), r.ci95()).csv_mean_only()));
        row.extend([Cell::num(mf[0], 4, 4).csv_only(), Cell::num(mf[1], 4, 4).csv_only()]);
        row.push(Cell::num(mf[2], 2, 4));
        table.push(row);
    }
    table
        .print(&format!("Service-variability ablation (M = {m}, N = M², Δt = {dt}): drops vs SCV"));
    table.write_csv(&format!("ablation_service_scv_{}.csv", scale.label()));

    // --- Heavy-tailed job sizes on the continuous-time event engine: the
    // variability axis carried past what two-moment phase-type fits can
    // express. All three laws do mean-1 work per job; Pareto(2.5) has
    // finite variance, and the bounded Pareto keeps a shape-1.5 tail
    // integrable by truncation — the classic heavy-tail serving regime.
    // ---
    let job_laws: [(&str, JobSizeLaw); 3] = [
        ("Exp(1)", JobSizeLaw::Exponential { rate: 1.0 }),
        ("Pareto(2.5,0.6)", JobSizeLaw::Pareto { shape: 2.5, scale: 0.6 }),
        ("BPareto(1.5,.2,20)", JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 }),
    ];
    // The exponential-law tuning carries across laws: the softmin rule only
    // reads queue lengths, and mean work per job is matched.
    let beta = tune_beta_ph(&cfg, &PhaseType::exponential(1.0), horizon.min(60), seed);
    let [jsq, rnd, soft] = fixed_rules(&cfg, beta);
    let jruns = (n_runs / 2).max(8);
    let mut jobs = Table::new(
        &["law", "mean size", "JSQ(2)", "RND", "SOFT(beta*)"],
        &["law", "mean_size", "jsq", "rnd", "soft"],
    );
    for (label, law) in &job_laws {
        let scenario = Scenario::new(cfg.clone(), EngineSpec::Event { job_size: law.clone() });
        let engine = scenario.build().expect("valid job-size scenario");
        let finite = run_policies(&engine, &[&jsq, &rnd, &soft], horizon, jruns, seed);
        let mut row = vec![Cell::text(label), Cell::num(law.mean(), 2, 4)];
        row.extend(finite.iter().map(|r| Cell::mean_ci(r.mean(), r.ci95()).csv_mean_only()));
        jobs.push(row);
    }
    jobs.print(&format!(
        "Job-size-law ablation (event engine, M = {m}, N = M², Δt = {dt}): drops vs tail"
    ));
    jobs.write_csv(&format!("ablation_job_size_{}.csv", scale.label()));

    println!("\n[shape] drops should increase with SCV for every policy;");
    println!("        SOFT(beta*) should stay at or below JSQ(2) throughout;");
    println!("        heavier job-size tails should not reorder the policies.");
}
