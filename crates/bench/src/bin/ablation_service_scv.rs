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

use mflb_bench::harness::{print_table, write_csv, Scale};
use mflb_core::mdp::{FixedRulePolicy, Integrand, MeanField, MeanFieldMdp, UpperPolicy};
use mflb_core::{JobSizeLaw, SystemConfig};
use mflb_linalg::stats::Summary;
use mflb_policy::{jsq_rule, rnd_rule, softmin_rule};
use mflb_queue::PhaseType;
use mflb_sim::{monte_carlo, EngineSpec, Scenario, ServiceLaw};

/// Tunes softmin(β) in the PH mean-field model on common arrival
/// sequences (coarse log grid; the deterministic model makes this exact
/// up to the grid).
fn tune_beta_ph(cfg: &SystemConfig, service: &PhaseType, horizon: usize, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &scv in &scv_grid {
        let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m);
        let zs = cfg.num_states();
        let horizon = cfg.eval_episode_len();
        let service = PhaseType::fit_mean_scv(1.0, scv);

        let beta = tune_beta_ph(&cfg, &service, horizon.min(60), seed);
        let policies: Vec<(&str, Box<dyn UpperPolicy + Send + Sync>)> = vec![
            ("JSQ(2)", Box::new(FixedRulePolicy::new(jsq_rule(zs, 2), "JSQ(2)"))),
            ("RND", Box::new(FixedRulePolicy::new(rnd_rule(zs, 2), "RND"))),
            ("SOFT(beta*)", Box::new(FixedRulePolicy::new(softmin_rule(zs, 2, beta), "SOFT"))),
        ];

        // Finite PH system (aggregate multinomial + Gillespie PH queues),
        // built from a data-level scenario and fanned out over threads.
        let scenario = Scenario::new(
            cfg.clone(),
            EngineSpec::Ph { service: ServiceLaw::MeanScv { mean: 1.0, scv } },
        );
        let engine = scenario.build().expect("valid SCV scenario");
        let mut finite = Vec::new();
        for (i, (_, policy)) in policies.iter().enumerate() {
            finite.push(
                monte_carlo(&engine, policy.as_ref(), horizon, n_runs, seed + i as u64, 0).drops,
            );
        }

        // PH mean-field reference (stochastic only through λ).
        let closure = MeanField::new(&cfg, service.clone(), Integrand::FullMesh);
        let mdp = MeanFieldMdp::with_closure(cfg.clone(), closure);
        let mut mf = Vec::new();
        for (i, (_, policy)) in policies.iter().enumerate() {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed ^ (100 + i as u64));
            let mut s = Summary::new();
            for _ in 0..24 {
                s.push(-mdp.rollout(policy.as_ref(), horizon, &mut rng).total_return);
            }
            mf.push(s);
        }

        rows.push(vec![
            format!("{scv}"),
            format!("{}", service.num_phases()),
            format!("{beta:.2}"),
            format!("{:.2} ± {:.2}", finite[0].mean(), finite[0].ci95_half_width()),
            format!("{:.2} ± {:.2}", finite[1].mean(), finite[1].ci95_half_width()),
            format!("{:.2} ± {:.2}", finite[2].mean(), finite[2].ci95_half_width()),
            format!("{:.2}", mf[2].mean()),
        ]);
        csv_rows.push(vec![
            format!("{scv}"),
            format!("{beta:.4}"),
            format!("{:.4}", finite[0].mean()),
            format!("{:.4}", finite[1].mean()),
            format!("{:.4}", finite[2].mean()),
            format!("{:.4}", mf[0].mean()),
            format!("{:.4}", mf[1].mean()),
            format!("{:.4}", mf[2].mean()),
        ]);
    }
    print_table(
        &format!("Service-variability ablation (M = {m}, N = M², Δt = {dt}): drops vs SCV"),
        &[
            "SCV",
            "phases",
            "beta*",
            "JSQ(2) finite",
            "RND finite",
            "SOFT finite",
            "SOFT mean-field",
        ],
        &rows,
    );
    write_csv(
        &format!("ablation_service_scv_{}.csv", scale.label()),
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
        &csv_rows,
    );

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
    let cfg = SystemConfig::paper().with_dt(dt).with_m_squared(m);
    let zs = cfg.num_states();
    let horizon = cfg.eval_episode_len();
    // The exponential-law tuning carries across laws: the softmin rule only
    // reads queue lengths, and mean work per job is matched.
    let beta = tune_beta_ph(&cfg, &PhaseType::exponential(1.0), horizon.min(60), seed);
    let jruns = (n_runs / 2).max(8);
    let mut jrows = Vec::new();
    let mut jcsv = Vec::new();
    for (label, law) in &job_laws {
        let policies: Vec<(&str, Box<dyn UpperPolicy + Send + Sync>)> = vec![
            ("JSQ(2)", Box::new(FixedRulePolicy::new(jsq_rule(zs, 2), "JSQ(2)"))),
            ("RND", Box::new(FixedRulePolicy::new(rnd_rule(zs, 2), "RND"))),
            ("SOFT(beta*)", Box::new(FixedRulePolicy::new(softmin_rule(zs, 2, beta), "SOFT"))),
        ];
        let scenario = Scenario::new(cfg.clone(), EngineSpec::Event { job_size: law.clone() });
        let engine = scenario.build().expect("valid job-size scenario");
        let mut finite = Vec::new();
        for (i, (_, policy)) in policies.iter().enumerate() {
            finite.push(
                monte_carlo(&engine, policy.as_ref(), horizon, jruns, seed + i as u64, 0).drops,
            );
        }
        jrows.push(vec![
            label.to_string(),
            format!("{:.2}", law.mean()),
            format!("{:.2} ± {:.2}", finite[0].mean(), finite[0].ci95_half_width()),
            format!("{:.2} ± {:.2}", finite[1].mean(), finite[1].ci95_half_width()),
            format!("{:.2} ± {:.2}", finite[2].mean(), finite[2].ci95_half_width()),
        ]);
        jcsv.push(vec![
            label.to_string(),
            format!("{:.4}", law.mean()),
            format!("{:.4}", finite[0].mean()),
            format!("{:.4}", finite[1].mean()),
            format!("{:.4}", finite[2].mean()),
        ]);
    }
    print_table(
        &format!("Job-size-law ablation (event engine, M = {m}, N = M², Δt = {dt}): drops vs tail"),
        &["law", "mean size", "JSQ(2)", "RND", "SOFT(beta*)"],
        &jrows,
    );
    write_csv(
        &format!("ablation_job_size_{}.csv", scale.label()),
        &["law", "mean_size", "jsq", "rnd", "soft"],
        &jcsv,
    );

    println!("\n[shape] drops should increase with SCV for every policy;");
    println!("        SOFT(beta*) should stay at or below JSQ(2) throughout;");
    println!("        heavier job-size tails should not reorder the policies.");
}
