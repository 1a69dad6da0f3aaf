//! The event engine runs an uncapped sync interval queue by queue and an
//! admission-capped one on a completion heap in global time order. A cap
//! that never binds must leave a serve run unchanged, bit for bit: every
//! tick and the final report (wall-clock fields aside). The runs cover
//! the three job-size laws, a fault plan with every fault kind, and a
//! replayed trace whose integer timestamps and unit sizes put
//! completions, arrivals and sync boundaries on the same instants, with a
//! buffer of 2 so that the order of those ties decides drops.

use mflb_core::mdp::FixedRulePolicy;
use mflb_core::{FaultPlan, JobSizeLaw, SystemConfig};
use mflb_policy::{jsq_rule, rnd_rule};
use mflb_sim::{serve, EventEngine, Job, JobSource, ServeOptions, ServeReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serves `source` for `duration` without a cap and under a cap of
/// `u64::MAX`, asserts that both runs emit the same ticks and report, and
/// returns the report.
fn assert_paths_agree(
    engine: &EventEngine,
    policy: &FixedRulePolicy,
    source: &JobSource,
    duration: f64,
    what: &str,
) -> ServeReport {
    let run = |admission_cap| {
        let opts = ServeOptions {
            duration: Some(duration),
            report_every: 1,
            seed: 17,
            admission_cap,
            ..Default::default()
        };
        let mut ticks = Vec::new();
        let mut report =
            serve(engine, policy, "policy", source, &opts, |t| ticks.push(format!("{t:?}")))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
        (report.wall_seconds, report.jobs_per_sec) = (0.0, 0.0);
        (ticks, format!("{report:?}"), report)
    };
    let (ticks, summary, report) = run(None);
    let (capped_ticks, capped_summary, _) = run(Some(u64::MAX));
    assert!(report.jobs_completed > 0 && report.jobs_dropped > 0, "{what}: {summary}");
    assert_eq!(ticks.len(), capped_ticks.len(), "{what}: tick count");
    for (i, (tick, capped)) in ticks.iter().zip(&capped_ticks).enumerate() {
        assert_eq!(tick, capped, "{what}: tick {i}");
    }
    assert_eq!(summary, capped_summary, "{what}: report");
    report
}

fn jsq() -> FixedRulePolicy {
    FixedRulePolicy::new(jsq_rule(6, 2), "JSQ(2)")
}

#[test]
fn a_cap_that_never_binds_changes_nothing_on_every_size_law() {
    let cfg = SystemConfig::paper().with_size(1600, 40).with_dt(2.0);
    for law in [
        JobSizeLaw::Exponential { rate: 1.0 },
        JobSizeLaw::Pareto { shape: 2.5, scale: 0.6 },
        JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 },
    ] {
        let engine = EventEngine::new(cfg.clone(), law.clone());
        assert_paths_agree(&engine, &jsq(), &JobSource::Synthetic, 60.0, &format!("{law:?}"));
    }
}

#[test]
fn a_cap_that_never_binds_changes_nothing_under_faults() {
    let plan = FaultPlan::from_json(
        r#"{"crashes": {"mttf": 15.0, "mttr": 5.0},
            "stragglers": [{"start": 10.0, "end": 30.0, "factor": 0.5, "queues": [0, 1, 2, 3]}],
            "observation": {"drop_prob": 0.3},
            "overloads": [{"start": 30.0, "end": 45.0, "factor": 1.5}]}"#,
    )
    .unwrap();
    let cfg = SystemConfig::paper().with_size(1600, 40).with_dt(2.0);
    let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 }).with_faults(plan);
    assert_paths_agree(&engine, &jsq(), &JobSource::Synthetic, 60.0, "faulted");
}

#[test]
fn a_cap_that_never_binds_changes_nothing_on_a_trace_full_of_ties() {
    // Zero to five unit jobs at each integer instant, onto three queues
    // of buffer 2: completions land on arrival instants and, with an
    // integer Δt, on the sync boundaries.
    let mut rng = StdRng::seed_from_u64(5);
    let jobs: Vec<Job> =
        (0..60).flat_map(|t| vec![Job { t: t as f64, size: 1.0 }; rng.gen_range(0..6)]).collect();
    let source = JobSource::Trace(jobs);
    // (completed, dropped, mean-sojourn bits) of the same runs on the
    // earlier engine, which kept every arrival, completion and refresh on
    // one `(time, seq)` heap.
    let heap = [
        (1.0, 129, 29, 0x3ff7f01fc07f01fc),
        (2.0, 132, 26, 0x3ff7e0f83e0f83e1),
        (2.5, 126, 32, 0x3ff77df7df7df7df),
    ];
    for (dt, completed, dropped, mean_sojourn) in heap {
        let cfg = SystemConfig::paper().with_size(9, 3).with_buffer(2).with_dt(dt);
        let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
        let policy = FixedRulePolicy::new(rnd_rule(3, 2), "RND");
        let report =
            assert_paths_agree(&engine, &policy, &source, 60.0, &format!("trace, dt = {dt}"));
        assert_eq!(
            (report.jobs_completed, report.jobs_dropped, report.mean_sojourn.to_bits()),
            (completed, dropped, mean_sojourn),
            "dt = {dt}"
        );
    }
}

#[test]
fn queues_busy_in_phase_through_a_long_interval_keep_the_tie_order() {
    // Once the preloaded jobs are gone, three jobs of size 1/8 at every
    // multiple of 1/8 overload two queues: both stay busy through a long
    // sync interval, completing on the same instants, each completion
    // scheduled by the one before it in its queue. Ordering two such
    // completions must not walk back through their whole busy periods.
    let jobs: Vec<Job> =
        (128..32_768).flat_map(|i| [Job { t: i as f64 / 8.0, size: 0.125 }; 3]).collect();
    let cfg = SystemConfig::paper().with_size(4, 2).with_buffer(16).with_dt(4096.0);
    let engine = EventEngine::new(cfg, JobSizeLaw::Exponential { rate: 1.0 });
    let policy = FixedRulePolicy::new(rnd_rule(17, 2), "RND");
    let report = assert_paths_agree(&engine, &policy, &JobSource::Trace(jobs), 4096.0, "in phase");
    assert!(report.jobs_completed > 60_000, "{report:?}");
}
