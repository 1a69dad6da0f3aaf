//! Round-trip and strict-validation behaviour of the versioned checkpoint.

use mflb_core::{JobSizeLaw, SystemConfig};
use mflb_policy::{optimize_beta, InferenceConfig};
use mflb_rl::{limit, train_scenario, PpoConfig, TrainingCheckpoint, CHECKPOINT_FORMAT_VERSION};
use mflb_sim::{EngineSpec, Scenario, ServiceLaw};

fn tiny_ppo() -> PpoConfig {
    PpoConfig {
        train_batch_size: 64,
        minibatch_size: 32,
        num_epochs: 1,
        hidden: vec![8],
        rollout_threads: 2,
        ..PpoConfig::paper()
    }
}

fn small_config() -> SystemConfig {
    let mut c = SystemConfig::paper().with_size(100, 10).with_dt(5.0);
    c.train_episode_len = 8;
    c
}

fn train_tiny(scenario: &Scenario) -> mflb_rl::TrainResult {
    train_scenario(scenario, tiny_ppo(), 1, 1, false).expect("tiny training")
}

#[test]
fn checkpoint_round_trips_through_disk_and_preserves_decisions() {
    let scenario = Scenario::new(small_config(), EngineSpec::Aggregate);
    let result = train_tiny(&scenario);
    let dir = std::env::temp_dir().join("mflb_ckpt_roundtrip");
    let path = dir.join("ckpt.json");
    result.checkpoint.save(&path).unwrap();

    let loaded = TrainingCheckpoint::load(&path).unwrap();
    assert_eq!(loaded.format_version, CHECKPOINT_FORMAT_VERSION);
    assert_eq!(loaded.scenario, scenario);
    assert_eq!(loaded.total_steps, result.checkpoint.total_steps);
    assert_eq!(loaded.curve.len(), result.checkpoint.curve.len());

    let policy = loaded.into_policy().unwrap();
    let dist = mflb_core::StateDist::new(vec![0.4, 0.3, 0.15, 0.1, 0.03, 0.02]);
    let a = mflb_core::mdp::UpperPolicy::decide(&result.policy, &dist, 1, 0.6);
    let b = mflb_core::mdp::UpperPolicy::decide(&policy, &dist, 1, 0.6);
    assert!(a.max_abs_diff(&b) < 1e-15, "reloaded policy must decide identically");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dim_mismatch_against_target_scenario_is_rejected() {
    let homog = Scenario::new(small_config(), EngineSpec::Aggregate);
    let ckpt = train_tiny(&homog).checkpoint;

    // Same config, heterogeneous engine: needs composite-rule logits.
    let mut rates = vec![1.6; 5];
    rates.extend(vec![0.4; 5]);
    let hetero = Scenario::new(small_config(), EngineSpec::Hetero { rates });
    let err = ckpt.validate_for(&hetero).unwrap_err();
    assert!(err.contains("logits"), "should name the action-dim mismatch: {err}");

    // Wider buffer: observation dim changes.
    let wide = Scenario::new(small_config().with_buffer(9), EngineSpec::Aggregate);
    let err = ckpt.validate_for(&wide).unwrap_err();
    assert!(err.contains("observes"), "should name the obs-dim mismatch: {err}");

    // The checkpoint remains valid against its own scenario.
    ckpt.validate().unwrap();
}

#[test]
fn hetero_checkpoint_deploys_only_against_matching_pools() {
    let mut rates = vec![1.6; 5];
    rates.extend(vec![0.4; 5]);
    let hetero = Scenario::new(small_config(), EngineSpec::Hetero { rates });
    let ckpt = train_tiny(&hetero).checkpoint;
    ckpt.validate().unwrap();

    let homog = Scenario::new(small_config(), EngineSpec::Aggregate);
    assert!(ckpt.validate_for(&homog).is_err(), "composite policy must not deploy homogeneous");

    // A PH scenario shares the homogeneous shape, so the homogeneous
    // mismatch message is the same; a 3-class pool differs again.
    let three: Vec<f64> = vec![2.0, 1.0, 0.5, 2.0, 1.0, 0.5, 2.0, 1.0, 0.5, 2.0];
    let other = Scenario::new(small_config(), EngineSpec::Hetero { rates: three });
    assert!(ckpt.validate_for(&other).is_err());
}

#[test]
fn unsupported_format_version_is_rejected() {
    let scenario = Scenario::new(small_config(), EngineSpec::Aggregate);
    let ckpt = train_tiny(&scenario).checkpoint;
    let json = ckpt.to_json();
    let bumped = json.replace(
        &format!("\"format_version\":{CHECKPOINT_FORMAT_VERSION}"),
        &format!("\"format_version\":{}", CHECKPOINT_FORMAT_VERSION + 1),
    );
    assert_ne!(json, bumped, "version field must be present in the JSON");
    let err = TrainingCheckpoint::from_json(&bumped).unwrap_err();
    assert!(err.contains("format version"), "{err}");
}

#[test]
fn corrupt_json_is_a_parse_error_not_a_panic() {
    assert!(TrainingCheckpoint::from_json("{\"not\": \"a checkpoint\"}").is_err());
    assert!(TrainingCheckpoint::from_json("}garbage{").is_err());
    assert!(TrainingCheckpoint::load("/nonexistent/ckpt.json").is_err());

    // Networks that parse but cannot run, with input and output dims that
    // still fit the scenario: the hidden layers do not chain (8 → 16 then
    // a 12 → 16 layer), or a weight buffer is one value short of its shape.
    let scenario = Scenario::new(small_config(), EngineSpec::Aggregate);
    let ppo = PpoConfig { hidden: vec![16, 12], ..tiny_ppo() };
    let json = train_scenario(&scenario, ppo, 1, 1, false).unwrap().checkpoint.to_json();
    let hidden = "\"rows\":16,\"cols\":12";
    let unchained = json.replacen(hidden, "\"rows\":12,\"cols\":16", 1);
    let first = "\"rows\":8,\"cols\":16,\"data\":[";
    let at = json.find(first).expect("first policy layer") + first.len();
    let short = format!("{}{}", &json[..at], &json[at + json[at..].find(',').unwrap() + 1..]);
    for (text, needle) in [
        (unchained, "policy network: layer 0 emits 16 values but layer 1 takes 12"),
        (short, "policy network: layer 0: weights hold 127 values"),
    ] {
        assert_ne!(text, json);
        let err = TrainingCheckpoint::from_json(&text).unwrap_err();
        assert!(err.contains(needle), "{err}");
    }
}

#[test]
fn eval_report_structure_for_ph_scenario() {
    let scenario = Scenario::new(
        small_config(),
        EngineSpec::Ph { service: ServiceLaw::Erlang { k: 2, rate: 2.0 } },
    );
    let result = train_tiny(&scenario);
    let report = mflb_rl::evaluate_checkpoint_configured(
        &result.checkpoint,
        &scenario,
        &[],
        3,
        1,
        0,
        None,
        InferenceConfig::default(),
    )
    .unwrap();
    assert_eq!(report.rows.len(), 4, "learned + 3 baselines at the scenario's own size");
    assert!(report.rows.iter().all(|r| r.mean_drops.is_finite() && r.ci95 >= 0.0));
    assert!(report.mean_drops_of("MF (learned)").is_some());
    let json = report.to_json();
    assert!(json.contains("\"rows\""));
}

#[test]
fn event_eval_tunes_softmin_at_the_mean_matched_rate() {
    // BoundedPareto(1.5, 0.2, 20) sizes have mean 0.541, so the limit
    // serves at α / 0.541 ≈ 1.85 and its β* differs from the raw config's.
    let job_size = JobSizeLaw::BoundedPareto { shape: 1.5, lo: 0.2, hi: 20.0 };
    let mut config = small_config();
    config.eval_time = 50.0;
    let scenario = Scenario::new(config, EngineSpec::Event { job_size });
    let result = train_tiny(&scenario);
    let seed = 1;
    let report = mflb_rl::evaluate_checkpoint_configured(
        &result.checkpoint,
        &scenario,
        &[],
        1,
        seed,
        0,
        None,
        InferenceConfig::default(),
    )
    .unwrap();
    let horizon = scenario.config.eval_episode_len().min(60);
    let matched = limit(&scenario).unwrap().config;
    assert!((matched.service_rate - 1.0).abs() > 0.5, "rate {}", matched.service_rate);
    let beta_at = |config: &SystemConfig| optimize_beta(config, horizon, 6, seed).beta;
    assert_eq!(report.softmin_beta, beta_at(&matched));
    assert_ne!(report.softmin_beta, beta_at(&scenario.config));
}
