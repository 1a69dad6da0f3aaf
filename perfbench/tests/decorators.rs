//! The timing decorators and recomposed traced paths must leave every
//! result bit-identical to the untraced program, and the catalogue in
//! `BENCHMARK.json` must match the one the benchmark prints.

use mflb_core::mdp::{FixedRulePolicy, ObservationBatch, UpperPolicy};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use mflb_perfbench::eval::{rows_identical, traced_eval};
use mflb_perfbench::report::{result_line, Report, END_TO_END, PER_LAYER};
use mflb_perfbench::serve::{
    fnv1a64, load_policy, record, same_outcome, serve_pass, stream_source, FIXTURE, FIXTURE_FNV1A64,
};
use mflb_perfbench::stats::{median, quantile};
use mflb_perfbench::trace::{Counter, TimedEngine, TimedEnv, TimedPolicy};
use mflb_perfbench::train::{quick_ppo, traced_train};
use mflb_rl::{
    evaluate_checkpoint_configured, train_scenario, Env, OracleConfig, PpoConfig, ToyControlEnv,
};
use mflb_sim::{monte_carlo, AggregateEngine, EngineSpec, EventEngine, Scenario, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::sync::Arc;

fn small_scenario() -> Scenario {
    let mut config = SystemConfig::paper().with_m_squared(10);
    config.train_episode_len = 40;
    Scenario::new(config, EngineSpec::Aggregate)
}

#[test]
fn timed_env_forwards_every_method_and_shares_its_counter_with_clones() {
    let counter = Arc::new(Counter::default());
    let mut plain = ToyControlEnv::new(10);
    let mut timed = TimedEnv::new(Box::new(ToyControlEnv::new(10)), Arc::clone(&counter));
    assert_eq!(timed.horizon_hint(), plain.horizon_hint());
    assert_eq!((timed.obs_dim(), timed.act_dim()), (plain.obs_dim(), plain.act_dim()));

    let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
    assert_eq!(timed.reset(&mut a), plain.reset(&mut b));
    let (x, y) = (timed.step(&[0.3], &mut a), plain.step(&[0.3], &mut b));
    assert_eq!((x.obs, x.reward.to_bits(), x.done), (y.obs, y.reward.to_bits(), y.done));

    let mut clone = timed.boxed_clone();
    assert_eq!(clone.horizon_hint(), Some(10));
    clone.reset(&mut a);
    clone.step(&[0.1], &mut a);
    assert_eq!(counter.calls(), 2, "clones time into the shared counter");
}

#[test]
fn traced_train_reproduces_train_scenario_checkpoint_bytes() {
    let scenario = small_scenario();
    let ppo = PpoConfig {
        train_batch_size: 200,
        minibatch_size: 50,
        num_epochs: 2,
        hidden: vec![8, 8],
        ..quick_ppo(2)
    };
    let untraced = train_scenario(&scenario, ppo.clone(), 3, 9, false).unwrap().checkpoint;
    let traced = traced_train(&scenario, &ppo, 3, 9).unwrap();
    assert_eq!(traced.checkpoint.to_json(), untraced.to_json());
    assert_eq!(traced.env_step.calls(), 3 * 200);
    assert_eq!(traced.update_samples, 3 * 200 * 2);
    assert!(traced.collect_ns + traced.update_ns <= traced.wall_ns);
}

/// Decides one rule sequentially and a different one in batches, so a
/// decorator that fell back to the trait's default `decide_batch` shows.
struct SplitPolicy;

impl UpperPolicy for SplitPolicy {
    fn decide(&self, _: &StateDist, _: usize, _: f64) -> DecisionRule {
        DecisionRule::uniform(6, 2)
    }

    fn decide_batch(&self, batch: &ObservationBatch, out: &mut [DecisionRule]) {
        for slot in out.iter_mut().take(batch.len()) {
            *slot = mflb_policy::jsq_rule(6, 2);
        }
    }

    fn name(&self) -> &str {
        "split"
    }
}

#[test]
fn timed_policy_forwards_decide_batch_and_counts_rows() {
    let counter = Counter::default();
    let timed = TimedPolicy::new(&SplitPolicy, &counter);
    let mut batch = ObservationBatch::new(6, 2);
    for l in 0..3 {
        batch.push(StateDist::all_empty(5), l % 2, 0.9);
    }
    let mut out = vec![DecisionRule::uniform(1, 1); 3];
    timed.decide_batch(&batch, &mut out);
    assert!(out.iter().all(|r| *r == mflb_policy::jsq_rule(6, 2)));
    assert_eq!(timed.decide(batch.dist(0), 0, 0.9), DecisionRule::uniform(6, 2));
    assert_eq!(timed.name(), "split");
    assert_eq!((counter.calls(), counter.rows()), (2, 4));
}

#[test]
fn timed_engine_leaves_monte_carlo_bit_identical() {
    let engine = AggregateEngine::new(SystemConfig::paper().with_m_squared(12));
    let policy = FixedRulePolicy::new(mflb_policy::jsq_rule(6, 2), "JSQ");
    let (step, observe, decide) = (Counter::default(), Counter::default(), Counter::default());
    let timed_engine = TimedEngine::new(&engine, &step, &observe);
    let timed_policy = TimedPolicy::new(&policy, &decide);
    let plain = monte_carlo(&engine, &policy, 30, 20, 4, 2);
    let traced = monte_carlo(&timed_engine, &timed_policy, 30, 20, 4, 2);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain.per_run), bits(&traced.per_run));
    assert_eq!(step.calls(), 20 * 30);
    assert_eq!(observe.calls(), 20 * 30);
    // Lockstep chunks of 16 and 4 episodes: one call per chunk and epoch.
    assert_eq!((decide.calls(), decide.rows()), (2 * 30, 20 * 30));
}

#[test]
fn traced_eval_reproduces_evaluate_checkpoint_rows() {
    let scenario = small_scenario();
    let ppo = PpoConfig { hidden: vec![16, 16], ..PpoConfig::paper() };
    let ckpt = train_scenario(&scenario, ppo, 0, 2, false).unwrap().checkpoint;
    let oracle = OracleConfig { grid_resolution: 4, threads: 2, ..OracleConfig::default() };
    let sweep = [10, 16];
    let report = evaluate_checkpoint_configured(
        &ckpt,
        &scenario,
        &sweep,
        6,
        3,
        2,
        Some(&oracle),
        Default::default(),
    )
    .unwrap();
    let traced = traced_eval(&ckpt, &scenario, &sweep, 6, 3, 2, &oracle).unwrap();
    assert_eq!(traced.rows.len(), 10);
    assert!(rows_identical(&report.rows, &traced.rows), "{:?}\n{:?}", report.rows, traced.rows);
    assert_eq!(traced.sizes.iter().map(|s| s.m).collect::<Vec<_>>(), sweep);
    assert!(traced.sizes.iter().all(|s| s.step.calls() == 5 * 6 * 100));
}

#[test]
fn streamed_and_preparsed_replays_match_the_recorded_run() {
    let job_size = mflb_core::JobSizeLaw::Pareto { shape: 2.5, scale: 0.6 };
    let engine = EventEngine::new(SystemConfig::paper().with_dt(0.5).with_size(400, 20), job_size);
    let policy = load_policy(engine.job_size()).unwrap();
    let opts =
        ServeOptions { duration: Some(40.0), report_every: 1, seed: 7, ..Default::default() };
    let rec = record(&engine, &policy, &opts).unwrap();
    assert!(rec.report.jobs_arrived > 100);
    let streamed = serve_pass(&engine, &policy, &stream_source(&rec.jsonl), &opts).unwrap();
    let preparsed = serve_pass(&engine, &policy, &rec.preparsed, &opts).unwrap();
    assert!(same_outcome(&rec.report, &streamed.report));
    assert!(same_outcome(&rec.report, &preparsed.report));
    assert_eq!(streamed.gaps_ns.len(), 80, "one tick per interval");

    let decide = Counter::default();
    let timed = TimedPolicy::new(&policy, &decide);
    let traced = serve_pass(&engine, &timed, &stream_source(&rec.jsonl), &opts).unwrap();
    assert!(same_outcome(&rec.report, &traced.report));
    assert_eq!(decide.calls(), 80);
}

#[test]
fn serve_fixture_matches_its_recorded_digest() {
    assert_eq!(fnv1a64(FIXTURE.as_bytes()), FIXTURE_FNV1A64);
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
}

#[test]
fn medians_and_nearest_rank_quantiles() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let mut v: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(
        (quantile(&mut v, 0.5), quantile(&mut v, 0.99), quantile(&mut v, 1.0)),
        (50, 99, 100)
    );
}

fn obj(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(fields) => fields,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    obj(v).iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or_else(|| panic!("no {key}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

#[test]
fn result_line_has_the_four_keys_and_every_catalogue_metric() {
    let mut report = Report::default();
    report.check(true, String::new);
    for trace in [false, true] {
        for &(name, _) in if trace { PER_LAYER } else { END_TO_END } {
            report.set(name, 1.25);
        }
        let metrics: Vec<_> =
            report.catalogue(trace).into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect();
        let line = Value::parse(&result_line(report.attempted, report.failed, &metrics)).unwrap();
        let keys: Vec<&str> = obj(&line).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(field(&line, "correct"), Value::Bool(true)));
        assert_eq!(obj(field(&line, "metrics")).len(), metrics.len());
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Value::Arr(listed) = field(&bench, key) else { panic!("{key} is not a list") };
        let listed: Vec<(&str, &str)> =
            listed.iter().map(|m| (text(field(m, "name")), text(field(m, "unit")))).collect();
        assert_eq!(listed, catalogue, "{key}");
    }
    let Value::Arr(workloads) = field(&bench, "workloads") else { panic!("workloads") };
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(names, mflb_perfbench::WORKLOADS);
}
