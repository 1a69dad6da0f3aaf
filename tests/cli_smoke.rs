//! CLI contract smoke tests: usage synopsis, exit codes and the train →
//! eval plumbing surface.
//!
//! `CARGO_BIN_EXE_mflb` points at the freshly built binary, so these tests
//! exercise exactly what an operator runs.

use std::process::Command;

fn mflb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mflb"))
}

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = mflb().output().expect("run mflb");
    assert_eq!(out.status.code(), Some(2), "no subcommand must be a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for cmd in ["train", "eval", "distill", "simulate", "meanfield", "compare", "dp-solve", "bench"]
    {
        assert!(stderr.contains(cmd), "usage synopsis must list `{cmd}`:\n{stderr}");
    }
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = mflb().arg("frobnicate").output().expect("run mflb");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    assert!(stderr.contains("usage: mflb"), "{stderr}");
}

#[test]
fn help_prints_synopsis_on_stdout_and_exits_0() {
    let out = mflb().arg("help").output().expect("run mflb");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: mflb"), "{stdout}");
    assert!(stdout.contains("train"), "{stdout}");
}

#[test]
fn eval_without_checkpoint_fails_cleanly() {
    let out = mflb().arg("eval").output().expect("run mflb");
    assert_eq!(out.status.code(), Some(2), "a missing required flag is bad input, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint"), "{stderr}");
}

#[test]
fn train_rejects_unknown_scale_with_exit_2() {
    let out = mflb().args(["train", "--scale", "warpspeed"]).output().expect("run mflb");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warpspeed"), "{stderr}");
}

#[test]
fn train_rejects_malformed_scenario_file() {
    let dir = std::env::temp_dir().join("mflb_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad_scenario.json");
    std::fs::write(&bad, "{\"engine\": \"Quantum\"}").unwrap();
    let out =
        mflb().args(["train", "--scenario", bad.to_str().unwrap()]).output().expect("run mflb");
    assert_eq!(out.status.code(), Some(2), "a malformed scenario file is bad input");
    std::fs::remove_file(&bad).ok();
}

/// The shipped example specs parse, validate and survive a JSON
/// round-trip — keeping the walkthrough files in lock-step with the code.
#[test]
fn shipped_scenario_specs_are_valid() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario = mflb::sim::Scenario::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        scenario.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        scenario.build().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        seen += 1;
    }
    assert!(seen >= 7, "expected at least one spec per engine kind, found {seen}");
}

/// `mflb validate` — the CI scenario-corpus gate: exit 0 over the shipped
/// corpus, exit 1 as soon as any file is invalid, exit 2 without files.
#[test]
fn validate_subcommand_gates_the_scenario_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|x| x.to_str()) == Some("json"))
                .then(|| p.to_str().unwrap().to_string())
        })
        .collect();
    files.sort();
    let out = mflb().arg("validate").args(&files).output().expect("run mflb validate");
    assert!(
        out.status.success(),
        "shipped corpus must validate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("graph_ring.json"), "{stdout}");
    assert!(stdout.contains("engine=graph"), "{stdout}");

    // One rotten file turns the whole run into exit 1, naming the culprit.
    let tmp = std::env::temp_dir().join("mflb_validate_smoke");
    std::fs::create_dir_all(&tmp).unwrap();
    let bad = tmp.join("rotten.json");
    std::fs::write(&bad, "{\"engine\": \"Aggregate\"}").unwrap(); // missing config
    let mut with_bad = files.clone();
    with_bad.push(bad.to_str().unwrap().to_string());
    let out = mflb().arg("validate").args(&with_bad).output().expect("run mflb validate");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rotten.json"), "{stderr}");
    std::fs::remove_file(&bad).ok();

    // No files at all is a usage error.
    let out = mflb().arg("validate").output().expect("run mflb validate");
    assert_eq!(out.status.code(), Some(2));
}

/// Configs that used to pass `mflb validate` and then panic or write NaN
/// in `train`/`serve` are reported as `FAIL` with exit 1.
#[test]
fn validate_subcommand_fails_configs_that_would_panic_later() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let base = std::fs::read_to_string(dir.join("aggregate.json")).unwrap();
    let tmp = std::env::temp_dir().join("mflb_validate_config_smoke");
    std::fs::create_dir_all(&tmp).unwrap();
    let cases = [
        ("train_episode_len", "\"train_episode_len\": 500", "\"train_episode_len\": 0"),
        ("service_rate", "\"service_rate\": 1.0", "\"service_rate\": -1"),
        ("2^24", "\"d\": 2", "\"d\": 40"),
        ("num_queues", "\"num_queues\": 100", "\"num_queues\": 0"),
        ("dt must be positive", "\"dt\": 5.0", "\"dt\": 0.0"),
    ];
    for (i, (name, from, to)) in cases.into_iter().enumerate() {
        assert!(base.contains(from), "aggregate.json no longer contains {from}");
        let path = tmp.join(format!("bad_{i}.json"));
        std::fs::write(&path, base.replace(from, to)).unwrap();
        let out = mflb().arg("validate").arg(&path).output().expect("run mflb validate");
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("FAIL") && stderr.contains(name), "{name}: {stderr}");
        std::fs::remove_file(&path).ok();
    }
}

/// `mflb bench-diff` — the CI perf gate: self-comparison of the committed
/// quick-scale baseline (the gate's actual reference) passes, a doctored
/// regression fails with exit 1.
#[test]
fn bench_diff_subcommand_gates_on_speedup_ratios() {
    let baseline =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_kernels_quick.json");
    let baseline = baseline.to_str().unwrap();
    let out = mflb()
        .args(["bench-diff", "--baseline", baseline, "--fresh", baseline])
        .output()
        .expect("run mflb bench-diff");
    assert!(
        out.status.success(),
        "self-comparison must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| kernel |"), "markdown table expected: {stdout}");

    // Halve every speedup in a doctored fresh report: every tracked kernel
    // regresses by 2x > 1.3x.
    let text = std::fs::read_to_string(baseline).unwrap();
    let doctored = regex_free_halve_speedups(&text);
    let tmp = std::env::temp_dir().join("mflb_bench_diff_smoke");
    std::fs::create_dir_all(&tmp).unwrap();
    let fresh = tmp.join("fresh.json");
    std::fs::write(&fresh, doctored).unwrap();
    let out = mflb()
        .args(["bench-diff", "--baseline", baseline, "--fresh", fresh.to_str().unwrap()])
        .output()
        .expect("run mflb bench-diff");
    assert_eq!(out.status.code(), Some(1), "halved speedups must fail the 1.3x gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("same-machine margin"), "{stderr}");
    std::fs::remove_file(&fresh).ok();
}

/// Rewrites a perf report JSON so every non-null `"speedup"` is halved
/// (structured edit via the JSON value tree, no string surgery).
fn regex_free_halve_speedups(text: &str) -> String {
    use serde_json::Value;
    let mut v = Value::parse(text).unwrap();
    let Value::Obj(fields) = &mut v else { panic!("report must be an object") };
    let entries = fields
        .iter_mut()
        .find_map(|(k, v)| (k == "entries").then_some(v))
        .expect("report must carry entries");
    let Value::Arr(entries) = entries else { panic!("entries must be an array") };
    for e in entries {
        let Value::Obj(ef) = e else { continue };
        for (k, val) in ef.iter_mut() {
            if k == "speedup" {
                match val {
                    Value::Float(s) => *s /= 2.0,
                    Value::Int(i) => *val = Value::Float(*i as f64 / 2.0),
                    _ => {}
                }
            }
        }
    }
    v.to_json()
}

/// End-to-end `mflb train` → `mflb eval` at a deliberately tiny scale:
/// the full loop must complete and produce the JSON artifacts. (The
/// quick-scale quality bar — learned beats RND — is covered by the
/// quarantined test in `tests/train_eval_loop.rs`.)
#[test]
fn train_then_eval_loop_completes_at_tiny_scale() {
    let dir = std::env::temp_dir().join("mflb_cli_loop");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("tiny.json");
    let report = dir.join("tiny_eval.json");

    let out = mflb()
        .args([
            "train",
            "--engine",
            "aggregate",
            "--m",
            "20",
            "--iters",
            "1",
            "--seed",
            "1",
            "--out",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(ckpt.exists(), "checkpoint must be written");
    assert!(dir.join("tiny.curve.json").exists(), "curve JSON must be written");

    let out = mflb()
        .args([
            "eval",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--runs",
            "2",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb eval");
    assert!(out.status.success(), "eval failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MF (learned)"), "{stdout}");
    assert!(stdout.contains("RND"), "{stdout}");
    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.contains("\"rows\""), "JSON table must be written");
    std::fs::remove_dir_all(&dir).ok();
}

/// Trains a throwaway tiny checkpoint (M = 20, one iteration) under `dir`
/// and returns its path.
fn train_tiny_checkpoint(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let ckpt = dir.join("tiny.json");
    let out = mflb()
        .args([
            "train",
            "--engine",
            "aggregate",
            "--m",
            "20",
            "--iters",
            "1",
            "--seed",
            "1",
            "--out",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    ckpt
}

/// `mflb eval --oracle` — the optimality-certificate surface: the table
/// gains a gap column and an `MF-DP (oracle)` row whose own gap is
/// exactly 0, and the JSON report carries the oracle provenance block.
#[test]
fn eval_with_oracle_reports_gap_column_and_pins_oracle_gap_to_zero() {
    let dir = std::env::temp_dir().join("mflb_cli_oracle_eval");
    let ckpt = train_tiny_checkpoint(&dir);
    let report = dir.join("oracle_eval.json");
    let out = mflb()
        .args([
            "eval",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--oracle",
            "--oracle-grid",
            "3",
            "--oracle-cache",
            "none",
            "--runs",
            "2",
            "--seed",
            "1",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb eval --oracle");
    assert!(out.status.success(), "oracle eval failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gap %"), "gap column expected:\n{stdout}");
    assert!(stdout.contains("MF-DP (oracle)"), "oracle row expected:\n{stdout}");
    assert!(stdout.contains("exact certificate"), "provenance line expected:\n{stdout}");

    let parsed: mflb::rl::EvalReport =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap())
            .expect("report JSON must deserialize");
    let oracle = parsed.oracle.as_ref().expect("report must carry the oracle summary");
    assert!(oracle.exact, "the aggregate engine is an exact-oracle scenario");
    assert_eq!(oracle.grid_resolution, 3);
    assert_eq!(
        parsed.gap_pct_of("MF-DP (oracle)"),
        Some(0.0),
        "the oracle's own gap must be exactly zero"
    );
    for row in &parsed.rows {
        assert!(row.gap_pct.is_some(), "every row gains a gap: {}", row.policy);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Infeasible or unsupported oracle requests are usage errors (exit 2)
/// with a message that names the fix, caught before any solving starts.
#[test]
fn eval_oracle_rejects_oversized_grids_and_hetero_scenarios_with_exit_2() {
    let dir = std::env::temp_dir().join("mflb_cli_oracle_reject");
    let ckpt = train_tiny_checkpoint(&dir);
    let out = mflb()
        .args([
            "eval",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--oracle",
            "--oracle-grid",
            "100000",
        ])
        .output()
        .expect("run mflb eval --oracle");
    assert_eq!(out.status.code(), Some(2), "oversized lattice must be a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--oracle-grid"), "must tell the user the fix: {stderr}");

    let hetero = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/hetero_two_speed.json");
    let out = mflb()
        .args([
            "eval",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--scenario",
            hetero.to_str().unwrap(),
            "--oracle",
        ])
        .output()
        .expect("run mflb eval --oracle");
    assert_eq!(out.status.code(), Some(2), "hetero pools have no DP oracle");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("heterogeneous"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--max-gap` — the regression gate: a generous cap passes (exit 0), an
/// impossible one fails with exit 1 and a readable breach message.
#[test]
fn eval_max_gap_gate_passes_and_breaches_by_exit_code() {
    let dir = std::env::temp_dir().join("mflb_cli_oracle_gate");
    let ckpt = train_tiny_checkpoint(&dir);
    let args = |cap: &str, out: &str| {
        vec![
            "eval".to_string(),
            "--checkpoint".into(),
            ckpt.to_str().unwrap().into(),
            "--oracle-grid".into(),
            "3".into(),
            "--oracle-cache".into(),
            "none".into(),
            "--runs".into(),
            "2".into(),
            "--seed".into(),
            "1".into(),
            "--max-gap".into(),
            cap.into(),
            "--out".into(),
            dir.join(out).to_str().unwrap().into(),
        ]
    };
    // --max-gap implies --oracle; a huge cap always passes.
    let out = mflb().args(args("100000", "pass.json")).output().expect("run mflb eval");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[gate]"));
    // Gaps are bounded below by −100%, so a cap of −200 must breach.
    let out = mflb().args(args("-200", "breach.json")).output().expect("run mflb eval");
    assert_eq!(out.status.code(), Some(1), "breach must be exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-gap"), "breach message must name the gate: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `mflb serve` — the trace-replay surface: the shipped ten-job fixture
/// runs end-to-end through a trained checkpoint, the periodic tick lines
/// and the final report line all parse as their serde types, and the
/// counters balance.
#[test]
fn serve_replays_the_ten_job_trace_fixture_with_a_checkpoint() {
    let dir = std::env::temp_dir().join("mflb_cli_serve_trace");
    let ckpt = train_tiny_checkpoint(&dir);
    let trace =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/traces/ten_jobs.jsonl");
    let report_path = dir.join("serve_report.json");
    let out = mflb()
        .args([
            "serve",
            "--policy",
            "checkpoint",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--report-every",
            "1",
            "--seed",
            "1",
            "--out",
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 2, "expected tick lines plus a final report line:\n{stdout}");
    for tick_line in &lines[..lines.len() - 1] {
        let tick: mflb::sim::ServeTick =
            serde_json::from_str(tick_line).unwrap_or_else(|e| panic!("tick `{tick_line}`: {e}"));
        assert!(tick.jobs_arrived >= tick.jobs_dropped, "counters must be consistent");
    }
    let report = mflb::sim::ServeReport::from_json(lines.last().unwrap())
        .expect("last stdout line must be the final report JSON");
    assert_eq!(report.source, "trace");
    assert_eq!(report.jobs_arrived, 10, "the fixture carries exactly ten jobs");
    assert_eq!(report.jobs_in_system, 0, "trace runs drain to completion");
    assert_eq!(report.jobs_completed + report.jobs_dropped, 10);
    // The --out artifact carries the same report.
    let on_disk =
        mflb::sim::ServeReport::from_json(&std::fs::read_to_string(&report_path).unwrap())
            .expect("--out report must parse");
    assert_eq!(on_disk.jobs_arrived, report.jobs_arrived);
    assert_eq!(on_disk.mean_sojourn.to_bits(), report.mean_sojourn.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// `mflb serve` on a synthetic stream: `--duration` bounds the run for a
/// learned checkpoint, and `--max-jobs` caps admissions then drains.
#[test]
fn serve_synthetic_stream_honors_duration_and_max_jobs() {
    let dir = std::env::temp_dir().join("mflb_cli_serve_synth");
    let ckpt = train_tiny_checkpoint(&dir);
    let out = mflb()
        .args([
            "serve",
            "--policy",
            "checkpoint",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--duration",
            "20",
            "--seed",
            "2",
        ])
        .output()
        .expect("run mflb serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = mflb::sim::ServeReport::from_json(stdout.lines().last().unwrap())
        .expect("final report JSON");
    assert_eq!(report.source, "synthetic");
    assert!(report.sim_time >= 20.0 - 1e-9, "duration must be covered: {}", report.sim_time);
    assert!(report.jobs_arrived > 0, "a synthetic stream must dispatch jobs");

    let out = mflb()
        .args(["serve", "--m", "10", "--max-jobs", "25", "--duration", "1000000", "--seed", "3"])
        .output()
        .expect("run mflb serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = mflb::sim::ServeReport::from_json(stdout.lines().last().unwrap())
        .expect("final report JSON");
    assert_eq!(report.jobs_arrived, 25, "--max-jobs caps admissions");
    assert_eq!(report.jobs_in_system, 0, "capped runs drain before exiting");
    std::fs::remove_dir_all(&dir).ok();
}

/// `mflb serve` pre-flight: every malformed request is a usage error
/// (exit 2) raised before the trace is read.
#[test]
fn serve_usage_errors_exit_2_before_touching_the_trace() {
    let dir = std::env::temp_dir().join("mflb_cli_serve_usage");
    std::fs::create_dir_all(&dir).unwrap();

    // Unknown policy tier, listing the valid ones.
    let out = mflb().args(["serve", "--policy", "warpdrive"]).output().expect("run mflb serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("jsq|rnd|softmin|checkpoint|distilled"), "{stderr}");

    // A checkpoint tier without --checkpoint, and with an unloadable path.
    let out = mflb().args(["serve", "--policy", "distilled"]).output().expect("run mflb serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint"));

    // The missing checkpoint is reported even when the trace is also
    // malformed — checkpoints are validated first, the trace last.
    let bad_trace = dir.join("bad.jsonl");
    std::fs::write(&bad_trace, "{\"t\": 0.0, \"size\": 1.0}\nnot json at all\n").unwrap();
    let out = mflb()
        .args([
            "serve",
            "--policy",
            "checkpoint",
            "--checkpoint",
            dir.join("missing.json").to_str().unwrap(),
            "--trace",
            bad_trace.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing.json"), "checkpoint complaint must come first: {stderr}");
    assert!(!stderr.contains("line 2"), "the trace must not have been parsed yet: {stderr}");

    // A malformed trace line is named with its 1-based number.
    let out = mflb()
        .args(["serve", "--trace", bad_trace.to_str().unwrap()])
        .output()
        .expect("run mflb serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "malformed line must be named: {stderr}");

    // Bad numeric flags die before any work.
    for args in [["serve", "--duration", "-3"], ["serve", "--max-jobs", "many"]] {
        let out = mflb().args(args).output().expect("run mflb serve");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `mflb distill` → `--policy distilled` — the distillation surface: the
/// artifact is written, reloads, and deploys through `mflb simulate`.
#[test]
fn distill_then_deploy_loop_completes_at_tiny_scale() {
    let dir = std::env::temp_dir().join("mflb_cli_distill");
    let ckpt = train_tiny_checkpoint(&dir);
    let table = dir.join("distilled.json");
    let out = mflb()
        .args([
            "distill",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--grid",
            "3",
            "--oracle-cache",
            "none",
            "--runs",
            "0",
            "--out",
            table.to_str().unwrap(),
        ])
        .output()
        .expect("run mflb distill");
    assert!(out.status.success(), "distill failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("network-matched"), "{stdout}");
    let loaded = mflb::rl::DistilledCheckpoint::load(&table).expect("artifact must reload");
    assert_eq!(loaded.grid_resolution, 3);

    let out = mflb()
        .args([
            "simulate",
            "--engine",
            "aggregate",
            "--m",
            "20",
            "--policy",
            "distilled",
            "--checkpoint",
            table.to_str().unwrap(),
            "--runs",
            "2",
        ])
        .output()
        .expect("run mflb simulate");
    assert!(out.status.success(), "deploy failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("MF-DP (distilled)"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed fault plans and inconsistent degradation flags are usage
/// errors (exit 2) raised before any simulation work.
#[test]
fn fault_plan_usage_errors_exit_2() {
    let dir = std::env::temp_dir().join("mflb_cli_faults_usage");
    std::fs::create_dir_all(&dir).unwrap();
    let crashy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/event_crashy.json");

    // Unparseable plan JSON.
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{\"crashes\": {").unwrap();
    let out = mflb()
        .args(["simulate", "--engine", "event", "--faults", garbled.to_str().unwrap()])
        .output()
        .expect("run mflb simulate");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fault plan"));

    // A parseable plan with a nonsense parameter (mttf <= 0).
    let negative = dir.join("negative.json");
    std::fs::write(&negative, "{\"crashes\": {\"mttf\": -3.0, \"mttr\": 1.0}}").unwrap();
    let out = mflb()
        .args(["simulate", "--engine", "event", "--faults", negative.to_str().unwrap()])
        .output()
        .expect("run mflb simulate");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mttf"));

    // A straggler window naming a queue the system does not have.
    let oob = dir.join("oob.json");
    std::fs::write(
        &oob,
        "{\"stragglers\": [{\"start\": 0.0, \"end\": 5.0, \"factor\": 0.5, \"queues\": [999]}]}",
    )
    .unwrap();
    for cmd in ["simulate", "serve"] {
        let out = mflb()
            .args([cmd, "--engine", "event", "--m", "20", "--faults", oob.to_str().unwrap()])
            .output()
            .expect("run mflb");
        assert_eq!(out.status.code(), Some(2), "{cmd} must reject the out-of-range queue");
        assert!(String::from_utf8_lossy(&out.stderr).contains("999"));
    }

    // Engines that do not honor fault plans reject them up front.
    let valid = dir.join("valid.json");
    std::fs::write(&valid, "{\"crashes\": {\"mttf\": 20.0, \"mttr\": 5.0}}").unwrap();
    let out = mflb()
        .args(["simulate", "--engine", "aggregate", "--faults", valid.to_str().unwrap()])
        .output()
        .expect("run mflb simulate");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not honor"));
    // Graph and JobLevel honor crashes but route on live lengths, so they
    // reject observation faults instead of ignoring them.
    let observed = dir.join("observed.json");
    std::fs::write(&observed, "{\"observation\": {\"drop_prob\": 0.3}}").unwrap();
    for engine in ["graph", "joblevel"] {
        let out = mflb()
            .args(["simulate", "--engine", engine, "--faults", observed.to_str().unwrap()])
            .output()
            .expect("run mflb simulate");
        assert_eq!(out.status.code(), Some(2), "{engine}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("does not honor"), "{engine}");
    }

    // Degradation flags come in consistent pairs, with positive values.
    let scenario = crashy.to_str().unwrap();
    for args in [
        vec!["serve", "--scenario", scenario, "--staleness-threshold", "2"],
        vec!["serve", "--scenario", scenario, "--fallback", "jsq"],
        vec!["serve", "--scenario", scenario, "--admission-cap", "0"],
        vec![
            "serve",
            "--scenario",
            scenario,
            "--fallback",
            "teleport",
            "--staleness-threshold",
            "2",
        ],
    ] {
        let out = mflb().args(&args).output().expect("run mflb serve");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The robustness acceptance gate: on the shipped crash scenario, the
/// protected serve loop (bounded admission + staleness fallback) must
/// lose a strictly smaller fraction of jobs than the unprotected one,
/// while actually exercising shedding and the watchdog.
#[test]
fn serve_graceful_degradation_beats_the_unprotected_loop() {
    let crashy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/event_crashy.json");
    let base = [
        "serve",
        "--scenario",
        crashy.to_str().unwrap(),
        "--duration",
        "100",
        "--seed",
        "7",
        "--report-every",
        "1000",
    ];
    let run = |extra: &[&str]| {
        let out = mflb().args(base).args(extra).output().expect("run mflb serve");
        assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        mflb::sim::ServeReport::from_json(stdout.lines().last().unwrap())
            .expect("final report JSON")
    };

    let unprotected = run(&[]);
    let protected =
        run(&["--admission-cap", "85", "--staleness-threshold", "2", "--fallback", "jsq"]);

    assert!(unprotected.drop_fraction > 0.0, "the crash plan must actually cost jobs");
    assert_eq!(unprotected.jobs_shed, 0, "no admission cap, no shedding");
    assert!(protected.jobs_shed > 0, "the cap must engage under crash backlog");
    assert!(protected.fallback_activations > 0, "stale snapshots must trip the watchdog");
    assert!(protected.observation_dropped > 0, "the observation fault must fire");
    assert!(
        protected.drop_fraction < unprotected.drop_fraction,
        "graceful degradation must beat the unprotected loop: protected {} vs unprotected {}",
        protected.drop_fraction,
        unprotected.drop_fraction
    );
    assert!(
        protected.loss_fraction < unprotected.loss_fraction,
        "even counting shed jobs as losses: protected {} vs unprotected {}",
        protected.loss_fraction,
        unprotected.loss_fraction
    );
}

/// `simulate --record-trace` → `serve --trace` round trip: the recorded
/// synthetic stream replays with identical job counts, and replaying the
/// same file twice is bit-identical on every reported statistic.
#[test]
fn recorded_traces_replay_bit_identically_through_the_cli() {
    let dir = std::env::temp_dir().join("mflb_cli_record_replay");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("recorded.jsonl");
    let sys = ["--engine", "event", "--m", "20", "--n", "400", "--dt", "2"];

    let out = mflb()
        .args(["simulate"])
        .args(sys)
        .args(["--duration", "20", "--seed", "5", "--record-trace", trace.to_str().unwrap()])
        .output()
        .expect("run mflb simulate");
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));
    let recorded = std::fs::read_to_string(&trace).unwrap().lines().count() as u64;
    assert!(recorded > 0, "a busy synthetic run must record jobs");

    let replay = || {
        let out = mflb()
            .args(["serve"])
            .args(sys)
            .args([
                "--trace",
                trace.to_str().unwrap(),
                "--seed",
                "5",
                "--duration",
                "20",
                "--report-every",
                "1000",
            ])
            .output()
            .expect("run mflb serve");
        assert!(out.status.success(), "replay failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        mflb::sim::ServeReport::from_json(stdout.lines().last().unwrap())
            .expect("final report JSON")
    };
    let a = replay();
    let b = replay();
    assert_eq!(a.jobs_arrived, recorded, "every recorded job must be replayed");
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.mean_sojourn.to_bits(), b.mean_sojourn.to_bits());
    assert_eq!(a.drop_fraction.to_bits(), b.drop_fraction.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve --trace -`: a recorded trace streamed over stdin serves exactly
/// like the same file replayed with `--trace <file>`, and a streamed line
/// that is not UTF-8 is an input error (exit 2) naming that line.
#[test]
fn stdin_stream_serves_like_the_file_replay() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("mflb_cli_stdin_stream");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("recorded.jsonl");
    let sys = ["--engine", "event", "--m", "20", "--n", "400", "--dt", "2"];
    let run = ["--seed", "5", "--duration", "20", "--report-every", "1000"];

    let out = mflb()
        .args(["simulate"])
        .args(sys)
        .args(["--duration", "20", "--seed", "5", "--record-trace", trace.to_str().unwrap()])
        .output()
        .expect("run mflb simulate");
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&trace).unwrap();

    let serve_stdin = |input: &[u8]| {
        let mut child = mflb()
            .args(["serve"])
            .args(sys)
            .args(["--trace", "-"])
            .args(run)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mflb serve");
        // A serve that fails early may close stdin before all of it is
        // written; its exit status tells.
        let _ = child.stdin.take().unwrap().write_all(input);
        child.wait_with_output().expect("wait for mflb serve")
    };
    let last_report = |out: &std::process::Output| {
        assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        mflb::sim::ServeReport::from_json(stdout.lines().last().unwrap()).expect("report JSON")
    };

    let streamed = last_report(&serve_stdin(&bytes));
    let replayed = last_report(
        &mflb()
            .args(["serve"])
            .args(sys)
            .args(["--trace", trace.to_str().unwrap()])
            .args(run)
            .output()
            .expect("run mflb serve"),
    );
    assert_eq!(streamed.source, "stream");
    assert_eq!(replayed.source, "trace");
    assert!(streamed.jobs_arrived > 0);
    let counts = |r: &mflb::sim::ServeReport| {
        [r.jobs_arrived, r.jobs_completed, r.jobs_dropped, r.jobs_shed, r.jobs_in_system]
    };
    let times = |r: &mflb::sim::ServeReport| {
        [r.drop_fraction, r.mean_sojourn, r.max_sojourn, r.sim_time].map(f64::to_bits)
    };
    assert_eq!(counts(&streamed), counts(&replayed));
    assert_eq!(times(&streamed), times(&replayed));

    let mut bad = b"{\"t\": 0.0, \"size\": 1.0}\n{\"t\": 0.5, \"size\": \xff}\n".to_vec();
    bad.extend_from_slice(&bytes);
    let out = serve_stdin(&bad);
    assert_eq!(out.status.code(), Some(2), "a non-UTF-8 line is an input error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2") && stderr.contains("invalid UTF-8"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
