//! Every experiment binary reads its flags through its declared table:
//! an unknown flag, a value that does not parse and a flag missing its
//! value exit with status 2 and name the flag, before any experiment work.

use mflb_bench::flags::Kind;
use mflb_bench::harness::BINARIES;
use std::process::Command;

fn exe(name: &str) -> &'static str {
    match name {
        "ablation_dp" => env!("CARGO_BIN_EXE_ablation_dp"),
        "ablation_learners" => env!("CARGO_BIN_EXE_ablation_learners"),
        "ablation_partial_obs" => env!("CARGO_BIN_EXE_ablation_partial_obs"),
        "ablation_rate" => env!("CARGO_BIN_EXE_ablation_rate"),
        "ablation_service_scv" => env!("CARGO_BIN_EXE_ablation_service_scv"),
        "ablation_softmin" => env!("CARGO_BIN_EXE_ablation_softmin"),
        "ablation_staggered" => env!("CARGO_BIN_EXE_ablation_staggered"),
        "fig3_training" => env!("CARGO_BIN_EXE_fig3_training"),
        "fig4_convergence" => env!("CARGO_BIN_EXE_fig4_convergence"),
        "fig5_delay_sweep" => env!("CARGO_BIN_EXE_fig5_delay_sweep"),
        "fig6_ablation" => env!("CARGO_BIN_EXE_fig6_ablation"),
        "fig7_d_sweep" => env!("CARGO_BIN_EXE_fig7_d_sweep"),
        "fig8_sojourn" => env!("CARGO_BIN_EXE_fig8_sojourn"),
        "fig_locality" => env!("CARGO_BIN_EXE_fig_locality"),
        "fig_sparse_scale" => env!("CARGO_BIN_EXE_fig_sparse_scale"),
        "table1_params" => env!("CARGO_BIN_EXE_table1_params"),
        "table2_hyperparams" => env!("CARGO_BIN_EXE_table2_hyperparams"),
        "train_policy" => env!("CARGO_BIN_EXE_train_policy"),
        other => panic!("binary {other} has a flag table but no test entry"),
    }
}

fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(exe(bin)).args(args).output().expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: stderr must name `{needle}`:\n{stderr}");
}

#[test]
fn every_binary_has_a_flag_table() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut files: Vec<String> = std::fs::read_dir(src)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap().replace(".rs", ""))
        .collect();
    files.sort();
    let mut tables: Vec<String> = BINARIES.iter().map(|b| b.name.to_string()).collect();
    tables.sort();
    assert_eq!(files, tables);
}

#[test]
fn every_binary_rejects_bad_flags_with_exit_2() {
    for bin in BINARIES {
        assert_usage_error(bin.name, &["--bogus-flag", "1"], "--bogus-flag");
        for flag in bin.all_flags().filter(|f| f.kind != Kind::Switch) {
            assert_usage_error(bin.name, &[flag.name], flag.name);
            if flag.kind != Kind::Text {
                assert_usage_error(bin.name, &[flag.name, "x"], flag.name);
            }
        }
    }
    // The case that used to panic with exit 101.
    assert_usage_error("fig6_ablation", &["--seed", "x"], "--seed");
}

#[test]
fn train_policy_rejects_bad_inputs_with_exit_2() {
    let dir = std::env::temp_dir().join("mflb_bench_train_policy_inputs");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad_scenario.json");
    std::fs::write(&bad, "{\"engine\": \"Quantum\"}").unwrap();
    assert_usage_error("train_policy", &["--scenario", bad.to_str().unwrap()], "bad_scenario");
    let invalid = dir.join("invalid_scenario.json");
    let aggregate = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/aggregate.json");
    let text = std::fs::read_to_string(aggregate).unwrap();
    std::fs::write(&invalid, text.replace("\"dt\": 5.0", "\"dt\": -5.0")).unwrap();
    assert_usage_error("train_policy", &["--scenario", invalid.to_str().unwrap()], "dt");
    let garbled = dir.join("garbled_ckpt.json");
    std::fs::write(&garbled, "{not a checkpoint").unwrap();
    assert_usage_error("train_policy", &["--init", garbled.to_str().unwrap()], "--init");
    assert_usage_error("train_policy", &["--dt", "-1"], "--dt");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_csv_directory_exits_1_and_names_the_path() {
    // `target` is a regular file here, so `target/experiments` cannot exist.
    let dir = std::env::temp_dir().join(format!("mflb_bench_csv_failure_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("target"), "not a directory").unwrap();
    let out = Command::new(exe("ablation_staggered"))
        .args(["--scale", "quick"])
        .current_dir(&dir)
        .output()
        .expect("run binary");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("target/experiments"), "stderr must name the path:\n{stderr}");
}
