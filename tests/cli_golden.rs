//! Golden stdout for every `mflb` subcommand at a tiny fixed-seed
//! configuration with `--workers 1`.
//!
//! Each run's stdout is compared byte for byte with
//! `tests/golden/<name>.stdout` after masking the wall-clock fields (`in
//! 1.2s`, `"wall_seconds"`, `"jobs_per_sec"`). `bench` is pinned by its
//! entry names only. Set `MFLB_BLESS=1` to rewrite the files after an
//! intended output change.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `Δt = 50` keeps every evaluation horizon at 10 epochs, so the whole
/// file runs in seconds on a debug build.
const TINY: [&str; 6] = ["--dt", "50", "--buffer", "2", "--m", "5"];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory; commands run inside it so every path they
/// print is relative and stable.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mflb_golden_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `mflb <args>` in `cwd`, asserts success and returns its stdout.
fn run(cwd: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mflb"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("run mflb");
    assert!(out.status.success(), "mflb {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Replaces wall-clock durations (`1.2s`, `0.1s,`) and the wall-clock JSON
/// fields with fixed placeholders.
fn mask(stdout: &str) -> String {
    let lines: Vec<String> = stdout
        .lines()
        .map(|line| {
            let line = mask_json_number(line, "wall_seconds");
            let line = mask_json_number(&line, "jobs_per_sec");
            line.split(' ').map(mask_duration).collect::<Vec<_>>().join(" ")
        })
        .collect();
    lines.join("\n") + "\n"
}

/// `12.3s` (optionally followed by `,`, `:` or `;`) -> `<wall>s`.
fn mask_duration(token: &str) -> String {
    let body = token.trim_end_matches([',', ':', ';']);
    let tail = &token[body.len()..];
    let Some(number) = body.strip_suffix('s') else { return token.to_string() };
    let is_decimal = number.split_once('.').is_some_and(|(a, b)| {
        !a.is_empty()
            && !b.is_empty()
            && a.bytes().all(|c| c.is_ascii_digit())
            && b.bytes().all(|c| c.is_ascii_digit())
    });
    if is_decimal {
        format!("<wall>s{tail}")
    } else {
        token.to_string()
    }
}

/// `"key":<number>` -> `"key":"<wall>"`.
fn mask_json_number(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let Some(at) = line.find(&needle) else { return line.to_string() };
    let start = at + needle.len();
    let end = line[start..].find([',', '}']).map_or(line.len(), |i| start + i);
    format!("{}\"<wall>\"{}", &line[..start], &line[end..])
}

/// Compares `actual` with `tests/golden/<name>.stdout`, or rewrites the
/// file when `MFLB_BLESS` is set.
fn check(name: &str, actual: &str) {
    let path = repo().join("tests/golden").join(format!("{name}.stdout"));
    if std::env::var_os("MFLB_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with MFLB_BLESS=1 to create it)", path.display()));
    assert!(
        expected == actual,
        "stdout of `{name}` drifted from {}\n--- expected\n{expected}\n--- actual\n{actual}",
        path.display()
    );
}

fn golden(name: &str, cwd: &Path, args: &[&str]) {
    check(name, &mask(&run(cwd, args)));
}

fn with_tiny<'a>(cmd: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![cmd];
    args.extend(TINY);
    args.extend(extra);
    args
}

/// train -> eval -> distill on one tiny checkpoint, then both checkpoint
/// tiers deployed.
#[test]
fn golden_training_pipeline() {
    let dir = scratch("pipeline");
    let train = ["--iters", "1", "--seed", "1", "--workers", "1", "--out", "ckpt.json"];
    golden("train", &dir, &with_tiny("train", &train));
    golden(
        "eval",
        &dir,
        &["eval", "--checkpoint", "ckpt.json", "--runs", "2", "--seed", "1", "--workers", "1"],
    );
    golden(
        "distill",
        &dir,
        &[
            "distill",
            "--checkpoint",
            "ckpt.json",
            "--grid",
            "3",
            "--oracle-cache",
            "none",
            "--runs",
            "2",
            "--seed",
            "1",
            "--workers",
            "1",
            "--out",
            "distilled.json",
        ],
    );
    let oracle = ["--oracle", "--oracle-grid", "3", "--oracle-cache", "none", "--out", "o.json"];
    let eval =
        ["eval", "--checkpoint", "ckpt.json", "--runs", "2", "--seed", "1", "--workers", "1"];
    golden("eval-oracle", &dir, &[&eval[..], &oracle].concat());
    // The checkpoint tiers deploy through simulate and serve.
    let deployed = ["--policy", "distilled", "--checkpoint", "distilled.json", "--workers", "1"];
    golden("simulate-distilled", &dir, &with_tiny("simulate", &deployed));
    let serve = ["--checkpoint", "ckpt.json", "--duration", "100", "--report-every", "5"];
    golden("serve-checkpoint", &dir, &[&["serve"][..], &serve].concat());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_model_commands() {
    let dir = scratch("models");
    let runs = ["--runs", "2", "--seed", "1"];
    golden("simulate", &dir, &with_tiny("simulate", &[&runs[..], &["--workers", "1"]].concat()));
    golden("meanfield", &dir, &with_tiny("meanfield", &["--episodes", "2", "--seed", "1"]));
    golden("compare", &dir, &with_tiny("compare", &runs));
    golden("tune-beta", &dir, &with_tiny("tune-beta", &["--seed", "1"]));
    golden(
        "dp-solve",
        &dir,
        &with_tiny("dp-solve", &["--grid", "3", "--seed", "1", "--out", "dp.json"]),
    );
    golden("scv-compare", &dir, &with_tiny("scv-compare", &[&runs[..], &["--scv", "4"]].concat()));
    golden("fit-mmpp", &dir, &["fit-mmpp", "--levels", "2", "--seed", "1"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Synthetic serve, a recorded trace and its replay, and the shipped
/// ten-job fixture.
#[test]
fn golden_serve_and_traces() {
    let dir = scratch("serve");
    let event = ["--engine", "event", "--dt", "1", "--m", "10", "--n", "100"];
    let record = ["--duration", "5", "--seed", "1", "--record-trace", "t.jsonl"];
    golden("simulate-record-trace", &dir, &[&["simulate"][..], &event, &record].concat());
    let replay = ["--trace", "t.jsonl", "--duration", "5", "--seed", "1", "--report-every", "1"];
    golden("serve-replay", &dir, &[&["serve"][..], &event, &replay].concat());
    let synthetic = ["--duration", "4", "--seed", "1", "--report-every", "1"];
    golden("serve", &dir, &[&["serve"][..], &event, &synthetic].concat());
    let fixture = repo().join("examples/traces/ten_jobs.jsonl");
    let fixture = fixture.to_str().unwrap();
    golden(
        "serve-trace-fixture",
        &dir,
        &["serve", "--policy", "softmin", "--beta", "2", "--trace", fixture, "--report-every", "1"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `validate` and `bench-diff` read committed files; they run from the
/// repository root so the paths they print are relative.
#[test]
fn golden_corpus_and_bench_diff() {
    let mut specs: Vec<String> = std::fs::read_dir(repo().join("examples/scenarios"))
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".json").then(|| format!("examples/scenarios/{name}"))
        })
        .collect();
    specs.sort();
    let mut args = vec!["validate"];
    args.extend(specs.iter().map(String::as_str));
    golden("validate", repo(), &args);
    let quick = "BENCH_kernels_quick.json";
    golden("bench-diff", repo(), &["bench-diff", "--baseline", quick, "--fresh", quick]);
}

/// `bench` is wall-clock throughout, so only the entry names are pinned.
#[test]
fn golden_bench_entry_names() {
    let dir = scratch("bench");
    let stdout =
        run(&dir, &["bench", "--suite", "serve", "--quick", "--workers", "1", "--out", "b.json"]);
    let names: String = stdout
        .lines()
        .skip_while(|l| !l.starts_with("benchmark "))
        .skip(1)
        .take_while(|l| !l.starts_with("suite finished"))
        .filter_map(|l| l.split_whitespace().next())
        .map(|n| format!("{n}\n"))
        .collect();
    assert!(!names.is_empty(), "no bench entries in:\n{stdout}");
    check("bench-serve-names", &names);
    std::fs::remove_dir_all(&dir).ok();
}
