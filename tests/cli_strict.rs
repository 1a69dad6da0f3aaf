//! The strict-input contract of the `mflb` CLI: every subcommand rejects
//! an unknown flag, a value that does not parse and a flag missing its
//! value with exit status 2 and an error naming the flag; inputs that
//! used to panic are typed errors; and every documented `mflb <cmd> …`
//! invocation parses against its command's flag table.

use mflb::bench::flags::{parse, Command, Kind};
use mflb::cli;
use std::process::{Command as Process, Output};

fn mflb(args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_mflb")).args(args).output().expect("run mflb")
}

/// Asserts exit status 2 with `needle` on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = mflb(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "mflb {args:?} must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains(needle), "mflb {args:?}: stderr must name `{needle}`:\n{stderr}");
}

fn sample(kind: Kind) -> &'static str {
    match kind {
        Kind::Choice(words) => words[0],
        Kind::Text => "x",
        _ => "1",
    }
}

#[test]
fn every_subcommand_rejects_bad_flags_with_exit_2() {
    for command in cli::COMMANDS {
        let name = command.name;
        assert_usage_error(&[name, "--bogus-flag", "1"], "--bogus-flag");
        let typed = command.all_flags().find(|f| !matches!(f.kind, Kind::Switch | Kind::Text));
        if let Some(flag) = typed {
            assert_usage_error(&[name, flag.name, "not-a-value"], flag.name);
        }
        if let Some(flag) = command.all_flags().find(|f| f.kind != Kind::Switch) {
            assert_usage_error(&[name, flag.name], flag.name);
        }
    }
}

#[test]
fn silently_defaulted_lines_now_exit_2() {
    assert_usage_error(&["simulate", "--m", "abc"], "--m");
    assert_usage_error(&["meanfield", "--dtt", "3"], "--dtt");
    assert_usage_error(&["serve", "--bogus-flag", "1"], "--bogus-flag");
    assert_usage_error(&["simulate", "--seed", "1", "--seed", "2"], "--seed");
    assert_usage_error(&["simulate", "--workers", "1", "--threads", "2"], "--workers");
    assert_usage_error(&["validate", "--strict", "examples/scenarios/aggregate.json"], "--strict");
}

#[test]
fn inputs_that_used_to_panic_exit_2() {
    assert_usage_error(&["tune-beta", "--dt", "-1"], "dt");
    assert_usage_error(&["compare", "--m", "0"], "num_queues");
    assert_usage_error(&["compare", "--buffer", "0"], "buffer");
    assert_usage_error(&["eval", "--m", "50,0"], "--m entry '0'");
    assert_usage_error(&["dp-solve", "--grid", "0"], "--grid");
    assert_usage_error(&["dp-solve", "--grid", "100000"], "--grid");
    assert_usage_error(&["meanfield", "--dt", "1e20"], "dt");
    assert_usage_error(&["fit-mmpp", "--levels", "0"], "--levels");
    assert_usage_error(&["scv-compare", "--scv", "-1"], "--scv");

    let dir = std::env::temp_dir().join("mflb_cli_strict_traces");
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.txt");
    assert_usage_error(&["fit-mmpp", "--trace", missing.to_str().unwrap()], "missing.txt");
    for (name, body, needle) in [
        ("empty.txt", "", "got 0"),
        ("words.txt", "0.9 abc 0.6", "'abc'"),
        ("neg.txt", "1 -2", "'-2'"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        assert_usage_error(&["fit-mmpp", "--trace", path.to_str().unwrap()], needle);
    }
    // A scenario's eval_time must be positive (the horizon cap is a
    // config unit test: an uncapped run at 1e300 never finishes).
    let spec = std::fs::read_to_string("examples/scenarios/aggregate.json").unwrap();
    let bad = spec.replace("\"eval_time\": 500.0", "\"eval_time\": -1.0");
    assert_ne!(bad, spec, "the spec's eval_time line moved");
    let path = dir.join("negative_eval_time.json");
    std::fs::write(&path, bad).unwrap();
    assert_usage_error(&["simulate", "--scenario", path.to_str().unwrap()], "eval_time");
    // A trace job arriving or taking service beyond the same horizon cap
    // used to keep `serve` draining for ~1e300 intervals.
    for (name, body, needle) in [
        (
            "late.jsonl",
            "{\"t\": 0.0, \"size\": 1.0}\n{\"t\": 1e300, \"size\": 1.0}\n",
            "arrival time",
        ),
        ("huge.jsonl", "{\"t\": 0.0, \"size\": 1e300}\n", "job size"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        for cap in [None, Some("5")] {
            let mut args = vec!["serve", "--policy", "rnd", "--trace", path.to_str().unwrap()];
            args.extend(cap.iter().flat_map(|c| ["--admission-cap", *c]));
            assert_usage_error(&args, needle);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `<program> <subcommand> args…` in `text`: `//!` prefixes are
/// dropped, `\`-continued lines joined, and an invocation ends at a
/// backtick, a parenthesis, a comment or a shell operator.
fn invocations(text: &str, program: &str) -> Vec<Vec<String>> {
    let lines: Vec<&str> = text.lines().map(|l| l.trim_start().trim_start_matches("//!")).collect();
    let mut found = Vec::new();
    for line in lines.join("\n").replace("\\\n", " ").lines() {
        let mut rest = line;
        while let Some(at) = rest.find(program) {
            let before = rest[..at].chars().last();
            rest = &rest[at + program.len()..];
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') || !rest.starts_with(' ') {
                continue;
            }
            let end = rest.find(['`', ')']).unwrap_or(rest.len());
            let mut tokens: Vec<String> = Vec::new();
            for token in rest[..end].split_whitespace() {
                if ["#", "|", "<", ">", ";", "&&"].contains(&token) {
                    break;
                }
                tokens.push(token.trim_matches(|c| c == '"' || c == '[' || c == ']').to_string());
            }
            if tokens.first().is_some_and(|t| t == "--") {
                tokens.remove(0);
            }
            found.push(tokens);
        }
    }
    found
}

/// The `//!` lines of a source file.
fn doc_header(source: &str) -> String {
    source.lines().filter(|l| l.starts_with("//!")).map(|l| format!("{l}\n")).collect()
}

/// Parses one documented invocation: placeholders (`<n>`) and
/// alternatives (`quick|paper`) stand for a valid value.
fn check_invocation(command: &'static Command, args: &[String], source: &str) {
    let mut concrete = Vec::new();
    for (i, token) in args.iter().enumerate() {
        let flag = i.checked_sub(1).and_then(|p| command.all_flags().find(|f| f.name == args[p]));
        let value = match flag {
            Some(f) if token.starts_with('<') => sample(f.kind).to_string(),
            Some(_) => token.split('|').next().unwrap().to_string(),
            None => token.clone(),
        };
        concrete.push(value);
    }
    if let Err(e) = parse(command, &concrete) {
        panic!("{source}: `{} {}` does not parse: {e}", command.name, args.join(" "));
    }
}

#[test]
fn documented_mflb_invocations_parse() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for source in ["README.md", ".github/workflows/ci.yml", "src/main.rs"] {
        let mut text = std::fs::read_to_string(root.join(source)).unwrap();
        if source.ends_with(".rs") {
            text = doc_header(&text);
        }
        for tokens in invocations(&text, "mflb") {
            let Some(command) = tokens.first().and_then(|name| cli::command(name)) else {
                continue;
            };
            check_invocation(command, &tokens[1..], source);
            checked += 1;
        }
    }
    assert!(checked >= 50, "only {checked} documented invocations found");
}

#[test]
fn documented_bench_binary_invocations_parse() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for bin in mflb::bench::harness::BINARIES {
        let path = root.join(format!("crates/bench/src/bin/{}.rs", bin.name));
        let header = doc_header(&std::fs::read_to_string(&path).unwrap());
        for tokens in invocations(&header, &format!("--bin {}", bin.name)) {
            check_invocation(bin, &tokens, &path.display().to_string());
            checked += 1;
        }
    }
    assert!(checked >= 15, "only {checked} documented binary invocations found");
}
