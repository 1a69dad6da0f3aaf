//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary per workload, then one JSON result
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--workload all` runs every workload in one process and
//! prefixes each metric with its workload's name.

use mflb_perfbench::{report::result_line, run_workload, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad {flag} value '{value}'"))
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| bad(&flag, &value));
                if !(seconds > 0.0 && seconds.is_finite()) {
                    bad(&flag, &value);
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        usage(&format!("unknown workload '{workload}'"))
    };

    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        let mut report = run_workload(name, seed, seconds, trace).expect("workload name checked");
        let catalogue = report.catalogue(trace);
        println!("== {name}: seed {seed}, {seconds} s, trace {}", if trace { "on" } else { "off" });
        for (metric, value, unit) in &catalogue {
            println!("  {metric:<36} {value:>18.6} {unit}");
        }
        for note in &report.notes {
            println!("  {note}");
        }
        println!("  checks: {} attempted, {} failed", report.attempted, report.failed);
        for failure in &report.failures {
            println!("  FAILED: {failure}");
        }
        attempted += report.attempted;
        failed += report.failed;
        for (metric, value, unit) in catalogue {
            let key =
                if names.len() == 1 { metric.to_string() } else { format!("{name}.{metric}") };
            metrics.push((key, value, unit));
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
}
