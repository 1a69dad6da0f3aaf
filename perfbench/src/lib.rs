//! End-to-end and per-layer benchmark of the `mflb` train, eval and serve
//! paths. The benchmark times the calls it makes into each crate's public
//! API from outside the program; traced runs also wrap the public traits
//! `Env`, `Engine` and `UpperPolicy` in the timing decorators of
//! [`trace`]. See `README.md` for the workloads and metrics.

pub mod eval;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;

use report::Report;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] =
    ["train_quick", "eval_certify", "serve_synthetic_M1k", "serve_trace_stream_M1k"];

/// Runs one named workload for about `seconds`; `None` for an unknown
/// name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    let mut report = match name {
        "train_quick" => train::run(seed, seconds, trace),
        "eval_certify" => eval::run(seed, seconds, trace),
        "serve_synthetic_M1k" => serve::run(false, seed, seconds, trace),
        "serve_trace_stream_M1k" => serve::run(true, seed, seconds, trace),
        _ => return None,
    };
    report.set("peak_rss_mb", stats::peak_rss_mb());
    if trace {
        let coverage = report.values.get("trace.span_coverage").copied().unwrap_or(0.0);
        report.check(coverage >= 0.95, || {
            format!("named spans cover {coverage:.3} of the traced wall time, under 0.95")
        });
    }
    Some(report)
}
