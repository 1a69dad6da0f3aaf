//! Metric catalogue, output checks and the result line.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed on untraced runs.
/// Every workload reports all of them; what the unit of work behind
/// `throughput_per_s` is depends on the workload (see the README).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput_per_s", "1/s")];

/// `(name, unit)` of every per-layer metric, printed on traced runs. A
/// layer a workload never enters reads 0 there. `.ns` totals are summed
/// over worker threads and cover one traced pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    // train_quick: rl and nn training.
    ("rl.collect_batch.ns", "ns"),
    ("rl.env_step.ns", "ns"),
    ("rl.env_step.calls", "count"),
    ("rl.collect.env_share", "fraction"),
    ("rl.update.ns", "ns"),
    ("rl.update.samples", "count"),
    ("nn.update.gflops_computed", "GFLOP"),
    // eval_certify: policy inference, sim engine, Monte-Carlo, dp oracle.
    ("policy.decide_batch.ns.M100", "ns"),
    ("policy.decide_batch.ns.M1000", "ns"),
    ("policy.decide_batch.calls", "count"),
    ("policy.decide_batch.rows_per_call", "rows"),
    ("nn.decide.flops_per_row", "flop"),
    ("nn.decide.weight_bytes_per_call", "B"),
    ("sim.aggregate.step.ns.M100", "ns"),
    ("sim.aggregate.step.ns.M1000", "ns"),
    ("sim.aggregate.observe.ns.M100", "ns"),
    ("sim.aggregate.observe.ns.M1000", "ns"),
    ("sim.monte_carlo.ns", "ns"),
    ("sim.monte_carlo.busy_frac", "fraction"),
    ("policy.optimize_beta.ns", "ns"),
    ("dp.precompute.ns", "ns"),
    ("dp.precompute.entries", "count"),
    ("dp.sweep.ns", "ns"),
    ("dp.sweep.count", "count"),
    ("dp.sweeps_per_s", "1/s"),
    // serve_*: the dispatcher loop.
    ("serve.decide.ns", "ns"),
    ("serve.emit.ns", "ns"),
    ("serve.event_interval.ns", "ns"),
    ("serve.ingest.ns", "ns"),
    ("serve.ingest.mb_per_s", "MB/s"),
    ("serve.jobs_per_interval", "jobs"),
    ("serve.interval_p50_us", "us"),
    ("serve.interval_p99_us", "us"),
    ("serve.drop_fraction", "fraction"),
    ("serve.mean_sojourn", "time"),
    // Every workload.
    ("trace.span_coverage", "fraction"),
    ("trace.residual_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// The outcome of one workload run: output checks and measured values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Human-readable description of each failed check.
    pub failures: Vec<String>,
    /// Metric values by name (both catalogues share one namespace).
    pub values: BTreeMap<&'static str, f64>,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation, recording `what` when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The metrics of one catalogue as `(name, value, unit)`. Per-layer
    /// metrics a workload does not touch read 0; an end-to-end metric a
    /// workload failed to measure reads 0 and fails a check.
    pub fn catalogue(&mut self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self.values.get(name).copied();
            if !trace {
                self.check(value.is_some(), || format!("{name} was not measured"));
            }
            out.push((name, value.unwrap_or(0.0), unit));
        }
        out
    }
}

/// Formats one result line: `metrics` as `(name, value, unit)`. Values
/// print with every digit Rust's shortest round-trip formatting gives;
/// a non-finite value is printed as 0 and fails the line's `correct`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &'static str)]) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && finite,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

/// Per-pass values of each metric, reduced to medians at the end of a run.
#[derive(Debug, Default)]
pub(crate) struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records one pass's value of `name`.
    pub(crate) fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

impl Report {
    /// Sets every sampled metric to the median of its passes, and notes
    /// the passes behind the end-to-end throughput.
    pub(crate) fn set_medians(&mut self, samples: &Samples) {
        for (&name, values) in &samples.0 {
            self.set(name, crate::stats::median(values));
        }
        if let Some(passes) = samples.0.get("throughput_per_s") {
            let shown: Vec<String> = passes.iter().map(|v| format!("{v:.6e}")).collect();
            self.note(format!("throughput_per_s of {} passes: {}", passes.len(), shown.join(" ")));
        }
    }
}
