//! `serve_synthetic_M1k` and `serve_trace_stream_M1k`: the `serve()`
//! dispatcher loop on the event engine at M = 1000, N = 10⁵, Δt = 0.5 for
//! 4000 sync intervals, dispatching with the pinned quick checkpoint.
//! The synthetic workload draws Exp(1) jobs from the engine's own MMPP
//! stream and bypasses ingest; the stream workload replays Pareto(2.5,
//! 0.6) jobs as JSONL through `JobSource::Stream`, so line parsing is on
//! the hot path.

use crate::report::{Report, Samples};
use crate::stats::{median, quantile, repeat_for, repeated_setup};
use crate::trace::{Counter, TimedPolicy};
use mflb_core::mdp::UpperPolicy;
use mflb_core::{JobSizeLaw, SystemConfig};
use mflb_policy::NeuralUpperPolicy;
use mflb_rl::TrainingCheckpoint;
use mflb_sim::{
    serve, serve_with, EngineSpec, EventEngine, JobSource, LineTraceReader, Scenario, ServeOptions,
    ServeReport,
};
use std::cell::RefCell;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Number of queues.
pub(crate) const M: usize = 1000;
/// Number of clients.
pub(crate) const N: u64 = 100_000;
/// Sync interval Δt.
pub(crate) const DT: f64 = 0.5;
/// Sync intervals per pass (one tick each).
pub(crate) const INTERVALS: usize = 4000;
/// Label the served policy reports under.
pub(crate) const POLICY_NAME: &str = "MF (learned)";

/// The pinned serve policy: `mflb train --scale quick --seed 1` (see
/// `fixtures/PROVENANCE.md`), so training-numerics changes leave the
/// serve workloads alone.
pub const FIXTURE: &str = include_str!("../fixtures/quick_ckpt.json");
/// FNV-1a-64 digest of [`FIXTURE`].
pub const FIXTURE_FNV1A64: u64 = 0x8fc0_91c9_8013_8ff4;

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The served system: Table 1 dynamics at M = 1000, N = 10⁵, Δt = 0.5.
pub(crate) fn config() -> SystemConfig {
    SystemConfig::paper().with_dt(DT).with_size(N, M)
}

/// Job sizes of the synthetic (Exp(1)) or streamed (Pareto(2.5, 0.6),
/// mean 1) workload.
pub(crate) fn job_size(stream: bool) -> JobSizeLaw {
    if stream {
        JobSizeLaw::Pareto { shape: 2.5, scale: 0.6 }
    } else {
        JobSizeLaw::Exponential { rate: 1.0 }
    }
}

/// Serve options of one pass: [`INTERVALS`] intervals, a tick each.
pub(crate) fn options(seed: u64) -> ServeOptions {
    ServeOptions {
        duration: Some(INTERVALS as f64 * DT),
        report_every: 1,
        seed,
        ..Default::default()
    }
}

/// Loads the pinned checkpoint after checking its digest and its fit to
/// the served scenario.
pub fn load_policy(job_size: &JobSizeLaw) -> Result<NeuralUpperPolicy, String> {
    let digest = fnv1a64(FIXTURE.as_bytes());
    if digest != FIXTURE_FNV1A64 {
        return Err(format!("serve fixture digest {digest:#x}, expected {FIXTURE_FNV1A64:#x}"));
    }
    let ckpt = TrainingCheckpoint::from_json(FIXTURE)?;
    ckpt.validate_for(&Scenario::new(config(), EngineSpec::Event { job_size: job_size.clone() }))?;
    ckpt.into_policy()
}

/// One `serve()` call timed from outside.
pub struct ServePass {
    /// The program's report.
    pub report: ServeReport,
    /// Wall time of the call.
    pub wall_ns: u64,
    /// Wall time before each tick since the previous tick's callback
    /// returned (the first from the call): the interval without the
    /// callback's own work.
    pub gaps_ns: Vec<u64>,
    /// Time the callback spent turning ticks into JSONL.
    pub emit_ns: u64,
}

/// Runs `serve()` once, emitting each tick as a compact JSON line the way
/// `mflb serve` does (into memory rather than stdout).
pub fn serve_pass(
    engine: &EventEngine,
    policy: &dyn UpperPolicy,
    source: &JobSource,
    opts: &ServeOptions,
) -> Result<ServePass, String> {
    let mut gaps_ns = Vec::with_capacity(INTERVALS);
    let mut emit_ns = 0u64;
    let start = Instant::now();
    let mut mark = start;
    let report = serve(engine, policy, POLICY_NAME, source, opts, |tick| {
        let now = Instant::now();
        gaps_ns.push((now - mark).as_nanos() as u64);
        let line = serde_json::to_string(tick).expect("tick serialization cannot fail");
        std::hint::black_box(line);
        mark = Instant::now();
        emit_ns += (mark - now).as_nanos() as u64;
    })
    .map_err(|e| e.to_string())?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    Ok(ServePass { report, wall_ns, gaps_ns, emit_ns })
}

/// Whether two runs served the same jobs with the same outcome, bit for
/// bit (wall-clock fields and the source label aside).
pub fn same_outcome(a: &ServeReport, b: &ServeReport) -> bool {
    let key = |r: &ServeReport| {
        (
            [r.intervals, r.jobs_arrived, r.jobs_completed, r.jobs_dropped, r.jobs_shed],
            r.jobs_in_system,
            [r.sim_time, r.drop_fraction, r.mean_sojourn, r.max_sojourn, r.mean_queue_len]
                .map(f64::to_bits),
        )
    };
    key(a) == key(b)
}

/// A JSONL trace recorded from a synthetic run.
pub struct Recorded {
    /// The report of the run the trace was recorded from.
    pub report: ServeReport,
    /// The trace, one job per line.
    pub jsonl: Arc<[u8]>,
    /// The same jobs, parsed, for the pre-parsed replay.
    pub preparsed: JobSource,
}

/// Records the jobs a synthetic run at `opts` dispatches.
pub fn record(
    engine: &EventEngine,
    policy: &dyn UpperPolicy,
    opts: &ServeOptions,
) -> Result<Recorded, String> {
    let mut jobs = Vec::new();
    let report = serve_with(
        engine,
        policy,
        POLICY_NAME,
        None,
        &JobSource::Synthetic,
        opts,
        Some(&mut jobs),
        |_| {},
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::with_capacity(jobs.len() * 48);
    for job in &jobs {
        text.push_str(&job.to_jsonl());
        text.push('\n');
    }
    Ok(Recorded { report, jsonl: Arc::from(text.into_bytes()), preparsed: JobSource::Trace(jobs) })
}

/// A fresh streamed source over an in-memory JSONL trace.
pub fn stream_source(jsonl: &Arc<[u8]>) -> JobSource {
    JobSource::Stream(RefCell::new(LineTraceReader::new(Box::new(Cursor::new(Arc::clone(jsonl))))))
}

struct Setup {
    engine: EventEngine,
    policy: NeuralUpperPolicy,
    recorded: Option<Recorded>,
}

fn setup(stream: bool, opts: &ServeOptions) -> Result<Setup, String> {
    let job_size = job_size(stream);
    let policy = load_policy(&job_size)?;
    let engine = EventEngine::new(config(), job_size);
    // Set-up runs the loop once before the timed passes: the streamed
    // workload to record its trace, the synthetic one for a tenth of a
    // pass. That warms caches and buffers and gives set-up a steady cost.
    let recorded = if stream {
        Some(record(&engine, &policy, opts)?)
    } else {
        let warm = ServeOptions { duration: Some(INTERVALS as f64 * DT / 10.0), ..opts.clone() };
        serve(&engine, &policy, POLICY_NAME, &JobSource::Synthetic, &warm, |_| {})
            .map_err(|e| e.to_string())?;
        None
    };
    Ok(Setup { engine, policy, recorded })
}

/// Runs the synthetic (`stream = false`) or streamed workload for about
/// `seconds`.
pub fn run(stream: bool, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let opts = options(seed);
    let (setup, setup_s) = repeated_setup(|| setup(stream, &opts));
    r.set("setup_s", setup_s);
    let Setup { engine, policy, recorded } = match setup {
        Ok(s) => s,
        Err(e) => {
            r.check(false, || format!("serve setup: {e}"));
            return r;
        }
    };
    let source = |r: &Option<Recorded>| match r {
        Some(rec) => stream_source(&rec.jsonl),
        None => JobSource::Synthetic,
    };

    let mut samples = Samples::default();
    let mut reference = recorded.as_ref().map(|rec| rec.report.clone());
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    repeat_for(seconds, || {
        let src = source(&recorded);
        let pass = match serve_pass(&engine, &policy, &src, &opts) {
            Ok(p) => p,
            Err(e) => return r.check(false, || format!("serve: {e}")),
        };
        check_pass(&mut r, &pass.report, &mut reference, "untraced");
        let rep = &pass.report;
        let secs = pass.wall_ns as f64 * 1e-9;
        untraced_walls.push(secs);
        samples.push("throughput_per_s", rep.jobs_arrived as f64 / secs);
        let mut gaps = pass.gaps_ns.clone();
        samples.push("serve.interval_p50_us", quantile(&mut gaps, 0.50) as f64 * 1e-3);
        samples.push("serve.interval_p99_us", quantile(&mut gaps, 0.99) as f64 * 1e-3);
        samples.push("serve.drop_fraction", rep.drop_fraction);
        samples.push("serve.mean_sojourn", rep.mean_sojourn);
        samples.push("serve.jobs_per_interval", rep.jobs_arrived as f64 / rep.intervals as f64);
        if !trace {
            return;
        }

        // Ingest: the streamed replay less a replay of the same jobs
        // parsed up front.
        let mut ingest_ns = 0.0;
        if let Some(rec) = &recorded {
            match serve_pass(&engine, &policy, &rec.preparsed, &opts) {
                Ok(pre) => {
                    check_pass(&mut r, &pre.report, &mut reference, "pre-parsed replay");
                    ingest_ns = pass.wall_ns as f64 - pre.wall_ns as f64;
                    samples.push("serve.ingest.ns", ingest_ns);
                    if ingest_ns > 0.0 {
                        let mb = rec.jsonl.len() as f64 * 1e-6;
                        samples.push("serve.ingest.mb_per_s", mb / (ingest_ns * 1e-9));
                    }
                }
                Err(e) => r.check(false, || format!("pre-parsed replay: {e}")),
            }
        }
        let decide = Counter::default();
        let timed_policy = TimedPolicy::new(&policy, &decide);
        let src = source(&recorded);
        let traced = match serve_pass(&engine, &timed_policy, &src, &opts) {
            Ok(p) => p,
            Err(e) => return r.check(false, || format!("traced serve: {e}")),
        };
        check_pass(&mut r, &traced.report, &mut reference, "traced");
        let wall = traced.wall_ns as f64;
        traced_walls.push(wall * 1e-9);
        let gaps: f64 = traced.gaps_ns.iter().map(|&g| g as f64).sum();
        let event_interval = gaps - decide.ns() as f64 - ingest_ns;
        samples.push("serve.decide.ns", decide.ns() as f64);
        samples.push("serve.emit.ns", traced.emit_ns as f64);
        samples.push("serve.event_interval.ns", event_interval);
        samples.push("trace.span_coverage", (gaps + traced.emit_ns as f64) / wall);
        samples.push("trace.residual_frac", event_interval / wall);
    });
    r.set_medians(&samples);
    if let Some(&tput) = r.values.get("throughput_per_s") {
        let v = |name| r.values.get(name).copied().unwrap_or(f64::NAN);
        let lines = [
            format!("serve.jobs_per_s = {tput:.0} 1/s"),
            format!("serve.interval_p50_us = {:.2} us", v("serve.interval_p50_us")),
            format!("serve.interval_p99_us = {:.2} us", v("serve.interval_p99_us")),
            format!("serve.drop_fraction = {:.6}", v("serve.drop_fraction")),
            format!("serve.mean_sojourn = {:.6} time units", v("serve.mean_sojourn")),
        ];
        for line in lines {
            r.note(line);
        }
    }
    if trace {
        r.set("trace.overhead_frac", median(&traced_walls) / median(&untraced_walls) - 1.0);
    }
    r
}

/// Output checks of one serve report: job mass is conserved, and the run
/// matches the reference outcome (the first pass, or for the streamed
/// workload the synthetic run its trace was recorded from).
fn check_pass(r: &mut Report, rep: &ServeReport, reference: &mut Option<ServeReport>, what: &str) {
    let accounted = rep.jobs_completed + rep.jobs_dropped + rep.jobs_shed + rep.jobs_in_system;
    r.check(rep.jobs_arrived == accounted, || {
        format!("{what} run lost job mass: {} arrived, {accounted} accounted", rep.jobs_arrived)
    });
    r.check(rep.intervals == INTERVALS as u64, || {
        format!("{what} run served {} intervals, expected {INTERVALS}", rep.intervals)
    });
    let reference = reference.get_or_insert_with(|| rep.clone());
    r.check(same_outcome(reference, rep), || format!("{what} run differs from the reference"));
}
