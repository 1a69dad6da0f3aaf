//! The `mflb serve` runtime: a long-running dispatcher loop over the
//! job-level [`EventEngine`], one sync interval per policy refresh (run
//! queue by queue, or merged with a heap of pending completions under an
//! admission cap).
//!
//! [`serve`] ingests a job stream — either the engine's own synthetic
//! Poisson/Pareto generator or a replayed JSONL trace — and dispatches
//! every job through an upper-level policy under the paper's
//! sampled-and-delayed observation model: the decision rule is refreshed
//! once per sync interval `Δt` from the stale length snapshot, exactly as
//! in training. Online metrics stream out as periodic [`ServeTick`]s and
//! a final [`ServeReport`] (the JSON the CLI prints and the bench suite
//! mines for jobs-dispatched-per-second).
//!
//! # Trace JSONL schema
//!
//! One job per line, `{"t": <arrival time>, "size": <work units>}`:
//! times must be finite, nonnegative and nondecreasing; sizes positive
//! and finite. Blank lines and `#` comments are skipped. A malformed
//! line is reported with its 1-based line number ([`parse_trace`]).
//! [`serve`] also rejects a job whose arrival `t / Δt` or service
//! `size / (α·Δt)` spans more than [`MAX_EVAL_EPOCHS`] sync intervals,
//! the cap on `eval_time`: a trace run drains to completion, so one such
//! job would keep it going for as many intervals.
//! Traces replay either fully buffered ([`JobSource::Trace`]) or
//! streamed from any reader — e.g. stdin — with the same 1-based
//! diagnostics ([`JobSource::Stream`], [`LineTraceReader`]). A streamed
//! trace is read and parsed on a dedicated ingest thread that hands the
//! dispatcher bounded batches of jobs, so parsing overlaps dispatch and
//! a live pipe is still served as its lines arrive. Both paths decode
//! lines in the shape [`Job::to_jsonl`] writes with an allocation-free
//! scanner and defer everything else to `serde_json`
//! ([`parse_trace_line`]).
//!
//! # Graceful degradation
//!
//! The serve loop degrades rather than falls over when the world turns
//! hostile (typically under a [`mflb_core::FaultPlan`] attached to the
//! engine):
//!
//! * **bounded admission** — with [`ServeOptions::admission_cap`] set,
//!   a job arriving while the in-system count is at or above the cap is
//!   shed *before* routing (back-pressure toward the client), counted in
//!   [`ServeReport::jobs_shed`];
//! * **staleness watchdog** — when observation faults starve the policy
//!   of refreshes, [`ServeOptions::staleness_threshold`] switches
//!   dispatch from the checkpoint policy to a static fallback tier
//!   (JSQ/softmin) that herds less on stale data; the watchdog has
//!   hysteresis (enter at age ≥ threshold, leave at age ≤ threshold/2)
//!   so a flapping channel cannot thrash the tiers;
//! * **ingestion retry** — streamed trace reads retry transient I/O
//!   errors with exponential backoff before giving up
//!   ([`LineTraceReader::with_retry`]); a line that is not UTF-8 is not
//!   an I/O error and ends the run naming that line.
//!
//! # Determinism
//!
//! A serve run is a deterministic function of `(engine, policy, source,
//! seed)`: the master RNG only draws the initial state, the MMPP level
//! path and one `epoch_base` per interval; all per-job randomness —
//! fault draws included — runs through the engine's counter-keyed
//! streams. Replaying the same trace (or re-running the same synthetic
//! stream) at a fixed seed is bit-identical — the regression suite pins
//! both a fault-free and a faulted run. A synthetic run recorded through
//! [`serve_with`]'s recorder and replayed as a trace at the same seed is
//! bit-identical too, because per-interval job indices (the counter keys)
//! are preserved by construction.

use crate::episode::{run_rng, Engine};
use crate::error::ServeError;
use crate::event_engine::{ArrivalFeed, EventEngine, EventState, PoissonFeed};
use mflb_core::config::MAX_EVAL_EPOCHS;
use mflb_core::mdp::{ObservationBatch, UpperPolicy};
use mflb_core::{DecisionRule, SystemConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io::{BufRead, ErrorKind};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One job of a replayed trace: arrival time and size in work units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Arrival time (absolute, from the start of the run).
    pub t: f64,
    /// Work units; service takes `size / service_rate` time units.
    pub size: f64,
}

impl Job {
    /// The job's trace line (compact JSON, the schema `parse_trace`
    /// reads back).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("job serialization cannot fail")
    }
}

/// Parses one line of a JSONL job trace. `lineno` is 1-based (used in
/// every complaint), `last_t` the previous job's arrival time (for the
/// nondecreasing check). Returns `Ok(None)` for blank lines and `#`
/// comments.
///
/// Lines in the shape [`Job::to_jsonl`] writes are decoded by an
/// allocation-free scanner; anything it does not accept goes through
/// `serde_json`, so the accepted language, every value and every error
/// message are those of `serde_json::from_str::<Job>`.
pub fn parse_trace_line(raw: &str, lineno: usize, last_t: f64) -> Result<Option<Job>, ServeError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let job = match scan_job(line) {
        Some(job) => job,
        None => serde_json::from_str(line)
            .map_err(|source| ServeError::TraceParse { line: lineno, source })?,
    };
    check_job(&job, lineno, last_t)?;
    Ok(Some(job))
}

/// The schema's checks on one job of a trace: `line` is its 1-based line
/// (or position), `last_t` the previous job's arrival time.
fn check_job(job: &Job, line: usize, last_t: f64) -> Result<(), ServeError> {
    if !(job.t.is_finite() && job.t >= 0.0) {
        return Err(ServeError::ArrivalTime { line, t: job.t });
    }
    if job.t < last_t {
        return Err(ServeError::ArrivalOrder { line, t: job.t, last_t });
    }
    if !(job.size > 0.0 && job.size.is_finite()) {
        return Err(ServeError::JobSize { line, size: job.size });
    }
    Ok(())
}

/// The horizon cap on served jobs: neither an arrival nor a service may
/// span more than [`MAX_EVAL_EPOCHS`] sync intervals of the config.
#[derive(Debug, Clone, Copy)]
struct Horizon {
    dt: f64,
    service_rate: f64,
}

impl Horizon {
    fn of(config: &SystemConfig) -> Self {
        Self { dt: config.dt, service_rate: config.service_rate }
    }

    /// Rejects `job`, at 1-based line `line`, if it arrives or takes
    /// service beyond the cap.
    fn check(&self, job: &Job, line: usize) -> Result<(), ServeError> {
        let span = MAX_EVAL_EPOCHS as f64 * self.dt;
        let beyond = |what, value, intervals| {
            Err(ServeError::BeyondHorizon { line, what, value, intervals })
        };
        if job.t > span {
            return beyond("arrival time", job.t, job.t / self.dt);
        }
        if job.size > span * self.service_rate {
            return beyond("job size", job.size, job.size / (self.service_rate * self.dt));
        }
        Ok(())
    }
}

/// Decodes a flat JSON object whose members all have numeric values
/// without allocating. Keys may come in any order with JSON whitespace
/// between tokens; the first of duplicate keys wins and unknown keys are
/// skipped, as in the derived `Deserialize`. Numbers are tokenised like
/// the vendored `serde_json` parser, so every accepted value is
/// bit-identical to its result. `None` for anything else (escaped keys,
/// non-numeric values, malformed syntax, missing fields).
fn scan_job(line: &str) -> Option<Job> {
    let b = line.as_bytes();
    let skip_ws = |pos: &mut usize| {
        while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *pos += 1;
        }
    };
    let mut pos = 0;
    skip_ws(&mut pos);
    if b.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;
    let (mut t, mut size) = (None, None);
    loop {
        skip_ws(&mut pos);
        if b.get(pos) != Some(&b'"') {
            return None;
        }
        let key_start = pos + 1;
        pos = key_start + b[key_start..].iter().position(|&c| c == b'"' || c == b'\\')?;
        if b[pos] == b'\\' {
            return None;
        }
        let key = &b[key_start..pos];
        pos += 1;
        skip_ws(&mut pos);
        if b.get(pos) != Some(&b':') {
            return None;
        }
        pos += 1;
        skip_ws(&mut pos);
        let value = scan_number(line, &mut pos)?;
        match key {
            b"t" => {
                t.get_or_insert(value);
            }
            b"size" => {
                size.get_or_insert(value);
            }
            _ => {}
        }
        skip_ws(&mut pos);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => break,
            _ => return None,
        }
    }
    pos += 1;
    skip_ws(&mut pos);
    if pos != b.len() {
        return None;
    }
    Some(Job { t: t?, size: size? })
}

/// The number token at `*pos`, tokenised like the vendored `serde_json`
/// parser: an optional `-`, then the longest run of `[0-9.eE+-]`; a float
/// (`str::parse::<f64>`) if the run holds any of `.eE+-`, else an integer
/// (`str::parse::<i128>`, then `as f64`). `None` if no number starts there
/// or the token does not parse.
fn scan_number(line: &str, pos: &mut usize) -> Option<f64> {
    let b = line.as_bytes();
    let start = *pos;
    let mut end = match b.get(start)? {
        b'-' => start + 1,
        b'0'..=b'9' => start,
        _ => return None,
    };
    let mut is_float = false;
    while let Some(&c) = b.get(end) {
        match c {
            b'0'..=b'9' => {}
            b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
            _ => break,
        }
        end += 1;
    }
    *pos = end;
    let token = &line[start..end];
    if is_float {
        token.parse::<f64>().ok()
    } else {
        token.parse::<i128>().ok().map(|n| n as f64)
    }
}

/// Parses a JSONL job trace (see the module docs for the schema). Every
/// complaint names the offending 1-based line.
pub fn parse_trace(text: &str) -> Result<Vec<Job>, ServeError> {
    let mut jobs = Vec::new();
    let mut last_t = 0.0f64;
    for (i, raw) in text.lines().enumerate() {
        if let Some(job) = parse_trace_line(raw, i + 1, last_t)? {
            last_t = job.t;
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// Jobs per batch the ingest thread hands to the serve loop.
const INGEST_BATCH: usize = 4096;
/// Batches the ingest channel holds ahead of the serve loop.
const INGEST_DEPTH: usize = 4;

/// One message of the ingest thread: a batch of parsed jobs with the
/// 1-based line of each, or the error that ended the trace (always the
/// last message).
type IngestMsg = Result<(Vec<Job>, Vec<usize>), ServeError>;

/// A streaming JSONL trace reader: a dedicated `mflb-ingest` thread reads
/// and parses lines from any [`BufRead`] `+ Send` source (a file, stdin, a
/// pipe) with the same 1-based line diagnostics as [`parse_trace`], and
/// hands the serve loop batches of jobs over a bounded channel, so at
/// most a constant number of parsed jobs is buffered. The thread parses
/// every complete line already read before it reads again, so no parsed
/// job waits behind a read that may block: a live pipe is served as its
/// lines arrive. Transient read errors are retried with exponential
/// backoff before the run aborts; a line that is not valid UTF-8 ends the
/// run with an error naming it. Dropping the reader early (a `max_jobs`
/// cap) does not wait for the thread: it exits at its next hand-over, or
/// with the process if its read never returns.
pub struct LineTraceReader {
    rx: Receiver<IngestMsg>,
    /// Joined once the channel disconnects, so a panic in the ingest
    /// thread surfaces instead of reading as the end of the trace; a
    /// reader dropped early leaves the thread to notice the hang-up.
    thread: Option<JoinHandle<()>>,
    batch: Vec<Job>,
    /// The 1-based line of each job in `batch`.
    lines: Vec<usize>,
    cursor: usize,
    /// Set by [`serve`]; a job beyond it ends the trace with an error.
    horizon: Option<Horizon>,
    error: Option<ServeError>,
    done: bool,
}

impl std::fmt::Debug for LineTraceReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineTraceReader")
            .field("buffered", &(self.batch.len() - self.cursor))
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl LineTraceReader {
    /// Wraps `reader` with the default retry budget (3 retries, 50 ms
    /// initial backoff).
    pub fn new(reader: Box<dyn BufRead + Send>) -> Self {
        Self::with_retry(reader, 3, 50)
    }

    /// Wraps `reader`, retrying each failed read up to `retries` times
    /// with `backoff_ms · 2^attempt` sleeps in between. Bytes read before
    /// a failure are kept, so a retried read resumes a partial line.
    /// Reading starts at once, on the ingest thread.
    pub fn with_retry(reader: Box<dyn BufRead + Send>, retries: u32, backoff_ms: u64) -> Self {
        let (tx, rx) = sync_channel(INGEST_DEPTH);
        let spawned = std::thread::Builder::new().name("mflb-ingest".into()).spawn(move || {
            let (batch, lines) =
                (Vec::with_capacity(INGEST_BATCH), Vec::with_capacity(INGEST_BATCH));
            Ingest { tx, lineno: 0, last_t: 0.0, batch, lines }.run(reader, retries, backoff_ms);
        });
        let (thread, error) = match spawned {
            Ok(handle) => (Some(handle), None),
            Err(source) => (None, Some(ServeError::TraceIo { line: 1, retries: 0, source })),
        };
        Self {
            rx,
            thread,
            batch: Vec::new(),
            lines: Vec::new(),
            cursor: 0,
            horizon: None,
            done: error.is_some(),
            error,
        }
    }

    /// Whether the stream has been fully consumed (EOF reached and the
    /// last job dispatched).
    pub fn exhausted(&self) -> bool {
        self.done && self.cursor == self.batch.len()
    }

    /// Takes the first ingestion error, if one occurred (the serve loop
    /// turns it into its own `Err`).
    pub(crate) fn take_error(&mut self) -> Option<ServeError> {
        self.error.take()
    }

    /// Moves to the next batch once the current one is used up; parks an
    /// ingest error in `error` and marks the stream done.
    fn fill(&mut self) {
        while self.cursor == self.batch.len() && !self.done {
            match self.rx.recv() {
                Ok(Ok((batch, lines))) => {
                    self.batch = batch;
                    self.lines = lines;
                    self.cursor = 0;
                }
                Ok(Err(e)) => {
                    self.error = Some(e);
                    self.done = true;
                }
                Err(RecvError) => {
                    self.done = true;
                    if let Some(Err(panic)) = self.thread.take().map(JoinHandle::join) {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
    }
}

impl ArrivalFeed for LineTraceReader {
    fn peek(&mut self, _prev_time: f64, _k: u64) -> Option<(f64, f64)> {
        self.fill();
        let job = self.batch.get(self.cursor)?;
        if let Some(Err(e)) = self.horizon.map(|h| h.check(job, self.lines[self.cursor])) {
            // The jobs before it have been served; the trace ends here.
            self.batch.truncate(self.cursor);
            self.error = Some(e);
            self.done = true;
            return None;
        }
        Some((job.t, job.size))
    }

    fn advance(&mut self) {
        self.cursor += 1;
    }
}

/// The ingest thread's state. Its reading and sending methods return
/// `None` once the thread should stop: the trace failed (the error has
/// been sent) or the serve loop hung up.
struct Ingest {
    tx: SyncSender<IngestMsg>,
    lineno: usize,
    last_t: f64,
    batch: Vec<Job>,
    /// The 1-based line of each job in `batch`.
    lines: Vec<usize>,
}

impl Ingest {
    /// Reads `reader` to the end: parses the complete lines of each
    /// buffer fill, sends the jobs, then reads again, carrying a partial
    /// line over to the next fill.
    fn run(
        &mut self,
        mut reader: Box<dyn BufRead + Send>,
        retries: u32,
        backoff_ms: u64,
    ) -> Option<()> {
        let mut carry = Vec::new();
        let mut attempt = 0u32;
        loop {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) if attempt < retries => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(backoff_ms << (attempt - 1).min(6)));
                    continue;
                }
                Err(source) => {
                    let line = self.lineno + 1;
                    return self.fail(ServeError::TraceIo { line, retries, source });
                }
            };
            attempt = 0;
            if buf.is_empty() {
                // End of input; the last line may lack its newline.
                if !carry.is_empty() {
                    self.line(&carry)?;
                }
                return self.flush();
            }
            let filled = buf.len();
            let mut rest = buf;
            while let Some(eol) = rest.iter().position(|&c| c == b'\n') {
                if carry.is_empty() {
                    self.line(&rest[..eol])?;
                } else {
                    carry.extend_from_slice(&rest[..eol]);
                    self.line(&carry)?;
                    carry.clear();
                }
                rest = &rest[eol + 1..];
            }
            carry.extend_from_slice(rest);
            reader.consume(filled);
            self.flush()?;
        }
    }

    /// Parses one line (without its newline) into the batch, sending the
    /// batch when it is full.
    fn line(&mut self, bytes: &[u8]) -> Option<()> {
        self.lineno += 1;
        let line = self.lineno;
        let parsed = std::str::from_utf8(bytes)
            .map_err(|source| ServeError::TraceUtf8 { line, source })
            .and_then(|text| parse_trace_line(text, line, self.last_t));
        match parsed {
            Ok(None) => Some(()),
            Ok(Some(job)) => {
                self.last_t = job.t;
                self.batch.push(job);
                self.lines.push(line);
                if self.batch.len() == INGEST_BATCH {
                    self.flush()?;
                }
                Some(())
            }
            Err(e) => self.fail(e),
        }
    }

    /// Sends the jobs parsed so far, if any.
    fn flush(&mut self) -> Option<()> {
        if self.batch.is_empty() {
            return Some(());
        }
        let jobs = std::mem::replace(&mut self.batch, Vec::with_capacity(INGEST_BATCH));
        let lines = std::mem::replace(&mut self.lines, Vec::with_capacity(INGEST_BATCH));
        self.tx.send(Ok((jobs, lines))).ok()
    }

    /// Sends the jobs before the failure, then the error; always `None`.
    fn fail(&mut self, e: ServeError) -> Option<()> {
        self.flush()?;
        self.tx.send(Err(e)).ok()?;
        None
    }
}

/// Where the served jobs come from.
#[derive(Debug)]
pub enum JobSource {
    /// The engine's own Poisson arrivals with scenario job sizes,
    /// modulated by the configured MMPP λ-path.
    Synthetic,
    /// A replayed, fully-buffered trace (see [`parse_trace`]). [`serve`]
    /// checks it against the trace schema and the horizon cap first; a
    /// complaint names the job's 1-based position as its line.
    Trace(Vec<Job>),
    /// A trace streamed line-by-line from a reader (e.g. stdin); parsed
    /// lazily, consumed once.
    Stream(RefCell<LineTraceReader>),
}

impl JobSource {
    /// Short tag used in reports and log lines
    /// (`synthetic` / `trace` / `stream`).
    pub fn label(&self) -> &'static str {
        match self {
            JobSource::Synthetic => "synthetic",
            JobSource::Trace(_) => "trace",
            JobSource::Stream(_) => "stream",
        }
    }
}

/// Termination, reporting and degradation knobs of one [`serve`] run.
/// The default is an unbounded, silent, seed-0, unprotected run
/// (synthetic streams still hard-stop at the scenario's `eval_time`).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Stop admitting jobs once this many have been dispatched (then
    /// drain the system). `None` = unlimited.
    pub max_jobs: Option<u64>,
    /// Hard stop at this simulation time. `None`: synthetic runs default
    /// to the scenario's `eval_time`; trace runs drain to completion.
    pub duration: Option<f64>,
    /// Emit a [`ServeTick`] every this many sync intervals (`0` = never).
    pub report_every: usize,
    /// Master seed (initial state, MMPP path, per-interval stream keys).
    pub seed: u64,
    /// Bounded admission: shed a job (before routing) whenever the
    /// in-system count is at or above this cap. `None` = admit all.
    pub admission_cap: Option<u64>,
    /// Staleness watchdog: once the observation snapshot is at least
    /// this many intervals old, dispatch falls back to the static tier
    /// passed to [`serve_with`]; it returns to the primary policy when
    /// the age drops back to `threshold / 2` (hysteresis). `None` (or no
    /// fallback tier) disables the watchdog.
    pub staleness_threshold: Option<u64>,
}

/// One periodic progress line of a [`serve`] run (serialized as JSONL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeTick {
    /// Simulation time at the end of the reported interval.
    pub sim_time: f64,
    /// Jobs dispatched so far (preloaded ν₀ jobs included).
    pub jobs_arrived: u64,
    /// Jobs that finished service so far.
    pub jobs_completed: u64,
    /// Jobs dropped at a full buffer so far.
    pub jobs_dropped: u64,
    /// Jobs shed by bounded admission so far.
    #[serde(default)]
    pub jobs_shed: u64,
    /// Jobs currently queued or in service.
    pub jobs_in_system: u64,
    /// Running fraction of dispatched jobs that were dropped.
    pub drop_fraction: f64,
    /// Running mean sojourn time of completed jobs.
    pub mean_sojourn: f64,
    /// Mean queue length at the snapshot.
    pub mean_queue_len: f64,
    /// Sync intervals since the last observation refresh landed.
    #[serde(default)]
    pub observation_age: u64,
    /// Whether the staleness watchdog has dispatch on the fallback tier.
    #[serde(default)]
    pub fallback_active: bool,
}

/// Final summary of a [`serve`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Engine identifier (`event-job-level`).
    pub engine: String,
    /// Upper-level policy label.
    pub policy: String,
    /// Job source (`synthetic`, `trace` or `stream`).
    pub source: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Simulation time covered.
    pub sim_time: f64,
    /// Sync intervals (policy refreshes) executed.
    pub intervals: u64,
    /// Jobs dispatched (preloaded ν₀ jobs included; shed jobs too).
    pub jobs_arrived: u64,
    /// Jobs that finished service.
    pub jobs_completed: u64,
    /// Jobs dropped at a full buffer.
    pub jobs_dropped: u64,
    /// Jobs shed by bounded admission (back-pressure, never routed).
    #[serde(default)]
    pub jobs_shed: u64,
    /// Jobs still queued or in service at the end.
    pub jobs_in_system: u64,
    /// Fraction of dispatched jobs that were dropped at a buffer.
    pub drop_fraction: f64,
    /// Fraction of dispatched jobs lost either way (dropped or shed) —
    /// the robustness headline number.
    #[serde(default)]
    pub loss_fraction: f64,
    /// Mean sojourn time of completed jobs.
    pub mean_sojourn: f64,
    /// Largest sojourn time observed.
    pub max_sojourn: f64,
    /// Mean queue length at the end of the run.
    pub mean_queue_len: f64,
    /// Intervals whose observation refresh was dropped by the fault
    /// plan's observation channel.
    #[serde(default)]
    pub observation_dropped: u64,
    /// Times the staleness watchdog switched dispatch onto the fallback
    /// tier.
    #[serde(default)]
    pub fallback_activations: u64,
    /// Intervals dispatched on the fallback tier.
    #[serde(default)]
    pub fallback_intervals: u64,
    /// Wall-clock seconds spent in the dispatcher loop.
    pub wall_seconds: f64,
    /// Jobs dispatched per wall-clock second (the ROADMAP throughput
    /// bar; also tracked by `mflb bench --suite serve`).
    pub jobs_per_sec: f64,
}

impl ServeReport {
    /// Pretty-printed JSON (the artifact `mflb serve --out` writes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parses a report back from [`Self::to_json`] output (or the
    /// compact JSON line the CLI prints).
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        serde_json::from_str(text).map_err(ServeError::Report)
    }
}

/// A replayed trace as an [`ArrivalFeed`]: absolute times straight from
/// the file, consumed lazily across sync intervals.
struct TraceFeed<'a> {
    jobs: &'a [Job],
    cursor: usize,
}

impl ArrivalFeed for TraceFeed<'_> {
    fn peek(&mut self, _prev_time: f64, _k: u64) -> Option<(f64, f64)> {
        self.jobs.get(self.cursor).map(|j| (j.t, j.size))
    }

    fn advance(&mut self) {
        self.cursor += 1;
    }
}

/// Wraps a feed and records every job the engine actually consumed —
/// `advance` fires exactly when a job enters the timeline, so the
/// recorded trace replays bit-identically at the same seed.
struct RecordingFeed<'a, F: ArrivalFeed> {
    inner: F,
    out: &'a mut Vec<Job>,
    last: Option<Job>,
}

impl<F: ArrivalFeed> ArrivalFeed for RecordingFeed<'_, F> {
    fn peek(&mut self, prev_time: f64, k: u64) -> Option<(f64, f64)> {
        let peeked = self.inner.peek(prev_time, k);
        self.last = peeked.map(|(t, size)| Job { t, size });
        peeked
    }

    fn advance(&mut self) {
        if let Some(job) = self.last.take() {
            self.out.push(job);
        }
        self.inner.advance();
    }
}

/// Runs the dispatcher loop; see the module docs. `on_tick` fires every
/// `report_every` intervals with the running counters. Equivalent to
/// [`serve_with`] with no fallback tier and no trace recorder.
pub fn serve(
    engine: &EventEngine,
    policy: &dyn UpperPolicy,
    policy_name: &str,
    source: &JobSource,
    opts: &ServeOptions,
    on_tick: impl FnMut(&ServeTick),
) -> Result<ServeReport, ServeError> {
    serve_with(engine, policy, policy_name, None, source, opts, None, on_tick)
}

/// The full dispatcher loop behind [`serve`]: `fallback` is the static
/// policy tier the staleness watchdog degrades to (with its label), and
/// `record` collects every synthetic job the engine consumed, in trace
/// order, for `mflb simulate --record-trace`-style replay.
#[allow(clippy::too_many_arguments)]
pub fn serve_with(
    engine: &EventEngine,
    policy: &dyn UpperPolicy,
    policy_name: &str,
    fallback: Option<&dyn UpperPolicy>,
    source: &JobSource,
    opts: &ServeOptions,
    mut record: Option<&mut Vec<Job>>,
    mut on_tick: impl FnMut(&ServeTick),
) -> Result<ServeReport, ServeError> {
    let config = engine.config();
    let dt = config.dt;
    let hard_stop = match source {
        JobSource::Synthetic => Some(opts.duration.unwrap_or(config.eval_time)),
        JobSource::Trace(_) | JobSource::Stream(_) => opts.duration,
    };
    if let Some(te) = hard_stop {
        if !(te > 0.0 && te.is_finite()) {
            return Err(ServeError::Duration(te));
        }
    }
    let horizon = Horizon::of(config);
    if let JobSource::Trace(jobs) = source {
        let mut last_t = 0.0;
        for (i, job) in jobs.iter().enumerate() {
            check_job(job, i + 1, last_t)?;
            horizon.check(job, i + 1)?;
            last_t = job.t;
        }
    }
    if let Some(th) = opts.staleness_threshold {
        if th == 0 {
            return Err(ServeError::StalenessZero);
        }
        if fallback.is_none() {
            return Err(ServeError::MissingFallback);
        }
    }

    let t0 = Instant::now();
    let mut rng = run_rng(opts.seed, 0);
    let mut state: EventState = engine.init_state(&mut rng);
    let mut lambda_idx = config.arrivals.sample_initial(&mut rng);
    let mut trace_feed = match source {
        JobSource::Trace(jobs) => Some(TraceFeed { jobs, cursor: 0 }),
        JobSource::Synthetic | JobSource::Stream(_) => None,
    };
    let mut stream_feed = match source {
        JobSource::Stream(reader) => {
            let mut reader = reader.borrow_mut();
            reader.horizon = Some(horizon);
            Some(reader)
        }
        JobSource::Synthetic | JobSource::Trace(_) => None,
    };

    let mut intervals = 0u64;
    let mut sojourn_sum = 0.0f64;
    let mut max_sojourn = 0.0f64;
    let mut last_mean_queue_len = 0.0f64;
    let mut fallback_active = false;
    let mut fallback_activations = 0u64;
    let mut fallback_intervals = 0u64;
    let mut observation_dropped = 0u64;
    let mut prev_obs_age = 0u64;
    // Dispatch goes through the batched policy entry point (batch of
    // one): bit-identical to `decide` for every tier, and the neural
    // policy's f32/fast-tanh paths are exercised by exactly the code the
    // Monte-Carlo driver uses.
    let mut batch = ObservationBatch::new(config.num_states(), config.arrivals.num_levels());
    let mut rules = vec![DecisionRule::uniform(1, 1)];

    loop {
        if let Some(te) = hard_stop {
            if state.clock() + 1e-12 >= te {
                break;
            }
        }
        let admitted_all = opts.max_jobs.is_some_and(|mj| state.jobs_arrived() >= mj)
            || trace_feed.as_ref().is_some_and(|f| f.cursor >= f.jobs.len())
            || stream_feed.as_ref().is_some_and(|f| f.exhausted());
        if admitted_all && state.jobs_in_system() == 0 {
            break;
        }
        // Synthetic runs without a job cap only ever stop at `hard_stop`
        // (always set for them), so this loop cannot run away.

        // One `epoch_base` per interval, drawn before the policy decides:
        // `decide` consumes no master randomness, so the draw order (and
        // with it every pinned stream) is unchanged, while the fault
        // plan's observation channel can settle *before* the decision.
        let epoch_base: u64 = rng.gen();
        let arrival_factor = engine.begin_interval(&mut state, epoch_base);

        // Staleness watchdog with hysteresis: degrade to the static tier
        // at age ≥ threshold, return at age ≤ threshold/2.
        if let (Some(th), Some(_)) = (opts.staleness_threshold, fallback) {
            let age = state.observation_age();
            if !fallback_active && age >= th {
                fallback_active = true;
                fallback_activations += 1;
            } else if fallback_active && age <= th / 2 {
                fallback_active = false;
            }
        }
        if state.observation_age() > prev_obs_age {
            observation_dropped += 1;
        }
        prev_obs_age = state.observation_age();

        // The λ-level is the policy's modulation input in both modes; a
        // trace does not carry one, so the configured MMPP path plays
        // that role during replay as well. The policy sees the engine's
        // *observation* — under observation faults a stale snapshot.
        let lambda = config.arrivals.level_rate(lambda_idx);
        batch.clear();
        batch.push(engine.observed(&state), lambda_idx, lambda);
        match (fallback_active, fallback) {
            (true, Some(fb)) => fb.decide_batch(&batch, &mut rules),
            _ => policy.decide_batch(&batch, &mut rules),
        }
        let rule = &rules[0];
        if fallback_active {
            fallback_intervals += 1;
        }
        let t_end = state.clock() + dt;
        let budget = opts.max_jobs.map_or(u64::MAX, |mj| mj.saturating_sub(state.jobs_arrived()));
        let cap = opts.admission_cap;
        let stats = if let Some(feed) = trace_feed.as_mut() {
            engine.run_interval(&mut state, rule, epoch_base, t_end, feed, budget, cap)
        } else if let Some(feed) = stream_feed.as_mut() {
            let stats =
                engine.run_interval(&mut state, rule, epoch_base, t_end, &mut **feed, budget, cap);
            if let Some(e) = feed.take_error() {
                return Err(e);
            }
            stats
        } else {
            let rate = config.num_queues as f64 * (lambda * arrival_factor);
            let mut feed = PoissonFeed::new(epoch_base, rate, engine.job_size().clone());
            match record.as_deref_mut() {
                Some(out) => {
                    let mut rec = RecordingFeed { inner: feed, out, last: None };
                    engine.run_interval(&mut state, rule, epoch_base, t_end, &mut rec, budget, cap)
                }
                None => {
                    engine.run_interval(&mut state, rule, epoch_base, t_end, &mut feed, budget, cap)
                }
            }
        };
        intervals += 1;
        for &s in &stats.sojourns {
            sojourn_sum += s;
            if s > max_sojourn {
                max_sojourn = s;
            }
        }
        last_mean_queue_len = stats.mean_queue_len;
        lambda_idx = config.arrivals.step(lambda_idx, &mut rng);

        if opts.report_every > 0 && intervals.is_multiple_of(opts.report_every as u64) {
            on_tick(&ServeTick {
                sim_time: state.clock(),
                jobs_arrived: state.jobs_arrived(),
                jobs_completed: state.jobs_completed(),
                jobs_dropped: state.jobs_dropped(),
                jobs_shed: state.jobs_shed(),
                jobs_in_system: state.jobs_in_system(),
                drop_fraction: state.jobs_dropped() as f64 / state.jobs_arrived().max(1) as f64,
                mean_sojourn: sojourn_sum / state.jobs_completed().max(1) as f64,
                mean_queue_len: stats.mean_queue_len,
                observation_age: state.observation_age(),
                fallback_active,
            });
        }
    }

    let wall_seconds = t0.elapsed().as_secs_f64();
    let arrived = state.jobs_arrived();
    Ok(ServeReport {
        engine: engine.name().to_string(),
        policy: policy_name.to_string(),
        source: source.label().to_string(),
        seed: opts.seed,
        sim_time: state.clock(),
        intervals,
        jobs_arrived: arrived,
        jobs_completed: state.jobs_completed(),
        jobs_dropped: state.jobs_dropped(),
        jobs_shed: state.jobs_shed(),
        jobs_in_system: state.jobs_in_system(),
        drop_fraction: state.jobs_dropped() as f64 / arrived.max(1) as f64,
        loss_fraction: (state.jobs_dropped() + state.jobs_shed()) as f64 / arrived.max(1) as f64,
        mean_sojourn: sojourn_sum / state.jobs_completed().max(1) as f64,
        max_sojourn,
        mean_queue_len: last_mean_queue_len,
        observation_dropped,
        fallback_activations,
        fallback_intervals,
        wall_seconds,
        jobs_per_sec: arrived as f64 / wall_seconds.max(1e-12),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_core::mdp::FixedRulePolicy;
    use mflb_core::{FaultPlan, JobSizeLaw, SystemConfig};
    use mflb_policy::jsq_rule;

    fn engine() -> EventEngine {
        EventEngine::new(
            SystemConfig::paper().with_size(100, 10).with_dt(2.0),
            JobSizeLaw::Exponential { rate: 1.0 },
        )
    }

    fn jsq() -> FixedRulePolicy {
        FixedRulePolicy::new(jsq_rule(6, 2), "JSQ(2)")
    }

    #[test]
    fn parse_trace_accepts_comments_and_rejects_bad_lines() {
        let good = "# header\n{\"t\": 0.0, \"size\": 1.0}\n\n{\"t\": 0.5, \"size\": 2.0}\n";
        let jobs = parse_trace(good).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1], Job { t: 0.5, size: 2.0 });

        for (text, needle) in [
            ("{\"t\": 1.0}", "line 1"),
            ("{\"t\": 0.0, \"size\": 1.0}\nnot json", "line 2"),
            ("{\"t\": -1.0, \"size\": 1.0}", "nonnegative"),
            ("{\"t\": 2.0, \"size\": 1.0}\n{\"t\": 1.0, \"size\": 1.0}", "nondecreasing"),
            ("{\"t\": 0.0, \"size\": 0.0}", "positive"),
        ] {
            let err = parse_trace(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?} → {err}");
        }
    }

    #[test]
    fn buffered_traces_are_checked_against_the_schema() {
        let e = engine();
        let opts = ServeOptions::default();
        for (jobs, needle) in [
            (vec![Job { t: 1.0, size: 1.0 }, Job { t: 0.5, size: 1.0 }], "line 2"),
            (vec![Job { t: f64::NAN, size: 1.0 }], "nonnegative"),
            (vec![Job { t: 0.0, size: 0.0 }], "positive"),
        ] {
            let err = serve(&e, &jsq(), "JSQ(2)", &JobSource::Trace(jobs), &opts, |_| {})
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn jobs_beyond_the_horizon_cap_are_rejected_naming_their_line() {
        // Δt = 2 and α = 1: the cap is 2e6 time units for both.
        let e = engine();
        let opts = ServeOptions { seed: 2, ..Default::default() };
        let ok = Job { t: 0.0, size: 1.0 };
        for (bad, needle) in [
            (Job { t: 1e300, size: 1.0 }, "arrival time 1e300 spans 5e299 sync intervals"),
            (Job { t: 1.0, size: 1e300 }, "job size 1e300 spans 5e299 sync intervals"),
            (Job { t: 2.1e6, size: 1.0 }, "arrival time"),
        ] {
            let buffered = JobSource::Trace(vec![ok, bad]);
            let err = serve(&e, &jsq(), "JSQ(2)", &buffered, &opts, |_| {}).unwrap_err();
            assert!(matches!(err, ServeError::BeyondHorizon { line: 2, .. }), "{err}");
            assert!(err.to_string().contains(needle), "{err}");

            // Streamed, after a comment and a blank line: the reader hands
            // over the good job, then ends the trace naming line 4.
            let text = format!("# trace\n{}\n\n{}\n", ok.to_jsonl(), bad.to_jsonl());
            let stream = JobSource::Stream(RefCell::new(LineTraceReader::new(Box::new(
                std::io::Cursor::new(text),
            ))));
            let err = serve(&e, &jsq(), "JSQ(2)", &stream, &opts, |_| {}).unwrap_err();
            assert!(matches!(err, ServeError::BeyondHorizon { line: 4, .. }), "{err}");
            assert!(err.to_string().starts_with("trace line 4: "), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
        // A job at the cap itself passes.
        let horizon = Horizon::of(e.config());
        assert!(horizon.check(&Job { t: 2e6, size: 2e6 }, 1).is_ok());
    }

    #[test]
    fn synthetic_serve_reports_consistent_counters() {
        let e = engine();
        let opts = ServeOptions { duration: Some(40.0), seed: 7, ..Default::default() };
        let report = serve(&e, &jsq(), "JSQ(2)", &JobSource::Synthetic, &opts, |_| {}).unwrap();
        assert_eq!(report.source, "synthetic");
        assert_eq!(report.intervals, 20);
        assert!((report.sim_time - 40.0).abs() < 1e-9);
        assert!(report.jobs_arrived > 0);
        assert_eq!(
            report.jobs_arrived,
            report.jobs_completed + report.jobs_dropped + report.jobs_in_system
        );
        assert_eq!(report.jobs_shed, 0);
        assert_eq!(report.loss_fraction.to_bits(), report.drop_fraction.to_bits());
        assert!(report.jobs_per_sec > 0.0);
    }

    #[test]
    fn trace_serve_drains_to_completion_and_is_deterministic() {
        let e = engine();
        let jobs: Vec<Job> =
            (0..25).map(|i| Job { t: 0.3 * i as f64, size: 0.5 + 0.1 * (i % 5) as f64 }).collect();
        let source = JobSource::Trace(jobs);
        let opts = ServeOptions { seed: 3, report_every: 2, ..Default::default() };
        let mut ticks = Vec::new();
        let a = serve(&e, &jsq(), "JSQ(2)", &source, &opts, |t| ticks.push(t.clone())).unwrap();
        assert_eq!(a.jobs_arrived, 25);
        assert_eq!(a.jobs_in_system, 0, "trace runs drain to completion");
        assert_eq!(a.jobs_completed + a.jobs_dropped, 25);
        assert!(!ticks.is_empty());
        let b = serve(&e, &jsq(), "JSQ(2)", &source, &opts, |_| {}).unwrap();
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.mean_sojourn.to_bits(), b.mean_sojourn.to_bits());
        assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
    }

    #[test]
    fn max_jobs_caps_admissions_then_drains() {
        let e = engine();
        let opts =
            ServeOptions { max_jobs: Some(30), duration: Some(1e6), seed: 5, ..Default::default() };
        let report = serve(&e, &jsq(), "JSQ(2)", &JobSource::Synthetic, &opts, |_| {}).unwrap();
        assert_eq!(report.jobs_arrived, 30);
        assert_eq!(report.jobs_in_system, 0);
    }

    #[test]
    fn streamed_source_matches_the_buffered_trace_bit_for_bit() {
        let e = engine();
        let jobs: Vec<Job> =
            (0..40).map(|i| Job { t: 0.2 * i as f64, size: 0.4 + 0.05 * (i % 7) as f64 }).collect();
        let text: String = jobs.iter().map(|j| j.to_jsonl() + "\n").collect();
        let opts = ServeOptions { seed: 11, ..Default::default() };
        let buffered = serve(&e, &jsq(), "JSQ(2)", &JobSource::Trace(jobs), &opts, |_| {}).unwrap();
        let stream = JobSource::Stream(RefCell::new(LineTraceReader::new(Box::new(
            std::io::Cursor::new(text),
        ))));
        let streamed = serve(&e, &jsq(), "JSQ(2)", &stream, &opts, |_| {}).unwrap();
        assert_eq!(streamed.source, "stream");
        assert_eq!(buffered.jobs_completed, streamed.jobs_completed);
        assert_eq!(buffered.mean_sojourn.to_bits(), streamed.mean_sojourn.to_bits());
        assert_eq!(buffered.sim_time.to_bits(), streamed.sim_time.to_bits());
    }

    #[test]
    fn streamed_source_reports_the_offending_line() {
        let e = engine();
        let opts = ServeOptions { seed: 4, report_every: 1, ..Default::default() };
        // One good line, then more than two ingest batches of them.
        for k in [1, 2 * INGEST_BATCH + 5] {
            let jobs: Vec<Job> = (0..k).map(|i| Job { t: i as f64 / 1024.0, size: 1.0 }).collect();
            let mut text: String = jobs.iter().map(|j| j.to_jsonl() + "\n").collect();
            text.push_str("{\"t\": 9.0, \"size\": -2.0}\n");
            let bad_line = format!("line {}", k + 1);

            // The reader hands over all k jobs, then the error.
            let mut reader = LineTraceReader::new(Box::new(std::io::Cursor::new(text.clone())));
            let mut served = 0;
            while let Some((t, _)) = reader.peek(0.0, 0) {
                assert_eq!(t.to_bits(), jobs[served].t.to_bits());
                reader.advance();
                served += 1;
            }
            assert_eq!(served, k);
            let err = reader.take_error().expect("the bad line must surface").to_string();
            assert!(err.contains(&bad_line), "{err}");

            // Served, every interval before the one admitting job k
            // dispatches exactly what the buffered replay does.
            let mut buffered = Vec::new();
            serve(&e, &jsq(), "JSQ(2)", &JobSource::Trace(jobs.clone()), &opts, |t| {
                buffered.push(t.clone())
            })
            .unwrap();
            let stream = JobSource::Stream(RefCell::new(LineTraceReader::new(Box::new(
                std::io::Cursor::new(text),
            ))));
            let mut streamed = Vec::new();
            let err = serve(&e, &jsq(), "JSQ(2)", &stream, &opts, |t| streamed.push(t.clone()))
                .unwrap_err()
                .to_string();
            assert!(err.contains(&bad_line), "{err}");
            assert!(err.contains("positive"), "{err}");
            let dt = e.config().dt;
            assert_eq!(streamed.len(), (jobs[k - 1].t / dt).floor() as usize);
            assert_eq!(streamed[..], buffered[..streamed.len()]);
        }
    }

    /// A reader fed chunk by chunk over a channel: `fill_buf` blocks
    /// until the next chunk arrives; the input ends when the sender hangs
    /// up.
    struct Gated {
        rx: std::sync::mpsc::Receiver<Vec<u8>>,
        chunk: Vec<u8>,
        pos: usize,
    }

    impl Gated {
        fn new(rx: std::sync::mpsc::Receiver<Vec<u8>>) -> Self {
            Self { rx, chunk: Vec::new(), pos: 0 }
        }
    }

    impl std::io::Read for Gated {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Gated {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            while self.pos == self.chunk.len() {
                match self.rx.recv() {
                    Ok(chunk) => (self.chunk, self.pos) = (chunk, 0),
                    Err(_) => break,
                }
            }
            Ok(&self.chunk[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    #[test]
    fn streamed_jobs_are_not_held_back_behind_a_blocked_read() {
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(b"{\"t\": 0.5, \"size\": 1.0}\n{\"t\": 0.75,".to_vec()).unwrap();
        let mut reader = LineTraceReader::new(Box::new(Gated::new(rx)));
        // The ingest thread now blocks reading the rest of line 2; line 1
        // must already be available.
        assert_eq!(reader.peek(0.0, 0), Some((0.5, 1.0)));
        reader.advance();
        tx.send(b" \"size\": 2.0}\n".to_vec()).unwrap();
        assert_eq!(reader.peek(0.5, 1), Some((0.75, 2.0)), "a partial line carries over");
        reader.advance();
        drop(tx);
        assert_eq!(reader.peek(0.75, 2), None);
        assert!(reader.exhausted());
        assert!(reader.take_error().is_none());
    }

    #[test]
    fn max_jobs_returns_without_joining_a_blocked_ingest_thread() {
        let e = engine();
        let (tx, rx) = std::sync::mpsc::channel();
        let text: String =
            (0..50).map(|i| Job { t: 0.1 * i as f64, size: 0.5 }.to_jsonl() + "\n").collect();
        tx.send(text.into_bytes()).unwrap();
        // `tx` stays alive, so after 50 lines the stream never ends: the
        // ingest thread blocks on its next read for as long as the test
        // runs.
        let stream =
            JobSource::Stream(RefCell::new(LineTraceReader::new(Box::new(Gated::new(rx)))));
        let opts = ServeOptions { max_jobs: Some(30), seed: 5, ..Default::default() };
        let report = serve(&e, &jsq(), "JSQ(2)", &stream, &opts, |_| {}).unwrap();
        assert_eq!(report.jobs_arrived, 30);
        assert_eq!(report.jobs_in_system, 0);
        drop(stream);
        drop(tx);
    }

    #[test]
    fn streamed_non_utf8_line_is_an_error_naming_it() {
        let text = b"{\"t\": 0.0, \"size\": 1.0}\n{\"t\": 0.5, \"size\": \xff1.0}\n{\"t\": 1.0, \"size\": 1.0}\n";
        // A retry would sleep 2 s before reading on.
        let reader =
            LineTraceReader::with_retry(Box::new(std::io::Cursor::new(text.to_vec())), 3, 2000);
        let stream = JobSource::Stream(RefCell::new(reader));
        let start = Instant::now();
        let err = serve(&engine(), &jsq(), "JSQ(2)", &stream, &ServeOptions::default(), |_| {})
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2") && err.contains("invalid UTF-8"), "{err}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "the line must not be retried"
        );
    }

    #[test]
    fn scanner_decodes_numeric_objects_and_defers_the_rest() {
        let job = Job { t: 0.1 + 0.2, size: 1e-7 };
        assert_eq!(scan_job(&job.to_jsonl()), Some(job));
        let reordered = " {\"size\" :2 ,\"x\":-1e3,\t\"t\": 7.5, \"t\": 9}";
        assert_eq!(scan_job(reordered), Some(Job { t: 7.5, size: 2.0 }));
        for deferred in [
            "{\"\\u0074\": 1.0, \"size\": 1.0}",
            "{\"t\": \"inf\", \"size\": 1.0}",
            "{\"t\": 1.0, \"size\": 1.0, \"tag\": [1]}",
            "{\"t\": 1.0}",
            "{\"t\": 1.0, \"size\": 1.0} x",
            "{\"t\": 1.0, \"size\": 1.0,}",
            "{\"t\": 1.2.3, \"size\": 1.0}",
        ] {
            assert_eq!(scan_job(deferred), None, "{deferred}");
        }
    }

    #[test]
    fn recorded_synthetic_run_replays_bit_identically() {
        let e = engine();
        let opts = ServeOptions { duration: Some(30.0), seed: 13, ..Default::default() };
        let mut recorded = Vec::new();
        let live = serve_with(
            &e,
            &jsq(),
            "JSQ(2)",
            None,
            &JobSource::Synthetic,
            &opts,
            Some(&mut recorded),
            |_| {},
        )
        .unwrap();
        assert!(!recorded.is_empty());
        let replay =
            serve(&e, &jsq(), "JSQ(2)", &JobSource::Trace(recorded), &opts, |_| {}).unwrap();
        assert_eq!(live.jobs_arrived, replay.jobs_arrived);
        assert_eq!(live.jobs_completed, replay.jobs_completed);
        assert_eq!(live.jobs_dropped, replay.jobs_dropped);
        assert_eq!(live.mean_sojourn.to_bits(), replay.mean_sojourn.to_bits());
        assert_eq!(live.drop_fraction.to_bits(), replay.drop_fraction.to_bits());
    }

    #[test]
    fn admission_cap_sheds_and_keeps_job_mass_conserved() {
        let e = engine();
        let opts = ServeOptions {
            duration: Some(40.0),
            seed: 7,
            admission_cap: Some(5),
            ..Default::default()
        };
        let report = serve(&e, &jsq(), "JSQ(2)", &JobSource::Synthetic, &opts, |_| {}).unwrap();
        assert!(report.jobs_shed > 0, "a tight cap must shed under paper load");
        assert_eq!(
            report.jobs_arrived,
            report.jobs_completed + report.jobs_dropped + report.jobs_shed + report.jobs_in_system
        );
        assert!(report.loss_fraction >= report.drop_fraction);
    }

    #[test]
    fn watchdog_degrades_to_the_fallback_tier_under_observation_faults() {
        let plan = FaultPlan::from_json(r#"{"observation": {"drop_prob": 0.9}}"#).unwrap();
        let e = engine().with_faults(plan);
        let opts = ServeOptions {
            duration: Some(60.0),
            seed: 2,
            staleness_threshold: Some(2),
            ..Default::default()
        };
        let fb = jsq();
        let report =
            serve_with(&e, &jsq(), "JSQ(2)", Some(&fb), &JobSource::Synthetic, &opts, None, |_| {})
                .unwrap();
        assert!(report.observation_dropped > 0);
        assert!(report.fallback_activations > 0, "watchdog must trip at 90% drop");
        assert!(report.fallback_intervals >= report.fallback_activations);
        // Hysteresis: activations are sticky — far fewer switches than
        // degraded intervals.
        assert!(report.fallback_intervals <= report.intervals);
    }

    #[test]
    fn watchdog_without_fallback_tier_is_a_usage_error() {
        let e = engine();
        let opts = ServeOptions { staleness_threshold: Some(3), ..Default::default() };
        let err = serve(&e, &jsq(), "JSQ(2)", &JobSource::Synthetic, &opts, |_| {})
            .unwrap_err()
            .to_string();
        assert!(err.contains("fallback"), "{err}");
    }
}
