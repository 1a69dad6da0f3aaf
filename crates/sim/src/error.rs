//! Typed errors for the scenario layer and the serve runtime.
//!
//! [`crate::scenario`] and [`mod@crate::serve`] used to report failures as
//! `Result<_, String>`; downstream tools need to distinguish a malformed
//! trace line from an I/O failure (retry? abort?) and to compose with
//! `std::error::Error` consumers, so both now report structured enums
//! following the `mflb_dp::DpError` pattern. Every `Display` rendering is
//! byte-compatible with the old string messages — the CLI's exit-2
//! diagnostics and the tests pinning them are unchanged — and both types
//! convert [`Into`] `String` so legacy `Result<_, String>` call sites keep
//! composing with `?`.

use std::fmt;

/// Errors from validating or building a [`crate::Scenario`].
#[derive(Debug)]
pub enum ScenarioError {
    /// The embedded `SystemConfig` is inconsistent.
    Config(String),
    /// The fault plan is invalid or attached to an engine that cannot
    /// honor one.
    Faults(String),
    /// The service-time law ([`crate::ServiceLaw`]) is invalid.
    Service(String),
    /// The graph topology is invalid for this queue count.
    Topology(String),
    /// The job-size law is invalid.
    JobSize(String),
    /// An engine-specific parameter (pool, cohorts, shard size) is
    /// invalid.
    Engine(String),
    /// The scenario JSON could not be parsed (syntax, unknown engine
    /// kind, missing field).
    Json(serde_json::Error),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Config(e) => write!(f, "config: {e}"),
            ScenarioError::Faults(e) => write!(f, "faults: {e}"),
            ScenarioError::Service(e) => write!(f, "service: {e}"),
            ScenarioError::Topology(e) => write!(f, "topology: {e}"),
            ScenarioError::JobSize(e) => write!(f, "job_size: {e}"),
            // Engine complaints already name their subject ("hetero pool
            // has …"); no prefix, matching the historical messages.
            ScenarioError::Engine(e) => write!(f, "{e}"),
            ScenarioError::Json(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Json(e)
    }
}

// Legacy `Result<_, String>` pipelines (the RL eval path, examples,
// bench bins) keep composing with `?`.
impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> Self {
        e.to_string()
    }
}

/// Errors from a [`crate::serve()`] run or from trace parsing.
#[derive(Debug)]
pub enum ServeError {
    /// A trace line is not valid JSON.
    TraceParse {
        /// 1-based line number.
        line: usize,
        /// Underlying deserialization error.
        source: serde_json::Error,
    },
    /// A trace job's arrival time is not finite and nonnegative.
    ArrivalTime {
        /// 1-based line number.
        line: usize,
        /// The offending arrival time.
        t: f64,
    },
    /// A trace job's arrival time went backwards.
    ArrivalOrder {
        /// 1-based line number.
        line: usize,
        /// The offending arrival time.
        t: f64,
        /// The previous job's arrival time.
        last_t: f64,
    },
    /// A trace job's size is not positive and finite.
    JobSize {
        /// 1-based line number.
        line: usize,
        /// The offending size.
        size: f64,
    },
    /// A trace job arrives, or takes service, beyond the horizon cap of
    /// [`mflb_core::config::MAX_EVAL_EPOCHS`] sync intervals.
    BeyondHorizon {
        /// 1-based line number.
        line: usize,
        /// What spans too many intervals: `"arrival time"` or `"job size"`.
        what: &'static str,
        /// The offending arrival time or size.
        value: f64,
        /// Sync intervals it spans (`t / Δt`, or `size / (α·Δt)`).
        intervals: f64,
    },
    /// A streamed trace line is not valid UTF-8.
    TraceUtf8 {
        /// 1-based line number.
        line: usize,
        /// Where the line stops being UTF-8.
        source: std::str::Utf8Error,
    },
    /// A streamed trace read failed even after retries.
    TraceIo {
        /// 1-based line number being read.
        line: usize,
        /// Retry budget that was exhausted.
        retries: u32,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The requested serve duration is not positive and finite.
    Duration(f64),
    /// A synthetic run with no job cap would span more than
    /// [`mflb_core::config::MAX_EVAL_EPOCHS`] sync intervals.
    DurationBeyondHorizon {
        /// The requested duration.
        duration: f64,
        /// Sync intervals it spans (`duration / Δt`).
        intervals: f64,
    },
    /// A staleness threshold of zero intervals was requested.
    StalenessZero,
    /// A staleness threshold was set without a fallback policy tier.
    MissingFallback,
    /// A [`crate::ServeReport`] could not be parsed back from JSON.
    Report(serde_json::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::TraceParse { line, source } => write!(f, "trace line {line}: {source}"),
            ServeError::ArrivalTime { line, t } => {
                write!(f, "trace line {line}: arrival time must be finite and nonnegative, got {t}")
            }
            ServeError::ArrivalOrder { line, t, last_t } => write!(
                f,
                "trace line {line}: arrival times must be nondecreasing, got {t} after {last_t}"
            ),
            ServeError::JobSize { line, size } => {
                write!(f, "trace line {line}: job size must be positive and finite, got {size}")
            }
            ServeError::BeyondHorizon { line, what, value, intervals } => write!(
                f,
                "trace line {line}: {what} {value:e} spans {intervals:e} sync intervals, more \
                 than the cap of {}",
                mflb_core::config::MAX_EVAL_EPOCHS
            ),
            ServeError::TraceUtf8 { line, source } => {
                write!(f, "trace line {line}: invalid UTF-8: {source}")
            }
            ServeError::TraceIo { line, retries, source } => {
                write!(f, "trace line {line}: read failed after {retries} retries: {source}")
            }
            ServeError::Duration(te) => {
                write!(f, "serve duration must be positive and finite, got {te}")
            }
            ServeError::DurationBeyondHorizon { duration, intervals } => write!(
                f,
                "a synthetic serve run of duration {duration:e} spans {intervals:e} sync \
                 intervals, more than the cap of {}; shorten it or cap the job count",
                mflb_core::config::MAX_EVAL_EPOCHS
            ),
            ServeError::StalenessZero => {
                write!(f, "staleness threshold must be at least 1 interval")
            }
            ServeError::MissingFallback => {
                write!(f, "a staleness threshold needs a fallback policy tier")
            }
            ServeError::Report(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::TraceParse { source, .. } => Some(source),
            ServeError::TraceUtf8 { source, .. } => Some(source),
            ServeError::TraceIo { source, .. } => Some(source),
            ServeError::Report(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for String {
    fn from(e: ServeError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_display_keeps_the_historical_prefixes() {
        assert_eq!(
            ScenarioError::Config("d must be at least 1".into()).to_string(),
            "config: d must be at least 1"
        );
        assert_eq!(
            ScenarioError::Engine("hetero server rates must be positive and finite".into())
                .to_string(),
            "hetero server rates must be positive and finite"
        );
        assert!(std::error::Error::source(&ScenarioError::Config("x".into())).is_none());
    }

    #[test]
    fn serve_display_matches_the_historical_trace_diagnostics() {
        assert_eq!(
            ServeError::ArrivalTime { line: 3, t: -1.0 }.to_string(),
            "trace line 3: arrival time must be finite and nonnegative, got -1"
        );
        assert_eq!(
            ServeError::ArrivalOrder { line: 2, t: 1.0, last_t: 2.0 }.to_string(),
            "trace line 2: arrival times must be nondecreasing, got 1 after 2"
        );
        assert_eq!(
            ServeError::JobSize { line: 1, size: 0.0 }.to_string(),
            "trace line 1: job size must be positive and finite, got 0"
        );
        assert_eq!(
            ServeError::BeyondHorizon { line: 4, what: "job size", value: 1e300, intervals: 2e300 }
                .to_string(),
            "trace line 4: job size 1e300 spans 2e300 sync intervals, more than the cap of 1000000"
        );
        assert_eq!(
            ServeError::Duration(-3.0).to_string(),
            "serve duration must be positive and finite, got -3"
        );
        let io = ServeError::TraceIo {
            line: 7,
            retries: 3,
            source: std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed"),
        };
        let text = io.to_string();
        assert!(text.starts_with("trace line 7: read failed after 3 retries:"), "{text}");
        assert!(std::error::Error::source(&io).is_some());
    }

    #[test]
    fn errors_convert_into_strings_for_legacy_pipelines() {
        let s: String = ServeError::StalenessZero.into();
        assert_eq!(s, "staleness threshold must be at least 1 interval");
        let s: String = ScenarioError::Topology("ring radius 0".into()).into();
        assert_eq!(s, "topology: ring radius 0");
    }
}
