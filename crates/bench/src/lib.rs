//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation, plus the extension experiments and the perf suites.
//!
//! Each binary in `src/bin/` reproduces one artifact;
//! [`harness::BINARIES`] declares every binary's name, one-line purpose
//! and flags (every figure and ablation binary accepts `--scale
//! quick|paper`), and the README's "Reproduction binaries" table maps
//! each one to the paper.
//!
//! * [`harness`] — flag tables, scales, the MF policy resolver and the
//!   fixed-rule baselines;
//! * [`sweep`] — the shared Monte-Carlo runner and the table that prints
//!   each result row and writes it to `target/experiments/`;
//! * [`perf`] — the timed suites behind `mflb bench` and the
//!   `mflb bench-diff` gate.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod chart;
pub mod flags;
pub mod harness;
pub mod inputs;
pub mod perf;
pub mod sweep;
pub mod training;
