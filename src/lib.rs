//! # meanfield-lb (`mflb`)
//!
//! Umbrella crate for the reproduction of **"Learning Mean-Field Control for
//! Delayed Information Load Balancing in Large Queuing Systems"** (Tahir,
//! Cui & Koeppl, ICPP '22). It re-exports the public API of every workspace
//! crate so downstream users can depend on a single crate:
//!
//! * [`linalg`] — dense matrices, the uniformization epoch kernel, matrix
//!   exponentials, statistics,
//! * [`queue`] — CTMC queueing substrate, exact queue simulation, samplers,
//! * [`core`] — the mean-field control model and its exactly-discretized MDP,
//! * [`policy`] — JSQ(d)/SED(d)/RND/softmin/learned load-balancing policies,
//! * [`sim`] — the finite N-client M-queue simulator (Algorithm 1),
//! * [`nn`] — the minimal neural-network substrate,
//! * [`rl`] — hand-rolled PPO, REINFORCE and CEM,
//! * [`dp`] — exact value iteration on the discretized MFC MDP,
//! * [`bench`](mod@bench) — the paper-artifact harness and the tracked
//!   perf suite behind `mflb bench`,
//! * [`cli`] — the flag table of every `mflb` subcommand.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod cli;

pub use mflb_bench as bench;
pub use mflb_core as core;
pub use mflb_dp as dp;
pub use mflb_linalg as linalg;
pub use mflb_nn as nn;
pub use mflb_policy as policy;
pub use mflb_queue as queue;
pub use mflb_rl as rl;
pub use mflb_sim as sim;
