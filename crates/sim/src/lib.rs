//! Finite `N`-client `M`-queue system simulator (Algorithm 1 of the
//! paper), built around one stateful [`Engine`] trait.
//!
//! Every engine owns an associated [`Engine::State`] (queue contents plus
//! reusable scratch buffers) and exposes three hooks — `init_state`,
//! `empirical`, `step` — so the one episode loop
//! ([`run_episodes_lockstep`], on the arrival chain or a prescribed `λ`
//! path; [`run_episode`] is its one-episode case) and the thread-parallel
//! [`monte_carlo()`] fan-out work identically for all of them:
//!
//! * [`client::PerClientEngine`] — the literal model: every client samples
//!   `d` queues, observes their stale states, draws its destination from
//!   the decision rule; `O(N·d)` per epoch;
//! * [`aggregate::AggregateEngine`] — exact hierarchical-multinomial
//!   aggregation of the client layer, `O(M)` per epoch, *identical in
//!   law* (see its module docs for the argument). This is what makes the
//!   paper's `N = M² = 10^6` configurations tractable. It is generic over
//!   a per-queue [`aggregate::Service`]: [`Exponential`] (the
//!   paper's model), [`RateClasses`] (heterogeneous service rates with
//!   composite `(length, class)` observations, the paper's §5 extension) and
//!   [`mflb_queue::PhaseType`] (phase-type service over joint
//!   `(length, phase)` queue states, §5) — the service models of
//!   `mflb_core::service`, so the engine and its mean-field limit
//!   `mflb_core::mdp::MeanField` run on one type;
//! * [`staggered::StaggeredEngine`] — cohort-staggered information
//!   refreshes (the Zhou/Shroff/Wierman baseline), with per-client stale
//!   snapshots carried in its state;
//! * [`fifo_engine::FifoEngine`] — job-level FIFO queues reporting
//!   per-job sojourn times (the Fig. 8 response-time extension);
//! * [`graph_engine::GraphEngine`] — locality-constrained routing over a
//!   graph [`mflb_core::Topology`] (ring/torus/random-regular): each
//!   dispatcher samples its `d` queues from its closed neighborhood; the
//!   full mesh is the degenerate case and reproduces the aggregate
//!   engine's RNG stream bit for bit;
//! * [`event_engine::EventEngine`] — continuous-time job-level engine
//!   with exponential or Pareto/bounded-Pareto job sizes
//!   ([`mflb_core::JobSizeLaw`]) that runs each sync interval queue by
//!   queue (an admission-capped one on a heap of pending completions);
//!   the [`serve()`] runtime drives it as a long-running dispatcher over
//!   synthetic or replayed-trace job streams (`mflb serve`).
//!
//! [`scenario`] adds a serde-driven construction layer: a [`Scenario`]
//! (engine kind + [`mflb_core::SystemConfig`] + service law / pool /
//! cohort parameters) validates itself and builds an [`AnyEngine`] from
//! data, so benches, examples and downstream tools can describe whole
//! experiments as JSON.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod aggregate;
pub mod client;
pub mod episode;
pub mod error;
pub mod event_engine;
pub mod fifo_engine;
pub mod graph_engine;
pub mod monte_carlo;
pub mod scenario;
pub mod serve;
pub mod staggered;

pub use aggregate::{AggregateEngine, Exponential, RateClasses};
pub use client::PerClientEngine;
pub use episode::{
    run_episode, run_episodes_lockstep, run_rng, sample_initial_queues, Engine, EpisodeOutcome,
    EpochStats,
};
pub use error::{ScenarioError, ServeError};
pub use event_engine::{EventEngine, EventState};
pub use fifo_engine::FifoEngine;
pub use graph_engine::{GraphEngine, GraphState};
pub use monte_carlo::{monte_carlo, monte_carlo_conditioned, MonteCarloResult};
pub use scenario::{AnyEngine, AnyState, EngineSpec, Scenario, ServiceLaw};
pub use serve::{
    parse_trace, parse_trace_line, serve, serve_with, Job, JobSource, LineTraceReader,
    ServeOptions, ServeReport, ServeTick,
};
pub use staggered::StaggeredEngine;
