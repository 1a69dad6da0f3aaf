//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index).
//!
//! Binaries (every figure and ablation binary accepts `--scale
//! quick|paper`; [`harness::BINARIES`] declares each one's flags):
//!
//! * `table1_params`, `table2_hyperparams` — the configuration tables,
//! * `fig3_training` — PPO training curve vs MF-JSQ(2)/MF-RND baselines,
//! * `fig4_convergence` — finite-system → mean-field convergence over M,
//! * `fig5_delay_sweep` — MF vs JSQ(2) vs RND over Δt (N = M²),
//! * `fig6_ablation` — the N ⋡ M ablation,
//! * `train_policy` — trains and checkpoints an MF policy for a given Δt,
//! * `fig_locality` — drops vs dispatcher neighborhood size (ours),
//! * `fig_sparse_scale` — sharded sparse-graph epoch throughput from
//!   10^4 to 10^6 queues (ours).
//!
//! [`perf`] holds the timed suites behind `mflb bench` and the
//! `mflb bench-diff` gate.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod chart;
pub mod flags;
pub mod harness;
pub mod inputs;
pub mod perf;
pub mod training;
