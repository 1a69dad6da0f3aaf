//! The flag table of every `mflb` subcommand.
//!
//! `src/main.rs` parses its command line against these tables and renders
//! `mflb help` from them; they live in the library so tests can check a
//! documented invocation without running it.

use crate::bench::flags::Kind::{Choice, Count, Counts, Number, Switch, Text};
use crate::bench::flags::{Command, Flag, Group};

const SCENARIO: Flag = Flag::new("--scenario", Text, "scenario spec JSON (wins over engine flags)");
const CHECKPOINT: Flag = Flag::new("--checkpoint", Text, "training checkpoint (required)");
const SCENARIO_OVERRIDE: Flag =
    Flag::new("--scenario", Text, "scenario spec JSON [default the checkpoint's]");
const SEED: Flag = Flag::new("--seed", Count, "RNG seed").default("1");
const SCALES: &[&str] = &["quick", "paper", "full"];

const fn workers(default: &'static str) -> Flag {
    Flag::new("--workers", Count, "worker threads (0 = all cores)")
        .default(default)
        .alias("--threads")
}

const fn runs(default: &'static str) -> Flag {
    Flag::new("--runs", Count, "Monte-Carlo runs").default(default)
}

/// The system size and delay, read when no `--scenario` is given.
pub static SYSTEM: Group = Group {
    name: "system flags",
    flags: &[
        Flag::new("--dt", Number, "synchronization delay Δt").default("5"),
        Flag::new("--m", Count, "number of queues M").default("100"),
        Flag::new("--n", Count, "number of clients N [default M²]"),
        Flag::new("--buffer", Count, "queue buffer size B").default("5"),
        Flag::new("--d", Count, "queues sampled per dispatch").default("2"),
    ],
};

const ENGINES: &[&str] =
    &["aggregate", "perclient", "staggered", "ph", "joblevel", "graph", "event"];

/// The engine built when no `--scenario` is given.
pub static ENGINE: Group = Group {
    name: "engine flags",
    flags: &[
        Flag::new("--engine", Choice(ENGINES), "hetero pools need --scenario").default("aggregate"),
        Flag::new("--cohorts", Count, "refresh cohorts (staggered)").default("4"),
        Flag::new("--scv", Number, "service-time SCV (ph)").default("2"),
        Flag::new("--topology", Choice(&["ring", "torus", "random", "full"]), "graph topology")
            .default("ring"),
        Flag::new("--radius", Count, "ring/torus neighborhood radius").default("1"),
        Flag::new("--degree", Count, "random-regular degree").default("4"),
        Flag::new("--graph-seed", Count, "random-regular graph seed").default("1"),
        Flag::new("--job-size", Choice(&["exp", "pareto", "bpareto"]), "job-size law (event)")
            .default("exp"),
        Flag::new("--job-rate", Number, "exponential job rate").default("1"),
        Flag::new("--job-shape", Number, "Pareto shape [default 2, bpareto 1.5]"),
        Flag::new("--job-scale", Number, "Pareto scale").default("0.5"),
        Flag::new("--job-lo", Number, "bounded-Pareto lower bound").default("0.2"),
        Flag::new("--job-hi", Number, "bounded-Pareto upper bound").default("20"),
    ],
};

/// Fault injection; malformed plans exit 2.
pub static FAULTS: Group = Group {
    name: "fault flags",
    flags: &[Flag::new("--faults", Text, "fault plan JSON; overrides a scenario-embedded plan")],
};

const TIERS: &[&str] = &["jsq", "rnd", "softmin", "checkpoint", "distilled"];

/// The dispatch policy.
pub static POLICY: Group = Group {
    name: "policy flags",
    flags: &[
        Flag::new("--policy", Choice(TIERS), "[default jsq; serve: checkpoint if --checkpoint]"),
        Flag::new("--beta", Number, "softmin temperature").default("1"),
        Flag::new("--checkpoint", Text, "training or distilled checkpoint"),
    ],
};

/// The neural inference tier.
pub static INFERENCE: Group = Group {
    name: "inference flags",
    flags: &[
        Flag::new("--precision", Choice(&["f64", "f32"]), "f64 matches training").default("f64"),
        Flag::new("--fast-math", Switch, "rational tanh approximation instead of libm tanh"),
    ],
};

/// The DP oracle's solve budget.
pub static ORACLE: Group = Group {
    name: "oracle flags",
    flags: &[
        Flag::new("--oracle-sweeps", Count, "value-iteration sweep cap").default("4000"),
        Flag::new("--oracle-cache", Text, "solve cache dir, or `none`").default("target/oracle"),
    ],
};

/// Every subcommand, in usage order.
pub static COMMANDS: &[Command] = &[
    Command::new(
        "train",
        "train a PPO policy for a scenario -> versioned checkpoint + curve JSON",
        &[
            SCENARIO,
            Flag::new("--scale", Choice(SCALES), "PPO preset (full = paper)").default("quick"),
            Flag::new("--iters", Count, "PPO iterations [default 60 quick, 6250 paper]"),
            SEED,
            workers("1"),
            Flag::new(
                "--out",
                Text,
                "checkpoint [default target/checkpoints/mf_<engine>_dt<Δt>.json]",
            ),
            Flag::new("--curve", Text, "training curve JSON [default <out>.curve.json]"),
            Flag::new("--init", Text, "warm-start from this training checkpoint's network"),
        ],
        &[&ENGINE, &SYSTEM, &FAULTS],
    ),
    Command::new(
        "eval",
        "evaluate a checkpoint vs JSQ/RND/softmin on its finite system -> JSON table",
        &[
            CHECKPOINT,
            SCENARIO_OVERRIDE,
            Flag::new("--m", Counts, "queue counts to sweep [default the scenario's M]"),
            runs("20"),
            SEED,
            workers("0"),
            Flag::new("--oracle", Switch, "add an exact-DP row and optimality-gap column"),
            Flag::new("--oracle-grid", Count, "oracle lattice resolution").default("8"),
            Flag::new(
                "--max-gap",
                Number,
                "exit 1 when the learned gap exceeds this % (implies --oracle)",
            ),
            Flag::new(
                "--out",
                Text,
                "JSON table [default target/experiments/eval_<engine>_dt<Δt>.json]",
            ),
        ],
        &[&FAULTS, &INFERENCE, &ORACLE],
    ),
    Command::new(
        "distill",
        "project a checkpoint onto a tabular lattice policy via the DP oracle",
        &[
            CHECKPOINT,
            SCENARIO_OVERRIDE,
            Flag::new("--grid", Count, "lattice resolution").default("8").alias("--oracle-grid"),
            Flag::new("--slack", Number, "DP-polish slack").default("0.005"),
            Flag::new("--runs", Count, "finite-system check runs (0 skips it)").default("8"),
            SEED,
            workers("0"),
            Flag::new(
                "--out",
                Text,
                "table [default target/checkpoints/distilled_<engine>_dt<Δt>.json]",
            ),
        ],
        &[&ORACLE],
    ),
    Command::new(
        "simulate",
        "run a finite-system Monte-Carlo evaluation",
        &[
            SCENARIO,
            runs("20"),
            SEED,
            workers("0"),
            Flag::new("--record-trace", Text, "instead record one synthetic serve run as JSONL"),
            Flag::new(
                "--duration",
                Number,
                "recorded run length [default the scenario's eval_time]",
            ),
        ],
        &[&ENGINE, &SYSTEM, &FAULTS, &POLICY, &INFERENCE],
    ),
    Command::new(
        "meanfield",
        "evaluate a policy in the limiting mean-field MDP",
        &[Flag::new("--episodes", Count, "episodes").default("100"), SEED],
        &[&SYSTEM, &POLICY, &INFERENCE],
    ),
    Command::new(
        "compare",
        "JSQ vs RND vs tuned softmin on one configuration",
        &[runs("20"), SEED],
        &[&SYSTEM],
    ),
    Command::new("tune-beta", "find the optimal softmin temperature for a Δt", &[SEED], &[&SYSTEM]),
    Command::new(
        "dp-solve",
        "solve the lattice DP (certified optimum)",
        &[
            Flag::new("--grid", Count, "lattice resolution").default("8"),
            Flag::new("--out", Text, "write the solution JSON here"),
            SEED,
        ],
        &[&SYSTEM],
    ),
    Command::new(
        "scv-compare",
        "phase-type service: mean-field vs finite at a given --scv",
        &[Flag::new("--scv", Number, "service-time SCV").default("2"), runs("16"), SEED],
        &[&SYSTEM, &POLICY, &INFERENCE],
    ),
    Command::new(
        "fit-mmpp",
        "estimate an L-level MMPP from a rate trace",
        &[
            Flag::new("--trace", Text, "whitespace- or comma-separated rates [default a demo]"),
            Flag::new("--levels", Count, "MMPP levels L").default("2"),
            SEED,
        ],
        &[],
    ),
    Command::new(
        "serve",
        "online dispatcher on the event engine: JSON tick lines + final report on stdout",
        &[
            SCENARIO,
            Flag::new("--trace", Text, "JSONL job trace, `-` streams stdin [default synthetic]"),
            Flag::new("--ingest-retries", Count, "stdin read retries").default("3"),
            Flag::new("--ingest-backoff-ms", Count, "stdin retry backoff").default("50"),
            Flag::new("--max-jobs", Count, "stop admitting after this many jobs"),
            Flag::new("--duration", Number, "simulated run length"),
            Flag::new("--report-every", Count, "intervals per tick line").default("10"),
            SEED,
            Flag::new("--admission-cap", Count, "shed arrivals above this many jobs in system"),
            Flag::new("--staleness-threshold", Count, "stale intervals before the fallback"),
            Flag::new("--fallback", Choice(&["jsq", "softmin"]), "static fallback tier"),
            Flag::new("--fallback-beta", Number, "softmin fallback temperature").default("1"),
            Flag::new("--out", Text, "also write the final report JSON here"),
        ],
        &[&ENGINE, &SYSTEM, &FAULTS, &POLICY, &INFERENCE],
    ),
    Command::new(
        "bench",
        "run a tracked perf suite -> BENCH_<suite>.json",
        &[
            Flag::new("--quick", Switch, "CI scale"),
            Flag::new("--suite", Choice(&["kernels", "graph", "serve"]), "suite")
                .default("kernels"),
            workers("1"),
            Flag::new("--out", Text, "report JSON [default BENCH_<suite>.json]"),
        ],
        &[],
    ),
    Command::new(
        "bench-diff",
        "gate a fresh perf report against the committed baseline (exit 1 on regression)",
        &[
            Flag::new("--baseline", Text, "baseline report").default("BENCH_kernels.json"),
            Flag::new("--fresh", Text, "fresh report (required)"),
            Flag::new("--max-ratio", Number, "largest tolerated speedup loss").default("1.3"),
        ],
        &[],
    ),
    Command {
        name: "validate",
        about: "validate scenario spec files (exit 1 on any invalid file)",
        flags: &[],
        groups: &[],
        positional: Some("<scenario.json>..."),
    },
    Command::new("help", "print this synopsis", &[], &[]),
];

/// The table of subcommand `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}
