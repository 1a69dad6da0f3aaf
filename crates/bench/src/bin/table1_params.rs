//! Regenerates Table 1 (system parameters used in the experiments).

use mflb_bench::sweep::{Cell, Table};
use mflb_core::SystemConfig;

fn main() {
    // No flags: anything on the command line is an error (exit 2).
    mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let c = SystemConfig::paper();
    let rows: [[String; 3]; 12] = [
        ["Δt".into(), "Time step size".into(), "1 - 10".into()],
        ["α".into(), "Service rate".into(), format!("{}", c.service_rate)],
        [
            "(λh, λl)".into(),
            "Arrival rates".into(),
            format!("({}, {})", c.arrivals.level_rate(0), c.arrivals.level_rate(1)),
        ],
        ["N".into(), "Number of clients".into(), "1000 - 1000000".into()],
        ["M".into(), "Number of queues".into(), "100 - 1000".into()],
        ["d".into(), "Number of accessible queues".into(), format!("{}", c.d)],
        ["n".into(), "Monte Carlo simulations".into(), "100".into()],
        ["B".into(), "Queue buffer size".into(), format!("{}", c.buffer)],
        ["ν0".into(), "Queue starting state distribution".into(), "[1, 0, 0, ...]".into()],
        ["D".into(), "Drop penalty per job".into(), "1".into()],
        ["T".into(), "Training episode length".into(), format!("{}", c.train_episode_len)],
        [
            "Te".into(),
            "Evaluation episode length".into(),
            format!(
                "{} - {} (≈ {}/Δt)",
                c.clone().with_dt(10.0).eval_episode_len(),
                c.clone().with_dt(1.0).eval_episode_len(),
                c.eval_time
            ),
        ],
    ];
    let mut table = Table::new(&["Symbol", "Name", "Value"], &["symbol", "name", "value"]);
    for row in rows {
        table.push(row.map(Cell::text).to_vec());
    }
    table.print("Table 1: System parameters used in the experiments");
    table.write_csv("table1_params.csv");

    // Also show the modulation kernel (Eq. 32-33) for completeness.
    println!("\nArrival modulation kernel (Eq. 32-33):");
    println!("  P(λ(t+1)=λl | λ(t)=λh) = {}", c.arrivals.kernel_row(0)[1]);
    println!("  P(λ(t+1)=λh | λ(t)=λl) = {}", c.arrivals.kernel_row(1)[0]);
}
