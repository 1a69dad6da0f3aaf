//! Regenerates Table 2 (PPO hyper-parameter configuration).

use mflb_bench::sweep::{Cell, Table};
use mflb_rl::PpoConfig;

fn main() {
    // No flags: anything on the command line is an error (exit 2).
    mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let c = PpoConfig::paper();
    let rows: [[String; 3]; 9] = [
        ["γ".into(), "Discount factor".into(), format!("{}", c.gamma)],
        ["λRL".into(), "GAE lambda".into(), format!("{}", c.gae_lambda)],
        ["β".into(), "KL coefficient".into(), format!("{}", c.kl_coeff)],
        ["ε".into(), "Clip parameter".into(), format!("{}", c.clip)],
        ["lr".into(), "Learning rate".into(), format!("{}", c.lr)],
        ["Bb".into(), "Training batch size".into(), format!("{}", c.train_batch_size)],
        ["Bm".into(), "SGD mini batch size".into(), format!("{}", c.minibatch_size)],
        ["Tb".into(), "Number of epochs".into(), format!("{}", c.num_epochs)],
        ["net".into(), "Policy/value networks".into(), format!("{:?} tanh (Fig. 2)", c.hidden)],
    ];
    let mut table = Table::new(&["Symbol", "Name", "Value"], &["symbol", "name", "value"]);
    for row in rows {
        table.push(row.map(Cell::text).to_vec());
    }
    table.print("Table 2: Hyperparameter configuration for PPO");
    table.write_csv("table2_hyperparams.csv");
}
