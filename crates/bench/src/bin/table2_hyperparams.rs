//! Regenerates Table 2 (PPO hyper-parameter configuration).

use mflb_bench::harness::{print_table, write_csv};
use mflb_rl::PpoConfig;

fn main() {
    // No flags: anything on the command line is an error (exit 2).
    mflb_bench::harness::args(env!("CARGO_BIN_NAME"));
    let c = PpoConfig::paper();
    let rows: Vec<Vec<String>> = vec![
        vec!["γ".into(), "Discount factor".into(), format!("{}", c.gamma)],
        vec!["λRL".into(), "GAE lambda".into(), format!("{}", c.gae_lambda)],
        vec!["β".into(), "KL coefficient".into(), format!("{}", c.kl_coeff)],
        vec!["ε".into(), "Clip parameter".into(), format!("{}", c.clip)],
        vec!["lr".into(), "Learning rate".into(), format!("{}", c.lr)],
        vec!["Bb".into(), "Training batch size".into(), format!("{}", c.train_batch_size)],
        vec!["Bm".into(), "SGD mini batch size".into(), format!("{}", c.minibatch_size)],
        vec!["Tb".into(), "Number of epochs".into(), format!("{}", c.num_epochs)],
        vec!["net".into(), "Policy/value networks".into(), format!("{:?} tanh (Fig. 2)", c.hidden)],
    ];
    print_table(
        "Table 2: Hyperparameter configuration for PPO",
        &["Symbol", "Name", "Value"],
        &rows,
    );
    write_csv("table2_hyperparams.csv", &["symbol", "name", "value"], &rows);
}
