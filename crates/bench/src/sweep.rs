//! The runner and the output table the experiment binaries share.
//!
//! * [`run_policies`] — policy `i` of a list on one engine through
//!   [`monte_carlo()`] at seed `seed + i`, the seed layout of every sweep;
//! * [`delay_sweep`] — the Fig. 5/6 grid (MF vs JSQ(2) vs RND over Δt)
//!   for a list of system sizes;
//! * [`Table`] of typed [`Cell`]s — each row is built once and renders
//!   both the printed table and the CSV under `target/experiments/`.

use crate::flags::exit_failure;
use crate::harness::{jsq_policy, mf_policy_for, rnd_policy, Scale};
use mflb_core::mdp::UpperPolicy;
use mflb_core::SystemConfig;
use mflb_sim::{monte_carlo, AggregateEngine, Engine, MonteCarloResult};
use std::fmt::Display;
use std::path::PathBuf;

/// Runs policy `i` of `policies` on `engine` as
/// `monte_carlo(engine, policy, horizon, runs, seed + i, 0)` and returns
/// the results in policy order.
pub fn run_policies<E: Engine>(
    engine: &E,
    policies: &[&(dyn UpperPolicy + Sync)],
    horizon: usize,
    runs: usize,
    seed: u64,
) -> Vec<MonteCarloResult> {
    policies.iter().zip(seed..).map(|(&p, s)| monte_carlo(engine, p, horizon, runs, s, 0)).collect()
}

/// One grid point of [`delay_sweep`].
pub struct DelayPoint {
    /// Number of clients `N`.
    pub n: u64,
    /// Number of queues `M`.
    pub m: usize,
    /// Synchronization delay Δt.
    pub dt: f64,
    /// Which MF policy ran (the [`mf_policy_for`] provenance label).
    pub provenance: String,
    /// MF, JSQ(2) and RND, in that order.
    pub results: Vec<MonteCarloResult>,
}

/// The Fig. 5/6 grid: for each `(N, M)` of `sizes` and each Δt of
/// [`Scale::dt_grid_fig5`], the resolved MF policy, JSQ(2) and RND on the
/// aggregate engine over the evaluation horizon, through
/// [`run_policies`].
pub fn delay_sweep(sizes: &[(u64, usize)], scale: Scale, seed: u64) -> Vec<DelayPoint> {
    let mut points = Vec::new();
    for &(n, m) in sizes {
        for dt in scale.dt_grid_fig5() {
            let cfg = SystemConfig::paper().with_dt(dt).with_size(n, m);
            let horizon = cfg.eval_episode_len();
            let mf = mf_policy_for(&cfg, horizon.min(120), seed);
            let (jsq, rnd) = (jsq_policy(&cfg), rnd_policy(&cfg));
            let engine = AggregateEngine::new(cfg);
            let policies: [&(dyn UpperPolicy + Sync); 3] = [mf.policy.as_ref(), &jsq, &rnd];
            let results = run_policies(&engine, &policies, horizon, scale.n_runs(), seed);
            points.push(DelayPoint { n, m, dt, provenance: mf.provenance, results });
        }
    }
    points
}

/// One table cell, rendered once into its printed field (if any) and its
/// CSV fields (any number).
#[derive(Debug, Clone)]
pub struct Cell {
    print: Option<String>,
    csv: Vec<String>,
}

impl Cell {
    /// Text, the same in both views.
    pub fn text(value: impl Display) -> Cell {
        let text = value.to_string();
        Cell { print: Some(text.clone()), csv: vec![text] }
    }

    /// A number with `print` decimals when printed and `csv` decimals in
    /// the CSV.
    pub fn num(value: f64, print: usize, csv: usize) -> Cell {
        Cell { print: Some(format!("{value:.print$}")), csv: vec![format!("{value:.csv$}")] }
    }

    /// A number in scientific notation with `print` (printed) and `csv`
    /// (CSV) mantissa decimals.
    pub fn sci(value: f64, print: usize, csv: usize) -> Cell {
        Cell { print: Some(format!("{value:.print$e}")), csv: vec![format!("{value:.csv$e}")] }
    }

    /// A mean with its 95% half-width: printed `{:.2} ± {:.2}`, written
    /// as two `{:.4}` CSV fields.
    pub fn mean_ci(mean: f64, ci: f64) -> Cell {
        Cell {
            print: Some(format!("{mean:.2} ± {ci:.2}")),
            csv: vec![format!("{mean:.4}"), format!("{ci:.4}")],
        }
    }

    /// Keeps only the first CSV field (the mean of a [`Cell::mean_ci`]).
    pub fn csv_mean_only(mut self) -> Cell {
        self.csv.truncate(1);
        self
    }

    /// Leaves the cell out of the CSV.
    pub fn print_only(mut self) -> Cell {
        self.csv.clear();
        self
    }

    /// Leaves the cell out of the printed table.
    pub fn csv_only(mut self) -> Cell {
        self.print = None;
        self
    }
}

/// Rows of [`Cell`]s under a printed header and a CSV header. A row must
/// have one printed field per printed column (checked by [`Table::print`])
/// and one CSV field per CSV column (checked by [`Table::write_csv`]); a
/// table that is only printed or only written leaves the other header
/// empty.
#[derive(Debug)]
pub struct Table {
    print_headers: &'static [&'static str],
    csv_headers: &'static [&'static str],
    rows: Vec<Vec<Cell>>,
    printed: usize,
}

impl Table {
    /// An empty table with the given column headers.
    pub fn new(
        print_headers: &'static [&'static str],
        csv_headers: &'static [&'static str],
    ) -> Table {
        Table { print_headers, csv_headers, rows: Vec::new(), printed: 0 }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<Cell>) {
        self.rows.push(row);
    }

    /// The table of every `step`-th row, starting with the first.
    pub fn every(&self, step: usize) -> Table {
        Table { rows: self.rows.iter().step_by(step).cloned().collect(), printed: 0, ..*self }
    }

    /// Prints the rows pushed since the last `print` as an aligned table
    /// under `title`.
    pub fn print(&mut self, title: &str) {
        print!("{}", self.render(title, &self.rows[self.printed..]));
        self.printed = self.rows.len();
    }

    fn render(&self, title: &str, rows: &[Vec<Cell>]) -> String {
        let rows: Vec<Vec<&str>> = rows
            .iter()
            .map(|row| row.iter().filter_map(|c| c.print.as_deref()).collect())
            .collect();
        let mut widths: Vec<usize> = self.print_headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            assert_eq!(row.len(), widths.len(), "row does not fill the columns of `{title}`");
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[&str]| -> String {
            let cells = cells.iter().zip(&widths).map(|(c, &width)| format!("{c:>width$}  "));
            cells.collect::<String>() + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
        let mut out = format!("\n=== {title} ===\n{}{rule}\n", line(self.print_headers));
        for row in &rows {
            out += &line(row);
        }
        out
    }

    /// The CSV text: the header line, then one line per row.
    fn csv(&self) -> String {
        let mut out = self.csv_headers.join(",") + "\n";
        for row in &self.rows {
            let fields: Vec<&str> = row.iter().flat_map(|c| &c.csv).map(String::as_str).collect();
            assert_eq!(fields.len(), self.csv_headers.len(), "row does not fill the CSV columns");
            out += &fields.join(",");
            out.push('\n');
        }
        out
    }

    /// Writes the CSV view to `target/experiments/<name>`; an I/O error
    /// exits with status 1 and names the path.
    pub fn write_csv(&self, name: &str) {
        let dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| exit_failure(format!("cannot create {}: {e}", dir.display())));
        let path = dir.join(name);
        std::fs::write(&path, self.csv())
            .unwrap_or_else(|e| exit_failure(format!("cannot write {}: {e}", path.display())));
        println!("[csv] wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::fixed_rules;

    #[test]
    fn policy_i_runs_at_seed_plus_i() {
        let cfg = SystemConfig::paper().with_dt(5.0).with_m_squared(5);
        let engine = AggregateEngine::new(cfg.clone());
        let [jsq, rnd, soft] = fixed_rules(&cfg, 1.0);
        let policies: [&(dyn UpperPolicy + Sync); 3] = [&jsq, &rnd, &soft];
        let results = run_policies(&engine, &policies, 20, 2, 40);
        assert_eq!(results.len(), 3);
        for ((&policy, result), seed) in policies.iter().zip(&results).zip(40..) {
            let direct = monte_carlo(&engine, policy, 20, 2, seed, 0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&result.per_run), bits(&direct.per_run), "{}", policy.name());
            assert_eq!(bits(&result.mean_drops_per_epoch), bits(&direct.mean_drops_per_epoch));
        }
    }

    #[test]
    fn one_row_renders_the_printed_and_the_csv_view() {
        let mut table =
            Table::new(&["policy", "drops", "beta*"], &["policy", "drops", "drops_ci", "beta"]);
        table.push(vec![
            Cell::text("JSQ(2)"),
            Cell::mean_ci(12.34567, 0.98765),
            Cell::num(0.5, 2, 4),
        ]);
        assert_eq!(table.csv(), "policy,drops,drops_ci,beta\nJSQ(2),12.3457,0.9877,0.5000\n");
        assert_eq!(
            table.render("t", &table.rows),
            "\n=== t ===\npolicy          drops  beta*  \n------------------------------\n\
             JSQ(2)   12.35 ± 0.99   0.50  \n"
        );
    }

    #[test]
    fn cells_choose_their_views() {
        let mut table = Table::new(&["x", "note", "p"], &["x", "y", "p"]);
        table.push(vec![
            Cell::mean_ci(1.0, 0.25).csv_mean_only(),
            Cell::text("n").print_only(),
            Cell::num(2.0, 1, 3).csv_only(),
            Cell::sci(0.00612, 1, 3),
        ]);
        assert_eq!(table.csv(), "x,y,p\n1.0000,2.000,6.120e-3\n");
        assert!(table.render("t", &table.rows).contains("1.00 ± 0.25     n  6.1e-3"));
    }

    #[test]
    #[should_panic(expected = "CSV columns")]
    fn a_short_row_is_rejected() {
        let mut table = Table::new(&["x"], &["x", "x_ci"]);
        table.push(vec![Cell::num(1.0, 2, 4)]);
        table.csv();
    }
}
