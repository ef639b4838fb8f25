//! Shared helpers for the experiment binaries and benches.
//!
//! Each experiment binary regenerates one row/table of `EXPERIMENTS.md`;
//! run them all with `cargo run -p rtx-bench --bin exp_<name> --release`.

use rtx_net::{run, FifoRoundRobin, HorizontalPartition, Network, RunBudget, RunOutcome};
use rtx_relational::{fact, Instance, Schema};
use rtx_transducer::Transducer;
use std::collections::BTreeSet;

pub mod exp;
pub mod experiments;
pub mod regression;

/// Longest cell a [`Table`] column grows to before eliding with `…`.
const MAX_COL_WIDTH: usize = 48;

/// A minimal table printer (keeps experiment output uniform).
///
/// Rows are buffered and printed by [`Table::done`], with each column
/// widened to its longest cell (the per-column width passed to
/// [`Table::new`] is only a minimum) — labels like `Network[4 nodes: …]`
/// are never cut off at the declared width. Cells beyond 48
/// characters are elided with `…`.
pub struct Table {
    headers: Vec<String>,
    min_widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with headers and minimum column widths.
    pub fn new(columns: &[(&str, usize)]) -> Self {
        Table {
            headers: columns.iter().map(|&(name, _)| name.to_string()).collect(),
            min_widths: columns.iter().map(|&(_, w)| w).collect(),
            rows: Vec::new(),
        }
    }

    /// Buffer one row (missing cells print empty, extras are dropped).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Print the whole table with fitted column widths.
    pub fn done(self) {
        print!("{}", self.render());
    }

    /// Render the table to a string (see [`Table::done`]).
    pub fn render(self) -> String {
        let clip = |s: &str| -> String {
            let n = s.chars().count();
            if n <= MAX_COL_WIDTH {
                s.to_string()
            } else {
                let mut out: String = s.chars().take(MAX_COL_WIDTH - 1).collect();
                out.push('…');
                out
            }
        };
        let headers: Vec<String> = self.headers.iter().map(|h| clip(h)).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| clip(c)).collect())
            .collect();
        let mut widths: Vec<usize> = headers
            .iter()
            .zip(&self.min_widths)
            .map(|(h, &w)| w.max(h.chars().count()))
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate().take(widths.len()) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + widths.len();
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$} "));
            }
            format!("{}\n", line.trim_end())
        };
        let rule = format!("{}\n", "-".repeat(total));
        let mut out = String::new();
        out.push_str(&rule);
        out.push_str(&fmt_row(&headers));
        out.push_str(&rule);
        for row in &rows {
            out.push_str(&fmt_row(row));
        }
        out.push_str(&rule);
        out
    }
}

/// Build the unary-set input `S = {0, …, n−1}`.
pub fn set_input(n: usize) -> Instance {
    Instance::from_facts(
        Schema::new().with("S", 1),
        (0..n as i64).map(|i| fact!("S", i)).collect::<Vec<_>>(),
    )
    .expect("valid facts")
}

/// Build a chain edge instance `E = {(0,1), …, (n−1,n)}` under the given
/// relation name.
pub fn chain_input(rel: &str, n: usize) -> Instance {
    Instance::from_facts(
        Schema::new().with(rel, 2),
        (0..n as i64)
            .map(|i| {
                rtx_relational::Fact::new(
                    rel,
                    rtx_relational::Tuple::new(vec![
                        rtx_relational::Value::int(i),
                        rtx_relational::Value::int(i + 1),
                    ]),
                )
            })
            .collect::<Vec<_>>(),
    )
    .expect("valid facts")
}

/// `m` distinct directed edges `E(a, b)` over `n` vertices, no
/// self-loops, drawn from a fixed xorshift stream: the same digraph on
/// every run.
pub fn fixed_digraph(n: u64, m: usize) -> Instance {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n) as i64
    };
    let mut edges = BTreeSet::new();
    while edges.len() < m {
        let (a, b) = (next(), next());
        if a != b {
            edges.insert((a, b));
        }
    }
    let facts = edges.into_iter().map(|(a, b)| fact!("E", a, b));
    Instance::from_facts(Schema::new().with("E", 2), facts.collect::<Vec<_>>())
        .expect("valid facts")
}

/// Run to quiescence with a generous budget and a FIFO scheduler.
pub fn run_fifo(net: &Network, t: &Transducer, input: &Instance) -> RunOutcome {
    let p = HorizontalPartition::round_robin(net, input);
    run(
        net,
        t,
        &p,
        &mut FifoRoundRobin::new(),
        &RunBudget::steps(5_000_000),
    )
    .expect("run failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_inputs() {
        assert_eq!(set_input(4).fact_count(), 4);
        assert_eq!(chain_input("E", 3).fact_count(), 3);
    }

    #[test]
    fn table_widens_columns_to_fit_labels() {
        let mut t = Table::new(&[("topology", 10), ("n", 3)]);
        let label = "Network[4 nodes: n0–n1, n1–n2, n2–n3]";
        t.row(&[label.into(), "4".into()]);
        let out = t.render();
        // the full label survives (the seed truncated at the declared width)
        assert!(out.contains(label), "label truncated:\n{out}");
        // header still present and aligned
        assert!(out.contains("topology"));
    }

    #[test]
    fn table_elides_extreme_cells() {
        let mut t = Table::new(&[("c", 3)]);
        let long = "x".repeat(MAX_COL_WIDTH + 20);
        t.row(std::slice::from_ref(&long));
        let out = t.render();
        assert!(!out.contains(&long));
        assert!(out.contains('…'));
        assert!(out.lines().all(|l| l.chars().count() <= MAX_COL_WIDTH + 4));
    }
}
