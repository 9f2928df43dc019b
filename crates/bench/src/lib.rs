//! Shared harness utilities for the `experiments` bin: the dirty
//! workload generators, `timed` and `print_table`.
//!
//! Each `experiments` subcommand reproduces one figure/table from the
//! papers behind the tutorial; README's experiments table is the index
//! and records where the measured shape differs from the paper's.
//! `--full` runs the paper-scale sweep; the default sizes finish in
//! seconds. Timings of the system's own layers are the `ledger`'s job
//! (`src/bin/ledger`, `BENCHMARK.json`), not this crate's.

use revival_constraints::Cfd;
use revival_dirty::customer::{attrs, generate, standard_cfds, CustomerConfig, CustomerData};
use revival_dirty::noise::{inject, DirtyDataset, NoiseConfig};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Run `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds as a display string with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Write an aligned results table to `out`: header row + data rows.
pub fn print_table(out: &mut dyn Write, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() && cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let line = |out: &mut dyn Write, cells: &[String]| {
        let mut text = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                text.push_str("  ");
            }
            text.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        writeln!(out, "{text}")
    };
    line(out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())?;
    rows.iter().try_for_each(|row| line(out, row))
}

/// Did the user pass `--full`? (Paper-scale sweep vs. quick check.)
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Standard dirty-customer workload: clean generation + noise over the
/// repairable attributes, plus the standard CFD suite.
pub fn customer_workload(
    rows: usize,
    noise: f64,
    seed: u64,
) -> (CustomerData, DirtyDataset, Vec<Cfd>) {
    let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
    let ds = inject(&data.table, &NoiseConfig::new(noise, repairable_attrs(), seed ^ 0xd1f7));
    let cfds = standard_cfds(&data.schema);
    (data, ds, cfds)
}

/// The attributes noise targets (and repair edits touch).
pub fn repairable_attrs() -> Vec<usize> {
    vec![attrs::STREET, attrs::CITY, attrs::ZIP]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn workload_shapes() {
        let (data, ds, cfds) = customer_workload(200, 0.05, 1);
        assert_eq!(data.table.len(), 200);
        assert!(ds.error_count() > 0);
        assert_eq!(cfds.len(), 5);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }
}
