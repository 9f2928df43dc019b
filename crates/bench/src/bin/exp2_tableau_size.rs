//! E2 — detection time vs. pattern-tableau size (TODS 2008).
//!
//! Pattern tableaux are *data*, not schema: suites grow by adding rows,
//! and detection cost must follow the embedded FDs and the pattern
//! rows, not how a suite splits those rows into CFDs. Series: the
//! `k`-way split suite (one CFD per pattern row) vs. the same suite
//! pre-merged by embedded FD. Expected: equal — the engine scans once
//! per embedded FD either way; both grow only with the constant rows
//! each tuple is checked against, never with the number of scans.

use revival_bench::{full_mode, ms, print_table, timed};
use revival_constraints::cfd::merge_by_embedded_fd;
use revival_detect::{DetectJob, Detector, NativeEngine};
use revival_dirty::customer::{attrs, generate, scaled_suite, CustomerConfig};
use revival_dirty::noise::{inject, NoiseConfig};

fn main() {
    let n = if full_mode() { 80_000 } else { 20_000 };
    let tableau_sizes: &[usize] = &[1, 2, 4, 8, 16, 32];
    println!("E2: detection vs tableau size ({n} tuples, noise 5%)");
    let data = generate(&CustomerConfig { rows: n, ..Default::default() });
    let ds = inject(&data.table, &NoiseConfig::new(0.05, vec![attrs::STREET, attrs::CITY], 2));
    let mut rows = Vec::new();
    for &k in tableau_sizes {
        let suite = scaled_suite(&data, k);
        let merged_suite = merge_by_embedded_fd(&suite);
        let (split, split_t) =
            timed(|| NativeEngine.run(&DetectJob::on_table(&ds.dirty, &suite)).unwrap());
        let (merged, merged_t) =
            timed(|| NativeEngine.run(&DetectJob::on_table(&ds.dirty, &merged_suite)).unwrap());
        assert_eq!(
            split.violating_tuples(),
            merged.violating_tuples(),
            "the split and the pre-merged suite must implicate the same tuples"
        );
        rows.push(vec![
            suite.len().to_string(),
            merged_suite.len().to_string(),
            ms(split_t),
            ms(merged_t),
        ]);
    }
    print_table(&["cfds", "merged_cfds", "split_ms", "merged_ms"], &rows);
}
