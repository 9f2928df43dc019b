//! Emits `BENCH_detection.json` at the workspace root: rows/sec for
//! the sequential engine vs. the parallel engine at 4 shards on a
//! 100k-row dirty-customer workload, plus the hospital-workload kernel
//! ablation (interned vs. cloning group-by) at jobs=1, plus the columnar block (column scan vs.
//! row-major scan, snapshot open vs. CSV re-ingest). Runs as part of
//! `cargo bench`
//! (`cargo bench --bench detection_json` for just this file); set
//! `BENCH_DETECTION_ROWS` / `BENCH_HOSPITAL_ROWS` to change the
//! workload sizes.

use revival_bench::perf::measure_detection;
use std::path::Path;

fn main() {
    let rows: usize =
        std::env::var("BENCH_DETECTION_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let kernel_rows: usize =
        std::env::var("BENCH_HOSPITAL_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(60_000);
    let perf = measure_detection(rows, kernel_rows, 4, 3);
    let json = perf.to_json();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_detection.json");
    std::fs::write(&out, &json).expect("write BENCH_detection.json");
    println!(
        "detection @ {} rows: sequential {:.1} rows/s, parallel(jobs={}) {:.1} rows/s, \
         speedup {:.2}x on {} core(s)",
        perf.rows,
        perf.sequential_rows_per_sec(),
        perf.jobs,
        perf.parallel_rows_per_sec(),
        perf.speedup(),
        perf.available_cores,
    );
    let k = &perf.kernel;
    println!(
        "kernel  @ {} hospital rows, jobs=1: interned {:.1} rows/s vs clone {:.1} rows/s \
         ({:.2}x)",
        k.rows,
        k.interned_rows_per_sec(),
        k.clone_rows_per_sec(),
        k.interned_speedup(),
    );
    let c = &perf.columnar;
    println!(
        "columnar @ {} scan rows: column scan {:.1} rows/s vs row-major {:.1} rows/s ({:.2}x); \
         snapshot open {:.1} ms vs CSV re-ingest {:.1} ms at {} rows ({:.1}x)",
        c.scan_rows,
        c.scan_rows_per_s,
        c.row_scan_rows_per_s,
        c.scan_speedup(),
        c.snapshot_open_ms,
        c.csv_ingest_ms,
        c.ingest_rows,
        c.open_speedup(),
    );
    println!("wrote {}", out.display());
}
