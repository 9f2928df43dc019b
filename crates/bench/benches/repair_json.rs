//! Emits `BENCH_repair.json` at the workspace root: rows/sec for the
//! sequential `BatchRepair` vs. the sharded repair engine at 4 shards
//! on the dirty customer workload (small equivalence classes) and the
//! dirty hospital workload (large ones), each with its class-resolution
//! work counts — the repair counterpart of `detection_json`, so the
//! repair trajectory is tracked alongside detection. Runs as part of
//! `cargo bench` (`cargo bench --bench repair_json` for just this
//! file); set `BENCH_REPAIR_ROWS` / `BENCH_REPAIR_HOSPITAL_ROWS` to
//! change the workload sizes.

use revival_bench::perf::measure_repair;
use std::path::Path;

fn env_rows(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let customer_rows = env_rows("BENCH_REPAIR_ROWS", 8_000);
    let hospital_rows = env_rows("BENCH_REPAIR_HOSPITAL_ROWS", 12_000);
    let perf = measure_repair(customer_rows, hospital_rows, 4, 3);
    let json = perf.to_json();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repair.json");
    std::fs::write(&out, &json).expect("write BENCH_repair.json");
    for w in [&perf.customer, &perf.hospital] {
        println!(
            "repair @ {} {} rows ({} violations before; {} classes, {} cells, {} distinct \
             values, {} distances): sequential {:.1} rows/s, sharded(jobs={}) {:.1} rows/s, \
             speedup {:.2}x on {} core(s)",
            w.rows,
            w.workload,
            w.violations_before,
            w.resolve.classes,
            w.resolve.class_cells,
            w.resolve.distinct_values,
            w.resolve.distances_computed,
            w.sequential_rows_per_sec(),
            perf.jobs,
            w.parallel_rows_per_sec(),
            w.speedup(),
            perf.available_cores,
        );
    }
    println!("wrote {}", out.display());
}
