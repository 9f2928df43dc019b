//! Profiled ≡ unprofiled parity: `run_profiled` must leave reports
//! byte-identical to `run` on every engine at every shard count, list
//! every constraint in the suite, and reconcile its per-constraint
//! rows-scanned totals with the job-level obs counter exactly.
//!
//! One test fn on purpose: the obs registry is process-global, and a
//! single fn keeps the counter-delta asserts race-free without locks.

use revival_constraints::parser::parse_cfds;
use revival_detect::{engine_by_name, DetectJob};
use revival_relation::{Schema, Table, Type};

fn schema() -> Schema {
    Schema::builder("customer")
        .attr("cc", Type::Str)
        .attr("zip", Type::Str)
        .attr("street", Type::Str)
        .attr("city", Type::Str)
        .build()
}

/// Deterministic pseudo-random table, big enough that 4 shards all see
/// chunk boundaries and every CFD finds violations.
fn big_table(rows: usize) -> Table {
    let mut t = Table::new(schema());
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut next = move |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m as u64) as usize
    };
    for _ in 0..rows {
        let cc = ["44", "01", "86"][next(3)];
        let zip = format!("Z{}", next(30));
        let street = format!("S{}", next(7));
        let city = format!("C{}", next(4));
        t.push(vec![cc.into(), zip.into(), street.into(), city.into()]).unwrap();
    }
    t
}

#[test]
fn profiled_runs_are_byte_identical_and_reconcile_with_counters() {
    let t = big_table(800);
    // Four CFDs over three embedded FDs: the first two share a pass.
    let cfds = parse_cfds(
        "customer([cc='44', zip] -> [street])\n\
         customer([cc='01', zip] -> [street])\n\
         customer([cc='01', zip='Z7'] -> [city='C1'])\n\
         customer([zip] -> [city])",
        &schema(),
    )
    .unwrap();
    let rows_counter = revival_obs::global().counter("detect_rows_scanned_total");

    for engine_name in ["native", "sql", "incremental", "parallel"] {
        for jobs in [1usize, 4] {
            let job = DetectJob::on_table(&t, &cfds);
            let engine = engine_by_name(engine_name, jobs).unwrap();
            let plain = engine.run(&job).unwrap();
            let before = rows_counter.get();
            let (profiled, profile) = engine.run_profiled(&job).unwrap();
            let delta = rows_counter.get() - before;
            let ctx = format!("engine={engine_name} jobs={jobs}");

            // Byte-identical reports: same violations, same order.
            assert_eq!(plain, profiled, "{ctx}: profiled report differs");
            assert_eq!(
                format!("{plain}"),
                format!("{profiled}"),
                "{ctx}: profiled report renders differently"
            );

            // No silent omissions: every constraint has a row, each
            // with the suite's nonzero rows-scanned tally.
            let of_kind =
                |kind: &'static str| profile.constraints.iter().filter(move |c| c.kind == kind);
            assert_eq!(of_kind("cfd").count(), cfds.len(), "{ctx}: must list every constraint");
            for (i, c) in of_kind("cfd").enumerate() {
                assert!(c.rows_scanned > 0, "{ctx}: constraint {i} has no rows scanned");
            }
            // The native scan times its planning and one pass per
            // distinct embedded FD; the other engines have neither.
            let (plans, passes) =
                if matches!(engine_name, "native" | "parallel") { (1, 3) } else { (0, 0) };
            assert_eq!(of_kind("plan").count(), plans, "{ctx}: one plan row per native scan");
            assert_eq!(of_kind("pass").count(), passes, "{ctx}: one pass row per embedded FD");
            assert_eq!(profile.constraints.len(), cfds.len() + plans + passes, "{ctx}: stray rows");

            // Per-constraint totals reconcile with the job-level
            // counter: both equal the suite's rows-scanned sum.
            let per_constraint: u64 = profile.constraints.iter().map(|c| c.rows_scanned).sum();
            assert_eq!(per_constraint, job.rows_scanned_sum(), "{ctx}: profile sum drifted");
            assert_eq!(delta, job.rows_scanned_sum(), "{ctx}: obs counter drifted");

            // Exact accounting: attributed + overhead == wall.
            assert_eq!(
                profile.attributed_us() + profile.overhead_us(),
                profile.wall_us,
                "{ctx}: profile totals must sum to the job wall time"
            );
            assert_eq!(profile.meta_get("suite_cfds"), Some(cfds.len() as u64), "{ctx}");
        }
    }
}
