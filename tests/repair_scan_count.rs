//! Work-count guard for repair's detections (machine-independent): a
//! detection runs only on a table written since the previous one. The
//! report that ends the cost-guided loop — empty, or the one a pass
//! could do nothing with — is the forcing phase's first report, and the
//! last report seen is the residual; so a repair scans once, plus once
//! per pass or forcing round that wrote a cell: `passes + 1` when
//! nothing stalls, where a scan per loop head took `passes + 3`.

use revival::constraints::parser::parse_cfds;
use revival::constraints::Cfd;
use revival::detect::{DetectJob, Detector, NativeEngine};
use revival::relation::{Schema, Table, Type, Value};
use revival::repair::{BatchRepair, CostModel, RepairStats};

/// Repair with a profile, and check what must hold of any repair: the
/// same table and stats as the plain path, every constraint scanned
/// `detect_scans` times over the live rows, and the residual equal to
/// what a fresh engine finds in the output. Returns the scan count.
fn scans_of(cfds: &[Cfd], table: &Table, jobs: usize) -> (u64, RepairStats) {
    let repairer = BatchRepair::new(cfds, CostModel::uniform(table.schema().arity()));
    let repairer = repairer.with_jobs(jobs);
    let (fixed, stats, profile) = repairer.repair_profiled(table).expect("repair");
    let (plain, plain_stats) = repairer.repair(table).expect("repair");
    assert_eq!(stats, plain_stats);
    assert_eq!(fixed.diff_cells(&plain), 0);
    let scans = profile.meta_get("detect_scans").expect("repair profiles report detect_scans");
    let cfd_rows: Vec<_> = profile.constraints.iter().filter(|c| c.kind == "cfd").collect();
    assert_eq!(cfd_rows.len(), repairer.cfds().len());
    for row in cfd_rows {
        assert_eq!(row.rows_scanned, scans * table.len() as u64, "{}", row.name);
    }
    let fresh = NativeEngine.run(&DetectJob::on_table(&fixed, repairer.cfds())).expect("detect");
    assert_eq!(stats.residual_violations, fresh.len());
    (scans, stats)
}

#[test]
fn hospital_repairs_scan_once_per_pass_plus_once() {
    use revival::dirty::hospital::{attrs as h, generate, standard_cfds, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows: 12_000, seed: 11, ..Default::default() });
    let cfds = standard_cfds(&data.schema);
    // The ledger's `clean_hospital` input converges in one pass; the
    // CLI's `generate --scenario hospital` noise (zip is an LHS too, so
    // a repair surfaces new violations) takes three.
    for (attrs, noise_seed, passes, cells) in [
        (vec![h::STATE, h::MEASURE_NAME, h::HNAME], 11 ^ 0x405b, 1, 1_800),
        (vec![h::STATE, h::ZIP, h::MEASURE_NAME], 11 ^ 0x5eed, 3, 6_734),
    ] {
        let dirty = inject(&data.table, &NoiseConfig::new(0.05, attrs, noise_seed)).dirty;
        for jobs in [1, 4] {
            let (scans, stats) = scans_of(&cfds, &dirty, jobs);
            assert_eq!(
                (stats.passes, stats.cells_changed, stats.forced_resolutions),
                (passes, cells, 0),
                "jobs={jobs}"
            );
            assert_eq!(stats.residual_violations, 0);
            assert_eq!(scans, passes as u64 + 1, "jobs={jobs}: {passes}-pass repair");
        }
    }
}

fn customer(rows: &[[&str; 5]]) -> Table {
    let schema = Schema::builder("customer")
        .attr("cc", Type::Str)
        .attr("ac", Type::Str)
        .attr("street", Type::Str)
        .attr("city", Type::Str)
        .attr("zip", Type::Str)
        .build();
    let mut table = Table::new(schema);
    for row in rows {
        table.push(row.iter().map(|s| Value::from(*s)).collect()).unwrap();
    }
    table
}

/// Forced repairs: a pass or round that wrote nothing is followed by no
/// scan, one that wrote by exactly one.
#[test]
fn forcing_rescans_only_what_it_wrote() {
    // eCFD `!=` and `in` RHS patterns name no single value, so the
    // cost-guided pass stalls on them having written nothing: the
    // forcing phase starts from that same report, writes the cell, and
    // the one scan after it is both its exit and the residual.
    let t = customer(&[["01", "908", "Mtn", "nyc", "07974"], ["44", "131", "High", "edi", "EH8"]]);
    for suite in ["customer([cc='01'] -> [city!='nyc'])", "customer([cc='01'] -> [city in ('mh')])"]
    {
        let cfds = parse_cfds(suite, t.schema()).unwrap();
        let (scans, stats) = scans_of(&cfds, &t, 1);
        assert_eq!((stats.passes, stats.forced_resolutions), (1, 1), "{suite}");
        assert_eq!((stats.cells_changed, stats.residual_violations), (1, 0), "{suite}");
        assert_eq!(scans, 2, "{suite}: the stalled pass's report, then one after the forced write");
    }

    // Two constant rows demanding different cities of one tuple (the
    // suite of `conflicting_constant_rules_still_terminate_consistent`):
    // the pass pins one city and breaks the other rule's LHS, and the
    // scan after it finds the table clean. One writing pass, two scans.
    let cfds = parse_cfds(
        "customer([cc='01', ac='908'] -> [city='mh'])\n\
         customer([cc='01', zip='07974'] -> [city='nyc'])",
        t.schema(),
    )
    .unwrap();
    let t = customer(&[["01", "908", "Mtn", "xxx", "07974"]]);
    let (scans, stats) = scans_of(&cfds, &t, 1);
    assert_eq!((stats.passes, stats.forced_resolutions, stats.residual_violations), (1, 0, 0));
    assert_eq!(scans, 2);

    // And a clean table is scanned exactly once.
    let clean = customer(&[["44", "131", "High", "edi", "EH8"]]);
    assert_eq!(scans_of(&cfds, &clean, 1).0, 1);
}
