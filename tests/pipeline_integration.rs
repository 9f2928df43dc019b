//! Cross-crate integration: generators → detectors → repair → scoring,
//! plus detector agreement on generated workloads.

use revival::detect::{DetectJob, Detector, IncrementalDetector, NativeEngine, SqlEngine};
use revival::dirty::customer::{attrs, generate, standard_cfds, CustomerConfig};
use revival::dirty::noise::{inject, NoiseConfig};
use revival::repair::{BatchRepair, CostModel, IncRepair};

fn workload(
    rows: usize,
    noise: f64,
    seed: u64,
) -> (
    revival::dirty::customer::CustomerData,
    revival::dirty::noise::DirtyDataset,
    Vec<revival::constraints::Cfd>,
) {
    let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
    let ds = inject(
        &data.table,
        &NoiseConfig::new(noise, vec![attrs::STREET, attrs::CITY, attrs::ZIP], seed + 1),
    );
    let cfds = standard_cfds(&data.schema);
    (data, ds, cfds)
}

#[test]
fn three_detectors_agree_on_generated_workload() {
    let (_, ds, cfds) = workload(1_500, 0.06, 21);
    let job = DetectJob::on_table(&ds.dirty, &cfds);
    let mut native = NativeEngine.run(&job).unwrap();
    let mut sql = SqlEngine.run(&job).unwrap();
    let mut inc = {
        let mut d = IncrementalDetector::new(cfds.clone());
        d.load(&ds.dirty);
        d.report(&ds.dirty)
    };
    native.normalize();
    sql.normalize();
    inc.normalize();
    assert_eq!(native, sql, "native vs sql");
    assert_eq!(native, inc, "native vs incremental");
    assert!(!native.is_empty(), "6% noise must produce violations");
}

#[test]
fn repair_fixes_everything_detection_confirms() {
    let (data, ds, cfds) = workload(2_000, 0.05, 22);
    let repairer = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity()));
    let (fixed, stats) = repairer.repair(&ds.dirty).unwrap();
    assert_eq!(stats.residual_violations, 0);
    assert!(NativeEngine.run(&DetectJob::on_table(&fixed, &cfds)).unwrap().is_empty());
    // Quality floor on this standard workload.
    let score = ds.score_repair(&fixed, &[attrs::STREET, attrs::CITY, attrs::ZIP]);
    assert!(score.precision > 0.6, "precision {:.3} too low", score.precision);
    assert!(score.recall > 0.4, "recall {:.3} too low", score.recall);
}

#[test]
fn repair_is_idempotent() {
    let (data, ds, cfds) = workload(800, 0.05, 23);
    let repairer = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity()));
    let (once, _) = repairer.repair(&ds.dirty).unwrap();
    let (twice, stats) = repairer.repair(&once).unwrap();
    assert_eq!(stats.cells_changed, 0, "repairing a consistent table is a no-op");
    assert_eq!(once.diff_cells(&twice), 0);
}

#[test]
fn incremental_repair_matches_oracle_consistency() {
    let (data, _, cfds) = workload(1_000, 0.0, 24);
    // Clean base + dirty delta drawn from a second generation.
    let (_, delta_ds, _) = workload(200, 0.2, 25);
    let delta: Vec<Vec<revival::relation::Value>> =
        delta_ds.dirty.rows().map(|(_, r)| r.to_vec()).collect();
    let mut combined = data.table.clone();
    let stats = IncRepair::repair_delta(&cfds, &mut combined, delta, CostModel::uniform(7));
    assert!(revival::detect::native::satisfies(&combined, &cfds));
    assert_eq!(combined.len(), 1_200);
    assert!(stats.cells_changed > 0, "a 20%-dirty delta needs edits");
}

#[test]
fn incremental_detector_tracks_repair_edits() {
    // Stream the repair's edits, cell by cell, through a table and the
    // incremental detector watching it: the violation count must drop to
    // zero.
    let (data, ds, cfds) = workload(600, 0.05, 26);
    let mut live = ds.dirty.clone();
    let mut inc = IncrementalDetector::new(cfds.clone());
    inc.load(&live);
    assert!(inc.violation_count() > 0);
    let repairer = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity()));
    let (fixed, _) = repairer.repair(&ds.dirty).unwrap();
    for (id, new_row) in fixed.rows() {
        let old_row = ds.dirty.get(id).unwrap();
        for (attr, v) in new_row.into_iter().enumerate().filter(|(a, v)| *v != old_row[*a]) {
            inc.remove(&live, id, Some(attr));
            live.set_cell(id, attr, v).unwrap();
            inc.add(&live, id, Some(attr));
        }
    }
    assert_eq!(inc.violation_count(), 0);
    assert_eq!(live.diff_cells(&fixed), 0);
}

#[test]
fn csv_roundtrip_preserves_detection() {
    let (_, ds, cfds) = workload(500, 0.08, 27);
    let text = revival::relation::csv::write_table(&ds.dirty);
    let back = revival::relation::csv::read_table(ds.dirty.schema(), &text).unwrap();
    let a = NativeEngine.run(&DetectJob::on_table(&ds.dirty, &cfds)).unwrap();
    let b = NativeEngine.run(&DetectJob::on_table(&back, &cfds)).unwrap();
    assert_eq!(a.violating_tuples().len(), b.violating_tuples().len());
}

#[test]
fn discovery_recovers_standard_suite_fds_from_clean_data() {
    use revival::discovery::tane::mine_lattice;
    use revival::discovery::DiscoverOptions;
    let data = generate(&CustomerConfig { rows: 3_000, seed: 30, ..Default::default() });
    // Exact plain FDs only: confidence 1, no conditional probes.
    let opts = DiscoverOptions { min_support: 0, max_lhs: 2, top_values: 0, ..Default::default() };
    let (mined, _) = mine_lattice(&data.table, &opts, 1);
    let fds: Vec<_> = mined.iter().map(|m| &m.cfd).filter(|c| c.is_plain_fd()).collect();
    // (cc, zip) → street and (cc, ac) → city hold on clean data; TANE
    // must find them or something smaller implying them.
    let implies = |lhs: &[usize], rhs: usize| {
        fds.iter().any(|f| f.rhs == rhs && f.lhs.iter().all(|a| lhs.contains(a)))
    };
    assert!(implies(&[attrs::CC, attrs::ZIP], attrs::STREET));
    assert!(implies(&[attrs::CC, attrs::AC], attrs::CITY));
}

#[test]
fn papers_cind_is_discoverable_from_generated_data() {
    // The book/CD CIND of §3 can be *found* by profiling: the global
    // album ⊆ title inclusion fails, but lifting recovers the
    // genre='a-book' condition.
    use revival::dirty::orders::{generate, OrdersConfig};
    use revival::discovery::ind_disc::{lift_to_cinds, IndOptions};
    use revival::relation::Catalog;
    let data = generate(&OrdersConfig {
        cds: 2_000,
        extra_books: 500,
        violation_rate: 0.0, // clean data for profiling
        ..Default::default()
    });
    let mut catalog = Catalog::new();
    let (cd_schema, album, genre_name) = {
        let s = data.cd.schema().clone();
        (s.clone(), s.attr_id("album").unwrap(), "genre")
    };
    let title = data.book.schema().attr_id("title").unwrap();
    catalog.register(data.cd);
    catalog.register(data.book);
    let candidates =
        lift_to_cinds(&catalog, "cd", album, "book", title, &IndOptions::default()).unwrap();
    let genre_attr = cd_schema.attr_id(genre_name).unwrap();
    let found = candidates.iter().any(|c| {
        c.cind.from_conds.len() == 1
            && c.cind.from_conds[0].attr == genre_attr
            && c.cind.from_conds[0].value == "a-book".into()
    });
    assert!(found, "profiling must recover the paper's genre='a-book' condition");
}
