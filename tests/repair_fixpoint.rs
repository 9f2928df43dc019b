//! Repair fixpoint: once `BatchRepair` converges (zero residual
//! violations), *every* detection engine behind the `Detector` trait —
//! native, sql, incremental, parallel — must report zero violations on
//! the repaired table. This ties repair correctness back to the engine
//! layer: the repairer's internal oracle (the same engine layer it
//! detects through) cannot disagree with any externally-selectable
//! engine.

use proptest::prelude::*;
use revival::detect::{engine_by_name, DetectJob};
use revival::dirty::customer::{attrs, generate, standard_cfds, CustomerConfig};
use revival::dirty::noise::{inject, NoiseConfig};
use revival::repair::{BatchRepair, CostModel};

const ENGINES: [&str; 4] = ["native", "sql", "incremental", "parallel"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential and sharded repairs both reach a state every engine
    /// certifies clean.
    #[test]
    fn all_engines_certify_repaired_tables_clean(
        rows in 30usize..160,
        noise_pct in 1usize..10,
        seed in 0u64..400,
        jobs in 1usize..5,
    ) {
        let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
        let ds = inject(
            &data.table,
            &NoiseConfig::new(
                noise_pct as f64 / 100.0,
                vec![attrs::STREET, attrs::CITY, attrs::ZIP],
                seed ^ 0xf1f0,
            ),
        );
        let cfds = standard_cfds(&data.schema);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity()))
            .with_jobs(jobs);
        let (fixed, stats) = repairer.repair(&ds.dirty).expect("repair");
        prop_assert_eq!(stats.residual_violations, 0, "repair must converge");
        // The original (unmerged) suite through every engine: all clean.
        let job = DetectJob::on_table(&fixed, &cfds);
        for name in ENGINES {
            let report = engine_by_name(name, 3).unwrap().run(&job).unwrap();
            prop_assert!(
                report.is_empty(),
                "engine {} still sees {} violation(s) after repair (jobs={})",
                name, report.len(), jobs
            );
        }
    }
}

/// Deterministic spot check including the merged suite and a dirtier
/// workload than the property test's ranges.
#[test]
fn heavy_noise_fixpoint_certified_by_all_engines() {
    let data = generate(&CustomerConfig { rows: 400, seed: 3, ..Default::default() });
    let ds = inject(
        &data.table,
        &NoiseConfig::new(0.15, vec![attrs::STREET, attrs::CITY, attrs::ZIP], 77),
    );
    let cfds = standard_cfds(&data.schema);
    let repairer = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity())).with_jobs(4);
    let (fixed, stats) = repairer.repair(&ds.dirty).expect("repair");
    assert_eq!(stats.residual_violations, 0);
    assert!(stats.cells_changed > 0, "15% noise must force edits");
    // Both the original suite and the merged suite the repairer actually
    // enforced come back clean from every engine.
    let merged = repairer.cfds().to_vec();
    for suite in [&cfds, &merged] {
        let job = DetectJob::on_table(&fixed, suite);
        for name in ENGINES {
            let report = engine_by_name(name, 4).unwrap().run(&job).unwrap();
            assert!(report.is_empty(), "engine {name}: {report:?}");
        }
    }
}
