//! A full data-cleaning pipeline over a dirty customer database:
//!
//! 1. generate dirty data with ground truth;
//! 2. **discover** cleaning rules from a trusted clean sample
//!    (profiling, §2 of the paper);
//! 3. statically **analyze** the suite (satisfiability, minimal cover);
//! 4. **detect** violations; 5. **repair**; 6. score against ground
//!    truth.
//!
//! ```sh
//! cargo run --example cleaning_pipeline
//! ```

use revival::constraints::analysis::{is_satisfiable, minimal_cover, Outcome, DEFAULT_BUDGET};
use revival::detect::{DetectJob, Detector, NativeEngine};
use revival::dirty::customer::{attrs, generate, standard_cfds, CustomerConfig};
use revival::dirty::noise::{inject, NoiseConfig};
use revival::discovery::tane::mine_lattice;
use revival::discovery::DiscoverOptions;
use revival::relation::Table;
use revival::repair::{BatchRepair, CostModel};

fn main() {
    // 1. Dirty data with ground truth.
    let data = generate(&CustomerConfig { rows: 4_000, seed: 2024, ..Default::default() });
    let ds = inject(&data.table, &NoiseConfig::new(0.04, vec![attrs::STREET, attrs::CITY], 77));
    println!("generated {} tuples, {} corrupted cells", ds.dirty.len(), ds.error_count());

    // 2. Discover rules from a small clean sample (in practice a vetted
    //    master segment).
    let mut sample = Table::new(data.schema.clone());
    for (_, row) in data.table.rows().take(800) {
        sample.push_unchecked(row.to_vec());
    }
    let opts = DiscoverOptions { max_lhs: 2, min_support: 20, top_values: 2, ..Default::default() };
    let (mined, mining_stats) = mine_lattice(&sample, &opts, 1);
    let discovered: Vec<_> = mined.into_iter().map(|m| m.cfd).collect();
    println!(
        "discovered {} candidate CFDs from the clean sample ({} candidates checked)",
        discovered.len(),
        mining_stats.candidates_checked
    );

    // In practice an expert vets discovered rules; here we take the
    // curated standard suite and verify discovery found its variable
    // rules' embedded FDs.
    let suite = standard_cfds(&data.schema);
    for cfd in suite.iter().filter(|c| c.constant_rows().next().is_none()) {
        let found = discovered.iter().any(|d| d.lhs == cfd.lhs && d.rhs == cfd.rhs);
        println!("  {} {}", if found { "✓" } else { "✗" }, cfd.display(&data.schema));
    }

    // 3. Static analysis.
    let sat = is_satisfiable(&data.schema, &suite, DEFAULT_BUDGET);
    assert_eq!(sat, Outcome::Yes, "curated suite must be satisfiable");
    let (_cover, report) = minimal_cover(&data.schema, &suite, DEFAULT_BUDGET);
    println!("\nsuite satisfiable; minimal cover {} -> {} rows", report.rows_in, report.rows_out);

    // 4. Detection.
    let violations = NativeEngine.run(&DetectJob::on_table(&ds.dirty, &suite)).unwrap();
    println!(
        "detected {} violations over {} tuples",
        violations.len(),
        violations.violating_tuples().len()
    );

    // 5. Repair.
    let repairer = BatchRepair::new(&suite, CostModel::uniform(data.schema.arity()));
    let (repaired, stats) = repairer.repair(&ds.dirty).expect("repair");
    assert_eq!(stats.residual_violations, 0);

    // 6. Score.
    let score = ds.score_repair(&repaired, &[attrs::STREET, attrs::CITY]);
    println!(
        "repair: changed {} cells; precision {:.3}, recall {:.3}, f1 {:.3}",
        stats.cells_changed,
        score.precision,
        score.recall,
        score.f1()
    );

    println!("pipeline complete ✓");
}

#[test]
fn runs() {
    main();
}
