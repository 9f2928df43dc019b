//! Auditing cross-relation consistency with CINDs (§3 of the paper).
//!
//! The book/CD scenario: every audio-book CD order must have a matching
//! `book` row with `format='audio'`. Generates an instance with planted
//! violations, shows the paper's CIND syntax and its SQL encoding, and
//! detects exactly the planted set.
//!
//! ```sh
//! cargo run --example audit_orders
//! ```

use revival::constraints::parser::parse_cinds;
use revival::detect::cind::generate_sql;
use revival::detect::{DetectJob, Detector, NativeEngine};
use revival::dirty::orders::{generate, OrdersConfig};
use revival::relation::Catalog;

fn main() {
    let data = generate(&OrdersConfig {
        cds: 5_000,
        extra_books: 2_000,
        audio_fraction: 0.3,
        violation_rate: 0.04,
        seed: 7,
    });
    println!(
        "{} cd tuples, {} book tuples, {} planted violations",
        data.cd.len(),
        data.book.len(),
        data.planted_violations
    );

    // The paper's CIND, in its surface syntax.
    let text = "cd(album, price; genre='a-book') <= book(title, price; format='audio')";
    println!("\nCIND: {text}");
    let cind =
        parse_cinds(text, &[data.cd_schema.clone(), data.book_schema.clone()]).unwrap().remove(0);

    // The SQL a DBMS deployment would run.
    println!("SQL encoding:\n  {}", generate_sql(&cind, &data.cd_schema, &data.book_schema));

    // Detection, over a catalog holding both relations.
    let mut catalog = Catalog::new();
    catalog.register(data.cd);
    catalog.register(data.book);
    let cinds = [cind];
    let job = DetectJob::on_catalog(&catalog, &[]).with_cinds(&cinds);
    let report = NativeEngine.run(&job).unwrap();
    println!("\ndetected {} audio-book CDs without a witness", report.len());
    assert_eq!(report.len(), data.planted_violations);

    // Show a few offenders with their near-miss witnesses.
    let cd = catalog.get("cd").unwrap();
    for v in report.violations.iter().take(5) {
        if let revival::detect::Violation::CindMissingWitness { tuple, .. } = v {
            let row = cd.get(*tuple).unwrap();
            println!("  {}: album={} price={} genre={}", tuple, row[0], row[1], row[2]);
        }
    }
    println!("\naudit complete ✓ (all planted violations found, nothing else)");
}

#[test]
fn runs() {
    main();
}
