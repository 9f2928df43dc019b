//! Policy checking with eCFDs (disequality + disjunction patterns —
//! the tutorial's reference [3]).
//!
//! A shipping-orders table with business policies that plain CFDs
//! cannot state:
//!
//! * orders outside the US must not ship via USPS (`country!='us'` →
//!   `carrier!='usps'`);
//! * EU orders carry one of the two valid VAT rates
//!   (`country in ('fr','de')` → `tax in ('19','20')`).
//!
//! ```sh
//! cargo run --example ecfd_policies
//! ```

use revival::constraints::analysis::{is_satisfiable, Outcome, DEFAULT_BUDGET};
use revival::prelude::*;

fn main() {
    let schema = Schema::builder("orders")
        .attr("country", Type::Str)
        .attr("region", Type::Str)
        .attr("tax", Type::Str)
        .attr("carrier", Type::Str)
        .build();

    let policy = "\
        # Non-US orders never ship USPS.\n\
        orders([country!='us'] -> [carrier!='usps'])\n\
        # EU orders carry a valid VAT rate.\n\
        orders([country in ('fr','de')] -> [tax in ('19','20')])\n\
        # Within any non-US country, region determines the tax rate.\n\
        orders([country!='us', region] -> [tax])\n";
    let cfds = parse_cfds(policy, &schema).unwrap();
    println!("policy suite ({} CFDs):", cfds.len());
    for c in &cfds {
        println!("  {}", c.display(&schema));
    }
    assert_eq!(is_satisfiable(&schema, &cfds, DEFAULT_BUDGET), Outcome::Yes);

    let mut orders = Table::new(schema.clone());
    for row in [
        ["fr", "idf", "20", "dhl"],      // ok
        ["fr", "idf", "20", "usps"],     // carrier policy violation
        ["de", "by", "7", "dhl"],        // invalid VAT
        ["fr", "idf", "19", "dhl"],      // region/tax conflict with row 0
        ["us", "ca", "7.25", "usps"],    // fine: US orders unconstrained
        ["jp", "kanto", "10", "yamato"], // fine
    ] {
        orders.push(row.iter().map(|s| (*s).into()).collect()).unwrap();
    }

    let report = NativeEngine.run(&DetectJob::on_table(&orders, &cfds)).unwrap();
    println!("\n{report}");
    assert_eq!(report.violating_tuples().len(), 4);

    let model = CostModel::uniform(schema.arity());
    let (fixed, stats) = BatchRepair::new(&cfds, model).repair(&orders).expect("repair");
    println!(
        "repair: {} cells changed, residual {}",
        stats.cells_changed, stats.residual_violations
    );
    assert_eq!(stats.residual_violations, 0);
    for (id, row) in fixed.rows() {
        let orig = orders.get(id).unwrap();
        for (a, (new, old)) in row.iter().zip(&orig).enumerate() {
            if new != old {
                println!("  {id}.{}: {old} -> {new}", schema.attr_name(a));
            }
        }
    }
    println!("\nall policies hold after repair ✓");
}
