//! Quickstart: the paper's §3 running example, end to end.
//!
//! Builds the `customer` relation, states the two CFDs from the paper,
//! detects violations (native and via generated SQL), and repairs.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use revival::constraints::parser::parse_cfds;
use revival::detect::native::describe_violation;
use revival::detect::sqlgen::generate;
use revival::detect::{DetectJob, Detector, NativeEngine, SqlEngine};
use revival::relation::{Schema, Table, Type};
use revival::repair::{BatchRepair, CostModel};

fn main() {
    // -- schema & data ----------------------------------------------------
    let schema = Schema::builder("customer")
        .attr("cc", Type::Str)
        .attr("ac", Type::Str)
        .attr("phn", Type::Str)
        .attr("street", Type::Str)
        .attr("city", Type::Str)
        .attr("zip", Type::Str)
        .build();
    let mut customer = Table::new(schema.clone());
    for row in [
        // cc    ac     phn    street       city   zip
        ["44", "131", "1111", "Crichton St", "edi", "EH8 9AB"],
        ["44", "131", "2222", "Mayfield Rd", "edi", "EH8 9AB"], // conflicting street!
        ["01", "908", "3333", "Mountain Ave", "nyc", "07974"],  // city must be 'mh'!
        ["01", "212", "4444", "Broadway", "nyc", "10001"],
    ] {
        customer.push(row.iter().map(|s| (*s).into()).collect()).unwrap();
    }

    // -- the paper's CFDs ---------------------------------------------------
    let cfds = parse_cfds(
        "customer([cc='44', zip] -> [street])\n\
         customer([cc='01', ac='908', phn] -> [street, city='mh', zip])",
        &schema,
    )
    .unwrap();
    println!("suite ({} normal-form CFDs):", cfds.len());
    for cfd in &cfds {
        println!("  {}", cfd.display(&schema));
    }

    // -- detection ----------------------------------------------------------
    let job = DetectJob::on_table(&customer, &cfds);
    let report = NativeEngine.run(&job).unwrap();
    println!("\nnative detection: {} violation(s)", report.len());
    for v in &report.violations {
        println!("  {}", describe_violation(v, &cfds, &schema));
    }

    // The SQL Semandaq would run:
    println!("\ngenerated SQL (first CFD):");
    let queries = generate(&cfds[0], &schema);
    for (_, q) in queries.constant.iter().chain(&queries.variable) {
        println!("  {q}");
    }
    let sql_report = SqlEngine.run(&job).unwrap();
    assert_eq!(report.violating_tuples(), sql_report.violating_tuples());

    // -- repair ---------------------------------------------------------------
    let repairer = BatchRepair::new(&cfds, CostModel::uniform(schema.arity()));
    let (repaired, stats) = repairer.repair(&customer).expect("repair");
    println!(
        "\nrepair: {} cell(s) changed, cost {:.2}, residual violations {}",
        stats.cells_changed, stats.cost, stats.residual_violations
    );
    for (id, row) in repaired.rows() {
        let orig = customer.get(id).unwrap();
        for (a, (new, old)) in row.iter().zip(&orig).enumerate() {
            if new != old {
                println!("  {id}.{} : {old} -> {new}", schema.attr_name(a));
            }
        }
    }
    assert!(revival::detect::native::satisfies(&repaired, &cfds));
    println!("\nrepaired instance satisfies the suite ✓");
}
