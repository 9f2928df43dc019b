//! eCFD extension tests — disequality and disjunction patterns
//! (Bravo, Fan, Geerts, Ma — ICDE 2008; reference [3] of the tutorial).
//!
//! Exercised across the stack: parsing, native detection, SQL-based
//! detection (parity), static analysis, and repair.

use revival::constraints::analysis::{implies, is_satisfiable, Outcome, DEFAULT_BUDGET};
use revival::constraints::parser::{cfd_to_text, parse_cfds};
use revival::constraints::PatternValue;
use revival::detect::{DetectJob, Detector, NativeEngine, SqlEngine};
use revival::relation::{Schema, Table, Type};
use revival::repair::{BatchRepair, CostModel};

fn schema() -> Schema {
    Schema::builder("orders")
        .attr("country", Type::Str)
        .attr("region", Type::Str)
        .attr("tax", Type::Str)
        .attr("carrier", Type::Str)
        .build()
}

fn table(rows: &[[&str; 4]]) -> Table {
    let mut t = Table::new(schema());
    for r in rows {
        t.push(r.iter().map(|x| (*x).into()).collect()).unwrap();
    }
    t
}

#[test]
fn parse_disequality_and_disjunction() {
    let s = schema();
    let cfds = parse_cfds(
        "orders([country!='us', region] -> [tax])\n\
         orders([country in ('fr','de')] -> [carrier='dhl'])",
        &s,
    )
    .unwrap();
    assert_eq!(cfds.len(), 2);
    assert_eq!(cfds[0].tableau[0].lhs[0], PatternValue::NotConst("us".into()));
    assert!(cfds[0].tableau[0].lhs[1].is_wildcard());
    assert_eq!(cfds[1].tableau[0].lhs[0], PatternValue::one_of(["fr".into(), "de".into()]));
    assert_eq!(cfds[1].tableau[0].rhs, PatternValue::Const("dhl".into()));
}

#[test]
fn roundtrip_surface_syntax() {
    let s = schema();
    let text = "orders([country!='us', region] -> [tax])\n";
    let cfds = parse_cfds(text, &s).unwrap();
    assert_eq!(cfd_to_text(&cfds[0], &s), text);
    let text = "orders([country in ('de', 'fr')] -> [carrier='dhl'])\n";
    let cfds = parse_cfds(text, &s).unwrap();
    assert_eq!(cfd_to_text(&cfds[0], &s), text);
}

#[test]
fn disequality_guard_scopes_the_fd() {
    // Outside the US (country != 'us'), region determines tax.
    let s = schema();
    let cfds = parse_cfds("orders([country!='us', region] -> [tax])", &s).unwrap();
    let t = table(&[
        ["fr", "idf", "20", "dhl"],
        ["fr", "idf", "19", "ups"], // violates: same non-us region, diff tax
        ["us", "ca", "7.25", "usps"],
        ["us", "ca", "9.5", "fedex"], // fine: guard excludes us
    ]);
    let report = NativeEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
    assert_eq!(report.len(), 1);
    let tuples = report.violating_tuples();
    assert!(tuples.contains(&revival::relation::TupleId(0)));
    assert!(!tuples.contains(&revival::relation::TupleId(2)));
}

#[test]
fn disjunction_guard_and_rhs() {
    // EU orders ship with dhl; tax must be one of the EU rates.
    let s = schema();
    let cfds = parse_cfds(
        "orders([country in ('fr','de')] -> [carrier='dhl'])\n\
         orders([country in ('fr','de')] -> [tax in ('19','20')])",
        &s,
    )
    .unwrap();
    let t = table(&[
        ["fr", "idf", "20", "dhl"], // ok
        ["de", "by", "19", "ups"],  // carrier violation
        ["fr", "idf", "7", "dhl"],  // tax-disjunction violation
        ["us", "ca", "7", "usps"],  // guard does not apply
    ]);
    let report = NativeEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
    assert_eq!(report.len(), 2);
    assert_eq!(report.violating_tuples().len(), 2);
}

#[test]
fn rhs_disequality_detects_forbidden_value() {
    // Non-us orders must not use usps.
    let s = schema();
    let cfds = parse_cfds("orders([country!='us'] -> [carrier!='usps'])", &s).unwrap();
    let t = table(&[
        ["fr", "idf", "20", "usps"], // violation
        ["fr", "idf", "20", "dhl"],
        ["us", "ca", "7", "usps"], // guard excludes
    ]);
    let report = NativeEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
    assert_eq!(report.len(), 1);
}

#[test]
fn sql_detection_agrees_on_ecfds() {
    let s = schema();
    let cfds = parse_cfds(
        "orders([country!='us', region] -> [tax])\n\
         orders([country in ('fr','de')] -> [carrier='dhl'])\n\
         orders([country!='us'] -> [carrier!='usps'])",
        &s,
    )
    .unwrap();
    let t = table(&[
        ["fr", "idf", "20", "usps"],
        ["fr", "idf", "19", "dhl"],
        ["de", "by", "19", "ups"],
        ["us", "ca", "7", "usps"],
        ["jp", "kanto", "10", "yamato"],
    ]);
    let job = DetectJob::on_table(&t, &cfds);
    let native = NativeEngine.run(&job).unwrap();
    assert_eq!(SqlEngine.run(&job).unwrap(), native);
    assert!(!native.is_empty());
}

#[test]
fn generated_sql_uses_in_and_not_in() {
    use revival::detect::sqlgen::generate;
    let s = schema();
    let cfds = parse_cfds("orders([country in ('fr','de')] -> [tax in ('19','20')])", &s).unwrap();
    let q = generate(&cfds[0], &s);
    let text = &q.constant[0].1;
    assert!(text.contains("country IN ('de', 'fr')"), "got {text}");
    assert!(text.contains("tax NOT IN ('19', '20')"), "got {text}");
}

#[test]
fn static_analysis_handles_ecfd_patterns() {
    let s = schema();
    // Satisfiable: pick country='us' (escapes both guards) — or any
    // fresh country with carrier dhl and tax 19.
    let suite = parse_cfds(
        "orders([country!='us'] -> [carrier='dhl'])\n\
         orders([country!='us'] -> [carrier='ups'])",
        &s,
    )
    .unwrap();
    assert_eq!(is_satisfiable(&s, &suite, DEFAULT_BUDGET), Outcome::Yes);

    // Force the guard with a OneOf wildcard-free chain: every order is
    // fr or de, and both carriers are forced → unsatisfiable.
    let forced = parse_cfds(
        "orders([region] -> [country in ('fr','de')])\n\
         orders([country in ('fr','de')] -> [carrier='dhl'])\n\
         orders([country in ('fr','de')] -> [carrier='ups'])",
        &s,
    )
    .unwrap();
    // Hmm: country ∈ {fr,de} forces carrier dhl AND ups → contradiction;
    // and every tuple's country is forced into the set.
    assert_eq!(is_satisfiable(&s, &forced, DEFAULT_BUDGET), Outcome::No);

    // Implication: ≠us guard implies the weaker fr-only guard.
    let sigma = parse_cfds("orders([country!='us', region] -> [tax])", &s).unwrap();
    let phi = parse_cfds("orders([country='fr', region] -> [tax])", &s).unwrap();
    assert_eq!(implies(&s, &sigma, &phi[0], DEFAULT_BUDGET), Outcome::Yes);
    // The converse fails.
    let sigma2 = parse_cfds("orders([country='fr', region] -> [tax])", &s).unwrap();
    let phi2 = parse_cfds("orders([country!='us', region] -> [tax])", &s).unwrap();
    assert_eq!(implies(&s, &sigma2, &phi2[0], DEFAULT_BUDGET), Outcome::No);
}

#[test]
fn repair_resolves_ecfd_violations() {
    let s = schema();
    let cfds = parse_cfds(
        "orders([country in ('fr','de')] -> [carrier='dhl'])\n\
         orders([country!='us'] -> [tax in ('10','19','20')])",
        &s,
    )
    .unwrap();
    let t = table(&[
        ["fr", "idf", "20", "ups"], // carrier must become dhl
        ["de", "by", "7", "dhl"],   // tax must enter the allowed set
        ["us", "ca", "7", "usps"],  // untouched
    ]);
    let repairer = BatchRepair::new(&cfds, CostModel::uniform(4));
    let (fixed, stats) = repairer.repair(&t).unwrap();
    assert_eq!(stats.residual_violations, 0);
    assert!(revival::detect::native::satisfies(&fixed, &cfds));
    // The US row is untouched.
    let us_row = fixed.get(revival::relation::TupleId(2)).unwrap();
    assert_eq!(us_row[3], "usps".into());
}
