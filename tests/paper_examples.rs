//! The paper's own running examples, verified end to end.
//!
//! Every concrete constraint, scenario and deduction the tutorial text
//! states is reproduced here as an executable assertion.

use revival::constraints::parser::{parse_cfds, parse_cinds};
use revival::constraints::Cfd;
use revival::detect::{DetectJob, Detector, NativeEngine, SqlEngine, ViolationReport};
use revival::relation::{Catalog, Schema, Table, Type, Value};

fn detect(t: &Table, cfds: &[Cfd]) -> ViolationReport {
    NativeEngine.run(&DetectJob::on_table(t, cfds)).unwrap()
}

fn customer_schema() -> Schema {
    Schema::builder("customer")
        .attr("cc", Type::Str)
        .attr("ac", Type::Str)
        .attr("phn", Type::Str)
        .attr("street", Type::Str)
        .attr("city", Type::Str)
        .attr("zip", Type::Str)
        .build()
}

#[test]
fn section3_first_cfd_uk_zip_determines_street() {
    // "customer([cc = 44, zip] → [street]) … asserts that for customers
    //  in the UK (cc = 44), zip code determines street."
    let s = customer_schema();
    let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
    let mut t = Table::new(s);
    t.push(vec!["44".into(), "131".into(), "1".into(), "A St".into(), "edi".into(), "EH8".into()])
        .unwrap();
    t.push(vec!["44".into(), "131".into(), "2".into(), "B St".into(), "edi".into(), "EH8".into()])
        .unwrap();
    // Same zip in the US — NOT constrained.
    t.push(vec!["01".into(), "908".into(), "3".into(), "C St".into(), "mh".into(), "EH8".into()])
        .unwrap();
    let report = detect(&t, &cfds);
    assert_eq!(report.len(), 1, "only the UK pair violates");
    let tuples = report.violating_tuples();
    assert!(tuples.contains(&revival::relation::TupleId(0)));
    assert!(tuples.contains(&revival::relation::TupleId(1)));
    assert!(!tuples.contains(&revival::relation::TupleId(2)));
}

#[test]
fn section3_second_cfd_with_rhs_constant() {
    // "customer([cc = 01, ac = 908, phn] → [street, city = 'mh', zip])":
    // two US customers with area code 908 and the same phn must share
    // street and zip, and city must be mh.
    let s = customer_schema();
    let cfds =
        parse_cfds("customer([cc='01', ac='908', phn] -> [street, city='mh', zip])", &s).unwrap();
    assert_eq!(cfds.len(), 3, "normalises to one CFD per RHS attribute");

    // Single tuple with the wrong city violates the constant component —
    // "it is not a traditional fd since it is defined with constants".
    let mut t = Table::new(s.clone());
    t.push(vec![
        "01".into(),
        "908".into(),
        "5550000".into(),
        "Mtn Ave".into(),
        "nyc".into(), // must be mh
        "07974".into(),
    ])
    .unwrap();
    let report = detect(&t, &cfds);
    assert_eq!(report.len(), 1);

    // Two such customers sharing phn but differing on zip violate the
    // variable component.
    let mut t2 = Table::new(s);
    for zip in ["07974", "07975"] {
        t2.push(vec![
            "01".into(),
            "908".into(),
            "5550000".into(),
            "Mtn Ave".into(),
            "mh".into(),
            zip.into(),
        ])
        .unwrap();
    }
    let report = detect(&t2, &cfds);
    assert_eq!(report.len(), 1);
}

#[test]
fn section3_cind_audio_books() {
    // "(CD(album, price, genre ='a-book') ⊆ book(title, price, format
    //  ='audio'))"
    let cd = Schema::builder("cd")
        .attr("album", Type::Str)
        .attr("price", Type::Int)
        .attr("genre", Type::Str)
        .build();
    let book = Schema::builder("book")
        .attr("title", Type::Str)
        .attr("price", Type::Int)
        .attr("format", Type::Str)
        .build();
    let cinds = parse_cinds(
        "cd(album, price; genre='a-book') <= book(title, price; format='audio')",
        &[cd.clone(), book.clone()],
    )
    .unwrap();

    let mut cds = Table::new(cd);
    cds.push(vec!["Dune".into(), Value::Int(20), "a-book".into()]).unwrap();
    let mut books = Table::new(book);
    // Witness must carry format 'audio' — 'print' does not count.
    books.push(vec!["Dune".into(), Value::Int(20), "print".into()]).unwrap();
    let mut catalog = Catalog::new();
    catalog.register(cds);
    catalog.register(books);
    let detect = |catalog: &Catalog| {
        NativeEngine.run(&DetectJob::on_catalog(catalog, &[]).with_cinds(&cinds)).unwrap()
    };
    assert_eq!(detect(&catalog).len(), 1);
    let books = catalog.get_mut("book").unwrap();
    books.push(vec!["Dune".into(), Value::Int(20), "audio".into()]).unwrap();
    assert!(detect(&catalog).is_empty());
}

#[test]
fn section5_semandaq_workflow() {
    // "(a) specifications of cfds, (b) automatic detections of cfd
    //  violations, based on efficient sql-based techniques, and (c)
    //  repairing … We show how the user can inspect and modify this
    //  repair."
    use semandaq::Session;
    let csv = "cc,ac,phn,street,city,zip\n\
               44,131,1,Crichton,edi,EH8\n\
               44,131,2,Mayfield,edi,EH8\n";
    let cfds = "customer([cc='44', zip] -> [street])\n";
    let mut session = Session::load("customer", csv, cfds).unwrap();
    // (b) detection, both engines agree.
    let native = session.detect(&NativeEngine).unwrap();
    let sql = session.detect(&SqlEngine).unwrap();
    assert_eq!(native.violating_tuples(), sql.violating_tuples());
    assert_eq!(native.len(), 1);
    // (c) repair produces a consistent candidate.
    let (repaired, _) = session.repair(1).unwrap();
    assert!(revival::detect::native::satisfies(&repaired, &session.cfds));
    // The user modifies the data; detection reflects it.
    session.apply_edit("t1:street=Crichton").unwrap();
    assert!(session.detect(&NativeEngine).unwrap().is_empty());
}
