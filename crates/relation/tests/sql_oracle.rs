//! Property tests pitting the SQL engine against naive in-process
//! evaluation (an oracle that shares no code with the planner/executor).

use proptest::prelude::*;
use revival_relation::sql;
use revival_relation::{Catalog, Schema, Table, Type, Value};
use std::collections::{BTreeMap, BTreeSet};

fn schema() -> Schema {
    Schema::builder("r").attr("a", Type::Str).attr("b", Type::Int).attr("c", Type::Str).build()
}

#[derive(Clone, Debug)]
struct Row {
    a: String,
    b: i64,
    c: String,
}

fn catalog(rows: &[Row]) -> Catalog {
    let mut t = Table::new(schema());
    for r in rows {
        t.push(vec![r.a.as_str().into(), Value::Int(r.b), r.c.as_str().into()]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(t);
    cat
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        ("[a-c]{1}", -3i64..4, "[x-z]{1}").prop_map(|(a, b, c)| Row { a, b, c }),
        0..20,
    )
}

/// A random WHERE clause with its oracle predicate.
#[derive(Clone, Debug)]
enum Pred {
    AEq(String),
    BLt(i64),
    BGe(i64),
    CNe(String),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn to_sql(&self) -> String {
        match self {
            Pred::AEq(v) => format!("a = '{v}'"),
            Pred::BLt(n) => format!("b < {n}"),
            Pred::BGe(n) => format!("b >= {n}"),
            Pred::CNe(v) => format!("c <> '{v}'"),
            Pred::And(x, y) => format!("({} AND {})", x.to_sql(), y.to_sql()),
            Pred::Or(x, y) => format!("({} OR {})", x.to_sql(), y.to_sql()),
            Pred::Not(x) => format!("(NOT {})", x.to_sql()),
        }
    }

    fn eval(&self, r: &Row) -> bool {
        match self {
            Pred::AEq(v) => r.a == *v,
            Pred::BLt(n) => r.b < *n,
            Pred::BGe(n) => r.b >= *n,
            Pred::CNe(v) => r.c != *v,
            Pred::And(x, y) => x.eval(r) && y.eval(r),
            Pred::Or(x, y) => x.eval(r) || y.eval(r),
            Pred::Not(x) => !x.eval(r),
        }
    }
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        "[a-c]{1}".prop_map(Pred::AEq),
        (-3i64..4).prop_map(Pred::BLt),
        (-3i64..4).prop_map(Pred::BGe),
        "[x-z]{1}".prop_map(Pred::CNe),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Pred::And(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Pred::Or(Box::new(x), Box::new(y))),
            inner.prop_map(|x| Pred::Not(Box::new(x))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary boolean WHERE clauses filter exactly like the oracle.
    #[test]
    fn where_clause_matches_oracle(rows in arb_rows(), pred in arb_pred()) {
        let cat = catalog(&rows);
        let q = format!("SELECT a, b, c FROM r WHERE {}", pred.to_sql());
        let rs = sql::run(&q, &cat).unwrap();
        let expected: Vec<&Row> = rows.iter().filter(|r| pred.eval(r)).collect();
        prop_assert_eq!(rs.len(), expected.len());
        for (got, want) in rs.rows.iter().zip(&expected) {
            prop_assert_eq!(got[0].as_str().unwrap(), want.a.as_str());
            prop_assert_eq!(got[1].as_int().unwrap(), want.b);
            prop_assert_eq!(got[2].as_str().unwrap(), want.c.as_str());
        }
    }

    /// GROUP BY counts agree with hand-rolled accumulation, and HAVING
    /// keeps exactly the groups the oracle's `Q_v` shape asks for.
    #[test]
    fn group_by_matches_oracle(rows in arb_rows()) {
        let cat = catalog(&rows);
        let rs = sql::run("SELECT a, COUNT(DISTINCT c) FROM r GROUP BY a", &cat).unwrap();
        // Oracle.
        let mut groups: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for r in &rows {
            groups.entry(&r.a).or_default().insert(&r.c);
        }
        let got: BTreeMap<&str, i64> =
            rs.rows.iter().map(|r| (r[0].as_str().unwrap(), r[1].as_int().unwrap())).collect();
        prop_assert_eq!(rs.len(), groups.len());
        for (key, dc) in &groups {
            prop_assert_eq!(got.get(key).copied(), Some(dc.len() as i64));
        }
        let rs = sql::run(
            "SELECT a FROM r GROUP BY a HAVING COUNT(DISTINCT c) > 1",
            &cat,
        )
        .unwrap();
        let got: BTreeSet<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        let want: BTreeSet<&str> =
            groups.iter().filter(|(_, dc)| dc.len() > 1).map(|(k, _)| *k).collect();
        prop_assert_eq!(got, want);
    }

    /// Self-join on `a` counts pairs exactly like the oracle.
    #[test]
    fn self_join_matches_oracle(rows in arb_rows()) {
        let cat = catalog(&rows);
        let rs = sql::run("SELECT x.a, y.c FROM r x JOIN r y ON x.a = y.a", &cat).unwrap();
        let mut count = 0i64;
        for r1 in &rows {
            for r2 in &rows {
                if r1.a == r2.a {
                    count += 1;
                }
            }
        }
        prop_assert_eq!(rs.len() as i64, count);
    }
}
