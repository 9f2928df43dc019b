//! SQL-based detection — the encoding of Fan et al. (TODS 2008) that
//! Semandaq runs against a DBMS.
//!
//! For a normal-form CFD `φ = (R: X → A, Tp)` the paper generates two
//! queries per pattern row `tp`:
//!
//! * **`Q_c`** — constant rows (`tp[A] = c`): select the tuples that
//!   match the LHS pattern but carry a different RHS value:
//!
//!   ```sql
//!   SELECT * FROM R WHERE x1 = 'c1' AND … AND A <> 'c'
//!   ```
//!
//! * **`Q_v`** — variable rows (`tp[A] = _`): select LHS groups holding
//!   more than one RHS value among pattern-matching tuples:
//!
//!   ```sql
//!   SELECT X FROM R WHERE x1 = 'c1' AND …
//!   GROUP BY X HAVING COUNT(DISTINCT A) > 1
//!   ```
//!
//! The queries run on `revival-relation`'s SQL engine; violating tuple
//! ids are then materialised by probing an [`Index`] over the table's
//! own symbols with the keys the queries return, giving a
//! [`ViolationReport`] identical to the native detector's (asserted by
//! tests here and in `tests/`).

use crate::report::{Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_relation::sql;
use revival_relation::{Catalog, Index, Result, Schema, Value};

/// Quote a value for embedding in generated SQL.
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Bool(b) => b.to_string(),
        Value::Null => "NULL".into(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// The SQL condition asserting a value matches a pattern, or `None` for
/// wildcards (no restriction).
fn pattern_condition(attr: &str, p: &PatternValue) -> Option<String> {
    match p {
        PatternValue::Wildcard => None,
        PatternValue::Const(c) => Some(format!("{attr} = {}", sql_literal(c))),
        PatternValue::NotConst(c) => Some(format!("{attr} <> {}", sql_literal(c))),
        PatternValue::OneOf(cs) => Some(format!(
            "{attr} IN ({})",
            cs.iter().map(sql_literal).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// The SQL condition asserting a value *falsifies* a pattern.
fn pattern_violation_condition(attr: &str, p: &PatternValue) -> Option<String> {
    match p {
        PatternValue::Wildcard => None,
        PatternValue::Const(c) => Some(format!("{attr} <> {}", sql_literal(c))),
        PatternValue::NotConst(c) => Some(format!("{attr} = {}", sql_literal(c))),
        PatternValue::OneOf(cs) => Some(format!(
            "{attr} NOT IN ({})",
            cs.iter().map(sql_literal).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// The WHERE conjuncts binding a tableau row's non-wildcard LHS patterns.
fn lhs_conditions(cfd: &Cfd, row: &PatternRow, schema: &Schema) -> Vec<String> {
    row.lhs
        .iter()
        .zip(&cfd.lhs)
        .filter_map(|(p, &a)| pattern_condition(schema.attr_name(a), p))
        .collect()
}

/// Generated detection queries for one CFD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectionQueries {
    /// One `Q_c` per constant tableau row: `(tableau_row_idx, sql)`.
    pub constant: Vec<(usize, String)>,
    /// One `Q_v` per variable tableau row: `(tableau_row_idx, sql)`.
    pub variable: Vec<(usize, String)>,
}

/// Generate the two-query encoding for `cfd`.
pub fn generate(cfd: &Cfd, schema: &Schema) -> DetectionQueries {
    let lhs_names: Vec<&str> = cfd.lhs.iter().map(|&a| schema.attr_name(a)).collect();
    let rhs_name = schema.attr_name(cfd.rhs);
    let mut constant = Vec::new();
    let mut variable = Vec::new();
    for (i, row) in cfd.tableau.iter().enumerate() {
        let mut conds = lhs_conditions(cfd, row, schema);
        match &row.rhs {
            rhs_pat @ (PatternValue::Const(_)
            | PatternValue::NotConst(_)
            | PatternValue::OneOf(_)) => {
                conds.extend(pattern_violation_condition(rhs_name, rhs_pat));
                let where_clause = conds.join(" AND ");
                constant.push((
                    i,
                    format!(
                        "SELECT {} FROM {} WHERE {}",
                        lhs_names.join(", "),
                        cfd.relation,
                        where_clause
                    ),
                ));
            }
            PatternValue::Wildcard => {
                let where_clause = if conds.is_empty() {
                    String::new()
                } else {
                    format!(" WHERE {}", conds.join(" AND "))
                };
                variable.push((
                    i,
                    format!(
                        "SELECT {cols} FROM {rel}{where} GROUP BY {cols} \
                         HAVING COUNT(DISTINCT {rhs}) > 1",
                        cols = lhs_names.join(", "),
                        rel = cfd.relation,
                        where = where_clause,
                        rhs = rhs_name,
                    ),
                ));
            }
        }
    }
    DetectionQueries { constant, variable }
}

/// Run SQL-based detection of `cfds` against a catalog holding their
/// relations (indices echo into the report) — the oracle behind
/// [`crate::SqlEngine`].
///
/// `Q_c` results are materialised back to tuple ids by probing an index
/// on the LHS attributes and re-checking the row (the generated query
/// projects the LHS key, mirroring how Semandaq joins violation keys
/// back to the source table).
pub(crate) fn detect_all(catalog: &Catalog, cfds: &[Cfd]) -> Result<ViolationReport> {
    let mut report = ViolationReport::default();
    for (cfd_idx, cfd) in cfds.iter().enumerate() {
        let table = catalog.get(&cfd.relation)?;
        let queries = generate(cfd, table.schema());
        // The join back: result keys resolve through the table's pool.
        let index = Index::build(table, &cfd.lhs);

        for (row_idx, q) in &queries.constant {
            let rs = sql::run(q, catalog)?;
            // Each result row is an LHS key of ≥1 violating tuple; recheck
            // members to pick exactly the violating ones.
            for key in &rs.rows {
                for &tid in index.lookup(key) {
                    let data = table.get(tid)?;
                    if cfd.constant_violation(&data) == Some(*row_idx) {
                        let v = Violation::CfdConstant { cfd: cfd_idx, row: *row_idx, tuple: tid };
                        if !report.violations.contains(&v) {
                            report.violations.push(v);
                        }
                    }
                }
            }
        }
        for (row_idx, q) in &queries.variable {
            let rs = sql::run(q, catalog)?;
            for key in &rs.rows {
                let tuples: Vec<_> = index.lookup(key).to_vec();
                if tuples.len() >= 2 {
                    report.violations.push(Violation::CfdVariable {
                        cfd: cfd_idx,
                        row: *row_idx,
                        key: key.clone(),
                        tuples,
                    });
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DetectJob, Detector, NativeEngine, SqlEngine};
    use revival_constraints::parser::parse_cfds;
    use revival_relation::{Schema, Table, Type};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .build()
    }

    fn table(rows: &[[&str; 4]]) -> Table {
        let mut t = Table::new(schema());
        for r in rows {
            t.push(r.iter().map(|s| Value::from(*s)).collect()).unwrap();
        }
        t
    }

    #[test]
    fn generated_sql_shape() {
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])",
            &s,
        )
        .unwrap();
        let q1 = generate(&cfds[0], &s);
        assert!(q1.constant.is_empty());
        assert_eq!(
            q1.variable[0].1,
            "SELECT cc, zip FROM customer WHERE cc = '44' \
             GROUP BY cc, zip HAVING COUNT(DISTINCT street) > 1"
        );
        let q2 = generate(&cfds[1], &s);
        assert!(q2.variable.is_empty());
        assert_eq!(
            q2.constant[0].1,
            "SELECT cc, zip FROM customer WHERE cc = '01' AND zip = '07974' AND city <> 'mh'"
        );
    }

    #[test]
    fn sql_matches_native() {
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            &s,
        )
        .unwrap();
        let t = table(&[
            ["44", "EH8", "Crichton", "edi"],
            ["44", "EH8", "Mayfield", "edi"],
            ["01", "07974", "MtnAve", "nyc"],
            ["01", "10001", "5th", "nyc"],
            ["44", "10001", "5th", "man"],
        ]);
        let job = DetectJob::on_table(&t, &cfds);
        let mut native = NativeEngine.run(&job).unwrap();
        let mut via_sql = SqlEngine.run(&job).unwrap();
        native.normalize();
        via_sql.normalize();
        assert_eq!(native, via_sql);
        assert!(!native.is_empty());
    }

    #[test]
    fn sql_literal_escaping() {
        assert_eq!(sql_literal(&Value::from("it's")), "'it''s'");
        assert_eq!(sql_literal(&Value::Int(3)), "3");
    }

    #[test]
    fn integer_constants_in_queries() {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Str).build();
        let cfds = parse_cfds("r([a=7] -> [b='x'])", &s).unwrap();
        let q = generate(&cfds[0], &s);
        assert_eq!(q.constant[0].1, "SELECT a FROM r WHERE a = 7 AND b <> 'x'");
        // Execute it end-to-end.
        let mut t = Table::new(s);
        t.push(vec![Value::Int(7), "y".into()]).unwrap(); // violation
        t.push(vec![Value::Int(7), "x".into()]).unwrap();
        t.push(vec![Value::Int(8), "z".into()]).unwrap();
        let report = SqlEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.violating_tuples().len(), 1);
    }

    #[test]
    fn wildcard_only_row_has_no_where() {
        let s = schema();
        let cfds = parse_cfds("customer([zip] -> [street])", &s).unwrap();
        let q = generate(&cfds[0], &s);
        assert_eq!(
            q.variable[0].1,
            "SELECT zip FROM customer GROUP BY zip HAVING COUNT(DISTINCT street) > 1"
        );
    }
}
