//! SQL-based detection — the encoding of Fan et al. (TODS 2008) that
//! Semandaq runs against a DBMS: the tableau is a relation.
//!
//! For a normal-form CFD `φ = (R: X → A, T_p)`, the `=` / `_` rows of
//! `T_p` are stored as relations, one per *wildcard mask* (which LHS
//! positions hold a constant) and RHS kind. Each holds a `row#` column
//! (the row's index in `T_p`), the mask's constant LHS columns and, for
//! constant rows, `A`. Each such relation `T` costs one query, whose
//! text depends on `X`, `A` and the mask and never on `|T_p|`:
//!
//! * **`Q_c`** — constant rows: tuples that match a row's LHS constants
//!   but carry another RHS value, one result row per (row, `X`, `A`):
//!
//!   ```sql
//!   SELECT p.row#, t.x1, t.x2, t.A FROM R t JOIN tableau# p ON t.x1 = p.x1
//!   WHERE t.A <> p.A GROUP BY p.row#, t.x1, t.x2, t.A
//!   ```
//!
//! * **`Q_v`** — variable rows: LHS groups holding more than one RHS
//!   value among the tuples that match a row:
//!
//!   ```sql
//!   SELECT p.row#, t.x1, t.x2 FROM R t JOIN tableau# p ON t.x1 = p.x1
//!   GROUP BY p.row#, t.x1, t.x2 HAVING COUNT(DISTINCT t.A) > 1
//!   ```
//!
//! A mask with no constant joins `ON TRUE`. The relation is per mask
//! because one `T_p` relation would need `ON (p.x = '_' OR t.x = p.x)`,
//! which has no equi key: a nested loop over `|D| × |T_p|` pairs. Per
//! mask every join is a hash join, and its size is Σ over masks of `|D|`
//! × that mask's degree (the most rows sharing one key).
//!
//! eCFD rows (`≠ c`, `∈ {…}`) have no equi key to store, so each keeps
//! one query with its patterns inlined, selecting its row index as a
//! literal: `SELECT 3, x1, x2, A FROM R WHERE x1 IN ('a', 'b') AND A <>
//! 'c' GROUP BY x1, x2, A`.
//!
//! A constant query returns `[row, X…, A]`, a variable one `[row, X…]`.
//! The queries run on `revival-relation`'s SQL engine; violating tuple
//! ids are then materialised by looking the keys returned up in a map of
//! the table's live tuples by their `X ∪ {A}` or `X` symbols (the
//! oracle's own: it shares no grouping code with native detection). A
//! constant key decides its tuples: every condition a constant query
//! tests reads only `X` and `A`, so each tuple carrying the key violates
//! the row, and a tuple keeps the lowest row it is returned under.
//! `detect_all` then sorts its findings into the [report
//! order](crate::report), so its [`ViolationReport`] is the native
//! detector's, byte for byte (asserted here and in `tests/`).

use crate::engine::DetectJob;
use crate::report::{Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::pattern::PatternValue;
use revival_relation::groupby::FoldState;
use revival_relation::sql::{self, Relations};
use revival_relation::{Result, Schema, Sym, Table, TupleId, Type, Value};
use std::collections::HashMap;

/// The name every tableau relation goes by: `#` keeps it apart from
/// any relation constraint text can name.
const TABLEAU: &str = "tableau#";

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

/// The SQL condition asserting a value matches a pattern (`holds`) or
/// falsifies it, or `None` for wildcards (no restriction).
fn pattern_condition(attr: &str, p: &PatternValue, holds: bool) -> Option<String> {
    let (eq, ne, is_in) = if holds { ("=", "<>", "IN") } else { ("<>", "=", "NOT IN") };
    match p {
        PatternValue::Wildcard => None,
        PatternValue::Const(c) => Some(format!("{attr} {eq} {}", sql_literal(c))),
        PatternValue::NotConst(c) => Some(format!("{attr} {ne} {}", sql_literal(c))),
        PatternValue::OneOf(cs) => Some(format!(
            "{attr} {is_in} ({})",
            cs.iter().map(sql_literal).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// Generated detection queries for one CFD. Each query comes with the
/// tableau relation it joins (named `tableau#`), or `None` for an eCFD
/// row's inline query.
#[derive(Clone, Debug, Default)]
pub struct DetectionQueries {
    /// One `Q_c` per (mask, constant RHS) relation and per constant eCFD row.
    pub constant: Vec<(Option<Table>, String)>,
    /// One `Q_v` per (mask, `_` RHS) relation and per variable eCFD row.
    pub variable: Vec<(Option<Table>, String)>,
}

/// Generate the two-query encoding for `cfd`.
pub fn generate(cfd: &Cfd, schema: &Schema) -> DetectionQueries {
    let name = |a: usize| schema.attr_name(a);
    let rel = &cfd.relation;
    let rhs = name(cfd.rhs);
    let x = cfd.lhs.iter().map(|&a| format!("t.{}", name(a))).collect::<Vec<_>>().join(", ");
    let bare_x = cfd.lhs.iter().map(|&a| name(a)).collect::<Vec<_>>().join(", ");
    let plain = |p: &PatternValue| matches!(p, PatternValue::Wildcard | PatternValue::Const(_));
    let mut queries = DetectionQueries::default();
    // (mask, constant RHS?, tableau rows), in first-seen order.
    let mut groups: Vec<(Vec<bool>, bool, Vec<usize>)> = Vec::new();
    for (i, row) in cfd.tableau.iter().enumerate() {
        if row.lhs.iter().all(plain) && plain(&row.rhs) {
            let mask: Vec<bool> = row.lhs.iter().map(|p| !p.is_wildcard()).collect();
            let constant = row.is_constant_row();
            match groups.iter_mut().find(|(m, c, _)| *m == mask && *c == constant) {
                Some((_, _, rows)) => rows.push(i),
                None => groups.push((mask, constant, vec![i])),
            }
            continue;
        }
        // An eCFD row: its `≠` / `∈` pattern leaves the WHERE non-empty.
        let lhs = row.lhs.iter().zip(&cfd.lhs).map(|(p, &a)| pattern_condition(name(a), p, true));
        let conds: Vec<String> =
            lhs.chain([pattern_condition(rhs, &row.rhs, false)]).flatten().collect();
        let conds = conds.join(" AND ");
        if row.is_constant_row() {
            let q = format!(
                "SELECT {i}, {bare_x}, {rhs} FROM {rel} WHERE {conds} GROUP BY {bare_x}, {rhs}"
            );
            queries.constant.push((None, q));
        } else {
            let q = format!("SELECT {i}, {bare_x} FROM {rel} WHERE {conds} GROUP BY {bare_x}");
            queries.variable.push((None, format!("{q} HAVING COUNT(DISTINCT {rhs}) > 1")));
        }
    }
    for (mask, constant, rows) in groups {
        let keyed: Vec<usize> =
            cfd.lhs.iter().zip(&mask).filter(|(_, &k)| k).map(|(&a, _)| a).collect();
        let columns = keyed.iter().chain(constant.then_some(&cfd.rhs));
        let attr = |&a: &usize| (name(a), schema.attribute(a).ty);
        let tableau_schema = columns
            .map(attr)
            .fold(Schema::builder(TABLEAU).attr("row#", Type::Int), |b, (n, ty)| b.attr(n, ty));
        let mut tableau = Table::new(tableau_schema.build());
        for i in rows {
            let tp = &cfd.tableau[i];
            let consts = tp.lhs.iter().chain(constant.then_some(&tp.rhs));
            let row = std::iter::once(Value::Int(i as i64))
                .chain(consts.filter_map(PatternValue::as_const).cloned())
                .collect();
            tableau.push_unchecked(row);
        }
        let on: Vec<String> = keyed.iter().map(|&a| format!("t.{0} = p.{0}", name(a))).collect();
        let on = if on.is_empty() { "TRUE".to_string() } else { on.join(" AND ") };
        let join = format!("FROM {rel} t JOIN {TABLEAU} p ON {on}");
        if constant {
            let key = format!("p.row#, {x}, t.{rhs}");
            let q = format!("SELECT {key} {join} WHERE t.{rhs} <> p.{rhs} GROUP BY {key}");
            queries.constant.push((Some(tableau), q));
        } else {
            let q = format!(
                "SELECT p.row#, {x} {join} GROUP BY p.row#, {x} HAVING COUNT(DISTINCT t.{rhs}) > 1"
            );
            queries.variable.push((Some(tableau), q));
        }
    }
    queries
}

/// The job's relations, with the tableau relation a query joins beside
/// them (no table is copied).
struct Beside<'a> {
    job: &'a DetectJob<'a>,
    tableau: Option<&'a Table>,
}

impl Relations for Beside<'_> {
    fn relation(&self, name: &str) -> Result<&Table> {
        match self.tableau {
            Some(tableau) if name == TABLEAU => Ok(tableau),
            _ => self.job.table(name),
        }
    }
}

/// A result row resolved: its key, its tableau row, the tuples.
type Resolved = (Vec<Value>, usize, Vec<TupleId>);

/// Run `queries` and resolve each result row `[row, key…]` to the live
/// tuples whose projection on `attrs` is the key, ascending — looked up
/// in a map of the table's own symbols, none if the table never interned
/// a value of it.
fn resolve(
    job: &DetectJob<'_>,
    table: &Table,
    attrs: &[usize],
    queries: &[(Option<Table>, String)],
) -> Result<Vec<Resolved>> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let mut by_key: HashMap<Vec<Sym>, Vec<TupleId>, FoldState> = HashMap::default();
    let mut key = Vec::with_capacity(attrs.len());
    for slot in table.live_slots() {
        key.clear();
        key.extend(attrs.iter().map(|&a| table.col(a)[slot]));
        let tuple = TupleId(slot as u64);
        match by_key.get_mut(key.as_slice()) {
            Some(tuples) => tuples.push(tuple),
            None => {
                by_key.insert(key.clone(), vec![tuple]);
            }
        }
    }
    let mut found = Vec::new();
    for (tableau, q) in queries {
        for mut key in sql::run(q, &Beside { job, tableau: tableau.as_ref() })?.rows {
            let row = key.remove(0).as_int().expect("a query selects its row") as usize;
            let syms: Option<Vec<Sym>> = key.iter().map(|v| table.pool().lookup(v)).collect();
            let tuples = syms.and_then(|syms| by_key.get(&syms)).cloned().unwrap_or_default();
            found.push((key, row, tuples));
        }
    }
    Ok(found)
}

/// Run SQL-based detection of the job's CFDs (indices echo into the
/// report) — the oracle behind [`crate::SqlEngine`] — in the report
/// order: per CFD, its constant violations by tuple, each at the lowest
/// row it is returned under, then its groups by key and row.
pub(crate) fn detect_all(job: &DetectJob<'_>) -> Result<ViolationReport> {
    let mut violations = Vec::new();
    for (at, cfd) in job.cfds.iter().enumerate() {
        let table = job.table(&cfd.relation)?;
        let queries = generate(cfd, table.schema());
        let x_a = [&cfd.lhs[..], &[cfd.rhs]].concat();
        let found = resolve(job, table, &x_a, &queries.constant)?;
        let mut constant: Vec<(TupleId, usize)> =
            found.iter().flat_map(|(_, row, ts)| ts.iter().map(|&t| (t, *row))).collect();
        constant.sort_unstable();
        constant.dedup_by_key(|&mut (tuple, _)| tuple);
        let constant = constant.into_iter();
        violations.extend(constant.map(|(tuple, row)| Violation::CfdConstant {
            cfd: at,
            row,
            tuple,
        }));
        let mut variable = resolve(job, table, &cfd.lhs, &queries.variable)?;
        variable.retain(|(_, _, tuples)| tuples.len() >= 2);
        variable.sort_unstable();
        let variable = variable.into_iter();
        violations.extend(variable.map(|(key, row, tuples)| Violation::CfdVariable {
            cfd: at,
            row,
            key,
            tuples,
        }));
    }
    Ok(ViolationReport { violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DetectJob, Detector, NativeEngine, SqlEngine};
    use revival_constraints::parser::parse_cfds;
    use revival_constraints::pattern::PatternRow;
    use revival_relation::{Schema, Table, TupleId, Type};

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
            "SELECT p.row#, t.cc, t.zip FROM customer t JOIN tableau# p ON t.cc = p.cc \
             GROUP BY p.row#, t.cc, t.zip HAVING COUNT(DISTINCT t.street) > 1"
        );
        let q2 = generate(&cfds[1], &s);
        assert!(q2.variable.is_empty());
        assert_eq!(
            q2.constant[0].1,
            "SELECT p.row#, t.cc, t.zip, t.city FROM customer t JOIN tableau# p \
             ON t.cc = p.cc AND t.zip = p.zip WHERE t.city <> p.city \
             GROUP BY p.row#, t.cc, t.zip, t.city"
        );
        // The constants travel in the tableau relation: `row#`, the
        // mask's LHS constants, the RHS.
        let tableau = q2.constant[0].0.as_ref().unwrap();
        let rows: Vec<Vec<Value>> = tableau.rows().map(|(_, r)| r).collect();
        assert_eq!(rows, vec![vec![Value::Int(0), "01".into(), "07974".into(), "mh".into()]]);
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
        let native = NativeEngine.run(&job).unwrap();
        assert_eq!(SqlEngine.run(&job).unwrap(), native);
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
        let cfds = parse_cfds("r([a=7] -> [b='x'])\nr([a!=7] -> [b='z'])", &s).unwrap();
        let q = generate(&cfds[0], &s);
        let tableau = q.constant[0].0.as_ref().unwrap();
        assert_eq!(
            tableau.get(TupleId(0)).unwrap(),
            vec![Value::Int(0), Value::Int(7), "x".into()]
        );
        // An eCFD row inlines its constants, and selects its row index.
        let q = generate(&cfds[1], &s);
        assert_eq!(
            q.constant[0].1,
            "SELECT 0, a, b FROM r WHERE a <> 7 AND b <> 'z' GROUP BY a, b"
        );
        // Execute it end-to-end.
        let mut t = Table::new(s);
        t.push(vec![Value::Int(7), "y".into()]).unwrap(); // violation
        t.push(vec![Value::Int(7), "x".into()]).unwrap();
        t.push(vec![Value::Int(8), "w".into()]).unwrap(); // violates the eCFD
        let report = SqlEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
        assert_eq!(report.len(), 2); // t0 breaks the first CFD, t2 the second
        assert_eq!(report.violating_tuples().len(), 2);
    }

    #[test]
    fn wildcard_only_row_has_no_where() {
        let s = schema();
        let cfds = parse_cfds("customer([zip] -> [street])", &s).unwrap();
        let q = generate(&cfds[0], &s);
        assert_eq!(
            q.variable[0].1,
            "SELECT p.row#, t.zip FROM customer t JOIN tableau# p ON TRUE \
             GROUP BY p.row#, t.zip HAVING COUNT(DISTINCT t.street) > 1"
        );
    }

    /// The paper's encoding: one query per (wildcard mask, RHS kind),
    /// whose text does not grow with the tableau.
    #[test]
    fn one_query_per_mask_and_rhs_kind() {
        let s = schema();
        let c = |v: String| PatternValue::Const(Value::from(v));
        let row = |i: usize, mask: [bool; 2], constant: bool| {
            let lhs =
                mask.iter().map(|&k| if k { c(format!("v{i}")) } else { PatternValue::Wildcard });
            let rhs = if constant { c(format!("r{i}")) } else { PatternValue::Wildcard };
            PatternRow::new(lhs.collect(), rhs)
        };
        let kinds = [([true, false], true), ([true, true], true), ([true, true], false)];
        let cfd = |n: usize, kinds: &[([bool; 2], bool)]| {
            let rows = (0..n).flat_map(|i| kinds.iter().map(move |&(m, k)| row(i, m, k)));
            Cfd::new(&s, &["cc", "zip"], "city", rows.collect()).unwrap()
        };
        let q = generate(&cfd(50, &kinds), &s);
        assert_eq!((q.constant.len(), q.variable.len()), (2, 1));
        assert!(q.constant.iter().all(|(t, _)| t.as_ref().unwrap().len() == 50));
        let one = generate(&cfd(1, &kinds[..1]), &s);
        let thousand = generate(&cfd(1_000, &kinds[..1]), &s);
        assert_eq!(one.constant[0].1, thousand.constant[0].1);
        assert_eq!(thousand.constant[0].0.as_ref().unwrap().len(), 1_000);
    }
}
