//! Edge-case coverage for the SQL engine: NULL handling, empty inputs,
//! operator corner cases, and planner error reporting.

use revival_relation::sql;
use revival_relation::{Catalog, Schema, Table, Type, Value};

fn catalog_with_nulls() -> Catalog {
    let s = Schema::builder("r").attr("a", Type::Str).attr("b", Type::Int).build();
    let mut t = Table::new(s);
    t.push(vec!["x".into(), Value::Int(1)]).unwrap();
    t.push(vec![Value::Null, Value::Int(2)]).unwrap();
    t.push(vec!["y".into(), Value::Null]).unwrap();
    t.push(vec![Value::Null, Value::Null]).unwrap();
    let mut c = Catalog::new();
    c.register(t);
    c
}

#[test]
fn null_never_equals_anything_in_where() {
    let cat = catalog_with_nulls();
    // a = a is false for NULL rows (SQL-style comparison semantics).
    let rs = sql::run("SELECT a, b FROM r WHERE a = a", &cat).unwrap();
    assert_eq!(rs.len(), 2);
    let rs = sql::run("SELECT a, b FROM r WHERE a <> 'x'", &cat).unwrap();
    assert_eq!(rs.len(), 1, "NULLs don't satisfy <> either");
}

#[test]
fn aggregates_skip_nulls() {
    let cat = catalog_with_nulls();
    // NULL is a group key like any other; COUNT(DISTINCT) skips NULLs.
    let rs = sql::run("SELECT a, COUNT(DISTINCT b) FROM r GROUP BY a", &cat).unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec!["x".into(), Value::Int(1)],
            vec![Value::Null, Value::Int(1)],
            vec!["y".into(), Value::Int(0)],
        ]
    );
}

#[test]
fn aggregates_over_empty_table() {
    let s = Schema::builder("e").attr("x", Type::Int).build();
    let mut cat = Catalog::new();
    cat.register(Table::new(s));
    // GROUP BY over empty input yields no groups.
    let rs = sql::run("SELECT x, COUNT(DISTINCT x) FROM e GROUP BY x", &cat).unwrap();
    assert!(rs.is_empty());
}

#[test]
fn join_null_keys_never_match() {
    let s1 = Schema::builder("l").attr("k", Type::Str).build();
    let s2 = Schema::builder("rr").attr("k", Type::Str).build();
    let mut l = Table::new(s1);
    l.push(vec![Value::Null]).unwrap();
    l.push(vec!["x".into()]).unwrap();
    let mut r = Table::new(s2);
    r.push(vec![Value::Null]).unwrap();
    r.push(vec!["x".into()]).unwrap();
    let mut cat = Catalog::new();
    cat.register(l);
    cat.register(r);
    let rs = sql::run("SELECT l.k FROM l JOIN rr ON l.k = rr.k", &cat).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::from("x")]], "NULL join keys must not match");
}

#[test]
fn planner_error_messages_name_the_problem() {
    let cat = catalog_with_nulls();
    let err = sql::run("SELECT nope FROM r", &cat).unwrap_err().to_string();
    assert!(err.contains("nope"), "got {err}");
    let err = sql::run("SELECT a FROM missing", &cat).unwrap_err().to_string();
    assert!(err.contains("missing"), "got {err}");
    let q = "SELECT a FROM r HAVING COUNT(DISTINCT b) > 1 GROUP BY a";
    let err = sql::run(q, &cat).unwrap_err().to_string();
    assert!(!err.is_empty()); // HAVING before GROUP BY is a parse error
    let q = "SELECT a FROM r WHERE COUNT(DISTINCT b) > 1 GROUP BY a";
    let err = sql::run(q, &cat).unwrap_err().to_string();
    assert!(err.contains("WHERE"), "got {err}");
    let q = "SELECT a FROM r x JOIN r y ON x.a = y.a JOIN r z ON y.a = z.a";
    let err = sql::run(q, &cat).unwrap_err().to_string();
    assert!(err.contains("trailing"), "one JOIN at most: got {err}");
}

#[test]
fn not_in_with_nulls() {
    let cat = catalog_with_nulls();
    // NULL IN (...) is false, so NOT IN is true for NULLs under our
    // boolean (not three-valued) semantics — documented behavior.
    let rs = sql::run("SELECT a FROM r WHERE a NOT IN ('x')", &cat).unwrap();
    assert_eq!(rs.len(), 3);
}
