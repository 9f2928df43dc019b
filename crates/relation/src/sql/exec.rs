//! Query executor: scan → hash join → filter → group and count →
//! having → project.

use super::plan::{Join, Planned};
use super::Relations;
use crate::error::Result;
use crate::groupby::{hash_values, GroupBy};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;

/// The rows a query returns.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Execute a planned query.
pub fn execute(p: &Planned, relations: &dyn Relations) -> Result<ResultSet> {
    let base = relations.relation(&p.base)?;
    let arity = base.schema().arity();
    let mut rows = scan(base, &p.reads[..arity]);
    if let Some(join) = &p.join {
        let right = scan(relations.relation(&join.table)?, &p.reads[arity..]);
        rows = hash_join(rows, join, &right);
    }
    if let Some(f) = &p.filter {
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if f.matches(&r)? {
                kept.push(r);
            }
        }
        rows = kept;
    }
    if p.group_by.is_empty() {
        let project = |r: &Vec<Value>| p.outputs.iter().map(|o| o.eval(r)).collect();
        return Ok(ResultSet { rows: rows.iter().map(project).collect::<Result<_>>()? });
    }
    // Groups are keyed by the group columns, hashed and compared in
    // place; only a first-seen key is cloned. Entry order is first-seen.
    let mut groups: GroupBy<Vec<Value>, Vec<HashSet<Value>>> = GroupBy::new();
    for r in &rows {
        let hash = hash_values(p.group_by.iter().map(|&g| &r[g]));
        let seen = groups.entry_mut(
            hash,
            |key| key.iter().zip(&p.group_by).all(|(k, &g)| *k == r[g]),
            || {
                (
                    p.group_by.iter().map(|&g| r[g].clone()).collect(),
                    vec![HashSet::new(); p.counts.len()],
                )
            },
        );
        for (set, input) in seen.iter_mut().zip(&p.counts) {
            let v = input.eval(r)?;
            if !v.is_null() {
                set.insert(v);
            }
        }
    }
    let mut out = Vec::new();
    for (_, mut post, seen) in groups.into_entries() {
        post.extend(seen.iter().map(|set| Value::Int(set.len() as i64)));
        if let Some(h) = &p.having {
            if !h.matches(&post)? {
                continue;
            }
        }
        out.push(p.outputs.iter().map(|o| o.eval(&post)).collect::<Result<_>>()?);
    }
    Ok(ResultSet { rows: out })
}

/// A table's live rows, materialising only the columns `reads` marks
/// (the others read as NULL).
fn scan(table: &Table, reads: &[bool]) -> Vec<Vec<Value>> {
    let pool = table.pool();
    let cell = |slot: usize, (c, &read): (usize, &bool)| match read {
        true => pool.value(table.col(c)[slot]).clone(),
        false => Value::Null,
    };
    table
        .live_slots()
        .map(|slot| reads.iter().enumerate().map(|c| cell(slot, c)).collect())
        .collect()
}

/// Hash join of the base rows with the right table's on the equi keys
/// (no keys: every pair). NULL keys never match.
fn hash_join(left: Vec<Vec<Value>>, join: &Join, right: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut index: GroupBy<Vec<Value>, Vec<usize>> = GroupBy::new();
    for (ri, r) in right.iter().enumerate() {
        if join.right_keys.iter().any(|&k| r[k].is_null()) {
            continue;
        }
        let hash = hash_values(join.right_keys.iter().map(|&k| &r[k]));
        index
            .entry_mut(
                hash,
                |key| key.iter().zip(&join.right_keys).all(|(kv, &k)| *kv == r[k]),
                || (join.right_keys.iter().map(|&k| r[k].clone()).collect(), Vec::new()),
            )
            .push(ri);
    }
    let mut out = Vec::new();
    for l in left {
        if join.left_keys.iter().any(|&k| l[k].is_null()) {
            continue;
        }
        let hash = hash_values(join.left_keys.iter().map(|&k| &l[k]));
        let same = |key: &Vec<Value>| key.iter().zip(&join.left_keys).all(|(kv, &k)| *kv == l[k]);
        for &ri in index.get(hash, same).map(Vec::as_slice).unwrap_or_default() {
            let mut row = l.clone();
            row.extend_from_slice(&right[ri]);
            out.push(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::schema::{Catalog, Schema, Type};
    use crate::sql::run;
    use crate::table::Table;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let cust = Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .build();
        let mut t = Table::new(cust);
        for (cc, zip, street) in [
            ("44", "EH8", "Crichton"),
            ("44", "EH8", "Mayfield"), // violates zip->street for cc=44
            ("44", "G1", "HighSt"),
            ("01", "07974", "MtnAve"),
            ("01", "07974", "MtnAve"),
        ] {
            t.push(vec![cc.into(), zip.into(), street.into()]).unwrap();
        }
        let ord =
            Schema::builder("orders").attr("zip", Type::Str).attr("amount", Type::Int).build();
        let mut o = Table::new(ord);
        o.push(vec!["EH8".into(), Value::Int(10)]).unwrap();
        o.push(vec!["EH8".into(), Value::Int(20)]).unwrap();
        o.push(vec!["XX".into(), Value::Int(99)]).unwrap();
        let mut c = Catalog::new();
        c.register(t);
        c.register(o);
        c
    }

    #[test]
    fn where_filter() {
        let rs = run("SELECT zip FROM customer WHERE cc = '44'", &catalog()).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn cfd_variable_violation_query() {
        // The Q_v query shape from Fan et al.: zip groups with >1 street
        // among UK customers.
        let rs = run(
            "SELECT zip FROM customer WHERE cc = '44' \
             GROUP BY zip HAVING COUNT(DISTINCT street) > 1",
            &catalog(),
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("EH8"));
    }

    #[test]
    fn hash_join() {
        let rs = run(
            "SELECT c.zip, o.amount FROM customer c JOIN orders o ON c.zip = o.zip \
             WHERE c.cc = '44'",
            &catalog(),
        )
        .unwrap();
        // 2 customer rows with zip EH8 × 2 order rows = 4.
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn join_with_residual() {
        let rs = run(
            "SELECT c.zip FROM customer c JOIN orders o ON c.zip = o.zip AND o.amount > 15",
            &catalog(),
        )
        .unwrap();
        assert_eq!(rs.len(), 2); // two EH8 customers × one amount-20 order
    }

    #[test]
    fn aggregates() {
        // Groups come back in first-seen order.
        let rs = run(
            "SELECT cc, COUNT(DISTINCT zip), COUNT(DISTINCT street) FROM customer GROUP BY cc",
            &catalog(),
        )
        .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec!["44".into(), Value::Int(2), Value::Int(3)],
                vec!["01".into(), Value::Int(1), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn cross_join_on_true() {
        let rs = run("SELECT c.zip, o.zip FROM customer c JOIN orders o ON TRUE", &catalog());
        assert_eq!(rs.unwrap().len(), 5 * 3);
    }

    #[test]
    fn ambiguous_column_rejected() {
        let err = run("SELECT zip FROM customer c JOIN orders o ON c.zip = o.zip", &catalog())
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(run("SELECT nope FROM customer", &catalog()).is_err());
    }

    #[test]
    fn unknown_table_rejected() {
        assert!(run("SELECT zip FROM nope", &catalog()).is_err());
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let q = "SELECT street, COUNT(DISTINCT cc) FROM customer GROUP BY zip";
        assert!(run(q, &catalog()).is_err());
    }

    #[test]
    fn duplicate_binding_rejected() {
        let q = "SELECT c.zip FROM customer c JOIN orders c ON c.zip = c.zip";
        assert!(run(q, &catalog()).is_err());
    }
}
