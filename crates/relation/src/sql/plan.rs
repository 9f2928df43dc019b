//! Name resolution and planning: column references become positions in
//! the joined row `[base columns…, joined columns…]`, the `ON` clause's
//! column equalities become hash-join keys, and a grouped query splits
//! into group columns, `COUNT(DISTINCT …)` inputs and expressions over
//! the post-aggregation row `[group values…, counts…]`.

use super::ast::{ColumnRef, Query, SqlExpr, TableRef};
use super::expr::{CmpOp, Expr};
use super::Relations;
use crate::error::{Error, Result};

/// The join: the right table and the equi-key columns on each side.
#[derive(Clone, Debug)]
pub struct Join {
    pub table: String,
    /// Key columns of the base table.
    pub left_keys: Vec<usize>,
    /// Key columns of the right table (positions in that table).
    pub right_keys: Vec<usize>,
}

/// A resolved query, ready for execution.
#[derive(Clone, Debug)]
pub struct Planned {
    pub base: String,
    pub join: Option<Join>,
    /// `WHERE` and the `ON` clause's non-key conjuncts, over the joined row.
    pub filter: Option<Expr>,
    /// The joined row's columns the query reads; a scan materialises
    /// only these.
    pub reads: Vec<bool>,
    /// Group columns of the joined row; empty for a plain projection.
    pub group_by: Vec<usize>,
    /// `COUNT(DISTINCT …)` inputs over the joined row.
    pub counts: Vec<Expr>,
    /// `HAVING` over the post-aggregation row.
    pub having: Option<Expr>,
    /// One per output column: over the joined row, or over the
    /// post-aggregation row when grouped.
    pub outputs: Vec<Expr>,
}

/// Symbol table: per binding, its column names and offset in the joined row.
struct Scope {
    entries: Vec<(String, Vec<String>, usize)>,
    total: usize,
}

impl Scope {
    fn add(&mut self, tref: &TableRef, relations: &dyn Relations) -> Result<()> {
        let table = relations.relation(&tref.name)?;
        if self.entries.iter().any(|(b, _, _)| b.eq_ignore_ascii_case(tref.binding())) {
            return Err(Error::SqlExec(format!("duplicate table binding `{}`", tref.binding())));
        }
        let cols: Vec<String> =
            table.schema().attributes().iter().map(|a| a.name.clone()).collect();
        let arity = cols.len();
        self.entries.push((tref.binding().to_string(), cols, self.total));
        self.total += arity;
        Ok(())
    }

    fn resolve(&self, col: &ColumnRef) -> Result<usize> {
        let mut found = None;
        for (binding, cols, offset) in &self.entries {
            if let Some(t) = &col.table {
                if !t.eq_ignore_ascii_case(binding) {
                    continue;
                }
            }
            if let Some(pos) = cols.iter().position(|c| c == &col.column) {
                if found.is_some() {
                    return Err(Error::SqlExec(format!("ambiguous column `{}`", col.column)));
                }
                found = Some(offset + pos);
            } else if col.table.is_some() {
                return Err(Error::SqlExec(format!("no column `{}` in `{}`", col.column, binding)));
            }
        }
        found.ok_or_else(|| Error::SqlExec(format!("unknown column `{}`", col.column)))
    }

    /// Resolve an expression without aggregates over the joined row;
    /// `place` names the clause for the error an aggregate gets.
    fn scalar(&self, e: &SqlExpr, place: &str) -> Result<Expr> {
        resolve(e, &mut |leaf| match leaf {
            SqlExpr::Column(c) => Ok(Expr::Col(self.resolve(c)?)),
            _ => Err(Error::SqlExec(format!("COUNT(DISTINCT …) is not allowed in {place}"))),
        })
    }
}

/// Resolve `e`, mapping its column references and aggregates through
/// `leaf`.
fn resolve(e: &SqlExpr, leaf: &mut dyn FnMut(&SqlExpr) -> Result<Expr>) -> Result<Expr> {
    let mut pair = |a: &SqlExpr, b: &SqlExpr| -> Result<_> {
        Ok((Box::new(resolve(a, leaf)?), Box::new(resolve(b, leaf)?)))
    };
    Ok(match e {
        SqlExpr::Literal(v) => Expr::Lit(v.clone()),
        SqlExpr::Cmp(op, a, b) => {
            let (a, b) = pair(a, b)?;
            Expr::Cmp(*op, a, b)
        }
        SqlExpr::And(a, b) => {
            let (a, b) = pair(a, b)?;
            Expr::And(a, b)
        }
        SqlExpr::Or(a, b) => {
            let (a, b) = pair(a, b)?;
            Expr::Or(a, b)
        }
        SqlExpr::Not(a) => Expr::Not(Box::new(resolve(a, leaf)?)),
        SqlExpr::InList(a, vs) => Expr::InList(Box::new(resolve(a, leaf)?), vs.clone()),
        SqlExpr::Column(_) | SqlExpr::CountDistinct(_) => leaf(e)?,
    })
}

/// Split a boolean expression into its top-level conjuncts.
fn conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            conjuncts(*a, out);
            conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// Mark the columns an expression reads.
fn mark_reads(e: &Expr, reads: &mut [bool]) {
    match e {
        Expr::Col(i) => reads[*i] = true,
        Expr::Lit(_) => {}
        Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            mark_reads(a, reads);
            mark_reads(b, reads);
        }
        Expr::Not(a) | Expr::InList(a, _) => mark_reads(a, reads),
    }
}

/// Plan a query against the relations it names.
pub fn plan(q: &Query, relations: &dyn Relations) -> Result<Planned> {
    let mut scope = Scope { entries: Vec::new(), total: 0 };
    scope.add(&q.from, relations)?;
    // Where the joined table's columns start.
    let right = scope.total;
    if let Some((tref, _)) = &q.join {
        scope.add(tref, relations)?;
    }
    let mut reads = vec![false; scope.total];
    let mut filter = Vec::new();
    let join = match &q.join {
        None => None,
        Some((tref, on)) => {
            let mut join = Join { table: tref.name.clone(), left_keys: vec![], right_keys: vec![] };
            let mut terms = Vec::new();
            conjuncts(scope.scalar(on, "ON")?, &mut terms);
            // `l = r` across the two tables is a key; the rest filters.
            for term in terms {
                match &term {
                    Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                        (&Expr::Col(x), &Expr::Col(y)) if (x < right) != (y < right) => {
                            (reads[x], reads[y]) = (true, true);
                            join.left_keys.push(x.min(y));
                            join.right_keys.push(x.max(y) - right);
                        }
                        _ => filter.push(term),
                    },
                    _ => filter.push(term),
                }
            }
            Some(join)
        }
    };
    if let Some(w) = &q.where_clause {
        filter.push(scope.scalar(w, "WHERE")?);
    }
    let filter = if filter.is_empty() { None } else { Some(Expr::conj(filter.into_iter())) };

    let mut group_by = Vec::new();
    let mut counts = Vec::new();
    let mut having = None;
    let mut outputs = Vec::new();
    if q.group_by.is_empty() {
        if q.having.is_some() {
            return Err(Error::SqlExec("HAVING requires GROUP BY".into()));
        }
        for item in &q.items {
            outputs.push(scope.scalar(item, "a query without GROUP BY")?);
        }
        outputs.iter().for_each(|o| mark_reads(o, &mut reads));
    } else {
        for g in &q.group_by {
            group_by.push(scope.resolve(g)?);
        }
        // Into the post-aggregation row: a group column is its position
        // among the group columns, a count its position after them.
        let mut post = |e: &SqlExpr| {
            resolve(e, &mut |leaf| match leaf {
                SqlExpr::CountDistinct(inner) => {
                    let input = scope.scalar(inner, "COUNT(DISTINCT …)")?;
                    let at = counts.iter().position(|c| *c == input).unwrap_or_else(|| {
                        counts.push(input);
                        counts.len() - 1
                    });
                    Ok(Expr::Col(group_by.len() + at))
                }
                SqlExpr::Column(c) => {
                    let col = scope.resolve(c)?;
                    let at = group_by.iter().position(|&g| g == col).ok_or_else(|| {
                        Error::SqlExec(format!(
                            "column `{}` must appear in GROUP BY or inside an aggregate",
                            c.column
                        ))
                    })?;
                    Ok(Expr::Col(at))
                }
                _ => unreachable!("resolve hands over only columns and aggregates"),
            })
        };
        for item in &q.items {
            outputs.push(post(item)?);
        }
        having = q.having.as_ref().map(&mut post).transpose()?;
        group_by.iter().for_each(|&g| reads[g] = true);
        counts.iter().for_each(|c| mark_reads(c, &mut reads));
    }
    filter.iter().for_each(|f| mark_reads(f, &mut reads));
    Ok(Planned {
        base: q.from.name.clone(),
        join,
        filter,
        reads,
        group_by,
        counts,
        having,
        outputs,
    })
}
