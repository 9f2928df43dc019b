//! Unary IND discovery across relations, with lifting to CINDs.
//!
//! Profiling (§2c) also covers cross-relation metadata: which columns
//! are contained in which. This module discovers
//!
//! * **unary INDs** `R1[a] ⊆ R2[b]` by value-set inclusion (the
//!   SPIDER-style baseline, restricted to arity 1), and
//! * **CIND candidates**: for a *violated* IND, the conditions
//!   `c = v` on the source relation under which the inclusion *does*
//!   hold — exactly how the CIND examples of Bravo et al. arise (the
//!   book/CD inclusion holds only where `genre = 'a-book'`).
//!
//! Both run in symbol space: a column's distinct symbols are the keys of
//! one [`Index`], translated into a target relation's pool once, and
//! lifting counts source tuples per condition symbol against the CIND
//! witness probe ([`Cind::witnesses`]), emitting candidates in value order.

use revival_constraints::cind::{Cind, PatternCond};
use revival_constraints::Ind;
use revival_relation::{Catalog, Index, Result, Sym, Table};
use std::collections::HashMap;

/// Options for IND/CIND discovery.
#[derive(Clone, Debug)]
pub struct IndOptions {
    /// Minimum distinct values on the source side (tiny columns match
    /// everything by accident).
    pub min_distinct: usize,
    /// Minimum tuples a lifted CIND condition must cover.
    pub min_support: usize,
}

impl Default for IndOptions {
    fn default() -> Self {
        IndOptions { min_distinct: 3, min_support: 5 }
    }
}

/// Max distinct values per condition attribute to try when lifting:
/// high-cardinality condition attributes overfit.
const MAX_CONDITION_VALUES: usize = 16;

/// A mined CIND candidate with its evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct MinedCind {
    pub cind: Cind,
    /// Source tuples the candidate's condition covers.
    pub support: usize,
}

/// Every unary pair `from[a] ⊆ to[b]` of the catalog's relations (name
/// order, then attribute order) whose columns share a type, whose
/// source column holds at least `min_distinct` distinct values, and
/// which is not a trivial `R[a] ⊆ R[a]` — each with whether it holds.
fn unary_pairs(catalog: &Catalog, options: &IndOptions) -> Result<Vec<(Ind, bool)>> {
    let mut names: Vec<&str> = catalog.relation_names().collect();
    names.sort_unstable();
    let tables: Vec<&Table> = names.iter().map(|n| catalog.get(n)).collect::<Result<_>>()?;
    // One index per column: its keys are the column's distinct symbols.
    let columns: Vec<Vec<Index>> = tables
        .iter()
        .map(|&t| (0..t.schema().arity()).map(|a| Index::build(t, &[a])).collect())
        .collect();
    let mut out = Vec::new();
    for (f, from) in tables.iter().enumerate() {
        for (t, to) in tables.iter().enumerate() {
            for (a, from_col) in columns[f].iter().enumerate() {
                if from_col.len() < options.min_distinct {
                    continue;
                }
                // Each distinct source value, in the target's symbols;
                // `None` if the target relation never holds one of them.
                let translated: Option<Vec<Sym>> =
                    from_col.keys().map(|k| to.pool().lookup(from.pool().value(k[0]))).collect();
                for (b, to_col) in columns[t].iter().enumerate() {
                    if (f == t && a == b)
                        || from.schema().attribute(a).ty != to.schema().attribute(b).ty
                    {
                        continue;
                    }
                    let holds = translated
                        .as_ref()
                        .is_some_and(|syms| syms.iter().all(|&s| !to_col.get(&[s]).is_empty()));
                    let ind = Ind {
                        from_relation: names[f].to_string(),
                        from_attrs: vec![a],
                        to_relation: names[t].to_string(),
                        to_attrs: vec![b],
                    };
                    out.push((ind, holds));
                }
            }
        }
    }
    Ok(out)
}

/// Discover all unary INDs `from[a] ⊆ to[b]` among the catalog's
/// relations (excluding trivial self-inclusions `R[a] ⊆ R[a]`).
pub fn discover_unary_inds(catalog: &Catalog, options: &IndOptions) -> Result<Vec<Ind>> {
    let pairs = unary_pairs(catalog, options)?;
    Ok(pairs.into_iter().filter_map(|(ind, holds)| holds.then_some(ind)).collect())
}

/// For a *violated* unary inclusion `from[a] ⊆ to[b]`, find conditions
/// `cond_attr = v` on the source under which it holds, and emit them as
/// CIND candidates.
pub fn lift_to_cinds(
    catalog: &Catalog,
    from_relation: &str,
    from_attr: usize,
    to_relation: &str,
    to_attr: usize,
    options: &IndOptions,
) -> Result<Vec<MinedCind>> {
    let (from, to) = (catalog.get(from_relation)?, catalog.get(to_relation)?);
    let ind = Cind::from(Ind {
        from_relation: from_relation.to_string(),
        from_attrs: vec![from_attr],
        to_relation: to_relation.to_string(),
        to_attrs: vec![to_attr],
    });
    let witnesses = ind.witnesses(from, to);
    let covered: Vec<(usize, bool)> =
        from.live_slots().map(|slot| (slot, witnesses.covers(slot))).collect();
    let mut out = Vec::new();
    for cond_attr in (0..from.schema().arity()).filter(|&c| c != from_attr) {
        // Source tuples per condition symbol, and whether all are covered.
        let col = from.col(cond_attr);
        let mut by_sym: HashMap<Sym, (usize, bool)> = HashMap::new();
        for &(slot, ok) in &covered {
            let entry = by_sym.entry(col[slot]).or_insert((0, true));
            entry.0 += 1;
            entry.1 &= ok;
        }
        if by_sym.len() > MAX_CONDITION_VALUES {
            continue;
        }
        let mut values: Vec<(Sym, (usize, bool))> = by_sym.into_iter().collect();
        values.sort_by_key(|&(sym, _)| from.pool().value(sym));
        for (sym, (support, holds)) in values {
            if holds && support >= options.min_support {
                let mut cind = ind.clone();
                let value = from.pool().value(sym).clone();
                cind.from_conds.push(PatternCond { attr: cond_attr, value });
                out.push(MinedCind { cind, support });
            }
        }
    }
    Ok(out)
}

/// Catalog-level profiling: satisfied unary INDs become unconditional
/// CINDs (supported by every source tuple); violated type-compatible
/// pairs across two relations are lifted to conditional candidates via
/// [`lift_to_cinds`] — how the paper's book/CD CIND arises from data.
pub(crate) fn mine_cinds(catalog: &Catalog, min_support: usize) -> Result<Vec<MinedCind>> {
    let options = &IndOptions { min_support: min_support.max(1), ..IndOptions::default() };
    let pairs = unary_pairs(catalog, options)?;
    let mut out = Vec::new();
    for (ind, _) in pairs.iter().filter(|(_, holds)| *holds) {
        let support = catalog.get(&ind.from_relation)?.len();
        out.push(MinedCind { cind: Cind::from(ind.clone()), support });
    }
    for (ind, _) in pairs.iter().filter(|(i, holds)| !holds && i.from_relation != i.to_relation) {
        let (a, b) = (ind.from_attrs[0], ind.to_attrs[0]);
        out.extend(lift_to_cinds(catalog, &ind.from_relation, a, &ind.to_relation, b, options)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::{Schema, Type, Value};

    fn catalog() -> Catalog {
        let cd = Schema::builder("cd").attr("album", Type::Str).attr("genre", Type::Str).build();
        let book =
            Schema::builder("book").attr("title", Type::Str).attr("format", Type::Str).build();
        let mut cds = Table::new(cd);
        // Audio-book albums appear as book titles; pop albums don't.
        for i in 0..8 {
            cds.push(vec![format!("ab-{i}").into(), "a-book".into()]).unwrap();
        }
        for i in 0..6 {
            cds.push(vec![format!("pop-{i}").into(), "pop".into()]).unwrap();
        }
        let mut books = Table::new(book);
        for i in 0..8 {
            books.push(vec![format!("ab-{i}").into(), "audio".into()]).unwrap();
        }
        for i in 0..4 {
            books.push(vec![format!("novel-{i}").into(), "print".into()]).unwrap();
        }
        let mut c = Catalog::new();
        c.register(cds);
        c.register(books);
        c
    }

    #[test]
    fn unary_ind_discovery_finds_contained_columns() {
        // Build a catalog where orders.cid ⊆ customers.id holds.
        let orders = Schema::builder("orders").attr("cid", Type::Int).build();
        let customers = Schema::builder("customers").attr("id", Type::Int).build();
        let mut o = Table::new(orders);
        for i in [1i64, 2, 3] {
            o.push(vec![Value::Int(i)]).unwrap();
        }
        let mut c = Table::new(customers);
        for i in [1i64, 2, 3, 4, 5] {
            c.push(vec![Value::Int(i)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(o);
        cat.register(c);
        let inds = discover_unary_inds(&cat, &IndOptions { min_distinct: 2, ..Default::default() })
            .unwrap();
        assert!(inds.iter().any(|i| i.from_relation == "orders" && i.to_relation == "customers"));
        // The reverse does NOT hold (4, 5 missing from orders).
        assert!(!inds.iter().any(|i| i.from_relation == "customers" && i.to_relation == "orders"));
    }

    #[test]
    fn violated_ind_lifts_to_genre_condition() {
        let cat = catalog();
        // album ⊈ title globally (pop albums missing) …
        let inds = discover_unary_inds(&cat, &IndOptions::default()).unwrap();
        assert!(!inds.iter().any(|i| i.from_relation == "cd" && i.to_relation == "book"));
        // … but under genre='a-book' it holds: the lifted CIND.
        let candidates = lift_to_cinds(&cat, "cd", 0, "book", 0, &IndOptions::default()).unwrap();
        let found = candidates.iter().find(|c| {
            c.cind.from_conds.len() == 1 && c.cind.from_conds[0].value == "a-book".into()
        });
        let found = found.expect("genre='a-book' condition must be discovered");
        assert_eq!(found.support, 8);
        // And the candidate actually holds on the data.
        let from = cat.get("cd").unwrap();
        let to = cat.get("book").unwrap();
        assert!(found.cind.satisfied_by(from, to));
    }

    #[test]
    fn low_support_conditions_pruned() {
        let cat = catalog();
        let candidates = lift_to_cinds(
            &cat,
            "cd",
            0,
            "book",
            0,
            &IndOptions { min_support: 100, ..Default::default() },
        )
        .unwrap();
        assert!(candidates.is_empty());
    }
}
