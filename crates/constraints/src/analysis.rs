//! Static analyses of CFD suites: satisfiability, implication, and
//! minimal cover (Fan et al., TODS 2008 — reproduced here as T1 in
//! EXPERIMENTS.md).
//!
//! ## Background
//!
//! Unlike classical FDs, a set of CFDs can be *unsatisfiable*: e.g.
//! `([A='1'] -> [B='2'])` and `([A='1'] -> [B='3'])` admit no tuple with
//! `A = 1`, and combined with `([_] -> [A='1'])` admit no tuple at all.
//! TODS 2008 shows:
//!
//! * satisfiability is NP-complete in general, PTIME when no attribute
//!   has a finite domain;
//! * implication is coNP-complete in general, PTIME without finite
//!   domains;
//! * both enjoy a **small-model property**: a CFD suite is satisfiable
//!   iff some *single tuple* satisfies it, and `Σ ⊭ φ` iff there is a
//!   counterexample instance with at most **two** tuples whose values
//!   are drawn from the constants occurring in `Σ ∪ {φ}` plus at most
//!   two fresh values per attribute.
//!
//! This module implements both analyses as backtracking searches over
//! exactly that bounded witness space, which makes them decision
//! procedures (not heuristics) for the bounded fragment. Searches carry
//! a configurable node budget; exceeding it returns
//! [`Outcome::ResourceLimit`] rather than a wrong answer.
//!
//! ## What a search node reads
//!
//! A constant row can only be falsified once every attribute it reads —
//! its non-`_` LHS positions and its RHS — is assigned. The
//! satisfiability search assigns attributes in ascending order, so it
//! indexes the constant rows once per call by the *last* attribute each
//! reads, and a node that assigns `a` checks only the rows filed under
//! `a`: those the assignment completes. A row is then checked once per
//! value tried for that one attribute — under 2 checks per row on a
//! mined hospital suite, where checking the whole suite at every node
//! and again at the leaf read every row 12–15 times. The implication
//! searches still check every constant row: they only run on suites
//! small enough for the full cover. The witness domains are
//! deduplicated by hash, and only the distinct constants are sorted and
//! cloned.

use crate::cfd::{merge_by_embedded_fd, Cfd};
use crate::pattern::{PatternRow, PatternValue};
use revival_relation::groupby::FoldState;
use revival_relation::{Schema, Value};
use std::collections::HashSet;

/// Result of a static-analysis query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The property holds (satisfiable / implied).
    Yes,
    /// The property fails; for satisfiability this means *unsatisfiable*,
    /// for implication *not implied*.
    No,
    /// The node budget was exhausted before a decision was reached.
    ResourceLimit,
}

impl Outcome {
    /// Convenience: is this a definite yes?
    pub fn is_yes(&self) -> bool {
        matches!(self, Outcome::Yes)
    }
}

/// A symbolic value: a constant from the suite, or one of two fresh
/// values per attribute (fresh values are distinct from every constant
/// and from each other).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Sym {
    Const(Value),
    Fresh(u8),
}

impl Sym {
    fn matches(&self, p: &PatternValue) -> bool {
        match (p, self) {
            (PatternValue::Wildcard, _) => true,
            (PatternValue::Const(c), Sym::Const(v)) => c == v,
            (PatternValue::Const(_), Sym::Fresh(_)) => false,
            // Fresh values are distinct from every constant in the suite.
            (PatternValue::NotConst(c), Sym::Const(v)) => c != v,
            (PatternValue::NotConst(_), Sym::Fresh(_)) => true,
            (PatternValue::OneOf(cs), Sym::Const(v)) => cs.contains(v),
            (PatternValue::OneOf(_), Sym::Fresh(_)) => false,
        }
    }
}

/// Per-attribute symbolic domains for the witness search: a finite
/// attribute's declared values, any other's suite constants in value
/// order plus two fresh values.
fn domains(schema: &Schema, cfds: &[Cfd], extra: Option<&Cfd>) -> Vec<Vec<Sym>> {
    let arity = schema.arity();
    // Each attribute's distinct constants, in first-seen order.
    let mut consts: Vec<Vec<&Value>> = vec![Vec::new(); arity];
    let mut seen: HashSet<(usize, &Value), FoldState> = HashSet::default();
    for cfd in cfds.iter().chain(extra) {
        for row in &cfd.tableau {
            for (p, &a) in row.lhs.iter().zip(&cfd.lhs).chain([(&row.rhs, &cfd.rhs)]) {
                let vals = match p {
                    PatternValue::Const(c) | PatternValue::NotConst(c) => std::slice::from_ref(c),
                    PatternValue::OneOf(cs) => cs.as_slice(),
                    PatternValue::Wildcard => &[],
                };
                consts[a].extend(vals.iter().filter(|&v| seen.insert((a, v))));
            }
        }
    }
    (0..arity)
        .map(|a| {
            if let Some(dom) = &schema.attribute(a).finite_domain {
                // Finite domain: the witness must take a declared value.
                dom.iter().map(|v| Sym::Const(v.clone())).collect()
            } else {
                consts[a].sort_unstable();
                let vals = consts[a].iter().map(|&v| Sym::Const(v.clone()));
                vals.chain([Sym::Fresh(0), Sym::Fresh(1)]).collect()
            }
        })
        .collect()
}

/// A constant tableau row and the CFD that names its attributes.
type ConstRow<'a> = (&'a Cfd, &'a PatternRow);

/// Every constant row of `cfds` (any row whose RHS restricts values),
/// in suite order.
fn constant_rows(cfds: &[Cfd]) -> impl Iterator<Item = ConstRow<'_>> {
    cfds.iter().flat_map(|cfd| {
        cfd.tableau.iter().filter(|row| !row.rhs.is_wildcard()).map(move |row| (cfd, row))
    })
}

/// Check the constant rows `rows` against a fully/partially assigned
/// tuple. `None` entries are unassigned; a row only fails when every
/// relevant position is assigned and the implication is falsified.
fn constant_rows_ok<'a>(rows: impl IntoIterator<Item = ConstRow<'a>>, t: &[Option<Sym>]) -> bool {
    for (cfd, row) in rows {
        #[cfg(test)]
        ROWS_CHECKED.with(|n| n.set(n.get() + 1));
        // Does the (partial) tuple definitely match the LHS pattern?
        let mut definite_match = true;
        for (p, &a) in row.lhs.iter().zip(&cfd.lhs) {
            if p.is_wildcard() {
                continue; // matches any value, assigned or not
            }
            match &t[a] {
                Some(v) => {
                    if !v.matches(p) {
                        definite_match = false;
                        break;
                    }
                }
                None => {
                    definite_match = false;
                    break;
                }
            }
        }
        if definite_match {
            if let Some(v) = &t[cfd.rhs] {
                if !v.matches(&row.rhs) {
                    return false;
                }
            }
            // RHS unassigned: propagation happens implicitly when it
            // gets assigned (the row is checked again then).
        }
    }
    true
}

/// Check the *variable* rows of `cfds` across two fully/partially
/// assigned tuples.
fn variable_rows_ok(cfds: &[Cfd], t1: &[Option<Sym>], t2: &[Option<Sym>]) -> bool {
    for cfd in cfds {
        for row in &cfd.tableau {
            if !row.rhs.is_wildcard() {
                continue;
            }
            let mut applies = true;
            for (p, &a) in row.lhs.iter().zip(&cfd.lhs) {
                match (&t1[a], &t2[a]) {
                    (Some(v1), Some(v2)) => {
                        if v1 != v2 || !v1.matches(p) {
                            applies = false;
                            break;
                        }
                    }
                    _ => {
                        applies = false;
                        break;
                    }
                }
            }
            if applies {
                if let (Some(v1), Some(v2)) = (&t1[cfd.rhs], &t2[cfd.rhs]) {
                    if v1 != v2 {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Is the CFD suite satisfiable (by a non-empty instance)?
///
/// Uses the single-tuple small-model property: `Σ` is satisfiable iff
/// some single tuple satisfies every constant row (variable rows are
/// vacuous on one tuple).
pub fn is_satisfiable(schema: &Schema, cfds: &[Cfd], node_budget: usize) -> Outcome {
    let mut budget = node_budget;
    search_satisfiable(schema, cfds, &mut budget)
}

/// [`is_satisfiable`], spending nodes from `budget`.
fn search_satisfiable(schema: &Schema, cfds: &[Cfd], budget: &mut usize) -> Outcome {
    let doms = domains(schema, cfds, None);
    let arity = schema.arity();
    let mut t: Vec<Option<Sym>> = vec![None; arity];
    // Only attributes that appear in some constant row matter; leave the
    // rest unassigned (any fresh value works). The search assigns them
    // in ascending order, so a constant row can only be falsified once
    // the last attribute it reads is assigned: it is filed there alone.
    let mut relevant = vec![false; arity];
    let mut by_attr: Vec<Vec<ConstRow<'_>>> = vec![Vec::new(); arity];
    for (cfd, row) in constant_rows(cfds) {
        relevant[cfd.rhs] = true;
        for (p, &a) in row.lhs.iter().zip(&cfd.lhs) {
            // Wildcard LHS positions match anything; only constant
            // positions and finite-domain attributes can prune.
            if !p.is_wildcard() || schema.attribute(a).is_finite() {
                relevant[a] = true;
            }
        }
        let reads = row.lhs.iter().zip(&cfd.lhs).filter(|(p, _)| !p.is_wildcard());
        let last = reads.map(|(_, &a)| a).fold(cfd.rhs, usize::max);
        by_attr[last].push((cfd, row));
    }
    let order: Vec<usize> = (0..arity).filter(|&a| relevant[a]).collect();
    if search_tuple(&order, 0, &doms, &by_attr, &mut t, budget) {
        Outcome::Yes
    } else if *budget == 0 {
        Outcome::ResourceLimit
    } else {
        Outcome::No
    }
}

/// Assign `order[depth..]` in turn. Every constant row held at the
/// parent node, and a row can only fail once the last attribute it
/// reads is assigned, so assigning `a` checks `by_attr[a]` alone — and a
/// complete tuple has already had every row checked.
fn search_tuple(
    order: &[usize],
    depth: usize,
    doms: &[Vec<Sym>],
    by_attr: &[Vec<ConstRow<'_>>],
    t: &mut Vec<Option<Sym>>,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if depth == order.len() {
        return true;
    }
    let a = order[depth];
    for v in &doms[a] {
        t[a] = Some(v.clone());
        if constant_rows_ok(by_attr[a].iter().copied(), t)
            && search_tuple(order, depth + 1, doms, by_attr, t, budget)
        {
            return true;
        }
    }
    t[a] = None;
    false
}

/// Does `Σ ⊨ φ`? Complete over the bounded witness space of the
/// small-model property (two tuples, constants of `Σ ∪ {φ}` plus two
/// fresh values per attribute).
///
/// Each tableau row of `φ` is checked independently (a multi-row CFD is
/// the conjunction of its rows).
pub fn implies(schema: &Schema, sigma: &[Cfd], phi: &Cfd, node_budget: usize) -> Outcome {
    // An unsatisfiable Σ implies everything; the counterexample search
    // below naturally returns `Yes` in that case (no model of Σ exists).
    for row in &phi.tableau {
        let single = Cfd {
            relation: phi.relation.clone(),
            lhs: phi.lhs.clone(),
            rhs: phi.rhs,
            tableau: vec![row.clone()],
        };
        let out = implies_single_row(schema, sigma, &single, node_budget);
        match out {
            Outcome::Yes => continue,
            other => return other,
        }
    }
    Outcome::Yes
}

fn implies_single_row(schema: &Schema, sigma: &[Cfd], phi: &Cfd, node_budget: usize) -> Outcome {
    let row = &phi.tableau[0];
    let doms = domains(schema, sigma, Some(phi));
    let arity = schema.arity();
    let mut budget = node_budget;

    if !row.rhs.is_wildcard() {
        // Counterexample: one tuple matching φ's LHS pattern whose RHS
        // value falsifies the RHS pattern, satisfying Σ.
        let mut t: Vec<Option<Sym>> = vec![None; arity];
        let order: Vec<usize> = (0..arity).collect();
        let found = search_ce_const(&order, 0, &doms, sigma, phi, &mut t, &mut budget);
        return decide(found, budget);
    }

    // Variable RHS: counterexample = two tuples agreeing on X (matching
    // the pattern), differing on A, both satisfying Σ.
    let mut t1: Vec<Option<Sym>> = vec![None; arity];
    let mut t2: Vec<Option<Sym>> = vec![None; arity];
    // Assign t1 fully, then t2; prune with partial checks.
    let order: Vec<usize> = (0..arity).collect();
    let found = search_ce_var(&order, 0, true, &doms, sigma, phi, &mut t1, &mut t2, &mut budget);
    decide(found, budget)
}

fn decide(counterexample_found: bool, budget_left: usize) -> Outcome {
    if counterexample_found {
        Outcome::No
    } else if budget_left == 0 {
        Outcome::ResourceLimit
    } else {
        Outcome::Yes
    }
}

fn search_ce_const(
    order: &[usize],
    depth: usize,
    doms: &[Vec<Sym>],
    sigma: &[Cfd],
    phi: &Cfd,
    t: &mut Vec<Option<Sym>>,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    let row = &phi.tableau[0];
    if depth == order.len() {
        // t must match φ's LHS pattern, violate its RHS, and satisfy Σ.
        let lhs_ok = row
            .lhs
            .iter()
            .zip(&phi.lhs)
            .all(|(p, &a)| t[a].as_ref().map(|v| v.matches(p)).unwrap_or(false));
        let rhs_bad = t[phi.rhs].as_ref().map(|v| !v.matches(&row.rhs)).unwrap_or(false);
        return lhs_ok && rhs_bad && constant_rows_ok(constant_rows(sigma), t);
    }
    let a = order[depth];
    for v in &doms[a] {
        // Prune: if a is a φ-LHS position with a constant pattern, only
        // matching values can yield a counterexample.
        if let Some(pos) = phi.lhs.iter().position(|&x| x == a) {
            if !v.matches(&row.lhs[pos]) {
                continue;
            }
        }
        if a == phi.rhs && v.matches(&row.rhs) {
            continue; // the RHS value must falsify the RHS pattern
        }
        t[a] = Some(v.clone());
        if constant_rows_ok(constant_rows(sigma), t)
            && search_ce_const(order, depth + 1, doms, sigma, phi, t, budget)
        {
            return true;
        }
    }
    t[a] = None;
    false
}

#[allow(clippy::too_many_arguments)]
fn search_ce_var(
    order: &[usize],
    depth: usize,
    first: bool,
    doms: &[Vec<Sym>],
    sigma: &[Cfd],
    phi: &Cfd,
    t1: &mut Vec<Option<Sym>>,
    t2: &mut Vec<Option<Sym>>,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    let row = &phi.tableau[0];
    if depth == order.len() {
        if first {
            // t1 complete: require it to match φ's LHS pattern before
            // starting on t2.
            let lhs_ok = row
                .lhs
                .iter()
                .zip(&phi.lhs)
                .all(|(p, &a)| t1[a].as_ref().map(|v| v.matches(p)).unwrap_or(false));
            if !lhs_ok || !constant_rows_ok(constant_rows(sigma), t1) {
                return false;
            }
            return search_ce_var(order, 0, false, doms, sigma, phi, t1, t2, budget);
        }
        // Both complete: violation of φ + satisfaction of Σ.
        let agree_x = phi.lhs.iter().all(|&a| t1[a] == t2[a]);
        let differ_a = t1[phi.rhs] != t2[phi.rhs];
        return agree_x
            && differ_a
            && constant_rows_ok(constant_rows(sigma), t2)
            && variable_rows_ok(sigma, t1, t2);
    }
    let a = order[depth];
    for v in doms[a].clone() {
        if let Some(pos) = phi.lhs.iter().position(|&x| x == a) {
            if !v.matches(&row.lhs[pos]) {
                continue;
            }
            // Second tuple must agree with the first on X.
            if !first {
                if let Some(v1) = &t1[a] {
                    if v != *v1 {
                        continue;
                    }
                }
            }
        }
        if first {
            t1[a] = Some(v);
        } else {
            t2[a] = Some(v);
        }
        let ok = if first {
            constant_rows_ok(constant_rows(sigma), t1)
        } else {
            constant_rows_ok(constant_rows(sigma), t2) && variable_rows_ok(sigma, t1, t2)
        };
        if ok && search_ce_var(order, depth + 1, first, doms, sigma, phi, t1, t2, budget) {
            return true;
        }
    }
    if first {
        t1[a] = None;
    } else {
        t2[a] = None;
    }
    false
}

/// Report of a minimal-cover computation.
#[derive(Clone, Debug, Default)]
pub struct CoverReport {
    /// Tableau rows in the input (after normal-form merge).
    pub rows_in: usize,
    /// Tableau rows in the output.
    pub rows_out: usize,
    /// Rows dropped because they were implied by the remainder.
    pub implied_dropped: usize,
    /// Rows dropped by intra-CFD subsumption.
    pub subsumed_dropped: usize,
}

/// Compute a minimal cover of a CFD suite (`MinCover` of TODS 2008):
/// merge CFDs sharing an embedded FD, drop subsumed tableau rows, then
/// drop every row implied by the remaining suite.
///
/// Rows whose implication test hits the node budget are conservatively
/// kept, so the output is always equivalent to the input.
pub fn minimal_cover(schema: &Schema, cfds: &[Cfd], node_budget: usize) -> (Vec<Cfd>, CoverReport) {
    let mut merged = merge_by_embedded_fd(cfds);
    let mut report = CoverReport {
        rows_in: merged.iter().map(|c| c.tableau.len()).sum(),
        ..CoverReport::default()
    };
    for cfd in &mut merged {
        let before = cfd.tableau.len();
        cfd.prune_subsumed_rows();
        report.subsumed_dropped += before - cfd.tableau.len();
    }
    // Drop rows implied by everything else, one at a time (greedy).
    let mut changed = true;
    while changed {
        changed = false;
        'outer: for ci in 0..merged.len() {
            for ri in 0..merged[ci].tableau.len() {
                // Build Σ' = suite minus this row; φ = this row alone.
                let mut candidate = merged[ci].clone();
                let row = candidate.tableau.remove(ri);
                let phi = Cfd {
                    relation: merged[ci].relation.clone(),
                    lhs: merged[ci].lhs.clone(),
                    rhs: merged[ci].rhs,
                    tableau: vec![row],
                };
                let mut sigma: Vec<Cfd> = Vec::with_capacity(merged.len());
                for (j, c) in merged.iter().enumerate() {
                    if j == ci {
                        if !candidate.tableau.is_empty() {
                            sigma.push(candidate.clone());
                        }
                    } else {
                        sigma.push(c.clone());
                    }
                }
                if implies(schema, &sigma, &phi, node_budget) == Outcome::Yes {
                    merged[ci].tableau.remove(ri);
                    if merged[ci].tableau.is_empty() {
                        merged.remove(ci);
                    }
                    report.implied_dropped += 1;
                    changed = true;
                    break 'outer;
                }
            }
        }
    }
    report.rows_out = merged.iter().map(|c| c.tableau.len()).sum();
    (merged, report)
}

/// Default node budget used by callers that don't care to tune it.
pub const DEFAULT_BUDGET: usize = 2_000_000;

#[cfg(test)]
thread_local! {
    /// Constant rows this thread's searches have checked — the
    /// satisfiability search's work count.
    static ROWS_CHECKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cfds;
    use proptest::prelude::*;
    use revival_relation::Type;
    use std::collections::BTreeSet;

    /// `domains` as it stood before the hashed dedup: an ordered set of
    /// cloned constants per attribute. Kept verbatim for the oracle.
    fn domains_ordered_sets(schema: &Schema, cfds: &[Cfd]) -> Vec<Vec<Sym>> {
        let arity = schema.arity();
        let mut consts: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); arity];
        let mut collect = |cfd: &Cfd| {
            let mut add = |a: usize, p: &PatternValue| match p {
                PatternValue::Const(c) | PatternValue::NotConst(c) => {
                    consts[a].insert(c.clone());
                }
                PatternValue::OneOf(cs) => {
                    consts[a].extend(cs.iter().cloned());
                }
                PatternValue::Wildcard => {}
            };
            for row in &cfd.tableau {
                for (p, &a) in row.lhs.iter().zip(&cfd.lhs) {
                    add(a, p);
                }
                add(cfd.rhs, &row.rhs);
            }
        };
        for cfd in cfds {
            collect(cfd);
        }
        (0..arity)
            .map(|a| {
                if let Some(dom) = &schema.attribute(a).finite_domain {
                    dom.iter().map(|v| Sym::Const(v.clone())).collect()
                } else {
                    let mut d: Vec<Sym> = consts[a].iter().map(|v| Sym::Const(v.clone())).collect();
                    d.push(Sym::Fresh(0));
                    d.push(Sym::Fresh(1));
                    d
                }
            })
            .collect()
    }

    /// The search as it stood before the attribute index: every node,
    /// and the leaf again, checks every constant row of the suite. Kept
    /// as the oracle for the outcome *and* the nodes spent.
    fn is_satisfiable_full_scan(schema: &Schema, cfds: &[Cfd], budget: &mut usize) -> Outcome {
        fn search(
            order: &[usize],
            depth: usize,
            doms: &[Vec<Sym>],
            cfds: &[Cfd],
            t: &mut Vec<Option<Sym>>,
            budget: &mut usize,
        ) -> bool {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            if depth == order.len() {
                return constant_rows_ok(constant_rows(cfds), t);
            }
            let a = order[depth];
            for v in &doms[a] {
                t[a] = Some(v.clone());
                if constant_rows_ok(constant_rows(cfds), t)
                    && search(order, depth + 1, doms, cfds, t, budget)
                {
                    return true;
                }
            }
            t[a] = None;
            false
        }
        let doms = domains_ordered_sets(schema, cfds);
        let arity = schema.arity();
        let mut t: Vec<Option<Sym>> = vec![None; arity];
        let mut relevant = vec![false; arity];
        for cfd in cfds {
            for row in &cfd.tableau {
                if row.rhs.is_wildcard() {
                    continue;
                }
                relevant[cfd.rhs] = true;
                for (p, &a) in row.lhs.iter().zip(&cfd.lhs) {
                    if !p.is_wildcard() || schema.attribute(a).is_finite() {
                        relevant[a] = true;
                    }
                }
            }
        }
        let order: Vec<usize> = (0..arity).filter(|&a| relevant[a]).collect();
        if search(&order, 0, &doms, cfds, &mut t, budget) {
            Outcome::Yes
        } else if *budget == 0 {
            Outcome::ResourceLimit
        } else {
            Outcome::No
        }
    }

    /// `(outcome, nodes spent)` of the indexed search and of the oracle.
    fn both_searches(schema: &Schema, cfds: &[Cfd], budget: usize) -> [(Outcome, usize); 2] {
        let (mut fast, mut slow) = (budget, budget);
        let fast = (search_satisfiable(schema, cfds, &mut fast), budget - fast);
        let slow = (is_satisfiable_full_scan(schema, cfds, &mut slow), budget - slow);
        [fast, slow]
    }

    /// Four attributes over `v0..v2` where finite; bit `i` of `finite`
    /// makes attribute `i` finite.
    fn search_schema(finite: u8) -> Schema {
        let dom: Vec<Value> = (0..3).map(|i| Value::str(format!("v{i}"))).collect();
        let mut b = Schema::builder("r");
        for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
            b = if finite >> i & 1 == 1 {
                b.attr_in(name, Type::Str, dom.clone())
            } else {
                b.attr(name, Type::Str)
            };
        }
        b.build()
    }

    /// LHS cells: `_` most often, constants (`v3` lies outside every
    /// finite domain), `≠` and `∈`.
    fn lhs_cell(code: u8) -> PatternValue {
        let v = |i: u8| Value::str(format!("v{i}"));
        match code {
            0..=3 => PatternValue::Wildcard,
            4..=7 => PatternValue::Const(v(code - 4)),
            8 | 9 => PatternValue::NotConst(v(code - 8)),
            10 => PatternValue::OneOf(vec![v(0), v(1)]),
            _ => PatternValue::OneOf(vec![v(2), v(3)]),
        }
    }

    /// RHS cells: `_` (a variable row, invisible to the search) or a
    /// restriction.
    fn rhs_cell(code: u8) -> PatternValue {
        let v = |i: u8| Value::str(format!("v{i}"));
        match code {
            0..=2 => PatternValue::Wildcard,
            3..=6 => PatternValue::Const(v(code - 3)),
            7 => PatternValue::NotConst(v(1)),
            8 => PatternValue::OneOf(vec![v(0), v(2)]),
            _ => PatternValue::OneOf(vec![v(1), v(3)]),
        }
    }

    type CfdCodes = (u8, u8, Vec<(u8, u8, u8, u8)>);

    /// A CFD over one of six LHS lists (one repeats its RHS attribute
    /// on the LHS), rows from codes.
    fn search_cfd((lhs, rhs, rows): &CfdCodes) -> Cfd {
        let lhs = [&[0][..], &[1], &[0, 1], &[1, 2], &[0, 2, 3], &[2, 3]][*lhs as usize].to_vec();
        let tableau = rows
            .iter()
            .map(|&(x, y, z, r)| {
                let cells = [x, y, z][..lhs.len()].iter().map(|&c| lhs_cell(c)).collect();
                PatternRow::new(cells, rhs_cell(r))
            })
            .collect();
        Cfd { relation: "r".into(), lhs, rhs: *rhs as usize, tableau }
    }

    fn cfd_codes() -> impl Strategy<Value = CfdCodes> {
        (0u8..6, 0u8..4, prop::collection::vec((0u8..12, 0u8..12, 0u8..12, 0u8..10), 1..=3))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn indexed_search_spends_what_the_full_scan_spends(
            finite in 0u8..16,
            codes in prop::collection::vec(cfd_codes(), 1..=6),
        ) {
            let schema = search_schema(finite);
            let suite: Vec<Cfd> = codes.iter().map(search_cfd).collect();
            let [fast, slow] = both_searches(&schema, &suite, DEFAULT_BUDGET);
            prop_assert_eq!(&fast, &slow);
            // Every budget that runs out before the end, and the ones
            // that just do not.
            let spent = slow.1;
            let budgets = (1..=spent.min(24)).chain(spent.saturating_sub(1)..=spent + 1);
            for budget in budgets.filter(|&b| b > 0) {
                let [fast, slow] = both_searches(&schema, &suite, budget);
                prop_assert_eq!(fast, slow, "budget {}", budget);
            }
        }
    }

    #[test]
    fn a_mined_suite_is_checked_at_most_three_times_per_row() {
        use revival_dirty::hospital::{attrs, generate, HospitalConfig};
        use revival_dirty::noise::{inject, NoiseConfig};
        use revival_discovery::{
            DiscoverJob, DiscoverOptions, DiscoveryEngine, SequentialDiscovery,
        };
        let data = generate(&HospitalConfig { rows: 2_500, ..Default::default() });
        let noise =
            NoiseConfig::new(0.02, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
        let table = inject(&data.table, &noise).dirty;
        let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
        let mined = SequentialDiscovery.run(&DiscoverJob::on_table(&table, opts)).unwrap().vetted;
        // Discovery links its own build of this crate: cross over as text.
        let schema = table.schema();
        let text: String = mined.iter().map(|cfd| format!("{}\n", cfd.display(schema))).collect();
        let suite = parse_cfds(&text, schema).unwrap();
        let rows = constant_rows(&suite).count() as u64;
        assert!(rows >= 5_000, "{rows} constant row(s): too small to tell");

        ROWS_CHECKED.with(|n| n.set(0));
        assert_eq!(is_satisfiable(schema, &suite, DEFAULT_BUDGET), Outcome::Yes);
        let checked = ROWS_CHECKED.with(|n| n.get());
        // A row is checked once per value tried for the last attribute
        // it reads, and a mined row reads at most three (two LHS
        // constants and the RHS). Checking every row at each of the
        // search's nodes read each 12 times here.
        assert!(checked <= 3 * rows, "{checked} row checks for {rows} constant row(s)");
        let [fast, slow] = both_searches(schema, &suite, DEFAULT_BUDGET);
        assert_eq!(fast, slow);
    }

    fn schema() -> Schema {
        Schema::builder("r").attr("a", Type::Str).attr("b", Type::Str).attr("c", Type::Str).build()
    }

    fn schema_finite() -> Schema {
        Schema::builder("r")
            .attr_in("a", Type::Str, vec!["0".into(), "1".into()])
            .attr("b", Type::Str)
            .attr("c", Type::Str)
            .build()
    }

    #[test]
    fn satisfiable_simple() {
        let s = schema();
        let cfds = parse_cfds("r([a='1', b] -> [c])", &s).unwrap();
        assert_eq!(is_satisfiable(&s, &cfds, DEFAULT_BUDGET), Outcome::Yes);
    }

    #[test]
    fn unsat_conflicting_constants_after_forcing() {
        let s = schema();
        // Every tuple must have b='x' (wildcard LHS), and every tuple
        // with b='x' must have c='1' and c='2' → unsatisfiable.
        let cfds = parse_cfds(
            "r([a] -> [b='x'])\n\
             r([b='x'] -> [c='1'])\n\
             r([b='x'] -> [c='2'])",
            &s,
        )
        .unwrap();
        assert_eq!(is_satisfiable(&s, &cfds, DEFAULT_BUDGET), Outcome::No);
    }

    #[test]
    fn sat_conflict_avoidable_without_forcing() {
        let s = schema();
        // Conflicting constants guarded by a='1'; a tuple with a≠1 works.
        let cfds = parse_cfds(
            "r([a='1'] -> [c='1'])\n\
             r([a='1'] -> [c='2'])",
            &s,
        )
        .unwrap();
        assert_eq!(is_satisfiable(&s, &cfds, DEFAULT_BUDGET), Outcome::Yes);
    }

    #[test]
    fn finite_domain_makes_unsat() {
        let s = schema_finite();
        // a ∈ {0,1}; both values force conflicting c constants via b.
        let cfds = parse_cfds(
            "r([a='0'] -> [c='1'])\n\
             r([a='0'] -> [c='2'])\n\
             r([a='1'] -> [c='3'])\n\
             r([a='1'] -> [c='4'])",
            &s,
        )
        .unwrap();
        assert_eq!(is_satisfiable(&s, &cfds, DEFAULT_BUDGET), Outcome::No);
        // Same suite over an infinite domain is satisfiable (pick a='z').
        let s2 = schema();
        let cfds2 = parse_cfds(
            "r([a='0'] -> [c='1'])\n\
             r([a='0'] -> [c='2'])\n\
             r([a='1'] -> [c='3'])\n\
             r([a='1'] -> [c='4'])",
            &s2,
        )
        .unwrap();
        assert_eq!(is_satisfiable(&s2, &cfds2, DEFAULT_BUDGET), Outcome::Yes);
    }

    #[test]
    fn implication_reflexive() {
        let s = schema();
        let cfds = parse_cfds("r([a='1', b] -> [c])", &s).unwrap();
        assert_eq!(implies(&s, &cfds, &cfds[0], DEFAULT_BUDGET), Outcome::Yes);
    }

    #[test]
    fn general_implies_specific() {
        let s = schema();
        // Plain FD b → c implies the conditional version.
        let general = parse_cfds("r([b] -> [c])", &s).unwrap();
        let specific = parse_cfds("r([a='1', b] -> [c])", &s).unwrap();
        // Note different LHS sets: [b] vs [a,b]. The [a='1',b]→c CFD has
        // lhs {a,b}; the plain FD has lhs {b}. Implication still holds.
        assert_eq!(implies(&s, &general, &specific[0], DEFAULT_BUDGET), Outcome::Yes);
        // And not vice versa.
        assert_eq!(implies(&s, &specific, &general[0], DEFAULT_BUDGET), Outcome::No);
    }

    #[test]
    fn constant_rhs_implication() {
        let s = schema();
        let sigma = parse_cfds(
            "r([a='1'] -> [b='x'])\n\
             r([b='x'] -> [c='y'])",
            &s,
        )
        .unwrap();
        let phi = parse_cfds("r([a='1'] -> [c='y'])", &s).unwrap();
        assert_eq!(implies(&s, &sigma, &phi[0], DEFAULT_BUDGET), Outcome::Yes);
        let not_implied = parse_cfds("r([a='2'] -> [c='y'])", &s).unwrap();
        assert_eq!(implies(&s, &sigma, &not_implied[0], DEFAULT_BUDGET), Outcome::No);
    }

    #[test]
    fn transitivity_of_variable_cfds() {
        let s = schema();
        let sigma = parse_cfds(
            "r([a] -> [b])\n\
             r([b] -> [c])",
            &s,
        )
        .unwrap();
        let phi = parse_cfds("r([a] -> [c])", &s).unwrap();
        assert_eq!(implies(&s, &sigma, &phi[0], DEFAULT_BUDGET), Outcome::Yes);
        let reverse = parse_cfds("r([c] -> [a])", &s).unwrap();
        assert_eq!(implies(&s, &sigma, &reverse[0], DEFAULT_BUDGET), Outcome::No);
    }

    #[test]
    fn unsatisfiable_sigma_implies_everything() {
        let s = schema();
        let sigma = parse_cfds(
            "r([a] -> [b='x'])\n\
             r([b='x'] -> [c='1'])\n\
             r([b='x'] -> [c='2'])",
            &s,
        )
        .unwrap();
        let phi = parse_cfds("r([c] -> [a])", &s).unwrap();
        assert_eq!(implies(&s, &sigma, &phi[0], DEFAULT_BUDGET), Outcome::Yes);
    }

    #[test]
    fn finite_domain_implication() {
        // Over a ∈ {0,1}: ([a='0',b]→c) ∧ ([a='1',b]→c) imply ([a,b]→c)
        // — case analysis impossible over infinite domains.
        let s = schema_finite();
        let sigma = parse_cfds(
            "r([a='0', b] -> [c])\n\
             r([a='1', b] -> [c])",
            &s,
        )
        .unwrap();
        let phi = parse_cfds("r([a, b] -> [c])", &s).unwrap();
        // Counterexample would need t1,t2 agreeing on (a,b), differing on
        // c, matching no σ-row — impossible since a must be 0 or 1.
        // Wait: t1,t2 agree on a; if a=0 the first σ-CFD fires. So implied.
        assert_eq!(implies(&s, &sigma, &phi[0], DEFAULT_BUDGET), Outcome::Yes);
        // Over infinite domains the same implication FAILS (pick a='z').
        let s2 = schema();
        let sigma2 = parse_cfds(
            "r([a='0', b] -> [c])\n\
             r([a='1', b] -> [c])",
            &s2,
        )
        .unwrap();
        let phi2 = parse_cfds("r([a, b] -> [c])", &s2).unwrap();
        assert_eq!(implies(&s2, &sigma2, &phi2[0], DEFAULT_BUDGET), Outcome::No);
    }

    #[test]
    fn budget_exhaustion_reports_limit() {
        let s = schema();
        let sigma = parse_cfds("r([a] -> [b])", &s).unwrap();
        let phi = parse_cfds("r([b] -> [c])", &s).unwrap();
        assert_eq!(implies(&s, &sigma, &phi[0], 1), Outcome::ResourceLimit);
    }

    #[test]
    fn minimal_cover_drops_implied_rows() {
        let s = schema();
        let cfds = parse_cfds(
            "r([b] -> [c])\n\
             r([a='1', b] -> [c])\n\
             r([b] -> [c])",
            &s,
        )
        .unwrap();
        let (cover, report) = minimal_cover(&s, &cfds, DEFAULT_BUDGET);
        let total_rows: usize = cover.iter().map(|c| c.tableau.len()).sum();
        assert_eq!(total_rows, 1);
        assert!(report.rows_in >= 2);
        assert_eq!(report.rows_out, 1);
        // The surviving row is the general one.
        assert!(cover[0].tableau[0].lhs.iter().all(|p| p.is_wildcard()));
    }

    #[test]
    fn minimal_cover_keeps_independent_rows() {
        let s = schema();
        let cfds = parse_cfds(
            "r([a='1', b] -> [c])\n\
             r([a='2', b] -> [c])",
            &s,
        )
        .unwrap();
        let (cover, report) = minimal_cover(&s, &cfds, DEFAULT_BUDGET);
        let total_rows: usize = cover.iter().map(|c| c.tableau.len()).sum();
        assert_eq!(total_rows, 2);
        assert_eq!(report.implied_dropped, 0);
    }
}
