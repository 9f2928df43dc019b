//! Conditional functional dependencies (CFDs).
//!
//! A CFD `φ = (R: X → A, Tp)` pairs an *embedded* FD `X → A` with a
//! *pattern tableau* `Tp` of rows over `X ∪ {A}` whose entries are
//! constants or the wildcard `_`. The paper's examples:
//!
//! * `customer([cc='44', zip] -> [street])` — for UK customers, `zip`
//!   determines `street` (a *variable* CFD: RHS pattern `_`);
//! * `customer([cc='01', ac='908', phn] -> [city='mh'])` — US customers
//!   with area code 908 must live in `mh` (a *constant* CFD: RHS
//!   pattern is a constant).
//!
//! This module uses the **normal form** of Fan et al. (TODS 2008): a
//! single RHS attribute per CFD. [`crate::parser`] normalises the
//! multi-attribute surface syntax into this form.
//!
//! ## Semantics
//!
//! An instance `I` satisfies `φ` iff for every pair of tuples `t1, t2`
//! (not necessarily distinct) and every row `tp ∈ Tp`: if `t1[X] = t2[X]`
//! and both match `tp[X]`, then `t1[A] = t2[A]` and both match `tp[A]`.
//! With `t1 = t2` this yields the single-tuple semantics of constant
//! rows.
//!
//! ## Vetting a mined suite
//!
//! [`merge_by_embedded_fd`] and [`Cfd::prune_subsumed_rows`] are the
//! cheap cover discovery runs over every mined tableau row, so both pay
//! per row, not per comparison: each row is hashed once, through a
//! seeded [`FoldState`] rather than SipHash, and pruning threads rows
//! that share an LHS onto one chain of links instead of a vector per
//! distinct LHS — a tableau costs a fixed handful of allocations to
//! prune, however many LHSs it holds.

use crate::fd::Fd;
use crate::pattern::{PatternRow, PatternValue};
use revival_relation::groupby::FoldState;
use revival_relation::{AttrId, Error, Result, Schema, Table, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A normal-form CFD: `(relation: lhs → rhs, tableau)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cfd {
    /// Relation name this CFD constrains.
    pub relation: String,
    /// LHS attribute ids.
    pub lhs: Vec<AttrId>,
    /// The single RHS attribute id (normal form).
    pub rhs: AttrId,
    /// Pattern tableau; each row is positionally aligned with `lhs` plus
    /// the RHS pattern.
    pub tableau: Vec<PatternRow>,
}

impl Cfd {
    /// Build a CFD from attribute names and a tableau. The tableau is
    /// validated ([`Cfd::validate`]) so malformed rows surface as a
    /// typed error here, not a panic deep inside a detection scan.
    pub fn new(schema: &Schema, lhs: &[&str], rhs: &str, tableau: Vec<PatternRow>) -> Result<Cfd> {
        let cfd = Cfd {
            relation: schema.name().to_string(),
            lhs: schema.attr_ids(lhs)?,
            rhs: schema.attr_id(rhs)?,
            tableau,
        };
        cfd.validate()?;
        Ok(cfd)
    }

    /// Check the tableau shape: every row's LHS arity must equal the
    /// CFD's LHS arity, and every `∈ {…}` disjunction must be
    /// non-empty. Detection engines and `revival_repair`'s passes run
    /// this up front so a malformed pattern (e.g. a hand-built CFD that
    /// bypassed [`Cfd::new`]) yields [`Error::MalformedPattern`] instead
    /// of aborting a sharded scan mid-flight.
    pub fn validate(&self) -> Result<()> {
        let malformed = |reason: String| Error::MalformedPattern {
            constraint: format!("{}([..] -> [..])", self.relation),
            reason,
        };
        for (i, row) in self.tableau.iter().enumerate() {
            if row.lhs.len() != self.lhs.len() {
                return Err(malformed(format!(
                    "tableau row {i} has arity {} but the LHS has {} attribute(s)",
                    row.lhs.len(),
                    self.lhs.len()
                )));
            }
            for (pos, p) in row.lhs.iter().chain(std::iter::once(&row.rhs)).enumerate() {
                if matches!(p, PatternValue::OneOf(vs) if vs.is_empty()) {
                    return Err(malformed(format!(
                        "tableau row {i}, position {pos}: empty disjunction matches nothing"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The classical FD obtained by dropping all patterns.
    pub fn embedded_fd(&self) -> Fd {
        Fd::from_ids(self.relation.clone(), self.lhs.clone(), vec![self.rhs])
    }

    /// A CFD expressing a plain FD (single all-wildcard row).
    pub fn from_fd(schema: &Schema, lhs: &[&str], rhs: &str) -> Result<Cfd> {
        let row = PatternRow::all_wildcards(lhs.len());
        Cfd::new(schema, lhs, rhs, vec![row])
    }

    /// Tableau rows whose RHS is a constant (checkable per tuple).
    pub fn constant_rows(&self) -> impl Iterator<Item = &PatternRow> {
        self.tableau.iter().filter(|r| r.is_constant_row())
    }

    /// Tableau rows whose RHS is `_` (need tuple pairs to violate).
    pub fn variable_rows(&self) -> impl Iterator<Item = &PatternRow> {
        self.tableau.iter().filter(|r| !r.is_constant_row())
    }

    /// Is this CFD a plain FD (every tableau row all-wildcard)?
    pub fn is_plain_fd(&self) -> bool {
        self.tableau.iter().all(PatternRow::is_embedded_fd_row)
    }

    /// Does a single tuple violate *this specific* tableau row? True
    /// iff the row is constant-style (RHS restricts values), its LHS
    /// patterns all match, and its RHS pattern fails.
    pub fn violates_constant_row(&self, row: &[Value], tp: &PatternRow) -> bool {
        !tp.rhs.is_wildcard()
            && tp.lhs.iter().zip(&self.lhs).all(|(p, &a)| p.matches(&row[a]))
            && !tp.rhs.matches(&row[self.rhs])
    }

    /// Does a single tuple violate some constant-style row (any row
    /// whose RHS pattern restricts values: `= c`, `≠ c`, or `∈ {…}`)?
    /// Returns the first offending tableau-row index.
    pub fn constant_violation(&self, row: &[Value]) -> Option<usize> {
        self.tableau.iter().position(|tp| self.violates_constant_row(row, tp))
    }

    /// Full satisfaction check of a table (O(n) with hashing on LHS).
    ///
    /// Returns `true` iff no tuple or tuple pair violates this CFD.
    /// Detection with per-violation reporting lives in `revival-detect`;
    /// this is the oracle used in tests and by repair verification.
    pub fn satisfied_by(&self, table: &Table) -> bool {
        // Constant rows: single scan.
        for (_, row) in table.rows() {
            if self.constant_violation(&row).is_some() {
                return false;
            }
        }
        // Variable rows: group by LHS, then check RHS agreement among
        // tuples matching each variable pattern row.
        if self.variable_rows().next().is_none() {
            return true;
        }
        let mut per_row_groups: Vec<HashMap<Vec<Value>, Value>> =
            vec![HashMap::new(); self.tableau.len()];
        for (_, row) in table.rows() {
            let key: Vec<Value> = self.lhs.iter().map(|&a| row[a].clone()).collect();
            for (i, tp) in self.tableau.iter().enumerate() {
                if !tp.rhs.is_wildcard() {
                    continue;
                }
                if tp.lhs.iter().zip(&key).all(|(p, v)| p.matches(v)) {
                    match per_row_groups[i].get(&key) {
                        Some(prev) => {
                            if *prev != row[self.rhs] {
                                return false;
                            }
                        }
                        None => {
                            per_row_groups[i].insert(key.clone(), row[self.rhs].clone());
                        }
                    }
                }
            }
        }
        true
    }

    /// Drop tableau rows subsumed by other rows in the same CFD (of
    /// mutually subsuming rows the first stays). A row is compared only
    /// with the rows that *can* subsume it — those sharing its LHS and
    /// those with a non-`Const` LHS pattern, since an all-`Const` LHS
    /// subsumes only an identical LHS — so a mined tableau of distinct
    /// constant rows prunes in linear time.
    ///
    /// Rows sharing an LHS form a chain: one hash per row finds the
    /// chain's first row, and `links[i]` holds row `i`'s chain head and
    /// the next row after `i` on it, in ascending order. The whole index
    /// is three allocations, however many distinct LHSs the tableau has.
    pub fn prune_subsumed_rows(&mut self) {
        const END: usize = usize::MAX;
        let rows = std::mem::take(&mut self.tableau);
        // LHS → (first, last) row of its chain.
        let mut chains: HashMap<&[PatternValue], (usize, usize), FoldState> =
            HashMap::with_capacity_and_hasher(rows.len(), FoldState::new());
        let mut links: Vec<(usize, usize)> = Vec::with_capacity(rows.len());
        let mut general: Vec<usize> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            let (first, last) = chains.entry(&r.lhs).or_insert((i, i));
            if *last != i {
                links[*last].1 = i;
                *last = i;
            }
            links.push((*first, END));
            if r.lhs.iter().any(|p| p.as_const().is_none()) {
                general.push(i);
            }
        }
        drop(chains);
        let chain = |i: usize| {
            std::iter::successors(Some(links[i].0), |&j| Some(links[j].1).filter(|&n| n != END))
        };
        let subsumed: Vec<bool> = (rows.iter().enumerate())
            .map(|(i, r)| {
                chain(i).chain(general.iter().copied()).any(|j| {
                    let other = &rows[j];
                    j != i && other.subsumes(r) && !(r.subsumes(other) && j > i)
                })
            })
            .collect();
        self.tableau = rows.into_iter().zip(subsumed).filter(|(_, s)| !s).map(|(r, _)| r).collect();
    }

    /// Human-readable form using a schema for names — rendered in the
    /// *surface syntax* ([`crate::parser::write_cfd`] without the final
    /// newline: one line for a single-row CFD, a block — the head once,
    /// one line per tableau row — for any other), so the output
    /// re-parses through [`crate::parser::parse_cfds`] to exactly this
    /// CFD. This is load-bearing for `semandaq discover --emit`: a mined
    /// suite is emitted via this rendering and read back by `detect
    /// --cfds`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Cfd, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(crate::parser::cfd_to_text(self.0, self.1).trim_end())
            }
        }
        D(self, schema)
    }

    /// One tableau row in surface syntax — always a single line, so
    /// diagnostics that embed a CFD in a sentence (violation
    /// descriptions) stay one-line even for multi-row merged tableaux,
    /// and point at exactly the row that was violated.
    pub fn display_row<'a>(&'a self, schema: &'a Schema, row: usize) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Cfd, &'a Schema, usize);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", crate::parser::cfd_row_to_text(self.0, self.1, self.2))
            }
        }
        D(self, schema, row)
    }
}

/// Group a list of normal-form CFDs by embedded FD, merging tableaux
/// (duplicate rows kept once) — one CFD per embedded FD, in first-seen
/// order. Repair and the static analyses reason per embedded FD over
/// this form; detection does the same grouping inside its scan. Groups
/// and their rows are found by hash ([`FoldState`], seeded per map), so
/// the merge is linear in rows and clones each kept row once.
pub fn merge_by_embedded_fd<'a>(cfds: impl IntoIterator<Item = &'a Cfd>) -> Vec<Cfd> {
    let mut out: Vec<Cfd> = Vec::new();
    // Embedded FD → its CFD in `out` and the rows that tableau holds.
    type Group<'a> = (usize, HashSet<&'a PatternRow, FoldState>);
    let mut groups: HashMap<(&str, &[AttrId], AttrId), Group<'a>, FoldState> = HashMap::default();
    for cfd in cfds {
        let (at, seen) = groups.entry((&cfd.relation, &cfd.lhs, cfd.rhs)).or_insert_with(|| {
            let (relation, lhs) = (cfd.relation.clone(), cfd.lhs.clone());
            out.push(Cfd { relation, lhs, rhs: cfd.rhs, tableau: Vec::new() });
            (out.len() - 1, HashSet::default())
        });
        for row in &cfd.tableau {
            if seen.insert(row) {
                out[*at].tableau.push(row.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternValue;
    use proptest::prelude::*;
    use revival_relation::Type;

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .build()
    }

    fn uk_cfd(s: &Schema) -> Cfd {
        // customer([cc='44', zip] -> [street])
        Cfd::new(
            s,
            &["cc", "zip"],
            "street",
            vec![PatternRow::new(
                vec![PatternValue::constant("44"), PatternValue::Wildcard],
                PatternValue::Wildcard,
            )],
        )
        .unwrap()
    }

    fn city_cfd(s: &Schema) -> Cfd {
        // customer([cc='01', zip] -> [city='mh']) — constant CFD
        Cfd::new(
            s,
            &["cc", "zip"],
            "city",
            vec![PatternRow::new(
                vec![PatternValue::constant("01"), PatternValue::constant("07974")],
                PatternValue::constant("mh"),
            )],
        )
        .unwrap()
    }

    fn table(rows: &[(&str, &str, &str, &str)]) -> Table {
        let mut t = Table::new(schema());
        for (cc, zip, street, city) in rows {
            t.push(vec![(*cc).into(), (*zip).into(), (*street).into(), (*city).into()]).unwrap();
        }
        t
    }

    #[test]
    fn variable_cfd_satisfaction() {
        let s = schema();
        let cfd = uk_cfd(&s);
        let good = table(&[
            ("44", "EH8", "Crichton", "edi"),
            ("44", "EH8", "Crichton", "edi"),
            ("01", "EH8", "Different", "nyc"), // cc != 44 → pattern does not apply
        ]);
        assert!(cfd.satisfied_by(&good));
        let bad = table(&[("44", "EH8", "Crichton", "edi"), ("44", "EH8", "Mayfield", "edi")]);
        assert!(!cfd.satisfied_by(&bad));
    }

    #[test]
    fn constant_cfd_satisfaction() {
        let s = schema();
        let cfd = city_cfd(&s);
        let good = table(&[("01", "07974", "MtnAve", "mh"), ("01", "10001", "5thAve", "nyc")]);
        assert!(cfd.satisfied_by(&good));
        let bad = table(&[("01", "07974", "MtnAve", "nyc")]);
        assert!(!cfd.satisfied_by(&bad));
        assert_eq!(cfd.constant_violation(&bad.rows().next().unwrap().1), Some(0));
    }

    #[test]
    fn plain_fd_via_cfd() {
        let s = schema();
        let cfd = Cfd::from_fd(&s, &["zip"], "street").unwrap();
        assert!(cfd.is_plain_fd());
        let bad = table(&[
            ("44", "EH8", "Crichton", "edi"),
            ("01", "EH8", "Mayfield", "edi"), // same zip, diff street → FD broken
        ]);
        assert!(!cfd.satisfied_by(&bad));
    }

    #[test]
    fn cfd_weaker_than_fd() {
        // Classic tutorial point: the CFD restricted to cc='44' tolerates
        // conflicts among cc='01' tuples that the plain FD rejects.
        let s = schema();
        let t = table(&[("01", "EH8", "Crichton", "x"), ("01", "EH8", "Mayfield", "x")]);
        assert!(uk_cfd(&s).satisfied_by(&t));
        assert!(!Cfd::from_fd(&s, &["cc", "zip"], "street").unwrap().satisfied_by(&t));
    }

    #[test]
    fn merge_and_prune() {
        let s = schema();
        let mut a = uk_cfd(&s);
        let b = Cfd::new(&s, &["cc", "zip"], "street", vec![PatternRow::all_wildcards(2)]).unwrap();
        assert!(merge(&mut a, &b));
        assert_eq!(a.tableau.len(), 2);
        // The all-wildcard row subsumes the cc='44' row.
        a.prune_subsumed_rows();
        assert_eq!(a.tableau.len(), 1);
        assert!(a.tableau[0].is_embedded_fd_row());
        // Different embedded FD → merge refuses.
        let c = city_cfd(&s);
        assert!(!merge(&mut a, &c));
    }

    #[test]
    fn prune_drops_the_variable_twin_of_a_constant_row() {
        // Same all-`Const` LHS, so only the same-LHS bucket can see it:
        // the constant-RHS row is stronger and subsumes its `_` twin.
        let s = schema();
        let lhs = || vec![PatternValue::constant("01"), PatternValue::constant("07974")];
        let mut cfd = city_cfd(&s);
        cfd.tableau.insert(0, PatternRow::new(lhs(), PatternValue::Wildcard));
        cfd.tableau.push(PatternRow::new(lhs(), PatternValue::constant("mh")));
        cfd.prune_subsumed_rows();
        assert_eq!(cfd.tableau, city_cfd(&s).tableau, "twin and duplicate both go");
    }

    #[test]
    fn merge_by_embedded_fd_groups() {
        let s = schema();
        let list = vec![uk_cfd(&s), uk_cfd(&s), city_cfd(&s)];
        let merged = merge_by_embedded_fd(&list);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].tableau.len(), 1); // duplicate row deduped
    }

    #[test]
    fn violates_constant_row_is_per_row() {
        let s = schema();
        let cfd = city_cfd(&s);
        let bad = table(&[("01", "07974", "MtnAve", "nyc")]);
        let row = bad.rows().next().unwrap().1;
        assert!(cfd.violates_constant_row(&row, &cfd.tableau[0]));
        let good = table(&[("01", "07974", "MtnAve", "mh")]);
        assert!(!cfd.violates_constant_row(&good.rows().next().unwrap().1, &cfd.tableau[0]));
        // Wildcard-RHS rows never count as constant violations.
        let var = uk_cfd(&s);
        assert!(!var.violates_constant_row(&row, &var.tableau[0]));
    }

    #[test]
    fn display_cfd_reparses() {
        let s = schema();
        let text = uk_cfd(&s).display(&s).to_string();
        assert_eq!(text, "customer([cc='44', zip] -> [street])");
        // display ∘ parse = id — single-row case parses back exactly.
        let back = crate::parser::parse_cfds(&text, &s).unwrap();
        assert_eq!(back, vec![uk_cfd(&s)]);
        // A multi-row tableau renders as a block — the head once, one
        // line per row — and parses back to the one CFD it was.
        let mut multi = uk_cfd(&s);
        assert!(merge(
            &mut multi,
            &Cfd::new(&s, &["cc", "zip"], "street", vec![PatternRow::all_wildcards(2)]).unwrap()
        ));
        let text = multi.display(&s).to_string();
        assert_eq!(text, "customer([cc, zip] -> [street]) {\n  '44', _ || _\n  _, _ || _\n}");
        assert_eq!(crate::parser::parse_cfds(&text, &s).unwrap(), vec![multi]);
    }

    #[test]
    fn malformed_tableaux_are_typed_errors() {
        let s = schema();
        // Row arity ≠ LHS arity → Cfd::new refuses instead of panicking.
        let bad_arity = Cfd::new(
            &s,
            &["cc", "zip"],
            "street",
            vec![PatternRow::new(vec![PatternValue::constant("44")], PatternValue::Wildcard)],
        );
        assert!(matches!(bad_arity, Err(Error::MalformedPattern { .. })), "{bad_arity:?}");
        // A hand-built CFD that bypassed the constructor fails validate().
        let mut sneaky = uk_cfd(&s);
        sneaky.tableau.push(PatternRow::new(vec![], PatternValue::Wildcard));
        assert!(matches!(sneaky.validate(), Err(Error::MalformedPattern { .. })));
        let mut empty_one_of = uk_cfd(&s);
        empty_one_of.tableau[0].rhs = PatternValue::OneOf(vec![]);
        assert!(matches!(empty_one_of.validate(), Err(Error::MalformedPattern { .. })));
        assert!(uk_cfd(&s).validate().is_ok());
    }

    #[test]
    fn empty_table_satisfies_everything() {
        let s = schema();
        let t = Table::new(s.clone());
        assert!(uk_cfd(&s).satisfied_by(&t));
        assert!(city_cfd(&s).satisfied_by(&t));
    }
    /// `prune_subsumed_rows` as it stood before the buckets: every row
    /// against every other. Kept verbatim as the oracle.
    fn prune_subsumed_rows_all_pairs(cfd: &mut Cfd) {
        let rows = std::mem::take(&mut cfd.tableau);
        let mut kept: Vec<PatternRow> = Vec::with_capacity(rows.len());
        for (i, r) in rows.iter().enumerate() {
            let subsumed = rows
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.subsumes(r) && !(r.subsumes(other) && j > i));
            if !subsumed {
                kept.push(r.clone());
            }
        }
        cfd.tableau = kept;
    }

    /// Do both CFDs condition the same embedded FD `(relation, X → A)`?
    fn same_embedded_fd(a: &Cfd, b: &Cfd) -> bool {
        a.relation == b.relation && a.lhs == b.lhs && a.rhs == b.rhs
    }

    /// Merge `other`'s tableau into `cfd` if both share the same embedded
    /// FD, each row kept once. Returns `false` (and leaves `cfd`
    /// unchanged) when the embedded FDs differ. The linear oracle's
    /// step, once a `Cfd` method.
    fn merge(cfd: &mut Cfd, other: &Cfd) -> bool {
        if !same_embedded_fd(cfd, other) {
            return false;
        }
        for row in &other.tableau {
            if !cfd.tableau.contains(row) {
                cfd.tableau.push(row.clone());
            }
        }
        true
    }

    /// `merge_by_embedded_fd` as it stood before the hashes: a linear
    /// `any` over the merged list, a linear `contains` per row (inside
    /// [`merge`]). Kept verbatim as the oracle.
    fn merge_by_embedded_fd_linear(cfds: &[Cfd]) -> Vec<Cfd> {
        let mut out: Vec<Cfd> = Vec::new();
        for cfd in cfds {
            if !out.iter_mut().any(|merged| merge(merged, cfd)) {
                // Through `merge`, so a tableau repeating a row dedups too.
                let mut first = Cfd { tableau: Vec::new(), ..cfd.clone() };
                merge(&mut first, cfd);
                out.push(first);
            }
        }
        out
    }

    /// LHS patterns over a three-value domain: constants weigh most (an
    /// all-`Const` LHS is the mined shape), and `OneOf` comes in both
    /// orders, so unequal rows can subsume each other.
    fn lhs_pattern(code: u8) -> PatternValue {
        let v = |s: &str| Value::from(s);
        match code {
            0 | 1 => PatternValue::Wildcard,
            2..=6 => PatternValue::constant(["a", "b", "c"][code as usize % 3]),
            7 | 8 => PatternValue::NotConst(v(["a", "b"][code as usize % 2])),
            9 => PatternValue::OneOf(vec![v("a"), v("b")]),
            10 => PatternValue::OneOf(vec![v("b"), v("a")]),
            _ => PatternValue::OneOf(vec![v("a"), v("b"), v("c")]),
        }
    }

    /// RHS patterns: `_` and constants on the same LHS give the
    /// variable + constant twins the same-LHS bucket exists for.
    fn rhs_pattern(code: u8) -> PatternValue {
        let v = |s: &str| Value::from(s);
        match code {
            0..=2 => PatternValue::Wildcard,
            3 | 4 => PatternValue::constant(["x", "y"][code as usize % 2]),
            5 => PatternValue::NotConst(v("x")),
            6 => PatternValue::OneOf(vec![v("x"), v("y")]),
            _ => PatternValue::OneOf(vec![v("y"), v("x")]),
        }
    }

    fn pattern_row(arity: usize, (a, b, c, rhs): (u8, u8, u8, u8)) -> PatternRow {
        let lhs = [a, b, c][..arity].iter().map(|&code| lhs_pattern(code)).collect();
        PatternRow::new(lhs, rhs_pattern(rhs))
    }

    fn row_codes() -> impl Strategy<Value = (u8, u8, u8, u8)> {
        (0u8..12, 0u8..12, 0u8..12, 0u8..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bucketed_prune_agrees_with_all_pairs(
            arity in 1usize..=3,
            codes in prop::collection::vec(row_codes(), 0..=24),
        ) {
            let tableau: Vec<PatternRow> = codes.iter().map(|&c| pattern_row(arity, c)).collect();
            let mut got =
                Cfd { relation: "r".into(), lhs: (0..arity).collect(), rhs: 3, tableau };
            let mut want = got.clone();
            got.prune_subsumed_rows();
            prune_subsumed_rows_all_pairs(&mut want);
            prop_assert_eq!(got.tableau, want.tableau);
        }

        #[test]
        fn hashed_merge_agrees_with_linear(
            suite in prop::collection::vec(
                (0u8..6, prop::collection::vec(row_codes(), 0..=4)),
                0..=12,
            ),
        ) {
            let cfds: Vec<Cfd> = suite
                .iter()
                .map(|(fd, codes)| Cfd {
                    relation: if *fd < 3 { "r" } else { "s" }.into(),
                    lhs: [vec![0, 1], vec![1, 0], vec![0, 1]][*fd as usize % 3].clone(),
                    rhs: [2, 2, 3][*fd as usize % 3],
                    tableau: codes.iter().map(|&c| pattern_row(2, c)).collect(),
                })
                .collect();
            prop_assert_eq!(merge_by_embedded_fd(&cfds), merge_by_embedded_fd_linear(&cfds));
        }
    }
}
