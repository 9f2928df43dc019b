//! Pattern values and pattern rows — the tableau machinery of CFDs.
//!
//! A pattern value is either a constant `c` or the unnamed variable `_`
//! (written `‖` bar-separated in the paper's tableau notation). A data
//! value *matches* a pattern value — written `v ≍ p` in the literature —
//! iff the pattern is `_` or the values are equal.

use revival_relation::{Sym, Value, ValuePool};
use std::fmt;

/// A constant or the wildcard `_` — extended with the eCFD pattern
/// forms of Bravo et al. (ICDE 2008, reference \[3\] of the tutorial):
/// disequality `≠ c` and disjunction `∈ {c1, …, ck}`, which increase
/// expressivity "without extra complexity".
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternValue {
    /// Matches any data value.
    Wildcard,
    /// Matches exactly this constant.
    Const(Value),
    /// eCFD: matches any value *except* this constant.
    NotConst(Value),
    /// eCFD: matches any of these constants (non-empty, sorted).
    OneOf(Vec<Value>),
}

impl PatternValue {
    /// Constant pattern from anything `Into<Value>`.
    pub fn constant(v: impl Into<Value>) -> Self {
        PatternValue::Const(v.into())
    }

    /// eCFD disjunction pattern (values get sorted + deduplicated).
    ///
    /// # Panics
    /// Panics on an empty value list — an empty disjunction matches
    /// nothing and makes the tableau row vacuous.
    pub fn one_of(values: impl IntoIterator<Item = Value>) -> Self {
        let mut vs: Vec<Value> = values.into_iter().collect();
        assert!(!vs.is_empty(), "OneOf pattern needs at least one value");
        vs.sort();
        vs.dedup();
        PatternValue::OneOf(vs)
    }

    /// The match relation `v ≍ p`.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::Const(c) => c == v,
            PatternValue::NotConst(c) => c != v,
            PatternValue::OneOf(cs) => cs.contains(v),
        }
    }

    /// True for `_`.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, PatternValue::Wildcard)
    }

    /// The constant, if this is a plain `Const` pattern.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            PatternValue::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Pattern subsumption: does every value matching `other` also match
    /// `self`? (`_` subsumes everything; `c` subsumes only `c`.)
    /// Sound but deliberately incomplete across the eCFD forms (returns
    /// `false` when unsure) — used only to prune redundant rows.
    pub fn subsumes(&self, other: &PatternValue) -> bool {
        match (self, other) {
            (PatternValue::Wildcard, _) => true,
            (PatternValue::Const(a), PatternValue::Const(b)) => a == b,
            (PatternValue::NotConst(a), PatternValue::Const(b)) => a != b,
            (PatternValue::NotConst(a), PatternValue::NotConst(b)) => a == b,
            (PatternValue::NotConst(a), PatternValue::OneOf(bs)) => !bs.contains(a),
            (PatternValue::OneOf(a), PatternValue::Const(b)) => a.contains(b),
            (PatternValue::OneOf(a), PatternValue::OneOf(b)) => b.iter().all(|v| a.contains(v)),
            _ => false,
        }
    }

    /// Compile the match relation against one table's [`ValuePool`]:
    /// the resulting [`SymPred`] tests `v ≍ p` by symbol comparison, so
    /// a column scan never materialises a [`Value`]. A constant the
    /// pool never interned can match no cell (`Never`); a disequality
    /// against such a constant matches every cell (`Always`) — this
    /// resolution step is where cross-pool safety lives.
    pub fn resolve(&self, pool: &ValuePool) -> SymPred {
        match self {
            PatternValue::Wildcard => SymPred::Always,
            PatternValue::Const(c) => pool.lookup(c).map(SymPred::Eq).unwrap_or(SymPred::Never),
            PatternValue::NotConst(c) => pool.lookup(c).map(SymPred::Ne).unwrap_or(SymPred::Always),
            PatternValue::OneOf(cs) => {
                let syms: Vec<Sym> = cs.iter().filter_map(|c| pool.lookup(c)).collect();
                if syms.is_empty() {
                    SymPred::Never
                } else {
                    SymPred::In(syms)
                }
            }
        }
    }

    /// Has `pool` interned every constant this pattern names? Then
    /// [`PatternValue::resolve`] against it stays right however the
    /// (append-only) pool grows; until then a later value may be one of
    /// the constants and the compiled predicate is due a recompile.
    pub fn resolves_in(&self, pool: &ValuePool) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::Const(c) | PatternValue::NotConst(c) => pool.lookup(c).is_some(),
            PatternValue::OneOf(cs) => cs.iter().all(|c| pool.lookup(c).is_some()),
        }
    }

    /// Are the two patterns compatible, i.e. is there a value matching
    /// both? Conservative (`true` when unsure).
    pub fn compatible(&self, other: &PatternValue) -> bool {
        match (self, other) {
            (PatternValue::Const(a), PatternValue::Const(b)) => a == b,
            (PatternValue::Const(a), PatternValue::NotConst(b))
            | (PatternValue::NotConst(b), PatternValue::Const(a)) => a != b,
            (PatternValue::Const(a), PatternValue::OneOf(bs))
            | (PatternValue::OneOf(bs), PatternValue::Const(a)) => bs.contains(a),
            _ => true,
        }
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Wildcard => write!(f, "_"),
            PatternValue::Const(v) => write!(f, "'{v}'"),
            PatternValue::NotConst(v) => write!(f, "!'{v}'"),
            PatternValue::OneOf(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "'{v}'")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<Value> for PatternValue {
    fn from(v: Value) -> Self {
        PatternValue::Const(v)
    }
}

/// A [`PatternValue`] lowered to symbol space for one specific
/// [`ValuePool`] (see [`PatternValue::resolve`]). Symbols from any
/// other pool are meaningless here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymPred {
    /// Wildcard: every cell matches.
    Always,
    /// Unsatisfiable in this pool: no cell matches.
    Never,
    /// Cell symbol must equal this symbol.
    Eq(Sym),
    /// Cell symbol must differ from this symbol.
    Ne(Sym),
    /// Cell symbol must be one of these (non-empty).
    In(Vec<Sym>),
}

impl SymPred {
    /// The match relation `v ≍ p`, on symbols.
    #[inline]
    pub fn matches(&self, s: Sym) -> bool {
        match self {
            SymPred::Always => true,
            SymPred::Never => false,
            SymPred::Eq(p) => s == *p,
            SymPred::Ne(p) => s != *p,
            SymPred::In(ps) => ps.contains(&s),
        }
    }

    /// True for [`SymPred::Always`] (the wildcard image).
    pub fn is_always(&self) -> bool {
        matches!(self, SymPred::Always)
    }
}

/// One row of a pattern tableau: pattern values for the LHS attributes
/// followed by one for the RHS attribute (normal-form CFDs have a single
/// RHS attribute).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PatternRow {
    /// Patterns over the LHS attributes, positionally aligned with the
    /// owning constraint's LHS attribute list.
    pub lhs: Vec<PatternValue>,
    /// Pattern over the RHS attribute.
    pub rhs: PatternValue,
}

impl PatternRow {
    /// Build a row.
    pub fn new(lhs: Vec<PatternValue>, rhs: PatternValue) -> Self {
        PatternRow { lhs, rhs }
    }

    /// An all-wildcard row of the given LHS arity (the embedded FD).
    pub fn all_wildcards(lhs_arity: usize) -> Self {
        PatternRow { lhs: vec![PatternValue::Wildcard; lhs_arity], rhs: PatternValue::Wildcard }
    }

    /// Does `lhs_values` (projection of a tuple on the LHS attrs) match
    /// this row's LHS patterns?
    pub fn lhs_matches(&self, lhs_values: &[Value]) -> bool {
        debug_assert_eq!(self.lhs.len(), lhs_values.len());
        self.lhs.iter().zip(lhs_values).all(|(p, v)| p.matches(v))
    }

    /// True if every LHS pattern and the RHS pattern are wildcards.
    pub fn is_embedded_fd_row(&self) -> bool {
        self.lhs.iter().all(PatternValue::is_wildcard) && self.rhs.is_wildcard()
    }

    /// True if the RHS is a constant (a "constant CFD" row, checkable
    /// tuple-at-a-time).
    pub fn is_constant_row(&self) -> bool {
        !self.rhs.is_wildcard()
    }

    /// Row subsumption: `self` subsumes `other` if self's LHS matches a
    /// superset of tuples and the RHS enforces the same-or-weaker
    /// constraint. Used to prune redundant tableau rows.
    pub fn subsumes(&self, other: &PatternRow) -> bool {
        self.lhs.len() == other.lhs.len()
            && self.lhs.iter().zip(&other.lhs).all(|(a, b)| a.subsumes(b))
            && (self.rhs == other.rhs || (other.rhs.is_wildcard() && !self.rhs.is_wildcard()))
    }
}

impl fmt::Display for PatternRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, " || {})", self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches() {
        assert!(PatternValue::Wildcard.matches(&Value::from("x")));
        assert!(PatternValue::constant("x").matches(&Value::from("x")));
        assert!(!PatternValue::constant("x").matches(&Value::from("y")));
        assert!(PatternValue::Wildcard.matches(&Value::Null));
    }

    #[test]
    fn subsumption() {
        let w = PatternValue::Wildcard;
        let c = PatternValue::constant("a");
        let d = PatternValue::constant("b");
        assert!(w.subsumes(&c));
        assert!(w.subsumes(&w));
        assert!(c.subsumes(&c));
        assert!(!c.subsumes(&w));
        assert!(!c.subsumes(&d));
    }

    #[test]
    fn compatibility() {
        let w = PatternValue::Wildcard;
        let c = PatternValue::constant("a");
        let d = PatternValue::constant("b");
        assert!(w.compatible(&c));
        assert!(c.compatible(&c));
        assert!(!c.compatible(&d));
    }

    #[test]
    fn row_matching() {
        let row = PatternRow::new(
            vec![PatternValue::constant("44"), PatternValue::Wildcard],
            PatternValue::Wildcard,
        );
        assert!(row.lhs_matches(&["44".into(), "EH8".into()]));
        assert!(!row.lhs_matches(&["01".into(), "EH8".into()]));
        assert!(!row.is_constant_row());
        assert!(!row.is_embedded_fd_row());
        assert!(PatternRow::all_wildcards(2).is_embedded_fd_row());
    }

    #[test]
    fn row_subsumption() {
        let general = PatternRow::new(
            vec![PatternValue::Wildcard, PatternValue::Wildcard],
            PatternValue::Wildcard,
        );
        let specific = PatternRow::new(
            vec![PatternValue::constant("44"), PatternValue::Wildcard],
            PatternValue::Wildcard,
        );
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
        // A constant-RHS row is *stronger*, so it subsumes the wildcard
        // version on the same LHS.
        let const_rhs = PatternRow::new(
            vec![PatternValue::constant("44"), PatternValue::Wildcard],
            PatternValue::constant("mh"),
        );
        assert!(const_rhs.subsumes(&specific));
        assert!(!specific.subsumes(&const_rhs));
    }

    #[test]
    fn resolve_agrees_with_value_matching() {
        let mut pool = ValuePool::new();
        let vals = [Value::from("a"), Value::from("b"), Value::Int(3), Value::Null];
        for v in &vals {
            pool.intern(v);
        }
        let pats = [
            PatternValue::Wildcard,
            PatternValue::constant("a"),
            PatternValue::constant("zz"), // never interned
            PatternValue::NotConst(Value::from("b")),
            PatternValue::NotConst(Value::from("zz")),
            PatternValue::one_of([Value::from("a"), Value::Int(3)]),
            PatternValue::one_of([Value::from("zz")]),
        ];
        for p in &pats {
            let pred = p.resolve(&pool);
            for v in &vals {
                let s = pool.lookup(v).unwrap();
                assert_eq!(pred.matches(s), p.matches(v), "pattern {p} on value {v}");
            }
        }
    }

    #[test]
    fn display() {
        let row = PatternRow::new(
            vec![PatternValue::constant("44"), PatternValue::Wildcard],
            PatternValue::Wildcard,
        );
        assert_eq!(row.to_string(), "('44', _ || _)");
    }
}
