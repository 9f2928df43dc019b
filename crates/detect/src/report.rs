//! Violation reports shared by all detectors.
//!
//! **The report order.** Every engine, and the served listing, emits a
//! job's violations in one order, so two reports compare with `==` and
//! a listing's first `max` lines are the same wherever they come from:
//!
//! 1. per CFD, in suite order:
//!    * its constant violations in tuple order, each at its lowest
//!      violated tableau row (one violation per tuple);
//!    * then its variable violations: the violating LHS classes in key
//!      order, keys compared by [`Value`], each with the variable rows
//!      it violates in row order, its tuples ascending;
//! 2. then per CIND in suite order, its violating tuples ascending.
//!
//! The order follows the suite, not the data's layout: how a suite
//! splits into scan passes, how many shards scan it, which relation a
//! session registered first or how a SQL engine returns its rows changes
//! nothing in it.

use revival_constraints::{Cfd, Cind};
use revival_relation::{TupleId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A single tuple falsifies a constant tableau row of a CFD.
    CfdConstant {
        /// Index of the CFD in the suite handed to the detector.
        cfd: usize,
        /// Index of the offending tableau row within that CFD.
        row: usize,
        /// The violating tuple.
        tuple: TupleId,
    },
    /// A group of tuples agreeing on the LHS but disagreeing on the RHS
    /// falsifies a variable tableau row.
    CfdVariable {
        cfd: usize,
        row: usize,
        /// The shared LHS key of the conflicting group.
        key: Vec<Value>,
        /// All tuples in the conflicting group (≥ 2, sorted).
        tuples: Vec<TupleId>,
    },
    /// A source tuple that falls under a CIND's pattern has no witness
    /// in the target relation.
    CindMissingWitness {
        /// Index of the CIND in the suite handed to the detector.
        cind: usize,
        tuple: TupleId,
    },
}

impl Violation {
    /// Tuples implicated by this violation.
    pub fn tuples(&self) -> &[TupleId] {
        match self {
            Violation::CfdConstant { tuple, .. } | Violation::CindMissingWitness { tuple, .. } => {
                std::slice::from_ref(tuple)
            }
            Violation::CfdVariable { tuples, .. } => tuples,
        }
    }

    /// The relation those tuples belong to: the CFD's, or the CIND's
    /// source, in the suites the report indexes.
    pub fn relation<'s>(&self, cfds: &'s [Cfd], cinds: &'s [Cind]) -> &'s str {
        match self {
            Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } => {
                &cfds[*cfd].relation
            }
            Violation::CindMissingWitness { cind, .. } => &cinds[*cind].from_relation,
        }
    }
}

/// Tuples of one relation, one bit per slot: what a listing's header
/// counts, with no node per tuple.
#[derive(Clone, Debug, Default)]
pub struct TupleBits {
    words: Vec<u64>,
}

impl TupleBits {
    /// Room for a relation of `slots` slots (a later slot grows it).
    pub fn with_slots(slots: usize) -> Self {
        TupleBits { words: vec![0; slots.div_ceil(64)] }
    }

    pub fn insert(&mut self, tuple: TupleId) {
        let word = (tuple.0 / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (tuple.0 % 64);
    }

    /// Distinct tuples inserted.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A report as a listing prints it: its violations, the (relation,
/// tuple) pairs they implicate — a tuple id names a slot of its own
/// relation — and its first violations, in report order.
#[derive(Debug, Default)]
pub struct Listing {
    pub total: usize,
    pub tuples: usize,
    pub shown: Vec<Violation>,
}

/// The outcome of a detection pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViolationReport {
    pub violations: Vec<Violation>,
}

impl ViolationReport {
    /// Number of violations (constant violations count per tuple,
    /// variable violations per conflicting group — matching how the TODS
    /// experiments report "number of violations").
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True when the data satisfies the suite.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// The set of all violating tuples (deduplicated).
    pub fn violating_tuples(&self) -> BTreeSet<TupleId> {
        self.violations.iter().flat_map(|v| v.tuples()).copied().collect()
    }

    /// The report listed to its first `max` violations, for
    /// [`crate::native::describe_listing`]; `cfds` and `cinds` are the
    /// suites it indexes.
    pub fn listing(&self, cfds: &[Cfd], cinds: &[Cind], max: usize) -> Listing {
        let mut relations: BTreeMap<&str, TupleBits> = BTreeMap::new();
        for v in &self.violations {
            let bits = relations.entry(v.relation(cfds, cinds)).or_default();
            v.tuples().iter().for_each(|&t| bits.insert(t));
        }
        Listing {
            total: self.len(),
            tuples: relations.values().map(TupleBits::count).sum(),
            shown: self.violations.iter().take(max).cloned().collect(),
        }
    }

    /// Sort violations by their `Debug` text and drop repeats. Every
    /// engine emits the [report order](crate::report), so reports
    /// compare with `==`; this is kept only for the benchmark ledger's
    /// untimed `sql == native` checks, which call it before comparing.
    pub fn normalize(&mut self) {
        for v in &mut self.violations {
            if let Violation::CfdVariable { tuples, .. } = v {
                tuples.sort();
            }
        }
        self.violations.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        self.violations.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_of_violations() {
        let v = Violation::CfdConstant { cfd: 0, row: 0, tuple: TupleId(3) };
        assert_eq!(v.tuples(), [TupleId(3)]);
        let v = Violation::CfdVariable {
            cfd: 0,
            row: 0,
            key: vec!["k".into()],
            tuples: vec![TupleId(1), TupleId(2)],
        };
        assert_eq!(v.tuples().len(), 2);
    }

    #[test]
    fn report_helpers() {
        let mut r = ViolationReport::default();
        r.violations.push(Violation::CfdConstant { cfd: 1, row: 0, tuple: TupleId(5) });
        r.violations.push(Violation::CfdVariable {
            cfd: 0,
            row: 0,
            key: vec![],
            tuples: vec![TupleId(5), TupleId(6)],
        });
        assert_eq!(r.len(), 2);
        assert_eq!(r.violating_tuples().len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn normalize_dedups_and_sorts() {
        let mut r = ViolationReport::default();
        let v = Violation::CfdConstant { cfd: 0, row: 0, tuple: TupleId(1) };
        r.violations.push(v.clone());
        r.violations.push(v);
        r.normalize();
        assert_eq!(r.len(), 1);
    }
}
