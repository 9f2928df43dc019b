//! Violation reports shared by all detectors.

use revival_relation::{TupleId, Value};
use std::collections::BTreeSet;
use std::fmt;

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
    pub fn tuples(&self) -> Vec<TupleId> {
        match self {
            Violation::CfdConstant { tuple, .. } | Violation::CindMissingWitness { tuple, .. } => {
                vec![*tuple]
            }
            Violation::CfdVariable { tuples, .. } => tuples.clone(),
        }
    }
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
        self.violations.iter().flat_map(|v| v.tuples()).collect()
    }

    /// Canonical ordering so reports from different detectors compare
    /// equal. Sorts violations and the tuple lists inside them.
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

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violation(s), {} tuple(s) involved",
            self.len(),
            self.violating_tuples().len()
        )?;
        for v in &self.violations {
            match v {
                Violation::CfdConstant { cfd, row, tuple } => {
                    writeln!(f, "  const  cfd#{cfd} row#{row} {tuple}")?
                }
                Violation::CfdVariable { cfd, row, key, tuples } => {
                    let key_s: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                    let ts: Vec<String> = tuples.iter().map(|t| t.to_string()).collect();
                    writeln!(
                        f,
                        "  var    cfd#{cfd} row#{row} key=({}) tuples=[{}]",
                        key_s.join(", "),
                        ts.join(", ")
                    )?
                }
                Violation::CindMissingWitness { cind, tuple } => {
                    writeln!(f, "  cind   cind#{cind} {tuple}")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_of_violations() {
        let v = Violation::CfdConstant { cfd: 0, row: 0, tuple: TupleId(3) };
        assert_eq!(v.tuples(), vec![TupleId(3)]);
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

    #[test]
    fn display_renders() {
        let mut r = ViolationReport::default();
        r.violations.push(Violation::CfdConstant { cfd: 0, row: 0, tuple: TupleId(1) });
        let s = r.to_string();
        assert!(s.contains("1 violation(s)"));
        assert!(s.contains("const"));
    }
}
