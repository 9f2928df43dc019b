//! Scalar expressions over a row, and their evaluator: what a planned
//! query's filters, join keys, group keys and outputs compile to.

use crate::error::{Error, Result};
use crate::value::Value;

/// Binary comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn apply(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A scalar expression evaluated against a row (`&[Value]`).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column by position in the input row.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Comparison; a NULL operand makes it false.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `expr IN (v1, …, vn)` over literal values.
    InList(Box<Expr>, Vec<Value>),
}

impl Expr {
    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Fold a conjunction over an iterator; empty iterator → TRUE.
    pub fn conj(mut terms: impl Iterator<Item = Expr>) -> Expr {
        match terms.next() {
            None => Expr::Lit(Value::Bool(true)),
            Some(first) => terms.fold(first, |acc, t| acc.and(t)),
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        let truth = |e: &Expr| Ok::<_, Error>(e.eval(row)?.as_bool().unwrap_or(false));
        match self {
            Expr::Col(i) => row.get(*i).cloned().ok_or_else(|| {
                Error::Eval(format!("column #{i} out of range (row arity {})", row.len()))
            }),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                // SQL-style: comparisons with NULL are not satisfied.
                Ok(Value::Bool(!va.is_null() && !vb.is_null() && op.apply(&va, &vb)))
            }
            Expr::And(a, b) => Ok(Value::Bool(truth(a)? && truth(b)?)),
            Expr::Or(a, b) => Ok(Value::Bool(truth(a)? || truth(b)?)),
            Expr::Not(e) => Ok(Value::Bool(!truth(e)?)),
            Expr::InList(e, vs) => {
                let v = e.eval(row)?;
                Ok(Value::Bool(!v.is_null() && vs.contains(&v)))
            }
        }
    }

    /// Evaluate as a boolean predicate (non-bool, NULL → false).
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        Ok(self.eval(row)?.as_bool().unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::Int(10), "uk".into(), Value::Null, Value::Float(2.5)]
    }

    fn lit(v: impl Into<Value>) -> Box<Expr> {
        Box::new(Expr::Lit(v.into()))
    }

    fn col(i: usize) -> Box<Expr> {
        Box::new(Expr::Col(i))
    }

    #[test]
    fn col_and_lit() {
        assert_eq!(Expr::Col(0).eval(&row()).unwrap(), Value::Int(10));
        assert_eq!(Expr::Lit(Value::Int(5)).eval(&row()).unwrap(), Value::Int(5));
        assert!(Expr::Col(99).eval(&row()).is_err());
    }

    #[test]
    fn comparisons() {
        let e = Expr::Cmp(CmpOp::Eq, col(0), lit(10i64));
        assert!(e.matches(&row()).unwrap());
        let e = Expr::Cmp(CmpOp::Ne, col(1), lit("us"));
        assert!(e.matches(&row()).unwrap());
        let e = Expr::Cmp(CmpOp::Lt, col(0), lit(11i64));
        assert!(e.matches(&row()).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let e = Expr::Cmp(CmpOp::Eq, col(2), lit("x"));
        assert!(!e.matches(&row()).unwrap());
        let e = Expr::Cmp(CmpOp::Ne, col(2), lit("x"));
        assert!(!e.matches(&row()).unwrap());
    }

    #[test]
    fn boolean_shortcircuit() {
        // Col(99) would error, but AND short-circuits on false LHS.
        let e = Expr::Lit(Value::Bool(false)).and(Expr::Col(99));
        assert!(!e.matches(&row()).unwrap());
        let e = Expr::Or(lit(true), col(99));
        assert!(e.matches(&row()).unwrap());
    }

    #[test]
    fn conj_of_empty_is_true() {
        assert!(Expr::conj(std::iter::empty()).matches(&row()).unwrap());
    }

    #[test]
    fn in_list() {
        let e = Expr::InList(col(1), vec!["us".into(), "uk".into()]);
        assert!(e.matches(&row()).unwrap());
        let e = Expr::InList(col(2), vec!["x".into()]);
        assert!(!e.matches(&row()).unwrap());
    }
}
