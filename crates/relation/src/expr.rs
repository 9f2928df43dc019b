//! Scalar expressions and their evaluator.
//!
//! Expressions are shared between the native operators and the SQL
//! executor. They are deliberately simple: column references by position,
//! literals, comparisons, boolean connectives, arithmetic, `IS NULL`,
//! `IN (…)`, and `LIKE` with `%`/`_` wildcards (needed because the CFD →
//! SQL translation of Fan et al. encodes pattern wildcards with `LIKE`).

use crate::error::{Error, Result};
use crate::value::Value;
use std::fmt;

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

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A scalar expression evaluated against a row (`&[Value]`).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column by position in the input row.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Comparison; NULL operands make comparisons false (except `IsNull`).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// SQL `IS NULL`.
    IsNull(Box<Expr>),
    /// Arithmetic over Int/Float.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `expr IN (v1, …, vn)` over literal values.
    InList(Box<Expr>, Vec<Value>),
    /// `expr LIKE pattern` with `%` (any run) and `_` (any char).
    Like(Box<Expr>, String),
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
        match self {
            Expr::Col(i) => row.get(*i).cloned().ok_or_else(|| {
                Error::Eval(format!("column #{i} out of range (row arity {})", row.len()))
            }),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                if va.is_null() || vb.is_null() {
                    // SQL-style: comparisons with NULL are not satisfied.
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(op.apply(&va, &vb)))
            }
            Expr::And(a, b) => {
                let va = a.eval(row)?.as_bool().unwrap_or(false);
                if !va {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(b.eval(row)?.as_bool().unwrap_or(false)))
            }
            Expr::Or(a, b) => {
                let va = a.eval(row)?.as_bool().unwrap_or(false);
                if va {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(b.eval(row)?.as_bool().unwrap_or(false)))
            }
            Expr::Not(e) => Ok(Value::Bool(!e.eval(row)?.as_bool().unwrap_or(false))),
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(row)?.is_null())),
            Expr::Arith(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                arith(*op, &va, &vb)
            }
            Expr::InList(e, vs) => {
                let v = e.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(vs.contains(&v)))
            }
            Expr::Like(e, pat) => {
                let v = e.eval(row)?;
                match v.as_str() {
                    Some(s) => Ok(Value::Bool(like_match(pat, s))),
                    None => Ok(Value::Bool(false)),
                }
            }
        }
    }

    /// Evaluate as a boolean predicate (non-bool, NULL → false).
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        Ok(self.eval(row)?.as_bool().unwrap_or(false))
    }

    /// Rewrite all column indices through `map` (old index → new index).
    ///
    /// Used when pushing predicates through projections/joins.
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map)))
            }
            Expr::And(a, b) => Expr::And(Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map))),
            Expr::Not(e) => Expr::Not(Box::new(e.remap_cols(map))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.remap_cols(map))),
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map)))
            }
            Expr::InList(e, vs) => Expr::InList(Box::new(e.remap_cols(map)), vs.clone()),
            Expr::Like(e, p) => Expr::Like(Box::new(e.remap_cols(map)), p.clone()),
        }
    }
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    use ArithOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            Add => Value::Int(x.wrapping_add(*y)),
            Sub => Value::Int(x.wrapping_sub(*y)),
            Mul => Value::Int(x.wrapping_mul(*y)),
            Div => {
                if *y == 0 {
                    return Err(Error::Eval("integer division by zero".into()));
                }
                Value::Int(x / y)
            }
        }),
        _ => {
            let x = a.as_float().ok_or_else(|| Error::Eval(format!("non-numeric operand {a}")))?;
            let y = b.as_float().ok_or_else(|| Error::Eval(format!("non-numeric operand {b}")))?;
            Ok(Value::Float(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
            }))
        }
    }
}

/// SQL LIKE matching with `%` and `_`, case-sensitive, O(n·m) DP-free
/// greedy with backtracking on `%`.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    // Classic two-pointer wildcard match.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_ti) = (None::<usize>, 0usize);
    while ti < t.len() {
        // `%` must be recognised before the literal branch: a text char
        // that happens to be '%' would otherwise consume the wildcard.
        if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_ti = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
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
        let e = Expr::IsNull(col(2));
        assert!(e.matches(&row()).unwrap());
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
    fn arithmetic() {
        let e = Expr::Arith(ArithOp::Add, col(0), lit(5i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(15));
        let e = Expr::Arith(ArithOp::Mul, col(3), lit(2i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Float(5.0));
        let e = Expr::Arith(ArithOp::Div, lit(1i64), lit(0i64));
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn in_list() {
        let e = Expr::InList(col(1), vec!["us".into(), "uk".into()]);
        assert!(e.matches(&row()).unwrap());
        let e = Expr::InList(col(2), vec!["x".into()]);
        assert!(!e.matches(&row()).unwrap());
    }

    #[test]
    fn like() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("a%", "abc"));
        assert!(!like_match("a%", "bc"));
        assert!(like_match("%bc", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%b%", "abc"));
        assert!(like_match("a%c%e", "abcde"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
        // Regression: a literal '%' in the *text* must not swallow the
        // pattern's wildcard.
        assert!(like_match("100%", "100% sure"));
        assert!(like_match("%sure", "100% sure"));
    }

    #[test]
    fn remap_cols() {
        let e = Expr::Cmp(CmpOp::Eq, col(0), col(1));
        let r = e.remap_cols(&|i| i + 10);
        assert_eq!(r, Expr::Cmp(CmpOp::Eq, col(10), col(11)));
    }
}
