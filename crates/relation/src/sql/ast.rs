//! SQL abstract syntax.

use super::expr::CmpOp;
use crate::value::Value;

/// A (possibly qualified) column reference `[table.]name`.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

/// A scalar or boolean SQL expression (before name resolution).
#[derive(Clone, Debug, PartialEq)]
pub enum SqlExpr {
    Column(ColumnRef),
    Literal(Value),
    Cmp(CmpOp, Box<SqlExpr>, Box<SqlExpr>),
    And(Box<SqlExpr>, Box<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
    InList(Box<SqlExpr>, Vec<Value>),
    /// `COUNT(DISTINCT e)`, the one aggregate.
    CountDistinct(Box<SqlExpr>),
}

/// A FROM-clause table with optional alias.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is known by inside the query.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// A parsed `SELECT` query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub items: Vec<SqlExpr>,
    pub from: TableRef,
    /// The one `JOIN … ON …`, if any.
    pub join: Option<(TableRef, SqlExpr)>,
    pub where_clause: Option<SqlExpr>,
    pub group_by: Vec<ColumnRef>,
    pub having: Option<SqlExpr>,
}
