//! Recursive-descent parser for the oracle's SQL dialect.

use super::ast::{ColumnRef, Query, SqlExpr, TableRef};
use super::expr::CmpOp;
use super::token::{lex, Spanned, Tok};
use crate::error::{Error, Result};
use crate::value::Value;

/// Parse one `SELECT` statement (optionally `;`-terminated).
pub fn parse_query(input: &str) -> Result<Query> {
    let toks = lex(input)?;
    let mut p = Parser { toks, i: 0 };
    let q = p.query()?;
    p.eat_symbol(";").ok();
    if p.i != p.toks.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> Error {
        let position = self.toks.get(self.i).map(|t| t.pos).unwrap_or(usize::MAX);
        Error::SqlParse { position, message: msg.into() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|s| s.tok.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    /// Is the next token the given keyword (case-insensitive)?
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn eat_symbol(&mut self, s: &str) -> Result<()> {
        match self.peek() {
            Some(Tok::Symbol(sym)) if *sym == s => {
                self.i += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected `{s}`"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            _ => Err(self.err("expected identifier")),
        }
    }

    /// One or more `item`s separated by commas.
    fn list<T>(&mut self, item: fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat_symbol(",").is_ok() {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("SELECT")?;
        let items = self.list(Self::expr)?;
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let join = match self.eat_kw("JOIN") {
            true => {
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                Some((table, self.expr()?))
            }
            false => None,
        };
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let group_by = match self.eat_kw("GROUP") {
            true => {
                self.expect_kw("BY")?;
                self.list(Self::column_ref)?
            }
            false => Vec::new(),
        };
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(Query { items, from, join, where_clause, group_by, having })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        // An alias is any following word that does not open a clause.
        let opens_clause = |w: &str| {
            ["JOIN", "ON", "WHERE", "GROUP", "HAVING"].iter().any(|k| w.eq_ignore_ascii_case(k))
        };
        let alias = match self.peek() {
            Some(Tok::Word(w)) if !opens_clause(w) => Some(self.ident()?),
            _ => None,
        };
        Ok(TableRef { name, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat_symbol(".").is_ok() {
            Ok(ColumnRef { table: Some(first), column: self.ident()? })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            lhs = SqlExpr::Or(Box::new(lhs), Box::new(self.and_expr()?));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            lhs = SqlExpr::And(Box::new(lhs), Box::new(self.not_expr()?));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("NOT") {
            return Ok(SqlExpr::Not(Box::new(self.not_expr()?)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<SqlExpr> {
        let lhs = self.primary()?;
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.eat_symbol("(")?;
            let vals = self.list(Self::literal)?;
            self.eat_symbol(")")?;
            let in_list = SqlExpr::InList(Box::new(lhs), vals);
            return Ok(if negated { SqlExpr::Not(Box::new(in_list)) } else { in_list });
        }
        if negated {
            return Err(self.err("expected IN after NOT"));
        }
        let op = match self.peek() {
            Some(Tok::Symbol("=")) => CmpOp::Eq,
            Some(Tok::Symbol("<>")) => CmpOp::Ne,
            Some(Tok::Symbol("<")) => CmpOp::Lt,
            Some(Tok::Symbol("<=")) => CmpOp::Le,
            Some(Tok::Symbol(">")) => CmpOp::Gt,
            Some(Tok::Symbol(">=")) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.i += 1;
        Ok(SqlExpr::Cmp(op, Box::new(lhs), Box::new(self.primary()?)))
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(Value::str(&s)),
            Some(Tok::Int(n)) => Ok(Value::Int(n)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            Some(Tok::Symbol("-")) => match self.next() {
                Some(Tok::Int(n)) => Ok(Value::Int(-n)),
                Some(Tok::Float(f)) => Ok(Value::Float(-f)),
                _ => Err(self.err("expected number after `-`")),
            },
            _ => Err(self.err("expected literal")),
        }
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        let call = matches!(self.toks.get(self.i + 1), Some(s) if s.tok == Tok::Symbol("("));
        match self.peek() {
            Some(Tok::Symbol("(")) => {
                self.i += 1;
                let e = self.expr()?;
                self.eat_symbol(")")?;
                Ok(e)
            }
            Some(Tok::Word(w)) if call && w.eq_ignore_ascii_case("COUNT") => {
                self.i += 2;
                self.expect_kw("DISTINCT")?;
                let inner = self.expr()?;
                self.eat_symbol(")")?;
                Ok(SqlExpr::CountDistinct(Box::new(inner)))
            }
            Some(Tok::Word(w))
                if !["NULL", "TRUE", "FALSE"].iter().any(|k| w.eq_ignore_ascii_case(k)) =>
            {
                Ok(SqlExpr::Column(self.column_ref()?))
            }
            _ => Ok(SqlExpr::Literal(self.literal()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(name: &str) -> SqlExpr {
        SqlExpr::Column(ColumnRef { table: None, column: name.into() })
    }

    #[test]
    fn minimal_select() {
        let q = parse_query("SELECT a FROM r").unwrap();
        assert_eq!(q.items, vec![column("a")]);
        assert_eq!(q.from.name, "r");
        assert!(q.join.is_none() && q.where_clause.is_none() && q.group_by.is_empty());
    }

    #[test]
    fn where_and_group_having() {
        let q = parse_query(
            "SELECT zip, COUNT(DISTINCT street) FROM customer \
             WHERE cc = '44' GROUP BY zip HAVING COUNT(DISTINCT street) > 1",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.items[1], SqlExpr::CountDistinct(Box::new(column("street"))));
    }

    #[test]
    fn joins_with_alias() {
        let q =
            parse_query("SELECT t.a, u.b FROM r t JOIN s u ON t.a = u.a WHERE u.b <> 'x'").unwrap();
        assert_eq!(q.from.binding(), "t");
        assert_eq!(q.join.unwrap().0.binding(), "u");
    }

    #[test]
    fn predicates() {
        let q = parse_query(
            "SELECT a FROM r WHERE b IN ('x','y') AND c NOT IN (1, 2) AND NOT d = 1 OR e >= 2",
        )
        .unwrap();
        assert!(matches!(q.where_clause, Some(SqlExpr::Or(_, _))));
    }

    #[test]
    fn negative_literal() {
        let q = parse_query("SELECT a FROM r WHERE a = -5").unwrap();
        match q.where_clause.unwrap() {
            SqlExpr::Cmp(_, _, rhs) => {
                assert_eq!(*rhs, SqlExpr::Literal(Value::Int(-5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_query("SELECT a FROM r garbage garbage").is_err());
    }

    #[test]
    fn missing_from_rejected() {
        assert!(parse_query("SELECT a").is_err());
    }

    #[test]
    fn semicolon_ok() {
        assert!(parse_query("SELECT a FROM r;").is_ok());
    }
}
