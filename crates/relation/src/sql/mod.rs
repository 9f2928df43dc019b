//! The SQL dialect of the detection oracle: lexer, parser, planner and
//! executor.
//!
//! The Semandaq prototype (reference \[9\] in the paper) detects CFD
//! violations by emitting SQL against a commercial DBMS. The oracle
//! (`revival_detect::sqlgen`) emits the same encoding, and this module
//! runs exactly the dialect it emits, so the SQL path is exercised
//! end-to-end with no external database:
//!
//! * `SELECT e, … FROM t [alias] [JOIN u [alias] ON c] [WHERE c]
//!   [GROUP BY col, … [HAVING c]] [;]` — one join at most, hashed on
//!   the `ON` clause's column equalities (`ON TRUE`: every pair);
//! * items: columns `[t.]x`, literals and `COUNT(DISTINCT e)`, the one
//!   aggregate (only in a grouped query, whose bare columns must be
//!   group columns);
//! * conditions: `=`, `<>` (`!=`), `<`, `<=`, `>`, `>=`, `[NOT] IN (…)`,
//!   `AND`, `OR`, `NOT` and parentheses;
//! * literals: `'str'` (`''` escapes a quote), integers and floats (a
//!   leading `-` negates), `TRUE`, `FALSE`, `NULL`.
//!
//! A comparison with `NULL` is false, `NULL` join keys never match, and
//! `COUNT(DISTINCT e)` skips `NULL`s. Relation names resolve through
//! [`Relations`], so a caller can put relations of its own beside a
//! [`Catalog`]'s without copying either.
//!
//! ## Example
//!
//! ```
//! use revival_relation::{Catalog, Schema, Table, Type, Value};
//! use revival_relation::sql;
//!
//! let schema = Schema::builder("r").attr("a", Type::Str).attr("b", Type::Int).build();
//! let mut t = Table::new(schema);
//! t.push(vec!["x".into(), Value::Int(1)]).unwrap();
//! t.push(vec!["x".into(), Value::Int(2)]).unwrap();
//! let mut cat = Catalog::new();
//! cat.register(t);
//!
//! let rs = sql::run("SELECT a, COUNT(DISTINCT b) FROM r GROUP BY a", &cat).unwrap();
//! assert_eq!(rs.rows[0][1], Value::Int(2));
//! ```

mod ast;
mod exec;
mod expr;
mod parser;
mod plan;
mod token;

pub use exec::ResultSet;

use crate::error::Result;
use crate::schema::Catalog;
use crate::table::Table;

/// Where the relation names a query reads resolve.
pub trait Relations {
    /// The table named `name`.
    fn relation(&self, name: &str) -> Result<&Table>;
}

impl Relations for Catalog {
    fn relation(&self, name: &str) -> Result<&Table> {
        self.get(name)
    }
}

/// Parse, plan and execute a query.
pub fn run(sql_text: &str, relations: &dyn Relations) -> Result<ResultSet> {
    let query = parser::parse_query(sql_text)?;
    exec::execute(&plan::plan(&query, relations)?, relations)
}
