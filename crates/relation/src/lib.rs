//! # revival-relation
//!
//! The relational substrate underneath the `revival` data-cleaning stack.
//!
//! The systems surveyed by *"A Revival of Integrity Constraints for Data
//! Cleaning"* (Fan, Geerts, Jia — VLDB 2008) all operate over relational
//! data, and the Semandaq prototype in particular detects constraint
//! violations by running SQL over a DBMS. Since this reproduction must be
//! self-contained, this crate provides:
//!
//! * a typed [`Value`] model with a total order (NULL-aware, NaN-safe);
//! * [`Schema`]/[`Attribute`] descriptions, including optional finite
//!   domains (needed by CFD satisfiability analysis);
//! * an in-memory, **columnar** [`Table`] — dense per-attribute [`Sym`]
//!   columns over an interning [`ValuePool`], stable tuple identities,
//!   a tombstone bitmap, and secondary hash [`Index`]es;
//! * an on-disk snapshot format (module [`snapshot`], `.sdq` files):
//!   one read and one decode pass to open;
//! * CSV reading/writing (module [`csv`]);
//! * the SQL dialect of the detection oracle (module [`sql`]) — lexer,
//!   parser, planner and executor for exactly the queries the CFD
//!   paper's encoding generates (`SELECT … FROM … JOIN … ON … WHERE …
//!   GROUP BY … HAVING COUNT(DISTINCT …) > 1`);
//! * the scoped-thread sharding primitive (module [`parallel`]) that
//!   detect, repair and discovery split their scans with;
//! * item-indexed partitions (module [`partition`]): per-attribute row
//!   lists and the TANE partitions built from them, the one grouping
//!   detect and discovery share.
//!
//! ## Quick tour
//!
//! ```
//! use revival_relation::{Schema, Type, Table, Value};
//!
//! let schema = Schema::builder("customer")
//!     .attr("cc", Type::Str)
//!     .attr("zip", Type::Str)
//!     .attr("street", Type::Str)
//!     .build();
//! let mut t = Table::new(schema);
//! t.push(vec!["44".into(), "EH8 9AB".into(), "Crichton St".into()]).unwrap();
//! assert_eq!(t.len(), 1);
//! assert_eq!(t.rows().next().unwrap().1[2], Value::from("Crichton St"));
//! ```

#![forbid(unsafe_code)]

pub mod csv;
pub mod durable;
pub mod error;
pub mod groupby;
pub mod index;
pub mod parallel;
pub mod partition;
pub mod pool;
pub mod schema;
pub mod snapshot;
pub mod sql;
pub mod table;
pub mod value;

pub use error::{Error, Result};
pub use groupby::{ColProj, GroupBy, KeyProj};
pub use index::Index;
pub use parallel::{map_chunks, resolve_jobs};
pub use pool::{Sym, ValuePool};
pub use schema::{AttrId, Attribute, Catalog, Schema, SchemaBuilder, Type};
pub use table::{Table, TupleId};
pub use value::Value;
