//! # revival-constraints
//!
//! The constraint formalisms at the heart of *"A Revival of Integrity
//! Constraints for Data Cleaning"* (Fan, Geerts, Jia — VLDB 2008):
//!
//! * classical **functional dependencies** ([`Fd`]) and **inclusion
//!   dependencies** ([`Ind`]);
//! * **conditional functional dependencies** ([`Cfd`]) — FDs extended
//!   with a pattern tableau of semantically related constants (§3 of the
//!   paper, Fan et al. TODS 2008);
//! * **conditional inclusion dependencies** ([`Cind`]) — INDs holding
//!   only on tuples matching patterns (Bravo, Fan, Ma — VLDB 2007);
//! * the paper's textual syntax, e.g.
//!   `customer([cc='44', zip] -> [street])`, parsed by [`parser`];
//! * static analyses from the TODS paper in [`analysis`]:
//!   satisfiability of a CFD set, implication (via the chase), and
//!   minimal-cover computation.
//!
//! ## Example: the paper's running CFDs
//!
//! ```
//! use revival_relation::{Schema, Type};
//! use revival_constraints::parser::parse_cfds;
//!
//! let schema = Schema::builder("customer")
//!     .attr("cc", Type::Str).attr("ac", Type::Str).attr("phn", Type::Str)
//!     .attr("street", Type::Str).attr("city", Type::Str).attr("zip", Type::Str)
//!     .build();
//! let cfds = parse_cfds(
//!     "customer([cc='44', zip] -> [street])\n\
//!      customer([cc='01', ac='908', phn] -> [street, city='mh', zip])",
//!     &schema,
//! ).unwrap();
//! // The second line normalises into three normal-form CFDs (one per RHS attr).
//! assert_eq!(cfds.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cfd;
pub mod cind;
pub mod fd;
pub mod ind;
pub mod parser;
pub mod pattern;

pub use cfd::Cfd;
pub use cind::Cind;
pub use fd::Fd;
pub use ind::Ind;
pub use pattern::{PatternRow, PatternValue, SymPred};
