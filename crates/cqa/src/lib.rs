//! # revival-cqa
//!
//! Consistent query answering (CQA) — *"to find an answer to a given
//! query in every repair of the original database, without editing the
//! data"* (§2 of the paper, Arenas-Bertossi-Chomicki 1999).
//!
//! Under **subset-repair** semantics, a repair is a maximal subset of
//! the instance satisfying the constraints; a *certain answer* is one
//! returned by the query on every repair, a *possible answer* on at
//! least one. This crate provides:
//!
//! * [`conflict`] — the conflict graph of an instance w.r.t. a CFD
//!   suite (nodes = tuples; edges = pairs violating a variable row;
//!   self-conflicting tuples for constant-row violations);
//! * [`conflict::enumerate_repairs`] — all subset repairs via maximal
//!   independent set enumeration (exponential — capped; the semantics
//!   oracle);
//! * [`certain`] — certain/possible answers for selection-projection
//!   queries, both by repair enumeration and by the first-order
//!   rewriting that avoids materialising repairs (the tractable path
//!   measured in experiment E10);
//! * [`aggregate`] — range-consistent answers for `COUNT` queries
//!   (tightest `[lo, hi]` over all repairs), exact for
//!   group-decomposable conflicts.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod certain;
pub mod conflict;

pub use aggregate::{range_count, CountRange};
pub use certain::{certain_answers_enumerate, certain_answers_rewrite, possible_answers, SpQuery};
pub use conflict::{enumerate_repairs, ConflictGraph};
