//! # revival-repair
//!
//! Constraint repair — finding a database that satisfies a CFD suite and
//! *minimally differs* from the dirty original. This is the repairing
//! half of the Semandaq prototype (§5 of the paper): *"given a set of
//! cfds and a dirty database, it finds a candidate repair that minimally
//! differs from the original data and satisfies the cfds"*, implementing
//! the cost-based heuristic of Cong et al. (VLDB 2007).
//!
//! Finding a minimum repair is NP-complete already for plain FDs, so the
//! algorithm is a cost-guided heuristic built on three ideas:
//!
//! 1. **cell-level edits** — repairs change attribute values, never
//!    insert/delete whole tuples;
//! 2. **equivalence classes** — cells forced equal by variable CFDs are
//!    merged (union-find over one RHS attribute's slots) and resolved
//!    *together* to the value that minimises total weighted change cost
//!    — priced over the class's distinct values, not its cells
//!    ([`eqclass`]);
//! 3. **cost model** — changing value `v` to `w` costs
//!    `weight(cell) · dist(v, w)` with a normalised edit distance, so
//!    plausible small fixes are preferred.
//!
//! [`BatchRepair`] repairs a whole table and guarantees the output
//! satisfies the suite (it falls back to pattern-breaking fresh values if
//! cost-guided resolution stalls; see
//! [`batch::RepairStats::forced_resolutions`]). [`IncRepair`] repairs
//! only a delta against a trusted base, reading the groups a maintained
//! detector already holds — `O(|Δ|)`, the base left as it is
//! (experiment E6).
//!
//! Repair passes shard across threads ([`BatchRepair::with_jobs`]):
//! detection dispatches through `revival_detect`'s parallel [`Detector`]
//! engine and equivalence-class resolution splits its per-class cost
//! scans across `std::thread::scope` workers, with a deterministic
//! chunk-order merge — the repaired table and [`RepairStats`] are
//! byte-identical to the sequential pass at any shard count
//! (`tests/repair_parity.rs`).
//!
//! [`Detector`]: revival_detect::Detector

#![forbid(unsafe_code)]

pub mod batch;
pub mod cost;
pub mod eqclass;
pub mod incremental;

pub use batch::{BatchRepair, RepairStats};
pub use cost::CostModel;
pub use incremental::{IncRepair, IncStats};
