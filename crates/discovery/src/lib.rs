//! # revival-discovery
//!
//! Profiling — *"to discover meta-data from sample data"* (§2 of the
//! paper), specialised to dependency discovery: given an instance, find
//! the FDs, CFDs and CINDs it satisfies (or *almost* satisfies). The
//! tutorial motivates this as *"deducing and discovering rules for
//! cleaning the data"*; cleaning suites in practice are discovered,
//! then vetted, then handed to detection and repair.
//!
//! ## The engine layer
//!
//! [`engine`] unifies every miner behind one dispatch, mirroring the
//! `Detector` trait of `revival-detect`: a [`engine::DiscoverJob`]
//! names the data (a table or a catalog) plus
//! [`engine::DiscoverOptions`] (`min_support`, `min_confidence`,
//! `max_lhs`, `jobs`); [`engine::SequentialDiscovery`] and
//! [`engine::ParallelDiscovery`] turn it into a
//! [`engine::Discovered`] suite — mined rules with per-rule
//! support/confidence, the vetted minimal cover
//! (`constraints::analysis`), CIND candidates on catalog jobs, and
//! [`engine::DiscoveryStats`] reporting every search bound and the rows
//! support counting read. A job builds one *item index* per table —
//! for every `(attribute, Sym)` the ascending live rows carrying it —
//! and support is only ever counted over those row lists: a child
//! itemset's rows are its parent's, bucketed on one more column. The
//! lattice's stripped partitions are lists of the same rows, and a
//! conditional pattern's error is a sum over its classes. The parallel
//! engine
//! shards each lattice level's candidate checks across
//! `std::thread::scope` workers with a deterministic candidate-order
//! merge, so its output is byte-identical to the sequential engine's at
//! any `jobs` count; the constant miner, down to Σ parent supports per
//! level, runs on the caller. Confidence (`1 − g3/support`, from the
//! per-class errors of TANE's linear partition product in
//! [`partition`]) makes discovery usable on *dirty* data:
//! `min_confidence < 1.0` recovers the planted dependencies noise has
//! chipped.
//!
//! The engine layer is the one way in to discovery; the modules behind
//! it are its parts:
//!
//! * [`partition`] — stripped partitions over live rows and their
//!   product, which yields each class's `g3` error: the engine room of
//!   TANE;
//! * [`tane`] — the level-wise lattice walk ([`tane::mine_lattice`]),
//!   plain and conditional rules alike;
//! * [`cfdminer`] — constant CFDs via free-itemset mining (CFDMiner)
//!   over row lists;
//! * [`ctane`] — the conditional-pattern probe the lattice runs, a sum
//!   of class errors per condition value;
//! * [`ind_disc`] — unary IND discovery across relations and lifting of
//!   violated INDs to CIND candidates (how the paper's book/CD CIND
//!   arises from data).
//!
//! Everything runs on the interned `Sym` columns of `revival-relation` —
//! no `Vec<Value>` keys anywhere, and no hashed group key in the lattice.

#![forbid(unsafe_code)]

pub mod cfdminer;
pub mod ctane;
pub mod engine;
pub mod ind_disc;
mod items;
pub mod partition;
pub mod tane;

pub use cfdminer::mine_constant_cfds;
pub use engine::{
    discovery_by_name, DiscoverJob, DiscoverOptions, Discovered, DiscoveryEngine, DiscoveryStats,
    MinedCfd, MinedCind, ParallelDiscovery, SequentialDiscovery,
};
pub use ind_disc::{discover_unary_inds, lift_to_cinds};
