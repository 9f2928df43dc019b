//! # revival-detect
//!
//! Violation detection for conditional dependencies — the capability the
//! Semandaq prototype (§5 of the paper) demonstrates: *"automatic
//! detections of cfd violations, based on efficient sql-based
//! techniques"*.
//!
//! Four detectors are provided:
//!
//! * [`native`] — hash-group detection, one pass per embedded FD
//!   however the suite splits its pattern rows, reported per original
//!   CFD; the fastest path and the reference implementation
//!   ([`native::NativeDetector`] is its single-table facade);
//! * [`sqlgen`] — the two-query SQL encoding of Fan et al. (TODS 2008):
//!   a per-tuple query `Q_c` for constant tableau rows and a
//!   `GROUP BY … HAVING COUNT(DISTINCT …) > 1` query `Q_v` for variable
//!   rows, executed on `revival-relation`'s SQL engine;
//! * [`incremental::IncrementalDetector`] — the native scan's state
//!   kept warm: maintains violations under tuple insertions, deletions
//!   and cell writes on one table in time proportional to the delta;
//! * [`cind::CindDetector`] — detection for conditional inclusion
//!   dependencies across two relations.
//!
//! All detectors agree on the [`report::ViolationReport`] structure, and
//! tests in this crate assert they agree with each other.
//!
//! The [`engine`] module unifies them behind one [`engine::Detector`]
//! trait: callers build a [`engine::DetectJob`] (data + suite) and run
//! it on any engine — including [`parallel::ParallelEngine`], the
//! native scan sharded across threads with per-shard outputs merged
//! deterministically (byte-identical to [`engine::NativeEngine`], which
//! is the same scan at one shard).

#![forbid(unsafe_code)]

pub mod cind;
pub mod engine;
pub mod incremental;
pub mod native;
pub mod parallel;
pub mod report;
pub mod sqlgen;

pub use cind::CindDetector;
pub use engine::{
    cfd_profile_name, cind_profile_name, engine_by_name, DetectJob, Detector, IncrementalEngine,
    NativeEngine, SqlEngine,
};
pub use incremental::IncrementalDetector;
pub use native::NativeDetector;
pub use parallel::ParallelEngine;
pub use report::{Violation, ViolationReport};
