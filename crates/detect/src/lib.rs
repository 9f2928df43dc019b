//! # revival-detect
//!
//! Violation detection for conditional dependencies — the capability the
//! Semandaq prototype (§5 of the paper) demonstrates: *"automatic
//! detections of cfd violations, based on efficient sql-based
//! techniques"*.
//!
//! Detection is reached one way: build an [`engine::DetectJob`] (data +
//! suite) and run it on an [`engine::Detector`] —
//!
//! * [`engine::NativeEngine`] — the hash-group scan of [`native`], one
//!   pass per embedded FD however the suite splits its pattern rows,
//!   reported per original CFD; the fastest path and the reference;
//! * [`parallel::ParallelEngine`] — the same scan sharded across
//!   threads, byte-identical to the native engine at any shard count;
//! * [`engine::SqlEngine`] — the two-query SQL encoding of [`sqlgen`]
//!   (Fan et al., TODS 2008) on `revival-relation`'s SQL engine, the
//!   oracle every other engine is held to;
//! * [`engine::IncrementalEngine`] — a batch replay through
//!   [`incremental::IncrementalDetector`], the native scan's state kept
//!   warm under insertions, deletions and cell writes.
//!
//! CINDs ride the same job ([`engine::DetectJob::with_cinds`]) and are
//! witness-probed by [`cind`] on every engine. All engines agree on the
//! [`report::ViolationReport`] they return.

#![forbid(unsafe_code)]

pub mod cind;
pub mod engine;
pub mod incremental;
pub mod native;
pub mod parallel;
pub mod report;
pub mod sqlgen;

pub use engine::{
    cfd_profile_name, cind_profile_name, engine_by_name, DetectJob, Detector, IncrementalEngine,
    NativeEngine, SqlEngine,
};
pub use incremental::IncrementalDetector;
pub use parallel::ParallelEngine;
pub use report::{Violation, ViolationReport};
