//! # revival
//!
//! Facade crate for the `revival` data-cleaning stack — a Rust
//! implementation of the systems surveyed in *"A Revival of Integrity
//! Constraints for Data Cleaning"* (Fan, Geerts, Jia — VLDB 2008).
//!
//! Each member crate is re-exported as a module:
//!
//! * [`relation`] — relational substrate + SQL subset engine;
//! * [`constraints`] — FDs, CFDs (incl. eCFD patterns), INDs, CINDs,
//!   parsing, and static analyses;
//! * [`detect`] — violation detection, reached one way: a
//!   [`detect::DetectJob`] run on a [`detect::Detector`] engine (native,
//!   SQL, incremental or parallel);
//! * [`repair`] — cost-based BatchRepair and IncRepair;
//! * [`discovery`] — the `DiscoveryEngine` layer (parallel approximate
//!   TANE/CTANE lattice, CFDMiner, IND/CIND lifting, suite vetting);
//! * [`dirty`] — seeded workload generators with ground truth.
//!
//! ## Example
//!
//! ```
//! use revival::prelude::*;
//!
//! let schema = Schema::builder("customer")
//!     .attr("cc", Type::Str).attr("zip", Type::Str).attr("street", Type::Str)
//!     .build();
//! let mut t = Table::new(schema.clone());
//! t.push(vec!["44".into(), "EH8".into(), "Crichton".into()]).unwrap();
//! t.push(vec!["44".into(), "EH8".into(), "Mayfield".into()]).unwrap();
//!
//! let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &schema).unwrap();
//! let job = DetectJob::on_table(&t, &cfds);
//! let report = NativeEngine.run(&job).unwrap();
//! assert_eq!(report.len(), 1);
//!
//! // Any engine, one API: the sharded scan is byte-identical.
//! assert_eq!(ParallelEngine::new(4).run(&job).unwrap(), report);
//!
//! // Repair shards the same way (`with_jobs`): the repaired table and
//! // stats are byte-identical at any shard count.
//! let (fixed, stats) =
//!     BatchRepair::new(&cfds, CostModel::uniform(3)).with_jobs(2).repair(&t).unwrap();
//! assert_eq!(stats.residual_violations, 0);
//! assert!(revival::detect::native::satisfies(&fixed, &cfds));
//! ```

#![forbid(unsafe_code)]

pub use revival_constraints as constraints;
pub use revival_detect as detect;
pub use revival_dirty as dirty;
pub use revival_discovery as discovery;
pub use revival_relation as relation;
pub use revival_repair as repair;
pub use revival_stream as stream;

/// One-stop imports for the common workflow: build tables, parse
/// constraints, detect, repair.
pub mod prelude {
    pub use revival_constraints::parser::{parse_cfds, parse_cinds};
    pub use revival_constraints::{Cfd, Cind, Fd, PatternRow, PatternValue};
    pub use revival_detect::{
        engine_by_name, DetectJob, Detector, IncrementalDetector, IncrementalEngine, NativeEngine,
        ParallelEngine, SqlEngine, Violation, ViolationReport,
    };
    pub use revival_discovery::{
        DiscoverJob, DiscoverOptions, DiscoveryEngine, ParallelDiscovery, SequentialDiscovery,
    };
    pub use revival_relation::{Catalog, Schema, Table, TupleId, Type, Value};
    pub use revival_repair::{BatchRepair, CostModel, IncRepair};
    pub use revival_stream::DeltaSession;
}
