//! # revival-stream
//!
//! The streaming data-quality service layer: where `revival_detect`
//! answers "what violates, right now?" for one table handed to it,
//! this crate keeps that answer *standing* while the data moves.
//!
//! The Semandaq demo (Fan–Geerts–Jia, VLDB'08) is pitched as an
//! interactive system, and the TODS incremental-detection technique
//! (kept warm here by [`revival_detect::IncrementalDetector`]) exists
//! precisely so a service does not rescan its base per edit. This crate
//! assembles that into a subsystem sitting between detection and
//! repair:
//!
//! * [`session::DeltaSession`] — registers tables + CFD/CIND suites,
//!   applies insert/delete/update deltas at `O(|Δ|)`, keeps live
//!   violation counters — one maintained partition per embedded FD, keyed by
//!   the table's own symbols, counted and reported per CFD as written —
//!   and triggers incremental repair on demand;
//! * [`protocol`] — the line-delimited JSON wire format of
//!   `semandaq serve` (self-contained JSON subset; the workspace is
//!   offline and carries no serde);
//! * [`shard::ShardedSession`] — the serve tier proper: a
//!   consistent-hash ring of per-relation session shards (one lock
//!   each) whose reads answer the live session, and per-shard
//!   write-ahead logs replayed over `.sdq` checkpoints on restart;
//! * [`wal::Wal`] — the fsync'd, FNV-checksummed, length-prefixed
//!   operation log each shard appends to before acking, and
//!   [`wal::GroupWal`] — leader/follower group commit over it, so one
//!   `fdatasync` acks every concurrent writer it covered;
//! * [`server::Server`] — a `std::net::TcpListener` front end with a
//!   worker-thread pool over one [`shard::ShardedSession`];
//! * [`tail::CsvTail`] — turns appended chunks of a growing CSV file
//!   into parsed rows for `semandaq watch`.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod server;
pub mod session;
pub mod shard;
pub mod tail;
pub mod wal;

pub use protocol::{Request, Response};
pub use server::{RunSummary, Server};
pub use session::DeltaSession;
pub use shard::{RestoreSummary, ServeOptions, Shard, ShardRing, ShardedSession};
pub use tail::CsvTail;
pub use wal::{GroupWal, Wal, WalReplay};
