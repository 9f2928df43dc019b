//! `revival_obs` — std-only observability for the revival workspace.
//!
//! Three pieces, all dependency-free:
//!
//! * [`Registry`] — a process-global store of named [`Counter`]s, [`Gauge`]s,
//!   and fixed-bucket log-scale [`Histogram`]s. Instruments are atomic and
//!   lock-free on the hot path; the registry lock is only taken on first
//!   lookup (handles are cached `Arc`s) and on export. Exports as integer-only
//!   JSON ([`Registry::to_json`]) and Prometheus-style text
//!   ([`Registry::render_text`]).
//! * [`Span`] — RAII timers that record elapsed microseconds into a histogram
//!   on drop, plus a thread-local per-request phase accumulator
//!   ([`time_phase`] / [`phases_take`]) used by the serve tier to split
//!   requests into parse → route → lock-wait → apply → WAL-append → ack.
//! * [`trace`] — optional Chrome-trace-format event collection
//!   (`--trace-out FILE`), loadable in `chrome://tracing` or Perfetto.
//! * [`JobProfile`] — a per-job (not process-global) accumulator behind
//!   `--explain`: per-constraint work and wall time with deterministic
//!   shard merges and exact totals; [`SnapshotRing`] / [`ProfileRing`]
//!   are the windowed registry view (`metrics --watch`) and the serve
//!   tier's last-N request profiles (`profile` verb).
//!
//! Label convention: Prometheus labels are embedded in the instrument name,
//! e.g. `serve_request_us{verb="append"}`; the text exposition splits the
//! name at the first `{` so rendered lines stay valid Prometheus.
//!
//! The whole subsystem can be switched off with [`set_enabled`]; disabled
//! spans cost one relaxed atomic load, and engine instrumentation flushes
//! local tallies only when enabled, so parity-critical code paths stay
//! byte-identical either way.

#![forbid(unsafe_code)]

mod profile;
mod registry;
mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use profile::{
    ConstraintProfile, JobProfile, ProfileRing, RegistrySnapshot, RequestProfile, SnapshotRing,
};
pub use registry::{
    json_string, write_json_string, Counter, Gauge, Histogram, HistogramSnapshot, Registry, BUCKETS,
};
pub use span::{phase_add, phases_reset, phases_take, time_phase, Span};

static GLOBAL: Registry = Registry::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Serialises tests that read or flip the global enabled flag.
#[cfg(test)]
pub(crate) static TEST_ENABLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The process-global registry.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Whether instrumentation is currently collected (default: yes).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable collection. Disabling does not clear anything
/// already recorded; it only stops new spans/phases from reading clocks.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_hands_out_shared_instruments() {
        let a = global().counter("lib_smoke_total");
        let b = global().counter("lib_smoke_total");
        a.inc();
        b.add(2);
        assert_eq!(global().counter("lib_smoke_total").get(), 3);
    }

    #[test]
    fn disabled_spans_skip_recording() {
        let _guard = TEST_ENABLE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let hist = global().histogram("lib_disabled_us");
        set_enabled(false);
        drop(Span::start(std::sync::Arc::clone(&hist)));
        set_enabled(true);
        assert_eq!(hist.count(), 0);
        drop(Span::start(hist));
        assert_eq!(global().histogram("lib_disabled_us").count(), 1);
    }
}
