//! Chrome-trace-format event collection.
//!
//! When enabled, instrumented scopes append "complete" (`"ph":"X"`) events to
//! a global buffer; [`write_to`] drains the buffer into a JSON array file
//! loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! Each event is written as one flat JSON object per line so the file can be
//! spot-validated line-by-line with the workspace's own JSON-subset parser.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::registry::json_string;

/// Cap on buffered events; beyond this, events are counted as dropped rather
/// than growing the buffer without bound on long-lived servers.
const MAX_EVENTS: usize = 1_000_000;

struct TraceEvent {
    name: String,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Begin collecting trace events (idempotent). The first call pins the trace
/// epoch; event timestamps are microseconds since that instant.
pub fn enable() {
    // Registered here so an exposition reads 0 until an event drops.
    crate::global().counter("trace_events_dropped_total");
    EPOCH.get_or_init(Instant::now);
    ACTIVE.store(true, Ordering::Release);
}

/// Whether trace collection is currently active.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Record a completed scope that started at `start` and ran for `dur_us`.
/// A no-op unless [`enable`] has been called.
pub fn record_at(name: &str, start: Instant, dur_us: u64) {
    if !active() {
        return;
    }
    let epoch = EPOCH.get_or_init(Instant::now);
    let ts_us = start.checked_duration_since(*epoch).map(|d| d.as_micros() as u64).unwrap_or(0);
    let tid = TID.with(|t| *t);
    let mut events = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if events.len() >= MAX_EVENTS {
        crate::global().counter("trace_events_dropped_total").inc();
        return;
    }
    events.push(TraceEvent { name: name.to_string(), ts_us, dur_us, tid });
}

/// Drain the buffered events into `path` as a Chrome-trace JSON array.
/// Returns the number of events written. Collection stays active.
pub fn write_to(path: &Path) -> std::io::Result<usize> {
    let events =
        std::mem::take(&mut *EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, ev) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":{},\"cat\":\"revival\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}{comma}",
            json_string(&ev.name),
            ev.ts_us,
            ev.dur_us,
            ev.tid
        )?;
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_a_file() {
        enable();
        assert!(active());
        record_at("unit.scope", Instant::now(), 123);
        record_at("unit.\"quoted\"", Instant::now(), 7);
        let path = std::env::temp_dir().join(format!("obs-trace-{}.json", std::process::id()));
        let written = write_to(&path).expect("write trace");
        assert!(written >= 2);
        let body = std::fs::read_to_string(&path).expect("read trace");
        let trimmed = body.trim();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\"name\":\"unit.scope\""));
        assert!(body.contains("\\\"quoted\\\""));
        // Draining empties the buffer: a second write holds no stale events.
        let again = write_to(&path).expect("write empty trace");
        assert_eq!(again, 0);
        std::fs::remove_file(&path).ok();
    }
}
