//! The std-only TCP front end for a [`ShardedSession`].
//!
//! `semandaq serve` is this module plus flag parsing: a
//! [`std::net::TcpListener`] accept loop hands connections to a fixed
//! pool of worker threads over an [`std::sync::mpsc`] channel, and
//! every worker speaks the line-delimited JSON
//! [`protocol`](crate::protocol) against the sharded session tier —
//! requests route to one shard by table name, reads (`count`,
//! `report`) take shared locks, writes serialise only against their own
//! shard.
//!
//! Fault containment, per request: the connection handler wraps every
//! request in [`std::panic::catch_unwind`], so a panicking request
//! answers a typed JSON error instead of killing its worker; every
//! lock acquisition in the stack recovers from poisoning
//! ([`crate::shard`]'s `*_recovered` helpers), so a panic that *does*
//! poison a lock cannot brick later connections either.
//!
//! Shutdown is cooperative: a `shutdown` request flips an atomic flag;
//! the accept loop (non-blocking, 5 ms poll) stops handing out
//! connections, workers finish their current client and exit, and
//! [`Server::run`] joins them, takes a final checkpoint when a state
//! directory is configured, and returns a [`RunSummary`].

use crate::protocol::{Request, Response};
use crate::shard::{lock_recovered, RestoreSummary, ServeOptions, ShardedSession};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest accepted request line (a registered CSV payload rides in
/// one line, so the cap is generous; past it the connection drops).
const MAX_REQUEST_BYTES: usize = 64 * 1024 * 1024;

/// Every protocol verb, for pre-registered per-verb instruments.
const VERBS: [&str; 13] = [
    "register",
    "cinds",
    "append",
    "delete",
    "update",
    "count",
    "report",
    "repair",
    "discover",
    "checkpoint",
    "metrics",
    "profile",
    "shutdown",
];

/// Requests the per-request profile ring keeps (the `profile` verb
/// reads them back, newest first).
const PROFILE_RING_CAP: usize = 64;

/// Registry snapshots the windowed-metrics ring keeps. At one
/// snapshot per windowed `metrics` request, 128 covers minutes of
/// `metrics --watch` at any sane poll interval.
const SNAPSHOT_RING_CAP: usize = 128;

/// Request phases in pipeline order. `parse` and `ack` are measured
/// here; the middle five are recorded by [`crate::shard`] through the
/// thread-local phase accumulator (`wal_append` is the in-memory
/// stage, `commit_wait` the wait for the group fsync that covers the
/// record). `ack` is the in-process residual — everything a request
/// spent outside an instrumented phase (read-path work, response
/// building) — so the seven always sum to the total.
const PHASE_NAMES: [&str; 7] =
    ["parse", "route", "lock_wait", "apply", "wal_append", "commit_wait", "ack"];

/// One verb's pre-registered instruments.
struct VerbInstruments {
    verb: &'static str,
    requests: Arc<revival_obs::Counter>,
    errors: Arc<revival_obs::Counter>,
    latency: Arc<revival_obs::Histogram>,
    /// Requests this server handled — the registry counter is
    /// process-global and cumulative, so the shutdown summary counts
    /// per server (other servers in the process bump `requests` too).
    served: AtomicU64,
}

/// Instrument handles resolved once at bind time, so the request hot
/// path never formats a metric name or touches the registry map.
struct ServeObs {
    verbs: Vec<VerbInstruments>,
    phases: Vec<(&'static str, Arc<revival_obs::Histogram>)>,
    slow_total: Arc<revival_obs::Counter>,
    panics: Arc<revival_obs::Counter>,
    parse_errors: Arc<revival_obs::Counter>,
    slow_log_us: Option<u64>,
}

impl ServeObs {
    fn new(slow_log_us: Option<u64>) -> ServeObs {
        let reg = revival_obs::global();
        // Bumped on rare paths elsewhere (a poisoned lock, a failed
        // background checkpoint): registered here so an exposition reads
        // 0 from the start rather than nothing.
        reg.counter("lock_poison_recovered_total");
        reg.counter("serve_checkpoint_errors_total");
        ServeObs {
            verbs: VERBS
                .iter()
                .map(|v| VerbInstruments {
                    verb: v,
                    requests: reg.counter(&format!("serve_requests_total{{verb=\"{v}\"}}")),
                    served: AtomicU64::new(0),
                    errors: reg.counter(&format!("serve_request_errors_total{{verb=\"{v}\"}}")),
                    latency: reg.histogram(&format!("serve_request_us{{verb=\"{v}\"}}")),
                })
                .collect(),
            phases: PHASE_NAMES
                .iter()
                .map(|p| (*p, reg.histogram(&format!("serve_phase_us{{phase=\"{p}\"}}"))))
                .collect(),
            slow_total: reg.counter("serve_slow_requests_total"),
            panics: reg.counter("serve_requests_panicked_total"),
            parse_errors: reg.counter("serve_parse_errors_total"),
            slow_log_us,
        }
    }

    /// Record one completed request: verb counter + latency, per-phase
    /// histograms, optional trace event, optional slow-log line.
    fn observe(
        &self,
        verb: &'static str,
        ok: bool,
        start: Instant,
        total_us: u64,
        phases: &[(&'static str, u64)],
    ) {
        if let Some(vi) = self.verbs.iter().find(|v| v.verb == verb) {
            vi.requests.inc();
            vi.served.fetch_add(1, Ordering::Relaxed);
            if !ok {
                vi.errors.inc();
            }
            vi.latency.record(total_us);
        }
        for (name, us) in phases {
            if let Some((_, hist)) = self.phases.iter().find(|(p, _)| p == name) {
                hist.record(*us);
            }
        }
        if revival_obs::trace::active() {
            revival_obs::trace::record_at(&format!("serve.{verb}"), start, total_us);
        }
        if let Some(limit) = self.slow_log_us {
            if total_us >= limit {
                self.slow_total.inc();
                let breakdown: String =
                    phases.iter().map(|(n, us)| format!(" {n}={us}us")).collect();
                eprintln!(
                    "semandaq serve: slow request verb={verb} total={total_us}us \
                     (threshold {limit}us):{breakdown}"
                );
            }
        }
    }

    /// `(verb, requests)` this server handled, verbs seen at least once.
    fn verb_tallies(&self) -> Vec<(&'static str, u64)> {
        self.verbs
            .iter()
            .filter_map(|v| {
                let n = v.served.load(Ordering::Relaxed);
                (n > 0).then_some((v.verb, n))
            })
            .collect()
    }
}

/// State shared between the accept loop and the workers.
struct Shared {
    tier: ShardedSession,
    shutdown: AtomicBool,
    obs: ServeObs,
    start: Instant,
    /// Per-request phase profiles of the last [`PROFILE_RING_CAP`]
    /// requests — the `profile` verb's backing store.
    profiles: revival_obs::ProfileRing,
    /// Timestamped registry snapshots; each windowed `metrics` request
    /// pushes one, and two of them bound the rates/percentiles window.
    snapshots: Mutex<revival_obs::SnapshotRing>,
}

/// What a clean shutdown did.
#[derive(Debug, Default, Clone)]
pub struct RunSummary {
    /// Relations written by the final checkpoint (0 without `--state`).
    pub saved_relations: usize,
    /// Seconds between bind and the end of shutdown.
    pub uptime_secs: u64,
    /// Requests handled per verb (verbs seen at least once, protocol
    /// order).
    pub requests_by_verb: Vec<(&'static str, u64)>,
    /// Total requests handled across all verbs.
    pub total_requests: u64,
    /// Per-shard checkpoints taken over the run (boot one included).
    pub checkpoints: u64,
    /// WAL group commits (one `fdatasync` each) over the run.
    pub wal_group_commits: u64,
    /// WAL records those group commits covered; divided by
    /// [`RunSummary::wal_group_commits`] this is the mean group size.
    pub wal_group_records: u64,
    /// Chrome-trace events written at shutdown (0 without
    /// `--trace-out`).
    pub trace_events: usize,
}

impl RunSummary {
    /// Mean records per group commit (0.0 when the WAL was off or
    /// idle).
    pub fn mean_group_size(&self) -> f64 {
        if self.wal_group_commits == 0 {
            0.0
        } else {
            self.wal_group_records as f64 / self.wal_group_commits as f64
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    trace_out: Option<PathBuf>,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with
    /// the full serve configuration — shards, WAL, checkpoint cadence,
    /// state directory. Restores and replays per
    /// [`ShardedSession::open`]; the returned [`RestoreSummary`] says
    /// what came back from disk.
    pub fn bind_opts(addr: &str, opts: &ServeOptions) -> std::io::Result<(Server, RestoreSummary)> {
        if opts.trace_out.is_some() {
            revival_obs::trace::enable();
        }
        let (tier, restored) =
            ShardedSession::open(opts).map_err(|e| std::io::Error::other(e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        Ok((
            Server {
                listener,
                shared: Arc::new(Shared {
                    tier,
                    shutdown: AtomicBool::new(false),
                    obs: ServeObs::new(opts.slow_log_us),
                    start: Instant::now(),
                    profiles: revival_obs::ProfileRing::new(PROFILE_RING_CAP),
                    snapshots: Mutex::new(revival_obs::SnapshotRing::new(SNAPSHOT_RING_CAP)),
                }),
                trace_out: opts.trace_out.clone(),
            },
            restored,
        ))
    }

    /// The bound address (read the port back after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a client sends `shutdown`. Blocks; returns once all
    /// `workers` threads have drained and the final checkpoint (when a
    /// state directory is configured) is durably on disk.
    pub fn run(self, workers: usize) -> std::io::Result<RunSummary> {
        let workers = workers.max(1);
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // A worker death while holding the receiver must
                    // not strand the accept loop: recover the mutex.
                    let conn = match lock_recovered(&rx).recv() {
                        Ok(conn) => conn,
                        Err(_) => break, // accept loop gone
                    };
                    handle_connection(conn, &self.shared);
                });
            }
            while !self.shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((conn, _)) => {
                        if tx.send(conn).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            drop(tx);
        });
        let shared = Arc::into_inner(self.shared)
            .expect("all worker references dropped after the scope joins");
        let saved = shared
            .tier
            .checkpoint()
            .map_err(|e| std::io::Error::other(format!("shutdown checkpoint: {e}")))?;
        let mut trace_events = 0;
        if let Some(path) = &self.trace_out {
            trace_events = revival_obs::trace::write_to(path).map_err(|e| {
                std::io::Error::other(format!("write trace {}: {e}", path.display()))
            })?;
        }
        let requests_by_verb = shared.obs.verb_tallies();
        let total_requests = requests_by_verb.iter().map(|(_, n)| n).sum();
        let (wal_group_commits, wal_group_records) = shared.tier.wal_group_tallies();
        Ok(RunSummary {
            saved_relations: saved,
            uptime_secs: shared.start.elapsed().as_secs(),
            requests_by_verb,
            total_requests,
            checkpoints: shared.tier.checkpoints_taken(),
            wal_group_commits,
            wal_group_records,
            trace_events,
        })
    }
}

/// Serve one client: read request lines, answer each, stop at EOF,
/// protocol error or shutdown. A read timeout keeps idle connections
/// from pinning a worker past shutdown.
fn handle_connection(conn: TcpStream, shared: &Shared) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(write_half) = conn.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(conn);
    // Lines accumulate as bytes, not via `read_line`: on a timeout
    // `read_until` keeps whatever arrived in the buffer, whereas
    // `read_line` would *discard* a partial read that happens to end
    // mid-way through a multi-byte UTF-8 character.
    let mut line: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // One line bounds one request; a client streaming newline-free
        // bytes must not grow the buffer (and the process) unboundedly.
        if line.len() > MAX_REQUEST_BYTES {
            let resp = Response::err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
            let _ = writer.write_all(resp.to_line().as_bytes());
            let _ = writer.flush();
            return;
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            // read_until returns only at the delimiter or EOF, so the
            // line is complete either way.
            Ok(_) => {
                let response = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => {
                        line.clear();
                        continue;
                    }
                    Ok(text) => answer_contained(text, shared),
                    Err(_) => (Response::err("request line is not valid UTF-8"), false),
                };
                line.clear();
                let (response, stop) = response;
                if writer.write_all(response.to_line().as_bytes()).is_err()
                    || writer.flush().is_err()
                    || stop
                {
                    return;
                }
            }
            // Timeout mid-wait or mid-line; the retry resumes `line`.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        }
    }
}

/// [`answer`] behind a panic boundary: a request that panics (bad
/// input tripping an assertion deep in the stack) answers a typed
/// error on this connection and leaves the worker — and, thanks to
/// poison recovery at every lock, the whole server — serving.
fn answer_contained(line: &str, shared: &Shared) -> (Response, bool) {
    std::panic::catch_unwind(AssertUnwindSafe(|| answer(line, shared))).unwrap_or_else(|payload| {
        shared.obs.panics.inc();
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        (Response::err(format!("request panicked: {what}")), false)
    })
}

/// Answer one request line; the bool asks the caller to drop the
/// connection (shutdown).
fn answer(line: &str, shared: &Shared) -> (Response, bool) {
    if !revival_obs::enabled() {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => return (Response::err(e), false),
        };
        return dispatch(&request, shared);
    }
    let start = Instant::now();
    revival_obs::phases_reset();
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            shared.obs.parse_errors.inc();
            return (Response::err(e), false);
        }
    };
    let parse_us = start.elapsed().as_micros() as u64;
    let verb = request.verb();
    let (response, stop) = dispatch(&request, shared);
    let total_us = start.elapsed().as_micros() as u64;
    let mut phases = revival_obs::phases_take();
    phases.insert(0, ("parse", parse_us));
    // A shard-recorded phase outside PHASE_NAMES would be subtracted
    // from `ack` yet dropped from the `serve_phase_us` histograms —
    // exactly the drift the phase-accounting tests exist to prevent.
    debug_assert!(
        phases.iter().all(|(n, _)| PHASE_NAMES.contains(n)),
        "phase outside PHASE_NAMES: {phases:?}"
    );
    let accounted: u64 = phases.iter().map(|(_, us)| *us).sum();
    // Phase timers truncate to µs independently of the outer timer, so
    // their sum can exceed the measured total by a µs or two; clamp the
    // total up so the phases always sum to it *exactly*.
    let total_us = total_us.max(accounted);
    phases.push(("ack", total_us - accounted));
    shared.obs.observe(verb, response.is_ok(), start, total_us, &phases);
    shared.profiles.push(verb, response.is_ok(), total_us, &phases);
    (response, stop)
}

/// Route one parsed request to the tier (or handle the two verbs the
/// server answers itself: `shutdown` and `metrics`).
fn dispatch(request: &Request, shared: &Shared) -> (Response, bool) {
    match request {
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (Response::ok().with_int("stopping", 1), true)
        }
        Request::Metrics { window_secs } => {
            let reg = revival_obs::global();
            let mut response = Response::ok()
                .with_int("uptime_secs", shared.start.elapsed().as_secs() as i64)
                .with_int("shards", shared.tier.shards() as i64)
                .with_str("json", reg.to_json())
                .with_str("text", reg.render_text());
            if *window_secs > 0 {
                // Each windowed request pushes one snapshot; the window
                // renders against the oldest snapshot still inside it,
                // so a polling client (`metrics --watch`) sees rates
                // over its own poll cadence. One snapshot held means no
                // window yet — the field appears from the second poll.
                let mut ring = lock_recovered(&shared.snapshots);
                ring.record(reg);
                if let Some(windowed) = ring.render_window(*window_secs) {
                    response = response.with_str("windowed", windowed);
                }
            }
            (response, false)
        }
        Request::Profile { last } => {
            let n = (*last).min(PROFILE_RING_CAP as u64) as usize;
            (
                Response::ok()
                    .with_int("count", shared.profiles.last(n).len() as i64)
                    .with_str("json", shared.profiles.to_json(n))
                    .with_str("text", shared.profiles.render_text(n)),
                false,
            )
        }
        _ => (shared.tier.handle(request), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Server {
        /// A fresh single-shard session, no persistence.
        fn bind(addr: &str, jobs: usize) -> std::io::Result<Server> {
            Self::bind_opts(addr, &ServeOptions { jobs, ..ServeOptions::default() }).map(|(s, _)| s)
        }
    }

    /// The serve instruments are process-global: the tests that drive a
    /// server take turns, so none's traffic lands between another's polls.
    fn serving() -> std::sync::MutexGuard<'static, ()> {
        static SERVING: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERVING.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        req: &Request,
    ) -> Response {
        send_raw(stream, reader, &req.to_line())
    }

    fn send_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
        stream.write_all(line.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(_) if line.ends_with('\n') => break,
                Ok(0) => panic!("server closed early"),
                Ok(_) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        Response::parse(&line).unwrap()
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn register_append_report_repair_shutdown() {
        let _serving = serving();
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(2).unwrap());

        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Register {
                table: "customer".into(),
                csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
                cfds: "customer([cc='44', zip] -> [street])".into(),
            },
        );
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("rows"), Some(1));
        assert_eq!(resp.int("violations"), Some(0));

        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Append { table: "customer".into(), row: "44,EH8,Mayfield".into() },
        );
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("violations"), Some(1));

        // A second concurrent client sees the same live state.
        let (mut stream2, mut reader2) = connect(addr);
        let resp = roundtrip(&mut stream2, &mut reader2, &Request::Count);
        assert_eq!(resp.int("violations"), Some(1));

        let resp = roundtrip(&mut stream, &mut reader, &Request::Report { max: 10 });
        assert!(resp.str("text").unwrap().contains("disagree on street"), "{resp:?}");

        let resp =
            roundtrip(&mut stream, &mut reader, &Request::Repair { table: "customer".into() });
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("violations"), Some(0));
        assert_eq!(resp.int("tuples_edited"), Some(1));

        // Malformed and unknown requests answer errors, connection stays up.
        stream.write_all(b"not json\n").unwrap();
        let mut line = String::new();
        while !line.ends_with('\n') {
            match reader.read_line(&mut line) {
                Ok(0) => panic!("closed"),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("{e}"),
            }
        }
        assert!(!Response::parse(&line).unwrap().is_ok());
        let resp = roundtrip(&mut stream, &mut reader, &Request::Repair { table: "nope".into() });
        assert!(!resp.is_ok());

        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn panicking_request_answers_error_and_server_survives() {
        let _serving = serving();
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(2).unwrap());

        // Registering the planted table trips an assertion — a genuine
        // panic, not a typed error — while the worker holds the shard's
        // write lock.
        let panics = revival_obs::global().counter("serve_requests_panicked_total");
        let recoveries = revival_obs::global().counter("lock_poison_recovered_total");
        let (panics_before, recoveries_before) = (panics.get(), recoveries.get());
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Register {
                table: crate::shard::PANIC_TABLE.into(),
                csv: "a,b\n1,2\n".into(),
                cfds: String::new(),
            },
        );
        assert!(!resp.is_ok(), "panicking request must answer an error: {resp:?}");
        assert!(resp.str("error").unwrap().contains("panicked"), "{resp:?}");

        // Same connection keeps working…
        let resp = roundtrip(&mut stream, &mut reader, &Request::Count);
        assert!(resp.is_ok(), "connection after panic: {resp:?}");

        // …and so does a *fresh* connection doing real work, despite
        // the poisoned shard lock the panic left behind.
        let (mut stream2, mut reader2) = connect(addr);
        let resp = roundtrip(
            &mut stream2,
            &mut reader2,
            &Request::Register {
                table: "customer".into(),
                csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
                cfds: "customer([cc, zip] -> [street])".into(),
            },
        );
        assert!(resp.is_ok(), "healthy op after panic: {resp:?}");
        let resp = roundtrip(
            &mut stream2,
            &mut reader2,
            &Request::Append { table: "customer".into(), row: "44,EH8,Mayfield".into() },
        );
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("violations"), Some(1));
        // Both events landed in the registry the `metrics` verb serves.
        assert!(panics.get() > panics_before);
        assert!(recoveries.get() > recoveries_before);

        let resp = roundtrip(&mut stream2, &mut reader2, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn sharded_server_counts_across_shards_and_checkpoints() {
        let _serving = serving();
        let (server, restored) = Server::bind_opts(
            "127.0.0.1:0",
            &ServeOptions { shards: 4, ..ServeOptions::default() },
        )
        .unwrap();
        assert_eq!(restored, RestoreSummary::default());
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(2).unwrap());
        let (mut stream, mut reader) = connect(addr);
        for i in 0..4 {
            let resp = roundtrip(
                &mut stream,
                &mut reader,
                &Request::Register {
                    table: format!("t{i}"),
                    csv: "a,b\n1,x\n1,y\n".into(),
                    cfds: format!("t{i}([a] -> [b])"),
                },
            );
            assert!(resp.is_ok(), "{resp:?}");
        }
        let resp = roundtrip(&mut stream, &mut reader, &Request::Count);
        assert_eq!(resp.int("violations"), Some(4), "one violated group per table");
        // Without a state directory a checkpoint writes nothing; the
        // reply keeps its shape.
        let resp = roundtrip(&mut stream, &mut reader, &Request::Checkpoint);
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!((resp.int("relations"), resp.int("shards")), (Some(0), Some(4)), "{resp:?}");
        let resp = roundtrip(&mut stream, &mut reader, &Request::Count);
        assert_eq!(resp.int("violations"), Some(4));
        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn discover_mines_and_optionally_registers() {
        let _serving = serving();
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(1).unwrap());
        let (mut stream, mut reader) = connect(addr);
        // Register data only — no constraints yet. zip → street holds.
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Register {
                table: "customer".into(),
                csv: "cc,zip,street\n\
                      44,EH8,Crichton\n44,EH8,Crichton\n44,EH8,Crichton\n\
                      44,G1,High\n44,G1,High\n44,G1,High\n"
                    .into(),
                cfds: String::new(),
            },
        );
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("violations"), Some(0));

        // Mine and auto-register the vetted suite.
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Discover {
                table: "customer".into(),
                min_support: 2,
                max_lhs: 2,
                confidence_pct: 100,
                register: true,
            },
        );
        assert!(resp.is_ok(), "{resp:?}");
        assert!(resp.int("rules").unwrap() > 0, "{resp:?}");
        assert!(resp.int("vetted").unwrap() > 0, "{resp:?}");
        assert_eq!(resp.str("satisfiable"), Some("yes"));
        let text = resp.str("text").unwrap();
        assert!(text.contains("customer(["), "suite must be in parse syntax: {text}");
        // The mined suite holds on the profiled data.
        assert_eq!(resp.int("violations"), Some(0), "{resp:?}");

        // A row breaking zip → street now trips the registered suite.
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Append { table: "customer".into(), row: "44,EH8,Mayfield".into() },
        );
        assert!(resp.is_ok(), "{resp:?}");
        assert!(resp.int("violations").unwrap() > 0, "{resp:?}");

        // Unknown table errors; the connection stays usable.
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Discover {
                table: "nope".into(),
                min_support: 3,
                max_lhs: 2,
                confidence_pct: 100,
                register: false,
            },
        );
        assert!(!resp.is_ok());
        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn register_counts_per_cfd_over_one_embedded_fd() {
        let _serving = serving();
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(1).unwrap());
        let (mut stream, mut reader) = connect(addr);
        // Two CFDs over one embedded FD: the session keeps one grouping
        // state for both, and `cfds` and the count are per CFD as written.
        let register = Request::Register {
            table: "customer".into(),
            csv: "cc,zip,street\n44,EH8,Crichton\n44,EH8,Mayfield\n".into(),
            cfds: "customer([cc='44', zip] -> [street])\n\
                   customer([cc, zip] -> [street])"
                .into(),
        };
        let resp = roundtrip(&mut stream, &mut reader, &register);
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("cfds"), Some(2), "the suite as spelled, not folded");
        assert_eq!(resp.int("violations"), Some(2), "one per CFD");
        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn metrics_verb_round_trips_over_the_protocol() {
        let _serving = serving();
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(1).unwrap());
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Register {
                table: "m".into(),
                csv: "a,b\n1,x\n".into(),
                cfds: "m([a] -> [b])".into(),
            },
        );
        assert!(resp.is_ok(), "{resp:?}");
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Append { table: "m".into(), row: "1,y".into() },
        );
        assert!(resp.is_ok(), "{resp:?}");

        let resp = roundtrip(&mut stream, &mut reader, &Request::Metrics { window_secs: 0 });
        assert!(resp.is_ok(), "{resp:?}");
        assert!(resp.int("uptime_secs").is_some());
        let json = resp.str("json").unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        // The registry is process-global (other tests in this binary
        // contribute), so assertions are on presence, not exact counts.
        let text = resp.str("text").unwrap();
        assert!(text.contains("serve_requests_total{verb=\"append\"}"), "{text}");
        assert!(text.contains("serve_request_us_count{verb=\"append\"}"), "{text}");
        assert!(text.contains("serve_request_us{verb=\"append\",quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("serve_phase_us_count{phase=\"apply\"}"), "{text}");

        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        let summary = handle.join().unwrap();
        assert!(summary.total_requests >= 4, "{summary:?}");
        assert!(
            summary.requests_by_verb.iter().any(|(v, n)| *v == "metrics" && *n >= 1),
            "{summary:?}"
        );
        assert!(summary.requests_by_verb.iter().any(|(v, n)| *v == "append" && *n == 1));
    }

    #[test]
    fn phase_names_are_parse_plus_shard_phases_plus_ack() {
        let expected: Vec<&str> = std::iter::once("parse")
            .chain(crate::shard::SHARD_PHASES)
            .chain(std::iter::once("ack"))
            .collect();
        assert_eq!(PHASE_NAMES.to_vec(), expected, "serve and shard phase lists drifted");
    }

    /// Satellite: the seven phases must sum *exactly* to the recorded
    /// request total for every verb — reads carrying a field the
    /// protocol ignores (the retired `"replica"`) included.
    #[test]
    fn phases_sum_exactly_to_total_for_every_verb() {
        let _serving = serving();
        let (server, _) = Server::bind_opts(
            "127.0.0.1:0",
            &ServeOptions { shards: 2, ..ServeOptions::default() },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(1).unwrap());
        let (mut stream, mut reader) = connect(addr);
        let requests = vec![
            Request::Register {
                table: "p".into(),
                csv: "a,b\n1,x\n1,y\n".into(),
                cfds: "p([a] -> [b])".into(),
            },
            Request::Append { table: "p".into(), row: "1,z".into() },
            Request::Count,
            Request::Report { max: 10 },
            Request::Checkpoint,
            Request::Metrics { window_secs: 0 },
        ];
        let flagged = [r#"{"cmd":"count","replica":true}"#, r#"{"cmd":"count","replica":false}"#];
        let n_requests = requests.len() + flagged.len();
        for req in &requests {
            let resp = roundtrip(&mut stream, &mut reader, req);
            assert!(resp.is_ok(), "{req:?} -> {resp:?}");
        }
        for line in flagged {
            let resp = send_raw(&mut stream, &mut reader, &format!("{line}\n"));
            assert!(resp.is_ok(), "{line} -> {resp:?}");
        }
        let resp = roundtrip(&mut stream, &mut reader, &Request::Profile { last: 64 });
        assert!(resp.is_ok(), "{resp:?}");
        assert!(resp.int("count").unwrap() >= n_requests as i64, "{resp:?}");
        // Text lines look like `#3 count ok 123us: parse=1us ... ack=2us`.
        let text = resp.str("text").unwrap();
        let mut verbs_seen = Vec::new();
        for line in text.lines() {
            let (head, tail) = line.split_once(':').unwrap_or_else(|| panic!("bad line: {line}"));
            let mut parts = head.split_whitespace();
            let _seq = parts.next().unwrap();
            let verb = parts.next().unwrap();
            let _ok = parts.next().unwrap();
            let total: u64 = parts.next().unwrap().strip_suffix("us").unwrap().parse().unwrap();
            let mut sum = 0u64;
            for kv in tail.split_whitespace() {
                let (name, us) = kv.split_once('=').unwrap();
                assert!(PHASE_NAMES.contains(&name), "phase `{name}` not in PHASE_NAMES: {line}");
                sum += us.strip_suffix("us").unwrap().parse::<u64>().unwrap();
            }
            assert_eq!(sum, total, "phase drift on `{verb}`: {line}");
            verbs_seen.push(verb.to_string());
        }
        for verb in ["register", "append", "count", "report", "checkpoint", "metrics"] {
            assert!(verbs_seen.iter().any(|v| v == verb), "no profile for `{verb}`: {text}");
        }
        // Count appears 3×, two of them sent flagged.
        assert_eq!(verbs_seen.iter().filter(|v| *v == "count").count(), 3);
        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn windowed_metrics_appear_from_the_second_poll() {
        let _serving = serving();
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run(1).unwrap());
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Register {
                table: "w".into(),
                csv: "a,b\n1,x\n".into(),
                cfds: "w([a] -> [b])".into(),
            },
        );
        assert!(resp.is_ok(), "{resp:?}");
        // First windowed poll holds one snapshot: no window yet.
        let resp = roundtrip(&mut stream, &mut reader, &Request::Metrics { window_secs: 60 });
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.str("windowed"), None, "{resp:?}");
        // Traffic between polls...
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Request::Append { table: "w".into(), row: "1,y".into() },
        );
        assert!(resp.is_ok(), "{resp:?}");
        // ...shows up as a windowed delta on the second poll.
        let resp = roundtrip(&mut stream, &mut reader, &Request::Metrics { window_secs: 60 });
        assert!(resp.is_ok(), "{resp:?}");
        let windowed = resp.str("windowed").unwrap();
        assert!(windowed.starts_with("window:"), "{windowed}");
        assert!(
            windowed.contains("serve_requests_total{verb=\"append\"} +1"),
            "append delta missing: {windowed}"
        );
        let resp = roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        assert!(resp.is_ok());
        handle.join().unwrap();
    }
}
