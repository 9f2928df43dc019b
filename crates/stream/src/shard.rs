//! Sharded, WAL-durable session tier.
//!
//! One [`crate::session::DeltaSession`] behind one `RwLock` (PR 6's
//! serve tier) serialises every hot table behind every other. This
//! module splits the session by *relation*:
//!
//! * **Shards** — a consistent-hash ring over table names routes every
//!   request to one of `--shards` independent `DeltaSession`s, each
//!   behind its own lock, so edits to unrelated tables proceed in
//!   parallel. The ring (64 virtual points per shard) keeps the
//!   assignment stable as names come and go.
//! * **WAL** — with `--wal`, each shard appends the canonical protocol
//!   line of every successful mutation to its own fsync'd
//!   [`crate::wal::Wal`] *before* the ack leaves the server. Restart =
//!   restore `.sdq` checkpoints + replay the per-shard logs, so
//!   `kill -9` loses nothing acked.
//!
//! `count` and `report` read each shard's live session under its read
//! lock, so every answer is as of the last acked mutation.
//!
//! Constraint scope: CFDs are single-relation, so sharding by relation
//! never splits one. CINDs span two relations; they are accepted only
//! when both relations hash to the same shard (the error says so), and
//! dropped with a warning if a shard-count change separates them on
//! restore.
//!
//! Every lock acquisition recovers from poisoning
//! ([`std::sync::PoisonError::into_inner`]): a panicking request must
//! not brick the shard for every later connection. Input is validated
//! (and answers typed errors) before the session mutates, so a panic
//! that slips through validation leaves the recovered state consistent.

use crate::protocol::{Request, Response};
use crate::session::DeltaSession;
use crate::wal::{GroupWal, Wal};
use revival_constraints::parser::{check_relation_name, parse_cfds, parse_cinds};
use revival_relation::{csv, durable, Error, Result, Schema, Table};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Virtual points per shard on the hash ring — enough that table names
/// spread evenly even at small shard counts.
const VNODES: usize = 64;

/// Record one poison recovery: bump `lock_poison_recovered_total` so real
/// panics never pass invisibly, and log the first recovery (the panic itself
/// was already reported to the offending client by the containment layer;
/// repeating the notice for every later lock acquisition would be noise).
fn note_poison_recovery(kind: &str) {
    revival_obs::global().counter("lock_poison_recovered_total").inc();
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "semandaq serve: recovered a poisoned {kind} lock after a panicking request; \
             state is pre-panic consistent (further recoveries counted in \
             lock_poison_recovered_total)"
        );
    });
}

/// Take a read lock, recovering (and accounting) for poisoning.
pub(crate) fn read_recovered<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| {
        note_poison_recovery("read");
        poisoned.into_inner()
    })
}

/// Take a write lock, recovering (and accounting) for poisoning.
pub(crate) fn write_recovered<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poisoned| {
        note_poison_recovery("write");
        poisoned.into_inner()
    })
}

/// Take a mutex, recovering (and accounting) for poisoning.
pub(crate) fn lock_recovered<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| {
        note_poison_recovery("mutex");
        poisoned.into_inner()
    })
}

/// FNV-1a with a murmur-style avalanche finalizer. Raw FNV barely
/// diffuses the final bytes into the high bits, so short names that
/// differ only at the tail (`table_0`…`table_9`, `shard-0#0`…) land in
/// one narrow band and the ring's arcs come out grossly uneven — bad
/// enough that every table can route to a single shard. The finalizer
/// restores uniform point placement; both vnode points and routed
/// names go through it, so routing stays a pure function of the name.
fn ring_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Consistent-hash ring over table names: `route` is a pure function
/// of the name and the shard count, so the same table always lands on
/// the same shard within a run, and restores re-route deterministically
/// even if `--shards` changed across restarts.
#[derive(Debug, Clone)]
pub struct ShardRing {
    points: Vec<(u64, usize)>,
}

impl ShardRing {
    /// A ring of `shards` shards (at least one).
    pub fn new(shards: usize) -> ShardRing {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES);
        for si in 0..shards {
            for v in 0..VNODES {
                points.push((ring_hash(&format!("shard-{si}#{v}")), si));
            }
        }
        points.sort_unstable();
        ShardRing { points }
    }

    /// The shard index serving `table`: the first ring point at or
    /// after the name's hash, wrapping.
    pub fn route(&self, table: &str) -> usize {
        let h = ring_hash(table);
        let at = self.points.partition_point(|&(p, _)| p < h);
        self.points[if at == self.points.len() { 0 } else { at }].1
    }
}

/// Doorbell for one shard's background checkpointer thread: the write
/// path rings it (and acks immediately) when the WAL crosses
/// `--checkpoint-ops`; the thread sleeps on the condvar between rings.
#[derive(Debug, Default)]
struct CheckpointSignal {
    flags: Mutex<CheckpointFlags>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct CheckpointFlags {
    due: bool,
    stop: bool,
}

impl CheckpointSignal {
    /// Ask for a checkpoint soon; cheap and non-blocking.
    fn nudge(&self) {
        lock_recovered(&self.flags).due = true;
        self.cond.notify_all();
    }

    /// Ask the checkpointer thread to exit.
    fn stop(&self) {
        lock_recovered(&self.flags).stop = true;
        self.cond.notify_all();
    }
}

/// One shard: an independent session and its WAL.
pub struct Shard {
    session: RwLock<DeltaSession>,
    wal: OnceLock<GroupWal>,
    ckpt: CheckpointSignal,
    /// One checkpoint of this shard at a time: the background
    /// checkpointer and an explicit `checkpoint` verb must not
    /// interleave snapshot writes into the same directory.
    ckpt_serial: Mutex<()>,
}

impl Shard {
    fn new(jobs: usize) -> Shard {
        Shard {
            session: RwLock::new(DeltaSession::new(jobs)),
            wal: OnceLock::new(),
            ckpt: CheckpointSignal::default(),
            ckpt_serial: Mutex::new(()),
        }
    }

    /// The shard's session lock (tests and the shutdown path).
    pub fn session(&self) -> &RwLock<DeltaSession> {
        &self.session
    }
}

/// How to open a [`ShardedSession`] — mirrors the `semandaq serve`
/// flags.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Worker shards for the `discover` verb and for the batch side of
    /// each session's `repair` — the side a relation with no trusted
    /// base needs ([`DeltaSession::repair`]) (`--jobs`).
    pub jobs: usize,
    /// Session shard count (`--shards`); clamped to at least 1.
    pub shards: usize,
    /// Write-ahead-log every mutation before acking (`--wal`;
    /// requires `state`).
    pub wal: bool,
    /// Auto-checkpoint a shard once its WAL holds this many records
    /// (`--checkpoint-ops`; 0 disables, checkpoints then happen only
    /// on the `checkpoint` verb and at clean shutdown). Auto
    /// checkpoints run on a per-shard background thread; the request
    /// that crossed the threshold acks immediately.
    pub checkpoint_ops: u64,
    /// Group-commit gather window in microseconds
    /// (`--wal-group-max-wait`): a freshly elected commit leader waits
    /// this long for more writers to stage into its batch before
    /// paying the batch's one `fdatasync`. Bounds the extra latency a
    /// lone writer can see; 0 (the default) syncs immediately, and
    /// batching then comes only from writers that staged while a
    /// previous sync was in flight.
    pub wal_group_max_wait_us: u64,
    /// State directory (`--state`): restored on open, checkpointed
    /// into `shard-<i>/` subdirectories plus `wal-<i>.log` files.
    pub state: Option<PathBuf>,
    /// Log any request slower than this many microseconds, with its
    /// per-phase breakdown (`--slow-log`; `None` disables).
    pub slow_log_us: Option<u64>,
    /// Write Chrome-trace-format events here at shutdown
    /// (`--trace-out`; enables trace collection for the run).
    pub trace_out: Option<PathBuf>,
}

/// What [`ShardedSession::open`] found on disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Relations restored from `.sdq` checkpoint snapshots.
    pub relations: usize,
    /// WAL records replayed on top of the checkpoints.
    pub replayed: usize,
    /// WAL records that failed to re-execute (should be zero: only
    /// acked — successful — mutations are ever logged).
    pub replay_errors: usize,
    /// Bytes of torn (never-acked) WAL tail discarded.
    pub torn_bytes: usize,
    /// CINDs dropped because a shard-count change split their two
    /// relations across shards.
    pub dropped_cinds: usize,
}

/// The sharded serve tier: routing, per-shard locking, WAL,
/// checkpoints. [`crate::server::Server`] is this plus TCP.
///
/// A thin handle over the shared tier state: background checkpointer
/// threads hold their own `Arc` to the same tier, and dropping the
/// handle stops and joins them *without* checkpointing — a plain drop
/// stays a faithful crash simulation for the recovery tests.
pub struct ShardedSession {
    tier: Arc<Tier>,
    checkpointers: Vec<std::thread::JoinHandle<()>>,
}

/// The tier state proper, shared between request threads and the
/// background checkpointers.
struct Tier {
    shards: Vec<Shard>,
    ring: ShardRing,
    state: Option<PathBuf>,
    checkpoint_ops: u64,
    /// Per-shard checkpoints taken by *this* tier (the registry's
    /// `serve_checkpoints_total` is process-global and would mix tiers
    /// when tests or benches run several servers in one process).
    checkpoints_taken: AtomicU64,
}

impl Drop for ShardedSession {
    fn drop(&mut self) {
        for shard in &self.tier.shards {
            shard.ckpt.stop();
        }
        for handle in self.checkpointers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One shard's background checkpointer: sleep until nudged (or told to
/// stop), then checkpoint the shard off the request path. Errors are
/// counted and logged, never surfaced to a client — the triggering
/// request was acked long ago, and the next nudge retries.
fn checkpointer_loop(tier: &Tier, i: usize) {
    loop {
        {
            let signal = &tier.shards[i].ckpt;
            let mut flags = lock_recovered(&signal.flags);
            while !flags.due && !flags.stop {
                flags = signal.cond.wait(flags).unwrap_or_else(|p| p.into_inner());
            }
            if flags.stop {
                return;
            }
            flags.due = false;
        }
        if let Err(e) = tier.checkpoint_shard(i) {
            revival_obs::global().counter("serve_checkpoint_errors_total").inc();
            eprintln!("semandaq serve: background checkpoint of shard {i} failed: {e}");
        }
    }
}

impl ShardedSession {
    /// Open a session tier: restore `.sdq` checkpoints from the state
    /// directory (both the sharded `shard-<i>/` layout and the legacy
    /// flat layout of PR 6), replay any WAL tails on top, take a boot
    /// checkpoint (which truncates the logs), and open the per-shard
    /// WALs for appending.
    pub fn open(opts: &ServeOptions) -> Result<(ShardedSession, RestoreSummary)> {
        if opts.wal && opts.state.is_none() {
            return Err(Error::Io("the WAL needs a state directory to live in".into()));
        }
        let n = opts.shards.max(1);
        let this = Tier {
            shards: (0..n).map(|_| Shard::new(opts.jobs)).collect(),
            ring: ShardRing::new(n),
            state: opts.state.clone(),
            checkpoint_ops: opts.checkpoint_ops,
            checkpoints_taken: AtomicU64::new(0),
        };
        let mut summary = RestoreSummary::default();
        let Some(dir) = this.state.clone() else {
            return Ok((
                ShardedSession { tier: Arc::new(this), checkpointers: Vec::new() },
                summary,
            ));
        };
        std::fs::create_dir_all(&dir)?;

        // Snapshot sources: shard subdirectories, else the flat layout.
        let mut shard_dirs: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("shard-"))
            })
            .collect();
        shard_dirs.sort();
        let legacy = shard_dirs.is_empty();
        let sources = if legacy { vec![dir.clone()] } else { shard_dirs };

        // A checkpoint file a relation (or an older build) may lack.
        let optional = |path: PathBuf| match std::fs::read_to_string(path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Error::from(e)),
        };
        let mut schemas: Vec<Schema> = Vec::new();
        let mut cind_texts: Vec<String> = Vec::new();
        for source in &sources {
            let mut paths: Vec<PathBuf> = std::fs::read_dir(source)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "sdq"))
                .collect();
            paths.sort();
            for path in &paths {
                let table = Table::open_snapshot(path)?;
                let suite = optional(path.with_extension("cfds"))?.unwrap_or_default();
                let cfds = parse_cfds(&suite, table.schema())?;
                schemas.push(table.schema().clone());
                let name = table.schema().name().to_string();
                let mut session = write_recovered(&this.shards[this.ring.route(&name)].session);
                session.register(table, cfds)?;
                // No `.base` (an older build's directory): every row is base.
                if let Some(text) = optional(path.with_extension("base"))? {
                    session.restore_baseline(&name, &text)?;
                }
                summary.relations += 1;
            }
            cind_texts.extend(optional(source.join("cinds.txt"))?);
        }
        for text in &cind_texts {
            for cind in parse_cinds(text, &schemas)? {
                let si = this.ring.route(&cind.from_relation);
                if this.ring.route(&cind.to_relation) != si {
                    summary.dropped_cinds += 1;
                    continue;
                }
                write_recovered(&this.shards[si].session).add_cinds(vec![cind])?;
            }
        }

        // Replay WAL tails. Each record routes by the *current* ring
        // (shard counts may differ across restarts); per-table order is
        // preserved because within one run a table logs to one file.
        let mut wal_paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .collect();
        wal_paths.sort();
        for path in &wal_paths {
            let replay = Wal::replay(path)?;
            summary.torn_bytes += replay.torn_bytes;
            for line in &replay.records {
                let ok = match Request::parse(line) {
                    Ok(req) => self::mutation_table(&req).is_ok() && this.mutate(&req).is_ok(),
                    Err(_) => false,
                };
                if ok {
                    summary.replayed += 1;
                } else {
                    summary.replay_errors += 1;
                }
            }
        }

        if opts.wal {
            let window = Duration::from_micros(opts.wal_group_max_wait_us);
            for (i, shard) in this.shards.iter().enumerate() {
                let wal = GroupWal::open(&dir.join(format!("wal-{i}.log")), window)?;
                shard.wal.set(wal).expect("each shard's wal is opened exactly once");
            }
        }
        // Boot checkpoint: the snapshots now cover everything replayed
        // and the logs truncate.
        this.checkpoint()?;
        if !opts.wal {
            // Replayed into the checkpoint above; a later restore must
            // not replay these again.
            for path in &wal_paths {
                std::fs::remove_file(path)?;
            }
        }
        if legacy && summary.relations > 0 {
            // The flat PR 6 files just migrated into shard-<i>/; left
            // in place they would be restored *twice* next boot.
            for entry in std::fs::read_dir(&dir)? {
                let path = entry?.path();
                let ext = path.extension().and_then(|x| x.to_str());
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if matches!(ext, Some("sdq") | Some("cfds") | Some("base")) || name == "cinds.txt" {
                    std::fs::remove_file(&path)?;
                }
            }
        }
        durable::sync_dir(&dir)?;
        let tier = Arc::new(this);
        let mut checkpointers = Vec::new();
        if opts.wal && opts.checkpoint_ops > 0 {
            for i in 0..n {
                let tier = Arc::clone(&tier);
                let handle = std::thread::Builder::new()
                    .name(format!("semandaq-ckpt-{i}"))
                    .spawn(move || checkpointer_loop(&tier, i))
                    .map_err(|e| Error::Io(format!("spawn checkpointer {i}: {e}")))?;
                checkpointers.push(handle);
            }
        }
        Ok((ShardedSession { tier, checkpointers }, summary))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.tier.shards.len()
    }

    /// Per-shard checkpoints this tier has taken (boot checkpoint
    /// included) — feeds the serve shutdown summary.
    pub fn checkpoints_taken(&self) -> u64 {
        self.tier.checkpoints_taken.load(Ordering::Relaxed)
    }

    /// `(group syncs, records they covered)` over this tier's WALs —
    /// feeds the serve shutdown summary. Per tier, not read off the
    /// process-global registry, so servers sharing a process don't see
    /// each other's commits.
    pub fn wal_group_tallies(&self) -> (u64, u64) {
        let wals = self.tier.shards.iter().filter_map(|s| s.wal.get());
        wals.fold((0, 0), |(c, r), w| (c + w.group_commits(), r + w.group_records()))
    }

    /// A shard by index (tests and the shutdown path).
    pub fn shard(&self, i: usize) -> &Shard {
        &self.tier.shards[i]
    }

    /// The shard index serving `table`.
    pub fn route(&self, table: &str) -> usize {
        self.tier.ring.route(table)
    }

    /// Execute one request (everything except `shutdown`, which is the
    /// server's to answer). The single entry point shared by the TCP
    /// workers, the WAL replayer, and the tests.
    pub fn handle(&self, request: &Request) -> Response {
        self.tier.handle(request)
    }

    /// Checkpoint every shard now, on the calling thread.
    pub fn checkpoint(&self) -> Result<usize> {
        self.tier.checkpoint()
    }
}

impl Tier {
    /// See [`ShardedSession::handle`].
    fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Count => self.count(),
            Request::Report { max } => self.report(*max),
            Request::Checkpoint => revival_obs::time_phase("apply", || match self.checkpoint() {
                Ok(saved) => Response::ok()
                    .with_int("relations", saved as i64)
                    .with_int("shards", self.shards.len() as i64),
                Err(e) => Response::err(e),
            }),
            Request::Discover { register: false, .. } => self.discover_unlocked(request),
            Request::Shutdown => Response::err("shutdown is handled by the server"),
            _ => self.mutate(request),
        }
    }

    /// Route, apply, stage, group-commit, ack — the write path. The
    /// WAL *stage* happens under the shard's session write lock (log
    /// order = apply order), but the fsync does not: the lock drops
    /// first, then [`GroupWal::commit`] blocks until one group sync
    /// covers the staged record — so reads and further writes to the
    /// shard proceed while a batch syncs, and one `fdatasync` acks
    /// every writer it covered. A stage or commit failure turns the
    /// ack into an error, because "applied but not durable" must not
    /// look like success to a client counting on `--wal`.
    fn mutate(&self, request: &Request) -> Response {
        let table = match revival_obs::time_phase("route", || mutation_table(request)) {
            Ok(t) => t,
            Err(e) => return Response::err(e),
        };
        let si = self.ring.route(table);
        let shard = &self.shards[si];
        let (response, staged) = {
            let mut session =
                revival_obs::time_phase("lock_wait", || write_recovered(&shard.session));
            let response = revival_obs::time_phase("apply", || self.apply(&mut session, request));
            let mut staged = None;
            if response.is_ok() {
                if let Some(wal) = shard.wal.get() {
                    match revival_obs::time_phase("wal_append", || {
                        wal.stage(request.to_line().trim_end())
                    }) {
                        Ok(csn) => staged = Some(csn),
                        Err(e) => return Response::err(format!("applied but not durable: {e}")),
                    }
                }
            }
            (response, staged)
        };
        if let Some(csn) = staged {
            let wal = shard.wal.get().expect("record was staged into this wal");
            if let Err(e) = revival_obs::time_phase("commit_wait", || wal.commit(csn)) {
                return Response::err(format!("applied but not durable: {e}"));
            }
            // Durable and about to ack; a crossed checkpoint threshold
            // only rings the background checkpointer's doorbell.
            if self.checkpoint_ops > 0 && wal.records() >= self.checkpoint_ops {
                shard.ckpt.nudge();
            }
        }
        response
    }

    /// Apply one mutating request to one shard's session — ported
    /// verb-by-verb from the PR 6 single-session server.
    fn apply(&self, session: &mut DeltaSession, request: &Request) -> Response {
        match request {
            Request::Register { table, csv: csv_text, cfds } => {
                // No input is known to panic a request, so the panic
                // containment tests plant one here, under the write lock.
                #[cfg(test)]
                assert!(table != PANIC_TABLE, "deliberate panic registering `{table}`");
                // The name becomes the checkpoint's file names: `../x`
                // would be written outside the shard directory and never
                // restored.
                if let Err(e) = check_relation_name(table) {
                    return Response::err(e);
                }
                let parsed = match csv::read_table_infer(table, csv_text) {
                    Ok(t) => t,
                    Err(e) => return Response::err(e),
                };
                let suite = match parse_cfds(cfds, parsed.schema()) {
                    Ok(s) => s,
                    Err(e) => return Response::err(e),
                };
                let rows = parsed.len();
                let n_cfds = suite.len();
                match session.register(parsed, suite) {
                    Ok(()) => match session.violation_count() {
                        Ok(v) => Response::ok()
                            .with_int("rows", rows as i64)
                            .with_int("cfds", n_cfds as i64)
                            .with_int("violations", v as i64),
                        Err(e) => Response::err(e),
                    },
                    Err(e) => Response::err(e),
                }
            }
            Request::Cinds { text } => {
                let schemas: Vec<Schema> = {
                    let catalog = session.catalog();
                    let mut names: Vec<String> =
                        catalog.relation_names().map(str::to_string).collect();
                    names.sort();
                    names
                        .iter()
                        .filter_map(|n| catalog.get(n).ok())
                        .map(|t| t.schema().clone())
                        .collect()
                };
                let cinds = match parse_cinds(text, &schemas) {
                    Ok(c) => c,
                    Err(e) if self.shards.len() > 1 => {
                        return Response::err(format!(
                            "{e} (with --shards, a cind's two relations must hash to the \
                             same shard; these schemas live on the routed shard: {:?})",
                            schemas.iter().map(|s| s.name()).collect::<Vec<_>>()
                        ))
                    }
                    Err(e) => return Response::err(e),
                };
                let n = cinds.len();
                match session.add_cinds(cinds) {
                    Ok(()) => Response::ok().with_int("cinds", n as i64),
                    Err(e) => Response::err(e),
                }
            }
            Request::Append { table, row } => {
                let parsed =
                    match session.table(table).and_then(|t| csv::parse_line(t.schema(), row, 0)) {
                        Ok(r) => r,
                        Err(e) => return Response::err(e),
                    };
                match session.insert(table, parsed) {
                    Ok(id) => match session.violation_count() {
                        Ok(v) => Response::ok()
                            .with_int("tuple", id.0 as i64)
                            .with_int("violations", v as i64),
                        Err(e) => Response::err(e),
                    },
                    Err(e) => Response::err(e),
                }
            }
            Request::Delete { table, tuple } => {
                match session.delete(table, revival_relation::TupleId(*tuple)) {
                    Ok(_) => match session.violation_count() {
                        Ok(v) => Response::ok().with_int("violations", v as i64),
                        Err(e) => Response::err(e),
                    },
                    Err(e) => Response::err(e),
                }
            }
            Request::Update { table, tuple, attr, value } => {
                let parsed = match session.table(table).and_then(|t| {
                    let attr_id = t.schema().attr_id(attr)?;
                    Ok((attr_id, t.schema().attribute(attr_id).ty.parse(value)?))
                }) {
                    Ok(p) => p,
                    Err(e) => return Response::err(e),
                };
                match session.update(table, revival_relation::TupleId(*tuple), parsed.0, parsed.1) {
                    Ok(()) => match session.violation_count() {
                        Ok(v) => Response::ok().with_int("violations", v as i64),
                        Err(e) => Response::err(e),
                    },
                    Err(e) => Response::err(e),
                }
            }
            Request::Repair { table } => match session.repair(table) {
                Ok(stats) => match session.violation_count() {
                    Ok(v) => Response::ok()
                        .with_int("tuples_edited", stats.tuples_edited as i64)
                        .with_int("cells_changed", stats.cells_changed as i64)
                        .with_int("violations", v as i64),
                    Err(e) => Response::err(e),
                },
                Err(e) => Response::err(e),
            },
            Request::Discover { table, register: true, .. } => {
                // Hold the write lock across the mine so the vetted
                // suite installs against exactly the state it profiled;
                // `set_cfds` swaps only the constraints — the table,
                // tuple ids, repair baseline, and CINDs stay.
                let snapshot = match session.table(table) {
                    Ok(t) => t.clone(),
                    Err(e) => return Response::err(e),
                };
                let discovered = match mine(request, &snapshot, session.jobs()) {
                    Ok(d) => d,
                    Err(e) => return Response::err(e),
                };
                if let Err(e) = session.set_cfds(table, discovered.vetted.clone()) {
                    return Response::err(e);
                }
                match session.violation_count() {
                    Ok(v) => discover_response(&discovered, snapshot.schema())
                        .with_int("violations", v as i64),
                    Err(e) => Response::err(e),
                }
            }
            _ => Response::err("not a mutating request"),
        }
    }

    /// Read-only discovery mines on a snapshot *outside* any lock, so
    /// a long mine never blocks the shard's writers.
    fn discover_unlocked(&self, request: &Request) -> Response {
        let Request::Discover { table, .. } = request else {
            return Response::err("not a discover request");
        };
        let si = revival_obs::time_phase("route", || self.ring.route(table));
        let (snapshot, jobs) = {
            let session =
                revival_obs::time_phase("lock_wait", || read_recovered(&self.shards[si].session));
            match session.table(table) {
                Ok(t) => (t.clone(), session.jobs()),
                Err(e) => return Response::err(e),
            }
        };
        revival_obs::time_phase("apply", || match mine(request, &snapshot, jobs) {
            Ok(d) => discover_response(&d, snapshot.schema()),
            Err(e) => Response::err(e),
        })
    }

    /// `count`: each shard's maintained counter under its read lock in
    /// turn — cheap, but not a consistent cut across shards (a write may
    /// land between visits).
    fn count(&self) -> Response {
        let mut total = 0i64;
        for shard in &self.shards {
            let session = revival_obs::time_phase("lock_wait", || read_recovered(&shard.session));
            match revival_obs::time_phase("apply", || session.violation_count()) {
                Ok(v) => total += v as i64,
                Err(e) => return Response::err(e),
            }
        }
        Response::ok().with_int("violations", total)
    }

    /// `report`. With several shards the text concatenates one described
    /// block per non-clean shard, `max` lines spread across them in shard
    /// order.
    fn report(&self, max: usize) -> Response {
        let mut total = 0usize;
        let mut text = String::new();
        let mut remaining = max;
        for shard in &self.shards {
            let session = revival_obs::time_phase("lock_wait", || read_recovered(&shard.session));
            let described = revival_obs::time_phase("apply", || {
                session.report().map(|r| (r.len(), session.describe(&r, remaining)))
            });
            let (len, block) = match described {
                Ok(pair) => pair,
                Err(e) => return Response::err(e),
            };
            total += len;
            if self.shards.len() == 1 || len > 0 {
                text.push_str(&block);
                remaining = remaining.saturating_sub(len);
            }
        }
        if text.is_empty() {
            text = "0 violation(s); 0 tuple(s) involved\n".into();
        }
        Response::ok().with_int("violations", total as i64).with_str("text", text)
    }

    /// Checkpoint every shard: durably snapshot to `state/shard-<i>/`
    /// and truncate its WAL. Returns relations written (0 without a
    /// state directory, where there is nothing to write).
    fn checkpoint(&self) -> Result<usize> {
        let mut saved = 0;
        for i in 0..self.shards.len() {
            saved += self.checkpoint_shard(i)?;
        }
        if let Some(dir) = &self.state {
            durable::sync_dir(dir)?;
        }
        Ok(saved)
    }

    /// Checkpoint one shard. Order matters for crash safety: snapshot
    /// durably *first*, truncate the log second — a crash in between
    /// merely replays ops onto a state that already contains them
    /// (replay is idempotent for register, and the snapshot+log pair
    /// is re-checkpointed at the next boot before new ops land).
    fn checkpoint_shard(&self, i: usize) -> Result<usize> {
        let Some(dir) = &self.state else { return Ok(0) };
        let shard = &self.shards[i];
        let _serial = lock_recovered(&shard.ckpt_serial);
        let span = revival_obs::Span::traced(
            "serve.checkpoint",
            revival_obs::global().histogram("serve_checkpoint_us"),
        );
        // Read lock: writers to *this shard* pause, other shards don't.
        let session = read_recovered(&shard.session);
        let saved = session.save_state(&dir.join(format!("shard-{i}")))?;
        if let Some(wal) = shard.wal.get() {
            // Waits out any in-flight group sync, then drops even
            // staged-but-unsynced frames: staging happens under the
            // session write lock, so everything staged was applied
            // before this read lock was granted and is in the
            // snapshot just written.
            wal.truncate_covered()?;
        }
        revival_obs::global().counter("serve_checkpoints_total").inc();
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        drop(span);
        Ok(saved)
    }
}

/// Every phase name this module records through the thread-local
/// phase accumulator, pipeline order. The serve front end's phase
/// histogram list is exactly `parse` + these + `ack`; tests on both
/// sides keep the lists from drifting, because a name recorded here
/// but missing there would silently drop out of `serve_phase_us`
/// while still being subtracted from the `ack` residual.
pub const SHARD_PHASES: [&str; 5] = ["route", "lock_wait", "apply", "wal_append", "commit_wait"];

/// The table name a mutating request routes by. CINDs route by their
/// first relation (lexed ahead of the full parse, which needs the
/// routed shard's schemas).
fn mutation_table(request: &Request) -> std::result::Result<&str, String> {
    match request {
        Request::Register { table, .. }
        | Request::Append { table, .. }
        | Request::Delete { table, .. }
        | Request::Update { table, .. }
        | Request::Repair { table, .. }
        | Request::Discover { table, .. } => Ok(table),
        Request::Cinds { text } => text
            .lines()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| l.split('(').next())
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .ok_or_else(|| "cannot route cinds: no `relation(...)` head found".to_string()),
        _ => Err("not a mutating request".to_string()),
    }
}

fn mine(request: &Request, snapshot: &Table, jobs: usize) -> Result<revival_discovery::Discovered> {
    use revival_discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine};
    let Request::Discover { min_support, max_lhs, confidence_pct, .. } = request else {
        return Err(Error::Io("not a discover request".into()));
    };
    let options = DiscoverOptions {
        min_support: *min_support,
        max_lhs: *max_lhs,
        min_confidence: f64::from(*confidence_pct) / 100.0,
        jobs,
        ..DiscoverOptions::default()
    };
    revival_discovery::ParallelDiscovery.run(&DiscoverJob::on_table(snapshot, options))
}

fn discover_response(d: &revival_discovery::Discovered, schema: &Schema) -> Response {
    Response::ok()
        .with_int("rules", d.rules.len() as i64)
        .with_int("vetted", d.vetted.len() as i64)
        .with_str("text", revival_constraints::parser::suite_to_text(&d.vetted, schema))
        .with_int("levels", d.stats.levels as i64)
        .with_int("candidates_pruned", d.stats.candidates_pruned as i64)
        .with_int("lattice_truncated", i64::from(d.stats.lattice_truncated))
        .with_str(
            "satisfiable",
            match d.satisfiable {
                revival_constraints::analysis::Outcome::Yes => "yes",
                revival_constraints::analysis::Outcome::No => "no",
                revival_constraints::analysis::Outcome::ResourceLimit => "unknown",
            },
        )
}

/// Registering this table panics (test builds only).
#[cfg(test)]
pub(crate) const PANIC_TABLE: &str = "\u{0}panic";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("revival_shard_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn register(table: &str, csv: &str, cfds: &str) -> Request {
        Request::Register { table: table.into(), csv: csv.into(), cfds: cfds.into() }
    }

    fn append(table: &str, row: &str) -> Request {
        Request::Append { table: table.into(), row: row.into() }
    }

    #[test]
    fn ring_routes_stably_and_spreads() {
        let ring = ShardRing::new(4);
        let mut seen = [false; 4];
        for i in 0..64 {
            let name = format!("table_{i}");
            let si = ring.route(&name);
            assert_eq!(si, ring.route(&name), "routing must be deterministic");
            assert!(si < 4);
            seen[si] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 names should touch all 4 shards");
        assert_eq!(ShardRing::new(1).route("anything"), 0);
    }

    #[test]
    fn sharded_ops_aggregate_across_shards() {
        let (tier, _) =
            ShardedSession::open(&ServeOptions { shards: 4, ..Default::default() }).unwrap();
        for i in 0..4 {
            let resp = tier.handle(&register(
                &format!("t{i}"),
                "a,b\n1,x\n",
                &format!("t{i}([a] -> [b])"),
            ));
            assert!(resp.is_ok(), "{resp:?}");
            // A conflicting second row: one violated group per table.
            let resp = tier.handle(&append(&format!("t{i}"), "1,y"));
            assert!(resp.is_ok(), "{resp:?}");
        }
        let resp = tier.handle(&Request::Count);
        assert_eq!(resp.int("violations"), Some(4), "{resp:?}");
        let resp = tier.handle(&Request::Report { max: 100 });
        assert_eq!(resp.int("violations"), Some(4), "{resp:?}");
        assert!(resp.str("text").unwrap().contains("disagree on b"), "{resp:?}");
    }

    /// Compat: a read flagged `"replica":true` (accepted for one
    /// release, ignored) answers the live session — no lag, no
    /// `stale_ops`.
    #[test]
    fn replica_flag_reads_the_live_session() {
        for shards in [1, 4] {
            let (tier, _) =
                ShardedSession::open(&ServeOptions { shards, ..Default::default() }).unwrap();
            assert!(tier.handle(&register("t", "a,b\n1,x\n", "t([a] -> [b])")).is_ok());
            assert!(tier.handle(&append("t", "1,y")).is_ok());
            let flagged = |line: &str| tier.handle(&Request::parse(line).unwrap());
            let count = flagged(r#"{"cmd":"count","replica":true}"#);
            let report = flagged(r#"{"cmd":"report","replica":true}"#);
            for resp in [&count, &report] {
                assert_eq!(resp.int("violations"), Some(1), "shards {shards}: {resp:?}");
                assert_eq!(resp.int("stale_ops"), None, "shards {shards}: {resp:?}");
            }
            assert!(report.str("text").unwrap().contains("disagree on b"), "{report:?}");
        }
    }

    #[test]
    fn wal_replays_acked_ops_after_simulated_crash() {
        let dir = tmp_dir("crash");
        let opts =
            ServeOptions { shards: 2, wal: true, state: Some(dir.clone()), ..Default::default() };
        {
            let (tier, summary) = ShardedSession::open(&opts).unwrap();
            assert_eq!(summary, RestoreSummary::default());
            assert!(tier.handle(&register("t", "a,b\n1,x\n", "t([a] -> [b])")).is_ok());
            assert!(tier.handle(&append("t", "1,y")).is_ok());
            assert!(tier.handle(&append("t", "2,z")).is_ok());
            // Dropped without checkpoint: the WAL alone must carry it.
        }
        let (tier, summary) = ShardedSession::open(&opts).unwrap();
        assert_eq!(summary.replayed, 3, "{summary:?}");
        assert_eq!(summary.replay_errors, 0, "{summary:?}");
        let resp = tier.handle(&Request::Count);
        assert_eq!(resp.int("violations"), Some(1), "{resp:?}");
        // The boot checkpoint truncated the logs: a second restore
        // leans on the snapshots alone.
        let (tier, summary) = ShardedSession::open(&opts).unwrap();
        assert_eq!(summary.replayed, 0, "{summary:?}");
        assert!(summary.relations > 0, "{summary:?}");
        let resp = tier.handle(&Request::Count);
        assert_eq!(resp.int("violations"), Some(1), "{resp:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A state directory checkpointed in the `SDQSNAP1` format does not
    /// open: its snapshot is a typed error at offset 0, and the file is
    /// left as it was — never a relation restored empty and checkpointed
    /// over it.
    #[test]
    fn v1_checkpoint_is_a_typed_error_not_an_empty_relation() {
        let dir = tmp_dir("v1");
        let opts = ServeOptions { shards: 1, state: Some(dir.clone()), ..Default::default() };
        {
            let (tier, _) = ShardedSession::open(&opts).unwrap();
            assert!(tier.handle(&register("t", "a,b\n1,x\n", "t([a] -> [b])")).is_ok());
            assert!(tier.handle(&Request::Checkpoint).is_ok());
        }
        let sdq = dir.join("shard-0").join("t.sdq");
        let mut bytes = std::fs::read(&sdq).unwrap();
        bytes[..8].copy_from_slice(b"SDQSNAP1");
        std::fs::write(&sdq, &bytes).unwrap();
        match ShardedSession::open(&opts) {
            Err(Error::Snapshot { offset: 0, message }) => {
                assert!(message.contains("SDQSNAP1"), "{message}")
            }
            Err(other) => panic!("expected a typed v1 refusal, got {other:?}"),
            Ok((_, summary)) => panic!("a v1 checkpoint opened: {summary:?}"),
        }
        assert_eq!(std::fs::read(&sdq).unwrap(), bytes, "the v1 file must be left as it was");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_can_change_across_restarts() {
        let dir = tmp_dir("reshard");
        let mk = |shards: usize| ServeOptions {
            shards,
            wal: true,
            state: Some(dir.clone()),
            ..Default::default()
        };
        {
            let (tier, _) = ShardedSession::open(&mk(1)).unwrap();
            for i in 0..4 {
                assert!(tier
                    .handle(&register(
                        &format!("t{i}"),
                        "a,b\n1,x\n1,y\n",
                        &format!("t{i}([a] -> [b])")
                    ))
                    .is_ok());
            }
        }
        let (tier, summary) = ShardedSession::open(&mk(4)).unwrap();
        assert_eq!(summary.replayed, 4, "{summary:?}");
        assert_eq!(tier.handle(&Request::Count).int("violations"), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_flat_state_dir_migrates() {
        let dir = tmp_dir("legacy");
        // A PR 6 layout: session state saved flat into the directory.
        {
            let mut session = DeltaSession::new(1);
            let table = csv::read_table_infer("t", "a,b\n1,x\n1,y\n").unwrap();
            let cfds = parse_cfds("t([a] -> [b])", table.schema()).unwrap();
            session.register(table, cfds).unwrap();
            session.save_state(&dir).unwrap();
        }
        let opts =
            ServeOptions { shards: 2, wal: true, state: Some(dir.clone()), ..Default::default() };
        let (tier, summary) = ShardedSession::open(&opts).unwrap();
        assert_eq!(summary.relations, 1, "{summary:?}");
        assert_eq!(tier.handle(&Request::Count).int("violations"), Some(1));
        drop(tier);
        // The flat files migrated into shard-<i>/ and must not restore
        // twice.
        assert!(!dir.join("t.sdq").exists());
        let (tier, summary) = ShardedSession::open(&opts).unwrap();
        assert_eq!(summary.relations, 1, "{summary:?}");
        assert_eq!(tier.handle(&Request::Count).int("violations"), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cross_shard_cind_is_rejected_with_hint() {
        let (tier, _) =
            ShardedSession::open(&ServeOptions { shards: 4, ..Default::default() }).unwrap();
        // Find two tables routed to *different* shards.
        let names: Vec<String> = (0..16).map(|i| format!("rel{i}")).collect();
        let a = &names[0];
        let b = names.iter().find(|n| tier.route(n) != tier.route(a)).unwrap();
        assert!(tier.handle(&register(a, "x,y\n1,2\n", "")).is_ok());
        assert!(tier.handle(&register(b, "x,y\n1,2\n", "")).is_ok());
        let resp = tier.handle(&Request::Cinds { text: format!("{a}(x) <= {b}(x)") });
        assert!(!resp.is_ok(), "{resp:?}");
        assert!(resp.str("error").unwrap().contains("same shard"), "{resp:?}");
        // Same-shard CINDs still attach (route a to itself).
        let resp = tier.handle(&Request::Cinds { text: format!("{a}(x) <= {a}(y)") });
        assert!(resp.is_ok(), "{resp:?}");
    }

    #[test]
    fn poisoned_shard_lock_recovers() {
        let (tier, _) = ShardedSession::open(&ServeOptions::default()).unwrap();
        assert!(tier.handle(&register("t", "a,b\n1,x\n", "t([a] -> [b])")).is_ok());
        let tier = std::sync::Arc::new(tier);
        let poisoner = std::sync::Arc::clone(&tier);
        // Panic while holding the write lock — the poisoned-lock case
        // the recovery helpers exist for.
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shard(0).session().write().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(tier.shard(0).session().is_poisoned());
        let resp = tier.handle(&Request::Count);
        assert!(resp.is_ok(), "poisoned lock must recover: {resp:?}");
        let resp = tier.handle(&append("t", "1,y"));
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.int("violations"), Some(1));
    }
}
