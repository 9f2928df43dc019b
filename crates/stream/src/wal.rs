//! Per-shard write-ahead log of protocol operations.
//!
//! `semandaq serve --wal` follows the classic log + checkpoint recipe:
//! `.sdq` snapshots (one [`crate::session::DeltaSession::save_state`]
//! directory per shard) are the checkpoints, and between checkpoints
//! every acknowledged mutating request is appended here *before* the
//! ack goes out. A `kill -9` therefore loses nothing acked: restart
//! restores the snapshots and re-executes the tail of logged requests
//! (they are deterministic — the same line replayed over the same
//! state produces the same session).
//!
//! ## Record format
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][payload bytes]
//! ```
//!
//! The payload is one canonical protocol line
//! ([`crate::protocol::Request::to_line`], no trailing newline).
//! Appends are `fdatasync`'d before returning, so an `Ok` from
//! [`Wal::append`] *is* the durability point. A crash mid-append
//! leaves a torn final record; [`Wal::replay`] detects it (short
//! header, short payload, or checksum mismatch), keeps the intact
//! prefix, and reports the dropped bytes — a torn record was by
//! construction never acked, so dropping it is correct, not lossy.
//!
//! [`Wal::truncate`] resets the log to empty at each checkpoint, after
//! the snapshots are durably on disk.
//!
//! ## Group commit
//!
//! [`GroupWal`] layers leader/follower group commit on top: writers
//! *stage* records (under the shard's session write lock, so log order
//! = apply order) and then *commit* after releasing it. The first
//! committer to find no sync in flight becomes the leader, writes every
//! staged frame in one `write_all`, and pays one `fdatasync` for the
//! whole batch; followers sleep on a condvar until the commit sequence
//! number of their record is covered. An `Ok` from [`GroupWal::commit`]
//! therefore still means *durable* — the sync covering the record
//! completed before anyone acked it. A crash mid-batch leaves exactly
//! the shapes replay already tolerates: an intact prefix of frames
//! (none of the batch was acked, and replaying applied-but-unacked ops
//! is what the WAL does anyway) plus at most one torn frame at the
//! tail.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::shard::lock_recovered;
use revival_relation::{durable, Error, Result};

/// `[len: u32][checksum: u64]` prefix ahead of every payload.
const HEADER: usize = 4 + 8;

/// FNV-1a a byte at a time. It stays bytewise (the `.sdq` snapshot's
/// checksum went to word lanes): a frame whose sum no longer matches
/// reads as a torn tail, so a new hash would silently truncate every
/// log an older build wrote.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Io(format!("{context} {}: {e}", path.display()))
}

/// Append one framed record (`[len][fnv1a][payload]`) to `buf`.
fn push_frame(buf: &mut Vec<u8>, line: &str) {
    let payload = line.as_bytes();
    buf.reserve(HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// `Condvar::wait` recovering from mutex poisoning, like the lock
/// helpers in [`crate::shard`].
fn wait_recovered<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(|p| p.into_inner())
}

/// `Condvar::wait_timeout` recovering from mutex poisoning.
fn wait_timeout_recovered<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cond.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

/// An append-only, fsync'd operation log. One instance per shard; the
/// shard's session lock serialises appends, so `Wal` itself needs no
/// interior locking.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    records: u64,
    /// Cached handle for the `wal_fsync_us` histogram: appends are the
    /// hottest durable path, so the registry map is touched once at open.
    fsync_hist: Arc<revival_obs::Histogram>,
    appends: Arc<revival_obs::Counter>,
}

/// Result of reading a log back: the intact records in append order,
/// plus how many trailing bytes were discarded as a torn final write.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Payload lines of every intact record, oldest first.
    pub records: Vec<String>,
    /// Bytes dropped after the last intact record (0 on a clean log).
    pub torn_bytes: usize,
}

impl Wal {
    /// Open `path` for appending, creating it (and fsyncing the parent
    /// directory, so the new entry survives a crash) if absent. Replay
    /// is the caller's job — do it *before* opening, via
    /// [`Wal::replay`], then [`Wal::truncate`] once the replayed state
    /// has been checkpointed.
    pub fn open(path: &Path) -> Result<Wal> {
        let existed = path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open wal", path, e))?;
        if !existed {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                durable::sync_dir(parent)?;
            }
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            records: 0,
            fsync_hist: revival_obs::global().histogram("wal_fsync_us"),
            appends: revival_obs::global().counter("wal_appends_total"),
        })
    }

    /// Records appended since open/truncate (drives auto-checkpoints).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append one protocol line and fsync. Returns only after the
    /// record is durable; the header + payload go down in a single
    /// `write_all`, so a crash leaves at most one torn record at the
    /// tail.
    pub fn append(&mut self, line: &str) -> Result<()> {
        let mut rec = Vec::with_capacity(HEADER + line.len());
        push_frame(&mut rec, line);
        self.append_batch(&rec, 1)
    }

    /// Append a pre-framed batch of `records` records and fsync once.
    /// The whole batch goes down in a single `write_all`, so a crash
    /// leaves at most one torn frame at the tail — the same shape
    /// [`Wal::replay`] already tolerates for single appends, and none
    /// of the batch was acked before this returns.
    pub fn append_batch(&mut self, frames: &[u8], records: u64) -> Result<()> {
        self.file.write_all(frames).map_err(|e| io_err("append wal", &self.path, e))?;
        let fsync_start = Instant::now();
        self.file.sync_data().map_err(|e| io_err("sync wal", &self.path, e))?;
        if revival_obs::enabled() {
            self.fsync_hist.record(fsync_start.elapsed().as_micros() as u64);
            self.appends.add(records);
        }
        self.records += records;
        Ok(())
    }

    /// Reset the log to empty (checkpoint taken: the snapshot now
    /// covers everything logged). Fsyncs so the truncation itself is
    /// durable — a crash right after must not resurrect pre-checkpoint
    /// records on top of the post-checkpoint snapshot.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(|e| io_err("truncate wal", &self.path, e))?;
        self.file.sync_all().map_err(|e| io_err("sync wal", &self.path, e))?;
        self.records = 0;
        Ok(())
    }

    /// Read every intact record of the log at `path` (missing file =
    /// empty log). Stops at the first record whose header is short,
    /// whose payload is short, whose checksum mismatches, or whose
    /// payload is not UTF-8 — everything from there on counts as the
    /// torn tail of an unacknowledged append and is reported, not
    /// replayed.
    pub fn replay(path: &Path) -> Result<WalReplay> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
            Err(e) => return Err(io_err("read wal", path, e)),
        };
        let mut replay = WalReplay::default();
        let mut at = 0usize;
        while at < bytes.len() {
            let rest = &bytes[at..];
            if rest.len() < HEADER {
                break;
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            let sum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            if rest.len() < HEADER + len {
                break;
            }
            let payload = &rest[HEADER..HEADER + len];
            if fnv1a(payload) != sum {
                break;
            }
            let Ok(line) = std::str::from_utf8(payload) else {
                break;
            };
            replay.records.push(line.to_string());
            at += HEADER + len;
        }
        replay.torn_bytes = bytes.len() - at;
        Ok(replay)
    }
}

/// Book-keeping behind [`GroupWal`]'s state mutex. The file itself
/// lives under a *separate* mutex so the leader can write and fsync
/// without holding this one — stagers keep staging (and readers keep
/// reading) while a group syncs.
#[derive(Debug, Default)]
struct GroupState {
    /// Framed records staged but not yet handed to a leader.
    buf: Vec<u8>,
    /// Retired batch buffer, recycled to keep staging allocation-free.
    spare: Vec<u8>,
    /// Records currently in `buf`.
    buffered: u64,
    /// Commit sequence number of the last staged record.
    staged: u64,
    /// Every record with csn `<= synced` is durable (or covered by a
    /// checkpoint snapshot).
    synced: u64,
    /// A leader is gathering or syncing.
    syncing: bool,
    /// Group syncs performed since open.
    batches: u64,
    /// Records those syncs covered.
    batched: u64,
    /// Records staged since open/truncate (drives auto-checkpoints).
    logged: u64,
    /// A batch write/fsync failed: the log tail is in an unknown state,
    /// so anything appended after it could be lost at replay. Staging
    /// and commits refuse until a checkpoint truncates the log (whose
    /// snapshot re-covers everything applied).
    failed: Option<String>,
}

/// Leader/follower group commit over one shard's [`Wal`]: many
/// concurrent writers, one `fdatasync` per batch. See the module docs
/// for the protocol; the invariants in short:
///
/// * [`GroupWal::stage`] is called under the shard's session write
///   lock, so commit sequence numbers follow apply order and replay
///   re-executes ops in the order they mutated the session.
/// * [`GroupWal::commit`] returns `Ok` only after a sync whose batch
///   included the record completed — ack still implies durable.
/// * The fsync happens outside both the session lock and the state
///   mutex, so reads and further staging proceed while a group syncs.
#[derive(Debug)]
pub struct GroupWal {
    wal: Mutex<Wal>,
    state: Mutex<GroupState>,
    cond: Condvar,
    /// Bounded gather window: a freshly elected leader sleeps this long
    /// (letting more writers stage into its batch) before syncing. Zero
    /// means sync immediately — batching then comes only from writers
    /// that staged while a previous sync was in flight.
    max_wait: Duration,
    group_size: Arc<revival_obs::Histogram>,
    commits: Arc<revival_obs::Counter>,
    saved: Arc<revival_obs::Counter>,
}

impl GroupWal {
    /// Open the log at `path` (see [`Wal::open`]) with the given gather
    /// window.
    pub fn open(path: &Path, max_wait: Duration) -> Result<GroupWal> {
        Ok(GroupWal {
            wal: Mutex::new(Wal::open(path)?),
            state: Mutex::new(GroupState::default()),
            cond: Condvar::new(),
            max_wait,
            group_size: revival_obs::global().histogram("wal_group_size"),
            commits: revival_obs::global().counter("wal_group_commits_total"),
            saved: revival_obs::global().counter("wal_group_syncs_saved_total"),
        })
    }

    /// Stage one protocol line into the pending batch and return its
    /// commit sequence number. Call under the shard's session write
    /// lock; the record is *not* durable until [`GroupWal::commit`]
    /// returns `Ok` for the returned number.
    pub fn stage(&self, line: &str) -> Result<u64> {
        let mut st = lock_recovered(&self.state);
        if let Some(msg) = &st.failed {
            return Err(Error::Io(msg.clone()));
        }
        push_frame(&mut st.buf, line);
        st.buffered += 1;
        st.staged += 1;
        st.logged += 1;
        Ok(st.staged)
    }

    /// Block until the record with commit sequence number `csn` is
    /// durable. Call *after* releasing the session write lock. The
    /// first caller to find no sync in flight leads: it waits out the
    /// gather window, takes every staged frame, and syncs them as one
    /// batch; everyone the batch covered is released together.
    pub fn commit(&self, csn: u64) -> Result<()> {
        let mut st = lock_recovered(&self.state);
        loop {
            if st.synced >= csn {
                return Ok(());
            }
            if let Some(msg) = &st.failed {
                return Err(Error::Io(msg.clone()));
            }
            if st.syncing {
                // Follower: the in-flight (or gathering) leader covers
                // us, or the loop elects us once it finishes.
                st = wait_recovered(&self.cond, st);
                continue;
            }
            st.syncing = true;
            if !self.max_wait.is_zero() {
                // Bounded gather: sleep with the state mutex released
                // so more writers can stage into this batch. The loop
                // re-arms after spurious wakeups, so a lone writer is
                // delayed at most `max_wait` — never indefinitely.
                let deadline = Instant::now() + self.max_wait;
                while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                    st = wait_timeout_recovered(&self.cond, st, left);
                }
            }
            let next = std::mem::take(&mut st.spare);
            let batch = std::mem::replace(&mut st.buf, next);
            let records = st.buffered;
            let top = st.staged;
            st.buffered = 0;
            drop(st);

            let result = lock_recovered(&self.wal).append_batch(&batch, records);

            st = lock_recovered(&self.state);
            st.syncing = false;
            match result {
                Ok(()) => {
                    st.synced = top;
                    st.batches += 1;
                    st.batched += records;
                    let mut spare = batch;
                    spare.clear();
                    if spare.capacity() > st.spare.capacity() {
                        st.spare = spare;
                    }
                    if revival_obs::enabled() {
                        self.group_size.record(records);
                        self.commits.inc();
                        self.saved.add(records.saturating_sub(1));
                    }
                    self.cond.notify_all();
                    // Loop: `synced >= csn` now — we took everything
                    // staged, and our own record was staged.
                }
                Err(e) => {
                    st.failed = Some(e.to_string());
                    self.cond.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Records staged since open/truncate (drives auto-checkpoints).
    pub fn records(&self) -> u64 {
        lock_recovered(&self.state).logged
    }

    /// Group syncs performed since open (the registry carries the
    /// process-global `wal_group_commits_total`).
    pub fn group_commits(&self) -> u64 {
        lock_recovered(&self.state).batches
    }

    /// Records the group syncs since open covered; over
    /// [`GroupWal::group_commits`] this is the mean group size.
    pub fn group_records(&self) -> u64 {
        lock_recovered(&self.state).batched
    }

    /// Checkpoint truncation: wait out any in-flight sync, reset the
    /// log, and mark everything staged as covered. Call with the
    /// shard's session *read* lock held (as checkpoints do): staging
    /// only happens under the write lock, so every staged record was
    /// applied before the checkpoint's read lock was granted and is in
    /// the snapshot — dropping its frame loses nothing, and waiting
    /// followers are released as durable-via-snapshot. Also clears a
    /// sticky batch failure, since the snapshot re-covers the log.
    pub fn truncate_covered(&self) -> Result<()> {
        let mut st = lock_recovered(&self.state);
        while st.syncing {
            st = wait_recovered(&self.cond, st);
        }
        lock_recovered(&self.wal).truncate()?;
        st.buf.clear();
        st.buffered = 0;
        st.synced = st.staged;
        st.logged = 0;
        st.failed = None;
        self.cond.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("revival_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.log")
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(r#"{"cmd":"append","table":"t","row":"1,a"}"#).unwrap();
        wal.append("second line with unicode: …").unwrap();
        assert_eq!(wal.records(), 2);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 2);
        assert!(replay.records[0].contains("append"));
        assert_eq!(replay.records[1], "second line with unicode: …");
    }

    #[test]
    fn missing_log_is_empty() {
        let path = tmp("missing");
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.append("intact record").unwrap();
        wal.append("this one will be torn").unwrap();
        // Chop the file mid-way through the second record's payload,
        // as a crash between write and ack would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, vec!["intact record".to_string()]);
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append("first").unwrap();
        wal.append("second").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the first record: both records after
        // the corruption point are untrusted.
        let target = HEADER + 2;
        bytes[target] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn group_commit_is_durable_and_replayable_in_stage_order() {
        let path = tmp("group_roundtrip");
        let wal = GroupWal::open(&path, Duration::ZERO).unwrap();
        let a = wal.stage("first").unwrap();
        let b = wal.stage("second").unwrap();
        let c = wal.stage("third").unwrap();
        assert!(a < b && b < c, "commit sequence numbers follow stage order");
        assert_eq!(wal.records(), 3);
        // Committing the top record covers the whole batch in one sync…
        wal.commit(c).unwrap();
        assert_eq!(wal.group_commits(), 1);
        // …so earlier numbers return without another sync.
        wal.commit(a).unwrap();
        wal.commit(b).unwrap();
        assert_eq!(wal.group_commits(), 1);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, vec!["first", "second", "third"]);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn lone_writer_is_delayed_at_most_the_gather_window() {
        let path = tmp("group_lone");
        let window = Duration::from_millis(200);
        let wal = GroupWal::open(&path, window).unwrap();
        let csn = wal.stage("only writer").unwrap();
        let start = Instant::now();
        wal.commit(csn).unwrap();
        let elapsed = start.elapsed();
        // The gather window is honoured in full (no second writer ever
        // arrives to cut it short)…
        assert!(elapsed >= Duration::from_millis(150), "gather window engaged: {elapsed:?}");
        // …and the commit returns once it closes — bounded, not
        // waiting for company that never comes. The slack over the
        // 200ms window absorbs scheduler noise and the fsync itself.
        assert!(elapsed < Duration::from_secs(5), "lone writer must not wait: {elapsed:?}");
        assert_eq!(Wal::replay(&path).unwrap().records, vec!["only writer"]);
    }

    #[test]
    fn concurrent_commits_share_syncs() {
        let path = tmp("group_concurrent");
        let wal = Arc::new(GroupWal::open(&path, Duration::from_millis(20)).unwrap());
        let threads = 4;
        let per_thread = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let csn = wal.stage(&format!("t{t}r{i}")).unwrap();
                        wal.commit(csn).unwrap();
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        assert_eq!(wal.records(), total);
        assert!(
            wal.group_commits() < total,
            "grouping must engage: {} syncs for {} records",
            wal.group_commits(),
            total
        );
        assert_eq!(Wal::replay(&path).unwrap().records.len(), total as usize);
    }

    #[test]
    fn truncate_covered_releases_staged_records_and_resets() {
        let path = tmp("group_truncate");
        let wal = GroupWal::open(&path, Duration::ZERO).unwrap();
        let a = wal.stage("covered by sync").unwrap();
        wal.commit(a).unwrap();
        let b = wal.stage("covered by snapshot").unwrap();
        // The checkpoint path: the snapshot covers everything staged,
        // so truncation releases `b` without it ever hitting the file.
        wal.truncate_covered().unwrap();
        wal.commit(b).unwrap();
        assert_eq!(wal.records(), 0);
        assert!(Wal::replay(&path).unwrap().records.is_empty());
        let c = wal.stage("after checkpoint").unwrap();
        wal.commit(c).unwrap();
        assert_eq!(Wal::replay(&path).unwrap().records, vec!["after checkpoint"]);
    }

    #[test]
    fn truncate_resets_log() {
        let path = tmp("truncate");
        let mut wal = Wal::open(&path).unwrap();
        wal.append("pre-checkpoint").unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.records(), 0);
        assert!(Wal::replay(&path).unwrap().records.is_empty());
        wal.append("post-checkpoint").unwrap();
        assert_eq!(Wal::replay(&path).unwrap().records, vec!["post-checkpoint".to_string()]);
    }
}
