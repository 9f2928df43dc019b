//! The two serve workloads and the stream-layer probes. The tier is
//! driven the way a deployment drives it: an in-process
//! `Server::bind_opts` + `run`, TCP clients speaking wire-protocol text
//! lines in a closed loop (each client sends its next request only
//! after the reply to the last), `ShardedSession::handle` fed by
//! `Request::parse(line)` for the in-process probes and the replay
//! check. No request is ever built as a `Request` value.

use crate::affinity::Pinned;
use crate::batch::{err, Checks, Res, Scale};
use crate::gen::{Dataset, Mix, OpGen, OpKind, OpSource};
use crate::json::quote;
use crate::stats::{self, Fnv64};
use crate::trace::{SpanRec, Tracer, ROOT_LAYER};
use revival_stream::{Request, RestoreSummary, RunSummary, ServeOptions, Server, ShardedSession};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct ServeCfg {
    pub wal: bool,
    pub clients: usize,
    pub ops_per_client: usize,
    pub mix: Mix,
    pub base_rows: usize,
    pub pool_rows: usize,
    pub checkpoint_ops: u64,
    /// Rounds one lap of an untraced run measures over one server: a
    /// fixed count, so every lap's table grows through the same sizes.
    pub rounds_per_lap: usize,
    /// Run server and clients on one CPU (see [`crate::affinity`]).
    pub one_cpu: bool,
}

impl ServeCfg {
    /// Write-heavy, WAL on, two writers so group commit has someone to
    /// group — never more clients than cores.
    pub fn durable(scale: Scale) -> ServeCfg {
        ServeCfg {
            wal: true,
            clients: crate::batch::nproc().min(2),
            ops_per_client: scale.pick(1_000, 400),
            mix: Mix([700, 100, 50, 150, 0]),
            base_rows: scale.pick(20_000, 1_000),
            pool_rows: scale.pick(40_000, 500),
            checkpoint_ops: scale.pick(20_000, 500) as u64,
            // 42 500 mutations: two background checkpoint cycles a lap.
            rounds_per_lap: scale.pick(25, 2),
            one_cpu: false,
        }
    }

    /// Read-mostly, in memory, one connection: one runnable thread
    /// pair, so the numbers are the request path and not the scheduler.
    pub fn live(scale: Scale) -> ServeCfg {
        ServeCfg {
            wal: false,
            clients: 1,
            ops_per_client: scale.pick(4_000, 800),
            mix: Mix([200, 48, 0, 750, 2]),
            base_rows: scale.pick(20_000, 1_000),
            pool_rows: scale.pick(40_000, 500),
            checkpoint_ops: 0,
            rounds_per_lap: scale.pick(10, 2),
            one_cpu: true,
        }
    }

    pub fn ops_per_round(&self) -> usize {
        self.clients * self.ops_per_client
    }
}

/// What a serve leg is made from: the base table and suite to
/// register, and the source every client's request stream draws on.
pub struct ServeInputs {
    pub relation: &'static str,
    pub base_rows: usize,
    pub base_csv: String,
    pub pool_csv: String,
    pub suite_text: String,
    pub source: Arc<OpSource>,
    pub register_line: String,
}

impl ServeInputs {
    /// Split `csv_text` (header + rows, as written to disk from
    /// `data`) into the first `base_rows` rows to register and the
    /// held-out rest to append.
    pub fn new(data: &Dataset, csv_text: &str, base_rows: usize) -> ServeInputs {
        let mut lines = csv_text.lines();
        let header = lines.next().expect("CSV has a header").to_string();
        let rows: Vec<&str> = lines.collect();
        assert!(rows.len() > base_rows, "no held-out rows to append");
        let with_header = |rows: &[&str]| {
            let mut text = header.clone();
            text.push('\n');
            for row in rows {
                text.push_str(row);
                text.push('\n');
            }
            text
        };
        let update_attr = data.schema.attr_name(data.update_attr).to_string();
        let mut update_values: Vec<String> = data
            .truth
            .dirty
            .rows()
            .take(base_rows)
            .map(|(_, row)| row[data.update_attr].render().into_owned())
            .collect();
        update_values.sort();
        update_values.dedup();
        let suite_text = data.suite_text();
        let base_csv = with_header(&rows[..base_rows]);
        let register_line = format!(
            "{{\"cmd\":\"register\",\"table\":\"{}\",\"csv\":{},\"cfds\":{}}}\n",
            data.relation,
            quote(&base_csv),
            quote(&suite_text)
        );
        ServeInputs {
            relation: data.relation,
            base_rows,
            pool_csv: with_header(&rows[base_rows..]),
            base_csv,
            suite_text,
            source: Arc::new(OpSource {
                table: data.relation.to_string(),
                append_rows: rows[base_rows..].iter().map(|r| r.to_string()).collect(),
                update_attr,
                update_values,
            }),
            register_line,
        }
    }

    pub fn gens(&self, cfg: &ServeCfg, seed: u64) -> Vec<OpGen> {
        (0..cfg.clients)
            .map(|c| {
                OpGen::new(Arc::clone(&self.source), cfg.mix, seed, c, cfg.clients, self.base_rows)
            })
            .collect()
    }
}

/// One client's requests for one round.
type Batch = Vec<(OpKind, String)>;

/// A protocol client: one connection, one request in flight.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        stream.set_nodelay(true).map_err(err("set_nodelay"))?;
        let reader = BufReader::new(stream.try_clone().map_err(err("clone stream"))?);
        Ok(Client { stream, reader, reply: String::new() })
    }

    fn call(&mut self, line: &str) -> Res<&str> {
        self.stream.write_all(line.as_bytes()).map_err(err("send request"))?;
        self.reply.clear();
        self.reader.read_line(&mut self.reply).map_err(err("read reply"))?;
        Ok(&self.reply)
    }
}

fn reply_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// `"violations":N` out of a reply line.
fn reply_violations(reply: &str) -> Option<u64> {
    let rest = reply.split_once("\"violations\":")?.1;
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().ok()
}

/// Client-observed latencies of one round, by request kind.
pub struct RoundOut {
    pub wall_s: f64,
    pub ops: usize,
    pub failed: u64,
    /// (kind, latency µs), every client's requests.
    pub lat_us: Vec<(OpKind, f64)>,
}

impl RoundOut {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Median client-observed latency over every request of the round.
    pub fn op_p50_us(&self) -> f64 {
        let all: Vec<f64> = self.lat_us.iter().map(|(_, l)| *l).collect();
        stats::median(&all)
    }
}

/// Client-observed latencies pooled over the rounds of a leg, by
/// class: `append`/`update`/`delete` acks (durable acks when the WAL
/// is on) and `count`/`report` replies. Tails are taken over the pool,
/// so p99 has its ten samples beyond it even when one round has not.
#[derive(Default)]
pub struct LatencyPool {
    pub writes_us: Vec<f64>,
    pub reads_us: Vec<f64>,
}

impl LatencyPool {
    pub fn add(&mut self, round: &RoundOut) {
        for (kind, lat) in &round.lat_us {
            if kind.is_mutation() { &mut self.writes_us } else { &mut self.reads_us }.push(*lat);
        }
    }
}

/// A running server with its clients connected and the base table
/// registered.
pub struct ServeRig {
    pub cfg: ServeCfg,
    pub register_s: f64,
    pub input_fnv64: u64,
    addr: SocketAddr,
    server: std::thread::JoinHandle<std::io::Result<RunSummary>>,
    clients: Vec<Client>,
    gens: Vec<OpGen>,
    /// The next round's requests, generated between rounds.
    staged: Vec<Batch>,
    seed: u64,
    state: Option<PathBuf>,
    rounds_run: usize,
    /// One recorder per client; its spans share the run's epoch.
    tracers: Vec<Tracer>,
    /// Held from before the server thread is spawned until it has
    /// stopped, so every thread of the leg inherits it.
    pinned: Option<Pinned>,
}

/// A server that has answered its last request and shut down; its
/// final state is still unchecked.
pub struct Stopped {
    pub summary: RunSummary,
    /// One span list per client.
    pub spans: Vec<Vec<SpanRec>>,
    cfg: ServeCfg,
    seed: u64,
    rounds_run: usize,
    state: Option<PathBuf>,
    live: Option<u64>,
    checks: Checks,
}

impl ServeRig {
    /// The CPU the leg is held on, if it is.
    pub fn cpu(&self) -> Option<usize> {
        self.pinned.as_ref().map(|p| p.cpu)
    }

    /// Start the server, register the base table over TCP, connect the
    /// clients and stage the first round.
    pub fn start(
        cfg: ServeCfg,
        inputs: &ServeInputs,
        seed: u64,
        dir: &Path,
        epoch: Instant,
    ) -> Res<ServeRig> {
        let pinned = if cfg.one_cpu { Pinned::to_next_cpu() } else { None };
        let state = cfg.wal.then(|| dir.join("state"));
        let opts = ServeOptions {
            jobs: 1,
            shards: 1,
            wal: cfg.wal,
            checkpoint_ops: cfg.checkpoint_ops,
            state: state.clone(),
            ..ServeOptions::default()
        };
        let (server, _) = Server::bind_opts("127.0.0.1:0", &opts).map_err(err("bind server"))?;
        let addr = server.local_addr().map_err(err("server addr"))?;
        // The pool pins one connection per worker: the clients plus
        // the control connection.
        let workers = cfg.clients + 1;
        let server = std::thread::spawn(move || server.run(workers));

        let mut control = Client::connect(addr)?;
        let start = Instant::now();
        let reply = control.call(&inputs.register_line)?;
        let register_s = start.elapsed().as_secs_f64();
        if !reply_ok(reply) {
            return Err(format!("register failed: {reply}"));
        }
        drop(control);

        let mut gens = inputs.gens(&cfg, seed);
        let staged: Vec<Batch> = gens.iter_mut().map(|g| g.round(cfg.ops_per_client)).collect();
        // The fingerprint covers what every machine generates alike:
        // the register line and the request stream one client alone
        // would send (the client count follows the core count).
        let mut fnv = Fnv64::new();
        fnv.write(inputs.register_line.as_bytes());
        let mut alone =
            OpGen::new(Arc::clone(&inputs.source), cfg.mix, seed, 0, 1, inputs.base_rows);
        for (_, line) in alone.round(cfg.ops_per_client) {
            fnv.write(line.as_bytes());
        }
        let clients = (0..cfg.clients).map(|_| Client::connect(addr)).collect::<Res<Vec<_>>>()?;
        Ok(ServeRig {
            cfg,
            register_s,
            input_fnv64: fnv.finish(),
            addr,
            server,
            clients,
            gens,
            staged,
            seed,
            state,
            rounds_run: 0,
            tracers: (0..cfg.clients).map(|_| Tracer::new(false, epoch)).collect(),
            pinned,
        })
    }

    /// One closed-loop round of the staged requests: every client
    /// starts at the barrier, the round's wall runs from the barrier to
    /// the last reply, each request is timed by one `Instant` pair.
    /// With `traced`, each client also records a span per request under
    /// a span for its round.
    pub fn round(&mut self, traced: bool) -> Res<RoundOut> {
        let barrier = Barrier::new(self.cfg.clients + 1);
        let round_no = self.rounds_run as u32;
        let staged = std::mem::take(&mut self.staged);
        let (wall_s, per_client) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&mut self.tracers)
                .zip(&staged)
                .map(|((client, tracer), batch)| {
                    let barrier = &barrier;
                    scope.spawn(move || -> Res<(Vec<(OpKind, f64)>, u64)> {
                        tracer.set_on(traced);
                        tracer.set_pass(round_no);
                        let mut lat = Vec::with_capacity(batch.len());
                        let mut failed = 0;
                        barrier.wait();
                        let root = tracer.begin(ROOT_LAYER, "round");
                        for (kind, line) in batch {
                            let span = tracer.begin("stream", "request");
                            let start = Instant::now();
                            let ok = reply_ok(client.call(line)?);
                            lat.push((*kind, start.elapsed().as_secs_f64() * 1e6));
                            tracer.end(span);
                            failed += u64::from(!ok);
                        }
                        tracer.end(root);
                        Ok((lat, failed))
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let joined: Vec<_> =
                handles.into_iter().map(|h| h.join().expect("client thread")).collect();
            (start.elapsed().as_secs_f64(), joined)
        });
        let mut out = RoundOut { wall_s, ops: 0, failed: 0, lat_us: Vec::new() };
        for client in per_client {
            let (lat, failed) = client?;
            out.ops += lat.len();
            out.failed += failed;
            out.lat_us.extend(lat);
        }
        self.rounds_run += 1;
        let n = self.cfg.ops_per_client;
        self.staged = self.gens.iter_mut().map(|g| g.round(n)).collect();
        Ok(out)
    }

    /// Ask for the final count, shut the server down and wait for it.
    pub fn stop(self) -> Res<Stopped> {
        let mut checks = Checks::default();
        drop(self.clients);
        let mut control = Client::connect(self.addr)?;
        let live = reply_violations(control.call("{\"cmd\":\"count\"}\n")?);
        checks.check(live.is_some(), || "final count did not answer".to_string());
        let reply = control.call("{\"cmd\":\"shutdown\"}\n")?;
        checks.check(reply_ok(reply), || format!("shutdown refused: {reply}"));
        drop(control);
        let summary = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(err("server run"))?;
        Ok(Stopped {
            summary,
            spans: self.tracers.into_iter().map(Tracer::into_spans).collect(),
            cfg: self.cfg,
            seed: self.seed,
            rounds_run: self.rounds_run,
            state: self.state,
            live,
            checks,
        })
    }
}

impl Stopped {
    /// Hold the server's final count against a single-threaded replay
    /// of the very same request lines — and, with the WAL on, against
    /// what a fresh tier restores from the state directory.
    pub fn check(&self, inputs: &ServeInputs) -> Res<Checks> {
        let (live, mut checks) = (self.live, self.checks.clone());
        let replayed = replay_count(inputs, &self.cfg, self.seed, self.rounds_run)?;
        checks.check(live == Some(replayed), || {
            format!("live count {live:?} but a single-threaded replay of the same lines counts {replayed}")
        });
        if let Some(state) = &self.state {
            let (tier, restored) = open_tier(Some(state.clone()), true)?;
            let reopened = handle_count(&tier)?;
            checks.check(live == Some(reopened), || {
                format!("live count {live:?} but the reopened state directory counts {reopened}")
            });
            check_restore(&mut checks, &restored);
        }
        Ok(checks)
    }
}

fn check_restore(checks: &mut Checks, restored: &RestoreSummary) {
    checks.check(restored.replay_errors == 0, || {
        format!("{} WAL record(s) failed to replay", restored.replay_errors)
    });
    checks.check(restored.torn_bytes == 0, || format!("{} torn WAL byte(s)", restored.torn_bytes));
}

/// A serve tier without the TCP front end, configured as the serve
/// workloads configure theirs.
pub fn open_tier(state: Option<PathBuf>, wal: bool) -> Res<(ShardedSession, RestoreSummary)> {
    ShardedSession::open(&ServeOptions {
        jobs: 1,
        shards: 1,
        wal,
        state,
        ..ServeOptions::default()
    })
    .map_err(err("open tier"))
}

/// One wire-protocol line through `ShardedSession::handle`.
pub fn handle_line(tier: &ShardedSession, line: &str) -> Res<revival_stream::Response> {
    let request = Request::parse(line).map_err(err("parse request line"))?;
    Ok(tier.handle(&request))
}

pub fn handle_count(tier: &ShardedSession) -> Res<u64> {
    let reply = handle_line(tier, "{\"cmd\":\"count\"}\n")?;
    reply.int("violations").map(|v| v as u64).ok_or_else(|| format!("count failed: {reply:?}"))
}

/// The violation count after applying `rounds` rounds of every
/// client's request stream, one line at a time on one thread. Reads
/// change nothing and are skipped.
fn replay_count(inputs: &ServeInputs, cfg: &ServeCfg, seed: u64, rounds: usize) -> Res<u64> {
    let (tier, _) = open_tier(None, false)?;
    let reply = handle_line(&tier, &inputs.register_line)?;
    if !reply.is_ok() {
        return Err(format!("replay register failed: {reply:?}"));
    }
    for mut gen in inputs.gens(cfg, seed) {
        for _ in 0..rounds {
            for (kind, line) in gen.round(cfg.ops_per_client) {
                if kind.is_mutation() {
                    let reply = handle_line(&tier, &line)?;
                    if !reply.is_ok() {
                        return Err(format!("replay of `{}` failed: {reply:?}", line.trim_end()));
                    }
                }
            }
        }
    }
    handle_count(&tier)
}

/// Mean µs the tier's own phase histograms recorded per request since
/// `before` — program-made numbers, reported for orientation only.
pub const PHASES: [&str; 7] =
    ["parse", "route", "lock_wait", "apply", "wal_append", "commit_wait", "ack"];

pub struct ObsWindow {
    phases: Vec<revival_obs::HistogramSnapshot>,
    fsync: revival_obs::HistogramSnapshot,
    group: revival_obs::HistogramSnapshot,
}

fn phase_hist(phase: &str) -> Arc<revival_obs::Histogram> {
    revival_obs::global().histogram(&format!("serve_phase_us{{phase=\"{phase}\"}}"))
}

impl ObsWindow {
    pub fn open() -> ObsWindow {
        ObsWindow {
            phases: PHASES.iter().map(|p| phase_hist(p).snapshot()).collect(),
            fsync: revival_obs::global().histogram("wal_fsync_us").snapshot(),
            group: revival_obs::global().histogram("wal_group_size").snapshot(),
        }
    }

    /// Mean µs per recorded request of each phase, [`PHASES`] order.
    pub fn phase_means_us(&self) -> Vec<f64> {
        PHASES
            .iter()
            .zip(&self.phases)
            .map(|(p, before)| {
                let d = phase_hist(p).snapshot().delta_since(before);
                if d.count == 0 {
                    0.0
                } else {
                    d.sum as f64 / d.count as f64
                }
            })
            .collect()
    }

    /// (fsyncs, mean records per group commit) since the window opened.
    pub fn wal(&self) -> (u64, f64) {
        let fsync =
            revival_obs::global().histogram("wal_fsync_us").snapshot().delta_since(&self.fsync);
        let group =
            revival_obs::global().histogram("wal_group_size").snapshot().delta_since(&self.group);
        let mean = if group.count == 0 { 0.0 } else { group.sum as f64 / group.count as f64 };
        (fsync.count, mean)
    }
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err("read state dir"))? {
        let entry = entry.map_err(err("read state dir entry"))?;
        let meta = entry.metadata().map_err(err("stat state file"))?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(err("create image copy"))?;
    for entry in std::fs::read_dir(from).map_err(err("read crash image"))? {
        let entry = entry.map_err(err("read crash image entry"))?;
        let target = to.join(entry.file_name());
        if entry.metadata().map_err(err("stat crash image file"))?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(err("copy crash image file"))?;
        }
    }
    Ok(())
}

/// The in-process prices of the stream layer, measured on one thread
/// over one request stream: per-verb `handle` cost with the WAL off,
/// what the WAL adds, protocol parse + format, a checkpoint, and a
/// crash-image recovery.
pub struct StreamPrices {
    pub protocol_us_per_op: f64,
    /// `Request::parse` + `to_line` of a `count` alone: what a TCP
    /// `count` spends in the protocol.
    pub protocol_count_us: f64,
    pub session_insert_us: f64,
    /// Mean `handle` µs per verb, [`OpKind::ALL`] order, WAL off.
    pub handle_us: [f64; 5],
    pub wal_us_per_op: f64,
    pub wal_fsyncs_per_op: f64,
    pub wal_group_size_mean: f64,
    pub wal_bytes_per_op: f64,
    pub checkpoint_s: f64,
    pub state_bytes_per_row: f64,
    pub recovery_s: f64,
    pub recovery_replayed: f64,
    pub recovery_us_per_record: f64,
    pub checks: Checks,
}

/// Requests of the probe stream, and how many of them are also logged
/// through the WAL (one thread, so one fsync each).
pub struct ProbeSizes {
    pub ops: usize,
    pub wal_ops: usize,
}

/// Copies of the crash image `recovery_s` is the median over.
const RECOVERIES: usize = 3;

impl ProbeSizes {
    pub fn at(scale: Scale) -> ProbeSizes {
        ProbeSizes { ops: scale.pick(4_000, 400), wal_ops: scale.pick(1_500, 100) }
    }
}

/// Every verb often enough for a mean, `report` included.
const PROBE_MIX: Mix = Mix([400, 200, 100, 250, 50]);

pub fn stream_prices(
    inputs: &ServeInputs,
    sizes: &ProbeSizes,
    seed: u64,
    dir: &Path,
) -> Res<StreamPrices> {
    let mut checks = Checks::default();
    let batch = OpGen::new(Arc::clone(&inputs.source), PROBE_MIX, seed, 0, 1, inputs.base_rows)
        .round(sizes.ops);

    // handle, WAL off: per-verb cost of the request path proper.
    let (tier, _) = open_tier(None, false)?;
    let reply = handle_line(&tier, &inputs.register_line)?;
    checks.check(reply.is_ok(), || format!("probe register failed: {reply:?}"));
    let mut requests = Vec::with_capacity(batch.len());
    let mut protocol_us = [0.0; 5];
    for (kind, line) in &batch {
        let start = Instant::now();
        let request = Request::parse(std::hint::black_box(line));
        protocol_us[*kind as usize] += start.elapsed().as_secs_f64() * 1e6;
        requests.push(request.map_err(err("parse probe line"))?);
    }
    let mut sum_us = [0.0; 5];
    let mut count = [0usize; 5];
    let mut replies = Vec::with_capacity(requests.len());
    let mut failed = 0u64;
    for ((kind, _), request) in batch.iter().zip(&requests) {
        let start = Instant::now();
        let reply = tier.handle(request);
        sum_us[*kind as usize] += start.elapsed().as_secs_f64() * 1e6;
        count[*kind as usize] += 1;
        failed += u64::from(!reply.is_ok());
        replies.push(reply);
    }
    checks.check(failed == 0, || format!("{failed} probe request(s) failed through handle"));
    for ((kind, _), reply) in batch.iter().zip(&replies) {
        let start = Instant::now();
        std::hint::black_box(reply.to_line());
        protocol_us[*kind as usize] += start.elapsed().as_secs_f64() * 1e6;
    }
    let mut handle_us = [0.0; 5];
    for k in 0..5 {
        handle_us[k] = if count[k] == 0 { 0.0 } else { sum_us[k] / count[k] as f64 };
    }
    drop(tier);

    // DeltaSession::insert: the incremental detector under `append`,
    // without routing, locking or the protocol.
    let schema_table = revival_relation::csv::read_table_infer(inputs.relation, &inputs.base_csv)
        .map_err(err("ingest probe base"))?;
    let pool = revival_relation::csv::read_table(schema_table.schema(), &inputs.pool_csv)
        .map_err(err("ingest probe pool"))?;
    let cfds = revival_constraints::parser::parse_cfds(&inputs.suite_text, schema_table.schema())
        .map_err(err("parse probe suite"))?;
    let mut session = revival_stream::DeltaSession::new(1);
    session.register(schema_table, cfds).map_err(err("register probe session"))?;
    let rows: Vec<_> = pool.rows().take(sizes.ops).map(|(_, row)| row).collect();
    let n_rows = rows.len();
    let start = Instant::now();
    for row in rows {
        session.insert(inputs.relation, row).map_err(err("session insert"))?;
    }
    let session_insert_us = start.elapsed().as_secs_f64() * 1e6 / n_rows as f64;
    drop(session);

    // handle, WAL on, one thread: every mutation pays its own fsync.
    // Dropping the tier without a shutdown leaves a crash image: a
    // checkpoint plus a WAL tail of exactly the mutations acked since.
    let image = dir.join("crash-image");
    let _ = std::fs::remove_dir_all(&image);
    let (tier, _) = open_tier(Some(image.clone()), true)?;
    let reply = handle_line(&tier, &inputs.register_line)?;
    checks.check(reply.is_ok(), || format!("crash-image register failed: {reply:?}"));
    tier.checkpoint().map_err(err("checkpoint crash-image base"))?;
    let mutations: Vec<(&OpKind, &Request)> = batch
        .iter()
        .zip(&requests)
        .filter(|((k, _), _)| k.is_mutation())
        .map(|((k, _), request)| (k, request))
        .take(sizes.wal_ops)
        .collect();
    let off_us: f64 = mutations.iter().map(|(k, _)| handle_us[**k as usize]).sum();
    let window = ObsWindow::open();
    let start = Instant::now();
    let mut failed = 0u64;
    for (_, request) in &mutations {
        failed += u64::from(!tier.handle(request).is_ok());
    }
    let on_us = start.elapsed().as_secs_f64() * 1e6;
    checks.check(failed == 0, || format!("{failed} mutation(s) failed with the WAL on"));
    let (fsyncs, wal_group_size_mean) = window.wal();
    // One thread, so nothing to group with: an acked mutation the log
    // did not sync for is an ack that is not durable.
    checks.check(fsyncs >= mutations.len() as u64, || {
        format!("{} mutation(s) were acked on {fsyncs} fsync(s)", mutations.len())
    });
    let wal_bytes = std::fs::metadata(image.join("wal-0.log")).map_err(err("stat WAL"))?.len();
    let before_crash = handle_count(&tier)?;
    drop(tier);

    let mut recovery = Vec::new();
    let mut reopened = None;
    for i in 0..RECOVERIES {
        let copy = dir.join(format!("crash-image-{i}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&image, &copy)?;
        let start = Instant::now();
        let (tier, restored) = open_tier(Some(copy), true)?;
        let count = handle_count(&tier)?;
        recovery.push(start.elapsed().as_secs_f64());
        checks.check(count == before_crash, || {
            format!("recovered count {count}, {before_crash} before the crash")
        });
        checks.check(restored.replayed == mutations.len(), || {
            format!("replayed {} WAL record(s), {} were acked", restored.replayed, mutations.len())
        });
        check_restore(&mut checks, &restored);
        reopened = Some(tier);
    }
    let recovery_s = stats::median(&recovery);

    // An explicit checkpoint of the recovered end state, and what it
    // leaves on disk per live row.
    let tier = reopened.expect("at least one recovery");
    let start = Instant::now();
    tier.checkpoint().map_err(err("checkpoint"))?;
    let checkpoint_s = start.elapsed().as_secs_f64();
    let appended = mutations.iter().filter(|(k, _)| **k == OpKind::Append).count();
    let deleted = mutations.iter().filter(|(k, _)| **k == OpKind::Delete).count();
    let live_rows = (inputs.base_rows + appended - deleted) as f64;
    let last = dir.join(format!("crash-image-{}", RECOVERIES - 1));
    let state_bytes_per_row = dir_bytes(&last.join("shard-0"))? as f64 / live_rows;
    drop(tier);

    let n = mutations.len() as f64;
    Ok(StreamPrices {
        protocol_us_per_op: protocol_us.iter().sum::<f64>() / batch.len() as f64,
        protocol_count_us: protocol_us[OpKind::Count as usize]
            / count[OpKind::Count as usize].max(1) as f64,
        session_insert_us,
        handle_us,
        wal_us_per_op: (on_us - off_us) / n,
        wal_fsyncs_per_op: fsyncs as f64 / n,
        wal_group_size_mean,
        wal_bytes_per_op: wal_bytes as f64 / n,
        checkpoint_s,
        state_bytes_per_row,
        recovery_s,
        recovery_replayed: n,
        recovery_us_per_record: recovery_s * 1e6 / n,
        checks,
    })
}
