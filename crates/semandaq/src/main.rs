//! `semandaq` — a CFD-based data-quality tool (after the VLDB'08 demo).
//!
//! Run `semandaq --help` for the command summary ([`USAGE`]).

#![forbid(unsafe_code)]

use revival_detect::{engine_by_name, Detector, NativeEngine};
use semandaq::{generate_customer_scenario, Session};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

/// The command summary `--help` (and any bad invocation) prints.
const USAGE: &str = "\
usage: semandaq <command> [flags]

commands:
  generate --rows N --noise F --seed N --out DIR
           [--scenario customer|hospital]
                                 write a clean/dirty/CFD scenario
  detect   --data FILE --cfds FILE [--table NAME]
           [--data name=path]... [--cinds FILE]
           [--engine native|sql|incremental|parallel] [--jobs N]
           [--explain [text|json]]
                                 report violations (repeat --data as
                                 name=path for a multi-relation catalog;
                                 --explain profiles the job — per
                                 constraint: rows scanned, violations;
                                 per pass (one scan per embedded FD):
                                 groups probed, wall us — hot first;
                                 `--explain json` prints only the
                                 machine-readable profile)
  repair   --data FILE --cfds FILE [--out FILE] [--jobs N]
           [--explain [text|json]]
                                 compute a minimal-cost repair; a
                                 repair of k passes scans the table
                                 k + 1 times — a detection runs only
                                 after a pass wrote, and the last one
                                 (the fixpoint check) is a full scan;
                                 --explain adds per-phase timings
                                 (detect/resolve/force), detect_scans,
                                 cells changed per constraint, and per
                                 RHS attribute a resolve row: classes,
                                 member cells, distinct values,
                                 distances computed
  discover --data FILE [--table NAME] [--data name=path]...
           [--min-support N] [--min-confidence F] [--max-lhs N]
           [--top-values N] [--budget N] [--jobs N]
           [--engine sequential|parallel]
           [--emit FILE] [--emit-cinds FILE] [--explain [text|json]]
                                 mine FDs/CFDs (and CINDs across a
                                 name=path catalog), vet them, print the
                                 suite in detect-compatible syntax;
                                 --min-confidence < 1.0 mines from dirty
                                 data; --emit writes the vetted suite;
                                 --explain profiles the lattice per
                                 level (candidates checked/pruned,
                                 partition-build us, g3 evaluations)
  analyze  --data FILE --cfds FILE [--budget N]
                                 satisfiability + minimal cover
  edit     --data FILE --cfds FILE --set tID:attr=value... [--out FILE]
                                 apply manual edits, re-detect
  serve    [--port N] [--jobs N] [--workers N] [--state DIR]
           [--shards N] [--wal] [--checkpoint-ops N]
           [--wal-group-max-wait MICROS]
           [--slow-log MICROS] [--trace-out FILE]
                                 line-delimited JSON protocol over TCP;
                                 register/append/delete/update/count/
                                 report/repair/discover/checkpoint/
                                 metrics/profile/shutdown; --shards
                                 hash-partitions the
                                 session by table (one lock per shard);
                                 --state restores DIR (snapshots + WAL
                                 replay) at start and checkpoints at
                                 clean shutdown; --wal fsync-logs every
                                 mutation before acking so kill -9
                                 loses nothing acked (concurrent
                                 writers share one group-commit fsync);
                                 --wal-group-max-wait lets a commit
                                 leader gather more writers for up to
                                 MICROS us before syncing (0 = sync at
                                 once); --checkpoint-ops auto-
                                 checkpoints a shard (on a background
                                 thread) every N logged ops;
                                 --slow-log logs any request
                                 over MICROS us with its per-phase
                                 breakdown; --trace-out writes a Chrome
                                 trace (chrome://tracing / Perfetto) at
                                 shutdown
  metrics  HOST:PORT [--watch SECS [--iterations N]]
                                 fetch a serve tier's metrics registry
                                 and print the Prometheus-style text
                                 exposition; --watch polls every SECS
                                 seconds and redraws windowed rates/sec
                                 and p50/p99 latencies in place
                                 (--iterations stops after N redraws,
                                 0 = until interrupted)
  profile  HOST:PORT [--last N]  fetch the per-request phase profiles
                                 of the serve tier's last N requests
                                 (newest first)
  watch    FILE --cfds FILE [--table NAME] [--poll-ms N]
           [--idle-exit N]
                                 tail a growing CSV, reporting only the
                                 delta (no base rescans)
  snapshot save --data FILE --out FILE.sdq [--table NAME]
  snapshot load --data FILE.sdq
                                 write/open the columnar `.sdq` format

Every --data flag accepts a `.sdq` snapshot wherever it accepts CSV.
Without --table, a command given --cfds names the table after the one
relation its suite names (else `customer`, as discover always does).
`semandaq <command>` with missing flags explains what it needs.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    match run(&args, &mut stdout).and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) | Err(Stop::StdoutClosed) => ExitCode::SUCCESS,
        Err(Stop::Failed(e)) => {
            note(format_args!("semandaq: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// Write one line to stderr, ignoring a failed write: a closed stderr
/// (`semandaq … 2>&1 | head -n 1` exiting first) must not turn a run's
/// status into a panic's.
fn note(line: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// Why a command stopped short: a message for stderr, or stdout closed
/// under it (`semandaq … | head` exiting first), which ends the run
/// quietly with status 0 — what SIGPIPE's default action would do,
/// without a signal handler.
enum Stop {
    Failed(String),
    StdoutClosed,
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Failed(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Self {
        Stop::Failed(e.to_string())
    }
}

/// The `io::Error` a command passes up with a bare `?` is a failed
/// write to stdout; every other I/O error becomes a message where it
/// happens.
impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::BrokenPipe => Stop::StdoutClosed,
            _ => Stop::Failed(format!("stdout: {e}")),
        }
    }
}

/// Minimal flag parser: `--key value` pairs; `--set` and `--data` may
/// repeat; `--wal` is boolean (takes no value).
struct Flags {
    values: HashMap<String, Vec<String>>,
    sets: Vec<String>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["wal"];

/// Flags whose value is optional: a following token that is itself a
/// flag (or the end of the line) leaves the default.
const OPT_VALUE_FLAGS: &[(&str, &str)] = &[("explain", "text")];

/// The flags each command accepts, space-separated — every other flag
/// is an error. The positional argument of `watch` (its file) and of
/// `metrics` / `profile` (HOST:PORT) may also be given as `--data` /
/// `--addr`.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("generate", "rows noise seed out scenario"),
    ("detect", "data cfds table cinds engine jobs explain"),
    ("repair", "data cfds table out jobs explain"),
    (
        "discover",
        "data table min-support min-confidence max-lhs top-values budget jobs engine emit \
         emit-cinds explain",
    ),
    ("analyze", "data cfds table budget"),
    ("edit", "data cfds table set out"),
    (
        "serve",
        "port jobs workers state shards wal checkpoint-ops wal-group-max-wait slow-log \
         trace-out",
    ),
    ("metrics", "addr watch iterations"),
    ("profile", "addr last"),
    ("watch", "data cfds table poll-ms idle-exit"),
    ("snapshot", "data out table"),
];

/// Parse `cmd`'s flags against its row of [`COMMAND_FLAGS`]: an unknown
/// command, or a flag the command does not take, is an error naming the
/// nearest command or flag there is (at most two edits away).
fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let allowed: Vec<&str> = COMMAND_FLAGS
        .iter()
        .find(|(c, _)| *c == cmd)
        .map(|(_, flags)| flags.split_whitespace().collect())
        .ok_or_else(|| match nearest(cmd, COMMAND_FLAGS.iter().map(|(c, _)| *c)) {
            Some(c) => format!("unknown command `{cmd}` (did you mean `{c}`?)\n{USAGE}"),
            None => format!("unknown command `{cmd}`\n{USAGE}"),
        })?;
    let mut values: HashMap<String, Vec<String>> = HashMap::new();
    let mut sets = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected flag, got `{}`", args[i]))?;
        if !allowed.contains(&key) {
            return Err(match nearest(key, allowed.iter().copied()) {
                Some(f) => format!("`{cmd}` has no flag --{key} (did you mean --{f}?)"),
                None => {
                    format!("`{cmd}` has no flag --{key} (it takes --{})", allowed.join(", --"))
                }
            });
        }
        if BOOL_FLAGS.contains(&key) {
            values.entry(key.to_string()).or_default().push("true".into());
            i += 1;
            continue;
        }
        if let Some((_, default)) = OPT_VALUE_FLAGS.iter().find(|(k, _)| *k == key) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    values.entry(key.to_string()).or_default().push(v.clone());
                    i += 2;
                }
                _ => {
                    values.entry(key.to_string()).or_default().push((*default).into());
                    i += 1;
                }
            }
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value"))?;
        if key == "set" {
            sets.push(value.clone());
        } else {
            values.entry(key.to_string()).or_default().push(value.clone());
        }
        i += 2;
    }
    Ok(Flags { values, sets })
}

/// The name among `names` nearest `typed`, if at most two edits away.
fn nearest<'a>(typed: &str, names: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    names.map(|n| (edits(typed, n), n)).filter(|(d, _)| *d <= 2).min().map(|(_, n)| n)
}

/// Edits between two names: the repairer's normalised
/// optimal-string-alignment distance, scaled back by the longer length.
fn edits(a: &str, b: &str) -> usize {
    let longer = a.chars().count().max(b.chars().count());
    (revival_repair::cost::string_distance(a, b) * longer as f64).round() as usize
}

impl Flags {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .and_then(|v| v.first())
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).and_then(|v| v.first()).map(String::as_str).unwrap_or(default)
    }

    fn get_all(&self, key: &str) -> &[String] {
        self.values.get(key).map(Vec::as_slice).unwrap_or_default()
    }

    fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// `--explain` output mode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ExplainMode {
    Text,
    Json,
}

/// Parse the optional `--explain [text|json]` flag. `--explain json`
/// prints *only* the machine-readable profile, so scripts can pipe
/// stdout straight into a JSON parser.
fn explain_mode(flags: &Flags) -> Result<Option<ExplainMode>, String> {
    match flags.get("explain") {
        Err(_) => Ok(None),
        Ok("text") => Ok(Some(ExplainMode::Text)),
        Ok("json") => Ok(Some(ExplainMode::Json)),
        Ok(other) => Err(format!("--explain wants `text` or `json`, got `{other}`")),
    }
}

/// The table's name: `--table`, else the one relation the suite names,
/// else `customer`.
fn table_name<'a>(flags: &'a Flags, cfd_text: &'a str) -> &'a str {
    if let Ok(table) = flags.get("table") {
        return table;
    }
    match revival_constraints::parser::suite_relations(cfd_text)[..] {
        [only] => only,
        _ => "customer",
    }
}

fn load_session(flags: &Flags) -> Result<Session, String> {
    let data = flags.get("data")?;
    let cfds = flags.get("cfds")?;
    let cfd_text = std::fs::read_to_string(cfds).map_err(|e| format!("{cfds}: {e}"));
    let table = table_name(flags, cfd_text.as_deref().unwrap_or_default());
    let loaded = semandaq::load_table(table, data).map_err(|e| e.to_string())?;
    Session::from_table(loaded, &cfd_text?).map_err(|e| e.to_string())
}

fn run(args: &[String], stdout: &mut dyn Write) -> Result<(), Stop> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.into());
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        writeln!(stdout, "{USAGE}")?;
        return Ok(());
    }
    // `watch` takes its file, `snapshot` its save/load verb, and
    // `metrics`/`profile` their HOST:PORT as a positional argument.
    let mut rest: Vec<String> = args[1..].to_vec();
    let mut positional = None;
    if matches!(cmd.as_str(), "watch" | "snapshot" | "metrics" | "profile")
        && rest.first().is_some_and(|a| !a.starts_with("--"))
    {
        positional = Some(rest.remove(0));
    }
    let flags = parse_flags(cmd, &rest)?;
    match cmd.as_str() {
        "generate" => {
            let rows: usize =
                flags.get_or("rows", "1000").parse().map_err(|_| "--rows must be an integer")?;
            let noise: f64 =
                flags.get_or("noise", "0.05").parse().map_err(|_| "--noise must be a float")?;
            let seed: u64 =
                flags.get_or("seed", "42").parse().map_err(|_| "--seed must be an integer")?;
            let out = PathBuf::from(flags.get("out")?);
            std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
            let (clean, dirty, cfds) = match flags.get_or("scenario", "customer") {
                "customer" => generate_customer_scenario(rows, noise, seed),
                "hospital" => semandaq::generate_hospital_scenario(rows, noise, seed),
                other => {
                    return Err(format!("unknown --scenario `{other}` (customer|hospital)").into())
                }
            };
            std::fs::write(out.join("clean.csv"), clean).map_err(|e| e.to_string())?;
            std::fs::write(out.join("dirty.csv"), dirty).map_err(|e| e.to_string())?;
            std::fs::write(out.join("cfds.txt"), cfds).map_err(|e| e.to_string())?;
            writeln!(stdout, "wrote clean.csv, dirty.csv, cfds.txt to {}", out.display())?;
            Ok(())
        }
        "detect" => {
            // `--jobs N` without an explicit engine implies the parallel
            // engine; `--jobs 0` means one shard per available core.
            let default_engine = if flags.contains("jobs") { "parallel" } else { "native" };
            let jobs: usize =
                flags.get_or("jobs", "0").parse().map_err(|_| "--jobs must be an integer")?;
            let engine = engine_by_name(flags.get_or("engine", default_engine), jobs)
                .map_err(|e| e.to_string())?;
            let explain = explain_mode(&flags)?;
            let datas = flags.get_all("data");
            // Repeated `--data name=path` flags (or a single one in
            // name=path form) build a multi-relation catalog job;
            // a bare `--data path` keeps the single-table behaviour.
            if datas.len() > 1 || datas.first().is_some_and(|d| d.contains('=')) {
                return detect_catalog(&flags, engine.as_ref(), explain, stdout);
            }
            let session = load_session(&flags)?;
            match explain {
                None => {
                    let report = session.detect(engine.as_ref()).map_err(|e| e.to_string())?;
                    write!(stdout, "{}", session.describe(&report, 25))?;
                }
                Some(mode) => {
                    // One profiled run — byte-identical report, plus the
                    // per-constraint profile (hot first).
                    let (report, profile) =
                        session.detect_explain(engine.as_ref()).map_err(|e| e.to_string())?;
                    if mode == ExplainMode::Json {
                        writeln!(stdout, "{}", profile.render_json())?;
                    } else {
                        write!(stdout, "{}", session.describe(&report, 25))?;
                        write!(stdout, "{}", profile.render_text())?;
                    }
                }
            }
            Ok(())
        }
        "repair" => {
            let session = load_session(&flags)?;
            // `--jobs N` shards both detection and equivalence-class
            // resolution (0 = one shard per core); the repaired table is
            // byte-identical at any shard count. Like `detect`, the
            // before-repair count runs on the parallel engine when
            // `--jobs` is given.
            let jobs: usize =
                flags.get_or("jobs", "1").parse().map_err(|_| "--jobs must be an integer")?;
            let engine_name = if flags.contains("jobs") { "parallel" } else { "native" };
            let engine = engine_by_name(engine_name, jobs).map_err(|e| e.to_string())?;
            let explain = explain_mode(&flags)?;
            let fixed = match explain {
                None => {
                    let before = session.detect(engine.as_ref()).map_err(|e| e.to_string())?;
                    let (fixed, summary) = session.repair(jobs).map_err(|e| e.to_string())?;
                    writeln!(
                        stdout,
                        "before: {} violation(s) [{} engine]",
                        before.len(),
                        engine.name()
                    )?;
                    writeln!(stdout, "repair: {summary}")?;
                    fixed
                }
                Some(mode) => {
                    let (fixed, summary, profile) =
                        session.repair_explain(jobs).map_err(|e| e.to_string())?;
                    if mode == ExplainMode::Json {
                        writeln!(stdout, "{}", profile.render_json())?;
                    } else {
                        writeln!(stdout, "repair: {summary}")?;
                        write!(stdout, "{}", profile.render_text())?;
                    }
                    fixed
                }
            };
            if let Ok(out) = flags.get("out") {
                std::fs::write(out, revival_relation::csv::write_table(&fixed))
                    .map_err(|e| e.to_string())?;
                // Stderr, so `--explain json` stdout stays pure JSON.
                note(format_args!("wrote {out}"));
            }
            Ok(())
        }
        "discover" => discover(&flags, stdout),
        "analyze" => {
            let session = load_session(&flags)?;
            let budget: usize = flags
                .get_or("budget", "2000000")
                .parse()
                .map_err(|_| "--budget must be an integer")?;
            write!(stdout, "{}", session.analyze(budget))?;
            Ok(())
        }
        "edit" => {
            let mut session = load_session(&flags)?;
            let before = session.detect(&NativeEngine).map_err(|e| e.to_string())?;
            for spec in &flags.sets {
                session.apply_edit(spec).map_err(|e| e.to_string())?;
            }
            let after = session.detect(&NativeEngine).map_err(|e| e.to_string())?;
            writeln!(
                stdout,
                "violations: {} -> {} after {} edit(s)",
                before.len(),
                after.len(),
                flags.sets.len()
            )?;
            write!(stdout, "{}", session.describe(&after, 25))?;
            if let Ok(out) = flags.get("out") {
                std::fs::write(out, revival_relation::csv::write_table(&session.table))
                    .map_err(|e| e.to_string())?;
                writeln!(stdout, "wrote {out}")?;
            }
            Ok(())
        }
        "snapshot" => snapshot(positional.as_deref(), &flags, stdout),
        "serve" => {
            let port: usize =
                flags.get_or("port", "7744").parse().map_err(|_| "--port must be an integer")?;
            let jobs: usize =
                flags.get_or("jobs", "0").parse().map_err(|_| "--jobs must be an integer")?;
            let workers: usize =
                flags.get_or("workers", "4").parse().map_err(|_| "--workers must be an integer")?;
            let shards: usize =
                flags.get_or("shards", "1").parse().map_err(|_| "--shards must be an integer")?;
            let checkpoint_ops: u64 = flags
                .get_or("checkpoint-ops", "0")
                .parse()
                .map_err(|_| "--checkpoint-ops must be an integer")?;
            let wal = flags.contains("wal");
            let wal_group_max_wait_us: u64 = flags
                .get_or("wal-group-max-wait", "0")
                .parse()
                .map_err(|_| "--wal-group-max-wait must be an integer (us)")?;
            let state = flags.get("state").ok().map(PathBuf::from);
            if wal && state.is_none() {
                return Err("--wal requires --state DIR (the log lives there)".into());
            }
            let slow_log_us = match flags.get("slow-log") {
                Ok(v) => Some(v.parse::<u64>().map_err(|_| "--slow-log must be an integer (us)")?),
                Err(_) => None,
            };
            let trace_out = flags.get("trace-out").ok().map(PathBuf::from);
            // With `--state DIR`, a previous run's checkpoints are
            // restored — and its WAL tails replayed on top — before
            // binding, so clients resume against the tables, suites,
            // and tuple ids they knew (including everything acked
            // after the last checkpoint, if the WAL was on).
            let opts = revival_stream::ServeOptions {
                jobs,
                shards,
                wal,
                checkpoint_ops,
                wal_group_max_wait_us,
                state: state.clone(),
                slow_log_us,
                trace_out: trace_out.clone(),
            };
            let (server, restored) =
                revival_stream::Server::bind_opts(&format!("127.0.0.1:{port}"), &opts)
                    .map_err(|e| e.to_string())?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            if restored.relations > 0 {
                writeln!(
                    stdout,
                    "restored {} relation(s) from {}",
                    restored.relations,
                    state.as_deref().map(|p| p.display().to_string()).unwrap_or_default()
                )?;
            }
            if restored.replayed > 0 || restored.torn_bytes > 0 {
                writeln!(
                    stdout,
                    "replayed {} WAL record(s) ({} torn byte(s) dropped)",
                    restored.replayed, restored.torn_bytes
                )?;
            }
            if restored.dropped_cinds > 0 {
                writeln!(
                    stdout,
                    "warning: dropped {} cind(s) split across shards by a shard-count change",
                    restored.dropped_cinds
                )?;
            }
            // Announce the bound address first (tests bind --port 0 and
            // read the ephemeral port back from this line).
            writeln!(
                stdout,
                "semandaq serve listening on {addr} ({workers} worker(s), {} shard(s))",
                shards.max(1)
            )?;
            stdout.flush()?;
            let summary = server.run(workers).map_err(|e| e.to_string())?;
            if let Some(dir) = &state {
                writeln!(
                    stdout,
                    "saved {} relation(s) to {}",
                    summary.saved_relations,
                    dir.display()
                )?;
            }
            if let Some(path) = &trace_out {
                writeln!(
                    stdout,
                    "wrote {} trace event(s) to {}",
                    summary.trace_events,
                    path.display()
                )?;
            }
            let by_verb: Vec<String> =
                summary.requests_by_verb.iter().map(|(verb, n)| format!("{verb}={n}")).collect();
            let groups = if summary.wal_group_commits > 0 {
                format!(
                    ", {} group commit(s), mean group size {:.1}",
                    summary.wal_group_commits,
                    summary.mean_group_size()
                )
            } else {
                String::new()
            };
            writeln!(
                stdout,
                "semandaq serve stopped (uptime {}s, {} request(s) [{}], {} checkpoint(s){groups})",
                summary.uptime_secs,
                summary.total_requests,
                by_verb.join(" "),
                summary.checkpoints
            )?;
            Ok(())
        }
        "metrics" => {
            let addr = positional
                .as_deref()
                .map(Ok)
                .unwrap_or_else(|| flags.get("addr"))
                .map_err(|_| "usage: semandaq metrics HOST:PORT [--watch SECS]".to_string())?
                .to_string();
            match flags.get("watch") {
                Ok(v) => {
                    let secs: u64 =
                        v.parse().map_err(|_| "--watch must be an integer (seconds)")?;
                    let iterations: u64 = flags
                        .get_or("iterations", "0")
                        .parse()
                        .map_err(|_| "--iterations must be an integer")?;
                    watch_metrics(&addr, secs.max(1), iterations, stdout)
                }
                Err(_) => fetch_metrics(&addr, stdout),
            }
        }
        "profile" => {
            let addr = positional
                .as_deref()
                .map(Ok)
                .unwrap_or_else(|| flags.get("addr"))
                .map_err(|_| "usage: semandaq profile HOST:PORT [--last N]".to_string())?
                .to_string();
            let last: u64 =
                flags.get_or("last", "8").parse().map_err(|_| "--last must be an integer")?;
            fetch_profiles(&addr, last, stdout)
        }
        "watch" => {
            let path = positional
                .as_deref()
                .map(Ok)
                .unwrap_or_else(|| flags.get("data"))
                .map_err(|_| "usage: semandaq watch FILE --cfds FILE [flags]".to_string())?
                .to_string();
            let cfd_path = flags.get("cfds")?;
            let poll_ms: u64 = flags
                .get_or("poll-ms", "200")
                .parse()
                .map_err(|_| "--poll-ms must be an integer")?;
            let idle_exit: usize = flags
                .get_or("idle-exit", "0")
                .parse()
                .map_err(|_| "--idle-exit must be an integer")?;
            let cfd_text =
                std::fs::read_to_string(cfd_path).map_err(|e| format!("{cfd_path}: {e}"))?;
            watch(&path, table_name(&flags, &cfd_text), &cfd_text, poll_ms, idle_exit, stdout)
        }
        _ => unreachable!("parse_flags rejects a command COMMAND_FLAGS does not list"),
    }
}

/// `semandaq discover`: profile a CSV (or a `--data name=path` catalog)
/// through the parallel [`revival_discovery`] engine layer — mine
/// FDs/CFDs level-wise (approximately, below `--min-confidence 1.0`),
/// vet the suite (minimal cover + satisfiability), lift violated INDs
/// to CIND candidates on catalogs, and print/emit everything in the
/// syntax `semandaq detect` reads back.
fn discover(flags: &Flags, stdout: &mut dyn Write) -> Result<(), Stop> {
    use revival_discovery::{discovery_by_name, DiscoverJob, DiscoverOptions};
    let jobs: usize = flags.get_or("jobs", "0").parse().map_err(|_| "--jobs must be an integer")?;
    // `--jobs N` without an explicit engine implies the parallel engine.
    let default_engine = if flags.contains("jobs") { "parallel" } else { "sequential" };
    let engine_name = flags.get_or("engine", default_engine);
    let options = DiscoverOptions {
        min_support: flags
            .get_or("min-support", "3")
            .parse()
            .map_err(|_| "--min-support must be an integer")?,
        min_confidence: flags
            .get_or("min-confidence", "1.0")
            .parse()
            .ok()
            .filter(|c: &f64| *c > 0.0 && *c <= 1.0)
            .ok_or("--min-confidence must be a number in (0, 1]")?,
        max_lhs: flags
            .get_or("max-lhs", "2")
            .parse()
            .map_err(|_| "--max-lhs must be an integer")?,
        top_values: flags
            .get_or("top-values", "8")
            .parse()
            .map_err(|_| "--top-values must be an integer")?,
        vet_budget: flags
            .get_or("budget", "50000")
            .parse()
            .map_err(|_| "--budget must be an integer")?,
        jobs,
    };
    let engine = discovery_by_name(engine_name).map_err(|e| e.to_string())?;

    // Load the data: repeated `--data name=path` flags build a catalog
    // (enabling CIND discovery); a bare `--data path` profiles one
    // table named by `--table`.
    let datas = flags.get_all("data");
    let multi = datas.len() > 1 || datas.first().is_some_and(|d| d.contains('='));
    let (catalog, schemas) = if multi {
        load_catalog(datas)?
    } else {
        let path = flags.get("data")?;
        let name = flags.get_or("table", "customer");
        let table = semandaq::load_table(name, path).map_err(|e| e.to_string())?;
        let schemas = vec![table.schema().clone()];
        let mut catalog = revival_relation::Catalog::new();
        catalog.register(table);
        (catalog, schemas)
    };
    let job = if multi {
        DiscoverJob::on_catalog(&catalog, options)
    } else {
        DiscoverJob::on_table(catalog.get(schemas[0].name()).map_err(|e| e.to_string())?, options)
    };
    let explain = explain_mode(flags)?;
    let json_only = explain == Some(ExplainMode::Json);
    let (d, profile) = match explain {
        None => (engine.run(&job).map_err(|e| e.to_string())?, None),
        Some(_) => {
            let (d, p) = engine.run_profiled(&job).map_err(|e| e.to_string())?;
            (d, Some(p))
        }
    };
    // The vetted suite is rendered once: the summary lists its head and
    // `--emit` writes all of it.
    let emit = flags.get("emit").ok();
    let suite = match (json_only, emit) {
        (true, None) => String::new(),
        _ => semandaq::discovered_cfd_text(&d, &schemas).map_err(|e| e.to_string())?,
    };
    // `--emit` writes only what `detect --cfds` can read back.
    if emit.is_some() {
        for cfd in &d.vetted {
            let schema = schemas.iter().find(|s| s.name() == cfd.relation);
            let schema = schema.expect("discovered_cfd_text resolved every relation");
            let writable = revival_constraints::parser::check_writable(cfd, schema);
            writable.map_err(|e| format!("--emit: {e}"))?;
        }
    }
    if json_only {
        writeln!(
            stdout,
            "{}",
            profile.as_ref().expect("json mode implies a profile").render_json()
        )?;
    } else {
        let summary = semandaq::describe_discovered(&d, &suite, &schemas, 40);
        write!(stdout, "{}", summary.map_err(|e| e.to_string())?)?;
        if let Some(p) = &profile {
            write!(stdout, "{}", p.render_text())?;
        }
    }
    if let Some(out) = emit {
        std::fs::write(out, suite).map_err(|e| e.to_string())?;
        // Stderr when `--explain json`, so stdout stays pure JSON.
        if json_only {
            note(format_args!("wrote {out}"));
        } else {
            writeln!(stdout, "wrote {out}")?;
        }
    }
    if let Ok(out) = flags.get("emit-cinds") {
        let text = semandaq::discovered_cind_text(&d, &schemas).map_err(|e| e.to_string())?;
        std::fs::write(out, text).map_err(|e| e.to_string())?;
        if json_only {
            note(format_args!("wrote {out}"));
        } else {
            writeln!(stdout, "wrote {out}")?;
        }
    }
    Ok(())
}

/// One request/response round trip against a serve tier, with clear
/// one-line errors when nothing is listening: connection refused,
/// resolution failure, and timeouts each say what happened and where,
/// instead of dumping a raw OS error.
fn serve_roundtrip(
    addr: &str,
    request: &revival_stream::Request,
) -> Result<revival_stream::Response, String> {
    use std::io::{BufRead, BufReader};
    use std::net::ToSocketAddrs;
    let unresolved = || format!("cannot resolve `{addr}` (want HOST:PORT, e.g. 127.0.0.1:7744)");
    let sock = addr.to_socket_addrs().map_err(|_| unresolved())?.next().ok_or_else(unresolved)?;
    let stream = std::net::TcpStream::connect_timeout(&sock, std::time::Duration::from_secs(5))
        .map_err(|e| match e.kind() {
            ErrorKind::ConnectionRefused => {
                format!("no semandaq serve listening on {addr} (connection refused)")
            }
            ErrorKind::TimedOut => format!("connecting to {addr} timed out after 5s"),
            _ => format!("{addr}: {e}"),
        })?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer.write_all(request.to_line().as_bytes()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            format!("{addr}: timed out waiting for a response (10s)")
        }
        _ => format!("{addr}: {e}"),
    })?;
    let response = revival_stream::Response::parse(line.trim_end()).map_err(|e| e.to_string())?;
    if !response.is_ok() {
        return Err(response.str("error").unwrap_or("request failed").to_string());
    }
    Ok(response)
}

/// `semandaq metrics HOST:PORT`: one round trip of the line-delimited
/// JSON protocol — send the `metrics` verb, print the server's uptime
/// and the Prometheus-style text exposition it returns. The full
/// integer-valued JSON registry rides the same response under `json`
/// for scripts that want structure instead.
fn fetch_metrics(addr: &str, stdout: &mut dyn Write) -> Result<(), Stop> {
    let response = serve_roundtrip(addr, &revival_stream::Request::Metrics { window_secs: 0 })?;
    if let Some(uptime) = response.int("uptime_secs") {
        writeln!(stdout, "# uptime_secs {uptime}")?;
    }
    if let Some(shards) = response.int("shards") {
        writeln!(stdout, "# shards {shards}")?;
    }
    write!(stdout, "{}", response.str("text").unwrap_or_default())?;
    Ok(())
}

/// `semandaq metrics HOST:PORT --watch SECS`: poll the windowed
/// `metrics` verb every SECS seconds and redraw the server's rates/sec
/// and windowed p50/p99 latencies in place (ANSI clear + home). Each
/// poll pushes one registry snapshot server-side; the window renders
/// between the newest snapshot and the oldest one inside the trailing
/// SECS-second window, so the first poll only collects.
fn watch_metrics(
    addr: &str,
    secs: u64,
    iterations: u64,
    stdout: &mut dyn Write,
) -> Result<(), Stop> {
    let mut round = 0u64;
    loop {
        let response =
            serve_roundtrip(addr, &revival_stream::Request::Metrics { window_secs: secs })?;
        round += 1;
        let uptime = response.int("uptime_secs").unwrap_or(0);
        let shards = response.int("shards").unwrap_or(0);
        let body = match response.str("windowed") {
            Some(w) => w.to_string(),
            None => format!("collecting the first {secs}s window…\n"),
        };
        write!(stdout, "\x1b[2J\x1b[H")?;
        writeln!(
            stdout,
            "semandaq metrics --watch {secs}s — {addr} \
             (uptime {uptime}s, {shards} shard(s), poll #{round})"
        )?;
        write!(stdout, "{body}")?;
        stdout.flush()?;
        if iterations > 0 && round >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

/// `semandaq profile HOST:PORT [--last N]`: print the per-request phase
/// profiles of the serve tier's last N requests, newest first — one
/// line per request, phases summing exactly to its total.
fn fetch_profiles(addr: &str, last: u64, stdout: &mut dyn Write) -> Result<(), Stop> {
    let response = serve_roundtrip(addr, &revival_stream::Request::Profile { last })?;
    let count = response.int("count").unwrap_or(0);
    writeln!(stdout, "# last {count} request(s), newest first")?;
    write!(stdout, "{}", response.str("text").unwrap_or_default())?;
    Ok(())
}

/// `semandaq snapshot save|load`: convert any `--data` file (CSV or
/// `.sdq`) into a columnar snapshot, or open a snapshot and report what
/// it holds — the save path compacts the value pool, so it doubles as
/// an offline vacuum for long-lived state directories.
fn snapshot(verb: Option<&str>, flags: &Flags, stdout: &mut dyn Write) -> Result<(), Stop> {
    match verb {
        Some("save") => {
            let data = flags.get("data")?;
            let name = flags.get_or("table", "customer");
            let out = flags.get("out")?;
            let table = semandaq::load_table(name, data).map_err(|e| e.to_string())?;
            table.save_snapshot(std::path::Path::new(out)).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            writeln!(
                stdout,
                "wrote {out}: {} row(s) × {} attr(s), {bytes} byte(s)",
                table.len(),
                table.schema().arity()
            )?;
            Ok(())
        }
        Some("load") => {
            let data = flags.get("data")?;
            let start = std::time::Instant::now();
            let table = revival_relation::Table::open_snapshot(std::path::Path::new(data))
                .map_err(|e| e.to_string())?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            writeln!(
                stdout,
                "{data}: relation `{}`, {} row(s) × {} attr(s), {} pooled value(s), \
                 opened in {ms:.2} ms",
                table.schema().name(),
                table.len(),
                table.schema().arity(),
                table.pool().len()
            )?;
            Ok(())
        }
        _ => Err("usage: semandaq snapshot save --data FILE --out FILE.sdq | \
                  snapshot load --data FILE.sdq"
            .into()),
    }
}

/// Build a catalog from repeated `--data name=path` specs — shared by
/// the multi-relation paths of `detect` and `discover`.
fn load_catalog(
    specs: &[String],
) -> Result<(revival_relation::Catalog, Vec<revival_relation::Schema>), String> {
    let mut catalog = revival_relation::Catalog::new();
    let mut schemas = Vec::new();
    for spec in specs {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--data `{spec}`: multi-relation jobs want name=path"))?;
        let table = semandaq::load_table(name, path).map_err(|e| e.to_string())?;
        schemas.push(table.schema().clone());
        catalog.register(table);
    }
    Ok((catalog, schemas))
}

/// Multi-relation `detect`: `--data name=path` flags become a catalog,
/// `--cfds` may span relations, `--cinds` (optional) adds inclusion
/// dependencies — the engine-supported `DetectJob::with_cinds` path.
fn detect_catalog(
    flags: &Flags,
    engine: &dyn Detector,
    explain: Option<ExplainMode>,
    stdout: &mut dyn Write,
) -> Result<(), Stop> {
    use revival_detect::{native::describe_listing, DetectJob, ViolationReport};
    let (catalog, schemas) = load_catalog(flags.get_all("data"))?;
    let cfd_path = flags.get("cfds")?;
    let cfd_text = std::fs::read_to_string(cfd_path).map_err(|e| format!("{cfd_path}: {e}"))?;
    let cfds = revival_constraints::parser::parse_cfds_multi(&cfd_text, &schemas)
        .map_err(|e| e.to_string())?;
    let cinds = match flags.get("cinds") {
        Ok(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            revival_constraints::parser::parse_cinds(&text, &schemas).map_err(|e| e.to_string())?
        }
        Err(_) => Vec::new(),
    };
    let job = DetectJob::on_catalog(&catalog, &cfds).with_cinds(&cinds);
    let schemas: Vec<_> = schemas.iter().collect();
    let describe = |report: &ViolationReport| {
        describe_listing(&report.listing(&cfds, &cinds, 25), &cfds, &cinds, &schemas, true)
    };
    match explain {
        None => {
            let report = engine.run(&job).map_err(|e| e.to_string())?;
            write!(stdout, "{}", describe(&report))?;
        }
        Some(mode) => {
            let (report, profile) = engine.run_profiled(&job).map_err(|e| e.to_string())?;
            if mode == ExplainMode::Json {
                writeln!(stdout, "{}", profile.render_json())?;
            } else {
                write!(stdout, "{}", describe(&report))?;
                write!(stdout, "{}", profile.render_text())?;
            }
        }
    }
    Ok(())
}

/// Tail a growing CSV: load the base once, then feed only appended
/// bytes through a [`revival_stream::CsvTail`] into a
/// [`revival_stream::DeltaSession`] — each appended row costs `O(|Σ|)`,
/// never a base rescan.
fn watch(
    path: &str,
    table_name: &str,
    cfd_text: &str,
    poll_ms: u64,
    idle_exit: usize,
    stdout: &mut dyn Write,
) -> Result<(), Stop> {
    use revival_stream::{CsvTail, DeltaSession};
    use std::io::{Read, Seek, SeekFrom};

    let base_text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The snapshot may have caught the writer mid-append: only lines
    // ending in '\n' are base rows; a trailing fragment starts the
    // tail's partial-line buffer instead.
    let complete = match base_text.ends_with('\n') {
        true => base_text.len(),
        false => base_text.rfind('\n').map(|i| i + 1).unwrap_or(0),
    };
    let table = revival_relation::csv::read_table_infer(table_name, &base_text[..complete])
        .map_err(|e| e.to_string())?;
    let schema = table.schema().clone();
    let cfds =
        revival_constraints::parser::parse_cfds(cfd_text, &schema).map_err(|e| e.to_string())?;
    let base_rows = table.len();
    let base_lines = base_text[..complete].lines().count();
    let mut session = DeltaSession::new(1);
    session.register(table, cfds).map_err(|e| e.to_string())?;
    let mut count = session.violation_count().map_err(|e| e.to_string())?;
    writeln!(stdout, "watching {path}: {base_rows} row(s), {count} violation(s)")?;
    let mut tail = CsvTail::new(schema, base_lines + 1);
    tail.feed(&base_text[complete..]).map_err(|e| e.to_string())?;
    let mut offset = base_text.len() as u64;
    let mut idle = 0usize;
    let mut appended = 0usize;
    let mut batches = 0usize;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        let len = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?.len();
        if len < offset {
            return Err(format!(
                "{path}: file shrank ({len} < {offset}); watch only tails appends"
            )
            .into());
        }
        if len == offset {
            idle += 1;
            if idle_exit > 0 && idle >= idle_exit {
                break;
            }
            continue;
        }
        let mut file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        file.seek(SeekFrom::Start(offset)).map_err(|e| e.to_string())?;
        let mut bytes = Vec::new();
        file.take(len - offset).read_to_end(&mut bytes).map_err(|e| e.to_string())?;
        // The poll may have split a multi-byte UTF-8 character: feed the
        // valid prefix now, leave the split character for the next poll.
        let chunk = match std::str::from_utf8(&bytes) {
            Ok(s) => s,
            Err(e) if e.error_len().is_none() => {
                std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default()
            }
            Err(e) => {
                return Err(format!(
                    "{path}: invalid UTF-8 at byte {}",
                    offset + e.valid_up_to() as u64
                )
                .into())
            }
        };
        if chunk.is_empty() {
            // Only a split character arrived; treat the poll as idle so
            // `--idle-exit` still fires on a wedged writer.
            idle += 1;
            if idle_exit > 0 && idle >= idle_exit {
                break;
            }
            continue;
        }
        idle = 0;
        offset += chunk.len() as u64;
        let rows = tail.feed(chunk).map_err(|e| e.to_string())?;
        if rows.is_empty() {
            continue;
        }
        batches += 1;
        for row in rows {
            let id = session.insert(table_name, row).map_err(|e| e.to_string())?;
            appended += 1;
            let now = session.violation_count().map_err(|e| e.to_string())?;
            if now > count {
                writeln!(stdout, "  {id}: +{} violation(s) (total {now})", now - count)?;
            }
            count = now;
        }
        writeln!(stdout, "+{appended} row(s) total: {count} violation(s)")?;
        stdout.flush()?;
    }
    writeln!(stdout, "watch: {appended} appended row(s) in {batches} batch(es)")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag `USAGE` shows under a command — in its synopsis or its
    /// description — is in that command's row of [`COMMAND_FLAGS`], and
    /// the two name the same commands.
    #[test]
    fn usage_flags_are_in_their_command_tables() {
        let listing = USAGE.split("commands:\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut commands: Vec<&str> = Vec::new();
        let mut flags_seen = 0;
        for line in listing.lines() {
            // A command's first line starts at column 2; the lines
            // continuing it are indented further.
            if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let cmd = head.split_whitespace().next().unwrap();
                if commands.last() != Some(&cmd) {
                    commands.push(cmd);
                }
            }
            let cmd = *commands.last().expect("USAGE opens with a command line");
            let allowed: Vec<&str> = COMMAND_FLAGS
                .iter()
                .find(|(c, _)| *c == cmd)
                .unwrap_or_else(|| panic!("`{cmd}` is in USAGE but has no flag table"))
                .1
                .split_whitespace()
                .collect();
            for after in line.split("--").skip(1) {
                let name: String =
                    after.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-').collect();
                assert!(allowed.contains(&name.as_str()), "USAGE shows `{cmd} --{name}`");
                flags_seen += 1;
            }
        }
        let tabled: Vec<&str> = COMMAND_FLAGS.iter().map(|(c, _)| *c).collect();
        assert_eq!(commands, tabled);
        assert!(flags_seen > 50, "parsed {flags_seen} flags out of USAGE");
    }
}
