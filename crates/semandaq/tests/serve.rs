//! End-to-end tests of `semandaq serve`: spawn the binary on an
//! ephemeral port, drive round trips through a TCP client speaking the
//! line-delimited JSON protocol, and exercise the durability story —
//! clean shutdown, `kill -9` + WAL replay, and malformed input. CI
//! runs this file as its serve smoke step.

use revival_stream::{Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn spawn_server_args(
    extra: &[&str],
) -> (Child, std::net::SocketAddr, BufReader<std::process::ChildStdout>) {
    let mut args = vec!["serve", "--port", "0", "--workers", "2"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_semandaq"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Restore/replay notes may precede the "listening on" banner; scan
    // until the bound address appears. The reader is handed back so the
    // pipe stays open for the server's exit banner.
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            panic!("server exited before announcing an address; stdout: {seen:?}");
        }
        seen.push_str(&line);
        if let Some(addr) =
            line.split_whitespace().find_map(|w| w.parse::<std::net::SocketAddr>().ok())
        {
            break addr;
        }
        assert!(seen.len() < 64 * 1024, "no address in banner: {seen:?}");
    };
    (child, addr, reader)
}

fn spawn_server() -> (Child, std::net::SocketAddr, BufReader<std::process::ChildStdout>) {
    spawn_server_args(&[])
}

fn temp_state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("semandaq_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn call(&mut self, req: &Request) -> Response {
        self.stream.write_all(req.to_line().as_bytes()).unwrap();
        self.stream.flush().unwrap();
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => panic!("server closed the connection"),
                Ok(_) if line.ends_with('\n') => break,
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        Response::parse(&line).unwrap()
    }
}

#[test]
fn serve_round_trip_and_clean_shutdown() {
    let (mut child, addr, mut server_stdout) = spawn_server();
    let mut client = Client::connect(addr);

    let resp = client.call(&Request::Register {
        table: "customer".into(),
        csv: "cc,zip,street\n44,EH8,Crichton\n01,07974,Mtn\n".into(),
        cfds: "customer([cc='44', zip] -> [street])".into(),
    });
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.int("rows"), Some(2));
    assert_eq!(resp.int("violations"), Some(0));

    let resp =
        client.call(&Request::Append { table: "customer".into(), row: "44,EH8,Mayfield".into() });
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.int("violations"), Some(1));
    let appended = resp.int("tuple").unwrap() as u64;

    // A second concurrent client observes the same live state.
    let mut other = Client::connect(addr);
    let resp = other.call(&Request::Count);
    assert_eq!(resp.int("violations"), Some(1));

    let resp = client.call(&Request::Report { max: 10 });
    assert!(resp.str("text").unwrap().contains("disagree on street"), "{resp:?}");

    // Fixing the appended tuple by hand clears the violation…
    let resp = client.call(&Request::Update {
        table: "customer".into(),
        tuple: appended,
        attr: "street".into(),
        value: "Crichton".into(),
    });
    assert_eq!(resp.int("violations"), Some(0));
    // …and breaking it again lets `repair` fix it incrementally.
    let resp = client.call(&Request::Update {
        table: "customer".into(),
        tuple: appended,
        attr: "street".into(),
        value: "Mayfield".into(),
    });
    assert_eq!(resp.int("violations"), Some(1));
    let resp = client.call(&Request::Repair { table: "customer".into() });
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.int("violations"), Some(0));

    // Unknown relations error without dropping the connection.
    let resp = client.call(&Request::Append { table: "orders".into(), row: "1".into() });
    assert!(!resp.is_ok());

    // `discover` mines a suite from the session's (repaired) state and
    // answers it in parse syntax; registering it keeps the session
    // clean (the mined rules hold on the data they were mined from).
    let resp = client.call(&Request::Discover {
        table: "customer".into(),
        min_support: 2,
        max_lhs: 2,
        confidence_pct: 100,
        register: true,
    });
    assert!(resp.is_ok(), "{resp:?}");
    assert!(resp.int("rules").unwrap() > 0, "{resp:?}");
    assert!(resp.str("text").unwrap().contains("customer(["), "{resp:?}");
    assert_eq!(resp.str("satisfiable"), Some("yes"));
    assert_eq!(resp.int("violations"), Some(0), "{resp:?}");

    let resp = client.call(&Request::Shutdown);
    assert!(resp.is_ok());
    let status = child.wait().unwrap();
    assert!(status.success(), "server exited with {status:?}");
    let mut rest = String::new();
    server_stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("stopped"), "missing exit banner: {rest:?}");
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.is_empty(), "stderr: {err}");
}

/// The WAL acceptance test: every acked op survives `kill -9`.
#[test]
fn kill_nine_loses_nothing_acked() {
    let dir = temp_state_dir("kill9");
    let state = dir.to_str().unwrap().to_string();
    let args = ["--state", state.as_str(), "--wal", "--shards", "2"];

    let (mut child, addr, _stdout) = spawn_server_args(&args);
    let mut client = Client::connect(addr);
    let resp = client.call(&Request::Register {
        table: "customer".into(),
        csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
        cfds: "customer([cc, zip] -> [street])".into(),
    });
    assert!(resp.is_ok(), "{resp:?}");
    // Three acked appends (two of them violating), never checkpointed.
    for row in ["44,EH8,Mayfield", "44,EH8,Nicolson", "01,07974,Mtn"] {
        let resp = client.call(&Request::Append { table: "customer".into(), row: (*row).into() });
        assert!(resp.is_ok(), "{resp:?}");
    }
    let resp = client.call(&Request::Count);
    let before = resp.int("violations").unwrap();
    assert!(before > 0, "{resp:?}");

    // SIGKILL: no shutdown, no save_state, no flush — only the WAL.
    child.kill().unwrap();
    child.wait().unwrap();

    let (mut child, addr, mut stdout) = spawn_server_args(&args);
    let mut client = Client::connect(addr);
    let resp = client.call(&Request::Count);
    assert_eq!(resp.int("violations"), Some(before), "acked ops lost across kill -9");
    // The restored state keeps serving: a fresh conflicting group
    // lands on the same table with the same suite.
    let resp =
        client.call(&Request::Append { table: "customer".into(), row: "01,07974,Other".into() });
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.int("violations"), Some(before + 1), "one new violated group");

    let resp = client.call(&Request::Shutdown);
    assert!(resp.is_ok());
    assert!(child.wait().unwrap().success());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("saved"), "shutdown checkpoint banner missing: {rest:?}");

    // Third boot leans on the shutdown checkpoint (WAL truncated).
    let (mut child, addr, _stdout) = spawn_server_args(&args);
    let mut client = Client::connect(addr);
    let resp = client.call(&Request::Count);
    assert_eq!(resp.int("violations"), Some(before + 1));
    client.call(&Request::Shutdown);
    child.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Malformed input end-to-end: a CSV with a duplicate header (it used
/// to trip a schema assertion and panic under the shard lock) answers
/// a typed error, and the connection and the server keep working.
/// Panic containment itself is covered in-process, with a planted
/// panic, by `revival_stream`'s server tests.
#[test]
fn duplicate_header_register_answers_a_csv_error() {
    let (mut child, addr, _stdout) = spawn_server();
    let mut client = Client::connect(addr);
    let resp = client.call(&Request::Register {
        table: "dup".into(),
        csv: "a,a\n1,2\n".into(),
        cfds: String::new(),
    });
    assert!(!resp.is_ok(), "{resp:?}");
    let error = resp.str("error").unwrap();
    assert!(error.contains("csv error at line 1: duplicate column `a`"), "{resp:?}");
    assert!(!error.contains("panicked"), "{resp:?}");

    let resp = client.call(&Request::Register {
        table: "customer".into(),
        csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
        cfds: "customer([cc, zip] -> [street])".into(),
    });
    assert!(resp.is_ok(), "healthy op after the bad one: {resp:?}");
    let resp =
        client.call(&Request::Append { table: "customer".into(), row: "44,EH8,Mayfield".into() });
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.int("violations"), Some(1));

    let resp = client.call(&Request::Shutdown);
    assert!(resp.is_ok());
    assert!(child.wait().unwrap().success());
}

/// `discover` mines the session's live rows: after deletes leave
/// tombstones in the table, its reply is the one a fresh server gives
/// for the surviving rows registered densely.
#[test]
fn discover_after_deletes_equals_discover_of_the_survivors() {
    let row = |i: usize| {
        let zip = ["EH8", "G1", "07974", "10001", "W1"][i % 5];
        let cc = if i % 5 < 2 { "44" } else { "01" };
        // zip → street holds under cc = 44 only; every 11th city is noise.
        let street = if cc == "44" { zip.to_lowercase() } else { format!("s{}", i % 3) };
        let city = if i.is_multiple_of(11) { "noise".to_string() } else { format!("c{}", i % 5) };
        format!("{cc},{zip},{street},{city}\n")
    };
    let header = "cc,zip,street,city\n";
    let all: String = std::iter::once(header.to_string()).chain((0..70).map(row)).collect();
    let survivors: String = std::iter::once(header.to_string())
        .chain((0..70).filter(|i: &usize| !i.is_multiple_of(7)).map(row))
        .collect();
    let discover = Request::Discover {
        table: "customer".into(),
        min_support: 2,
        max_lhs: 2,
        confidence_pct: 90,
        register: false,
    };
    let mut replies = Vec::new();
    for (csv, deleted) in [(all, true), (survivors, false)] {
        let (mut child, addr, _stdout) = spawn_server();
        let mut client = Client::connect(addr);
        let resp =
            client.call(&Request::Register { table: "customer".into(), csv, cfds: String::new() });
        assert!(resp.is_ok(), "{resp:?}");
        if deleted {
            for tuple in (0..70).step_by(7) {
                let resp = client.call(&Request::Delete { table: "customer".into(), tuple });
                assert!(resp.is_ok(), "{resp:?}");
            }
        }
        replies.push(client.call(&discover));
        assert!(client.call(&Request::Shutdown).is_ok());
        assert!(child.wait().unwrap().success());
    }
    assert!(replies[0].is_ok() && replies[0].int("rules").unwrap() > 0, "{:?}", replies[0]);
    assert_eq!(replies[0], replies[1]);
}

/// The observability acceptance test: after a scripted op sequence
/// against a WAL-backed server, the `metrics` verb surfaces per-verb
/// request histograms, WAL fsync and checkpoint timings, read
/// counters, and the CSV ingest counters — and the
/// `--trace-out` file the shutdown writes is well-formed Chrome-trace
/// JSON.
#[test]
fn metrics_verb_surfaces_the_full_registry() {
    let dir = temp_state_dir("metrics");
    let state = dir.to_str().unwrap().to_string();
    let trace = dir.join("trace.json");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = trace.to_str().unwrap().to_string();
    let args =
        ["--state", state.as_str(), "--wal", "--shards", "1", "--trace-out", trace_path.as_str()];
    let (mut child, addr, mut server_stdout) = spawn_server_args(&args);

    let mut client = Client::connect(addr);
    let resp = client.call(&Request::Register {
        table: "customer".into(),
        csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
        cfds: "customer([cc, zip] -> [street])".into(),
    });
    assert!(resp.is_ok(), "{resp:?}");
    let resp =
        client.call(&Request::Append { table: "customer".into(), row: "44,EH8,Mayfield".into() });
    assert!(resp.is_ok(), "{resp:?}");
    assert!(client.call(&Request::Count).is_ok());
    assert!(client.call(&Request::Count).is_ok());
    assert!(client.call(&Request::Checkpoint).is_ok());
    let mut fresh = Client::connect(addr);
    let resp =
        fresh.call(&Request::Append { table: "customer".into(), row: "01,07974,Mtn".into() });
    assert!(resp.is_ok(), "append on a second connection: {resp:?}");

    let resp = fresh.call(&Request::Metrics { window_secs: 0 });
    assert!(resp.is_ok(), "{resp:?}");
    assert!(resp.int("uptime_secs").is_some());
    assert_eq!(resp.int("shards"), Some(1));
    // The registry JSON nests one level deeper than the flat protocol
    // parser handles, so assert its shape textually here; the CI smoke
    // step json.loads()es it for real.
    let json = resp.str("json").unwrap();
    assert!(json.starts_with('{') && json.ends_with('}'), "not an object: {json}");
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(json.contains(section), "registry json missing {section}: {json}");
    }
    let text = resp.str("text").unwrap();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    };
    // Per-verb request histograms with quantiles.
    assert!(counter("serve_requests_total{verb=\"register\"}") >= 1);
    assert!(counter("serve_requests_total{verb=\"append\"}") >= 2);
    assert!(counter("serve_request_us_count{verb=\"append\"}") >= 2);
    assert!(text.contains("serve_request_us{verb=\"append\",quantile=\"0.5\"}"), "{text}");
    assert!(text.contains("serve_request_us{verb=\"append\",quantile=\"0.99\"}"), "{text}");
    // WAL fsync and checkpoint timings.
    assert!(counter("wal_fsync_us_count") >= 2, "wal fsync histogram empty");
    assert!(counter("serve_checkpoint_us_count") >= 1);
    assert!(counter("serve_checkpoints_total") >= 1);
    // Reads are counted per verb.
    assert!(counter("serve_requests_total{verb=\"count\"}") >= 2);
    // Ingest is counted (the register's one data row, its CSV bytes).
    assert!(counter("csv_ingest_rows_total") >= 1);
    assert!(counter("csv_ingest_bytes_total") >= 30);
    assert!(counter("csv_ingest_us_count") >= 1);
    // Per-phase timing reached the histograms.
    assert!(counter("serve_phase_us_count{phase=\"apply\"}") >= 1);
    assert!(counter("serve_phase_us_count{phase=\"wal_append\"}") >= 1);

    assert!(fresh.call(&Request::Shutdown).is_ok());
    assert!(child.wait().unwrap().success());

    // The exit banner carries uptime, per-verb tallies, and the
    // checkpoint count.
    let mut rest = String::new();
    server_stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("uptime"), "summary missing uptime: {rest:?}");
    assert!(rest.contains("append="), "summary missing verb tallies: {rest:?}");
    assert!(rest.contains("checkpoint(s)"), "summary missing checkpoints: {rest:?}");
    assert!(rest.contains("trace event(s)"), "summary missing trace note: {rest:?}");

    // The trace file parses: a JSON array of flat objects, one per
    // line, each a complete Chrome-trace event.
    let body = std::fs::read_to_string(&trace).unwrap();
    let inner = body.trim();
    assert!(inner.starts_with('[') && inner.ends_with(']'), "not an array: {inner:?}");
    let mut events = 0;
    for line in inner[1..inner.len() - 1].lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let event = revival_stream::protocol::parse_object(line)
            .unwrap_or_else(|e| panic!("bad trace event {line:?}: {e}"));
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
            assert!(event.iter().any(|(k, _)| k == key), "event missing {key}: {line:?}");
        }
        events += 1;
    }
    assert!(events > 0, "trace file has no events");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--slow-log 0` logs every request with its per-phase breakdown and
/// counts it in `serve_slow_requests_total`.
#[test]
fn slow_log_triggers_at_threshold() {
    let (mut child, addr, _stdout) = spawn_server_args(&["--slow-log", "0"]);
    let mut client = Client::connect(addr);
    let resp = client.call(&Request::Register {
        table: "customer".into(),
        csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
        cfds: "customer([cc, zip] -> [street])".into(),
    });
    assert!(resp.is_ok(), "{resp:?}");

    let resp = client.call(&Request::Metrics { window_secs: 0 });
    let text = resp.str("text").unwrap();
    let slow: u64 = text
        .lines()
        .find(|l| l.starts_with("serve_slow_requests_total "))
        .expect("slow counter missing")
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(slow >= 1, "slow-log never fired: {text}");

    assert!(client.call(&Request::Shutdown).is_ok());
    assert!(child.wait().unwrap().success());
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.contains("slow request verb=register"), "stderr: {err:?}");
    assert!(err.contains("apply="), "no phase breakdown: {err:?}");
}
