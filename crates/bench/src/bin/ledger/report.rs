//! What a run prints: the methodology header, every metric by name
//! with its unit and spread, the result document `compare` reads, and
//! the one-line result the driver reads.

use crate::batch::{nproc, Scale};
use crate::json::Json;
use crate::run::RunResult;
use std::fmt::Write as _;
use std::path::Path;

/// How the numbers were made — printed with every run.
pub struct Header {
    pub fields: Vec<(&'static str, String)>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Device and filesystem type `path` lives on, from `/proc/mounts`
/// (longest mount point that prefixes the path).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), format!("{fs} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, desc)| desc)
}

pub fn header(seed: u64, scale: Scale, seconds: f64, scratch: &Path) -> Header {
    let _ = std::fs::create_dir_all(scratch);
    Header {
        fields: vec![
            ("git_rev", command_line("git", &["rev-parse", "--short", "HEAD"])),
            ("rustc", command_line("rustc", &["-V"])),
            ("nproc", nproc().to_string()),
            ("seed", seed.to_string()),
            ("scale", scale.as_str().to_string()),
            ("seconds", seconds.to_string()),
            ("scratch_fs", filesystem_of(scratch)),
        ],
    }
}

fn fields_json<'a>(fields: impl IntoIterator<Item = &'a (&'static str, String)>) -> Json {
    Json::obj(fields.into_iter().map(|(k, v)| (*k, Json::str(v.as_str()))))
}

/// The human-readable report of one run.
pub fn text(header: &Header, r: &RunResult) -> String {
    let mut out = String::new();
    let kind = if r.traced { "per-layer (traced)" } else { "end-to-end (untraced)" };
    let _ = writeln!(out, "ledger: {} — {kind}", r.workload);
    for (k, v) in header.fields.iter().chain(&r.method) {
        let _ = writeln!(out, "  {k:<20} {v}");
    }
    let _ = writeln!(out, "  {:<20} {:#018x}", "input_fnv64", r.input_fnv64);
    let _ = writeln!(out, "  {:<20} {} attempted, {} failed", "operations", r.attempted, r.failed);
    let width = r.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in &r.metrics {
        let s = &m.summary;
        let _ = write!(out, "  {:<width$}  {:>16.6} {:<7}", m.name, m.value, m.unit);
        if s.n > 1 {
            let _ = write!(
                out,
                " n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}",
                s.n, s.min, s.q1, s.median, s.q3, s.max
            );
        }
        out.push('\n');
    }
    for note in &r.notes {
        let _ = writeln!(out, "  FAILED: {note}");
    }
    out
}

fn run_json(r: &RunResult) -> Json {
    let metrics = r.metrics.iter().map(|m| {
        let s = &m.summary;
        let fields = Json::obj([
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("max", Json::Num(s.max)),
        ]);
        (m.name.clone(), fields)
    });
    Json::obj([
        ("workload", Json::str(r.workload)),
        ("traced", Json::Bool(r.traced)),
        ("input_fnv64", Json::str(format!("{:#018x}", r.input_fnv64))),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("notes", Json::Arr(r.notes.iter().map(|n| Json::str(n.as_str())).collect())),
        ("method", fields_json(&r.method)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The result document: header plus one entry per run.
pub fn document(header: &Header, runs: &[RunResult]) -> Json {
    Json::obj([
        ("ledger", Json::Num(1.0)),
        ("header", fields_json(&header.fields)),
        ("runs", Json::Arr(runs.iter().map(run_json).collect())),
    ])
}

/// The last line of a single-workload run, in the driver's shape:
/// exactly `correct`, `attempted`, `failed` and `metrics`, each metric
/// a value as measured and its unit.
pub fn result_line(r: &RunResult) -> Json {
    let metrics = r.metrics.iter().map(|m| {
        (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}
