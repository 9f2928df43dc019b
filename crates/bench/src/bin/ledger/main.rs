//! `ledger` — the repo's benchmark: one end-to-end + per-layer price
//! list for the clean pipeline (CSV in → certified-clean CSV out,
//! audit, discovery) and the serve tier (client → durable ack, live
//! reads). See `README.md` beside this file for the workloads, the
//! metrics, how each bound was derived and the API-stability rule.
//!
//! ```text
//! ledger --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//!        [--scale full|smoke] [--out FILE]
//! ledger compare BASE.json NEW.json
//! ```

mod affinity;
mod batch;
mod compare;
mod gen;
mod json;
mod layers;
mod report;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

#[cfg(test)]
mod guard;

use batch::{err, Res, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: ledger --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
              [--scale full|smoke] [--out FILE]
       ledger compare BASE.json NEW.json

workloads: clean_hospital audit_customer discover_hospital serve_durable serve_live
  --seed     inputs are a function of the seed (default 11, whose inputs are pinned)
  --seconds  how long the passes or rounds are measured for (default 30)
  --trace    1: the per-layer run (spans on, layer price list); 0: the end-to-end run
  --scale    smoke shrinks every input to <= 2000 rows/ops (the guard tests)
  --out      also write the result document there (what `compare` reads)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        scale: Scale::Full,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // `--trace` may stand alone; every other flag takes a value.
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        if flag == "--trace" {
            parsed.trace = match value.map(String::as_str) {
                None | Some("1") => true,
                Some("0") => false,
                Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
            };
            i += 1 + usize::from(value.is_some());
            continue;
        }
        let value = value.ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(err("--seed"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(err("--seconds"))?;
                if !(0.0..=600.0).contains(&parsed.seconds) {
                    return Err(format!("--seconds {value} is outside 0..=600"));
                }
            }
            "--scale" => {
                parsed.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, got `{other}`")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    if parsed.workload.is_empty() {
        return Err("missing --workload".to_string());
    }
    Ok(parsed)
}

/// The build's target directory — where the ledger keeps its scratch
/// files, so they sit on the checkout's filesystem, are ignored by git,
/// and never land on a tmpfs.
fn target_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    exe.ancestors()
        .find(|p| p.file_name().is_some_and(|n| n == "release" || n == "debug"))
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// Scratch root for every run of this build.
pub fn scratch_root() -> Res<PathBuf> {
    Ok(target_dir()?.join("ledger-tmp"))
}

/// Run one workload in this process and print it.
fn run_one(args: &Args) -> Res<bool> {
    let root = scratch_root()?;
    let tmp = root.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let opts = run::RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        trace_out: root.join(format!("{}.trace.json", args.workload)),
        tmp: tmp.clone(),
    };
    let result = run::run(&args.workload, &opts);
    let _ = std::fs::remove_dir_all(&tmp);
    let result = result?;
    let header = report::header(args.seed, args.scale, args.seconds, &root);
    print!("{}", report::text(&header, &result));
    if let Some(out) = &args.out {
        let doc = report::document(&header, std::slice::from_ref(&result));
        std::fs::write(out, doc.render() + "\n").map_err(err("write --out"))?;
    }
    // Last line: what the driver reads.
    println!("{}", report::result_line(&result).render());
    Ok(result.correct())
}

/// `--workload all`: one child process per workload, so each one's
/// `VmHWM` is its own, their documents merged into one.
fn run_all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let root = scratch_root()?;
    std::fs::create_dir_all(&root).map_err(err("create scratch root"))?;
    let mut runs = Vec::new();
    let mut header = None;
    let mut correct = true;
    for w in &spec::WORKLOADS {
        let part = root.join(format!("all-{}-{}.json", w.name, std::process::id()));
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--scale", args.scale.as_str()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(err("spawn workload run"))?;
        correct &= status.success();
        let text = std::fs::read_to_string(&part).map_err(err("read workload document"))?;
        let _ = std::fs::remove_file(&part);
        let doc = json::Json::parse(&text)?;
        header = header.or_else(|| doc.get("header").cloned());
        runs.extend(
            doc.get("runs").and_then(json::Json::as_arr).unwrap_or_default().iter().cloned(),
        );
    }
    let doc = json::Json::obj([
        ("ledger", json::Json::Num(1.0)),
        ("header", header.unwrap_or(json::Json::Null)),
        ("runs", json::Json::Arr(runs)),
    ]);
    if let Some(out) = &args.out {
        std::fs::write(out, doc.render() + "\n").map_err(err("write --out"))?;
    }
    println!("{}", doc.render());
    Ok(correct)
}

fn real_main(args: &[String]) -> Res<bool> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("compare") => match args {
            [_, base, new] => compare::run(Path::new(base), Path::new(new)),
            _ => Err("compare takes BASE.json NEW.json".to_string()),
        },
        Some(_) => {
            let args = parse_args(args)?;
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
