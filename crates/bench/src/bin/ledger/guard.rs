//! Tier-1 guard tests: every workload runs end to end at smoke scale
//! in both modes and emits exactly the declared metrics, and the
//! declarations in `spec.rs` equal the ones `BENCHMARK.json` gives the
//! driver. A later change that breaks an entry point the benchmark
//! uses fails here, in `cargo test`, not in the perf gate.

use crate::batch::{self, BatchKind, Scale};
use crate::json::Json;
use crate::report;
use crate::run::{self, RunOpts, RunResult};
use crate::spec::{self, MetricSpec};
use crate::{parse_args, scratch_root};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");
const LEDGER_TOML: &str = include_str!("Cargo.toml");
const BENCH_TOML: &str = include_str!("../../../Cargo.toml");
const ROOT_TOML: &str = include_str!("../../../../../Cargo.toml");

/// A traced run switches the process-wide `obs` registry off for a
/// round and reads fsync counts out of it, so traced runs of one test
/// process take turns. (The benchmark itself runs one workload per
/// process.)
static TRACED: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn smoke(workload: &str, trace: bool) -> RunResult {
    let _turn = trace.then(|| TRACED.lock().unwrap_or_else(|e| e.into_inner()));
    let root = scratch_root().expect("tests run from a cargo target directory");
    let tag = format!("test-{workload}-{}-{}", u8::from(trace), std::process::id());
    let opts = RunOpts {
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        tmp: root.join(&tag),
        trace_out: root.join(format!("{tag}.trace.json")),
    };
    let result = run::run(workload, &opts);
    let _ = std::fs::remove_dir_all(&opts.tmp);
    if trace {
        let text =
            std::fs::read_to_string(&opts.trace_out).expect("a traced run writes its Chrome trace");
        let events = Json::parse(&text).expect("the Chrome trace is JSON");
        assert!(!events.as_arr().expect("an array of events").is_empty());
        let _ = std::fs::remove_file(&opts.trace_out);
    }
    result.unwrap_or_else(|e| panic!("{workload} (trace={trace}) failed to run: {e}"))
}

/// Each declared metric exactly once, in order, finite, with its unit;
/// nothing failed.
fn assert_emits(result: &RunResult, declared: &[MetricSpec]) {
    assert_eq!(result.failed, 0, "{}: {:?}", result.workload, result.notes);
    assert!(result.correct() && result.attempted >= 1);
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{}", result.workload);
    for (got, want) in result.metrics.iter().zip(declared) {
        assert_eq!(got.unit, want.unit, "{}", got.name);
        assert!(got.value.is_finite(), "{} = {}", got.name, got.value);
        assert!(got.summary.n >= 1 && got.summary.min <= got.value && got.value <= got.summary.max);
    }
}

fn smoke_both_modes(workload: &str) {
    let untraced = smoke(workload, false);
    assert_emits(&untraced, &spec::END_TO_END);
    for m in &untraced.metrics {
        assert!(m.value > 0.0, "end-to-end metric {} must never read 0", m.name);
    }
    let traced = smoke(workload, true);
    assert_emits(&traced, &spec::PER_LAYER);
    assert_eq!(traced.input_fnv64, untraced.input_fnv64, "both modes measure the same inputs");
    let value = |name: &str| traced.metric(name).expect("declared").value;
    assert!(value("ledger.unattributed_share") <= 0.10, "{}", value("ledger.unattributed_share"));
    assert!(value("detect.violations") > 0.0, "noise must trip the suite");
    assert_eq!(value("repair.residual_violations"), 0.0);
    assert!(value("stream.recovery_replayed") > 0.0, "the crash image has a WAL tail to replay");
}

#[test]
fn clean_hospital_smoke() {
    smoke_both_modes("clean_hospital");
}

#[test]
fn audit_customer_smoke() {
    smoke_both_modes("audit_customer");
}

#[test]
fn discover_hospital_smoke() {
    smoke_both_modes("discover_hospital");
}

#[test]
fn serve_durable_smoke() {
    smoke_both_modes("serve_durable");
}

#[test]
fn serve_live_smoke() {
    smoke_both_modes("serve_live");
}

#[test]
fn unknown_workloads_are_refused() {
    let opts = RunOpts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::Smoke,
        tmp: std::env::temp_dir().join("ledger-never-created"),
        trace_out: std::env::temp_dir().join("ledger-never-created.json"),
    };
    let err = run::run("nope", &opts).err().expect("no such workload");
    assert!(err.contains("clean_hospital|"), "{err}");
    assert!(!opts.tmp.exists());
}

fn name_ok(name: &str) -> bool {
    let charset = name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    charset && name.len() <= 64 && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn declared_names_and_units_fit_the_driver_limits() {
    assert!(spec::END_TO_END.len() <= 16 && spec::PER_LAYER.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(seen.insert(m.name), "{} is declared twice", m.name);
        let unit_ok = m
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
        assert!(unit_ok && !m.unit.is_empty() && m.unit.len() <= 16, "{}: `{}`", m.name, m.unit);
    }
    assert_eq!(spec::END_TO_END[0].name, "setup_s");
    for m in &spec::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are gated");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        assert!(bound <= spec::END_TO_END[0].bound.unwrap(), "setup_s has the largest bound");
    }
    assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
    for w in &spec::WORKLOADS {
        assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {} chars", w.name, w.why.len());
        assert!(
            spec::PINNED_FNV64.iter().any(|(p, fnv)| *p == w.name && *fnv != 0),
            "{} is not pinned",
            w.name
        );
    }
    for q in &spec::QUALITY {
        assert!(spec::workload(q.workload).is_some_and(|w| w.gated), "{}", q.workload);
        assert!(0.0 < q.floor && q.floor <= 1.0, "{}", q.name);
    }
}

fn metric_entries(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key}: no `{k}`"))
                    .to_string()
            };
            let keys = m.as_obj().expect("a metric object").len();
            let bound = m.get("bound").and_then(Json::as_f64);
            assert_eq!(
                keys,
                3 + usize::from(bound.is_some()),
                "{key}: unexpected keys in {}",
                m.render()
            );
            (field("name"), field("unit"), field("better"), bound)
        })
        .collect()
}

fn declared(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
    specs
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string(), m.bound))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> =
        doc.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|s| s.as_str().expect("a string"))
            .collect()
    };
    assert_eq!(strings("paths"), ["crates/bench/src/bin/ledger"]);
    let command = strings("command");
    assert_eq!(command[0], "cargo");
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200 && !c.starts_with('/')));
    assert!(command.contains(&"crates/bench/src/bin/ledger/Cargo.toml"), "{command:?}");
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            assert_eq!(w.as_obj().expect("a workload object").len(), 2);
            (
                w.get("name").and_then(Json::as_str).expect("name"),
                w.get("why").and_then(Json::as_str).expect("why"),
            )
        })
        .collect();
    let in_code: Vec<(&str, &str)> =
        spec::WORKLOADS.iter().filter(|w| w.gated).map(|w| (w.name, w.why)).collect();
    assert!((2..=8).contains(&in_code.len()));
    assert_eq!(workloads, in_code);

    assert_eq!(metric_entries(&doc, "end_to_end"), declared(&spec::END_TO_END));
    assert_eq!(metric_entries(&doc, "per_layer"), declared(&spec::PER_LAYER));
}

/// The `key = value` lines of one TOML table, comments and blanks dropped.
fn toml_table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The driver's contract wants the benchmark to be a package of its own,
/// so the build it measures goes through this directory's `Cargo.toml`
/// while `cargo test` compiles the same sources as `revival_bench`'s
/// `ledger` bin. This holds the two manifests together: the measured
/// build links the crates, and uses the release profile, of the tested one.
#[test]
fn own_manifest_builds_what_the_workspace_builds() {
    let own = toml_table(LEDGER_TOML, "[dependencies]");
    assert!(!own.is_empty());
    let bench = toml_table(BENCH_TOML, "[dependencies]");
    let workspace = toml_table(ROOT_TOML, "[workspace.dependencies]");
    for dep in own {
        let name = dep.split_once(" = ").expect("name = { path = .. }").0;
        let krate = name.strip_prefix("revival_").expect("only layer crates are linked");
        assert_eq!(dep, format!("{name} = {{ path = \"../../../../{krate}\" }}"));
        assert!(
            bench.contains(&format!("{name} = {{ workspace = true }}").as_str()),
            "{name} is not a dependency of revival_bench"
        );
        assert!(
            workspace.contains(&format!("{name} = {{ path = \"crates/{krate}\" }}").as_str()),
            "the workspace builds {name} from another path"
        );
    }
    let profile = toml_table(ROOT_TOML, "[profile.release]");
    assert!(!profile.is_empty());
    assert_eq!(toml_table(LEDGER_TOML, "[profile.release]"), profile);
}

#[test]
fn same_seed_same_inputs() {
    let root = scratch_root().unwrap().join(format!("test-fnv-{}", std::process::id()));
    let fnv = |seed: u64| {
        batch::setup(BatchKind::CleanHospital, Scale::Smoke, seed, &root.join(seed.to_string()))
            .expect("set-up")
            .input_fnv64
    };
    let first = fnv(7);
    assert_eq!(first, fnv(7));
    assert_ne!(first, fnv(8));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn result_line_has_exactly_the_driver_keys() {
    let result = smoke("audit_customer", false);
    let line = report::result_line(&result).render();
    assert!(!line.contains('\n'));
    let parsed = Json::parse(&line).unwrap();
    let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), spec::END_TO_END.len());
    for (name, m) in metrics {
        let keys: Vec<&str> = m.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
    }
    // The document `compare` reads carries the spread beside each value.
    let header = report::header(5, Scale::Smoke, 0.0, &scratch_root().unwrap());
    let doc = report::document(&header, std::slice::from_ref(&result));
    let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
    let setup = run.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert!(setup.get("n").and_then(Json::as_f64).unwrap() >= 3.0);
    assert!(setup.get("q1").is_some() && setup.get("q3").is_some());
    assert!(report::text(&header, &result).contains("items_per_s_best"));
}

#[test]
fn driver_flags_parse() {
    let args =
        |line: &str| parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = args("--workload serve_live --seed 3 --seconds 10 --trace 1").unwrap();
    assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve_live", 3, 10.0, true));
    assert!(!args("--workload x --trace 0").unwrap().trace);
    assert!(args("--trace --workload x").unwrap().trace, "bare --trace means on");
    assert_eq!(args("--workload x").unwrap().seed, spec::DEFAULT_SEED);
    assert_eq!(args("--workload x --scale smoke").unwrap().scale, Scale::Smoke);
    for bad in [
        "",
        "--workload",
        "--workload x --trace 2",
        "--workload x --seconds -1",
        "--workload x --bogus 1",
    ] {
        assert!(args(bad).is_err(), "`{bad}` must be refused");
    }
}
