//! One run of one workload: set-up, the measured passes or rounds, the
//! output checks, and the metrics by name.
//!
//! An untraced run measures the end-to-end metrics with the program in
//! its shipped configuration and the span recorder off. A traced run
//! alternates recorder-off and recorder-on passes (their ratio is the
//! tracing overhead), splits the traced passes by layer, then prices
//! every layer on the probe every workload shares.

use crate::affinity::Pinned;
use crate::batch::{self, err, BatchKind, BatchRig, Checks, PassOut, Res, Scale};
use crate::gen::{self, Dataset, OpKind};
use crate::layers::{self, Prices};
use crate::serve::{
    self, LatencyPool, ObsWindow, ProbeSizes, ServeCfg, ServeInputs, ServeRig, Stopped,
};
use crate::spec;
use crate::stats::{self, Summary};
use crate::trace::{self, SpanRec, Tracer, UNATTRIBUTED};
use revival_relation::csv;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// An untraced run is a sequence of laps — a fresh set-up, then a
/// slice of measuring — until `--seconds` have passed, so every metric,
/// `setup_s` too, is sampled across the whole run. This sandbox's host
/// halves the speed of a vCPU for seconds to minutes at a time (README,
/// "Bounds"); a metric sampled within one second of the run is either
/// all inside such a stretch or all outside it.
const MIN_LAPS: usize = 3;
/// Laps a batch run aims for: each measures passes for this share of
/// `--seconds`, and at least one.
const BATCH_LAPS: f64 = 10.0;
/// Rounds a traced or probe serve leg measures at least.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` a traced run spends on its own passes; the
/// price list takes the rest.
const TRACED_SHARE: f64 = 0.4;
/// Spans per recorder kept in the Chrome trace file.
const TRACE_FILE_SPANS: usize = 20_000;
/// The layers a pass can spend self time in, `ledger.share_*` order.
const LAYERS: [&str; 6] = ["relation", "constraints", "detect", "repair", "discovery", "stream"];

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory of this run, on the same filesystem as the
    /// build (never tmpfs: the durable workload measures `fdatasync`).
    pub tmp: PathBuf,
    /// Where a traced run leaves its Chrome trace.
    pub trace_out: PathBuf,
}

pub struct Reported {
    pub name: String,
    pub unit: &'static str,
    /// What the metric is reported at: see [`best`].
    pub value: f64,
    pub summary: Summary,
}

/// The best of an end-to-end metric's samples — the maximum of a
/// throughput, the minimum of a time — which is what the metric names
/// say (`items_per_s_best`, `answer_us_best`; `setup_s`, whose name the
/// driver fixes, is a minimum too). The host's disturbances only ever
/// slow a pass down, and in a bad hour they leave a run no quiet
/// quarter, let alone half: 25 s windows of one long `audit_customer`
/// run range 61 % at their median answer, 27 % at their fast quartile,
/// 17 % at their fastest pass (README, "Bounds") — the statistic of a
/// run that depends least on the hour it ran in. The median, range and
/// both quartiles are printed beside the value.
fn best(s: &Summary, better: spec::Better) -> f64 {
    match better {
        spec::Better::Lower => s.min,
        spec::Better::Higher => s.max,
    }
}

pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub input_fnv64: u64,
    /// Requests (serve) or pass-level output checks (batch), plus the
    /// end-of-run checks.
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Sample counts, client count and loop kind — how to read the numbers.
    pub method: Vec<(&'static str, String)>,
    pub metrics: Vec<Reported>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Reported> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

pub fn run(workload: &str, o: &RunOpts) -> Res<RunResult> {
    let spec = spec::workload(workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{workload}` ({})", names.join("|"))
    })?;
    std::fs::create_dir_all(&o.tmp).map_err(err("create scratch dir"))?;
    let mut result = match spec.name {
        "clean_hospital" => batch_run(BatchKind::CleanHospital, o),
        "audit_customer" => batch_run(BatchKind::AuditCustomer, o),
        "discover_hospital" => batch_run(BatchKind::DiscoverHospital, o),
        "serve_durable" => serve_run(ServeCfg::durable(o.scale), o),
        "serve_live" => serve_run(ServeCfg::live(o.scale), o),
        other => unreachable!("workload `{other}` is declared but not dispatched"),
    }?;
    result.workload = spec.name;
    let gate = if spec.gated { "gated by BENCHMARK.json" } else { "informational, not gated" };
    result.method.insert(0, ("why", format!("{} ({gate})", spec.why)));
    check_pin(&mut result, o);
    declare(&mut result)?;
    Ok(result)
}

/// At the default seed and full scale the inputs are pinned: a run on
/// other bytes is a run of another benchmark.
fn check_pin(result: &mut RunResult, o: &RunOpts) {
    if o.seed != spec::DEFAULT_SEED || o.scale != Scale::Full {
        return;
    }
    let pinned = spec::PINNED_FNV64.iter().find(|(w, _)| *w == result.workload).map(|(_, f)| *f);
    result.attempted += 1;
    if pinned != Some(result.input_fnv64) {
        result.failed += 1;
        result.notes.push(format!(
            "input_fnv64 {:#018x} differs from the pinned {:#018x}: the generated inputs changed",
            result.input_fnv64,
            pinned.unwrap_or(0)
        ));
    }
}

/// Hold the run's metrics against the declared list: each declared
/// name exactly once, finite, in declaration order with its unit.
fn declare(result: &mut RunResult) -> Res<()> {
    let declared: &[spec::MetricSpec] =
        if result.traced { &spec::PER_LAYER } else { &spec::END_TO_END };
    let mut ordered = Vec::with_capacity(declared.len());
    for m in declared {
        let mut found = result.metrics.iter().filter(|r| r.name == m.name);
        let one = found.next().ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        if found.next().is_some() {
            return Err(format!("metric `{}` was measured twice", m.name));
        }
        if !(one.summary.min.is_finite() && one.summary.max.is_finite()) {
            return Err(format!("metric `{}` is not finite", m.name));
        }
        ordered.push(Reported {
            name: m.name.to_string(),
            unit: m.unit,
            value: one.value,
            summary: one.summary,
        });
    }
    if let Some(extra) = result.metrics.iter().find(|r| declared.iter().all(|m| m.name != r.name)) {
        return Err(format!("metric `{}` is measured but not declared", extra.name));
    }
    result.metrics = ordered;
    Ok(())
}

fn reported(name: &str, value: f64, summary: Summary) -> Reported {
    Reported { name: name.to_string(), unit: "", value, summary }
}

/// `VmHWM` of this process: the most memory it ever held resident.
fn peak_rss_mb() -> Res<f64> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(err("read /proc/self/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, one sample per lap
/// (set-ups), pass (batch) or round (serve).
struct EndToEnd {
    setups_s: Vec<f64>,
    items_per_s: Vec<f64>,
    /// What `items_per_s_best` reads: the fastest pass (batch), or the
    /// lap put together from the fastest run of each of its rounds
    /// (serve, where the rounds of a lap differ: the table grows).
    items_per_s_best: f64,
    answer_us: Vec<f64>,
    /// `VmHWM` when the first lap's measuring ends: one data set, one
    /// server's life. Later laps repeat it for the clock's sake; what
    /// the allocator keeps of them across threads is not the program's
    /// footprint and varies from run to run.
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn into_metrics(self) -> Vec<Reported> {
        let (setups, items, answers) = (
            stats::summarize(&self.setups_s),
            stats::summarize(&self.items_per_s),
            stats::summarize(&self.answer_us),
        );
        vec![
            reported("setup_s", best(&setups, spec::Better::Lower), setups),
            reported("items_per_s_best", self.items_per_s_best, items),
            reported("answer_us_best", best(&answers, spec::Better::Lower), answers),
            reported("peak_rss_mb", self.peak_rss_mb, Summary::single(self.peak_rss_mb)),
        ]
    }
}

/// The metrics of a traced run: one value each.
fn priced_metrics(values: Vec<(String, f64)>) -> Vec<Reported> {
    values.into_iter().map(|(n, v)| reported(&n, v, Summary::single(v))).collect()
}

fn more_laps(done: usize, start: Instant, o: &RunOpts) -> bool {
    done < MIN_LAPS || start.elapsed().as_secs_f64() < o.seconds
}

fn result_of(traced: bool, input_fnv64: u64, requests: (u64, u64), checks: Checks) -> RunResult {
    RunResult {
        workload: "",
        traced,
        input_fnv64,
        attempted: requests.0 + checks.attempted,
        failed: requests.1 + checks.failed,
        notes: checks.notes,
        method: Vec::new(),
        metrics: Vec::new(),
    }
}

// ------------------------------------------------------------- batch

fn batch_run(kind: BatchKind, o: &RunOpts) -> Res<RunResult> {
    if o.trace {
        return batch_traced(kind, o);
    }
    let lap_s = o.seconds / BATCH_LAPS;
    let mut off = Tracer::off();
    let mut checks = Checks::default();
    let (mut setups_s, mut walls_s, mut answers_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_lap_rss_mb = None;
    let mut lap: Option<(BatchRig, PassOut)> = None;
    let start = Instant::now();
    while more_laps(setups_s.len(), start, o) {
        drop(lap.take());
        // Every set-up and every pass on the next CPU in turn: the
        // host's slow spells are per CPU (`affinity.rs`).
        let pin = Pinned::to_next_cpu();
        let setup = Instant::now();
        let rig = batch::setup(kind, o.scale, o.seed, &o.tmp.join("setup"))?;
        setups_s.push(setup.elapsed().as_secs_f64());
        drop(pin);
        let measuring = Instant::now();
        let last = loop {
            let pin = Pinned::to_next_cpu();
            let mut out = rig.pass(&mut off)?;
            drop(pin);
            walls_s.push(out.wall_s);
            answers_s.push(out.answer_s);
            checks.absorb(std::mem::take(&mut out.checks));
            // The run's last lap ends with the run, not a lap later.
            let run_over = setups_s.len() >= MIN_LAPS && start.elapsed().as_secs_f64() >= o.seconds;
            if run_over || measuring.elapsed().as_secs_f64() >= lap_s {
                break out;
            }
        };
        if first_lap_rss_mb.is_none() {
            first_lap_rss_mb = Some(peak_rss_mb()?);
        }
        lap = Some((rig, last));
    }
    let (rig, last) = lap.expect("at least one lap");
    let (final_checks, quality) = rig.final_checks(&last)?;
    checks.absorb(final_checks);

    let rows = rig.rows() as f64;
    let mut result = result_of(false, rig.input_fnv64, (0, 0), checks);
    result.method = vec![
        ("rows", rig.rows().to_string()),
        ("passes", walls_s.len().to_string()),
        ("laps", setups_s.len().to_string()),
        ("cpus", "set-ups and passes take the allowed CPUs in turn".to_string()),
        ("answer", "the pass's first result: violation report or mined suite".to_string()),
    ];
    result.method.extend(quality_note(kind, quality));
    let items_per_s: Vec<f64> = walls_s.iter().map(|w| rows / w).collect();
    result.metrics = EndToEnd {
        setups_s,
        items_per_s_best: best(&stats::summarize(&items_per_s), spec::Better::Higher),
        items_per_s,
        answer_us: answers_s.iter().map(|a| a * 1e6).collect(),
        peak_rss_mb: first_lap_rss_mb.expect("at least one lap"),
    }
    .into_metrics();
    Ok(result)
}

/// The quality score of the last pass's output, as a header line.
fn quality_note(kind: BatchKind, score: Option<f64>) -> Option<(&'static str, String)> {
    let q = spec::quality(kind.name())?;
    Some((q.name, format!("{} (last pass's output; may not fall below {})", score?, q.floor)))
}

/// Median share of the pass wall each layer's self time takes, plus the
/// unattributed remainder, over every traced pass of every recorder.
fn share_metrics(recorders: &[&[SpanRec]], prices: &mut Prices) {
    let passes: Vec<trace::PassBreakdown> =
        recorders.iter().flat_map(|spans| trace::breakdowns(spans)).collect();
    assert!(!passes.is_empty(), "a traced run records at least one pass");
    let share = |layer: &str| {
        let shares: Vec<f64> =
            passes.iter().map(|p| p.layer_ns(layer) as f64 / p.wall_ns as f64).collect();
        stats::median(&shares)
    };
    prices.set("ledger.unattributed_share", share(UNATTRIBUTED));
    for layer in LAYERS {
        prices.set(&format!("ledger.share_{layer}"), share(layer));
    }
}

fn write_trace(recorders: &[&[SpanRec]], o: &RunOpts) -> Res<()> {
    let text = trace::chrome_trace(recorders, TRACE_FILE_SPANS).render();
    std::fs::write(&o.trace_out, text).map_err(err("write Chrome trace"))
}

fn batch_traced(kind: BatchKind, o: &RunOpts) -> Res<RunResult> {
    let epoch = Instant::now();
    let rig = batch::setup(kind, o.scale, o.seed, &o.tmp.join("setup"))?;
    let mut checks = Checks::default();
    let mut prices = Prices::default();

    // Alternate recorder-off and recorder-on passes so both sides see
    // the same machine.
    let mut tracer = Tracer::new(false, epoch);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    let mut pass_no = 0u32;
    while plain_s.len() < 2
        || traced_s.len() < 2
        || start.elapsed().as_secs_f64() < o.seconds * TRACED_SHARE
    {
        let on = pass_no % 2 == 1;
        tracer.set_on(on);
        tracer.set_pass(pass_no);
        let mut out = rig.pass(&mut tracer)?;
        if on { &mut traced_s } else { &mut plain_s }.push(out.wall_s);
        checks.absorb(std::mem::take(&mut out.checks));
        last = Some(out);
        pass_no += 1;
    }
    let (final_checks, quality) = rig.final_checks(&last.expect("at least one pass"))?;
    checks.absorb(final_checks);
    prices.set("ledger.trace_overhead", stats::median(&plain_s) / stats::median(&traced_s));
    share_metrics(&[tracer.spans()], &mut prices);
    write_trace(&[tracer.spans()], o)?;

    // The serve tier is priced through a short `serve_live` leg.
    layers::batch_prices(o.seed, o.scale, &o.tmp, &mut prices)?;
    let (_, inputs, server) =
        serve_setup(ServeCfg::live(o.scale), o, &o.tmp.join("probe-leg"), epoch)?;
    let leg = run_leg(server, MIN_ROUNDS, 0.0, false, true)?;
    stream_metrics(&leg, &inputs, o, epoch, &mut prices)?;
    let requests = (leg.requests, leg.failed);
    checks.absorb(leg.stopped.check(&inputs)?);
    checks.absorb(prices.checks);

    let mut result = result_of(true, rig.input_fnv64, requests, checks);
    result.method = vec![
        ("rows", rig.rows().to_string()),
        ("passes_untraced", plain_s.len().to_string()),
        ("passes_traced", traced_s.len().to_string()),
        ("spans", tracer.spans().len().to_string()),
        ("trace_file", o.trace_out.display().to_string()),
    ];
    result.method.extend(quality_note(kind, quality));
    result.metrics = priced_metrics(prices.values);
    Ok(result)
}

// ------------------------------------------------------------- serve

/// Generate the customer table, write it to disk as `semandaq generate`
/// would, start the server and register the base table over TCP.
fn serve_setup(
    cfg: ServeCfg,
    o: &RunOpts,
    dir: &Path,
    epoch: Instant,
) -> Res<(Dataset, ServeInputs, ServeRig)> {
    std::fs::create_dir_all(dir).map_err(err("create serve dir"))?;
    let data = gen::customer(cfg.base_rows + cfg.pool_rows, 0.05, o.seed, None);
    let path = dir.join("dirty.csv");
    csv::write_table_path(&data.truth.dirty, &path).map_err(err("write dirty.csv"))?;
    let text = std::fs::read_to_string(&path).map_err(err("read back dirty.csv"))?;
    let inputs = ServeInputs::new(&data, &text, cfg.base_rows);
    let rig = ServeRig::start(cfg, &inputs, o.seed, dir, epoch)?;
    Ok((data, inputs, rig))
}

/// The rounds of one server's life, and what it left behind.
struct LegOut {
    cfg: ServeCfg,
    /// The CPU server and clients were held on, if they were.
    cpu: Option<usize>,
    register_s: f64,
    input_fnv64: u64,
    /// Per recorder-off round: requests per second and the median
    /// request latency.
    plain_ops_per_s: Vec<f64>,
    plain_op_p50_us: Vec<f64>,
    /// Requests per second of the recorder-on rounds.
    traced_ops_per_s: Vec<f64>,
    /// Latencies of the recorder-off rounds, kept only by traced runs.
    pool: LatencyPool,
    /// Throughput with `obs::set_enabled(false)` over throughput with
    /// it on, priced legs only.
    obs_off_speedup: Option<f64>,
    requests: u64,
    failed: u64,
    mutations: u64,
    phase_means_us: Vec<f64>,
    wal_fsyncs: u64,
    wal_group_size_mean: f64,
    /// Read once the server has stopped and before its run is
    /// replayed: the replay's second copy of the table is the
    /// benchmark's memory, not the program's.
    peak_rss_mb: f64,
    /// The stopped server, its final state still unchecked.
    stopped: Stopped,
}

fn one_cpu(cpu: Option<usize>) -> String {
    cpu.map_or("no".to_string(), |c| format!("cpu {c}, the next leg on the next CPU in turn"))
}

/// Run rounds until `budget_s` has passed (at least `min_rounds`
/// recorder-off ones), with `alternate` every other round
/// recorder-on; a `priced` leg also keeps every latency for the
/// per-layer tails and prices the program's own `obs` layer; then shut
/// the server down.
fn run_leg(
    mut rig: ServeRig,
    min_rounds: usize,
    budget_s: f64,
    alternate: bool,
    priced: bool,
) -> Res<LegOut> {
    let window = ObsWindow::open();
    let (mut plain_ops_per_s, mut plain_op_p50_us, mut traced_ops_per_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut pool = LatencyPool::default();
    let (mut requests, mut failed) = (0u64, 0u64);
    let mut tally = |out: &serve::RoundOut| {
        requests += out.ops as u64;
        failed += out.failed;
        out.lat_us.iter().filter(|(k, _)| k.is_mutation()).count() as u64
    };
    // Mutations acked while the obs window is open: what its fsync
    // count is a share of.
    let mut mutations = 0;
    let start = Instant::now();
    let mut n = 0;
    while plain_ops_per_s.len() < min_rounds
        || (alternate && traced_ops_per_s.len() < 2)
        || start.elapsed().as_secs_f64() < budget_s
    {
        let on = alternate && n % 2 == 1;
        let out = rig.round(on)?;
        mutations += tally(&out);
        if on {
            traced_ops_per_s.push(out.ops_per_s());
        } else {
            plain_ops_per_s.push(out.ops_per_s());
            plain_op_p50_us.push(out.op_p50_us());
            if priced {
                pool.add(&out);
            }
        }
        n += 1;
    }
    let phase_means_us = window.phase_means_us();
    let (wal_fsyncs, wal_group_size_mean) = window.wal();
    let mut obs_off_speedup = None;
    if priced {
        // One round with `obs` switched off between two with it on:
        // the table grows round by round, and with it the cost of a
        // `report`, so the off round is held against its neighbours.
        let before = rig.round(false)?;
        revival_obs::set_enabled(false);
        let off = rig.round(false);
        revival_obs::set_enabled(true);
        let (off, after) = (off?, rig.round(false)?);
        for out in [&before, &off, &after] {
            tally(out);
        }
        obs_off_speedup = Some(2.0 * off.ops_per_s() / (before.ops_per_s() + after.ops_per_s()));
    }
    let (cfg, cpu, register_s, input_fnv64) = (rig.cfg, rig.cpu(), rig.register_s, rig.input_fnv64);
    let stopped = rig.stop()?;
    let peak_rss_mb = peak_rss_mb()?;
    Ok(LegOut {
        cfg,
        cpu,
        register_s,
        input_fnv64,
        plain_ops_per_s,
        plain_op_p50_us,
        traced_ops_per_s,
        pool,
        obs_off_speedup,
        requests,
        failed,
        mutations,
        phase_means_us,
        wal_fsyncs,
        wal_group_size_mean,
        peak_rss_mb,
        stopped,
    })
}

fn serve_run(cfg: ServeCfg, o: &RunOpts) -> Res<RunResult> {
    if o.trace {
        return serve_traced(cfg, o);
    }
    let epoch = Instant::now();
    let (mut setups_s, mut ops_per_s, mut answer_us) = (Vec::new(), Vec::new(), Vec::new());
    // Round i of every lap sends the same requests to the same table;
    // its fastest run over the laps, as seconds per request.
    let mut fastest_round_s = vec![f64::INFINITY; cfg.rounds_per_lap];
    let (mut requests, mut failed, mut checkpoints) = (0, 0, 0);
    let mut first_lap_rss_mb = None;
    let mut lap: Option<(ServeInputs, LegOut)> = None;
    let dir = o.tmp.join("lap");
    let start = Instant::now();
    while more_laps(setups_s.len(), start, o) {
        // A fresh server over a fresh state directory: every lap
        // measures the same rounds over the same growing table.
        drop(lap.take());
        let _ = std::fs::remove_dir_all(&dir);
        let setup = Instant::now();
        let (_, inputs, rig) = serve_setup(cfg, o, &dir, epoch)?;
        setups_s.push(setup.elapsed().as_secs_f64());
        let leg = run_leg(rig, cfg.rounds_per_lap, 0.0, false, false)?;
        for (fastest, round) in fastest_round_s.iter_mut().zip(&leg.plain_ops_per_s) {
            *fastest = fastest.min(1.0 / round);
        }
        ops_per_s.extend(&leg.plain_ops_per_s);
        answer_us.extend(&leg.plain_op_p50_us);
        requests += leg.requests;
        failed += leg.failed;
        checkpoints += leg.stopped.summary.checkpoints;
        first_lap_rss_mb.get_or_insert(leg.peak_rss_mb);
        lap = Some((inputs, leg));
    }
    // Every reply of every lap was checked as it arrived; the last
    // server's final state is held against a replay of its requests.
    let (inputs, leg) = lap.expect("at least one lap");
    let checks = leg.stopped.check(&inputs)?;
    let mut result = result_of(false, leg.input_fnv64, (requests, failed), checks);
    result.method = vec![
        ("loop", "closed".to_string()),
        ("clients", cfg.clients.to_string()),
        ("one_cpu", one_cpu(leg.cpu)),
        ("laps", setups_s.len().to_string()),
        ("rounds_per_lap", cfg.rounds_per_lap.to_string()),
        ("ops_per_round", cfg.ops_per_round().to_string()),
        ("base_rows", cfg.base_rows.to_string()),
        ("wal", cfg.wal.to_string()),
        ("answer", "one request's reply, median of a round".to_string()),
        ("checkpoints", checkpoints.to_string()),
    ];
    result.metrics = EndToEnd {
        setups_s,
        items_per_s_best: fastest_round_s.len() as f64 / fastest_round_s.iter().sum::<f64>(),
        items_per_s: ops_per_s,
        answer_us,
        peak_rss_mb: first_lap_rss_mb.expect("at least one lap"),
    }
    .into_metrics();
    Ok(result)
}

/// Median `count` / `report` latency of a short `serve_live` leg whose
/// server and client are left to the scheduler: what the one-CPU pin of
/// `serve_live` takes out of a request — the wake-up across cores,
/// whenever the scheduler splits the pair.
fn unpinned_read_p50_us(
    inputs: &ServeInputs,
    o: &RunOpts,
    epoch: Instant,
    checks: &mut Checks,
) -> Res<f64> {
    let cfg = ServeCfg { one_cpu: false, ..ServeCfg::live(o.scale) };
    let mut rig = ServeRig::start(cfg, inputs, o.seed, &o.tmp.join("unpinned-leg"), epoch)?;
    let mut pool = LatencyPool::default();
    let mut failed = 0;
    for _ in 0..MIN_ROUNDS {
        let out = rig.round(false)?;
        failed += out.failed;
        pool.add(&out);
    }
    checks.check(failed == 0, || format!("{failed} request(s) of the unpinned leg failed"));
    checks.absorb(rig.stop()?.check(inputs)?);
    Ok(stats::median(&pool.reads_us))
}

/// The `stream.*` and `obs.*` metrics: the TCP leg's client-observed
/// figures and the program's own phase histograms, then the in-process
/// prices, then what is left of a TCP read once `handle` and the
/// protocol are taken out — socket and dispatch.
fn stream_metrics(
    leg: &LegOut,
    inputs: &ServeInputs,
    o: &RunOpts,
    epoch: Instant,
    prices: &mut Prices,
) -> Res<()> {
    let ops_per_s = stats::median(&leg.plain_ops_per_s);
    let read_p50_us = stats::median(&leg.pool.reads_us);
    prices.set("stream.register_s", leg.register_s);
    prices.set("stream.ops_per_s", ops_per_s);
    prices.set("stream.append_p50_us", stats::median(&leg.pool.writes_us));
    prices.set("stream.append_p99_us", stats::tail(&leg.pool.writes_us, stats::P99));
    prices.set("stream.read_p50_us", read_p50_us);
    prices.set("stream.read_p99_us", stats::tail(&leg.pool.reads_us, stats::P99));
    let unpinned_us = unpinned_read_p50_us(inputs, o, epoch, &mut prices.checks)?;
    prices.set("stream.unpinned_read_p50_us", unpinned_us);
    prices.set("stream.checkpoints", leg.stopped.summary.checkpoints as f64);
    for (phase, mean) in serve::PHASES.iter().zip(&leg.phase_means_us) {
        prices.set(&format!("obs.phase_{phase}_us"), *mean);
    }
    prices.set("obs.off_speedup", leg.obs_off_speedup.expect("priced legs run the obs-off round"));

    let p = serve::stream_prices(inputs, &ProbeSizes::at(o.scale), o.seed, &o.tmp)?;
    prices.set("stream.protocol_us_per_op", p.protocol_us_per_op);
    prices.set("stream.session_insert_us", p.session_insert_us);
    for (kind, us) in OpKind::ALL.into_iter().zip(p.handle_us) {
        prices.set(&format!("stream.handle_{}_us", kind.verb()), us);
    }
    prices.set(
        "stream.server_us_per_op",
        read_p50_us - p.handle_us[OpKind::Count as usize] - p.protocol_count_us,
    );
    prices.set("stream.wal_us_per_op", p.wal_us_per_op);
    // Group commit only has writers to group when the leg itself ran
    // with the WAL on; otherwise the one-thread probe stands in.
    if leg.cfg.wal && leg.mutations > 0 {
        prices.set("stream.wal_fsyncs_per_op", leg.wal_fsyncs as f64 / leg.mutations as f64);
        prices.set("stream.wal_group_size_mean", leg.wal_group_size_mean);
    } else {
        prices.set("stream.wal_fsyncs_per_op", p.wal_fsyncs_per_op);
        prices.set("stream.wal_group_size_mean", p.wal_group_size_mean);
    }
    prices.set("stream.wal_bytes_per_op", p.wal_bytes_per_op);
    prices.set("stream.checkpoint_s", p.checkpoint_s);
    prices.set("stream.state_bytes_per_row", p.state_bytes_per_row);
    prices.set("stream.recovery_s", p.recovery_s);
    prices.set("stream.recovery_replayed", p.recovery_replayed);
    prices.set("stream.recovery_us_per_record", p.recovery_us_per_record);
    prices.checks.absorb(p.checks);
    Ok(())
}

fn serve_traced(cfg: ServeCfg, o: &RunOpts) -> Res<RunResult> {
    let epoch = Instant::now();
    let (_, inputs, rig) = serve_setup(cfg, o, &o.tmp.join("setup"), epoch)?;
    let leg = run_leg(rig, MIN_ROUNDS, o.seconds * TRACED_SHARE, true, true)?;
    let mut prices = Prices::default();
    let (plain, traced) =
        (stats::median(&leg.plain_ops_per_s), stats::median(&leg.traced_ops_per_s));
    prices.set("ledger.trace_overhead", traced / plain);
    let recorders: Vec<&[SpanRec]> = leg.stopped.spans.iter().map(Vec::as_slice).collect();
    share_metrics(&recorders, &mut prices);
    write_trace(&recorders, o)?;
    stream_metrics(&leg, &inputs, o, epoch, &mut prices)?;
    layers::batch_prices(o.seed, o.scale, &o.tmp, &mut prices)?;

    let mut checks = leg.stopped.check(&inputs)?;
    checks.absorb(prices.checks);
    let mut result = result_of(true, leg.input_fnv64, (leg.requests, leg.failed), checks);
    result.method = vec![
        ("loop", "closed".to_string()),
        ("clients", cfg.clients.to_string()),
        ("one_cpu", one_cpu(leg.cpu)),
        ("rounds_untraced", leg.plain_ops_per_s.len().to_string()),
        ("rounds_traced", leg.traced_ops_per_s.len().to_string()),
        ("ops_per_round", cfg.ops_per_round().to_string()),
        ("spans", recorders.iter().map(|r| r.len()).sum::<usize>().to_string()),
        ("trace_file", o.trace_out.display().to_string()),
    ];
    result.metrics = priced_metrics(prices.values);
    Ok(result)
}
