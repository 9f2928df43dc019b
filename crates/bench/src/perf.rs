//! Machine-readable detection performance measurement.
//!
//! [`measure_detection`] times the sequential engine against the
//! parallel engine (through the shared [`Detector`] trait, exactly as
//! the CLI dispatches them) on the standard dirty-customer workload,
//! and [`DetectionPerf::to_json`] renders the result as the
//! `BENCH_detection.json` record the `detection_json` bench target
//! writes — one file per run, so successive PRs accumulate a perf
//! trajectory.

use crate::{customer_workload, hospital_workload};
use revival_detect::{DetectJob, Detector, NativeEngine, ParallelEngine};
use std::time::Instant;

/// The interned-vs-clone kernel ablation, measured on the hospital workload at `jobs = 1` (grouping-dominated:
/// 8-attribute rows, 6 variable CFDs).
#[derive(Clone, Debug)]
pub struct KernelAblation {
    pub rows: usize,
    pub cfds: usize,
    /// Full-suite scan with the pre-interning reference kernel
    /// (`HashMap<Vec<Value>, _>`, one key clone + value hash per row
    /// per CFD).
    pub clone_secs: f64,
    /// The same scan through the interned kernel (the shipping
    /// `NativeEngine` path).
    pub interned_secs: f64,
}

impl KernelAblation {
    pub fn clone_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.clone_secs
    }

    pub fn interned_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.interned_secs
    }

    /// Interned kernel vs. the cloning kernel (same suite, jobs=1).
    pub fn interned_speedup(&self) -> f64 {
        self.clone_secs / self.interned_secs
    }
}

/// The columnar-storage measurement: projection scans straight on the
/// `Sym` columns vs. per-row `Value` materialisation, and `.sdq`
/// snapshot open vs. CSV re-ingest.
#[derive(Clone, Debug)]
pub struct ColumnarPerf {
    /// Rows in the hospital scan workload.
    pub scan_rows: usize,
    /// Rows in the snapshot/CSV ingest workload (dirty customer).
    pub ingest_rows: usize,
    /// Row-major baseline: materialise every row's `Value`s, compare
    /// the CFD-LHS projection value-by-value (the pre-columnar access
    /// pattern), in row-visits (rows × CFDs) per second.
    pub row_scan_rows_per_s: f64,
    /// The same projection comparisons on borrowed `Sym` column slices
    /// (`Table::proj`), no `Value` touched.
    pub scan_rows_per_s: f64,
    /// Best-of-N `Table::open_snapshot` wall time, milliseconds.
    pub snapshot_open_ms: f64,
    /// Best-of-N CSV re-parse (`csv::read_table_infer`) of the same
    /// table, milliseconds.
    pub csv_ingest_ms: f64,
}

impl ColumnarPerf {
    /// Column scan vs. row-major materialising scan.
    pub fn scan_speedup(&self) -> f64 {
        self.scan_rows_per_s / self.row_scan_rows_per_s
    }

    /// Snapshot open vs. CSV re-ingest.
    pub fn open_speedup(&self) -> f64 {
        self.csv_ingest_ms / self.snapshot_open_ms
    }
}

/// Measure [`ColumnarPerf`]: projection-equality scans over the
/// hospital kernel workload (`scan_rows`) both row-major and columnar
/// — each CFD's LHS projection is compared against the first live
/// row's, and the two paths must agree on every count — plus snapshot
/// open vs. CSV re-ingest of an `ingest_rows` dirty-customer table
/// round-tripped through a temp file.
pub fn measure_columnar(scan_rows: usize, ingest_rows: usize, samples: usize) -> ColumnarPerf {
    use revival_relation::{csv, Table, Value};

    let (_, ds, cfds) = hospital_workload(scan_rows, 0.05, 11);
    let table = &ds.dirty;
    let projections: Vec<&[usize]> = cfds.iter().map(|c| c.lhs.as_slice()).collect();

    // Row-major: materialise rows, compare projection Values.
    let (row_counts, row_secs) = best_of(samples, || {
        let mut counts = Vec::with_capacity(projections.len());
        for attrs in &projections {
            let mut rows = table.rows();
            let Some((_, first)) = rows.next() else {
                counts.push(0usize);
                continue;
            };
            let key: Vec<Value> = attrs.iter().map(|&a| first[a].clone()).collect();
            let mut n = 1usize;
            for (_, row) in rows {
                if attrs.iter().zip(&key).all(|(&a, k)| row[a] == *k) {
                    n += 1;
                }
            }
            counts.push(n);
        }
        counts
    });
    // Columnar: the same comparisons on borrowed Sym columns.
    let (col_counts, col_secs) = best_of(samples, || {
        let mut counts = Vec::with_capacity(projections.len());
        for attrs in &projections {
            let proj = table.proj(attrs);
            let mut slots = table.live_slots();
            let Some(first) = slots.next() else {
                counts.push(0usize);
                continue;
            };
            let key = proj.key_at(first);
            let mut n = 1usize;
            for slot in slots {
                if proj.matches_at(slot, &key) {
                    n += 1;
                }
            }
            counts.push(n);
        }
        counts
    });
    assert_eq!(row_counts, col_counts, "columnar scan must agree with the row-major scan");
    let visits = (scan_rows * projections.len()) as f64;

    // Snapshot open vs. CSV re-ingest of the same (larger) table.
    let (_, ids, _) = customer_workload(ingest_rows, 0.05, 11);
    let csv_text = csv::write_table(&ids.dirty);
    let sdq = std::env::temp_dir().join(format!("revival_bench_{ingest_rows}.sdq"));
    ids.dirty.save_snapshot(&sdq).expect("write bench snapshot");
    let (parsed, csv_secs) =
        best_of(samples, || csv::read_table_infer("customer", &csv_text).expect("re-ingest CSV"));
    let (opened, open_secs) =
        best_of(samples, || Table::open_snapshot(&sdq).expect("open bench snapshot"));
    assert_eq!(opened.len(), ids.dirty.len());
    assert_eq!(parsed.len(), ids.dirty.len());
    let _ = std::fs::remove_file(&sdq);

    ColumnarPerf {
        scan_rows,
        ingest_rows,
        row_scan_rows_per_s: visits / row_secs,
        scan_rows_per_s: visits / col_secs,
        snapshot_open_ms: open_secs * 1e3,
        csv_ingest_ms: csv_secs * 1e3,
    }
}

/// One sequential-vs-parallel detection measurement.
#[derive(Clone, Debug)]
pub struct DetectionPerf {
    pub rows: usize,
    pub cfds: usize,
    pub violations: usize,
    pub jobs: usize,
    /// Best-of-N wall time of the sequential (native) engine.
    pub sequential_secs: f64,
    /// Best-of-N wall time of the parallel engine at `jobs` shards.
    pub parallel_secs: f64,
    /// Hardware parallelism the measurement ran on (1 core makes any
    /// speedup number meaningless — record it so readers can tell).
    pub available_cores: usize,
    /// The hospital-workload kernel ablation.
    pub kernel: KernelAblation,
    /// The columnar-scan and snapshot-vs-CSV measurement.
    pub columnar: ColumnarPerf,
}

impl DetectionPerf {
    pub fn sequential_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.sequential_secs
    }

    pub fn parallel_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.parallel_secs
    }

    pub fn speedup(&self) -> f64 {
        self.sequential_secs / self.parallel_secs
    }

    /// Render as a self-describing JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"detection\",\n  \"workload\": \"dirty::customer\",\n  \
             \"rows\": {},\n  \"cfds\": {},\n  \"violations\": {},\n  \
             \"available_cores\": {},\n  \
             \"sequential\": {{ \"secs\": {:.6}, \"rows_per_sec\": {:.1} }},\n  \
             \"parallel\": {{ \"jobs\": {}, \"secs\": {:.6}, \"rows_per_sec\": {:.1} }},\n  \
             \"speedup\": {:.3},\n  \
             \"kernel\": {{ \"workload\": \"dirty::hospital\", \"jobs\": 1, \"rows\": {}, \
             \"cfds\": {},\n    \
             \"grouped_clone_rows_per_s\": {:.1}, \"grouped_interned_rows_per_s\": {:.1}, \
             \"interned_speedup\": {:.3} }},\n  \
             \"columnar\": {{ \"scan_workload\": \"dirty::hospital\", \"scan_rows\": {}, \
             \"ingest_rows\": {},\n    \
             \"row_scan_rows_per_s\": {:.1}, \"scan_rows_per_s\": {:.1}, \
             \"scan_speedup\": {:.3},\n    \
             \"snapshot_open_ms\": {:.3}, \"csv_ingest_ms\": {:.3}, \
             \"open_speedup\": {:.3} }}\n}}\n",
            self.rows,
            self.cfds,
            self.violations,
            self.available_cores,
            self.sequential_secs,
            self.sequential_rows_per_sec(),
            self.jobs,
            self.parallel_secs,
            self.parallel_rows_per_sec(),
            self.speedup(),
            self.kernel.rows,
            self.kernel.cfds,
            self.kernel.clone_rows_per_sec(),
            self.kernel.interned_rows_per_sec(),
            self.kernel.interned_speedup(),
            self.columnar.scan_rows,
            self.columnar.ingest_rows,
            self.columnar.row_scan_rows_per_s,
            self.columnar.scan_rows_per_s,
            self.columnar.scan_speedup(),
            self.columnar.snapshot_open_ms,
            self.columnar.csv_ingest_ms,
            self.columnar.open_speedup(),
        )
    }
}

/// Hardware parallelism the measurement ran on, recorded by every
/// `BENCH_*.json` emitter through this one helper. The caveat lives
/// here instead of being restated per emitter: on a single-core runner
/// any sequential-vs-parallel speedup is meaningless (the shards just
/// time-slice), so readers must check this field before comparing
/// speedup numbers across machines or CI runs.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn best_of<T>(samples: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(v);
    }
    (out.unwrap(), best)
}

/// The pre-interning reference kernel, preserved verbatim for the
/// ablation: group by cloning a `Vec<Value>` key per row per CFD and
/// hashing the values directly — what every detection pass did before
/// the interned `GroupBy` kernel. Emits reports in the exact order the
/// shipping native engine does, so the ablation can assert byte parity.
fn detect_all_cloning(
    table: &revival_relation::Table,
    cfds: &[revival_constraints::Cfd],
) -> revival_detect::ViolationReport {
    use revival_detect::{Violation, ViolationReport};
    use revival_relation::{TupleId, Value};
    use std::collections::HashMap;

    struct Group {
        members: Vec<TupleId>,
        rhs_values: Vec<Value>,
    }
    let mut report = ViolationReport::default();
    for (idx, cfd) in cfds.iter().enumerate() {
        if cfd.constant_rows().next().is_some() {
            for (id, row) in table.rows() {
                if let Some(tp) = cfd.constant_violation(&row) {
                    report.violations.push(Violation::CfdConstant { cfd: idx, row: tp, tuple: id });
                }
            }
        }
        let var_rows: Vec<(usize, _)> =
            cfd.tableau.iter().enumerate().filter(|(_, r)| !r.is_constant_row()).collect();
        if var_rows.is_empty() {
            continue;
        }
        let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();
        for (id, row) in table.rows() {
            let key: Vec<Value> = cfd.lhs.iter().map(|&a| row[a].clone()).collect();
            let g = groups
                .entry(key)
                .or_insert_with(|| Group { members: Vec::new(), rhs_values: Vec::new() });
            g.members.push(id);
            let rhs = &row[cfd.rhs];
            if !g.rhs_values.contains(rhs) {
                g.rhs_values.push(rhs.clone());
            }
        }
        let mut keyed: Vec<(&Vec<Value>, &Group)> = groups.iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        for (key, group) in keyed {
            if group.rhs_values.len() < 2 {
                continue;
            }
            for (tp_idx, tp) in &var_rows {
                if tp.lhs_matches(key) {
                    report.violations.push(Violation::CfdVariable {
                        cfd: idx,
                        row: *tp_idx,
                        key: key.clone(),
                        tuples: group.members.clone(),
                    });
                }
            }
        }
    }
    report
}

/// The hospital-workload kernel ablation at `jobs = 1`: interned vs.
/// cloning group-by. Panics unless both paths agree on the violations —
/// the ablation doubles as a correctness check of both kernels.
pub fn measure_kernel_ablation(rows: usize, samples: usize) -> KernelAblation {
    let (_, ds, cfds) = hospital_workload(rows, 0.05, 11);
    let job = DetectJob::on_table(&ds.dirty, &cfds);
    let (clone_report, clone_secs) = best_of(samples, || detect_all_cloning(&ds.dirty, &cfds));
    let (interned_report, interned_secs) = best_of(samples, || NativeEngine.run(&job).unwrap());
    assert_eq!(
        clone_report, interned_report,
        "interned kernel must match the cloning kernel byte-for-byte"
    );
    KernelAblation { rows, cfds: cfds.len(), clone_secs, interned_secs }
}

/// Time sequential vs. parallel detection on `rows` dirty-customer
/// tuples (5% noise, fixed seed), plus the hospital kernel ablation on
/// `kernel_rows` tuples. Panics if any pair of paths disagrees — the
/// benchmark doubles as a parity check.
pub fn measure_detection(
    rows: usize,
    kernel_rows: usize,
    jobs: usize,
    samples: usize,
) -> DetectionPerf {
    let (_, ds, cfds) = customer_workload(rows, 0.05, 11);
    let job = DetectJob::on_table(&ds.dirty, &cfds);
    let (seq_report, sequential_secs) = best_of(samples, || NativeEngine.run(&job).unwrap());
    let parallel = ParallelEngine::new(jobs);
    let (par_report, parallel_secs) = best_of(samples, || parallel.run(&job).unwrap());
    assert_eq!(seq_report, par_report, "parallel engine must match sequential byte-for-byte");
    DetectionPerf {
        rows,
        cfds: cfds.len(),
        violations: seq_report.len(),
        jobs: parallel.jobs(),
        sequential_secs,
        parallel_secs,
        available_cores: available_cores(),
        kernel: measure_kernel_ablation(kernel_rows, samples),
        columnar: measure_columnar(kernel_rows, rows, samples),
    }
}

/// One workload's sequential-vs-sharded [`BatchRepair`] measurement,
/// with the class-resolution work counts that explain it: customer
/// classes are small (a few cells over two or three values), hospital
/// classes are large (hundreds of cells over dozens of values).
#[derive(Clone, Debug)]
pub struct RepairWorkloadPerf {
    pub workload: &'static str,
    pub rows: usize,
    pub cfds: usize,
    pub violations_before: usize,
    pub cells_changed: usize,
    /// [`revival_repair::eqclass::ResolveStats`] of the sequential run.
    pub resolve: revival_repair::eqclass::ResolveStats,
    /// Best-of-N wall time of the sequential repair (`jobs = 1`).
    pub sequential_secs: f64,
    /// Best-of-N wall time of the sharded repair at `jobs` shards.
    pub parallel_secs: f64,
}

impl RepairWorkloadPerf {
    pub fn sequential_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.sequential_secs
    }

    pub fn parallel_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.parallel_secs
    }

    pub fn speedup(&self) -> f64 {
        self.sequential_secs / self.parallel_secs
    }

    fn to_json(&self) -> String {
        format!(
            "{{ \"workload\": \"{}\", \"rows\": {}, \"cfds\": {},\n    \
             \"violations_before\": {}, \"cells_changed\": {},\n    \
             \"classes\": {}, \"class_cells\": {}, \"distinct_values\": {}, \
             \"distances_computed\": {},\n    \
             \"sequential\": {{ \"secs\": {:.6}, \"rows_per_sec\": {:.1} }},\n    \
             \"parallel\": {{ \"secs\": {:.6}, \"rows_per_sec\": {:.1} }},\n    \
             \"speedup\": {:.3} }}",
            self.workload,
            self.rows,
            self.cfds,
            self.violations_before,
            self.cells_changed,
            self.resolve.classes,
            self.resolve.class_cells,
            self.resolve.distinct_values,
            self.resolve.distances_computed,
            self.sequential_secs,
            self.sequential_rows_per_sec(),
            self.parallel_secs,
            self.parallel_rows_per_sec(),
            self.speedup(),
        )
    }
}

/// The repair measurement — `BENCH_repair.json`: rows/sec of the
/// sequential vs. the sharded [`BatchRepair`] on the dirty customer
/// and hospital workloads — the repair counterpart of
/// [`DetectionPerf`].
#[derive(Clone, Debug)]
pub struct RepairPerf {
    pub jobs: usize,
    pub available_cores: usize,
    pub customer: RepairWorkloadPerf,
    pub hospital: RepairWorkloadPerf,
}

impl RepairPerf {
    /// Render as a self-describing JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"repair\",\n  \"jobs\": {},\n  \
             \"available_cores\": {},\n  \
             \"customer\": {},\n  \"hospital\": {}\n}}\n",
            self.jobs,
            self.available_cores,
            self.customer.to_json(),
            self.hospital.to_json(),
        )
    }
}

/// Repair one dirty workload sequentially and at `jobs` shards,
/// asserting the outputs are identical (the benchmark doubles as the
/// repair parity check).
fn measure_repair_workload(
    workload: &'static str,
    dirty: &revival_relation::Table,
    cfds: &[revival_constraints::Cfd],
    jobs: usize,
    samples: usize,
) -> RepairWorkloadPerf {
    use revival_repair::{BatchRepair, CostModel};

    let job = DetectJob::on_table(dirty, cfds);
    let violations_before = NativeEngine.run(&job).unwrap().len();
    let cost = || CostModel::uniform(dirty.schema().arity());
    let sequential = BatchRepair::new(cfds, cost());
    let (seq_out, sequential_secs) = best_of(samples, || sequential.repair(dirty).unwrap());
    let sharded = BatchRepair::new(cfds, cost()).with_jobs(jobs);
    let (par_out, parallel_secs) = best_of(samples, || sharded.repair(dirty).unwrap());
    assert_eq!(seq_out.1, par_out.1, "sharded repair stats must match sequential");
    assert_eq!(
        seq_out.0.diff_cells(&par_out.0),
        0,
        "sharded repair table must match sequential byte-for-byte"
    );
    RepairWorkloadPerf {
        workload,
        rows: dirty.len(),
        cfds: cfds.len(),
        violations_before,
        cells_changed: seq_out.1.cells_changed,
        resolve: seq_out.1.resolve,
        sequential_secs,
        parallel_secs,
    }
}

/// Time sequential vs. sharded [`BatchRepair`] on dirty customer and
/// hospital instances (5% noise, fixed seed). Panics if the sharded
/// repair diverges from the sequential one — the benchmark doubles as
/// a parity check.
pub fn measure_repair(
    customer_rows: usize,
    hospital_rows: usize,
    jobs: usize,
    samples: usize,
) -> RepairPerf {
    let jobs = jobs.max(2);
    let (_, cds, ccfds) = customer_workload(customer_rows, 0.05, 11);
    let (_, hds, hcfds) = hospital_workload(hospital_rows, 0.05, 11);
    RepairPerf {
        jobs,
        available_cores: available_cores(),
        customer: measure_repair_workload("dirty::customer", &cds.dirty, &ccfds, jobs, samples),
        hospital: measure_repair_workload("dirty::hospital", &hds.dirty, &hcfds, jobs, samples),
    }
}

/// One incremental-vs-rescan streaming measurement — the delta
/// maintenance counterpart of [`DetectionPerf`], rendered as
/// `BENCH_stream.json`. `batches` models `semandaq watch` poll rounds:
/// after each batch of appended rows the live violation count is read,
/// either from the maintained delta state or by a full re-detection.
#[derive(Clone, Debug)]
pub struct StreamPerf {
    pub base_rows: usize,
    pub delta_rows: usize,
    pub batches: usize,
    pub cfds: usize,
    pub violations_final: usize,
    /// Best-of-N wall time for the delta session (incremental).
    pub incremental_secs: f64,
    /// Best-of-N wall time for per-batch full rescans (native engine).
    pub rescan_secs: f64,
    pub available_cores: usize,
}

impl StreamPerf {
    pub fn incremental_rows_per_sec(&self) -> f64 {
        self.delta_rows as f64 / self.incremental_secs
    }

    pub fn rescan_rows_per_sec(&self) -> f64 {
        self.delta_rows as f64 / self.rescan_secs
    }

    pub fn speedup(&self) -> f64 {
        self.rescan_secs / self.incremental_secs
    }

    /// Render as a self-describing JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"stream\",\n  \"workload\": \"dirty::customer\",\n  \
             \"base_rows\": {},\n  \"delta_rows\": {},\n  \"batches\": {},\n  \
             \"cfds\": {},\n  \"violations_final\": {},\n  \"available_cores\": {},\n  \
             \"incremental\": {{ \"secs\": {:.6}, \"delta_rows_per_sec\": {:.1} }},\n  \
             \"rescan\": {{ \"secs\": {:.6}, \"delta_rows_per_sec\": {:.1} }},\n  \
             \"speedup\": {:.3}\n}}\n",
            self.base_rows,
            self.delta_rows,
            self.batches,
            self.cfds,
            self.violations_final,
            self.available_cores,
            self.incremental_secs,
            self.incremental_rows_per_sec(),
            self.rescan_secs,
            self.rescan_rows_per_sec(),
            self.speedup(),
        )
    }
}

/// Time processing `delta_rows` appended dirty-customer tuples in
/// `batches` poll rounds over a `base_rows` base: a
/// [`revival_stream::DeltaSession`] maintaining state per insert versus
/// a full [`NativeEngine`] re-detection per batch. Session setup (the
/// base bulk-load) happens outside the timed region — both sides start
/// from a loaded base. Panics if the maintained report diverges from
/// the final full scan — the benchmark doubles as a parity check.
pub fn measure_stream(
    base_rows: usize,
    delta_rows: usize,
    batches: usize,
    samples: usize,
) -> StreamPerf {
    use revival_relation::Table;
    use revival_stream::DeltaSession;

    let (_, ds, cfds) = customer_workload(base_rows + delta_rows, 0.05, 11);
    let mut base = Table::new(ds.dirty.schema().clone());
    let mut delta: Vec<Vec<revival_relation::Value>> = Vec::with_capacity(delta_rows);
    for (i, (_, row)) in ds.dirty.rows().enumerate() {
        if i < base_rows {
            base.push_unchecked(row);
        } else {
            delta.push(row);
        }
    }
    let batch_size = delta.len().div_ceil(batches.max(1)).max(1);

    let mut incremental_secs = f64::INFINITY;
    let mut inc_report = None;
    for _ in 0..samples.max(1) {
        let mut session = DeltaSession::new(1);
        session.register(base.clone(), cfds.clone()).expect("register base");
        let start = Instant::now();
        for batch in delta.chunks(batch_size) {
            for row in batch {
                session.insert("customer", row.clone()).expect("insert delta row");
            }
            let _ = session.violation_count().expect("live count");
        }
        incremental_secs = incremental_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(session.stats().rescans, 0, "trickle inserts must never rescan");
        inc_report = Some(session.report().expect("session report"));
    }

    let mut rescan_secs = f64::INFINITY;
    let mut scan_report = None;
    for _ in 0..samples.max(1) {
        let mut table = base.clone();
        let start = Instant::now();
        for batch in delta.chunks(batch_size) {
            for row in batch {
                table.push_unchecked(row.clone());
            }
            let job = DetectJob::on_table(&table, &cfds);
            scan_report = Some(NativeEngine.run(&job).expect("full rescan"));
        }
        rescan_secs = rescan_secs.min(start.elapsed().as_secs_f64());
    }

    let mut inc = inc_report.expect("at least one incremental sample");
    let mut scan = scan_report.expect("at least one rescan sample");
    inc.normalize();
    scan.normalize();
    assert_eq!(inc, scan, "maintained report must match the full rescan");
    StreamPerf {
        base_rows,
        delta_rows: delta.len(),
        batches: delta.len().div_ceil(batch_size),
        cfds: cfds.len(),
        violations_final: scan.len(),
        incremental_secs,
        rescan_secs,
        available_cores: available_cores(),
    }
}

/// One shard-count's slice of the serve-tier load measurement.
#[derive(Clone, Debug)]
pub struct ServeShardPerf {
    pub shards: usize,
    /// Whether this run fsync-logged every mutation before acking.
    pub wal: bool,
    /// Whether every client hammered one shared table (`hot`) instead
    /// of owning its own (`spread`) — the hot mode is where WAL group
    /// commit can amortize a sync across writers, since grouping is
    /// per shard.
    pub hot_table: bool,
    /// Total ops acked across every client.
    pub ops: usize,
    /// Wall time from the start barrier to the last client finishing.
    pub secs: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Mutating ops in the run (registers + appends) — the denominator
    /// of [`ServeShardPerf::fsyncs_per_op`].
    pub mutation_ops: u64,
    /// WAL fsyncs observed during the run (0 when the WAL is off),
    /// read from the `wal_fsync_us` histogram as a windowed delta.
    pub fsync_count: u64,
    pub fsync_p50_us: u64,
    pub fsync_p99_us: u64,
}

impl ServeShardPerf {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Fsyncs per mutating op: 1.0 is sync-per-op, below 1.0 means
    /// group commit amortized syncs across concurrent writers.
    pub fn fsyncs_per_op(&self) -> f64 {
        if self.mutation_ops == 0 {
            0.0
        } else {
            self.fsync_count as f64 / self.mutation_ops as f64
        }
    }

    fn table_mode(&self) -> &'static str {
        if self.hot_table {
            "hot"
        } else {
            "spread"
        }
    }
}

/// The serve-tier load measurement — `BENCH_serve.json`: concurrent
/// TCP clients driving `semandaq serve` in-process. The WAL-off
/// `single`/`sharded` legs give each client its own table (pricing
/// lock contention as shards grow); the `hot`/`walled` pair puts every
/// client on ONE shared table — the heavy single-table write traffic
/// where group commit can amortize the fsync — with the WAL off and on
/// respectively, so `wal_slowdown` compares like for like.
#[derive(Clone, Debug)]
pub struct ServePerf {
    pub clients: usize,
    pub ops_per_client: usize,
    pub available_cores: usize,
    /// The single-shard (global-lock) baseline, one table per client.
    pub single: ServeShardPerf,
    /// The same load over `shards = N` session shards.
    pub sharded: ServeShardPerf,
    /// Every client on one shared table, WAL off: the durability-free
    /// baseline for `wal_slowdown`.
    pub hot: ServeShardPerf,
    /// The shared-table load with `--wal`: every mutation durably
    /// group-committed before acking. `fsyncs_per_op` below 1.0 shows
    /// grouping engaged; `wal_slowdown` prices what durability still
    /// costs.
    pub walled: ServeShardPerf,
}

impl ServePerf {
    /// Sharded throughput over single-shard throughput.
    pub fn shard_speedup(&self) -> f64 {
        self.sharded.ops_per_sec() / self.single.ops_per_sec()
    }

    /// WAL-on throughput over WAL-off throughput on the shared-table
    /// workload — the fraction of throughput kept when every mutation
    /// is durable before acking.
    pub fn wal_retention(&self) -> f64 {
        self.walled.ops_per_sec() / self.hot.ops_per_sec()
    }

    /// The same ratio the readable way up: how many times slower the
    /// WAL-on run is than the WAL-off run on the same workload
    /// (`1 / wal_retention`).
    pub fn wal_slowdown(&self) -> f64 {
        self.hot.ops_per_sec() / self.walled.ops_per_sec()
    }

    /// Render as a self-describing JSON object.
    pub fn to_json(&self) -> String {
        let side = |s: &ServeShardPerf| {
            format!(
                "{{ \"shards\": {}, \"wal\": {}, \"table_mode\": \"{}\", \"ops\": {}, \
                 \"secs\": {:.6}, \
                 \"ops_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"mutation_ops\": {}, \"fsync_count\": {}, \"fsyncs_per_op\": {:.3}, \
                 \"wal_fsync_p50_us\": {}, \"wal_fsync_p99_us\": {} }}",
                s.shards,
                s.wal,
                s.table_mode(),
                s.ops,
                s.secs,
                s.ops_per_sec(),
                s.p50_us,
                s.p99_us,
                s.mutation_ops,
                s.fsync_count,
                s.fsyncs_per_op(),
                s.fsync_p50_us,
                s.fsync_p99_us,
            )
        };
        format!(
            "{{\n  \"benchmark\": \"serve\",\n  \
             \"workload\": \"3:1 append:count; spread legs: one table per client, \
             hot legs: one shared table\",\n  \
             \"clients\": {},\n  \"ops_per_client\": {},\n  \"available_cores\": {},\n  \
             \"single\": {},\n  \"sharded\": {},\n  \"hot\": {},\n  \"walled\": {},\n  \
             \"shard_speedup\": {:.3},\n  \"wal_retention\": {:.3},\n  \
             \"wal_slowdown\": {:.3}\n}}\n",
            self.clients,
            self.ops_per_client,
            self.available_cores,
            side(&self.single),
            side(&self.sharded),
            side(&self.hot),
            side(&self.walled),
            self.shard_speedup(),
            self.wal_retention(),
            self.wal_slowdown(),
        )
    }
}

/// Drive one in-process [`revival_stream::Server`] with `clients`
/// concurrent TCP connections: register before the start barrier, then
/// `ops_per_client` timed ops per client (three appends, then a live
/// count, repeating). With `shared_table` every client appends to one
/// table `hot` (registered once, up front) — all mutations route to
/// one shard, the workload where WAL group commit can amortize its
/// fsync; otherwise each client owns table `t<i>`. Returns total
/// throughput and per-op latency percentiles. The worker pool pins one
/// connection per worker, so the pool is sized `clients + 1` (the `+
/// 1` takes the shutdown connection).
fn run_serve_load(
    shards: usize,
    clients: usize,
    ops_per_client: usize,
    wal: bool,
    shared_table: bool,
) -> ServeShardPerf {
    use revival_stream::{Request, Response, ServeOptions, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    struct BenchClient {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }
    impl BenchClient {
        fn connect(addr: std::net::SocketAddr) -> BenchClient {
            let stream = TcpStream::connect(addr).expect("connect to bench server");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            BenchClient { stream, reader }
        }
        fn call(&mut self, req: &Request) -> Response {
            self.stream.write_all(req.to_line().as_bytes()).expect("send request");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read response");
            Response::parse(&line).expect("parse response")
        }
    }

    // A WAL run needs a state directory for the log files; the fsync
    // cost it measures comes from the log, not the checkpoints (none
    // are taken during the timed window).
    let state = wal.then(|| {
        let mode = if shared_table { "hot" } else { "spread" };
        let dir = std::env::temp_dir()
            .join(format!("revival_bench_serve_wal_{}_{shards}_{mode}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    // The WAL leg runs with a gather window on the order of one
    // fdatasync (p50 ~200us on this container), so followers collect
    // in the shadow of the in-flight sync and group commit engages —
    // the tuning README documents for write-heavy deployments.
    let opts = ServeOptions {
        jobs: 1,
        shards,
        wal,
        state: state.clone(),
        wal_group_max_wait_us: if wal { 120 } else { 0 },
        ..ServeOptions::default()
    };
    let (server, _) = Server::bind_opts("127.0.0.1:0", &opts).expect("bind bench server");
    // Windowed fsync timings: the histogram is process-global and
    // cumulative, so take a snapshot now and diff after the run.
    let fsync_hist = revival_obs::global().histogram("wal_fsync_us");
    let fsync_before = fsync_hist.snapshot();
    let addr = server.local_addr().expect("bench server addr");
    let workers = clients + 1;
    let server = std::thread::spawn(move || server.run(workers));

    if shared_table {
        // One shared table, registered up front; the setup connection
        // drops before the clients spawn, freeing its worker.
        let mut setup = BenchClient::connect(addr);
        let resp = setup.call(&Request::Register {
            table: "hot".into(),
            csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
            cfds: "hot([cc, zip] -> [street])".into(),
            merged: false,
        });
        assert!(resp.is_ok(), "bench register hot: {resp:?}");
    }

    let barrier = Arc::new(Barrier::new(clients + 1));
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let table = if shared_table { "hot".to_string() } else { format!("t{c}") };
                let mut client = BenchClient::connect(addr);
                if !shared_table {
                    let resp = client.call(&Request::Register {
                        table: table.clone(),
                        csv: "cc,zip,street\n44,EH8,Crichton\n".into(),
                        cfds: format!("{table}([cc, zip] -> [street])"),
                        merged: false,
                    });
                    assert!(resp.is_ok(), "bench register: {resp:?}");
                }
                barrier.wait();
                let mut latencies_us = Vec::with_capacity(ops_per_client);
                for i in 0..ops_per_client {
                    let req = if i % 4 == 3 {
                        Request::Count { replica: false }
                    } else {
                        // The cc key (numeric, per the seed row's inferred
                        // schema) is offset per client so every append lands
                        // in its own pattern-match group and the violation
                        // state stays flat in both table modes.
                        Request::Append {
                            table: table.clone(),
                            row: format!("{},z{i},s{i}", c * 1_000_000 + i),
                        }
                    };
                    let start = Instant::now();
                    let resp = client.call(&req);
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                    assert!(resp.is_ok(), "bench op {i}: {resp:?}");
                }
                latencies_us
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut latencies_us: Vec<f64> =
        joins.into_iter().flat_map(|j| j.join().expect("bench client thread")).collect();
    let secs = start.elapsed().as_secs_f64().max(1e-9);

    let mut shutdown = BenchClient::connect(addr);
    assert!(shutdown.call(&Request::Shutdown).is_ok());
    server.join().expect("server thread").expect("server run");

    let fsync = fsync_hist.snapshot().delta_since(&fsync_before);
    if let Some(dir) = &state {
        let _ = std::fs::remove_dir_all(dir);
    }

    latencies_us.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p).round() as usize];
    // Every op asserted Ok, so the mutation count is arithmetic: the
    // registers (one shared, or one per client) plus each client's
    // appends (every op except the `i % 4 == 3` counts).
    let registers = if shared_table { 1 } else { clients } as u64;
    let appends_per_client = (ops_per_client - ops_per_client / 4) as u64;
    let mutation_ops = registers + clients as u64 * appends_per_client;
    ServeShardPerf {
        shards,
        wal,
        hot_table: shared_table,
        ops: latencies_us.len(),
        secs,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        mutation_ops,
        fsync_count: fsync.count,
        fsync_p50_us: fsync.percentile(0.50),
        fsync_p99_us: fsync.percentile(0.99),
    }
}

/// Measure the serve tier four ways under the same client count:
/// shards=1 vs shards=`shards` with per-client tables and the WAL off
/// (isolating lock contention), then a shared-hot-table pair — WAL off
/// and WAL on — where every mutation routes to one shard.
/// `wal_slowdown` compares that pair, so it prices exactly what
/// durable group commit costs on heavy single-table write traffic; the
/// fsync latency distribution is read back from the `wal_fsync_us`
/// histogram, and `fsyncs_per_op < 1` on the WAL leg shows grouping
/// engaged.
pub fn measure_serve(clients: usize, ops_per_client: usize, shards: usize) -> ServePerf {
    let clients = clients.max(1);
    let shards = shards.max(2);
    ServePerf {
        clients,
        ops_per_client,
        available_cores: available_cores(),
        single: run_serve_load(1, clients, ops_per_client, false, false),
        sharded: run_serve_load(shards, clients, ops_per_client, false, false),
        hot: run_serve_load(shards, clients, ops_per_client, false, true),
        walled: run_serve_load(shards, clients, ops_per_client, true, true),
    }
}

/// One workload's sequential-vs-parallel discovery measurement.
#[derive(Clone, Debug)]
pub struct DiscoveryWorkloadPerf {
    pub workload: &'static str,
    pub rows: usize,
    /// Mined rules (lattice + constant, before vetting).
    pub rules: usize,
    /// Rules surviving the vetting cover.
    pub vetted: usize,
    /// Best-of-N wall time of the sequential engine.
    pub sequential_secs: f64,
    /// Best-of-N wall time of the parallel engine at `jobs` shards.
    pub parallel_secs: f64,
}

impl DiscoveryWorkloadPerf {
    pub fn sequential_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.sequential_secs
    }

    pub fn parallel_rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.parallel_secs
    }

    pub fn speedup(&self) -> f64 {
        self.sequential_secs / self.parallel_secs
    }

    fn to_json(&self) -> String {
        format!(
            "{{ \"workload\": \"{}\", \"rows\": {}, \"rules\": {}, \"vetted\": {},\n    \
             \"sequential\": {{ \"secs\": {:.6}, \"rows_per_sec\": {:.1} }},\n    \
             \"parallel\": {{ \"secs\": {:.6}, \"rows_per_sec\": {:.1} }},\n    \
             \"speedup\": {:.3} }}",
            self.workload,
            self.rows,
            self.rules,
            self.vetted,
            self.sequential_secs,
            self.sequential_rows_per_sec(),
            self.parallel_secs,
            self.parallel_rows_per_sec(),
            self.speedup(),
        )
    }
}

/// The discovery measurement — `BENCH_discovery.json`: rows/sec of the
/// sequential vs. the parallel discovery engine (jobs=1 vs jobs=N) on
/// the dirty hospital and customer workloads, mined approximately
/// (`min_confidence < 1`) so the g3 path is exercised.
#[derive(Clone, Debug)]
pub struct DiscoveryPerf {
    pub jobs: usize,
    pub available_cores: usize,
    pub hospital: DiscoveryWorkloadPerf,
    pub customer: DiscoveryWorkloadPerf,
}

impl DiscoveryPerf {
    /// Render as a self-describing JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"discovery\",\n  \"jobs\": {},\n  \
             \"available_cores\": {},\n  \
             \"hospital\": {},\n  \"customer\": {}\n}}\n",
            self.jobs,
            self.available_cores,
            self.hospital.to_json(),
            self.customer.to_json(),
        )
    }
}

/// Mine one dirty workload sequentially and at `jobs` shards, asserting
/// the outputs are byte-identical (the benchmark doubles as the
/// discovery parity check).
fn measure_discovery_workload(
    workload: &'static str,
    table: &revival_relation::Table,
    jobs: usize,
    samples: usize,
) -> DiscoveryWorkloadPerf {
    use revival_discovery::{
        DiscoverJob, DiscoverOptions, DiscoveryEngine, ParallelDiscovery, SequentialDiscovery,
    };
    let options = DiscoverOptions { min_confidence: 0.92, ..DiscoverOptions::default() };
    let seq_job = DiscoverJob::on_table(table, options.clone());
    let (seq, sequential_secs) = best_of(samples, || SequentialDiscovery.run(&seq_job).unwrap());
    let par_job = DiscoverJob::on_table(table, DiscoverOptions { jobs, ..options });
    let (par, parallel_secs) = best_of(samples, || ParallelDiscovery.run(&par_job).unwrap());
    assert_eq!(
        format!("{:?}", seq.rules),
        format!("{:?}", par.rules),
        "parallel discovery must match sequential byte-for-byte"
    );
    assert_eq!(format!("{:?}", seq.vetted), format!("{:?}", par.vetted));
    assert_eq!(seq.stats, par.stats);
    DiscoveryWorkloadPerf {
        workload,
        rows: table.len(),
        rules: seq.rules.len(),
        vetted: seq.vetted.len(),
        sequential_secs,
        parallel_secs,
    }
}

/// Time sequential vs. parallel discovery on dirty hospital and
/// customer instances (5% noise, fixed seed). Panics if the engines
/// disagree — the benchmark doubles as a parity check.
pub fn measure_discovery(
    hospital_rows: usize,
    customer_rows: usize,
    jobs: usize,
    samples: usize,
) -> DiscoveryPerf {
    let (_, hds, _) = hospital_workload(hospital_rows, 0.05, 11);
    let (_, cds, _) = customer_workload(customer_rows, 0.05, 11);
    DiscoveryPerf {
        jobs,
        available_cores: available_cores(),
        hospital: measure_discovery_workload("dirty::hospital", &hds.dirty, jobs, samples),
        customer: measure_discovery_workload("dirty::customer", &cds.dirty, jobs, samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_measurement_runs_and_serialises() {
        let perf = measure_discovery(800, 600, 4, 1);
        assert_eq!(perf.jobs, 4);
        assert_eq!(perf.hospital.rows, 800);
        assert_eq!(perf.customer.rows, 600);
        assert!(perf.hospital.rules > 0, "dirty hospital must still yield rules");
        assert!(perf.hospital.vetted > 0);
        assert!(perf.hospital.sequential_secs > 0.0 && perf.hospital.parallel_secs > 0.0);
        let json = perf.to_json();
        assert!(json.contains("\"benchmark\": \"discovery\""));
        assert!(json.contains("\"workload\": \"dirty::hospital\""));
        assert!(json.contains("\"workload\": \"dirty::customer\""));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn serve_measurement_runs_and_serialises() {
        let perf = measure_serve(2, 16, 2);
        assert_eq!(perf.clients, 2);
        assert_eq!(perf.single.shards, 1);
        assert_eq!(perf.sharded.shards, 2);
        assert_eq!(perf.single.ops, 32);
        assert_eq!(perf.sharded.ops, 32);
        assert!(perf.single.secs > 0.0 && perf.sharded.secs > 0.0);
        assert!(perf.single.p50_us <= perf.single.p99_us);
        // Table modes: spread legs own a table per client, the hot
        // pair shares one.
        assert!(!perf.single.hot_table && !perf.sharded.hot_table);
        assert!(perf.hot.hot_table && perf.walled.hot_table);
        // The WAL-off runs fsync nothing; the WAL-on run group-commits
        // every mutation (3 appends in 4 ops, plus the register) with
        // at most one fsync each, and its percentile window must be
        // ordered.
        assert!(!perf.single.wal && !perf.sharded.wal && !perf.hot.wal && perf.walled.wal);
        assert_eq!(perf.single.fsync_count, 0);
        assert_eq!(perf.hot.fsync_count, 0);
        assert_eq!(perf.walled.ops, 32);
        // 2 clients x 12 appends + 1 shared register.
        assert_eq!(perf.walled.mutation_ops, 25);
        assert!(perf.walled.fsync_count >= 1, "{}", perf.walled.fsync_count);
        assert!(
            perf.walled.fsync_count <= perf.walled.mutation_ops,
            "group commit never syncs more than once per mutation: {} > {}",
            perf.walled.fsync_count,
            perf.walled.mutation_ops
        );
        assert!(perf.walled.fsyncs_per_op() <= 1.0);
        assert!(perf.walled.fsync_p50_us <= perf.walled.fsync_p99_us);
        let json = perf.to_json();
        assert!(json.contains("\"benchmark\": \"serve\""));
        assert!(json.contains("\"clients\": 2"));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"shard_speedup\""));
        assert!(json.contains("\"wal_retention\""));
        assert!(json.contains("\"wal_slowdown\""));
        assert!(json.contains("\"fsyncs_per_op\""));
        assert!(json.contains("\"table_mode\": \"hot\""));
        assert!(json.contains("\"wal_fsync_p99_us\""));
    }

    #[test]
    fn stream_measurement_runs_and_serialises() {
        let perf = measure_stream(600, 60, 6, 1);
        assert_eq!(perf.base_rows, 600);
        assert_eq!(perf.delta_rows, 60);
        assert_eq!(perf.batches, 6);
        assert!(perf.incremental_secs > 0.0 && perf.rescan_secs > 0.0);
        let json = perf.to_json();
        assert!(json.contains("\"benchmark\": \"stream\""));
        assert!(json.contains("\"delta_rows\": 60"));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn repair_measurement_runs_and_serialises() {
        let perf = measure_repair(400, 600, 4, 1);
        assert_eq!(perf.jobs, 4);
        assert_eq!((perf.customer.rows, perf.hospital.rows), (400, 600));
        for w in [&perf.customer, &perf.hospital] {
            assert!(w.sequential_secs > 0.0 && w.parallel_secs > 0.0);
            assert!(w.violations_before > 0, "5% noise must produce violations");
            assert!(w.cells_changed > 0, "repair must edit cells");
            assert!(w.resolve.classes > 0 && w.resolve.class_cells >= w.resolve.classes);
        }
        let json = perf.to_json();
        assert!(json.contains("\"benchmark\": \"repair\""));
        assert!(json.contains("\"workload\": \"dirty::hospital\", \"rows\": 600"));
        assert!(json.contains("\"distances_computed\""));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn measurement_runs_and_serialises() {
        let perf = measure_detection(2_000, 1_000, 2, 1);
        assert_eq!(perf.rows, 2_000);
        assert_eq!(perf.jobs, 2);
        assert!(perf.sequential_secs > 0.0 && perf.parallel_secs > 0.0);
        assert!(perf.violations > 0, "5% noise must produce violations");
        assert_eq!(perf.kernel.rows, 1_000);
        assert_eq!(perf.kernel.cfds, 8);
        assert!(perf.kernel.clone_secs > 0.0 && perf.kernel.interned_secs > 0.0);
        let json = perf.to_json();
        assert!(json.contains("\"benchmark\": \"detection\""));
        assert!(json.contains("\"rows\": 2000"));
        assert!(json.contains("\"rows_per_sec\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"grouped_interned_rows_per_s\""));
        assert!(json.contains("\"columnar\""));
        assert!(json.contains("\"scan_rows_per_s\""));
        assert!(json.contains("\"snapshot_open_ms\""));
        assert!(json.contains("\"csv_ingest_ms\""));
        assert!(perf.columnar.snapshot_open_ms > 0.0 && perf.columnar.csv_ingest_ms > 0.0);
    }

    #[test]
    fn kernel_ablation_parity_holds() {
        // The ablation itself asserts clone == interned byte-for-byte.
        let k = measure_kernel_ablation(800, 1);
        assert_eq!(k.cfds, 8);
        assert!(k.interned_speedup() > 0.0);
    }
}
