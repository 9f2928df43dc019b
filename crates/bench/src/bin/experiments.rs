//! `experiments <name>|all [--full]` — the claims of the tutorial
//! (Fan–Geerts–Jia, VLDB'08) and the papers behind it, one function and
//! one printed table per experiment.
//!
//! Every experiment checks its own answer in line (native ≡ SQL, split
//! ≡ merged, residual = 0, incremental ≡ full), so a run that exits 0
//! is also a smoke test. The `*_ms` and `*_us` columns are single-shot
//! wall clock for the shape of a curve only; the numbers the repo
//! publishes about its own layers come from the `ledger`.

use revival_bench::{customer_workload, full_mode, ms, print_table, repairable_attrs, timed};
use revival_constraints::{Cfd, PatternRow};
use revival_detect::{sqlgen, DetectJob, Detector, NativeEngine, SqlEngine, Violation};
use revival_dirty::customer::{attrs, generate, scaled_suite, standard_cfds, CustomerConfig};
use revival_dirty::noise::{inject, DirtyDataset, NoiseConfig};
use revival_relation::{Table, TupleId, Value};
use revival_repair::{BatchRepair, CostModel, RepairStats};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

/// One experiment: compute, check in line, write its table to `out`.
type Experiment = fn(&mut dyn Write) -> io::Result<()>;

const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("detection-scaling", detection_scaling),
    ("tableau-size", tableau_size),
    ("cfd-vs-fd", cfd_vs_fd),
    ("repair-quality", repair_quality),
    ("repair-scaling", repair_scaling),
    ("incremental-repair", incremental_repair),
    ("cind-scaling", cind_scaling),
    ("incremental-detection", incremental_detection),
    ("static-analysis", static_analysis),
];

/// The experiments `name` selects: one, all nine, or none.
fn select(name: &str) -> Vec<Experiment> {
    EXPERIMENTS.iter().filter(|(n, _)| name == "all" || name == *n).map(|(_, run)| *run).collect()
}

/// Every table goes to stdout through one writer. A reader that stops
/// early (`experiments … | head`) ends the run quietly with status 0 —
/// what SIGPIPE's default action would do, without a signal handler;
/// any other stdout error exits 1 with a message.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--full").collect();
    let selected = match args.as_slice() {
        [name] => select(name),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: experiments <name>|all [--full]\nexperiments: {}", names.join(" "));
        return ExitCode::from(2);
    }
    let mut stdout = io::stdout();
    let out: &mut dyn Write = &mut stdout;
    let written = selected.iter().enumerate().try_for_each(|(i, run)| {
        if i > 0 {
            writeln!(out)?;
        }
        run(out)
    });
    match written.and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn pct(rate: f64) -> String {
    format!("{:.0}%", rate * 100.0)
}

/// `num / den`, reading an empty denominator as a perfect score.
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// How many times slower `slow` was than `fast`.
fn times(slow: Duration, fast: Duration) -> f64 {
    slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)
}

/// The first `n` rows of `table` as a table of their own, the rest as rows.
fn split_rows(table: &Table, n: usize) -> (Table, Vec<Vec<Value>>) {
    let mut head = Table::new(table.schema().clone());
    let mut tail = Vec::new();
    for (i, (_, row)) in table.rows().enumerate() {
        if i < n {
            head.push_unchecked(row.to_vec());
        } else {
            tail.push(row.to_vec());
        }
    }
    (head, tail)
}

/// `base` with the first `k` rows of `delta` appended.
fn with_delta(base: &Table, delta: &[Vec<Value>], k: usize) -> Table {
    let mut combined = base.clone();
    for row in delta.iter().take(k) {
        combined.push_unchecked(row.clone());
    }
    combined
}

/// One timed BatchRepair run under `model`.
fn timed_repair(cfds: &[Cfd], model: CostModel, dirty: &Table) -> (Table, RepairStats, Duration) {
    let repairer = BatchRepair::new(cfds, model);
    let ((fixed, stats), t) = timed(|| repairer.repair(dirty).expect("repair"));
    (fixed, stats, t)
}

/// E1 — detection time vs. instance size (TODS 2008, detection scaling).
///
/// Claim under test (§5): CFD violation detection is efficient and
/// scales with the data. Series: native hash detector vs. the SQL
/// two-query encoding on the bundled engine. Expected shape: both
/// near-linear in n; SQL slower by a constant factor.
fn detection_scaling(out: &mut dyn Write) -> io::Result<()> {
    let sizes: &[usize] = if full_mode() {
        &[20_000, 40_000, 80_000, 160_000, 320_000]
    } else {
        &[5_000, 10_000, 20_000, 40_000]
    };
    writeln!(out, "E1: CFD detection scaling (noise 5%, standard suite)")?;
    let mut rows = Vec::new();
    for &n in sizes {
        let (_, ds, cfds) = customer_workload(n, 0.05, 1);
        let job = DetectJob::on_table(&ds.dirty, &cfds);
        let (native, native_t) = timed(|| NativeEngine.run(&job).expect("native detect"));
        let (sql, sql_t) = timed(|| SqlEngine.run(&job).expect("sql detect"));
        assert_eq!(native.violating_tuples(), sql.violating_tuples(), "engines must agree");
        rows.push(vec![
            n.to_string(),
            native.len().to_string(),
            ms(native_t),
            ms(sql_t),
            format!("{:.2}", times(sql_t, native_t)),
        ]);
    }
    print_table(out, &["tuples", "violations", "native_ms", "sql_ms", "sql/native"], &rows)
}

/// E2 — detection time vs. pattern-tableau size (TODS 2008).
///
/// Pattern tableaux are *data*, not schema: suites grow by adding rows,
/// and detection cost must follow the embedded FDs and the pattern
/// rows, not how a suite splits those rows into CFDs. Series: the
/// `k`-way split suite (one CFD per pattern row) vs. the same suite
/// pre-merged by embedded FD. Expected: equal — the engine scans once
/// per embedded FD either way; both grow only with the constant rows
/// each tuple is checked against, never with the number of scans.
/// `sql_queries` is the SQL oracle's work as a count (split/merged):
/// it stores a tableau as relations, one query per wildcard mask and
/// RHS kind, so the merged suite's count is flat in `|T_p|` (asserted).
fn tableau_size(out: &mut dyn Write) -> io::Result<()> {
    let n = if full_mode() { 80_000 } else { 20_000 };
    writeln!(out, "E2: detection vs tableau size ({n} tuples, noise 5%)")?;
    let data = generate(&CustomerConfig { rows: n, ..Default::default() });
    let ds = inject(&data.table, &NoiseConfig::new(0.05, vec![attrs::STREET, attrs::CITY], 2));
    let queries = |suite: &[Cfd]| -> usize {
        let generated = suite.iter().map(|c| sqlgen::generate(c, ds.dirty.schema()));
        generated.map(|q| q.constant.len() + q.variable.len()).sum()
    };
    let mut rows = Vec::new();
    let mut merged_queries = None;
    for k in [1, 2, 4, 8, 16, 32] {
        let suite = scaled_suite(&data, k);
        let merged_suite = revival_constraints::cfd::merge_by_embedded_fd(&suite);
        let merged_q = *merged_queries.get_or_insert(queries(&merged_suite));
        assert_eq!(queries(&merged_suite), merged_q, "the merged suite's queries grew at k={k}");
        let (split, split_t) =
            timed(|| NativeEngine.run(&DetectJob::on_table(&ds.dirty, &suite)).unwrap());
        let (merged, merged_t) =
            timed(|| NativeEngine.run(&DetectJob::on_table(&ds.dirty, &merged_suite)).unwrap());
        assert_eq!(
            split.violating_tuples(),
            merged.violating_tuples(),
            "the split and the pre-merged suite must implicate the same tuples"
        );
        rows.push(vec![
            suite.len().to_string(),
            merged_suite.len().to_string(),
            format!("{}/{merged_q}", queries(&suite)),
            ms(split_t),
            ms(merged_t),
        ]);
    }
    print_table(out, &["cfds", "merged_cfds", "sql_queries", "split_ms", "merged_ms"], &rows)
}

/// The traditional counterpart of a CFD suite: same embedded FDs, all
/// patterns dropped.
fn fd_counterpart(cfds: &[Cfd]) -> Vec<Cfd> {
    let mut out: Vec<Cfd> = Vec::new();
    for cfd in cfds {
        if !out.iter().any(|c| c.lhs == cfd.lhs && c.rhs == cfd.rhs) {
            let tableau = vec![PatternRow::all_wildcards(cfd.lhs.len())];
            out.push(Cfd { tableau, ..cfd.clone() });
        }
    }
    out
}

/// What one suite's violations say about the planted errors.
struct Blame {
    violations: usize,
    /// Corrupted tuples implicated by some violation.
    recall: f64,
    /// Implicated tuples that are actually corrupted.
    precision: f64,
    /// The same two over tuples blamed *individually*, by a constant
    /// row; `None` for a suite with no constant rows.
    pinpoint: Option<(f64, f64)>,
}

fn blame(ds: &DirtyDataset, suite: &[Cfd]) -> Blame {
    let report = NativeEngine.run(&DetectJob::on_table(&ds.dirty, suite)).expect("detect");
    let corrupted: BTreeSet<TupleId> = ds.modified.iter().map(|(t, _)| *t).collect();
    let implicated = report.violating_tuples();
    let pinpointed: BTreeSet<TupleId> = report
        .violations
        .iter()
        .filter_map(|v| match v {
            Violation::CfdConstant { tuple, .. } => Some(*tuple),
            _ => None,
        })
        .collect();
    let hits = |blamed: &BTreeSet<TupleId>| blamed.intersection(&corrupted).count();
    let has_const = suite.iter().any(|c| c.constant_rows().next().is_some());
    let caught = hits(&implicated);
    Blame {
        violations: report.len(),
        recall: ratio(caught, corrupted.len()),
        precision: ratio(caught, implicated.len()),
        pinpoint: has_const.then(|| {
            let right = hits(&pinpointed);
            (ratio(right, corrupted.len()), ratio(right, pinpointed.len()))
        }),
    }
}

/// E3 — error-catching power: CFD suite vs. its traditional-FD
/// counterpart.
///
/// The tutorial's central §3 claim: *"cfds … are able to capture more
/// inconsistencies than their traditional fd counterparts"*. Both
/// suites share the same embedded FDs; the CFD suite adds pattern rows
/// with constants (here: one `([cc, ac=c] → [city=c'])` row per master
/// pair). Measured against ground truth:
///
/// * **error recall** (`*_recall`) — fraction of corrupted tuples
///   implicated by some violation. FDs miss errors whose LHS group has
///   a single member; constant rows catch them tuple-at-a-time.
/// * **blame precision** (`fd_blame_p` vs `cfd_pin_p`) — fraction of
///   blamed tuples that are actually corrupted. A variable (FD-style)
///   violation implicates the *whole* conflicting group; a constant
///   row pinpoints the culprit (`cfd_pin_r`: the share of corrupted
///   tuples it pinpoints).
///
/// Expected shape: CFD recall ≥ FD recall, and CFD blame precision ≫ FD
/// blame precision, both gaps persisting across noise rates. With 40
/// `(cc, ac)` groups of ~500 tuples every group is in violation at any
/// rate, so `fd_recall` is 1.000 for the wrong reason — the FD suite
/// blames everyone — and `fd_blame_p` is just the noise rate.
fn cfd_vs_fd(out: &mut dyn Write) -> io::Result<()> {
    let n = if full_mode() { 80_000 } else { 20_000 };
    writeln!(out, "E3: error detection — FD counterpart vs CFD suite ({n} tuples, city noise)")?;
    let data = generate(&CustomerConfig { rows: n, ..Default::default() });
    // Full constant coverage of the (cc, ac) → city master map.
    let cfd_suite = scaled_suite(&data, data.city_of.len());
    let fd_suite = fd_counterpart(&cfd_suite);
    let mut rows = Vec::new();
    for (i, rate) in [0.01, 0.02, 0.05, 0.08, 0.10].into_iter().enumerate() {
        let ds = inject(&data.table, &NoiseConfig::new(rate, vec![attrs::CITY], 30 + i as u64));
        let fd = blame(&ds, &fd_suite);
        let cfd = blame(&ds, &cfd_suite);
        let (cfd_pin_r, cfd_pin_p) = cfd.pinpoint.expect("the CFD suite has constant rows");
        assert!(cfd_pin_p >= fd.precision, "a constant row blames no more widely than a group");
        rows.push(vec![
            pct(rate),
            fd.violations.to_string(),
            f3(fd.recall),
            fd.pinpoint.map_or("-".into(), |(r, _)| f3(r)),
            cfd.violations.to_string(),
            f3(cfd.recall),
            f3(cfd_pin_r),
            f3(fd.precision),
            f3(cfd_pin_p),
        ]);
    }
    let headers = [
        "noise",
        "fd_viol",
        "fd_recall",
        "fd_pin_r",
        "cfd_viol",
        "cfd_recall",
        "cfd_pin_r",
        "fd_blame_p",
        "cfd_pin_p",
    ];
    print_table(out, &headers, &rows)
}

/// E4 — repair quality vs. noise rate (Cong et al., VLDB 2007).
///
/// BatchRepair's output is scored against the clean original:
/// precision over changed cells, recall over corrupted cells. Expected
/// shape: both high (> 0.7) at low noise, degrading gracefully as the
/// noise rate grows (plurality evidence thins out).
fn repair_quality(out: &mut dyn Write) -> io::Result<()> {
    let n = if full_mode() { 20_000 } else { 5_000 };
    writeln!(out, "E4: repair precision/recall vs noise ({n} tuples, standard suite)")?;
    let mut rows = Vec::new();
    for rate in [0.01, 0.02, 0.05, 0.08, 0.10] {
        let (data, ds, cfds) = customer_workload(n, rate, 4);
        let (fixed, stats, t) =
            timed_repair(&cfds, CostModel::uniform(data.schema.arity()), &ds.dirty);
        assert_eq!(stats.residual_violations, 0, "repair must satisfy the suite");
        let score = ds.score_repair(&fixed, &repairable_attrs());
        rows.push(vec![
            pct(rate),
            ds.error_count().to_string(),
            stats.cells_changed.to_string(),
            f3(score.precision),
            f3(score.recall),
            f3(score.f1()),
            ms(t),
        ]);
    }
    print_table(
        out,
        &["noise", "injected", "changed", "precision", "recall", "f1", "time_ms"],
        &rows,
    )
}

/// E5 — repair time vs. instance size (Cong et al., VLDB 2007).
///
/// Expected shape: polynomial, dominated by repeated detection +
/// equivalence-class resolution passes; quality stays flat across
/// sizes (reported alongside for context).
fn repair_scaling(out: &mut dyn Write) -> io::Result<()> {
    let sizes: &[usize] = if full_mode() {
        &[10_000, 20_000, 40_000, 80_000, 160_000]
    } else {
        &[2_500, 5_000, 10_000, 20_000]
    };
    writeln!(out, "E5: repair scaling (noise 5%, standard suite)")?;
    let mut rows = Vec::new();
    for &n in sizes {
        let (data, ds, cfds) = customer_workload(n, 0.05, 5);
        let (fixed, stats, t) =
            timed_repair(&cfds, CostModel::uniform(data.schema.arity()), &ds.dirty);
        let score = ds.score_repair(&fixed, &repairable_attrs());
        rows.push(vec![
            n.to_string(),
            stats.passes.to_string(),
            stats.cells_changed.to_string(),
            f3(score.f1()),
            ms(t),
        ]);
    }
    print_table(out, &["tuples", "passes", "changed", "f1", "time_ms"], &rows)
}

/// E6 — IncRepair vs. BatchRepair as the delta grows (Cong et al. §5).
///
/// A clean base receives a dirty delta. IncRepair edits only the delta
/// (`O(|Δ|)`); BatchRepair re-repairs base+delta from scratch. The
/// paper's shape: IncRepair wins for small deltas and the advantage
/// shrinks as `|Δ|/|base|` grows, crossing over around tens of
/// percent.
///
/// The incremental side is what a session pays: the base is registered
/// in a `DeltaSession` outside the timer (the warm state is the point),
/// then the appends (`append_us`) and the `repair` verb (`repair_us`)
/// are timed apart, in µs; `inc_us` is their sum.
///
/// A second table prices the other side of the session's split — a
/// delta at least as large as its base goes through BatchRepair — with
/// both algorithms run on both sides of it: the incremental one is the
/// faster everywhere, but with no base to trust its eldest-wins rule
/// leaves more `wrong` cells (against the clean rows) than the batch
/// side's plurality. The split is a quality rule, not a speed one.
fn incremental_repair(out: &mut dyn Write) -> io::Result<()> {
    use revival_detect::IncrementalDetector;
    use revival_repair::IncRepair;
    let base_n = if full_mode() { 40_000 } else { 10_000 };
    let delta_fracs = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32];
    writeln!(out, "E6: incremental vs batch repair (base {base_n} clean tuples)")?;
    // One generation big enough for base + the largest delta.
    let max_delta = (base_n as f64 * delta_fracs[delta_fracs.len() - 1]).ceil() as usize;
    let data = generate(&CustomerConfig { rows: base_n + max_delta, ..Default::default() });
    let cfds = standard_cfds(&data.schema);
    let arity = data.schema.arity();

    // The first base_n tuples are the clean base; the rest get noised
    // (via a throwaway table) and arrive as the delta.
    let (base, pool) = split_rows(&data.table, base_n);
    let pool_table = with_delta(&Table::new(data.schema.clone()), &pool, pool.len());
    let dirty_pool = inject(&pool_table, &NoiseConfig::new(0.10, repairable_attrs(), 6));
    let dirty_delta: Vec<Vec<Value>> = dirty_pool.dirty.rows().map(|(_, r)| r).collect();

    let mut rows = Vec::new();
    for (frac, want_edits) in delta_fracs.into_iter().zip([17, 36, 81, 159, 336, 735]) {
        let k = (base_n as f64 * frac).ceil() as usize;
        let mut session = revival_stream::DeltaSession::new(1);
        session.register(base.clone(), cfds.clone()).expect("register");
        let delta = dirty_delta[..k].to_vec();
        let ((), append_t) = timed(|| {
            for row in delta {
                session.insert("customer", row).expect("append");
            }
        });
        let (inc_stats, repair_t) = timed(|| session.repair("customer").expect("repair"));
        assert!(revival_detect::native::satisfies(session.table("customer").unwrap(), &cfds));
        assert!(full_mode() || inc_stats.cells_changed == want_edits, "{inc_stats:?}");

        let combined = with_delta(&base, &dirty_delta, k);
        let (_, batch_stats, batch_t) = timed_repair(&cfds, CostModel::uniform(arity), &combined);
        assert_eq!(batch_stats.residual_violations, 0);

        let inc_t = append_t + repair_t;
        rows.push(vec![
            pct(frac),
            k.to_string(),
            inc_stats.cells_changed.to_string(),
            append_t.as_micros().to_string(),
            repair_t.as_micros().to_string(),
            inc_t.as_micros().to_string(),
            batch_t.as_micros().to_string(),
            format!("{:.1}x", times(batch_t, inc_t)),
        ]);
    }
    print_table(
        out,
        &[
            "delta",
            "tuples",
            "inc_edits",
            "append_us",
            "repair_us",
            "inc_us",
            "batch_us",
            "speedup",
        ],
        &rows,
    )?;

    writeln!(out, "\nE6: both repairs where the session takes the batch side (delta >= base)")?;
    let mut rows = Vec::new();
    for (b, k) in [(1_000, 1_000), (1_000, 3_200), (100, 3_200), (0, 3_200)] {
        let (small, _) = split_rows(&base, b);
        let clean = with_delta(&small, &pool, k);
        let combined = with_delta(&small, &dirty_delta, k);
        let mut inc_table = combined.clone();
        let mut detector = IncrementalDetector::new(cfds.clone());
        detector.load(&inc_table);
        let cost = CostModel::uniform(arity);
        let (inc_stats, inc_t) =
            timed(|| IncRepair::repair_pending(&mut inc_table, &mut detector, b, &cost));
        let (fixed, batch_stats, batch_t) = timed_repair(&cfds, cost, &combined);
        rows.push(vec![
            b.to_string(),
            k.to_string(),
            ms(inc_t),
            inc_stats.cells_changed.to_string(),
            inc_table.diff_cells(&clean).to_string(),
            ms(batch_t),
            batch_stats.cells_changed.to_string(),
            fixed.diff_cells(&clean).to_string(),
        ]);
    }
    let headers = [
        "base",
        "delta",
        "inc_ms",
        "inc_edits",
        "inc_wrong",
        "batch_ms",
        "batch_edits",
        "wrong_cells",
    ];
    print_table(out, &headers, &rows)
}

/// E7 — CIND detection scaling (Bravo/Fan/Ma, VLDB 2007).
///
/// The paper's book/CD CIND over growing instances. Expected shape:
/// near-linear in |CD| + |book| (one target-index build + one probe per
/// applicable source tuple); violations found exactly match the planted
/// count.
fn cind_scaling(out: &mut dyn Write) -> io::Result<()> {
    use revival_dirty::orders::{generate, standard_cind, OrdersConfig};
    let sizes: &[usize] = if full_mode() {
        &[20_000, 40_000, 80_000, 160_000, 320_000]
    } else {
        &[5_000, 10_000, 20_000, 40_000]
    };
    writeln!(out, "E7: CIND detection scaling (5% planted violations)")?;
    let mut rows = Vec::new();
    for &n in sizes {
        let data = generate(&OrdersConfig {
            cds: n,
            extra_books: n / 2,
            violation_rate: 0.05,
            ..Default::default()
        });
        let cinds = [standard_cind(&data.cd_schema, &data.book_schema)];
        let book_tuples = data.book.len();
        let mut catalog = revival_relation::Catalog::new();
        catalog.register(data.cd);
        catalog.register(data.book);
        let job = DetectJob::on_catalog(&catalog, &[]).with_cinds(&cinds);
        let (report, t) = timed(|| NativeEngine.run(&job).expect("cind detect"));
        assert_eq!(report.len(), data.planted_violations, "must find exactly the planted set");
        rows.push(vec![n.to_string(), book_tuples.to_string(), report.len().to_string(), ms(t)]);
    }
    print_table(out, &["cd_tuples", "book_tuples", "violations", "time_ms"], &rows)
}

/// E11 — incremental vs. full re-detection as a delta streams in.
///
/// The incremental detector maintains per-FD LHS classes and costs
/// `O(|Δ|)` per batch; full detection re-scans everything. Expected
/// shape: incremental linear in the delta and far cheaper until the
/// delta approaches the base size.
fn incremental_detection(out: &mut dyn Write) -> io::Result<()> {
    let base_n = if full_mode() { 80_000 } else { 20_000 };
    let delta_fracs = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16];
    writeln!(out, "E11: incremental vs full detection (base {base_n} tuples, noise 5%)")?;
    let max_delta = (base_n as f64 * delta_fracs[delta_fracs.len() - 1]).ceil() as usize;
    let data = generate(&CustomerConfig { rows: base_n + max_delta, ..Default::default() });
    let cfds = standard_cfds(&data.schema);
    let noisy = inject(&data.table, &NoiseConfig::new(0.05, vec![attrs::STREET, attrs::CITY], 11));
    let (base, delta_rows) = split_rows(&noisy.dirty, base_n);

    let mut rows = Vec::new();
    for frac in delta_fracs {
        let k = (base_n as f64 * frac).ceil() as usize;
        // Load the base once (not timed — amortised state), then pay
        // for the delta what a session pays: push each row into the
        // table, tell the detector its id. The copy gets its spare
        // capacity from one untimed warm-up row, deleted again —
        // otherwise the first timed push reallocates every column of
        // the base.
        let mut live = base.clone();
        let warm = live.push_unchecked(delta_rows[0].clone());
        live.delete(warm).expect("just pushed");
        let mut inc = revival_detect::IncrementalDetector::new(cfds.clone());
        inc.load(&live);
        let delta = delta_rows[..k].to_vec();
        let (ids, push_t) =
            timed(|| delta.into_iter().map(|row| live.push_unchecked(row)).collect::<Vec<_>>());
        let ((), add_t) = timed(|| ids.iter().for_each(|&id| inc.add(&live, id, None)));
        let inc_count = inc.violation_count();

        let job = DetectJob::on_table(&live, &cfds);
        let (full_report, full_t) = timed(|| NativeEngine.run(&job).expect("full detect"));
        assert_eq!(inc_count, full_report.len(), "state must agree with full scan");

        rows.push(vec![
            format!("{:.1}%", frac * 100.0),
            k.to_string(),
            inc_count.to_string(),
            ms(push_t),
            ms(add_t),
            ms(full_t),
            format!("{:.1}x", times(full_t, push_t + add_t)),
        ]);
    }
    print_table(
        out,
        &["delta", "tuples", "violations", "push_ms", "add_ms", "full_ms", "speedup"],
        &rows,
    )
}

/// T1 — static analyses of CFD suites (TODS 2008 tables).
///
/// Over generated suites of growing size: satisfiability time, with
/// and without finite-domain attributes (the NP-hardness lever);
/// implication time (chase over the bounded witness space); and
/// minimal-cover shrinkage on suites with planted redundancy.
fn static_analysis(out: &mut dyn Write) -> io::Result<()> {
    use revival_constraints::analysis::{implies, is_satisfiable, minimal_cover, Outcome};
    use revival_constraints::parser::parse_cfds;
    use revival_relation::{Schema, Type};

    let finite = || (0..4).map(|i| i.to_string().into()).collect();
    let s_inf = Schema::builder("r")
        .attr("a", Type::Str)
        .attr("b", Type::Str)
        .attr("c", Type::Str)
        .attr("d", Type::Str)
        .build();
    let s_fin = Schema::builder("r")
        .attr_in("a", Type::Str, finite())
        .attr_in("b", Type::Str, finite())
        .attr("c", Type::Str)
        .attr("d", Type::Str)
        .build();
    let sizes: &[usize] = if full_mode() { &[10, 25, 50, 100, 200] } else { &[5, 10, 20, 40] };
    let budget = 4_000_000;
    writeln!(out, "T1: static analyses of generated CFD suites")?;
    let mut rows = Vec::new();
    for &n in sizes {
        // A satisfiable suite: `n` guarded constant rules, pairwise
        // consistent, plus every third a redundant conditional variant
        // of the global rule (implied by it).
        let mut text = String::from("r([b] -> [c])\n");
        for i in 0..n {
            text.push_str(&format!("r([a='{i}'] -> [c='v{i}'])\n"));
            if i % 3 == 0 {
                text.push_str(&format!("r([a='{i}', b] -> [c])\n"));
            }
        }
        let suite_inf = parse_cfds(&text, &s_inf).unwrap();
        let suite_fin = parse_cfds(&text, &s_fin).unwrap();

        let (sat_inf, t_inf) = timed(|| is_satisfiable(&s_inf, &suite_inf, budget));
        let (sat_fin, t_fin) = timed(|| is_satisfiable(&s_fin, &suite_fin, budget));
        assert_eq!(sat_inf, Outcome::Yes);

        // Implication: is the guarded variant of the global rule implied?
        let phi = parse_cfds("r([a='0', b] -> [c])", &s_inf).unwrap();
        let (imp, t_imp) = timed(|| implies(&s_inf, &suite_inf, &phi[0], budget));
        assert_eq!(imp, Outcome::Yes);

        let ((_, cover), t_cover) = timed(|| minimal_cover(&s_inf, &suite_inf, budget));

        rows.push(vec![
            suite_inf.len().to_string(),
            ms(t_inf),
            format!("{:?}({})", sat_fin, ms(t_fin)),
            ms(t_imp),
            format!("{}->{}", cover.rows_in, cover.rows_out),
            ms(t_cover),
        ]);
    }
    let headers = ["cfds", "sat_inf_ms", "sat_finite", "implication_ms", "cover_rows", "cover_ms"];
    print_table(out, &headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_select_one_all_or_nothing() {
        assert_eq!(select("all").len(), EXPERIMENTS.len());
        for (name, _) in EXPERIMENTS {
            assert_eq!(select(name).len(), 1, "{name}");
        }
        assert!(select("nope").is_empty() && select("").is_empty());
    }
}
