//! Cross-engine parity: on generated dirty-customer data, every
//! detection engine behind the [`Detector`] trait must report the same
//! violations for the same CFD suite, in the one report order
//! (`revival::detect::report`) — compared with `==`, byte for byte, at
//! any shard count.

use proptest::prelude::*;
use rand::prelude::*;
use revival::constraints::cfd::merge_by_embedded_fd;
use revival::constraints::pattern::{PatternRow, PatternValue};
use revival::constraints::Cfd;
use revival::detect::Detector;
use revival::detect::{
    engine_by_name, DetectJob, NativeEngine, ParallelEngine, Violation, ViolationReport,
};
use revival::dirty::customer::{attrs, generate, scaled_suite, standard_cfds, CustomerConfig};
use revival::dirty::hospital;
use revival::dirty::noise::{inject, NoiseConfig};
use revival::relation::{Schema, Table, TupleId, Type, Value};
use std::collections::{BTreeSet, HashMap};

/// A small random table for the tableau property below: 2–4 `Str` /
/// `Int` columns over 3–5-value alphabets, `Null`s when `nulls`, and
/// about one row in six tombstoned. Returns the table and, per column,
/// its alphabet followed by one constant no cell holds.
fn random_table(rng: &mut StdRng, nulls: bool) -> (Table, Vec<Vec<Value>>) {
    let width = rng.gen_range(2..=4usize);
    let mut builder = Schema::builder("r");
    let mut constants: Vec<Vec<Value>> = Vec::new();
    for a in 0..width {
        let int = rng.gen_bool(0.4);
        builder = builder.attr(format!("a{a}"), if int { Type::Int } else { Type::Str });
        let value = |i: i64| if int { Value::Int(i) } else { Value::from(format!("v{i}")) };
        let mut column: Vec<Value> = (0..rng.gen_range(3..=5i64)).map(value).collect();
        column.push(value(99));
        constants.push(column);
    }
    let mut table = Table::new(builder.build());
    for _ in 0..rng.gen_range(0..40usize) {
        let row = constants
            .iter()
            .map(|column| match nulls && rng.gen_bool(0.1) {
                true => Value::Null,
                false => column[rng.gen_range(0..column.len() - 1)].clone(),
            })
            .collect();
        table.push(row).unwrap();
    }
    for slot in 0..table.slots() {
        if rng.gen_bool(0.15) {
            table.delete(TupleId(slot as u64)).unwrap();
        }
    }
    (table, constants)
}

/// One random pattern over a column's constants: `_` with probability
/// `wildcard`, else `= c` (mostly), `≠ c` or `∈ {…}` — the absent
/// constant included.
fn random_pattern(rng: &mut StdRng, constants: &[Value], wildcard: f64) -> PatternValue {
    if rng.gen_bool(wildcard) {
        return PatternValue::Wildcard;
    }
    let mut constant = || constants.choose(rng).unwrap().clone();
    let (a, b) = (constant(), constant());
    match rng.gen_range(0..10u32) {
        0..=5 => PatternValue::Const(a),
        6 | 7 => PatternValue::NotConst(a),
        _ => PatternValue::one_of([a, b]),
    }
}

/// A random suite over 1–3 embedded FDs of `table`, every CFD a single
/// tableau row, the embedded FDs interleaved: rows mix the four pattern
/// forms on both sides, some repeat an earlier row's LHS under another
/// RHS (two rows on one key, conflicting), some are all-`_` with a
/// constant RHS, and each FD sees several wildcard masks.
fn random_suite(rng: &mut StdRng, table: &Table, constants: &[Vec<Value>]) -> Vec<Cfd> {
    let schema = table.schema();
    let width = constants.len();
    let mut suite: Vec<Cfd> = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let rhs = rng.gen_range(0..width);
        let mut lhs: Vec<usize> = (0..width).filter(|&a| a != rhs && rng.gen_bool(0.6)).collect();
        if lhs.is_empty() {
            lhs.push((rhs + 1) % width);
        }
        let names: Vec<&str> = lhs.iter().map(|&a| schema.attr_name(a)).collect();
        let mut rows: Vec<PatternRow> = Vec::new();
        for _ in 0..rng.gen_range(2..=8usize) {
            let row_lhs = match rng.gen_range(0..10u32) {
                0..=2 if !rows.is_empty() => rows.choose(rng).unwrap().lhs.clone(),
                3 => vec![PatternValue::Wildcard; lhs.len()],
                _ => lhs.iter().map(|&a| random_pattern(rng, &constants[a], 0.35)).collect(),
            };
            rows.push(PatternRow::new(row_lhs, random_pattern(rng, &constants[rhs], 0.25)));
        }
        for row in rows {
            let at = rng.gen_range(0..=suite.len());
            suite.insert(at, Cfd::new(schema, &names, schema.attr_name(rhs), vec![row]).unwrap());
        }
    }
    suite
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Native, SQL-gen, incremental and parallel detectors return
    /// identical reports on arbitrary dirty-customer workloads.
    fn engines_report_identical_violation_sets(
        rows in 40usize..320,
        noise_pct in 0usize..12,
        seed in 0u64..1_000,
        jobs in 2usize..6,
    ) {
        let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
        let ds = inject(
            &data.table,
            &NoiseConfig::new(
                noise_pct as f64 / 100.0,
                vec![attrs::STREET, attrs::CITY, attrs::ZIP],
                seed ^ 0xbead,
            ),
        );
        let cfds = standard_cfds(&data.schema);
        let job = DetectJob::on_table(&ds.dirty, &cfds);

        let reference = NativeEngine.run(&job).unwrap();
        for name in ["sql", "incremental", "parallel"] {
            let got = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
            prop_assert_eq!(
                got.violating_tuples(),
                reference.violating_tuples(),
                "engine {} implicates different tuples", name
            );
            prop_assert_eq!(&got, &reference, "engine {} reports different violations", name);
        }
    }

    /// Suites whose CFDs share embedded FDs — the random tail repeats a
    /// CFD verbatim and re-derives one as a plain FD, so one scan pass
    /// serves several CFDs — report identically on every engine and
    /// shard count, and in an order no pass-sharing can disturb.
    fn engines_agree_on_suites_sharing_embedded_fds(
        rows in 40usize..240,
        noise_pct in 0usize..12,
        seed in 0u64..1_000,
        dup in 0usize..5,
    ) {
        let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
        let ds = inject(
            &data.table,
            &NoiseConfig::new(
                noise_pct as f64 / 100.0,
                vec![attrs::STREET, attrs::CITY, attrs::ZIP],
                seed ^ 0xfeed,
            ),
        );
        let mut cfds = standard_cfds(&data.schema);
        // Force real sharing: repeat a suite member verbatim and add an
        // overlapping embedded FD with a different tableau row.
        let base = cfds.len();
        cfds.push(cfds[dup % base].clone());
        cfds.push(revival::constraints::Cfd::from_fd(&data.schema, &["zip"], "city").unwrap());
        let job = DetectJob::on_table(&ds.dirty, &cfds);

        let native = NativeEngine.run(&job).unwrap();
        for name in ["sql", "incremental", "parallel"] {
            for jobs in [1usize, 4] {
                let got = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
                prop_assert_eq!(&got, &native, "engine {} at jobs={} diverges", name, jobs);
            }
        }

        // Order, pinned independently of any other engine: the suite's
        // report is the per-CFD reports concatenated in suite order (a
        // single-member pass *is* the per-CFD scan), at any shard count.
        // Each CFD runs as a one-CFD job, its index remapped to the suite's.
        let per_cfd = ViolationReport {
            violations: cfds
                .iter()
                .enumerate()
                .flat_map(|(i, cfd)| {
                    let one = DetectJob::on_table(&ds.dirty, std::slice::from_ref(cfd));
                    let mut found = NativeEngine.run(&one).unwrap().violations;
                    for v in &mut found {
                        if let Violation::CfdConstant { cfd, .. }
                        | Violation::CfdVariable { cfd, .. } = v
                        {
                            *cfd = i;
                        }
                    }
                    found
                })
                .collect(),
        };
        prop_assert_eq!(&native, &per_cfd);
        for jobs in [3usize, 7] {
            let sharded = ParallelEngine::new(jobs).run(&job).unwrap();
            prop_assert_eq!(&sharded, &per_cfd, "jobs={}", jobs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random tableaux against two oracles that share nothing with the
    /// kernel's constant join. Constants: `Cfd::constant_violation` per
    /// live tuple per CFD, in suite order then row order, is the
    /// kernel's constant report byte for byte at jobs {1, 3}.
    /// Everything: the SQL encoding's report is native's — on `Null`-free
    /// tables, since SQL comparisons on `NULL` are false where the
    /// kernel compares symbols. Both for the single-row suite and for
    /// the same suite merged into multi-row members.
    fn random_tableaux_agree_with_the_value_space_oracle_and_sql(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nulls = rng.gen_bool(0.5);
        let (table, constants) = random_table(&mut rng, nulls);
        let split = random_suite(&mut rng, &table, &constants);
        for suite in [merge_by_embedded_fd(&split), split] {
            let job = DetectJob::on_table(&table, &suite);
            let native = NativeEngine.run(&job).unwrap();
            let oracle: Vec<Violation> = suite
                .iter()
                .enumerate()
                .flat_map(|(cfd, c)| {
                    table.rows().filter_map(move |(tuple, values)| {
                        let row = c.constant_violation(&values)?;
                        Some(Violation::CfdConstant { cfd, row, tuple })
                    })
                })
                .collect();
            let constants_of = |report: &ViolationReport| -> Vec<Violation> {
                let is_constant = |v: &&Violation| matches!(v, Violation::CfdConstant { .. });
                report.violations.iter().filter(is_constant).cloned().collect()
            };
            prop_assert_eq!(constants_of(&native), oracle, "seed {}", seed);
            for jobs in [1usize, 3] {
                let sharded = ParallelEngine::new(jobs).run(&job).unwrap();
                prop_assert_eq!(&sharded, &native, "seed {} jobs {}", seed, jobs);
            }
            if !nulls {
                let sql = engine_by_name("sql", 1).unwrap().run(&job).unwrap();
                prop_assert_eq!(&sql, &native, "seed {}", seed);
            }
        }
    }
}

/// The regression guard for "someone reintroduced a per-CFD scan": the
/// explain profile counts exactly one `pass` row per embedded FD and
/// one `cfd` row per constraint, at any shard count.
#[test]
fn scans_once_per_embedded_fd() {
    let data = generate(&CustomerConfig { rows: 20_000, ..Default::default() });
    let customer = scaled_suite(&data, 40);
    assert_eq!(customer.len(), 43, "the audit_customer suite shape");
    let hosp = hospital::generate(&hospital::HospitalConfig { rows: 2_000, ..Default::default() });
    let hospital = hospital::standard_cfds(&hosp.schema);
    for (table, cfds, passes) in [(&data.table, &customer, 2), (&hosp.table, &hospital, 7)] {
        for jobs in [1usize, 4] {
            let job = DetectJob::on_table(table, cfds);
            let (_, profile) = ParallelEngine::new(jobs).run_profiled(&job).unwrap();
            let rows_of = |kind| profile.constraints.iter().filter(|c| c.kind == kind).count();
            assert_eq!(rows_of("pass"), passes, "{} at jobs={jobs}", cfds[0].relation);
            assert_eq!(rows_of("cfd"), cfds.len(), "{} at jobs={jobs}", cfds[0].relation);
        }
    }
}

/// The regression guard for "someone reintroduced the tableau sweep":
/// the kernel joins each tuple against the constant rows — per wildcard
/// mask one probe, plus the rows under the tuple's own key — so
/// `pattern_rows_checked` follows the masks, not the tableau. A count,
/// identical at any shard count.
#[test]
fn constant_rows_are_probed_per_mask_not_swept() {
    let checked = |table: &Table, cfds: &[Cfd], jobs: usize| -> u64 {
        let job = DetectJob::on_table(table, cfds);
        let (_, profile) = ParallelEngine::new(jobs).run_profiled(&job).unwrap();
        profile.meta_get("pattern_rows_checked").expect("the native scan counts its join work")
    };
    // Σ over embedded FDs of the distinct wildcard masks among their
    // constant rows, and the constant rows themselves.
    let masks_and_rows = |cfds: &[Cfd]| -> (u64, u64) {
        let mut masks: HashMap<(&[usize], usize), BTreeSet<Vec<bool>>> = HashMap::new();
        let mut rows = 0;
        for cfd in cfds {
            for tp in cfd.constant_rows() {
                let mask = tp.lhs.iter().map(PatternValue::is_wildcard).collect();
                masks.entry((&cfd.lhs, cfd.rhs)).or_default().insert(mask);
                rows += 1;
            }
        }
        (masks.values().map(|m| m.len() as u64).sum(), rows)
    };

    // audit_customer's shape: 40 constant rows on one mask of one
    // embedded FD, at most one row per key. A sweep checks 40 × rows.
    let data = generate(&CustomerConfig { rows: 20_000, ..Default::default() });
    let suite = scaled_suite(&data, 40);
    assert_eq!(masks_and_rows(&suite), (1, 40));
    let n = data.table.len() as u64;
    let (one, four) = (checked(&data.table, &suite, 1), checked(&data.table, &suite, 4));
    assert_eq!(one, four, "the count must not depend on the shard count");
    assert!((n..=2 * n).contains(&one), "{one} pattern rows checked for {n} tuples on one mask");

    // discover_hospital's shape: a suite mined from dirty rows, emitted
    // and re-parsed into one CFD per tableau row.
    let hosp = hospital::generate(&hospital::HospitalConfig { rows: 1_000, ..Default::default() });
    let noisy = [hospital::attrs::STATE, hospital::attrs::MEASURE_NAME, hospital::attrs::HNAME];
    let dirty = inject(&hosp.table, &NoiseConfig::new(0.02, noisy.to_vec(), 7)).dirty;
    let mined = {
        use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine};
        let options = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
        let job = DiscoverJob::on_table(&dirty, options);
        let vetted = revival::discovery::SequentialDiscovery.run(&job).unwrap().vetted;
        let text: Vec<String> =
            vetted.iter().map(|c| c.display(dirty.schema()).to_string()).collect();
        revival::constraints::parser::parse_cfds(&text.join("\n"), dirty.schema()).unwrap()
    };
    let (masks, constant_rows) = masks_and_rows(&mined);
    assert!(constant_rows > 1_000, "the mined tableau must be large: {constant_rows} row(s)");
    let n = dirty.len() as u64;
    let (one, four) = (checked(&dirty, &mined, 1), checked(&dirty, &mined, 4));
    assert_eq!(one, four, "the count must not depend on the shard count");
    assert!(one <= 2 * n * masks, "{one} pattern rows checked for {n} tuples × {masks} mask(s)");
    assert!(
        20 * one <= n * constant_rows,
        "{one} pattern rows checked is within 20× of the sweep's {n} × {constant_rows}"
    );
}

/// `discover_hospital`'s shape at `rows` rows: a suite mined from dirty
/// hospital rows at confidence 0.9, emitted and re-parsed.
fn mined_hospital(rows: usize) -> (Table, Vec<Cfd>) {
    use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine};
    let hosp = hospital::generate(&hospital::HospitalConfig { rows, ..Default::default() });
    let noisy = [hospital::attrs::STATE, hospital::attrs::MEASURE_NAME, hospital::attrs::HNAME];
    let dirty = inject(&hosp.table, &NoiseConfig::new(0.02, noisy.to_vec(), 7)).dirty;
    let options = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let job = DiscoverJob::on_table(&dirty, options);
    let vetted = revival::discovery::SequentialDiscovery.run(&job).unwrap().vetted;
    let text: Vec<String> = vetted.iter().map(|c| c.display(dirty.schema()).to_string()).collect();
    let mined = revival::constraints::parser::parse_cfds(&text.join("\n"), dirty.schema()).unwrap();
    (dirty, mined)
}

/// The regression guard for "someone brought back a grouping per pass":
/// detection groups a relation once per attribute set its suite names —
/// the LHS of a CFD with a variable row, the `= c` positions of a
/// constant row — and every pass reads those partitions. So the profile
/// counts one partition per set and one grouped row per tuple per
/// partition, at any shard count, however many passes share a set.
#[test]
fn detect_groups_each_attribute_set_once() {
    let (dirty, mined) = mined_hospital(1_000);
    let mut sets: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut fds: BTreeSet<(&[usize], usize)> = BTreeSet::new();
    for cfd in &mined {
        fds.insert((&cfd.lhs, cfd.rhs));
        for tp in &cfd.tableau {
            let keyed = |p: &PatternValue| !tp.is_constant_row() || !p.is_wildcard();
            let mut set: Vec<usize> =
                cfd.lhs.iter().zip(&tp.lhs).filter(|(_, p)| keyed(p)).map(|(&a, _)| a).collect();
            set.sort_unstable();
            sets.insert(set);
        }
    }
    assert!(sets.len() < fds.len(), "{} set(s) over {} pass(es)", sets.len(), fds.len());
    let n = dirty.len() as u64;
    for jobs in [1usize, 4] {
        let job = DetectJob::on_table(&dirty, &mined);
        let (_, profile) = ParallelEngine::new(jobs).run_profiled(&job).unwrap();
        let partitions = profile.meta_get("partitions").expect("the scan counts its partitions");
        let grouped = profile.meta_get("rows_grouped").expect("the scan counts its grouping");
        assert_eq!(partitions, sets.len() as u64, "jobs={jobs}: one partition per attribute set");
        assert_eq!(grouped, partitions * n, "jobs={jobs}: each partition groups the {n} rows once");
    }
}

/// The regression guard for "someone brought back hashing tuples to
/// group them": detection reads every partition off item ids, so the
/// profile's `rows_hashed` is 0 on a mined suite at any shard count —
/// while `rows_grouped` still counts one grouped row per tuple per
/// partition.
#[test]
fn detect_hashes_no_row() {
    let (dirty, mined) = mined_hospital(1_000);
    for jobs in [1usize, 4] {
        let job = DetectJob::on_table(&dirty, &mined);
        let (_, profile) = ParallelEngine::new(jobs).run_profiled(&job).unwrap();
        let hashed = profile.meta_get("rows_hashed").expect("the scan counts the rows it hashes");
        let grouped = profile.meta_get("rows_grouped").expect("the scan counts its grouping");
        assert_eq!(hashed, 0, "jobs={jobs}: {hashed} row(s) hashed to group {grouped}");
        assert!(grouped > 0, "jobs={jobs}: the mined suite groups its rows");
    }
}

/// The SQL oracle on a mined tableau: its report is native's, and it
/// stores the tableau as relations — one query per (CFD, wildcard mask,
/// RHS kind), however many rows share the mask, where a per-row
/// encoding would run one per tableau row.
#[test]
fn sql_oracle_joins_a_mined_tableau() {
    let (dirty, mined) = mined_hospital(1_000);
    let job = DetectJob::on_table(&dirty, &mined);
    let sql = engine_by_name("sql", 1).unwrap().run(&job).unwrap();
    assert_eq!(sql, NativeEngine.run(&job).unwrap());
    let mut groups: BTreeSet<(usize, Vec<bool>)> = BTreeSet::new();
    let (mut queries, mut rows) = (0, 0);
    for (i, cfd) in mined.iter().enumerate() {
        for tp in &cfd.tableau {
            groups.insert((i, tp.lhs.iter().map(PatternValue::is_wildcard).collect()));
        }
        let q = revival::detect::sqlgen::generate(cfd, dirty.schema());
        queries += q.constant.len() + q.variable.len();
        rows += cfd.tableau.len();
    }
    assert!(rows > 1_000, "the mined tableau must be large: {rows} row(s)");
    assert!(
        queries <= 2 * groups.len(),
        "{queries} queries for {} (CFD, mask) group(s) over {rows} tableau row(s)",
        groups.len()
    );
}

/// A catalog suite that interleaves two relations (`a`, `b`, `a`) is
/// reported in suite order by every engine — not relation by relation.
#[test]
fn engines_report_interleaved_relations_in_suite_order() {
    use revival::constraints::parser::parse_cfds_multi;
    use revival::relation::Catalog;
    let mut catalog = Catalog::new();
    let mut schemas = Vec::new();
    for name in ["a", "b"] {
        let schema = Schema::builder(name).attr("k", Type::Str).attr("v", Type::Str).build();
        let mut t = Table::new(schema.clone());
        for v in ["1", "2"] {
            t.push(vec!["x".into(), v.into()]).unwrap();
        }
        catalog.register(t);
        schemas.push(schema);
    }
    let suite = "a([k] -> [v])\nb([k] -> [v])\na([k='x'] -> [v='1'])";
    let cfds = parse_cfds_multi(suite, &schemas).unwrap();
    let job = DetectJob::on_catalog(&catalog, &cfds);
    let native = NativeEngine.run(&job).unwrap();
    let cfd_of = |v: &Violation| match v {
        Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } => *cfd,
        Violation::CindMissingWitness { .. } => unreachable!("the job has no CIND"),
    };
    assert_eq!(native.violations.iter().map(cfd_of).collect::<Vec<_>>(), [0, 1, 2]);
    for name in ["sql", "incremental", "parallel"] {
        for jobs in [1usize, 3] {
            let got = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
            assert_eq!(got, native, "engine {name} at jobs={jobs}");
        }
    }
}
