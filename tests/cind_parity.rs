//! CIND parity: the symbol-space witness probe against the `Value`-space
//! probe it replaced.
//!
//! [`oracle`] is the replaced code, kept as the reference: the target
//! projection of the pattern-carrying tuples as a `HashSet<Vec<Value>>`,
//! the source pattern checked per row over `Table::rows()`, and the
//! per-column `HashSet<Value>`s that IND discovery and CIND lifting
//! compared. On seeded two-relation catalogs — `Int` and `Str` columns
//! over small alphabets, NULLs, duplicate rows, about one tombstoned slot
//! in six on both sides, self-inclusions `R ⊆ R`, constants no pool
//! holds and type-mismatched correspondences — detection at jobs 1–6,
//! `Cind::satisfied_by`, `Ind::satisfied_by`, a `DeltaSession` under
//! random appends, deletes and updates, and IND/CIND discovery must all
//! answer exactly what the oracle answers. The vendored proptest does not
//! shrink, so every failure names its seed.

use rand::prelude::*;
use revival::constraints::cind::{Cind, PatternCond};
use revival::constraints::Ind;
use revival::detect::{DetectJob, Detector, NativeEngine, ParallelEngine};
use revival::discovery::ind_disc::{discover_unary_inds, lift_to_cinds, IndOptions};
use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine, SequentialDiscovery};
use revival::relation::{Catalog, Schema, Table, TupleId, Type, Value};
use revival::stream::DeltaSession;

/// The replaced `Value`-space inclusion checks, verbatim in behaviour.
mod oracle {
    use revival::constraints::cind::Cind;
    use revival::constraints::Ind;
    use revival::detect::Violation;
    use revival::discovery::ind_disc::IndOptions;
    use revival::discovery::MinedCind;
    use revival::relation::{Catalog, Table, Value};
    use std::collections::{HashMap, HashSet};

    /// Does a source row fall under the CIND's source pattern?
    pub fn applies_to(cind: &Cind, row: &[Value]) -> bool {
        cind.from_conds.iter().all(|c| row[c.attr] == c.value)
    }

    /// Does a target row carry the required target pattern?
    pub fn target_pattern_ok(cind: &Cind, row: &[Value]) -> bool {
        cind.to_conds.iter().all(|c| row[c.attr] == c.value)
    }

    /// The correspondence projection of the pattern-filtered target.
    pub fn build_target_index(cind: &Cind, to: &Table) -> HashSet<Vec<Value>> {
        to.rows()
            .filter(|(_, r)| target_pattern_ok(cind, r))
            .map(|(_, r)| cind.to_attrs.iter().map(|&a| r[a].clone()).collect())
            .collect()
    }

    /// Every CIND's missing witnesses, in suite order then row order.
    pub fn violations(catalog: &Catalog, cinds: &[Cind]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (j, cind) in cinds.iter().enumerate() {
            let from = catalog.get(&cind.from_relation).unwrap();
            let target = build_target_index(cind, catalog.get(&cind.to_relation).unwrap());
            for (tuple, row) in from.rows() {
                let key: Vec<Value> = cind.from_attrs.iter().map(|&a| row[a].clone()).collect();
                if applies_to(cind, &row) && !target.contains(&key) {
                    out.push(Violation::CindMissingWitness { cind: j, tuple });
                }
            }
        }
        out
    }

    /// Distinct values of one column.
    pub fn column_values(table: &Table, attr: usize) -> HashSet<Value> {
        table.rows().map(|(_, r)| r[attr].clone()).collect()
    }

    fn sorted_names(catalog: &Catalog) -> Vec<&str> {
        let mut names: Vec<&str> = catalog.relation_names().collect();
        names.sort();
        names
    }

    pub fn discover_unary_inds(catalog: &Catalog, options: &IndOptions) -> Vec<Ind> {
        let names = sorted_names(catalog);
        let mut out = Vec::new();
        for &from_name in &names {
            let from = catalog.get(from_name).unwrap();
            for &to_name in &names {
                let to = catalog.get(to_name).unwrap();
                for a in 0..from.schema().arity() {
                    let from_set = column_values(from, a);
                    if from_set.len() < options.min_distinct {
                        continue;
                    }
                    for b in 0..to.schema().arity() {
                        if (from_name == to_name && a == b)
                            || from.schema().attribute(a).ty != to.schema().attribute(b).ty
                        {
                            continue;
                        }
                        if from_set.is_subset(&column_values(to, b)) {
                            out.push(Ind {
                                from_relation: from_name.to_string(),
                                from_attrs: vec![a],
                                to_relation: to_name.to_string(),
                                to_attrs: vec![b],
                            });
                        }
                    }
                }
            }
        }
        out
    }

    pub fn lift_to_cinds(
        catalog: &Catalog,
        from_relation: &str,
        from_attr: usize,
        to_relation: &str,
        to_attr: usize,
        options: &IndOptions,
    ) -> Vec<MinedCind> {
        let from = catalog.get(from_relation).unwrap();
        let to = catalog.get(to_relation).unwrap();
        let target = column_values(to, to_attr);
        let mut out = Vec::new();
        for cond_attr in 0..from.schema().arity() {
            if cond_attr == from_attr {
                continue;
            }
            let mut by_value: HashMap<Value, (usize, bool)> = HashMap::new();
            for (_, row) in from.rows() {
                let entry = by_value.entry(row[cond_attr].clone()).or_insert((0, true));
                entry.0 += 1;
                if !target.contains(&row[from_attr]) {
                    entry.1 = false;
                }
            }
            if by_value.len() > 16 {
                continue;
            }
            let mut values: Vec<(Value, (usize, bool))> = by_value.into_iter().collect();
            values.sort_by(|x, y| x.0.cmp(&y.0));
            for (v, (support, holds)) in values {
                if holds && support >= options.min_support {
                    let cind = Cind::new(
                        from.schema(),
                        &[from.schema().attr_name(from_attr)],
                        &[(from.schema().attr_name(cond_attr), v)],
                        to.schema(),
                        &[to.schema().attr_name(to_attr)],
                        &[],
                    )
                    .unwrap();
                    out.push(MinedCind { cind, support });
                }
            }
        }
        out
    }

    /// A catalog discovery job's CIND candidates.
    pub fn mine_cinds(catalog: &Catalog, options: &IndOptions) -> Vec<MinedCind> {
        let inds = discover_unary_inds(catalog, options);
        let mut out = Vec::new();
        for ind in &inds {
            let from = catalog.get(&ind.from_relation).unwrap();
            let to = catalog.get(&ind.to_relation).unwrap();
            let cind = Cind::new(
                from.schema(),
                &[from.schema().attr_name(ind.from_attrs[0])],
                &[],
                to.schema(),
                &[to.schema().attr_name(ind.to_attrs[0])],
                &[],
            )
            .unwrap();
            out.push(MinedCind { cind, support: from.len() });
        }
        let names = sorted_names(catalog);
        for &from_name in &names {
            let from = catalog.get(from_name).unwrap();
            for &to_name in &names {
                if from_name == to_name {
                    continue;
                }
                let to = catalog.get(to_name).unwrap();
                for a in 0..from.schema().arity() {
                    if column_values(from, a).len() < options.min_distinct {
                        continue;
                    }
                    for b in 0..to.schema().arity() {
                        if from.schema().attribute(a).ty != to.schema().attribute(b).ty {
                            continue;
                        }
                        let satisfied = inds.iter().any(|i| {
                            i.from_relation == from_name
                                && i.to_relation == to_name
                                && i.from_attrs == [a]
                                && i.to_attrs == [b]
                        });
                        if !satisfied {
                            out.extend(lift_to_cinds(catalog, from_name, a, to_name, b, options));
                        }
                    }
                }
            }
        }
        out
    }
}

/// A cell of a column of type `ty`: its small alphabet (`Int` 1–3,
/// `Str` "1"–"3", so the two types spell the same digits), or NULL.
fn cell(rng: &mut StdRng, ty: Type) -> Value {
    let i = rng.gen_range(1..=3i64);
    match (rng.gen_range(0..10u32), ty) {
        (0, _) => Value::Null,
        (_, Type::Int) => Value::Int(i),
        _ => Value::from(i.to_string()),
    }
}

/// A pattern constant for a column of type `ty`: usually one its cells
/// can hold, sometimes one no pool holds, sometimes the other type.
fn constant(rng: &mut StdRng, ty: Type) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Int(99),
        1 => Value::from("zz"),
        2 => cell(rng, if ty == Type::Int { Type::Str } else { Type::Int }),
        _ => cell(rng, ty),
    }
}

/// A random row for `schema`.
fn row(rng: &mut StdRng, schema: &Schema) -> Vec<Value> {
    (0..schema.arity()).map(|a| cell(rng, schema.attribute(a).ty)).collect()
}

/// A relation of 2–4 `Int` / `Str` columns and up to 30 rows, some of
/// them duplicates, with about one slot in six tombstoned.
fn relation(rng: &mut StdRng, name: &str) -> Table {
    let mut builder = Schema::builder(name);
    for a in 0..rng.gen_range(2..=4usize) {
        builder =
            builder.attr(format!("c{a}"), if rng.gen_bool(0.5) { Type::Int } else { Type::Str });
    }
    let mut table = Table::new(builder.build());
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for _ in 0..rng.gen_range(0..30usize) {
        let r = match rows.choose(rng) {
            Some(seen) if rng.gen_bool(0.2) => seen.clone(),
            _ => row(rng, table.schema()),
        };
        table.push(r.clone()).unwrap();
        rows.push(r);
    }
    for slot in 0..table.slots() {
        if rng.gen_range(0..6u32) == 0 {
            table.delete(TupleId(slot as u64)).unwrap();
        }
    }
    table
}

fn catalog(rng: &mut StdRng) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(relation(rng, "r"));
    catalog.register(relation(rng, "s"));
    catalog
}

/// `0..=2` conditions over `schema`.
fn conds(rng: &mut StdRng, schema: &Schema) -> Vec<PatternCond> {
    (0..rng.gen_range(0..=2usize))
        .map(|_| {
            let attr = rng.gen_range(0..schema.arity());
            PatternCond { attr, value: constant(rng, schema.attribute(attr).ty) }
        })
        .collect()
}

/// A CIND between two (possibly equal) relations of `catalog` with 1–2
/// correspondence attributes, types unchecked, and 0–2 conditions a side.
fn random_cind(rng: &mut StdRng, catalog: &Catalog) -> Cind {
    let from = catalog.get(["r", "s"][rng.gen_range(0..2usize)]).unwrap().schema();
    let to = catalog.get(["r", "s"][rng.gen_range(0..2usize)]).unwrap().schema();
    let k = rng.gen_range(1..=2usize);
    Cind {
        from_relation: from.name().to_string(),
        from_attrs: (0..k).map(|_| rng.gen_range(0..from.arity())).collect(),
        from_conds: conds(rng, from),
        to_relation: to.name().to_string(),
        to_attrs: (0..k).map(|_| rng.gen_range(0..to.arity())).collect(),
        to_conds: conds(rng, to),
    }
}

fn random_suite(rng: &mut StdRng, catalog: &Catalog) -> Vec<Cind> {
    (0..rng.gen_range(1..=4usize)).map(|_| random_cind(rng, catalog)).collect()
}

const SEEDS: u64 = 400;

#[test]
fn detection_matches_the_value_space_probe_at_any_jobs() {
    // How many CINDs held and how many were violated: both must be common.
    let (mut held, mut violated) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = catalog(&mut rng);
        let cinds = random_suite(&mut rng, &catalog);
        let want = format!("{:?}", oracle::violations(&catalog, &cinds));
        let job = DetectJob::on_catalog(&catalog, &[]).with_cinds(&cinds);
        let native = NativeEngine.run(&job).unwrap();
        assert_eq!(format!("{:?}", native.violations), want, "seed {seed}: native, {cinds:?}");
        for jobs in 1..=6 {
            let report = ParallelEngine::new(jobs).run(&job).unwrap();
            assert_eq!(format!("{:?}", report.violations), want, "seed {seed}: jobs {jobs}");
        }
        for (j, cind) in cinds.iter().enumerate() {
            let from = catalog.get(&cind.from_relation).unwrap();
            let to = catalog.get(&cind.to_relation).unwrap();
            let holds = oracle::violations(&catalog, std::slice::from_ref(cind)).is_empty();
            assert_eq!(cind.satisfied_by(from, to), holds, "seed {seed}: cind#{j} {cind:?}");
            *if holds { &mut held } else { &mut violated } += 1;
            let ind = Ind {
                from_relation: cind.from_relation.clone(),
                from_attrs: cind.from_attrs.clone(),
                to_relation: cind.to_relation.clone(),
                to_attrs: cind.to_attrs.clone(),
            };
            let plain = Cind::from(ind.clone());
            let holds = oracle::violations(&catalog, std::slice::from_ref(&plain)).is_empty();
            assert_eq!(ind.satisfied_by(from, to), holds, "seed {seed}: ind of cind#{j} {ind:?}");
        }
    }
    assert!(held > SEEDS / 4 && violated > SEEDS / 4, "{held} held, {violated} violated");
}

#[test]
fn delta_session_counts_and_reports_what_the_probe_finds() {
    for seed in 0..SEEDS / 2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = catalog(&mut rng);
        let cinds = random_suite(&mut rng, &start);
        let mut session = DeltaSession::new(1);
        for name in ["r", "s"] {
            session.register(start.get(name).unwrap().clone(), Vec::new()).unwrap();
        }
        session.add_cinds(cinds.clone()).unwrap();
        for step in 0..24 {
            let name = ["r", "s"][rng.gen_range(0..2usize)];
            let table = session.table(name).unwrap();
            let live: Vec<TupleId> = table.tuple_ids().collect();
            let schema = table.schema().clone();
            match (rng.gen_range(0..3u32), live.choose(&mut rng).copied()) {
                (1, Some(tuple)) => {
                    session.delete(name, tuple).unwrap();
                }
                (2, Some(tuple)) => {
                    let attr = rng.gen_range(0..schema.arity());
                    let value = cell(&mut rng, schema.attribute(attr).ty);
                    session.update(name, tuple, attr, value).unwrap();
                }
                _ => {
                    session.insert(name, row(&mut rng, &schema)).unwrap();
                }
            }
            if step % 6 == 5 {
                let want = oracle::violations(session.catalog(), &cinds);
                let report = session.report().unwrap();
                assert_eq!(
                    format!("{:?}", report.violations),
                    format!("{want:?}"),
                    "seed {seed}, step {step}: {cinds:?}"
                );
                assert_eq!(session.violation_count().unwrap(), want.len(), "seed {seed}");
            }
        }
    }
}

#[test]
fn ind_discovery_and_lifting_match_the_value_sets() {
    // INDs found and conditions lifted: the generator must produce both.
    let (mut inds, mut lifts) = (0, 0);
    for seed in 0..SEEDS / 2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = catalog(&mut rng);
        let min_support = rng.gen_range(1..=4usize);
        for options in [IndOptions::default(), IndOptions { min_distinct: 2, min_support }] {
            let found = discover_unary_inds(&catalog, &options).unwrap();
            let want = oracle::discover_unary_inds(&catalog, &options);
            assert_eq!(format!("{found:?}"), format!("{want:?}"), "seed {seed}: {options:?}");
            inds += found.len();
            for (from, to) in [("r", "s"), ("s", "r"), ("r", "r")] {
                let (f, t) = (catalog.get(from).unwrap(), catalog.get(to).unwrap());
                for a in 0..f.schema().arity() {
                    for b in 0..t.schema().arity() {
                        let lifted = lift_to_cinds(&catalog, from, a, to, b, &options).unwrap();
                        let want = oracle::lift_to_cinds(&catalog, from, a, to, b, &options);
                        assert_eq!(lifted, want, "seed {seed}: lift {from}[{a}] <= {to}[{b}]");
                        lifts += lifted.len();
                    }
                }
            }
        }
        let options = DiscoverOptions { min_support, ..DiscoverOptions::default() };
        let mined = SequentialDiscovery.run(&DiscoverJob::on_catalog(&catalog, options)).unwrap();
        let iopts = IndOptions { min_support, ..IndOptions::default() };
        assert_eq!(mined.cinds, oracle::mine_cinds(&catalog, &iopts), "seed {seed}: catalog job");
    }
    assert!(inds > SEEDS as usize && lifts > SEEDS as usize, "{inds} INDs, {lifts} lifts");
}

/// Degenerate suites the generator rarely hits: an empty source, an
/// empty target and a target pattern no target tuple can carry.
#[test]
fn empty_sides_and_unmatchable_patterns() {
    let schema = |name: &str| Schema::builder(name).attr("k", Type::Int).build();
    let mut catalog = Catalog::new();
    let mut r = Table::new(schema("r"));
    for i in 0..4 {
        r.push(vec![Value::Int(i)]).unwrap();
    }
    catalog.register(r);
    catalog.register(Table::new(schema("s")));
    let cond = |value: Value| vec![PatternCond { attr: 0, value }];
    let cind = |from: &str, to: &str, to_conds: Vec<PatternCond>| Cind {
        from_relation: from.into(),
        from_attrs: vec![0],
        from_conds: Vec::new(),
        to_relation: to.into(),
        to_attrs: vec![0],
        to_conds,
    };
    let cinds = [
        cind("r", "s", Vec::new()),
        cind("s", "r", Vec::new()),
        cind("r", "r", cond(Value::Int(99))),
        cind("r", "r", cond(Value::Int(2))),
    ];
    let job = DetectJob::on_catalog(&catalog, &[]).with_cinds(&cinds);
    let want = oracle::violations(&catalog, &cinds);
    // 4 + 0 + 4 + 3 (only tuple 2 is its own witness).
    assert_eq!(want.len(), 11);
    for jobs in 1..=6 {
        let report = ParallelEngine::new(jobs).run(&job).unwrap();
        assert_eq!(format!("{:?}", report.violations), format!("{want:?}"), "jobs {jobs}");
    }
}
