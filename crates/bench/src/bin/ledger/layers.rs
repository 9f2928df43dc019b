//! The price list: what each batch layer's public entry points cost.
//! The driver wants every per-layer metric from every workload's traced
//! run, so the list is priced on one fixed probe — a seeded dirty
//! hospital table, the same for every workload — after the workload's
//! own traced passes. Which of these prices matter to a workload is
//! what its `ledger.share_*` say.

use crate::batch::{self, csv_head, err, nproc, Checks, Res, Scale};
use crate::gen;
use crate::stats;
use revival_constraints::analysis::{self, DEFAULT_BUDGET};
use revival_constraints::parser::parse_cfds;
use revival_constraints::{Cfd, PatternRow};
use revival_discovery::cfdminer::{mine_constant_cfds, MinerOptions};
use revival_discovery::tane::mine_lattice;
use revival_relation::{csv, Table};
use std::path::Path;
use std::time::Instant;

/// Named values of one traced run, in recording order.
#[derive(Default)]
pub struct Prices {
    pub values: Vec<(String, f64)>,
    pub checks: Checks,
}

impl Prices {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }
}

/// Rows of the probe table, and of its prefixes the two slow layers are
/// priced on: repair is superlinear in class size and discovery is the
/// slowest layer by orders of magnitude.
struct ProbeRows {
    table: usize,
    repair: usize,
    discovery: usize,
}

impl ProbeRows {
    fn at(scale: Scale) -> ProbeRows {
        ProbeRows {
            table: scale.pick(12_000, 800),
            repair: scale.pick(6_000, 400),
            discovery: scale.pick(2_000, 150),
        }
    }
}

/// `f`'s result and the median wall of `reps` runs of it.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        out = Some(std::hint::black_box(f()));
        walls.push(start.elapsed().as_secs_f64());
    }
    (out.expect("at least one repetition"), stats::median(&walls))
}

/// Price `relation`, `constraints`, `detect`, `repair` and `discovery`
/// on the probe: `dirty::hospital` with 5 % noise and the standard
/// suite, written to disk as `semandaq generate` would.
pub fn batch_prices(seed: u64, scale: Scale, dir: &Path, out: &mut Prices) -> Res<()> {
    let rows = ProbeRows::at(scale);
    let data = gen::hospital(rows.table, 0.05, seed);
    let relation = data.relation;
    let suite_text = data.suite_text();

    // relation: file → text → records → typed table → snapshot → CSV.
    let probe_csv = dir.join("probe.csv");
    csv::write_table_path(&data.truth.dirty, &probe_csv).map_err(err("write probe.csv"))?;
    let (read, read_s) = timed(5, || std::fs::read_to_string(&probe_csv));
    let csv_text = read.map_err(err("read probe.csv"))?;
    let text = csv_text.as_str();
    out.set("relation.read_file_s", read_s);
    let (split, split_s) = timed(3, || csv::parse(text));
    split.map_err(err("csv::parse"))?;
    out.set("relation.csv_split_s", split_s);
    let (table, ingest_s) = timed(3, || csv::read_table_infer(relation, text));
    let table = table.map_err(err("read_table_infer"))?;
    let (typed, typed_s) = timed(3, || csv::read_table(table.schema(), text));
    typed.map_err(err("read_table"))?;
    out.set("relation.csv_typed_s", typed_s);
    out.set("relation.csv_ingest_s", ingest_s);
    out.set("relation.csv_ingest_rows_per_s", table.len() as f64 / ingest_s);
    out.set("relation.pool_values", table.pool().len() as f64);
    let sdq = dir.join("probe.sdq");
    let (saved, save_s) = timed(3, || table.save_snapshot(&sdq));
    saved.map_err(err("save_snapshot"))?;
    out.set("relation.snapshot_save_s", save_s);
    let (opened, open_s) = timed(3, || Table::open_snapshot(&sdq));
    let opened = opened.map_err(err("open_snapshot"))?;
    out.checks.check(opened.len() == table.len(), || {
        format!("snapshot reopens to {} row(s), {} were saved", opened.len(), table.len())
    });
    out.set("relation.snapshot_open_s", open_s);
    let sdq_bytes = std::fs::metadata(&sdq).map_err(err("stat probe.sdq"))?.len();
    out.set("relation.snapshot_bytes_per_csv_byte", sdq_bytes as f64 / text.len() as f64);
    let (wrote, write_s) = timed(3, || csv::write_table_path(&table, &dir.join("probe-out.csv")));
    wrote.map_err(err("write_table_path"))?;
    out.set("relation.csv_write_s", write_s);

    // constraints, then detect: the engines by name, as `semandaq
    // detect --engine` does.
    let (cfds, parse_s) = timed(5, || parse_cfds(&suite_text, table.schema()));
    let cfds = cfds.map_err(err("parse_cfds"))?;
    out.set("constraints.parse_s", parse_s);
    // The static analyses `semandaq analyze` runs on a suite.
    let (_, cover_s) = timed(1, || analysis::minimal_cover(table.schema(), &cfds, DEFAULT_BUDGET));
    let (sat, sat_s) = timed(1, || analysis::is_satisfiable(table.schema(), &cfds, DEFAULT_BUDGET));
    out.checks.check(sat.is_yes(), || format!("the workload's suite is not satisfiable: {sat:?}"));
    out.set("constraints.cover_s", cover_s);
    out.set("constraints.sat_s", sat_s);
    let (native, native_s) = timed(5, || batch::detect("native", 1, &table, &cfds));
    let native = native?;
    out.set("detect.native_s", native_s);
    out.set("detect.native_rows_per_s", table.len() as f64 / native_s);
    let (parallel, parallel_s) = timed(5, || batch::detect("parallel", nproc(), &table, &cfds));
    let parallel = parallel?;
    out.checks.check(parallel == native, || {
        format!("parallel engine reports {} violation(s), native {}", parallel.len(), native.len())
    });
    out.set("detect.parallel_s", parallel_s);
    out.set("detect.parallel_speedup", native_s / parallel_s);
    let (sql, sql_s) = timed(1, || batch::detect("sql", 1, &table, &cfds));
    let (mut sql, mut normal) = (sql?, native.clone());
    sql.normalize();
    normal.normalize();
    out.checks.check(sql == normal, || {
        format!("sql oracle reports {} violation(s), native {}", sql.len(), normal.len())
    });
    out.set("detect.sql_s", sql_s);
    out.set("detect.violations", native.len() as f64);

    // repair: sequential, sharded, certified, scored against the truth.
    let truth = data.head(rows.repair);
    let dirty = csv::read_table_infer(relation, csv_head(text, rows.repair))
        .map_err(err("ingest repair rows"))?;
    let cfds =
        parse_cfds(&suite_text, dirty.schema()).map_err(err("parse suite for repair rows"))?;
    let (fixed, batch_s) = timed(1, || batch::repair(&dirty, &cfds, 1));
    let (fixed, stats) = fixed?;
    out.set("repair.batch_s", batch_s);
    out.set("repair.rows_per_s", dirty.len() as f64 / batch_s);
    let (sharded, sharded_s) = timed(1, || batch::repair(&dirty, &cfds, nproc()));
    let (sharded, sharded_stats) = sharded?;
    out.checks.check(sharded.diff_cells(&fixed) == 0 && sharded_stats == stats, || {
        "sharded repair diverges from the sequential repair".to_string()
    });
    out.set("repair.parallel_s", sharded_s);
    let (certified, certify_s) = timed(3, || batch::detect("native", 1, &fixed, &cfds));
    let certified = certified?;
    out.checks.check(certified.is_empty(), || {
        format!("repaired rows still have {} violation(s)", certified.len())
    });
    out.set("detect.certify_s", certify_s);
    let score = truth.truth.score_repair(&fixed, &truth.noise_attrs);
    out.set("repair.passes", stats.passes as f64);
    out.set("repair.cells_changed", stats.cells_changed as f64);
    out.set("repair.residual_violations", stats.residual_violations as f64);
    out.set(
        "repair.cells_per_error",
        stats.cells_changed as f64 / truth.truth.error_count().max(1) as f64,
    );
    out.set("repair.precision", score.precision);
    out.set("repair.recall", score.recall);
    out.set("repair.f1", score.f1());

    // discovery: the whole run, then its two miners on their own; what
    // is left of the run is vetting (minimal cover + satisfiability).
    let sample = csv::read_table_infer(relation, csv_head(text, rows.discovery))
        .map_err(err("ingest discovery rows"))?;
    let (found, run_s) = timed(1, || batch::discover("sequential", 1, &sample));
    let found = found?;
    let (sharded, sharded_s) = timed(1, || batch::discover("parallel", nproc(), &sample));
    let sharded = sharded?;
    out.checks.check(format!("{:?}", sharded.rules) == format!("{:?}", found.rules), || {
        "parallel discovery mined a different rule list than sequential".to_string()
    });
    let opts = batch::discover_options(1);
    let (_, lattice_s) = timed(1, || mine_lattice(&sample, &opts, 1));
    let miner = MinerOptions { min_support: opts.min_support.max(1), max_size: opts.max_lhs };
    let (_, constant_s) = timed(1, || mine_constant_cfds(&sample, &miner));
    out.set("discovery.run_s", run_s);
    out.set("discovery.parallel_s", sharded_s);
    out.set("discovery.lattice_s", lattice_s);
    out.set("discovery.constant_s", constant_s);
    out.set("discovery.vet_s", run_s - lattice_s - constant_s);
    out.set("discovery.rules_mined", found.rules.len() as f64);
    out.set("discovery.rules_vetted", found.vetted.len() as f64);
    out.set("discovery.keep_ratio", found.vetted.len() as f64 / found.rules.len().max(1) as f64);
    out.set("discovery.candidates_checked", found.stats.candidates_checked as f64);
    out.set("discovery.candidates_pruned", found.stats.candidates_pruned as f64);
    let planted = parse_cfds(&suite_text, sample.schema()).map_err(err("parse planted suite"))?;
    out.set("discovery.planted_recall", planted_recall(&planted, &found.vetted));
    Ok(())
}

/// Does `general` say at least what the variable row `row` of `planted`
/// says: same right-hand side, a subset of its left-hand side, each
/// pattern at least as general? (Sound, not complete — `analysis::implies`
/// is complete but exhausts any practical budget on a mined suite of a
/// hundred rules.)
fn covers(general: &Cfd, planted: &Cfd, row: &PatternRow) -> bool {
    general.rhs == planted.rhs
        && general.tableau.iter().any(|g| {
            g.rhs.is_wildcard()
                && general.lhs.iter().zip(&g.lhs).all(|(attr, pattern)| {
                    planted
                        .lhs
                        .iter()
                        .position(|a| a == attr)
                        .is_some_and(|i| pattern.subsumes(&row.lhs[i]))
                })
        })
}

/// Share of the planted variable rules — the variable rows of the suite
/// the generator satisfies by construction — that the vetted suite
/// contains or generalises.
pub fn planted_recall(planted: &[Cfd], vetted: &[Cfd]) -> f64 {
    let rows: Vec<(&Cfd, &PatternRow)> =
        planted.iter().flat_map(|c| c.variable_rows().map(move |r| (c, r))).collect();
    let recalled = rows.iter().filter(|(c, r)| vetted.iter().any(|v| covers(v, c, r))).count();
    recalled as f64 / rows.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_rules_are_recalled_by_equal_or_more_general_vetted_rules() {
        let schema = revival_dirty::customer::schema();
        let parse = |text: &str| parse_cfds(text, &schema).unwrap();
        let planted = parse("customer([cc='44', zip] -> [street])\ncustomer([cc, ac] -> [city])");
        assert_eq!(planted_recall(&planted, &planted), 1.0);
        // zip -> street generalises the conditional rule; nothing covers [cc, ac] -> city.
        assert_eq!(planted_recall(&planted, &parse("customer([zip] -> [street])")), 0.5);
        // A rule for another country, a wider LHS, or a constant RHS covers nothing.
        let misses = parse(
            "customer([cc='01', zip] -> [street])\ncustomer([cc, ac, zip] -> [city])\n\
             customer([cc='44', ac='131'] -> [city='edi'])",
        );
        assert_eq!(planted_recall(&planted, &misses), 0.0);
    }

    #[test]
    fn timed_reports_the_median_repetition() {
        let mut calls = 0;
        let (out, wall) = timed(3, || {
            calls += 1;
            calls
        });
        assert_eq!((out, calls), (3, 3));
        assert!(wall >= 0.0);
    }
}
