//! The three batch workloads. Each pass does what the `semandaq` CLI
//! does for the same job — read the file, ingest, parse the suite, run
//! the engines by name — through the same public entry points, with a
//! span around every call into a layer.

use crate::gen::{self, Dataset};
use crate::layers::planted_recall;
use crate::spec;
use crate::stats::Fnv64;
use crate::trace::{Tracer, ROOT_LAYER};
use revival_constraints::parser::{cfd_to_text, parse_cfds};
use revival_constraints::Cfd;
use revival_detect::{engine_by_name, DetectJob, ViolationReport};
use revival_discovery::{discovery_by_name, DiscoverJob, DiscoverOptions, Discovered};
use revival_relation::{csv, Table};
use revival_repair::{BatchRepair, CostModel, RepairStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// Stringify any layer error; the ledger only ever reports them.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the bounds were derived at.
    Full,
    /// ≤ 2 000 rows / ops: the tier-1 guard tests.
    Smoke,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pass-level output checks, counted as operations: `failed / attempted`
/// is the run's failure share, and any failure fails the run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

pub fn detect(engine: &str, jobs: usize, table: &Table, cfds: &[Cfd]) -> Res<ViolationReport> {
    engine_by_name(engine, jobs)
        .map_err(err("engine_by_name"))?
        .run(&DetectJob::on_table(table, cfds))
        .map_err(err("detect"))
}

pub fn repair(table: &Table, cfds: &[Cfd], jobs: usize) -> Res<(Table, RepairStats)> {
    BatchRepair::new(cfds, CostModel::uniform(table.schema().arity()))
        .with_jobs(jobs)
        .repair(table)
        .map_err(err("repair"))
}

/// Approximate mining from dirty data, as `semandaq discover
/// --min-confidence 0.9` runs it.
pub fn discover_options(jobs: usize) -> DiscoverOptions {
    DiscoverOptions { min_confidence: 0.9, jobs, ..DiscoverOptions::default() }
}

pub fn discover(engine: &str, jobs: usize, table: &Table) -> Res<Discovered> {
    discovery_by_name(engine)
        .map_err(err("discovery_by_name"))?
        .run(&DiscoverJob::on_table(table, discover_options(jobs)))
        .map_err(err("discover"))
}

/// The vetted suite as `semandaq discover --emit` writes it.
pub fn suite_text(cfds: &[Cfd], table: &Table) -> String {
    cfds.iter().map(|c| cfd_to_text(c, table.schema())).collect()
}

/// The header plus the first `rows` data lines of CSV `text`.
pub fn csv_head(text: &str, rows: usize) -> &str {
    text.match_indices('\n').nth(rows).map_or(text, |(i, _)| &text[..=i])
}

fn tableau_rows(cfds: &[Cfd]) -> usize {
    cfds.iter().map(|c| c.tableau.len()).sum()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    CleanHospital,
    AuditCustomer,
    DiscoverHospital,
}

impl BatchKind {
    pub fn name(self) -> &'static str {
        match self {
            BatchKind::CleanHospital => "clean_hospital",
            BatchKind::AuditCustomer => "audit_customer",
            BatchKind::DiscoverHospital => "discover_hospital",
        }
    }

    pub fn rows(self, scale: Scale) -> usize {
        match self {
            BatchKind::CleanHospital => scale.pick(12_000, 800),
            BatchKind::AuditCustomer => scale.pick(100_000, 2_000),
            BatchKind::DiscoverHospital => scale.pick(4_000, 250),
        }
    }

    fn dataset(self, scale: Scale, seed: u64) -> Dataset {
        let rows = self.rows(scale);
        match self {
            BatchKind::CleanHospital => gen::hospital(rows, 0.05, seed),
            BatchKind::AuditCustomer => gen::customer(rows, 0.05, seed, Some(40)),
            BatchKind::DiscoverHospital => gen::hospital(rows, 0.02, seed),
        }
    }
}

/// Rows of `audit_customer` the SQL oracle is held against the native
/// engine on (the oracle is the paper's encoding, not a fast path).
const SQL_ORACLE_ROWS: usize = 50_000;

/// One workload's inputs on disk plus the ground truth kept aside for
/// scoring.
pub struct BatchRig {
    pub kind: BatchKind,
    scale: Scale,
    pub data: Dataset,
    pub input_fnv64: u64,
    pub csv_path: PathBuf,
    pub cfds_path: PathBuf,
    out_path: PathBuf,
    sdq_path: PathBuf,
}

/// Generate the inputs and write them where the passes read them —
/// what `semandaq generate` does before the pipeline starts.
pub fn setup(kind: BatchKind, scale: Scale, seed: u64, dir: &Path) -> Res<BatchRig> {
    std::fs::create_dir_all(dir).map_err(err("create input dir"))?;
    let data = kind.dataset(scale, seed);
    let rig = BatchRig {
        kind,
        scale,
        csv_path: dir.join("dirty.csv"),
        cfds_path: dir.join("cfds.txt"),
        out_path: dir.join("out.csv"),
        sdq_path: dir.join("table.sdq"),
        input_fnv64: 0,
        data,
    };
    csv::write_table_path(&rig.data.truth.dirty, &rig.csv_path).map_err(err("write dirty.csv"))?;
    let suite = rig.data.suite_text();
    std::fs::write(&rig.cfds_path, &suite).map_err(err("write cfds.txt"))?;
    let mut fnv = Fnv64::new();
    fnv.write(&std::fs::read(&rig.csv_path).map_err(err("read back dirty.csv"))?);
    fnv.write(suite.as_bytes());
    Ok(BatchRig { input_fnv64: fnv.finish(), ..rig })
}

/// What one pass produced, kept for the output checks and scoring.
pub struct PassOut {
    pub wall_s: f64,
    /// From the start of the pass to its first answer — the violation
    /// report of the input, or the mined suite.
    pub answer_s: f64,
    pub checks: Checks,
    pub violations: usize,
    pub discovered: Option<Discovered>,
}

impl BatchRig {
    pub fn rows(&self) -> usize {
        self.data.truth.dirty.len()
    }

    fn read(&self, tr: &mut Tracer, path: &Path) -> Res<String> {
        tr.call("relation", "read_file", || std::fs::read_to_string(path))
            .map_err(err("read input"))
    }

    fn ingest(&self, tr: &mut Tracer) -> Res<Table> {
        let text = self.read(tr, &self.csv_path)?;
        tr.call("relation", "csv_ingest", || csv::read_table_infer(self.data.relation, &text))
            .map_err(err("read_table_infer"))
    }

    fn suite(&self, tr: &mut Tracer, table: &Table) -> Res<Vec<Cfd>> {
        let text = self.read(tr, &self.cfds_path)?;
        tr.call("constraints", "parse", || parse_cfds(&text, table.schema()))
            .map_err(err("parse_cfds"))
    }

    /// One pass, timed by one `Instant` pair; the recorder adds a span
    /// per layer call when it is on.
    pub fn pass(&self, tr: &mut Tracer) -> Res<PassOut> {
        let root = tr.begin(ROOT_LAYER, "pass");
        let start = Instant::now();
        let mut out = match self.kind {
            BatchKind::CleanHospital => self.pass_clean(tr, start),
            BatchKind::AuditCustomer => self.pass_audit(tr, start),
            BatchKind::DiscoverHospital => self.pass_discover(tr, start),
        }?;
        out.wall_s = start.elapsed().as_secs_f64();
        tr.end(root);
        Ok(out)
    }

    /// CSV in → certified-clean CSV out.
    fn pass_clean(&self, tr: &mut Tracer, start: Instant) -> Res<PassOut> {
        let table = self.ingest(tr)?;
        let cfds = self.suite(tr, &table)?;
        let before = tr.call("detect", "native", || detect("native", 1, &table, &cfds))?;
        let answer_s = start.elapsed().as_secs_f64();
        let (fixed, _) = tr.call("repair", "batch", || repair(&table, &cfds, 1))?;
        let after = tr.call("detect", "certify", || detect("native", 1, &fixed, &cfds))?;
        tr.call("relation", "csv_write", || csv::write_table_path(&fixed, &self.out_path))
            .map_err(err("write_table_path"))?;
        let mut checks = Checks::default();
        checks.check(after.is_empty(), || {
            format!("repaired table still has {} violation(s)", after.len())
        });
        Ok(PassOut { wall_s: 0.0, answer_s, checks, violations: before.len(), discovered: None })
    }

    /// Ingest, detect, snapshot, reopen, detect again.
    fn pass_audit(&self, tr: &mut Tracer, start: Instant) -> Res<PassOut> {
        let table = self.ingest(tr)?;
        let cfds = self.suite(tr, &table)?;
        let first = tr.call("detect", "native", || detect("native", 1, &table, &cfds))?;
        let answer_s = start.elapsed().as_secs_f64();
        tr.call("relation", "snapshot_save", || table.save_snapshot(&self.sdq_path))
            .map_err(err("save_snapshot"))?;
        let reopened = tr
            .call("relation", "snapshot_open", || Table::open_snapshot(&self.sdq_path))
            .map_err(err("open_snapshot"))?;
        let second = tr.call("detect", "native", || detect("native", 1, &reopened, &cfds))?;
        let mut checks = Checks::default();
        checks.check(first.len() == second.len(), || {
            format!(
                "{} violation(s) on the CSV table, {} on the reopened .sdq",
                first.len(),
                second.len()
            )
        });
        Ok(PassOut { wall_s: 0.0, answer_s, checks, violations: first.len(), discovered: None })
    }

    /// Discover → vet → emit → re-parse → detect with the mined suite.
    fn pass_discover(&self, tr: &mut Tracer, start: Instant) -> Res<PassOut> {
        let table = self.ingest(tr)?;
        let found = tr.call("discovery", "run", || discover("sequential", 1, &table))?;
        let answer_s = start.elapsed().as_secs_f64();
        let text = tr.call("constraints", "render", || suite_text(&found.vetted, &table));
        let reparsed = tr
            .call("constraints", "parse", || parse_cfds(&text, table.schema()))
            .map_err(err("re-parse vetted suite"))?;
        let report = tr.call("detect", "native", || detect("native", 1, &table, &reparsed))?;
        let mut checks = Checks::default();
        checks.check(found.satisfiable.is_yes(), || {
            format!("vetted suite is not satisfiable: {:?}", found.satisfiable)
        });
        checks.check(tableau_rows(&reparsed) == tableau_rows(&found.vetted), || {
            format!(
                "vetted suite has {} row(s), its text re-parses to {}",
                tableau_rows(&found.vetted),
                tableau_rows(&reparsed)
            )
        });
        Ok(PassOut {
            wall_s: 0.0,
            answer_s,
            checks,
            violations: report.len(),
            discovered: Some(found),
        })
    }

    /// Hold the quality of the last pass's own output against
    /// `spec::QUALITY`: a faster pass that repairs or recalls less is a
    /// failed operation, not a gain. Scores depend on the input size, so
    /// only full-scale runs are held to them.
    fn check_quality(&self, checks: &mut Checks, score: f64) {
        let q = spec::quality(self.kind.name()).expect("the workload declares a quality score");
        if self.scale == Scale::Full {
            checks.check(score >= q.floor, || format!("{} {score} is below {}", q.name, q.floor));
        }
    }

    /// The output checks that need not run every pass, on the last
    /// pass's products; and the quality score of those products, for
    /// the workloads that have one.
    pub fn final_checks(&self, last: &PassOut) -> Res<(Checks, Option<f64>)> {
        let mut checks = Checks::default();
        let mut off = Tracer::off();
        let mut quality = None;
        match self.kind {
            BatchKind::CleanHospital => {
                let text = std::fs::read_to_string(&self.out_path).map_err(err("read out.csv"))?;
                let back = csv::read_table_infer(self.data.relation, &text)
                    .map_err(err("re-ingest out.csv"))?;
                checks.check(back.len() == self.rows(), || {
                    format!(
                        "out.csv re-ingests to {} row(s), input had {}",
                        back.len(),
                        self.rows()
                    )
                });
                // Scored on what was written: the output a user keeps.
                let f1 = self.data.truth.score_repair(&back, &self.data.noise_attrs).f1();
                self.check_quality(&mut checks, f1);
                quality = Some(f1);
            }
            BatchKind::AuditCustomer => {
                let text = self.read(&mut off, &self.csv_path)?;
                let table = csv::read_table_infer(self.data.relation, &text)
                    .map_err(err("read_table_infer"))?;
                let cfds = self.suite(&mut off, &table)?;
                let parallel = detect("parallel", nproc(), &table, &cfds)?;
                checks.check(parallel.len() == last.violations, || {
                    format!(
                        "parallel engine reports {} violation(s), native {}",
                        parallel.len(),
                        last.violations
                    )
                });
                // The paper's SQL encoding is the oracle.
                let head =
                    csv::read_table_infer(self.data.relation, csv_head(&text, SQL_ORACLE_ROWS))
                        .map_err(err("ingest oracle rows"))?;
                let head_cfds = parse_cfds(&self.data.suite_text(), head.schema())
                    .map_err(err("parse suite for oracle rows"))?;
                let mut sql = detect("sql", 1, &head, &head_cfds)?;
                let mut native = detect("native", 1, &head, &head_cfds)?;
                sql.normalize();
                native.normalize();
                checks.check(sql == native, || {
                    format!(
                        "sql oracle reports {} violation(s), native {} on the first {} rows",
                        sql.len(),
                        native.len(),
                        head.len()
                    )
                });
            }
            BatchKind::DiscoverHospital => {
                let table = self.ingest(&mut off)?;
                let parallel = discover("parallel", nproc(), &table)?;
                let sequential = last.discovered.as_ref().expect("discover pass keeps its output");
                checks.check(
                    format!("{:?}", parallel.rules) == format!("{:?}", sequential.rules),
                    || "parallel discovery mined a different rule list than sequential".to_string(),
                );
                let planted = parse_cfds(&self.data.suite_text(), table.schema())
                    .map_err(err("parse planted suite"))?;
                let recall = planted_recall(&planted, &sequential.vetted);
                self.check_quality(&mut checks, recall);
                quality = Some(recall);
            }
        }
        Ok((checks, quality))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_head_keeps_the_header_and_whole_rows() {
        let text = "a,b\n1,2\n3,4\n5,6\n";
        assert_eq!(csv_head(text, 2), "a,b\n1,2\n3,4\n");
        assert_eq!(csv_head(text, 3), text);
        assert_eq!(csv_head(text, 99), text);
        assert_eq!(csv_head(text, 0), "a,b\n");
    }
}
