//! The detection engine layer — the one way in to detection.
//!
//! A [`DetectJob`] names the data (a single table or a multi-relation
//! catalog) and the constraint suite (CFDs and, optionally, CINDs); a
//! [`Detector`] turns the job into a [`ViolationReport`]. Every one-shot
//! detection — the `semandaq` CLI, repair's passes, the session tier's
//! CIND probe, the experiments, the tests — builds a job and picks an
//! engine, by type or through [`engine_by_name`].
//!
//! Engines are interchangeable: every one returns the same violations in
//! the one [report order](crate::report), asserted with `==` by tests in
//! this crate and by the workspace-level `cross_engine_parity` property
//! test. [`NativeEngine`] and [`crate::parallel::ParallelEngine`] are the
//! same scan ([`crate::native`]: one pass per embedded FD, reported per
//! original CFD) at one shard and at `jobs` shards.

use crate::cind::detect_cinds;
use crate::incremental::IncrementalDetector;
use crate::native::scan_suite;
use crate::report::{Violation, ViolationReport};
use revival_constraints::{Cfd, Cind};
use revival_relation::{Catalog, Error, Result, Table};

/// The data a detection job runs over: one in-memory table, or a
/// catalog resolving relation names for multi-relation suites.
#[derive(Clone, Copy)]
enum DataRef<'a> {
    Table(&'a Table),
    Catalog(&'a Catalog),
}

/// One detection request: data plus the constraint suite.
///
/// Violation indices in the resulting report refer to positions in
/// `cfds` (for CFD violations) and `cinds` (for CIND violations).
#[derive(Clone, Copy)]
pub struct DetectJob<'a> {
    data: DataRef<'a>,
    pub cfds: &'a [Cfd],
    pub cinds: &'a [Cind],
}

impl<'a> DetectJob<'a> {
    /// A job over a single table (the common CLI/session case).
    pub fn on_table(table: &'a Table, cfds: &'a [Cfd]) -> Self {
        DetectJob { data: DataRef::Table(table), cfds, cinds: &[] }
    }

    /// A job over a catalog of relations.
    pub fn on_catalog(catalog: &'a Catalog, cfds: &'a [Cfd]) -> Self {
        DetectJob { data: DataRef::Catalog(catalog), cfds, cinds: &[] }
    }

    /// Attach a CIND suite (requires a catalog-backed job to resolve
    /// the two relations of each CIND, unless the suite is empty).
    pub fn with_cinds(mut self, cinds: &'a [Cind]) -> Self {
        self.cinds = cinds;
        self
    }

    /// Resolve a relation name against the job's data.
    pub fn table(&self, name: &str) -> Result<&'a Table> {
        match self.data {
            DataRef::Table(t) if t.schema().name() == name => Ok(t),
            DataRef::Table(_) => Err(Error::UnknownRelation(name.into())),
            DataRef::Catalog(c) => c.get(name),
        }
    }

    /// The backing catalog, if the job was built over one.
    pub fn catalog(&self) -> Option<&'a Catalog> {
        match self.data {
            DataRef::Catalog(c) => Some(c),
            DataRef::Table(_) => None,
        }
    }

    /// Validate every CFD tableau in the suite. Engines run this before
    /// scanning so a malformed pattern surfaces as
    /// [`Error::MalformedPattern`] up front, never as a panic inside a
    /// worker thread mid-shard (which would abort a repair pass).
    pub fn validate(&self) -> Result<()> {
        self.cfds.iter().try_for_each(Cfd::validate)
    }

    /// Live rows across the distinct relations the suite reads — the
    /// footprint of data a run touches.
    pub fn rows_in_scope(&self) -> usize {
        let mut seen: Vec<&str> = Vec::new();
        let mut rows = 0;
        let names = self.cfds.iter().map(|c| c.relation.as_str()).chain(
            self.cinds.iter().flat_map(|c| [c.from_relation.as_str(), c.to_relation.as_str()]),
        );
        for name in names {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            if let Ok(table) = self.table(name) {
                rows += table.len();
            }
        }
        rows
    }

    /// Live rows of one relation, 0 if the job can't resolve it.
    pub(crate) fn relation_rows(&self, name: &str) -> u64 {
        self.table(name).map(|t| t.len() as u64).unwrap_or(0)
    }

    /// The per-constraint rows-scanned sum: every CFD covers its
    /// relation's live rows once (however many CFDs share the pass that
    /// reads them), every CIND its source relation. This is what
    /// `detect_rows_scanned_total` records and what each `--explain`
    /// constraint row reports, so per-constraint profile totals
    /// reconcile with the job-level counter exactly.
    pub fn rows_scanned_sum(&self) -> u64 {
        let cfd_rows: u64 = self.cfds.iter().map(|c| self.relation_rows(&c.relation)).sum();
        let cind_rows: u64 = self.cinds.iter().map(|c| self.relation_rows(&c.from_relation)).sum();
        cfd_rows + cind_rows
    }
}

/// The profile row name of CFD `i` in `job`'s suite: a stable `cfd#i`
/// prefix (unique even when the suite repeats a constraint) plus the
/// constraint — a single-row CFD in its one-line surface syntax, any
/// other as its head and row count, so the name does not grow with the
/// tableau. Public so repair profiles name constraints identically to
/// detect profiles.
pub fn cfd_profile_name(job: &DetectJob<'_>, i: usize) -> String {
    let cfd = &job.cfds[i];
    match (job.table(&cfd.relation), cfd.tableau.len()) {
        (Ok(t), 1) => format!("cfd#{i} {}", cfd.display(t.schema())),
        (Ok(t), rows) => {
            format!("cfd#{i} {} {{{rows} rows}}", cfd.embedded_fd().display(t.schema()))
        }
        (Err(_), _) => format!("cfd#{i} {}(?)", cfd.relation),
    }
}

/// The profile row name of CIND `j` in `job`'s suite.
pub fn cind_profile_name(job: &DetectJob<'_>, j: usize) -> String {
    let cind = &job.cinds[j];
    format!("cind#{j} {} <= {}", cind.from_relation, cind.to_relation)
}

/// Make a detect profile complete: every constraint in the suite gets a
/// row, never silently omitted. Violation counts come from the report
/// (authoritative for every engine) and rows-scanned is the
/// constraint's relation size — the same per-constraint semantic
/// [`DetectJob::rows_scanned_sum`] sums, for any engine, so profile
/// totals always reconcile with the job-level counter.
fn fill_profile_gaps(
    job: &DetectJob<'_>,
    report: &ViolationReport,
    profile: &mut revival_obs::JobProfile,
) {
    let mut cfd_viol = vec![0u64; job.cfds.len()];
    let mut cind_viol = vec![0u64; job.cinds.len()];
    for v in &report.violations {
        match v {
            Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } => {
                if let Some(n) = cfd_viol.get_mut(*cfd) {
                    *n += 1;
                }
            }
            Violation::CindMissingWitness { cind, .. } => {
                if let Some(n) = cind_viol.get_mut(*cind) {
                    *n += 1;
                }
            }
        }
    }
    for (i, viol) in cfd_viol.iter().enumerate() {
        let name = cfd_profile_name(job, i);
        let rows = job.relation_rows(&job.cfds[i].relation);
        let c = profile.entry(&name, "cfd");
        c.rows_scanned = rows;
        c.violations = *viol;
    }
    for (j, viol) in cind_viol.iter().enumerate() {
        let name = cind_profile_name(job, j);
        let rows = job.relation_rows(&job.cinds[j].from_relation);
        let c = profile.entry(&name, "cind");
        c.rows_scanned = rows;
        c.violations = *viol;
    }
}

/// A violation-detection engine.
///
/// Implementations must return the same report — the same
/// [`Violation`]s in the [report order](crate::report), asserted with
/// `==` by parity tests — and differ in *how* the scan runs (grouping in
/// process, generated SQL, maintained incremental state, sharded threads).
pub trait Detector {
    /// Engine name, as the CLI `--engine` flag spells it.
    fn name(&self) -> &'static str;

    /// Shard count the engine scans with (1 for sequential engines).
    fn shards(&self) -> usize {
        1
    }

    /// The engine-specific scan. Implementors define this; callers go
    /// through [`Detector::run`] / [`Detector::run_profiled`], which
    /// layer engine metrics on top. Profiling is side-effect-only: the
    /// report is the same with or without a profile, and an engine
    /// attributes what it can measure (the native scan: wall time,
    /// groups and shard times per pass; every engine: wall time per
    /// CIND) — the rest of each constraint's row is filled from the
    /// report, so nothing is silently omitted.
    fn scan(
        &self,
        job: &DetectJob<'_>,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<ViolationReport>;

    /// Detect every violation of the job's suite, recording per-engine
    /// run counts and latency plus rows-scanned / violations-emitted
    /// tallies. Instrumentation is side-effect-only (reports are
    /// untouched, so engine parity holds with it on or off) and skipped
    /// entirely when observability is disabled.
    fn run(&self, job: &DetectJob<'_>) -> Result<ViolationReport> {
        run_job(self, job, None)
    }

    /// [`Detector::run`] with a [`revival_obs::JobProfile`] alongside:
    /// the same report, byte for byte, and the same job-level obs
    /// records, plus one `cfd`/`cind` row per suite constraint (rows
    /// scanned, violations) and one `pass` row per scan the engine
    /// timed.
    fn run_profiled(
        &self,
        job: &DetectJob<'_>,
    ) -> Result<(ViolationReport, revival_obs::JobProfile)> {
        let mut profile = revival_obs::JobProfile::new("detect", self.name(), self.shards() as u64);
        let report = run_job(self, job, Some(&mut profile))?;
        Ok((report, profile))
    }
}

/// The one body behind [`Detector::run`] and [`Detector::run_profiled`].
fn run_job<D: Detector + ?Sized>(
    engine: &D,
    job: &DetectJob<'_>,
    mut profile: Option<&mut revival_obs::JobProfile>,
) -> Result<ViolationReport> {
    let obs = revival_obs::enabled();
    if !obs && profile.is_none() {
        return engine.scan(job, None);
    }
    let start = std::time::Instant::now();
    let result = engine.scan(job, profile.as_deref_mut());
    let us = start.elapsed().as_micros() as u64;
    if obs {
        let name = engine.name();
        let reg = revival_obs::global();
        reg.histogram(&format!("detect_run_us{{engine=\"{name}\"}}")).record(us);
        reg.counter(&format!("detect_runs_total{{engine=\"{name}\"}}")).inc();
        if let Ok(report) = &result {
            reg.counter("detect_violations_total").add(report.len() as u64);
            reg.counter("detect_rows_scanned_total").add(job.rows_scanned_sum());
        }
        if revival_obs::trace::active() {
            revival_obs::trace::record_at(&format!("detect.{name}"), start, us);
        }
    }
    let report = result?;
    if let Some(profile) = profile {
        fill_profile_gaps(job, &report, profile);
        profile.meta_add("suite_cfds", job.cfds.len() as u64);
        profile.meta_add("suite_cinds", job.cinds.len() as u64);
        profile.meta_add("rows_in_scope", job.rows_in_scope() as u64);
        profile.finish(us);
    }
    Ok(report)
}

/// The native hash-grouping engine ([`crate::native`] for CFDs,
/// [`crate::cind`] for CINDs) at one shard — the sequential reference.
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeEngine;

impl Detector for NativeEngine {
    fn name(&self) -> &'static str {
        "native"
    }

    fn scan(
        &self,
        job: &DetectJob<'_>,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<ViolationReport> {
        scan_suite(job, 1, profile)
    }
}

/// The SQL encoding of Fan et al. (TODS 2008), executed on the bundled
/// SQL engine ([`crate::sqlgen`]): each CFD's tableau is stored as
/// relations, one per wildcard mask and RHS kind, and each costs one
/// query joining the data to it — a count that follows the masks, not
/// `|T_p|`, and shares nothing with the native scan's grouping. eCFD
/// rows keep one inline query each. The tableau relations sit beside
/// the job's tables; no table is copied. CINDs fall back to the native
/// witness probe (their `NOT EXISTS` encoding is outside the dialect —
/// see `cind::generate_sql`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SqlEngine;

impl Detector for SqlEngine {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn scan(
        &self,
        job: &DetectJob<'_>,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<ViolationReport> {
        job.validate()?;
        let mut report = crate::sqlgen::detect_all(job)?;
        detect_cinds(job, 1, profile, &mut report.violations)?;
        Ok(report)
    }
}

/// Runs the job through [`IncrementalDetector`]s — the batch entry
/// point of the engine that otherwise maintains violations under
/// streaming inserts/deletes, so parity suites can check the maintained
/// state the `stream` tier depends on. Stateless: every run partitions
/// the suite by relation (an `IncrementalDetector` watches one table),
/// adds each table's tuples through `IncrementalDetector::new` + `load`,
/// and remaps the sub-suite indices back into job-suite order. CINDs
/// are witness-probed per run.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalEngine;

impl Detector for IncrementalEngine {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn scan(
        &self,
        job: &DetectJob<'_>,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<ViolationReport> {
        job.validate()?;
        let mut relations: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, cfd) in job.cfds.iter().enumerate() {
            match relations.iter_mut().find(|(r, _)| *r == cfd.relation) {
                Some((_, idxs)) => idxs.push(i),
                None => relations.push((&cfd.relation, vec![i])),
            }
        }
        // Per job-suite CFD, its violations: concatenated in suite order.
        let mut found: Vec<Vec<Violation>> = vec![Vec::new(); job.cfds.len()];
        for (relation, idxs) in relations {
            let sub: Vec<Cfd> = idxs.iter().map(|&i| job.cfds[i].clone()).collect();
            let table = job.table(relation)?;
            let mut detector = IncrementalDetector::new(sub);
            detector.load(table);
            for mut v in detector.report(table).violations {
                if let Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } =
                    &mut v
                {
                    *cfd = idxs[*cfd];
                    let at = *cfd;
                    found[at].push(v);
                }
            }
        }
        let mut report = ViolationReport { violations: found.concat() };
        detect_cinds(job, 1, profile, &mut report.violations)?;
        Ok(report)
    }
}

/// Look an engine up by CLI name. `jobs` only affects `parallel` (0 =
/// one shard per available core).
pub fn engine_by_name(name: &str, jobs: usize) -> Result<Box<dyn Detector>> {
    match name {
        "native" => Ok(Box::new(NativeEngine)),
        "sql" => Ok(Box::new(SqlEngine)),
        "incremental" => Ok(Box::new(IncrementalEngine)),
        "parallel" => Ok(Box::new(crate::parallel::ParallelEngine::new(jobs))),
        other => {
            Err(Error::Io(format!("unknown engine `{other}` (native|sql|incremental|parallel)")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::{parse_cfds, parse_cinds};
    use revival_relation::{Schema, Type, Value};

    fn customer_schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .build()
    }

    fn customer_table() -> Table {
        let mut t = Table::new(customer_schema());
        for r in [
            ["44", "EH8", "Crichton", "edi"],
            ["44", "EH8", "Mayfield", "edi"],
            ["01", "07974", "MtnAve", "nyc"],
            ["01", "10001", "5th", "nyc"],
        ] {
            t.push(r.iter().map(|s| Value::from(*s)).collect()).unwrap();
        }
        t
    }

    fn suite() -> Vec<Cfd> {
        parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            &customer_schema(),
        )
        .unwrap()
    }

    #[test]
    fn profile_names_do_not_grow_with_the_tableau() {
        let t = customer_table();
        let mut cfds = suite();
        // A mined block: one head, thousands of constant rows.
        let mut block = String::from("customer([cc, zip] -> [street]) {\n");
        (0..2_527).for_each(|i| block.push_str(&format!("  '44', 'EH{i}' || 'street {i}'\n")));
        cfds.extend(
            parse_cfds(&(block + "}\ncustomer([zip] -> [city]) {\n}\n"), t.schema()).unwrap(),
        );
        let job = DetectJob::on_table(&t, &cfds);
        // Single-row names are the constraint's own line, as ever.
        assert_eq!(cfd_profile_name(&job, 0), "cfd#0 customer([cc='44', zip] -> [street])");
        assert_eq!(cfd_profile_name(&job, 3), "cfd#3 customer([cc, zip] -> [street]) {2527 rows}");
        assert_eq!(cfd_profile_name(&job, 4), "cfd#4 customer([zip] -> [city]) {0 rows}");
        assert!(cfd_profile_name(&job, 3).len() <= 200);
    }

    /// Suites whose CFDs share embedded FDs — scanned in one pass,
    /// reported apart: a shared FD next to a verbatim duplicate and an
    /// overlapping plain FD; two variable CFDs plus a constant one; two
    /// constant CFDs violated by the same tuple.
    fn shared_fd_suites() -> Vec<Vec<Cfd>> {
        [
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='44', zip] -> [street])\n\
             customer([cc, zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])",
            "customer([zip='07974'] -> [city='mh'])\n\
             customer([zip='07974'] -> [city='princeton'])",
        ]
        .iter()
        .map(|text| parse_cfds(text, &customer_schema()).unwrap())
        .collect()
    }

    #[test]
    fn all_engines_agree_on_table_jobs() {
        let t = customer_table();
        for cfds in std::iter::once(suite()).chain(shared_fd_suites()) {
            let job = DetectJob::on_table(&t, &cfds);
            let reference = NativeEngine.run(&job).unwrap();
            // Every reported index stays within the suite.
            for v in &reference.violations {
                if let Violation::CfdConstant { cfd, row, .. }
                | Violation::CfdVariable { cfd, row, .. } = v
                {
                    assert!(*row < cfds[*cfd].tableau.len());
                }
            }
            assert!(!reference.is_empty());
            for name in ["sql", "incremental", "parallel"] {
                let got = engine_by_name(name, 2).unwrap().run(&job).unwrap();
                assert_eq!(got, reference, "engine {name} disagrees with native");
            }
        }
        // Two constant CFDs over one embedded FD, both violated by the
        // same tuple: one violation per CFD, not one per pass.
        let twice = &shared_fd_suites()[2];
        assert_eq!(NativeEngine.run(&DetectJob::on_table(&t, twice)).unwrap().len(), 2);
    }

    #[test]
    fn catalog_jobs_span_relations_and_cinds() {
        let cd_s = Schema::builder("cd")
            .attr("album", Type::Str)
            .attr("price", Type::Int)
            .attr("genre", Type::Str)
            .build();
        let book_s = Schema::builder("book")
            .attr("title", Type::Str)
            .attr("price", Type::Int)
            .attr("format", Type::Str)
            .build();
        let mut cd = Table::new(cd_s.clone());
        cd.push(vec!["Dune".into(), Value::Int(20), "a-book".into()]).unwrap();
        cd.push(vec!["Foundation".into(), Value::Int(15), "a-book".into()]).unwrap();
        let mut book = Table::new(book_s.clone());
        book.push(vec!["Dune".into(), Value::Int(20), "audio".into()]).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(customer_table());
        catalog.register(cd);
        catalog.register(book);
        let cfds = suite();
        let cinds = parse_cinds(
            "cd(album, price; genre='a-book') <= book(title, price; format='audio')",
            &[cd_s, book_s],
        )
        .unwrap();
        let job = DetectJob::on_catalog(&catalog, &cfds).with_cinds(&cinds);
        let reference = NativeEngine.run(&job).unwrap();
        // One CIND violation (Foundation has no audio witness) on top of
        // the CFD violations.
        assert_eq!(
            reference
                .violations
                .iter()
                .filter(|v| matches!(v, Violation::CindMissingWitness { .. }))
                .count(),
            1
        );
        for name in ["sql", "incremental", "parallel"] {
            let got = engine_by_name(name, 3).unwrap().run(&job).unwrap();
            assert_eq!(got, reference, "engine {name} disagrees on catalog job");
        }
        // A job with an empty CFD suite sees exactly the CIND portion.
        let cind_only = DetectJob::on_catalog(&catalog, &[]).with_cinds(&cinds);
        assert_eq!(NativeEngine.run(&cind_only).unwrap().len(), 1);
    }

    #[test]
    fn table_jobs_reject_foreign_relations_and_cinds() {
        let t = customer_table();
        let cfds = parse_cfds("customer([zip] -> [city])", &customer_schema()).unwrap();
        let job = DetectJob::on_table(&t, &cfds);
        assert!(job.table("orders").is_err());
        assert!(job.catalog().is_none());
        let cinds: Vec<Cind> = Vec::new();
        let ok = DetectJob::on_table(&t, &cfds).with_cinds(&cinds);
        assert!(NativeEngine.run(&ok).is_ok());
    }

    #[test]
    fn malformed_patterns_error_instead_of_panicking() {
        use revival_constraints::pattern::{PatternRow, PatternValue};
        let t = customer_table();
        let mut cfds = suite();
        // Corrupt one tableau row behind the constructor's back: the
        // arity no longer matches the LHS.
        cfds[0].tableau.push(PatternRow::new(vec![PatternValue::Wildcard], PatternValue::Wildcard));
        let job = DetectJob::on_table(&t, &cfds);
        for name in ["native", "sql", "incremental", "parallel"] {
            let got = engine_by_name(name, 2).unwrap().run(&job);
            assert!(
                matches!(got, Err(revival_relation::Error::MalformedPattern { .. })),
                "engine {name} must reject the malformed suite, got {got:?}"
            );
        }
    }

    #[test]
    fn engine_lookup() {
        for name in ["native", "sql", "incremental", "parallel"] {
            assert_eq!(engine_by_name(name, 1).unwrap().name(), name);
        }
        assert!(engine_by_name("oracle", 1).is_err());
        assert!(engine_by_name("cind", 1).is_err());
    }
}
