//! Library backing the `semandaq` CLI — the workflow of the Semandaq
//! prototype (\[9\], demo'd at VLDB 2008): load data + CFDs, detect
//! violations (SQL-based or native), compute a candidate repair, let the
//! user inspect and apply manual changes, and see how those changes
//! affect the repair.
//!
//! The CLI surface lives in `main.rs`; everything testable is here.

#![forbid(unsafe_code)]

use revival_constraints::analysis::{self, Outcome};
use revival_constraints::parser::parse_cfds;
use revival_constraints::Cfd;
use revival_detect::native::describe_listing;
use revival_detect::{DetectJob, Detector, ViolationReport};
use revival_relation::{csv, Error, Result, Table, Value};
use revival_repair::{BatchRepair, CostModel, RepairStats};

/// One line of repair stats, shared by the plain and profiled paths so
/// `--explain` cannot drift from the unprofiled summary.
fn repair_summary(stats: &RepairStats, jobs: usize) -> String {
    format!(
        "passes={} cells_changed={} forced={} cost={:.3} residual={} jobs={}",
        stats.passes,
        stats.cells_changed,
        stats.forced_resolutions,
        stats.cost,
        stats.residual_violations,
        jobs
    )
}

/// A loaded session: one table plus its CFD suite.
pub struct Session {
    pub table: Table,
    pub cfds: Vec<Cfd>,
}

impl Session {
    /// Load a session from CSV text and CFD text. The schema is
    /// inferred from the CSV; `table_name` must match the relation the
    /// CFDs constrain.
    pub fn load(table_name: &str, csv_text: &str, cfd_text: &str) -> Result<Session> {
        let table = csv::read_table_infer(table_name, csv_text)?;
        Session::from_table(table, cfd_text)
    }

    /// Build a session from an already-loaded table (e.g. a `.sdq`
    /// snapshot) plus CFD text parsed against its schema.
    pub fn from_table(table: Table, cfd_text: &str) -> Result<Session> {
        let cfds = parse_cfds(cfd_text, table.schema())?;
        Ok(Session { table, cfds })
    }

    /// Detect violations with `engine` (built by
    /// [`revival_detect::engine_by_name`] from the CLI's `--engine` and
    /// `--jobs`).
    pub fn detect(&self, engine: &dyn Detector) -> Result<ViolationReport> {
        engine.run(&DetectJob::on_table(&self.table, &self.cfds))
    }

    /// [`Session::detect`] through the profiled path: same report, byte
    /// for byte, plus the per-constraint [`revival_obs::JobProfile`]
    /// behind `semandaq detect --explain`.
    pub fn detect_explain(
        &self,
        engine: &dyn Detector,
    ) -> Result<(ViolationReport, revival_obs::JobProfile)> {
        engine.run_profiled(&DetectJob::on_table(&self.table, &self.cfds))
    }

    /// Human-readable violation listing (capped).
    pub fn describe(&self, report: &ViolationReport, max: usize) -> String {
        let listing = report.listing(&self.cfds, &[], max);
        describe_listing(&listing, &self.cfds, &[], &[self.table.schema()], false)
    }

    /// Compute a candidate repair with `jobs` shards (0 = one per
    /// available core); returns (repaired table, summary). The repaired
    /// table and stats are byte-identical at any shard count; only wall
    /// time changes.
    pub fn repair(&self, jobs: usize) -> Result<(Table, String)> {
        let (fixed, stats) = self.repairer(jobs).repair(&self.table)?;
        Ok((fixed, repair_summary(&stats, jobs)))
    }

    /// [`Session::repair`] through the profiled path: identical repaired
    /// table and stats, plus the per-phase/per-constraint
    /// [`revival_obs::JobProfile`] behind `semandaq repair --explain`.
    pub fn repair_explain(&self, jobs: usize) -> Result<(Table, String, revival_obs::JobProfile)> {
        let (fixed, stats, profile) = self.repairer(jobs).repair_profiled(&self.table)?;
        Ok((fixed, repair_summary(&stats, jobs), profile))
    }

    fn repairer(&self, jobs: usize) -> BatchRepair {
        BatchRepair::new(&self.cfds, CostModel::uniform(self.table.schema().arity()))
            .with_jobs(jobs)
    }

    /// Apply a manual edit `tid:attr=value` (the "user inspects and
    /// modifies the repair" workflow of the demo).
    pub fn apply_edit(&mut self, spec: &str) -> Result<()> {
        let (tid_part, rest) = spec
            .split_once(':')
            .ok_or_else(|| Error::Io(format!("bad edit `{spec}`: want tid:attr=value")))?;
        let (attr_part, value_part) = rest
            .split_once('=')
            .ok_or_else(|| Error::Io(format!("bad edit `{spec}`: want tid:attr=value")))?;
        let tid: u64 = tid_part
            .trim_start_matches('t')
            .parse()
            .map_err(|_| Error::Io(format!("bad tuple id `{tid_part}`")))?;
        let attr = self.table.schema().attr_id(attr_part)?;
        let ty = self.table.schema().attribute(attr).ty;
        let value: Value = ty.parse(value_part)?;
        self.table.set_cell(revival_relation::TupleId(tid), attr, value)
    }

    /// Run the static analyses over the suite.
    pub fn analyze(&self, budget: usize) -> String {
        let schema = self.table.schema();
        let sat = analysis::is_satisfiable(schema, &self.cfds, budget);
        let (cover, report) = analysis::minimal_cover(schema, &self.cfds, budget);
        let mut out = String::new();
        out.push_str(&format!(
            "satisfiable: {}\n",
            match sat {
                Outcome::Yes => "yes",
                Outcome::No => "NO — suite admits no non-empty instance",
                Outcome::ResourceLimit => "unknown (budget exhausted)",
            }
        ));
        out.push_str(&format!(
            "minimal cover: {} -> {} tableau rows ({} implied, {} subsumed)\n",
            report.rows_in, report.rows_out, report.implied_dropped, report.subsumed_dropped
        ));
        for cfd in &cover {
            // A multi-row (merged) CFD displays as a block, one line per
            // tableau row under its head; keep every line indented.
            for line in cfd.display(schema).to_string().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

/// Load a table from a data file, dispatching on the extension: `.sdq`
/// opens a columnar snapshot (the snapshot's embedded relation name
/// wins over `name`), anything
/// else parses as CSV with the schema inferred and the relation named
/// `name`. Every `--data` flag of the CLI accepts both formats through
/// this helper.
pub fn load_table(name: &str, path: &str) -> Result<Table> {
    if std::path::Path::new(path).extension().is_some_and(|x| x == "sdq") {
        Table::open_snapshot(std::path::Path::new(path))
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| Error::Io(format!("{path}: {e}")))?;
        csv::read_table_infer(name, &text)
    }
}

/// Render the vetted suite of a discovery run in `parse_cfds`-compatible
/// syntax — a single-row CFD as one constraint line, a multi-row one as
/// a block (the head once, one line per tableau row) — exactly what
/// `semandaq discover --emit FILE` writes and `semandaq detect --cfds
/// FILE` reads back, to the same CFDs in the same order. Relations
/// resolve against `schemas` by name.
pub fn discovered_cfd_text(
    d: &revival_discovery::Discovered,
    schemas: &[revival_relation::Schema],
) -> Result<String> {
    let mut out = String::new();
    for cfd in &d.vetted {
        let schema = schemas
            .iter()
            .find(|s| s.name() == cfd.relation)
            .ok_or_else(|| Error::UnknownRelation(cfd.relation.clone()))?;
        revival_constraints::parser::write_cfd(&mut out, cfd, schema);
    }
    Ok(out)
}

/// Render mined CIND candidates in `parse_cinds`-compatible syntax.
pub fn discovered_cind_text(
    d: &revival_discovery::Discovered,
    schemas: &[revival_relation::Schema],
) -> Result<String> {
    use revival_constraints::parser::cind_to_text;
    let mut out = String::new();
    for m in &d.cinds {
        let find = |name: &str| {
            schemas
                .iter()
                .find(|s| s.name() == name)
                .ok_or_else(|| Error::UnknownRelation(name.to_string()))
        };
        out.push_str(&cind_to_text(
            &m.cind,
            find(&m.cind.from_relation)?,
            find(&m.cind.to_relation)?,
        ));
    }
    Ok(out)
}

/// Human-readable summary of a discovery run: headline counts, the
/// search accounting (every cap the miners applied), satisfiability of
/// the vetted suite, the vetted rules (up to `max` constraint lines of
/// `suite`, the [`discovered_cfd_text`] rendering — `--emit` writes
/// them all, so the caller renders once and shares it), and — below 1.0
/// confidence — the approximate rules with their evidence.
pub fn describe_discovered(
    d: &revival_discovery::Discovered,
    suite: &str,
    schemas: &[revival_relation::Schema],
    max: usize,
) -> Result<String> {
    let mut out = format!(
        "{} rule(s) mined; {} CFD(s) after vetting; {} CIND candidate(s)\n",
        d.rules.len(),
        d.vetted.len(),
        d.cinds.len()
    );
    let s = &d.stats;
    out.push_str(&format!(
        "search: levels={} candidates={} pruned={} constants_subsumed={} constants_not_minimal={} \
         lattice_truncated={}\n",
        s.levels,
        s.candidates_checked,
        s.candidates_pruned,
        s.constants_subsumed,
        s.constants_not_minimal,
        if s.lattice_truncated { "yes (raise --max-lhs to go deeper)" } else { "no" }
    ));
    out.push_str(&format!(
        "vetting: {} -> {} tableau row(s) ({} implied, {} subsumed){}; satisfiable: {}\n",
        d.cover.rows_in,
        d.cover.rows_out,
        d.cover.implied_dropped,
        d.cover.subsumed_dropped,
        if s.cover_implication_skipped {
            " [suite too large for the implication drop — cheap cover only]"
        } else {
            ""
        },
        match d.satisfiable {
            Outcome::Yes => "yes",
            Outcome::No => "NO — vetted suite admits no non-empty instance",
            Outcome::ResourceLimit => "unknown (budget exhausted)",
        }
    ));
    let total = suite.lines().count();
    for line in suite.lines().take(max) {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    if total > max {
        out.push_str(&format!(
            "  … and {} more (use --emit FILE for the full suite)\n",
            total - max
        ));
    }
    let approx: Vec<_> = d.rules.iter().filter(|m| m.confidence < 1.0).collect();
    if !approx.is_empty() {
        out.push_str("approximate rules (confidence < 1.0):\n");
        for m in approx.iter().take(max) {
            let schema = schemas
                .iter()
                .find(|s| s.name() == m.cfd.relation)
                .ok_or_else(|| Error::UnknownRelation(m.cfd.relation.clone()))?;
            out.push_str(&format!(
                "  {}  # confidence {:.3}, support {}\n",
                m.cfd.display(schema),
                m.confidence,
                m.support
            ));
        }
        if approx.len() > max {
            out.push_str(&format!("  … and {} more\n", approx.len() - max));
        }
    }
    if !d.cinds.is_empty() {
        out.push_str("cind candidates:\n");
        for line in discovered_cind_text(d, schemas)?.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Generate a scenario dataset (CSV + CFD suite + ground truth) into
/// strings; the CLI writes them to disk.
pub fn generate_customer_scenario(rows: usize, noise: f64, seed: u64) -> (String, String, String) {
    use revival_dirty::customer::{attrs, generate, standard_cfds, CustomerConfig};
    use revival_dirty::noise::{inject, NoiseConfig};
    let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
    let ds = inject(
        &data.table,
        &NoiseConfig::new(noise, vec![attrs::STREET, attrs::CITY, attrs::ZIP], seed ^ 0x5eed),
    );
    let cfds = standard_cfds(&data.schema);
    let cfd_text = revival_constraints::parser::suite_to_text(&cfds, &data.schema);
    (csv::write_table(&ds.clean), csv::write_table(&ds.dirty), cfd_text)
}

/// Generate the hospital (HOSP-style) scenario: the benchmark workload
/// the CI explain-smoke runs `detect --explain` on. Same contract as
/// [`generate_customer_scenario`]: `(clean csv, dirty csv, cfd text)`.
pub fn generate_hospital_scenario(rows: usize, noise: f64, seed: u64) -> (String, String, String) {
    use revival_dirty::hospital::{attrs, generate, standard_cfds, HospitalConfig};
    use revival_dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows, seed, ..Default::default() });
    // Noise on state/zip/measure_name exercises every constraint of
    // the standard suite: the provider FD, zip -> state, the measure
    // dictionary, and both constant city rules.
    let ds = inject(
        &data.table,
        &NoiseConfig::new(
            noise,
            vec![attrs::STATE, attrs::ZIP, attrs::MEASURE_NAME],
            seed ^ 0x5eed,
        ),
    );
    let cfds = standard_cfds(&data.schema);
    let cfd_text = revival_constraints::parser::suite_to_text(&cfds, &data.schema);
    (csv::write_table(&ds.clean), csv::write_table(&ds.dirty), cfd_text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_detect::{engine_by_name, NativeEngine, SqlEngine};

    const CSV: &str = "cc,ac,street,city,zip\n\
                       44,131,Crichton,edi,EH8\n\
                       44,131,Mayfield,edi,EH8\n\
                       01,908,Mtn,nyc,07974\n";
    const CFDS: &str = "customer([cc='44', zip] -> [street])\n\
                        customer([cc='01', ac='908'] -> [city='mh'])\n";

    #[test]
    fn load_detect_repair_roundtrip() {
        let s = Session::load("customer", CSV, CFDS).unwrap();
        let native = s.detect(&NativeEngine).unwrap();
        assert_eq!(native.len(), 2);
        let via_sql = s.detect(&SqlEngine).unwrap();
        assert_eq!(native.violating_tuples(), via_sql.violating_tuples());
        let (fixed, summary) = s.repair(1).unwrap();
        assert!(summary.contains("residual=0"));
        let clean = Session { table: fixed, cfds: s.cfds.clone() };
        assert!(clean.detect(&NativeEngine).unwrap().is_empty());
        // Sharded repair produces the identical table.
        for jobs in [2, 4] {
            let (sharded, _) = s.repair(jobs).unwrap();
            assert_eq!(sharded.diff_cells(&clean.table), 0, "jobs={jobs}");
        }
    }

    #[test]
    fn describe_lists_violations() {
        let s = Session::load("customer", CSV, CFDS).unwrap();
        let report = s.detect(&NativeEngine).unwrap();
        let text = s.describe(&report, 10);
        assert!(text.contains("2 violation(s)"));
        assert!(text.contains("street") || text.contains("city"));
    }

    #[test]
    fn manual_edit_changes_detection() {
        let mut s = Session::load("customer", CSV, CFDS).unwrap();
        // Fix the city by hand → one violation disappears.
        s.apply_edit("t2:city=mh").unwrap();
        let report = s.detect(&NativeEngine).unwrap();
        assert_eq!(report.len(), 1);
        // Bad edit specs rejected.
        assert!(s.apply_edit("nonsense").is_err());
        assert!(s.apply_edit("t0:nope=x").is_err());
        assert!(s.apply_edit("tXX:city=x").is_err());
    }

    #[test]
    fn analyze_reports_satisfiability() {
        let s = Session::load("customer", CSV, CFDS).unwrap();
        let text = s.analyze(100_000);
        assert!(text.contains("satisfiable: yes"));
        assert!(text.contains("minimal cover"));
    }

    #[test]
    fn generate_scenario_is_loadable() {
        let (clean, dirty, cfds) = generate_customer_scenario(50, 0.05, 7);
        let s = Session::load("customer", &dirty, &cfds).unwrap();
        assert_eq!(s.table.len(), 50);
        let clean_session = Session::load("customer", &clean, &cfds).unwrap();
        assert!(clean_session.detect(&NativeEngine).unwrap().is_empty());
    }

    #[test]
    fn hospital_scenario_generates_and_explains() {
        let (clean, dirty, cfds) = generate_hospital_scenario(300, 0.08, 11);
        let clean_s = Session::load("hospital", &clean, &cfds).unwrap();
        assert!(clean_s.detect(&NativeEngine).unwrap().is_empty());
        let s = Session::load("hospital", &dirty, &cfds).unwrap();
        let plain = s.detect(&NativeEngine).unwrap();
        assert!(!plain.is_empty(), "noise must dirty the instance");
        // The profiled detect path is byte-identical and covers every
        // constraint of the suite with nonzero rows scanned.
        let (report, profile) = s.detect_explain(&NativeEngine).unwrap();
        assert_eq!(report, plain);
        let cfd_rows: Vec<_> = profile.constraints.iter().filter(|c| c.kind == "cfd").collect();
        assert_eq!(cfd_rows.len(), s.cfds.len());
        assert!(cfd_rows.iter().all(|c| c.rows_scanned > 0), "{profile:?}");
        assert!(profile.render_json().contains("\"constraints\""));
        // The profiled repair path matches the plain one exactly.
        let (fixed, summary, rprofile) = s.repair_explain(1).unwrap();
        let (fixed_plain, summary_plain) = s.repair(1).unwrap();
        assert_eq!(summary, summary_plain);
        assert_eq!(fixed.diff_cells(&fixed_plain), 0);
        for phase in ["detect", "resolve", "force"] {
            assert!(rprofile.phases.iter().any(|(p, _)| *p == phase), "{phase} missing");
        }
    }

    #[test]
    fn multi_relation_suite_parses_and_describes() {
        use revival_constraints::parser::parse_cfds_multi;
        use revival_relation::{Catalog, Schema, Type};
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
        let cfds = parse_cfds_multi(
            "cd([genre] -> [price])\n\n# comment\nbook([title] -> [format])\n",
            &[cd_s.clone(), book_s.clone()],
        )
        .unwrap();
        assert_eq!(cfds.len(), 2);
        assert_eq!(cfds[0].relation, "cd");
        assert_eq!(cfds[1].relation, "book");
        assert!(parse_cfds_multi("orders([a] -> [b])", std::slice::from_ref(&cd_s)).is_err());

        let mut cd = Table::new(cd_s.clone());
        cd.push(vec!["Dune".into(), Value::Int(20), "scifi".into()]).unwrap();
        cd.push(vec!["Foundation".into(), Value::Int(15), "scifi".into()]).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(cd);
        catalog.register(Table::new(book_s.clone()));
        let cinds =
            revival_constraints::parser::parse_cinds("cd(album) <= book(title)", &[cd_s, book_s])
                .unwrap();
        let job = DetectJob::on_catalog(&catalog, &cfds).with_cinds(&cinds);
        let report = NativeEngine.run(&job).unwrap();
        assert!(!report.is_empty());
        let schemas = ["cd", "book"].map(|name| catalog.get(name).unwrap().schema());
        let text =
            describe_listing(&report.listing(&cfds, &cinds, 10), &cfds, &cinds, &schemas, true);
        assert!(text.contains("[cd]"), "got: {text}");
        assert!(text.contains("no witness in book"), "got: {text}");
    }

    /// Tuple ids are per relation: `t0` of `cd` and `t0` of `book` are
    /// two tuples involved, and a catalog listing says so.
    #[test]
    fn catalog_listing_counts_tuples_per_relation() {
        use revival_relation::Catalog;
        let mut catalog = Catalog::new();
        catalog
            .register(csv::read_table_infer("cd", "album,genre\nDune,scifi\nDune,pop\n").unwrap());
        catalog.register(csv::read_table_infer("book", "title,format\nDune,audio\n").unwrap());
        let schemas = ["cd", "book"].map(|name| catalog.get(name).unwrap().schema().clone());
        let cfds = revival_constraints::parser::parse_cfds_multi(
            "cd([album] -> [genre])\nbook([title] -> [format='print'])",
            &schemas,
        )
        .unwrap();
        let report = NativeEngine.run(&DetectJob::on_catalog(&catalog, &cfds)).unwrap();
        let schemas = schemas.each_ref();
        let text = describe_listing(&report.listing(&cfds, &[], 10), &cfds, &[], &schemas, true);
        let head = text.lines().next().unwrap();
        assert_eq!(head, "2 violation(s); 3 tuple(s) involved", "{text}");
        assert!(text.contains("[book] tuple t0 matches pattern"), "{text}");
    }

    #[test]
    fn discovery_loop_emits_reparseable_suite() {
        use revival_discovery::{
            DiscoverJob, DiscoverOptions, DiscoveryEngine, SequentialDiscovery,
        };
        let s = Session::load("customer", CSV, CFDS).unwrap();
        let opts = DiscoverOptions { min_support: 2, ..DiscoverOptions::default() };
        let d = SequentialDiscovery.run(&DiscoverJob::on_table(&s.table, opts)).unwrap();
        assert!(!d.vetted.is_empty());
        let schemas = [s.table.schema().clone()];
        // The emitted suite re-parses and holds on the profiled table:
        // the discover → emit → detect loop closes with zero violations.
        let text = discovered_cfd_text(&d, &schemas).unwrap();
        let clean =
            Session { table: s.table.clone(), cfds: parse_cfds(&text, s.table.schema()).unwrap() };
        assert!(!clean.cfds.is_empty());
        assert!(clean.detect(&NativeEngine).unwrap().is_empty());
        let descr = describe_discovered(&d, &text, &schemas, 40).unwrap();
        assert!(descr.contains("rule(s) mined"), "got: {descr}");
        assert!(descr.contains("satisfiable: yes"), "got: {descr}");
    }

    #[test]
    fn all_engines_agree_and_parallel_is_byte_identical() {
        let s = Session::load("customer", CSV, CFDS).unwrap();
        let native = s.detect(&NativeEngine).unwrap();
        for name in ["sql", "incremental", "parallel"] {
            let mut got = s.detect(engine_by_name(name, 4).unwrap().as_ref()).unwrap();
            let mut want = native.clone();
            got.normalize();
            want.normalize();
            assert_eq!(got, want, "{name} disagrees with native");
        }
        // Parallel matches the native report without normalisation.
        assert_eq!(s.detect(engine_by_name("parallel", 4).unwrap().as_ref()).unwrap(), native);
    }
}
