//! Delta sessions: live violation state under streaming edits.
//!
//! A [`DeltaSession`] is the long-running counterpart of the one-shot
//! `DetectJob`: it registers tables together with the CFDs that
//! constrain them (plus optional CINDs across them), bulk-loads each
//! table into an [`IncrementalDetector`], and then maintains the
//! violation state under insert/delete/update deltas at `O(|Δ|)`
//! expected cost per operation — the E11 trade-off of the TODS paper,
//! kept warm instead of re-derived per request.
//!
//! The maintained detectors are the only way the session knows its
//! violations: every delta updates them in place and every read sums or
//! lists what they hold, so neither rescans the base. A detector is told
//! *which tuple of its table* changed — after a push, around a cell
//! write, after a delete — and reads the table's own symbols; no row is
//! materialised on the way. It is bound to the table it was loaded from:
//! whatever replaces a table ([`DeltaSession::register`], the batch side
//! of [`DeltaSession::repair`]) builds a new detector over it.

use revival_constraints::parser::check_writable;
use revival_constraints::{Cfd, Cind};
use revival_detect::native::describe_listing;
use revival_detect::report::{Listing, TupleBits};
use revival_detect::{
    DetectJob, Detector, IncrementalDetector, NativeEngine, Violation, ViolationReport,
};
use revival_relation::{Catalog, Error, Result, Table, TupleId, Value};
use revival_repair::{BatchRepair, CostModel, IncRepair, IncStats};

/// Per-relation incremental state: the detector over the relation's
/// sub-suite, each sub-suite position's index in the session's global
/// CFD suite (reports are remapped through it), and the repair baseline.
struct RelationState {
    name: String,
    detector: IncrementalDetector,
    idxs: Vec<usize>,
    /// Slots below this are base; live slots from it up are the tuples
    /// appended since registration or the last repair.
    first_pending: usize,
}

/// A long-running data-quality session over a catalog of relations.
pub struct DeltaSession {
    catalog: Catalog,
    cfds: Vec<Cfd>,
    cinds: Vec<Cind>,
    jobs: usize,
    relations: Vec<RelationState>,
}

impl DeltaSession {
    /// Empty session; `jobs` shards the batch side of
    /// [`DeltaSession::repair`] — the side a relation without a trusted
    /// base takes (0 = one shard per available core, 1 = sequential).
    pub fn new(jobs: usize) -> Self {
        DeltaSession {
            catalog: Catalog::new(),
            cfds: Vec::new(),
            cinds: Vec::new(),
            jobs,
            relations: Vec::new(),
        }
    }

    /// Register a table together with the CFDs constraining it, and
    /// bulk-load it into a fresh incremental detector. Re-registering a
    /// relation replaces its table, its CFDs, *and* drops any CINDs
    /// touching it (their attribute indices were resolved against the
    /// old schema and may not fit the new one — re-attach them after).
    pub fn register(&mut self, table: Table, cfds: Vec<Cfd>) -> Result<()> {
        let name = table.schema().name().to_string();
        for cfd in &cfds {
            cfd.validate()?;
            if cfd.relation != name {
                return Err(Error::Io(format!(
                    "cannot register CFD over `{}` with table `{name}`",
                    cfd.relation
                )));
            }
        }
        // Drop any previous registration of this relation.
        self.cfds.retain(|c| c.relation != name);
        self.cinds.retain(|c| c.from_relation != name && c.to_relation != name);
        self.relations.retain(|r| r.name != name);
        self.cfds.extend(cfds);
        let mut state = RelationState {
            name: name.clone(),
            detector: IncrementalDetector::new(
                self.cfds.iter().filter(|c| c.relation == name).cloned().collect(),
            ),
            idxs: Vec::new(),
            first_pending: table.slots(),
        };
        state.detector.load(&table);
        self.catalog.register(table);
        self.relations.push(state);
        self.reindex();
        Ok(())
    }

    /// Replace one registered relation's CFD suite *in place*: unlike
    /// [`DeltaSession::register`], the table, its tuple ids, the repair
    /// baseline (tuples appended since registration or the last repair
    /// stay pending), and any attached CINDs all survive — only the
    /// constraints change. The relation's incremental detector is
    /// rebuilt from the current table (one `O(n)` load). This is what
    /// the serve protocol's `discover {"register":true}` installs a
    /// mined suite through — the one way in for CFDs that were never
    /// text, so it refuses a suite over a relation or an attribute
    /// constraint text cannot name ([`check_writable`]): a checkpoint
    /// would write a `.cfds` file the restore could not read.
    pub fn set_cfds(&mut self, relation: &str, cfds: Vec<Cfd>) -> Result<()> {
        let schema = self.catalog.get(relation)?.schema();
        for cfd in &cfds {
            cfd.validate()?;
            if cfd.relation != relation {
                return Err(Error::Io(format!(
                    "cannot install CFD over `{}` as relation `{relation}`'s suite",
                    cfd.relation
                )));
            }
            check_writable(cfd, schema)?;
        }
        let ri = self.relation_state(relation)?;
        self.cfds.retain(|c| c.relation != relation);
        self.cfds.extend(cfds);
        let sub: Vec<Cfd> = self.cfds.iter().filter(|c| c.relation == relation).cloned().collect();
        let mut detector = IncrementalDetector::new(sub);
        detector.load(self.catalog.get(relation)?);
        self.relations[ri].detector = detector;
        self.reindex();
        Ok(())
    }

    /// Attach CINDs; both relations of each CIND must be registered.
    /// CINDs are checked at [`DeltaSession::report`] and
    /// [`DeltaSession::violation_count`] time, not maintained per delta:
    /// each read builds the witness keys (the distinct `Yp`-carrying
    /// target keys, in the source's symbols) once and probes every
    /// source tuple once — see `revival_constraints::cind::Witnesses`.
    pub fn add_cinds(&mut self, cinds: Vec<Cind>) -> Result<()> {
        for cind in &cinds {
            self.catalog.get(&cind.from_relation)?;
            self.catalog.get(&cind.to_relation)?;
        }
        self.cinds.extend(cinds);
        Ok(())
    }

    /// Recompute each relation's sub-suite → global-suite index map.
    fn reindex(&mut self) {
        for rel in &mut self.relations {
            rel.idxs = self
                .cfds
                .iter()
                .enumerate()
                .filter(|(_, c)| c.relation == rel.name)
                .map(|(i, _)| i)
                .collect();
        }
    }

    /// The registered catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A registered table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.catalog.get(name)
    }

    /// The global CFD suite (reports index into it).
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// The attached CIND suite.
    pub fn cinds(&self) -> &[Cind] {
        &self.cinds
    }

    /// The session's shard count (what the batch side of
    /// [`DeltaSession::repair`] and the serve tier's `discover` verb run
    /// with; 0 = one shard per available core).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    fn relation_state(&mut self, name: &str) -> Result<usize> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| Error::UnknownRelation(name.into()))
    }

    /// Append a row, maintaining violation state incrementally.
    pub fn insert(&mut self, relation: &str, row: Vec<Value>) -> Result<TupleId> {
        let ri = self.relation_state(relation)?;
        let table = self.catalog.get_mut(relation)?;
        let id = table.push(row)?;
        self.relations[ri].detector.add(table, id, None);
        Ok(id)
    }

    /// Delete a live tuple, returning its former row.
    pub fn delete(&mut self, relation: &str, tuple: TupleId) -> Result<Vec<Value>> {
        let ri = self.relation_state(relation)?;
        let table = self.catalog.get_mut(relation)?;
        let row = table.delete(tuple)?;
        // The tombstoned slot still holds the symbols the detector reads.
        self.relations[ri].detector.remove(table, tuple, None);
        Ok(row)
    }

    /// Overwrite one cell of a live tuple. Only the embedded FDs reading
    /// `attr` are re-entered; a refused write (dead tuple, unknown
    /// attribute, type mismatch) leaves table and detector as they were.
    pub fn update(
        &mut self,
        relation: &str,
        tuple: TupleId,
        attr: usize,
        value: Value,
    ) -> Result<()> {
        let ri = self.relation_state(relation)?;
        let table = self.catalog.get_mut(relation)?;
        self.relations[ri].detector.write(table, tuple, attr, value)
    }

    /// Current number of violations: `O(#CFDs)` from the maintained
    /// counters, plus one witness-probe pass when CINDs are attached.
    pub fn violation_count(&self) -> Result<usize> {
        let cfd: usize = self.relations.iter().map(|r| r.detector.violation_count()).sum();
        Ok(cfd + self.cind_violations()?.len())
    }

    /// The CIND portion of the report: a witness probe over the catalog,
    /// through the engine's scan so a read records no detect metrics.
    fn cind_violations(&self) -> Result<Vec<Violation>> {
        if self.cinds.is_empty() {
            return Ok(Vec::new());
        }
        let job = DetectJob::on_catalog(&self.catalog, &[]).with_cinds(&self.cinds);
        Ok(NativeEngine.scan(&job, None)?.violations)
    }

    /// The live report to its first `max` violations: each relation's
    /// CFD violations, then the CIND ones, indices into
    /// [`DeltaSession::cfds`] / [`DeltaSession::cinds`]. Only those are
    /// built; the total is the maintained counters plus the CIND probe's,
    /// and the tuples are counted per relation, one bit per slot.
    fn listing(&self, max: usize) -> Result<Listing> {
        let cinds = self.cind_violations()?;
        let mut listing = Listing { total: cinds.len(), ..Listing::default() };
        for rel in &self.relations {
            let table = self.catalog.get(&rel.name)?;
            let mut implicated = TupleBits::with_slots(table.slots());
            for mut v in rel.detector.listing(table, max - listing.shown.len(), &mut implicated) {
                if let Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } =
                    &mut v
                {
                    *cfd = rel.idxs[*cfd];
                }
                listing.shown.push(v);
            }
            let own = cinds.iter().filter(|v| v.relation(&self.cfds, &self.cinds) == rel.name);
            own.flat_map(Violation::tuples).for_each(|&t| implicated.insert(t));
            listing.total += rel.detector.violation_count();
            listing.tuples += implicated.count();
        }
        listing.shown.extend(cinds.into_iter().take(max - listing.shown.len()));
        Ok(listing)
    }

    /// The full live report: the listing `describe` reads, uncapped.
    pub fn report(&self) -> Result<ViolationReport> {
        Ok(ViolationReport { violations: self.listing(usize::MAX)?.shown })
    }

    /// The live report's total and its listing, described to `max` lines.
    pub fn describe(&self, max: usize) -> Result<(usize, String)> {
        let listing = self.listing(max)?;
        let tables = self.relations.iter().filter_map(|r| self.catalog.get(&r.name).ok());
        let schemas: Vec<_> = tables.map(Table::schema).collect();
        let text = describe_listing(&listing, &self.cfds, &self.cinds, &schemas, false);
        Ok((listing.total, text))
    }

    /// Repair the tuples appended since registration (or since the last
    /// repair) — the live slots from the relation's baseline up — and
    /// move the baseline past them. The baseline is checkpointed
    /// ([`DeltaSession::save_state`]), so a tuple appended before a
    /// checkpoint is still pending after a restart and a logged `repair`
    /// replays to the edits it acked.
    ///
    /// With more base tuples than pending ones,
    /// [`IncRepair::repair_pending`] edits only pending cells, in place:
    /// each conforms to its group's eldest member, read off the
    /// maintained detector — `O(|Δ|)` whatever the base holds, tuple ids
    /// stable. Otherwise the whole relation goes through one sharded
    /// [`BatchRepair`] pass, which may also edit base cells, and the
    /// detector reloads. That split is a measured *quality* rule
    /// (`experiments incremental-repair`), not a speed one: in three
    /// runs the incremental side was the faster on both sides of it
    /// (base 0 / Δ 3 200: 0.97–1.15 ms against 1.47–1.69), but with
    /// no base to trust eldest-wins is a worse vote than plurality —
    /// wrong cells, incremental against batch: base 0 / Δ 3 200 1 073
    /// against 484, base 100 722 against 481, base 1 000 491 against 482.
    pub fn repair(&mut self, relation: &str) -> Result<IncStats> {
        let ri = self.relation_state(relation)?;
        let table = self.catalog.get_mut(relation)?;
        let RelationState { detector, idxs, first_pending, .. } = &mut self.relations[ri];
        let first = std::mem::replace(first_pending, table.slots());
        let pending = (first..table.slots()).filter(|&slot| table.is_live(slot)).count();
        let cost = CostModel::uniform(table.schema().arity());
        if pending < (table.len() - pending).max(1) {
            return Ok(IncRepair::repair_pending(table, detector, first, &cost));
        }
        let sub: Vec<Cfd> = idxs.iter().map(|&i| self.cfds[i].clone()).collect();
        let (fixed, batch) =
            BatchRepair::new(&sub, cost).with_jobs(self.jobs.max(1)).repair(table)?;
        let tuples_edited =
            table.rows().filter(|(id, row)| fixed.get(*id).is_ok_and(|f| f != *row)).count();
        *detector = IncrementalDetector::new(sub);
        detector.load(&fixed);
        self.catalog.register(fixed);
        Ok(IncStats { tuples_edited, cells_changed: batch.cells_changed, cost: batch.cost })
    }

    /// Restore `relation`'s repair baseline from the text of a
    /// checkpoint's `<relation>.base` ([`DeltaSession::save_state`]
    /// wrote it; registering the snapshot alone calls every row base).
    pub fn restore_baseline(&mut self, relation: &str, text: &str) -> Result<()> {
        let ri = self.relation_state(relation)?;
        let slots = self.catalog.get(relation)?.slots();
        let baseline = text.trim().parse().ok().filter(|&slot: &usize| slot <= slots);
        self.relations[ri].first_pending = baseline.ok_or_else(|| {
            let text = text.trim();
            Error::Io(format!(
                "malformed repair baseline {text:?}: `{relation}` has {slots} slot(s)"
            ))
        })?;
        Ok(())
    }

    /// Persist the session's registered state into `dir`: one `.sdq`
    /// snapshot per relation (columns + tombstones + a value pool
    /// *compacted* on the way out, so long-lived sessions shed the
    /// values only overwritten or deleted cells held),
    /// a sibling `<relation>.cfds` suite file, a `<relation>.base`
    /// holding the repair baseline (one decimal slot number: a tuple
    /// pending at the checkpoint is pending after a restart), and
    /// `cinds.txt` when CINDs are attached. Returns the number of
    /// relations written; [`crate::ShardedSession::open`] reads it back.
    ///
    /// Every file goes down durably (write-to-temp + fsync + rename +
    /// parent-dir fsync via [`revival_relation::durable`]), and stale
    /// `.sdq`/`.cfds`/`.base` files from relations this session no longer
    /// holds are removed — otherwise a restore after a rename or a
    /// shard-layout change would resurrect them.
    pub fn save_state(&self, dir: &std::path::Path) -> Result<usize> {
        use revival_constraints::parser::{cind_to_text, suite_to_text};
        use revival_relation::durable;
        std::fs::create_dir_all(dir)?;
        let mut rels: Vec<&RelationState> = self.relations.iter().collect();
        rels.sort_unstable_by_key(|r| r.name.as_str());
        let names: Vec<&str> = rels.iter().map(|r| r.name.as_str()).collect();
        for rel in rels {
            let name = &rel.name;
            let table = self.catalog.get(name)?;
            table.save_snapshot(dir.join(format!("{name}.sdq")))?;
            let own = self.cfds.iter().filter(|c| c.relation == *name);
            let suite = suite_to_text(own, table.schema());
            durable::write_atomic(&dir.join(format!("{name}.cfds")), suite.as_bytes())?;
            let base = format!("{}\n", rel.first_pending);
            durable::write_atomic(&dir.join(format!("{name}.base")), base.as_bytes())?;
        }
        // Anything snapshot-shaped that no current relation owns is a
        // leftover from an earlier save; a later restore would load it.
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let ext = path.extension().and_then(|x| x.to_str());
            if !matches!(ext, Some("sdq") | Some("cfds") | Some("base")) {
                continue;
            }
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if !names.contains(&stem) {
                std::fs::remove_file(&path)?;
            }
        }
        let cind_path = dir.join("cinds.txt");
        if self.cinds.is_empty() {
            // A stale suite from a previous save must not resurrect.
            match std::fs::remove_file(&cind_path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        } else {
            let mut text = String::new();
            for cind in &self.cinds {
                let from = self.catalog.get(&cind.from_relation)?;
                let to = self.catalog.get(&cind.to_relation)?;
                text.push_str(&cind_to_text(cind, from.schema(), to.schema()));
            }
            durable::write_atomic(&cind_path, text.as_bytes())?;
        }
        durable::sync_dir(dir)?;
        Ok(names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::{parse_cfds, parse_cinds};
    use revival_relation::{Schema, Type};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .build()
    }

    fn suite(s: &Schema) -> Vec<Cfd> {
        parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])",
            s,
        )
        .unwrap()
    }

    fn table(rows: &[[&str; 4]]) -> Table {
        let mut t = Table::new(schema());
        for r in rows {
            t.push(r.iter().map(|s| Value::from(*s)).collect()).unwrap();
        }
        t
    }

    fn row(r: [&str; 4]) -> Vec<Value> {
        r.iter().map(|s| Value::from(*s)).collect()
    }

    #[test]
    fn set_cfds_swaps_the_suite_but_keeps_the_repair_baseline() {
        let s = schema();
        let mut sess = DeltaSession::new(1);
        sess.register(table(&[["44", "EH8", "Crichton", "edi"]]), suite(&s)).unwrap();
        // Append a row that violates the *new* suite but not the old.
        let appended = sess.insert("customer", row(["44", "EH8", "Crichton", "gla"])).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
        let new_suite = parse_cfds("customer([zip] -> [city])", &s).unwrap();
        sess.set_cfds("customer", new_suite).unwrap();
        // The swapped suite detects against the current table…
        assert_eq!(sess.violation_count().unwrap(), 1);
        // …tuple ids survive, and — unlike register — the appended row
        // is still pending, so repair fixes it (register would have
        // re-baselined it as an authoritative base row).
        assert!(sess.table("customer").unwrap().get(appended).is_ok());
        let stats = sess.repair("customer").unwrap();
        assert!(stats.tuples_edited > 0, "{stats:?}");
        assert_eq!(sess.violation_count().unwrap(), 0);
        // Installing a suite over the wrong relation is refused.
        let foreign = parse_cfds("customer([zip] -> [city])", &s).unwrap();
        assert!(sess.set_cfds("orders", foreign).is_err());
    }

    #[test]
    fn trickle_inserts_maintain_counts_without_rescans() {
        let s = schema();
        let mut sess = DeltaSession::new(1);
        sess.register(table(&[["44", "EH8", "Crichton", "edi"]]), suite(&s)).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
        let id = sess.insert("customer", row(["44", "EH8", "Mayfield", "edi"])).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 1);
        sess.delete("customer", id).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
    }

    #[test]
    fn update_moves_groups() {
        let s = schema();
        let mut sess = DeltaSession::new(1);
        sess.register(
            table(&[["44", "EH8", "Crichton", "edi"], ["44", "G1", "Mayfield", "gla"]]),
            suite(&s),
        )
        .unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
        // Move t1 into t0's zip group with a different street.
        sess.update("customer", TupleId(1), 1, "EH8".into()).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 1);
        sess.update("customer", TupleId(1), 2, "Crichton".into()).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
    }

    #[test]
    fn cinds_checked_at_report_time() {
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
        let mut book = Table::new(book_s.clone());
        book.push(vec!["Dune".into(), Value::Int(20), "audio".into()]).unwrap();
        let mut sess = DeltaSession::new(1);
        sess.register(cd, Vec::new()).unwrap();
        sess.register(book, Vec::new()).unwrap();
        let cinds = parse_cinds(
            "cd(album, price; genre='a-book') <= book(title, price; format='audio')",
            &[cd_s, book_s],
        )
        .unwrap();
        sess.add_cinds(cinds).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
        sess.insert("cd", vec!["Foundation".into(), Value::Int(15), "a-book".into()]).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 1);
        let (_, text) = sess.describe(10).unwrap();
        assert!(text.contains("no witness in book"), "got: {text}");
    }

    /// A CIND violator of `cd` and a CFD violation in `book`, both at
    /// `t0`: two relations' tuples, counted apart.
    #[test]
    fn listing_counts_tuples_per_relation() {
        let cd_s = Schema::builder("cd").attr("album", Type::Str).build();
        let book_s =
            Schema::builder("book").attr("title", Type::Str).attr("format", Type::Str).build();
        let mut cd = Table::new(cd_s.clone());
        cd.push(vec!["Dune".into()]).unwrap();
        let mut book = Table::new(book_s.clone());
        book.push(vec!["Emma".into(), "audio".into()]).unwrap();
        book.push(vec!["Emma".into(), "print".into()]).unwrap();
        let mut sess = DeltaSession::new(1);
        sess.register(cd, Vec::new()).unwrap();
        sess.register(book, parse_cfds("book([title] -> [format])", &book_s).unwrap()).unwrap();
        sess.add_cinds(parse_cinds("cd(album) <= book(title)", &[cd_s, book_s]).unwrap()).unwrap();
        let (total, text) = sess.describe(10).unwrap();
        assert_eq!(total, 2, "{text}");
        assert_eq!(text.lines().next(), Some("2 violation(s); 3 tuple(s) involved"), "{text}");
    }

    #[test]
    fn repair_fixes_pending_delta_in_place() {
        let s = schema();
        let mut sess = DeltaSession::new(1);
        sess.register(
            table(&[
                ["44", "EH8", "Crichton", "edi"],
                ["44", "G1", "High", "gla"],
                ["01", "10001", "5th", "nyc"],
            ]),
            suite(&s),
        )
        .unwrap();
        let id = sess.insert("customer", row(["44", "EH8", "Mayfield", "edi"])).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 1);
        let stats = sess.repair("customer").unwrap();
        assert_eq!(stats.tuples_edited, 1);
        assert_eq!(sess.violation_count().unwrap(), 0);
        // The pending tuple conformed to the base street; id unchanged.
        assert_eq!(sess.table("customer").unwrap().get(id).unwrap()[2], Value::from("Crichton"));
        // Second repair is a no-op (nothing pending).
        let stats = sess.repair("customer").unwrap();
        assert_eq!(stats.cells_changed, 0);
    }

    #[test]
    fn repair_falls_back_to_batch_when_delta_dominates() {
        let s = schema();
        let mut sess = DeltaSession::new(2);
        sess.register(table(&[["44", "EH8", "Crichton", "edi"]]), suite(&s)).unwrap();
        for i in 0..4 {
            sess.insert("customer", row(["44", "G9", ["A", "B", "C", "D"][i], "edi"])).unwrap();
        }
        assert_eq!(sess.violation_count().unwrap(), 1);
        let stats = sess.repair("customer").unwrap();
        assert!(stats.tuples_edited >= 3, "{stats:?}");
        assert_eq!(sess.violation_count().unwrap(), 0);
    }

    #[test]
    fn register_rejects_foreign_cfds_and_unknown_relations() {
        let s = schema();
        let mut sess = DeltaSession::new(1);
        let err = sess.register(
            Table::new(Schema::builder("orders").attr("id", Type::Int).build()),
            suite(&s),
        );
        assert!(err.is_err());
        assert!(sess.insert("customer", row(["44", "EH8", "x", "y"])).is_err());
        assert!(sess.repair("customer").is_err());
    }

    #[test]
    fn reregistering_drops_cinds_resolved_against_the_old_schema() {
        let cd_s = Schema::builder("cd").attr("album", Type::Str).attr("genre", Type::Str).build();
        let book3_s = Schema::builder("book")
            .attr("title", Type::Str)
            .attr("price", Type::Int)
            .attr("format", Type::Str)
            .build();
        let mut cd = Table::new(cd_s.clone());
        cd.push(vec!["Dune".into(), "a-book".into()]).unwrap();
        let mut sess = DeltaSession::new(1);
        sess.register(cd, Vec::new()).unwrap();
        sess.register(Table::new(book3_s.clone()), Vec::new()).unwrap();
        let cinds = parse_cinds(
            "cd(album; genre='a-book') <= book(title; format='audio')",
            &[cd_s, book3_s],
        )
        .unwrap();
        sess.add_cinds(cinds).unwrap();
        assert_eq!(sess.cinds().len(), 1);
        // Replace `book` with a narrower schema: the CIND's resolved
        // attribute ids no longer fit — it must be dropped, and reads
        // must not panic.
        let book1_s = Schema::builder("book").attr("title", Type::Str).build();
        sess.register(Table::new(book1_s), Vec::new()).unwrap();
        assert!(sess.cinds().is_empty());
        assert_eq!(sess.violation_count().unwrap(), 0);
    }

    #[test]
    fn reregistering_replaces_table_and_suite() {
        let s = schema();
        let mut sess = DeltaSession::new(1);
        sess.register(
            table(&[["44", "EH8", "Crichton", "edi"], ["44", "EH8", "Mayfield", "edi"]]),
            suite(&s),
        )
        .unwrap();
        assert_eq!(sess.violation_count().unwrap(), 1);
        sess.register(table(&[["44", "EH8", "Crichton", "edi"]]), suite(&s)).unwrap();
        assert_eq!(sess.violation_count().unwrap(), 0);
        assert_eq!(sess.cfds().len(), 2);
    }

    /// What `save_state` writes is read back by the one restorer
    /// production runs: checkpoint through the tier, reopen the directory.
    #[test]
    fn save_restore_round_trips_tables_suites_and_cinds() {
        use crate::{Request, ServeOptions, ShardedSession};
        let dir = std::env::temp_dir().join(format!("revival_state_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions { state: Some(dir.clone()), ..Default::default() };
        let image = |tier: &ShardedSession| {
            let sess = tier.shard(0).session().read().unwrap();
            let rows = |name: &str| sess.table(name).unwrap().rows().collect::<Vec<_>>();
            (rows("customer"), rows("orders"), sess.cfds().to_vec(), sess.cinds().to_vec())
        };
        let count = |tier: &ShardedSession| tier.handle(&Request::Count).int("violations");

        let want = {
            let (tier, _) = ShardedSession::open(&opts).unwrap();
            for (table, csv, cfds) in [
                (
                    "customer",
                    "cc,zip,street\n44,EH8,Crichton\n44,EH8,Mayfield\n",
                    "customer([cc='44', zip] -> [street])",
                ),
                ("orders", "cust_cc,item\n44,tea\n99,gin\n7,rum\n", ""),
            ] {
                let resp = tier.handle(&Request::Register {
                    table: table.into(),
                    csv: csv.into(),
                    cfds: cfds.into(),
                });
                assert!(resp.is_ok(), "{resp:?}");
            }
            let resp =
                tier.handle(&Request::Cinds { text: "orders(cust_cc) <= customer(cc)".into() });
            assert!(resp.is_ok(), "{resp:?}");
            // Tombstone t1 (99 had no witness either; 7 still lacks one).
            let resp = tier.handle(&Request::Delete { table: "orders".into(), tuple: 1 });
            assert!(resp.is_ok(), "{resp:?}");
            assert_eq!(count(&tier), Some(2), "variable CFD + missing CIND witness");
            assert_eq!(tier.checkpoint().unwrap(), 2);
            image(&tier)
        };

        let (tier, summary) = ShardedSession::open(&opts).unwrap();
        assert_eq!((summary.relations, summary.dropped_cinds), (2, 0), "{summary:?}");
        assert_eq!(image(&tier), want, "tables (ids, tombstones), suite and CIND must survive");
        assert_eq!(want.1.iter().map(|(id, _)| id.0).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(count(&tier), Some(2));
        // The restored tier is live: the tombstoned slot is not reused,
        // and a witness-less append adds a CIND violation.
        let resp = tier.handle(&Request::Append { table: "orders".into(), row: "8,ale".into() });
        assert_eq!((resp.int("tuple"), resp.int("violations")), (Some(3), Some(3)), "{resp:?}");
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
