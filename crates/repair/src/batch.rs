//! `BatchRepair` — whole-table cost-based repairing.
//!
//! Each pass: detect all violations, translate them into equivalence-
//! class merges (variable rows) and pins (constant rows), resolve every
//! class to its cheapest value, apply, and re-detect — repairs can
//! themselves surface new violations, so the loop runs to a fixpoint.
//! If cost-guided resolution stalls (rare: cyclic suites or adversarial
//! pin conflicts), a forcing phase assigns group-consistent fresh values
//! that cannot match any constant pattern, guaranteeing the output
//! satisfies the suite. Forced edits are counted in
//! [`RepairStats::forced_resolutions`] — they trade accuracy for
//! consistency exactly like the "null-marker" fallback of Cong et al.
//!
//! ## How often the table is scanned
//!
//! A detection runs only if a cell was written since the last one. The
//! report that ends the cost-guided loop — empty, or one a pass could
//! write nothing for — is the forcing phase's first report, and the
//! last report seen is the residual: a repair of k passes scans k + 1
//! times (once, plus once per pass or forcing round that wrote), not
//! once per loop head. The k + 1st is the fixpoint check and stays a
//! scan of the whole table: that a pass fixed what it meant to fix and
//! surfaced nothing new is established by looking, never inferred from
//! the cells it wrote. The caller's own certification of the output is
//! independent of all this — it shares no state with the repair.
//!
//! ## Sharding
//!
//! Both hot halves of a pass shard across [`BatchRepair::with_jobs`]
//! threads, byte-identically to the sequential pass:
//!
//! * **detection** dispatches through the shared [`Detector`] engine
//!   layer — [`ParallelEngine`], whose reports are byte-for-byte equal
//!   at any shard count (one shard scans inline);
//! * **equivalence-class resolution** shards the per-class cost scans
//!   ([`EquivClasses::resolve_targets`]), one RHS attribute at a time:
//!   that attribute's classes split into contiguous chunks, workers
//!   resolve each class independently over its distinct values, and
//!   the targets concatenate in chunk order before the (sequential,
//!   deterministic) apply step.
//!
//! So the repaired table and [`RepairStats`] are identical at any shard
//! count — asserted by `tests/repair_parity.rs`.

use crate::cost::{CostModel, DistanceScratch};
use crate::eqclass::{Cell, EquivClasses, ResolveStats};
use revival_constraints::cfd::merge_by_embedded_fd;
use revival_constraints::pattern::PatternValue;
use revival_constraints::Cfd;
use revival_detect::{DetectJob, Detector, ParallelEngine, Violation, ViolationReport};
use revival_relation::groupby::hash_words;
use revival_relation::{GroupBy, Result, Sym, Table, TupleId, Type, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Maximum detect→resolve→apply passes before forcing.
const MAX_PASSES: usize = 12;
/// Maximum forcing rounds (each introduces fresh values).
const MAX_FORCE_ROUNDS: usize = 24;

/// What a repair did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepairStats {
    /// Cost-guided passes executed.
    pub passes: usize,
    /// Cells whose value changed (vs. the input table).
    pub cells_changed: usize,
    /// Edits applied by the forcing phase.
    pub forced_resolutions: usize,
    /// Total weighted repair cost (vs. the input table).
    pub cost: f64,
    /// Violations remaining (0 unless the forcing rounds were exhausted).
    pub residual_violations: usize,
    /// Work the cost-guided passes' class resolution did, all passes.
    pub resolve: ResolveStats,
}

/// The table being repaired, with a log of the cells written — the
/// closing stats walk the log instead of diffing whole tables.
struct Working {
    table: Table,
    /// Every cell a pass wrote, in write order (a cell may repeat).
    written: Vec<Cell>,
    /// The run's distance buffers, for pricing constant violations.
    scratch: DistanceScratch,
}

impl Working {
    /// Overwrite one cell; `false` if the table refused the value.
    fn set(&mut self, cell: Cell, v: Value) -> bool {
        let ok = self.table.set_cell(cell.0, cell.1, v).is_ok();
        if ok {
            self.written.push(cell);
        }
        ok
    }
}

/// The detections one repair ran.
#[derive(Default)]
struct Scans {
    count: u64,
    wall_us: u64,
}

/// What one detection report asks a cost-guided pass to do.
#[derive(Default)]
struct PassPlan {
    /// The classes to resolve, per RHS attribute — a class never
    /// spans two: unions and pins stay within one CFD's RHS column.
    by_attr: BTreeMap<usize, AttrClasses>,
    /// LHS cells to overwrite with a fresh value where pins conflict.
    breaks: Vec<Cell>,
    /// First constraint (report order) claiming each cell an edit may
    /// touch — only tracked when profiling.
    owner: GroupBy<Cell, usize>,
}

/// One RHS attribute's share of a [`PassPlan`].
#[derive(Default)]
struct AttrClasses {
    /// Cells that must agree, merged; constant rows pin their class.
    eq: EquivClasses,
    /// Wall time spent translating this attribute's violations.
    collect: Duration,
}

/// The kernel's word hash over a cell's two coordinates.
#[inline]
fn cell_hash(c: Cell) -> u64 {
    hash_words([c.0 .0, c.1 as u64])
}

impl PassPlan {
    /// Record `ci` as `cell`'s owner unless an earlier constraint is.
    fn claim(&mut self, cell: Cell, ci: usize) {
        self.owner.entry_mut(cell_hash(cell), |k| *k == cell, || (cell, ci));
    }
}

/// Cost-based batch repair over one table.
pub struct BatchRepair {
    cfds: Vec<Cfd>,
    cost: CostModel,
    jobs: usize,
}

impl BatchRepair {
    /// Build a repairer for a suite (merged by embedded FD internally).
    pub fn new(cfds: &[Cfd], cost: CostModel) -> Self {
        BatchRepair { cfds: merge_by_embedded_fd(cfds), cost, jobs: 1 }
    }

    /// Shards for detection and equivalence-class resolution: 1 =
    /// sequential (the default), 0 = one shard per available core.
    /// Output is byte-identical at any value.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The merged suite the repairer enforces.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// The resolved shard count (`jobs = 0` → available cores).
    fn jobs(&self) -> usize {
        revival_relation::resolve_jobs(self.jobs)
    }

    /// Repair `table`, returning the repaired copy and statistics.
    ///
    /// Errors if the suite is malformed (typed
    /// [`revival_relation::Error::MalformedPattern`]) or constrains a
    /// relation other than `table` — conditions the old panicking path
    /// would have aborted on mid-pass.
    pub fn repair(&self, table: &Table) -> Result<(Table, RepairStats)> {
        self.repair_inner(table, None)
    }

    /// [`BatchRepair::repair`] with a [`revival_obs::JobProfile`]
    /// alongside: same repaired table, same stats (profiling is
    /// side-effect-only), plus detect/resolve/force phase timings,
    /// per-constraint detect wall + cells-changed attribution, and one
    /// `resolve` row per RHS attribute (wall, classes, member cells,
    /// distinct values, distances computed — summed into the job
    /// totals of the same names). Constraint names refer to the
    /// *merged* suite the repairer enforces (see [`BatchRepair::cfds`]).
    pub fn repair_profiled(
        &self,
        table: &Table,
    ) -> Result<(Table, RepairStats, revival_obs::JobProfile)> {
        let detail = if self.jobs() <= 1 { "native" } else { "parallel" };
        let mut profile = revival_obs::JobProfile::new("repair", detail, self.jobs() as u64);
        let start = Instant::now();
        let (fixed, stats) = self.repair_inner(table, Some(&mut profile))?;
        let us = start.elapsed().as_micros() as u64;
        profile.meta_add("passes", stats.passes as u64);
        profile.meta_add("cells_changed", stats.cells_changed as u64);
        profile.meta_add("forced_resolutions", stats.forced_resolutions as u64);
        profile.meta_add("residual_violations", stats.residual_violations as u64);
        profile.meta_add("merged_cfds", self.cfds.len() as u64);
        profile.meta_add("classes", stats.resolve.classes);
        profile.meta_add("class_cells", stats.resolve.class_cells);
        profile.meta_add("distinct_values", stats.resolve.distinct_values);
        profile.meta_add("distances_computed", stats.resolve.distances_computed);
        profile.finish(us);
        Ok((fixed, stats, profile))
    }

    fn repair_inner(
        &self,
        table: &Table,
        mut profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<(Table, RepairStats)> {
        let setup = Instant::now();
        let run_span = revival_obs::Span::traced(
            "repair.run",
            revival_obs::global().histogram("repair_run_us"),
        );
        let mut current =
            Working { table: table.clone(), written: Vec::new(), scratch: Default::default() };
        let mut stats = RepairStats::default();
        let mut fresh_counter: u64 = 0;
        // Profile row names (merged-suite order), shared with the detect
        // engines' own profiles so the per-pass merges key correctly.
        let names: Vec<String> = if profile.is_some() {
            let job = DetectJob::on_table(table, &self.cfds);
            (0..self.cfds.len()).map(|i| revival_detect::cfd_profile_name(&job, i)).collect()
        } else {
            Vec::new()
        };

        // Wall time per stage, flushed to the registry once at the end
        // (side-effect-only: the repair itself is byte-identical with
        // instrumentation on or off).
        let (mut resolve_us, mut force_us) = (0u64, 0u64);
        let mut scans = Scans::default();
        // The working table's violations, `None` once a cell is written
        // after the detection that found them.
        let mut known: Option<ViolationReport> = None;
        let setup_us = setup.elapsed().as_micros() as u64;

        for _ in 0..MAX_PASSES {
            let report =
                self.report_of(&current.table, &mut known, &mut scans, profile.as_deref_mut())?;
            if report.is_empty() {
                break;
            }
            stats.passes += 1;
            let stage = Instant::now();
            let changed = self.resolve_pass(
                &mut current,
                &report.violations,
                &mut stats.resolve,
                profile.as_deref_mut().map(|p| (p, names.as_slice())),
            );
            resolve_us += stage.elapsed().as_micros() as u64;
            if !changed {
                break; // cost-guided resolution stalled → force below
            }
            known = None;
        }

        // Forcing phase: guarantee satisfaction. It starts from the
        // report that ended the loop above — empty, or the stalled one.
        for round in 0..MAX_FORCE_ROUNDS {
            let report =
                self.report_of(&current.table, &mut known, &mut scans, profile.as_deref_mut())?;
            if report.is_empty() {
                break;
            }
            let stage = Instant::now();
            let edits = self.force_pass(
                &mut current,
                &report.violations,
                round,
                &mut fresh_counter,
                profile.as_deref_mut().map(|p| (p, names.as_slice())),
            );
            force_us += stage.elapsed().as_micros() as u64;
            stats.forced_resolutions += edits;
            if edits > 0 {
                known = None;
            }
        }

        stats.residual_violations =
            self.report_of(&current.table, &mut known, &mut scans, profile.as_deref_mut())?.len();
        // Row-major over the written cells: the order a walk over both
        // tables would add the costs up in.
        let score = Instant::now();
        let Working { table: current, mut written, .. } = current;
        written.sort_unstable();
        written.dedup();
        (stats.cells_changed, stats.cost) = self.cost.repair_cost(table, &current, &written);
        let score_us = score.elapsed().as_micros() as u64;
        if revival_obs::enabled() {
            let reg = revival_obs::global();
            reg.counter("repair_runs_total").inc();
            reg.counter("repair_cells_changed_total").add(stats.cells_changed as u64);
            reg.counter("repair_forced_total").add(stats.forced_resolutions as u64);
            reg.counter("repair_distance_evals_total").add(stats.resolve.distances_computed);
            reg.histogram("repair_phase_us{phase=\"detect\"}").record(scans.wall_us);
            reg.histogram("repair_phase_us{phase=\"resolve\"}").record(resolve_us);
            reg.histogram("repair_phase_us{phase=\"force\"}").record(force_us);
        }
        if let Some(p) = profile {
            p.meta_add("detect_scans", scans.count);
            p.phase_add("detect", scans.wall_us);
            p.phase_add("resolve", resolve_us);
            p.phase_add("force", force_us);
            // The two stretches outside the phases, as rows, so the
            // profile's rows account for the whole run.
            p.entry("setup (working copy)", "setup").wall_us += setup_us;
            p.entry("score (cells changed, cost)", "score").wall_us += score_us;
        }
        drop(run_span);
        Ok((current, stats))
    }

    /// The violations of `table` as it stands: `known`, if a detection
    /// has run since the last write (whoever writes clears it), a full
    /// detection otherwise — no scan repeats on an unchanged table.
    fn report_of<'r>(
        &self,
        table: &Table,
        known: &'r mut Option<ViolationReport>,
        scans: &mut Scans,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<&'r ViolationReport> {
        if known.is_none() {
            let stage = Instant::now();
            let report = self.detect_step(table, profile);
            scans.wall_us += stage.elapsed().as_micros() as u64;
            scans.count += 1;
            *known = Some(report?);
        }
        Ok(known.as_ref().expect("a report was just stored"))
    }

    /// One detection round of a repair over the merged suite. When
    /// profiling, the detect engine's per-constraint profile (wall,
    /// groups, rows) merges into the repair profile — meta is dropped
    /// so per-pass merges don't multiply suite-size counts, and the
    /// scan's phases too: the repair's own `detect` phase times them.
    fn detect_step(
        &self,
        table: &Table,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<ViolationReport> {
        let job = DetectJob::on_table(table, &self.cfds);
        let engine = ParallelEngine::new(self.jobs());
        let Some(p) = profile else {
            return engine.run(&job);
        };
        let (report, mut dp) = engine.run_profiled(&job)?;
        dp.meta.clear();
        dp.phases.clear();
        p.merge(&dp);
        Ok(report)
    }

    /// Translate one detection report into equivalence-class merges
    /// (variable rows), pins (constant rows) and LHS-break requests
    /// (pin conflicts). With `track_owners`, also the first constraint
    /// (in report order) claiming each cell an edit may touch — report
    /// order is engine-independent, so the attribution is deterministic.
    fn collect_classes(
        &self,
        table: &Table,
        scratch: &mut DistanceScratch,
        violations: &[Violation],
        track_owners: bool,
    ) -> PassPlan {
        let mut plan = PassPlan::default();
        // Violations arrive grouped by constraint, so a lap per change
        // of RHS attribute times each attribute's share exactly.
        let mut lap = (Instant::now(), None);
        let mut switch_to = |plan: &mut PassPlan, next: Option<usize>| {
            if lap.1 == next {
                return;
            }
            let now = Instant::now();
            if let (start, Some(attr)) = lap {
                plan.by_attr.entry(attr).or_default().collect += now - start;
            }
            lap = (now, next);
        };
        for v in violations {
            match v {
                Violation::CfdConstant { cfd, row, tuple } => {
                    let ci = *cfd;
                    let cfd = &self.cfds[*cfd];
                    switch_to(&mut plan, Some(cfd.rhs));
                    let tp = &cfd.tableau[*row];
                    // eCFD RHS patterns (≠/∈) have no single forced value;
                    // they resolve in the forcing phase.
                    let PatternValue::Const(c) = &tp.rhs else { continue };
                    let rhs_cell: Cell = (*tuple, cfd.rhs);
                    let Ok(held) = table.value_at(*tuple, cfd.rhs) else { continue };
                    // Cost of fixing the RHS vs. cheapest LHS break.
                    let rhs_cost = self.cost.change_cost(*tuple, cfd.rhs, held, c, scratch);
                    let lhs_break: Option<(f64, Cell)> = tp
                        .lhs
                        .iter()
                        .zip(&cfd.lhs)
                        .filter(|(p, _)| !p.is_wildcard())
                        .map(|(_, &a)| {
                            // Breaking costs ≈ weight (distance to a fresh
                            // value is ~1).
                            (self.cost.weight(*tuple, a), (*tuple, a))
                        })
                        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                    if track_owners {
                        plan.claim(rhs_cell, ci);
                        if let Some((_, cell)) = lhs_break {
                            plan.claim(cell, ci);
                        }
                    }
                    match lhs_break {
                        Some((w, cell)) if w < rhs_cost => plan.breaks.push(cell),
                        _ => {
                            let classes = plan.by_attr.entry(cfd.rhs).or_default();
                            if !classes.eq.pin(rhs_cell, c.clone()) {
                                // Conflicting constant requirements:
                                // break the pattern instead.
                                if let Some((_, cell)) = lhs_break {
                                    plan.breaks.push(cell);
                                }
                            }
                        }
                    }
                }
                Violation::CfdVariable { cfd, tuples, .. } => {
                    let ci = *cfd;
                    let cfd = &self.cfds[*cfd];
                    switch_to(&mut plan, Some(cfd.rhs));
                    let mut it = tuples.iter();
                    let Some(&first) = it.next() else { continue };
                    if track_owners {
                        for &t in tuples {
                            plan.claim((t, cfd.rhs), ci);
                            if let Some(&a) = cfd.lhs.first() {
                                plan.claim((t, a), ci);
                            }
                        }
                    }
                    let PassPlan { by_attr, breaks, .. } = &mut plan;
                    let members = it.map(|&t| (t, cfd.rhs));
                    by_attr.entry(cfd.rhs).or_default().eq.union_all(
                        (first, cfd.rhs),
                        members,
                        |(t, _)| {
                            // Pin conflict between classes — break the
                            // group membership of `t` via an LHS cell.
                            if let Some(&a) = cfd.lhs.first() {
                                breaks.push((t, a));
                            }
                        },
                    );
                }
                Violation::CindMissingWitness { .. } => {
                    // CIND repair (tuple insertion on the target side) is
                    // out of scope for cell-based repair.
                }
            }
        }
        switch_to(&mut plan, None);
        plan
    }

    /// One cost-guided pass. Returns whether any cell changed. With
    /// `attribution`, each successful cell edit is charged to the
    /// constraint owning the cell, and each RHS attribute's share of
    /// the pass lands on its `resolve` row.
    fn resolve_pass(
        &self,
        work: &mut Working,
        violations: &[Violation],
        resolve: &mut ResolveStats,
        mut attribution: Option<(&mut revival_obs::JobProfile, &[String])>,
    ) -> bool {
        let PassPlan { by_attr, breaks, owner } =
            self.collect_classes(&work.table, &mut work.scratch, violations, attribution.is_some());
        let mut changed = false;
        let charge =
            |cell: Cell, attribution: &mut Option<(&mut revival_obs::JobProfile, &[String])>| {
                if let Some((profile, names)) = attribution.as_mut() {
                    let ci = owner.get(cell_hash(cell), |k| *k == cell);
                    if let Some(name) = ci.and_then(|&ci| names.get(ci)) {
                        profile.entry(name, "cfd").cells_changed += 1;
                    }
                }
            };
        // One RHS attribute at a time: resolve its classes' targets in
        // parallel (read-only over the table), then apply sequentially
        // in deterministic group order — identical output at any shard
        // count.
        for (attr, AttrClasses { mut eq, collect }) in by_attr {
            let start = Instant::now();
            let classes = eq.groups();
            let resolved =
                EquivClasses::resolve_targets(&classes, &work.table, &self.cost, self.jobs());
            resolve.add(&resolved.stats);
            for ((cells, _), target) in classes.iter().zip(resolved.targets) {
                // Equal symbols ⇔ equal values; a target the pool has
                // never seen differs from every member.
                let target_sym = work.table.pool().lookup(&target);
                for &(t, a) in cells {
                    let differs = work.table.sym_at(t, a).is_ok_and(|s| Some(s) != target_sym);
                    if differs && work.set((t, a), target.clone()) {
                        changed = true;
                        charge((t, a), &mut attribution);
                    }
                }
            }
            if let Some((profile, _)) = attribution.as_mut() {
                let schema = work.table.schema();
                let name = format!("resolve {}.{}", schema.name(), schema.attr_name(attr));
                let row = profile.entry(&name, "resolve");
                row.classes += resolved.stats.classes;
                row.class_cells += resolved.stats.class_cells;
                row.distinct_values += resolved.stats.distinct_values;
                row.distances_computed += resolved.stats.distances_computed;
                row.wall_us += (collect + start.elapsed()).as_micros() as u64;
                row.shard_us.extend(resolved.shard_us);
            }
        }
        for (t, a) in breaks {
            let fresh = fresh_value(&work.table, t, a);
            if work.set((t, a), fresh) {
                changed = true;
                charge((t, a), &mut attribution);
            }
        }
        changed
    }

    /// One forcing round. Early rounds coerce groups to a consistent
    /// existing value; later rounds introduce fresh values that cannot
    /// re-trigger constant patterns. Returns edits applied.
    fn force_pass(
        &self,
        work: &mut Working,
        violations: &[Violation],
        round: usize,
        fresh_counter: &mut u64,
        mut attribution: Option<(&mut revival_obs::JobProfile, &[String])>,
    ) -> usize {
        let mut edits = 0usize;
        let charge =
            |ci: usize,
             n: u64,
             attribution: &mut Option<(&mut revival_obs::JobProfile, &[String])>| {
                if n > 0 {
                    if let Some((profile, names)) = attribution.as_mut() {
                        if let Some(name) = names.get(ci) {
                            profile.entry(name, "cfd").cells_changed += n;
                        }
                    }
                }
            };
        for v in violations {
            match v {
                Violation::CfdConstant { cfd, row, tuple } => {
                    let ci = *cfd;
                    let cfd = &self.cfds[*cfd];
                    let tp = &cfd.tableau[*row];
                    // A value satisfying the RHS pattern, when one is
                    // directly constructible.
                    let satisfying = match &tp.rhs {
                        PatternValue::Const(c) => Some(c.clone()),
                        PatternValue::OneOf(cs) => cs.first().cloned(),
                        PatternValue::NotConst(c) => {
                            // Prefer a plausible value from the column's
                            // active domain; fresh markers only as a
                            // last resort.
                            match column_plurality_excluding(&work.table, cfd.rhs, c) {
                                Some(v) => Some(v),
                                None => {
                                    *fresh_counter += 1;
                                    let salt = *fresh_counter;
                                    Some(unique_fresh(&work.table, *tuple, cfd.rhs, salt))
                                }
                            }
                        }
                        PatternValue::Wildcard => None,
                    };
                    if round < 2 {
                        if let Some(c) = satisfying {
                            if work.set((*tuple, cfd.rhs), c) {
                                edits += 1;
                                charge(ci, 1, &mut attribution);
                            }
                        }
                    } else {
                        // Persistent conflict: break the pattern on the
                        // first constant LHS position.
                        if let Some((_, &a)) =
                            tp.lhs.iter().zip(&cfd.lhs).find(|(p, _)| !p.is_wildcard())
                        {
                            *fresh_counter += 1;
                            let fresh = unique_fresh(&work.table, *tuple, a, *fresh_counter);
                            if work.set((*tuple, a), fresh) {
                                edits += 1;
                                charge(ci, 1, &mut attribution);
                            }
                        }
                    }
                }
                Violation::CfdVariable { cfd, tuples, .. } => {
                    let ci = *cfd;
                    let cfd = &self.cfds[*cfd];
                    // Make the whole group agree on one RHS value: the
                    // plurality value early, a shared fresh value later.
                    let target = if round < 2 {
                        plurality_rhs(&work.table, tuples, cfd.rhs)
                    } else {
                        *fresh_counter += 1;
                        unique_fresh(
                            &work.table,
                            *tuples.first().expect("non-empty group"),
                            cfd.rhs,
                            *fresh_counter,
                        )
                    };
                    let mut group_edits = 0u64;
                    for &t in tuples {
                        let differs = work.table.value_at(t, cfd.rhs).is_ok_and(|v| *v != target);
                        if differs && work.set((t, cfd.rhs), target.clone()) {
                            edits += 1;
                            group_edits += 1;
                        }
                    }
                    charge(ci, group_edits, &mut attribution);
                }
                Violation::CindMissingWitness { .. } => {}
            }
        }
        edits
    }
}

/// The most common value of a column excluding `not`, if any — a pure
/// column scan: occurrences count per symbol, values materialise only
/// for the tie-break comparison and the winner.
fn column_plurality_excluding(table: &Table, attr: usize, not: &Value) -> Option<Value> {
    let col = table.col(attr);
    let not_sym = table.pool().lookup(not);
    let mut counts: HashMap<Sym, usize> = HashMap::new();
    for slot in table.live_slots() {
        if Some(col[slot]) != not_sym {
            *counts.entry(col[slot]).or_insert(0) += 1;
        }
    }
    plurality(table, counts)
}

/// The most common RHS value among a group (ties break to the smallest),
/// counted per symbol like [`column_plurality_excluding`].
fn plurality_rhs(table: &Table, tuples: &[TupleId], rhs: usize) -> Value {
    let mut counts: HashMap<Sym, usize> = HashMap::new();
    for &t in tuples {
        if let Ok(s) = table.sym_at(t, rhs) {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    plurality(table, counts).unwrap_or(Value::Null)
}

/// The symbol of most occurrences, the smallest value on a tie.
fn plurality(table: &Table, counts: HashMap<Sym, usize>) -> Option<Value> {
    let pool = table.pool();
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| pool.value(b.0).cmp(pool.value(a.0))))
        .map(|(s, _)| pool.value(s).clone())
}

/// A fresh value of the cell's type, unlikely to collide.
fn fresh_value(table: &Table, t: TupleId, a: usize) -> Value {
    unique_fresh(table, t, a, t.0)
}

fn unique_fresh(table: &Table, t: TupleId, a: usize, salt: u64) -> Value {
    match table.schema().attribute(a).ty {
        Type::Str => Value::str(format!("__fresh_{}_{}_{salt}", t.0, a)),
        Type::Int => Value::Int(-(1_000_000_007i64 + salt as i64 * 31 + t.0 as i64)),
        Type::Float => Value::Float(-(1e12 + salt as f64 * 31.0 + t.0 as f64)),
        Type::Bool => Value::Bool(salt.is_multiple_of(2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::parse_cfds;
    use revival_detect::native::satisfies;
    use revival_relation::{Schema, Type};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("ac", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .attr("zip", Type::Str)
            .build()
    }

    fn table(rows: &[[&str; 5]]) -> Table {
        let mut t = Table::new(schema());
        for r in rows {
            t.push(r.iter().map(|s| Value::from(*s)).collect()).unwrap();
        }
        t
    }

    #[test]
    fn repairs_variable_violation_to_plurality() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let t = table(&[
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Mayfield", "edi", "EH8"], // minority → should flip
        ]);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(5));
        let (fixed, stats) = repairer.repair(&t).unwrap();
        assert!(satisfies(&fixed, &cfds));
        assert_eq!(stats.residual_violations, 0);
        assert_eq!(stats.cells_changed, 1);
        for (_, row) in fixed.rows() {
            assert_eq!(row[2], Value::from("Crichton"));
        }
    }

    #[test]
    fn repairs_constant_violation_to_required_value() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='01', ac='908'] -> [city='mh'])", &s).unwrap();
        let t = table(&[["01", "908", "Mtn", "nyc", "07974"]]);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(5));
        let (fixed, stats) = repairer.repair(&t).unwrap();
        assert!(satisfies(&fixed, &cfds));
        assert_eq!(fixed.rows().next().unwrap().1[3], Value::from("mh"));
        assert_eq!(stats.forced_resolutions, 0);
    }

    #[test]
    fn weight_steers_resolution() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let t = table(&[
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Mayfield", "edi", "EH8"],
        ]);
        // Make tuple 1's street expensive to change → class resolves to
        // Mayfield even though it's 1-vs-1.
        let mut cost = CostModel::uniform(5);
        cost.set_cell_weight(revival_relation::TupleId(1), 2, 100.0);
        let repairer = BatchRepair::new(&cfds, cost);
        let (fixed, _) = repairer.repair(&t).unwrap();
        assert!(satisfies(&fixed, &cfds));
        for (_, row) in fixed.rows() {
            assert_eq!(row[2], Value::from("Mayfield"));
        }
    }

    #[test]
    fn conflicting_constant_rules_still_terminate_consistent() {
        let s = schema();
        // Both rows fire on the same tuples but demand different cities:
        // unsatisfiable unless the pattern is broken.
        let cfds = parse_cfds(
            "customer([cc='01', ac='908'] -> [city='mh'])\n\
             customer([cc='01', zip='07974'] -> [city='nyc'])",
            &s,
        )
        .unwrap();
        let t = table(&[["01", "908", "Mtn", "xxx", "07974"]]);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(5));
        let (fixed, stats) = repairer.repair(&t).unwrap();
        assert!(satisfies(&fixed, &cfds), "output must satisfy the suite");
        assert_eq!(stats.residual_violations, 0);
        assert!(stats.forced_resolutions > 0 || stats.cells_changed >= 2);
    }

    #[test]
    fn cascading_repairs_converge() {
        let s = schema();
        // city is RHS of one CFD and LHS of another.
        let cfds = parse_cfds(
            "customer([cc, ac] -> [city])\n\
             customer([city='edi'] -> [cc='44'])",
            &s,
        )
        .unwrap();
        let t = table(&[
            ["44", "131", "A", "edi", "EH8"],
            ["44", "131", "B", "gla", "EH8"], // conflicts on city for (44,131)
            ["01", "131", "C", "edi", "07974"], // cc must become 44 if city stays edi
        ]);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(5));
        let (fixed, stats) = repairer.repair(&t).unwrap();
        assert!(satisfies(&fixed, &cfds));
        assert_eq!(stats.residual_violations, 0);
    }

    #[test]
    fn sharded_repair_is_byte_identical() {
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', ac='908'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            &s,
        )
        .unwrap();
        // Deterministic pseudo-random dirt so shards cross chunk bounds.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let mut t = Table::new(s);
        for _ in 0..200 {
            t.push(vec![
                ["44", "01", "86"][next(3)].into(),
                "908".into(),
                Value::str(format!("S{}", next(6))),
                Value::str(format!("C{}", next(4))),
                Value::str(format!("Z{}", next(12))),
            ])
            .unwrap();
        }
        let sequential = BatchRepair::new(&cfds, CostModel::uniform(5)).repair(&t).unwrap();
        for jobs in [2, 3, 4, 8] {
            let sharded =
                BatchRepair::new(&cfds, CostModel::uniform(5)).with_jobs(jobs).repair(&t).unwrap();
            assert_eq!(sharded.1, sequential.1, "stats diverge at jobs={jobs}");
            assert_eq!(sharded.0.diff_cells(&sequential.0), 0, "table diverges at jobs={jobs}");
        }
    }

    #[test]
    fn profiled_repair_is_byte_identical_and_attributes_cells() {
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', ac='908'] -> [city='mh'])",
            &s,
        )
        .unwrap();
        let t = table(&[
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Mayfield", "edi", "EH8"],
            ["01", "908", "Mtn", "nyc", "07974"],
        ]);
        for jobs in [1, 4] {
            let repairer = BatchRepair::new(&cfds, CostModel::uniform(5)).with_jobs(jobs);
            let (plain, plain_stats) = repairer.repair(&t).unwrap();
            let (profiled, stats, profile) = repairer.repair_profiled(&t).unwrap();
            assert_eq!(stats, plain_stats, "jobs={jobs}: profiled stats differ");
            assert_eq!(profiled.diff_cells(&plain), 0, "jobs={jobs}: profiled table differs");
            // Both constraints repaired a cell; attribution must see all
            // of them, under merged-suite names.
            let attributed: u64 = profile.constraints.iter().map(|c| c.cells_changed).sum();
            assert_eq!(attributed, stats.cells_changed as u64, "jobs={jobs}");
            let cfd_rows = profile.constraints.iter().filter(|c| c.kind == "cfd").count();
            assert_eq!(cfd_rows, repairer.cfds().len(), "jobs={jobs}");
            // The three repair phases are reported and bounded by wall.
            for phase in ["detect", "resolve", "force"] {
                assert!(
                    profile.phases.iter().any(|(p, _)| *p == phase),
                    "jobs={jobs}: missing phase {phase}"
                );
            }
            let phase_sum: u64 = profile.phases.iter().map(|(_, us)| us).sum();
            assert!(phase_sum <= profile.wall_us, "jobs={jobs}: phases exceed wall");
        }
    }

    #[test]
    fn profile_gives_each_rhs_attribute_a_resolve_row() {
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', ac='908'] -> [city='mh'])",
            &s,
        )
        .unwrap();
        let t = table(&[
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Crichton", "edi", "EH8"],
            ["44", "131", "Mayfield", "edi", "EH8"],
            ["01", "908", "Mtn", "nyc", "07974"],
        ]);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(5));
        let evals = revival_obs::global().counter("repair_distance_evals_total");
        let evals_before = evals.get();
        let (_, stats, profile) = repairer.repair_profiled(&t).unwrap();
        // Other tests repair concurrently, so the mirror counter moved
        // by at least this run's count.
        assert!(evals.get() > evals_before);
        let rows: Vec<_> = profile.constraints.iter().filter(|c| c.kind == "resolve").collect();
        let names: Vec<&str> = rows.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["resolve customer.street", "resolve customer.city"]);
        // Three street cells over two values: one distance. The city
        // class is pinned: no values read, no distance.
        let street = rows[0];
        assert_eq!(
            (street.classes, street.class_cells, street.distinct_values, street.distances_computed),
            (1, 3, 2, 1)
        );
        assert_eq!((rows[1].classes, rows[1].class_cells, rows[1].distances_computed), (1, 1, 0));
        // Rows sum to the job totals, which are the stats'.
        assert_eq!(stats.resolve.classes, 2);
        for (key, total, per_row) in [
            ("classes", stats.resolve.classes, rows.iter().map(|c| c.classes).sum::<u64>()),
            ("class_cells", stats.resolve.class_cells, rows.iter().map(|c| c.class_cells).sum()),
            (
                "distinct_values",
                stats.resolve.distinct_values,
                rows.iter().map(|c| c.distinct_values).sum(),
            ),
            (
                "distances_computed",
                stats.resolve.distances_computed,
                rows.iter().map(|c| c.distances_computed).sum(),
            ),
        ] {
            assert_eq!(profile.meta_get(key), Some(total), "{key}");
            assert_eq!(per_row, total, "{key}");
        }
        // Set-up and scoring own rows too, and no row overflows the wall.
        for kind in ["setup", "score"] {
            assert_eq!(profile.constraints.iter().filter(|c| c.kind == kind).count(), 1, "{kind}");
        }
        assert!(profile.attributed_us() <= profile.wall_us);
    }

    #[test]
    fn malformed_suite_is_a_typed_error_not_a_panic() {
        use revival_constraints::pattern::{PatternRow, PatternValue};
        let s = schema();
        let mut cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        cfds[0].tableau.push(PatternRow::new(vec![PatternValue::Wildcard], PatternValue::Wildcard));
        let t = table(&[["44", "131", "Crichton", "edi", "EH8"]]);
        for jobs in [1, 4] {
            let got = BatchRepair::new(&cfds, CostModel::uniform(5)).with_jobs(jobs).repair(&t);
            assert!(
                matches!(got, Err(revival_relation::Error::MalformedPattern { .. })),
                "jobs={jobs}: {got:?}"
            );
        }
    }

    #[test]
    fn clean_table_untouched() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let t = table(&[["44", "131", "Crichton", "edi", "EH8"]]);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(5));
        let (fixed, stats) = repairer.repair(&t).unwrap();
        assert_eq!(stats.cells_changed, 0);
        assert_eq!(stats.cost, 0.0);
        assert_eq!(stats.resolve, ResolveStats::default());
        assert_eq!(fixed.diff_cells(&t), 0);
    }

    /// The value-keyed `plurality_rhs` the symbol count replaced: a
    /// `Value` hashed and cloned per tuple, then sorted by count
    /// descending, value ascending — its oracle.
    fn plurality_rhs_by_value(table: &Table, tuples: &[TupleId], rhs: usize) -> Value {
        let mut counts: HashMap<Value, usize> = HashMap::new();
        for &t in tuples {
            if let Ok(v) = table.value_at(t, rhs) {
                *counts.entry(v.clone()).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<(Value, usize)> = counts.into_iter().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.into_iter().next().map(|(v, _)| v).unwrap_or(Value::Null)
    }

    /// Random groups over a few values (`Null` and `""` among them),
    /// sized so that count ties are common, some members deleted:
    /// the symbol count picks what the value count picked.
    #[test]
    fn plurality_rhs_equals_the_value_keyed_oracle() {
        let mut x = 0x5bd1e995u64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let values = ["edi", "", "ldn", "Edi", "édi", "nyc"];
        let (mut ties, mut groups) = (0, 0);
        for round in 0..2_000 {
            let mut t = table(&[]);
            let vocabulary = 1 + next(values.len());
            let ids: Vec<TupleId> = (0..1 + next(12))
                .map(|_| {
                    let street = match next(vocabulary + 1) {
                        0 => Value::Null,
                        i => Value::from(values[i - 1]),
                    };
                    t.push(vec!["44".into(), "131".into(), street, "edi".into(), "EH8".into()])
                        .unwrap()
                })
                .collect();
            for &id in &ids {
                if next(10) == 0 {
                    t.delete(id).unwrap();
                }
            }
            let want = plurality_rhs_by_value(&t, &ids, 2);
            assert_eq!(plurality_rhs(&t, &ids, 2), want, "round {round}");
            let mut counts: HashMap<&Value, usize> = HashMap::new();
            for &id in &ids {
                if let Ok(v) = t.value_at(id, 2) {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
            let top = counts.values().max().copied().unwrap_or(0);
            ties += usize::from(counts.values().filter(|&&n| n == top).count() > 1);
            groups += 1;
        }
        assert!(ties * 5 > groups, "{ties} tie(s) in {groups} group(s)");
    }

    /// The work-count guard on the large-class workload: driving the
    /// passes by hand, every class resolved by cost must account for
    /// exactly c(c−1)/2 − |D|(|D|−1)/2 distance evaluations (c = its
    /// distinct member values, D = those its heaviest value prices
    /// out, as the all-pairs oracle finds them) — and the public path
    /// must report the same counts at any shard count.
    #[test]
    fn hospital_distances_are_pairs_of_distinct_values() {
        use revival_dirty::hospital::{attrs as h, generate, standard_cfds, HospitalConfig};
        use revival_dirty::noise::{inject, NoiseConfig};

        let data = generate(&HospitalConfig { rows: 12_000, seed: 11, ..Default::default() });
        let noise = NoiseConfig::new(0.05, vec![h::STATE, h::MEASURE_NAME, h::HNAME], 11 ^ 0x405b);
        let dirty = inject(&data.table, &noise).dirty;
        let cfds = standard_cfds(&data.schema);
        let repairer = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity()));

        let mut work =
            Working { table: dirty.clone(), written: Vec::new(), scratch: Default::default() };
        let mut by_hand = ResolveStats::default();
        let (mut pairs, mut all_pairs, mut floor) = (0u64, 0u64, 0u64);
        loop {
            let report = repairer.detect_step(&work.table, None).unwrap();
            if report.is_empty() {
                break;
            }
            let plan =
                repairer.collect_classes(&work.table, &mut work.scratch, &report.violations, false);
            for (_, AttrClasses { mut eq, .. }) in plan.by_attr {
                for (cells, pinned) in eq.groups() {
                    if pinned.is_none() {
                        let oracle =
                            crate::eqclass::tests::all_pairs(&cells, &work.table, &repairer.cost);
                        let (c, d) = (oracle.values, oracle.dead);
                        pairs += c * (c - 1) / 2 - d * d.saturating_sub(1) / 2;
                        all_pairs += c * (c - 1) / 2;
                        floor += c - 1;
                    }
                }
            }
            assert!(repairer.resolve_pass(&mut work, &report.violations, &mut by_hand, None));
        }
        assert!(by_hand.classes > 100 && pairs > 1_000, "{by_hand:?}: not the large-class case");
        assert!(by_hand.class_cells > 10 * by_hand.distinct_values, "{by_hand:?}");
        assert_eq!(by_hand.distances_computed, pairs);
        // Pinned: the classes and their values have not moved since the
        // bit-vector kernel (all pairs of them were 10 177 distances);
        // the bound leaves little more than the c − 1 per class that
        // price the heaviest value.
        assert_eq!((all_pairs, floor), (10_177, 1_360));
        assert_eq!(
            (by_hand.distances_computed, by_hand.class_cells, by_hand.distinct_values),
            (1_366, 35_655, 1_561)
        );
        for jobs in [1, 4] {
            let sharded = BatchRepair::new(&cfds, CostModel::uniform(data.schema.arity()));
            let (_, stats) = sharded.with_jobs(jobs).repair(&dirty).unwrap();
            assert_eq!(stats.resolve, by_hand, "jobs={jobs}");
        }
    }
}
