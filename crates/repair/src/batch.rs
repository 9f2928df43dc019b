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
//! ## Sharding
//!
//! Both hot halves of a pass shard across [`RepairOptions::jobs`]
//! threads, byte-identically to the sequential pass:
//!
//! * **detection** dispatches through the shared [`Detector`] engine
//!   layer — [`ParallelEngine`], whose reports are byte-for-byte equal
//!   at any shard count (one shard scans inline);
//! * **equivalence-class resolution** shards the per-class cost scans
//!   ([`EquivClasses::resolve_targets`]): classes split into contiguous
//!   chunks, workers resolve each class independently, and the targets
//!   concatenate in chunk order before the (sequential, deterministic)
//!   apply step.
//!
//! So the repaired table and [`RepairStats`] are identical at any shard
//! count — asserted by `tests/repair_parity.rs`.

use crate::cost::CostModel;
use crate::eqclass::{Cell, EquivClasses};
use revival_constraints::cfd::merge_by_embedded_fd;
use revival_constraints::pattern::PatternValue;
use revival_constraints::Cfd;
use revival_detect::{DetectJob, Detector, ParallelEngine, Violation};
use revival_relation::{Result, Sym, Table, Type, Value};
use std::collections::HashMap;

/// Tuning knobs for [`BatchRepair`].
#[derive(Clone, Debug)]
pub struct RepairOptions {
    /// Maximum detect→resolve→apply passes before forcing.
    pub max_passes: usize,
    /// Maximum forcing rounds (each introduces fresh values).
    pub max_force_rounds: usize,
    /// Shards for detection and equivalence-class resolution: 1 =
    /// sequential, 0 = one shard per available core. Output is
    /// byte-identical at any value.
    pub jobs: usize,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions { max_passes: 12, max_force_rounds: 24, jobs: 1 }
    }
}

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
    /// Violations remaining (0 unless `max_force_rounds` was exhausted).
    pub residual_violations: usize,
}

/// Cost-based batch repair over one table.
pub struct BatchRepair {
    cfds: Vec<Cfd>,
    cost: CostModel,
    options: RepairOptions,
}

impl BatchRepair {
    /// Build a repairer for a suite (merged by embedded FD internally).
    pub fn new(cfds: &[Cfd], cost: CostModel) -> Self {
        BatchRepair { cfds: merge_by_embedded_fd(cfds), cost, options: RepairOptions::default() }
    }

    /// Override the default options.
    pub fn with_options(mut self, options: RepairOptions) -> Self {
        self.options = options;
        self
    }

    /// Override just the shard count (0 = one per available core).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// The merged suite the repairer enforces.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// The resolved shard count (`jobs = 0` → available cores).
    fn jobs(&self) -> usize {
        match self.options.jobs {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
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
    /// side-effect-only), plus detect/resolve/force phase timings and
    /// per-constraint detect wall + cells-changed attribution. Names
    /// refer to the *merged* suite the repairer enforces (see
    /// [`BatchRepair::cfds`]).
    pub fn repair_profiled(
        &self,
        table: &Table,
    ) -> Result<(Table, RepairStats, revival_obs::JobProfile)> {
        let detail = if self.jobs() <= 1 { "native" } else { "parallel" };
        let mut profile = revival_obs::JobProfile::new("repair", detail, self.jobs() as u64);
        let start = std::time::Instant::now();
        let (fixed, stats) = self.repair_inner(table, Some(&mut profile))?;
        let us = start.elapsed().as_micros() as u64;
        profile.meta_add("passes", stats.passes as u64);
        profile.meta_add("cells_changed", stats.cells_changed as u64);
        profile.meta_add("forced_resolutions", stats.forced_resolutions as u64);
        profile.meta_add("residual_violations", stats.residual_violations as u64);
        profile.meta_add("merged_cfds", self.cfds.len() as u64);
        profile.finish(us);
        Ok((fixed, stats, profile))
    }

    fn repair_inner(
        &self,
        table: &Table,
        mut profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<(Table, RepairStats)> {
        let run_span = revival_obs::Span::traced(
            "repair.run",
            revival_obs::global().histogram("repair_run_us"),
        );
        let mut current = table.clone();
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
        let (mut detect_us, mut resolve_us, mut force_us) = (0u64, 0u64, 0u64);

        for _ in 0..self.options.max_passes {
            let stage = std::time::Instant::now();
            let report = self.detect_step(&current, profile.as_deref_mut());
            detect_us += stage.elapsed().as_micros() as u64;
            let report = report?;
            if report.is_empty() {
                break;
            }
            stats.passes += 1;
            let stage = std::time::Instant::now();
            let changed = self.resolve_pass(
                &mut current,
                &report.violations,
                profile.as_deref_mut().map(|p| (p, names.as_slice())),
            );
            resolve_us += stage.elapsed().as_micros() as u64;
            if !changed {
                break; // cost-guided resolution stalled → force below
            }
        }

        // Forcing phase: guarantee satisfaction.
        for round in 0..self.options.max_force_rounds {
            let stage = std::time::Instant::now();
            let report = self.detect_step(&current, profile.as_deref_mut());
            detect_us += stage.elapsed().as_micros() as u64;
            let report = report?;
            if report.is_empty() {
                break;
            }
            let stage = std::time::Instant::now();
            stats.forced_resolutions += self.force_pass(
                &mut current,
                &report.violations,
                round,
                &mut fresh_counter,
                profile.as_deref_mut().map(|p| (p, names.as_slice())),
            );
            force_us += stage.elapsed().as_micros() as u64;
        }

        let stage = std::time::Instant::now();
        let residual = self.detect_step(&current, profile.as_deref_mut());
        detect_us += stage.elapsed().as_micros() as u64;
        stats.residual_violations = residual?.len();
        stats.cells_changed = current.diff_cells(table);
        stats.cost = self.cost.repair_cost(table, &current);
        if revival_obs::enabled() {
            let reg = revival_obs::global();
            reg.counter("repair_runs_total").inc();
            reg.counter("repair_cells_changed_total").add(stats.cells_changed as u64);
            reg.counter("repair_forced_total").add(stats.forced_resolutions as u64);
            reg.histogram("repair_phase_us{phase=\"detect\"}").record(detect_us);
            reg.histogram("repair_phase_us{phase=\"resolve\"}").record(resolve_us);
            reg.histogram("repair_phase_us{phase=\"force\"}").record(force_us);
        }
        if let Some(p) = profile {
            p.phase_add("detect", detect_us);
            p.phase_add("resolve", resolve_us);
            p.phase_add("force", force_us);
        }
        drop(run_span);
        Ok((current, stats))
    }

    /// One detection round of a repair over the merged suite. When
    /// profiling, the detect engine's per-constraint profile (wall,
    /// groups, rows) merges into the repair profile — meta is dropped
    /// so per-pass merges don't multiply suite-size counts.
    fn detect_step(
        &self,
        table: &Table,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<revival_detect::ViolationReport> {
        let job = DetectJob::on_table(table, &self.cfds);
        let engine = ParallelEngine::new(self.jobs());
        let Some(p) = profile else {
            return engine.run(&job);
        };
        let (report, mut dp) = engine.run_profiled(&job)?;
        dp.meta.clear();
        p.merge(&dp);
        Ok(report)
    }

    /// One cost-guided pass. Returns whether any cell changed. With
    /// `attribution`, each successful cell edit is charged to the first
    /// constraint (in report order) that claimed the cell — report
    /// order is engine-independent, so the attribution is deterministic.
    fn resolve_pass(
        &self,
        table: &mut Table,
        violations: &[Violation],
        mut attribution: Option<(&mut revival_obs::JobProfile, &[String])>,
    ) -> bool {
        let mut eq = EquivClasses::new();
        // `(cell, fresh)` lhs-break requests when pins conflict.
        let mut breaks: Vec<Cell> = Vec::new();
        // First constraint (report order) claiming each cell an edit may
        // touch — only tracked when profiling.
        let profiling = attribution.is_some();
        let mut owner: HashMap<Cell, usize> = HashMap::new();

        for v in violations {
            match v {
                Violation::CfdConstant { cfd, row, tuple } => {
                    let ci = *cfd;
                    let cfd = &self.cfds[*cfd];
                    let tp = &cfd.tableau[*row];
                    // eCFD RHS patterns (≠/∈) have no single forced value;
                    // they resolve in the forcing phase.
                    let PatternValue::Const(c) = &tp.rhs else { continue };
                    let rhs_cell: Cell = (*tuple, cfd.rhs);
                    let Ok(data) = table.get(*tuple) else { continue };
                    // Cost of fixing the RHS vs. cheapest LHS break.
                    let rhs_cost = self.cost.change_cost(*tuple, cfd.rhs, &data[cfd.rhs], c);
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
                    if profiling {
                        owner.entry(rhs_cell).or_insert(ci);
                        if let Some((_, cell)) = lhs_break {
                            owner.entry(cell).or_insert(ci);
                        }
                    }
                    match lhs_break {
                        Some((w, cell)) if w < rhs_cost => breaks.push(cell),
                        _ => {
                            if !eq.pin(rhs_cell, c.clone()) {
                                // Conflicting constant requirements:
                                // break the pattern instead.
                                if let Some((_, cell)) = lhs_break {
                                    breaks.push(cell);
                                }
                            }
                        }
                    }
                }
                Violation::CfdVariable { cfd, tuples, .. } => {
                    let ci = *cfd;
                    let cfd = &self.cfds[*cfd];
                    let mut it = tuples.iter();
                    let Some(&first) = it.next() else { continue };
                    if profiling {
                        for &t in tuples {
                            owner.entry((t, cfd.rhs)).or_insert(ci);
                            if let Some(&a) = cfd.lhs.first() {
                                owner.entry((t, a)).or_insert(ci);
                            }
                        }
                    }
                    for &t in it {
                        if !eq.union((first, cfd.rhs), (t, cfd.rhs)) {
                            // Pin conflict between classes — break the
                            // group membership of `t` via an LHS cell.
                            if let Some(&a) = cfd.lhs.first() {
                                breaks.push((t, a));
                            }
                        }
                    }
                }
                Violation::CindMissingWitness { .. } => {
                    // CIND repair (tuple insertion on the target side) is
                    // out of scope for cell-based repair.
                }
            }
        }

        let mut changed = false;
        let charge =
            |cell: Cell, attribution: &mut Option<(&mut revival_obs::JobProfile, &[String])>| {
                if let Some((profile, names)) = attribution.as_mut() {
                    if let Some(name) = owner.get(&cell).and_then(|&ci| names.get(ci)) {
                        profile.entry(name, "cfd").cells_changed += 1;
                    }
                }
            };
        // Resolve every class's target value in parallel (read-only over
        // the table), then apply sequentially in deterministic group
        // order — identical output at any shard count.
        let groups = eq.groups();
        let targets = EquivClasses::resolve_targets(&groups, table, &self.cost, self.jobs());
        for ((cells, _), target) in groups.into_iter().zip(targets) {
            for (t, a) in cells {
                if let Ok(row) = table.get(t) {
                    if row[a] != target && table.set_cell(t, a, target.clone()).is_ok() {
                        changed = true;
                        charge((t, a), &mut attribution);
                    }
                }
            }
        }
        for (t, a) in breaks {
            let fresh = fresh_value(table, t, a);
            if table.set_cell(t, a, fresh).is_ok() {
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
        table: &mut Table,
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
                            match column_plurality_excluding(table, cfd.rhs, c) {
                                Some(v) => Some(v),
                                None => {
                                    *fresh_counter += 1;
                                    Some(unique_fresh(table, *tuple, cfd.rhs, *fresh_counter))
                                }
                            }
                        }
                        PatternValue::Wildcard => None,
                    };
                    if round < 2 {
                        if let Some(c) = satisfying {
                            if table.set_cell(*tuple, cfd.rhs, c).is_ok() {
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
                            let fresh = unique_fresh(table, *tuple, a, *fresh_counter);
                            if table.set_cell(*tuple, a, fresh).is_ok() {
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
                        plurality_rhs(table, tuples, cfd.rhs)
                    } else {
                        *fresh_counter += 1;
                        unique_fresh(
                            table,
                            *tuples.first().expect("non-empty group"),
                            cfd.rhs,
                            *fresh_counter,
                        )
                    };
                    let mut group_edits = 0u64;
                    for &t in tuples {
                        if let Ok(row) = table.get(t) {
                            if row[cfd.rhs] != target
                                && table.set_cell(t, cfd.rhs, target.clone()).is_ok()
                            {
                                edits += 1;
                                group_edits += 1;
                            }
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
    let pool = table.pool();
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| pool.value(b.0).cmp(pool.value(a.0))))
        .map(|(s, _)| pool.value(s).clone())
}

/// The most common RHS value among a group (ties break to the smallest).
fn plurality_rhs(table: &Table, tuples: &[revival_relation::TupleId], rhs: usize) -> Value {
    let mut counts: HashMap<Value, usize> = HashMap::new();
    for &t in tuples {
        if let Ok(row) = table.get(t) {
            *counts.entry(row[rhs].clone()).or_insert(0) += 1;
        }
    }
    let mut entries: Vec<(Value, usize)> = counts.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.into_iter().next().map(|(v, _)| v).unwrap_or(Value::Null)
}

/// A fresh value of the cell's type, unlikely to collide.
fn fresh_value(table: &Table, t: revival_relation::TupleId, a: usize) -> Value {
    unique_fresh(table, t, a, t.0)
}

fn unique_fresh(table: &Table, t: revival_relation::TupleId, a: usize, salt: u64) -> Value {
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
        assert_eq!(fixed.diff_cells(&t), 0);
    }
}
