//! Native hash-based CFD detection — the one scan kernel.
//!
//! A suite is planned into *scan units*: the CFDs sharing one embedded
//! FD `(relation, lhs, rhs)`, in first-seen order. Each unit reads its
//! relation once (`scan_unit`), whatever the number of members:
//!
//! * **constant rows** — a single sweep checks every member's compiled
//!   constant rows tuple at a time, recording the first violating row
//!   *per member* (`O(n · Σ|Tp|)`);
//! * **variable rows** — a single grouping of the tuples by the LHS
//!   projection, shared by all members; a group violates a member's row
//!   iff the group key matches the row's LHS patterns and the group
//!   holds ≥ 2 distinct RHS values.
//!
//! Both run per contiguous chunk of live slots
//! (`parallel::map_chunks`: inline at one shard, one scoped
//! thread per chunk otherwise) and merge in chunk order, so the merged
//! state is what one sequential scan builds at any shard count. Every
//! member then reports on its own — constants in row order, variables in
//! key order — and `scan_suite` concatenates the members in suite
//! order: cost follows the number of embedded FDs, the report does not
//! depend on how the suite splits its pattern rows.
//!
//! The grouping runs on the interned kernel
//! ([`revival_relation::GroupBy`]): tuples are scanned as symbol rows,
//! keys hash as `u32` words via [`ColProj`], and nothing is cloned per
//! probed row — an owned key materialises once per distinct group.
//! Values reappear only at emission, where group keys map back through
//! the table's [`revival_relation::ValuePool`] for pattern matching and
//! reporting.

use crate::engine::DetectJob;
use crate::parallel::map_chunks;
use crate::report::{Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::SymPred;
use revival_relation::{ColProj, GroupBy, Result, Sym, Table, TupleId, Value, ValuePool};

/// Detects CFD violations on one in-memory table — the single-table
/// facade over the scan kernel.
pub struct NativeDetector<'a> {
    table: &'a Table,
}

impl<'a> NativeDetector<'a> {
    /// Create a detector over `table`.
    pub fn new(table: &'a Table) -> Self {
        NativeDetector { table }
    }

    /// Detect all violations of one CFD. `cfd_idx` is echoed into the
    /// report so suite-level callers can attribute violations.
    pub fn detect(&self, cfd: &Cfd, cfd_idx: usize) -> ViolationReport {
        debug_assert_eq!(cfd.relation, self.table.schema().name());
        let slots: Vec<usize> = self.table.live_slots().collect();
        let scan = scan_unit(self.table, &slots, &[(cfd_idx, cfd)], 1);
        ViolationReport { violations: scan.found.into_iter().flatten().collect() }
    }

    /// Detect violations of a whole suite over this table.
    ///
    /// # Panics
    /// If the suite is malformed or constrains another relation; use
    /// [`crate::Detector::run`] for the typed error.
    pub fn detect_all(&self, cfds: &[Cfd]) -> ViolationReport {
        scan_suite(&DetectJob::on_table(self.table, cfds), 1, None)
            .expect("well-formed suite over this table")
    }
}

/// The kernel's entry point: every CFD and CIND of `job`, one pass per
/// embedded FD over `jobs` shards, violations reported per original
/// constraint in suite order (CFDs, then CINDs). With a profile, each
/// pass's wall time, group count and shard times land on one `pass`
/// row (and a trace span when tracing is on).
pub(crate) fn scan_suite(
    job: &DetectJob<'_>,
    jobs: usize,
    mut profile: Option<&mut revival_obs::JobProfile>,
) -> Result<ViolationReport> {
    // Malformed patterns must error here, not panic in a worker.
    job.validate()?;
    let mut units: Vec<Vec<(usize, &Cfd)>> = Vec::new();
    for (i, cfd) in job.cfds.iter().enumerate() {
        match units.iter_mut().find(|unit| unit[0].1.same_embedded_fd(cfd)) {
            Some(unit) => unit.push((i, cfd)),
            None => units.push(vec![(i, cfd)]),
        }
    }
    // Each relation's live slots enumerate once for the whole suite.
    let mut live: Vec<(&str, Vec<usize>)> = Vec::new();
    let mut found: Vec<Vec<Violation>> = vec![Vec::new(); job.cfds.len()];
    for (k, unit) in units.iter().enumerate() {
        let (_, first) = unit[0];
        let table = job.table(&first.relation)?;
        // Timed from here: a relation's first pass pays for enumerating it.
        let start = std::time::Instant::now();
        let cached = live.iter().position(|(r, _)| *r == first.relation).unwrap_or_else(|| {
            live.push((&first.relation, table.live_slots().collect()));
            live.len() - 1
        });
        let slots = &live[cached].1;
        let scan = scan_unit(table, slots, unit, jobs);
        let us = start.elapsed().as_micros() as u64;
        if let Some(p) = profile.as_deref_mut() {
            let members: Vec<String> = unit.iter().map(|(i, _)| i.to_string()).collect();
            let fd = first.embedded_fd();
            let name =
                format!("pass#{k} {} cfds=[{}]", fd.display(table.schema()), members.join(","));
            revival_obs::trace::record_at(&name, start, us);
            let row = p.entry(&name, "pass");
            row.groups_probed += scan.groups as u64;
            row.wall_us += us;
            row.shard_us.extend(scan.shard_us);
        }
        for (&(i, _), buf) in unit.iter().zip(scan.found) {
            found[i] = buf;
        }
    }
    let mut report = ViolationReport { violations: found.into_iter().flatten().collect() };
    crate::cind::detect_cinds(job, jobs, profile, &mut report.violations)?;
    Ok(report)
}

/// What one pass over an embedded FD produced.
pub(crate) struct UnitScan {
    /// Per-member violations, aligned with the unit's member list.
    pub found: Vec<Vec<Violation>>,
    /// LHS groups the variable pass built (0 without variable rows).
    pub groups: usize,
    /// Worker wall-µs per chunk, in chunk order.
    pub shard_us: Vec<u64>,
}

/// Scan one unit — `members` are `(suite index, CFD)` pairs sharing one
/// embedded FD over `table` — across `jobs` contiguous chunks of
/// `slots`. Chunks merge in order: per-member constant findings
/// concatenate (row order), partial group maps fold associatively.
pub(crate) fn scan_unit(
    table: &Table,
    slots: &[usize],
    members: &[(usize, &Cfd)],
    jobs: usize,
) -> UnitScan {
    let (_, fd) = members[0];
    let lhs_cols = table.proj(&fd.lhs);
    let rhs_col = table.col(fd.rhs);
    // The tableaux compile to symbol predicates once, shared read-only
    // across workers; the sweep touches only the unit's columns.
    // Kept per member position, for the members that have any.
    let const_rows: Vec<(usize, Vec<ConstRow>)> = members
        .iter()
        .enumerate()
        .map(|(m, (_, cfd))| (m, compile_constant_rows(cfd, table.pool())))
        .filter(|(_, rows)| !rows.is_empty())
        .collect();
    let any_var = members.iter().any(|(_, cfd)| cfd.variable_rows().next().is_some());

    let mut chunks = map_chunks(slots, jobs, |chunk| {
        let mut found: Vec<Vec<Violation>> = vec![Vec::new(); members.len()];
        if !const_rows.is_empty() {
            for &slot in chunk {
                for (m, rows) in &const_rows {
                    if let Some(row) = constant_violation_at(rows, &lhs_cols, rhs_col, slot) {
                        let tuple = TupleId(slot as u64);
                        found[*m].push(Violation::CfdConstant { cfd: members[*m].0, row, tuple });
                    }
                }
            }
        }
        // Group tuples by LHS key symbols; track the distinct RHS
        // symbols and the member ids per group.
        let mut groups: SymGroups = GroupBy::new();
        if any_var {
            for &slot in chunk {
                add_slot_to_group(&mut groups, &lhs_cols, rhs_col, slot);
            }
        }
        (found, groups)
    })
    .into_iter();

    // Folding in chunk order keeps each group's member list in global
    // row order and its distinct-RHS list in first-seen order — the
    // state a sequential scan builds. One chunk has nothing to fold.
    let ((mut found, mut groups), us) = chunks.next().expect("map_chunks yields a chunk");
    let mut shard_us = vec![us];
    for ((more, partial), us) in chunks {
        shard_us.push(us);
        for (buf, vs) in found.iter_mut().zip(more) {
            buf.extend(vs);
        }
        merge_groups(&mut groups, partial);
    }
    if any_var {
        if revival_obs::enabled() {
            revival_obs::global().counter("detect_groups_probed_total").add(groups.len() as u64);
        }
        let violating = violating_groups(&groups, table.pool());
        for ((idx, cfd), buf) in members.iter().zip(&mut found) {
            emit_variable_violations(*idx, cfd, &violating, buf);
        }
    }
    UnitScan { found, groups: groups.len(), shard_us }
}

/// One LHS group of the variable-row grouping pass: its live members
/// (in row order) and the distinct RHS symbols seen (first-seen order).
struct VarGroup {
    members: Vec<TupleId>,
    rhs_syms: Vec<Sym>,
}

/// The grouping state of one variable-row pass: interned LHS key →
/// group, in first-seen order.
type SymGroups = GroupBy<Box<[Sym]>, VarGroup>;

/// One constant tableau row compiled to symbol space (see
/// [`revival_constraints::PatternValue::resolve`]): LHS predicates
/// aligned with the CFD's LHS attributes, plus the RHS predicate.
struct ConstRow {
    tp_idx: usize,
    lhs: Vec<SymPred>,
    rhs: SymPred,
}

/// Compile a CFD's constant rows against a table's pool. Row order is
/// tableau order, so first-match indices agree with
/// [`Cfd::constant_violation`].
fn compile_constant_rows(cfd: &Cfd, pool: &ValuePool) -> Vec<ConstRow> {
    cfd.tableau
        .iter()
        .enumerate()
        .filter(|(_, tp)| tp.is_constant_row())
        .map(|(i, tp)| ConstRow {
            tp_idx: i,
            lhs: tp.lhs.iter().map(|p| p.resolve(pool)).collect(),
            rhs: tp.rhs.resolve(pool),
        })
        .collect()
}

/// First compiled constant row a slot violates (LHS patterns all match,
/// RHS pattern fails) — the symbol-space image of
/// [`Cfd::constant_violation`].
#[inline]
fn constant_violation_at(
    const_rows: &[ConstRow],
    lhs_cols: &ColProj<'_>,
    rhs_col: &[Sym],
    slot: usize,
) -> Option<usize> {
    const_rows
        .iter()
        .find(|cr| {
            cr.lhs.iter().enumerate().all(|(i, p)| p.matches(lhs_cols.sym_at(i, slot)))
                && !cr.rhs.matches(rhs_col[slot])
        })
        .map(|cr| cr.tp_idx)
}

/// Fold one slot into the group map keyed by its LHS column projection.
/// The probe hashes the column cells in place; a key vector is built
/// only for a first-seen group.
#[inline]
fn add_slot_to_group(groups: &mut SymGroups, lhs_cols: &ColProj<'_>, rhs_col: &[Sym], slot: usize) {
    let g = groups.entry_mut(
        lhs_cols.hash_at(slot),
        |k| lhs_cols.matches_at(slot, k),
        || (lhs_cols.key_at(slot), VarGroup { members: Vec::new(), rhs_syms: Vec::new() }),
    );
    g.members.push(TupleId(slot as u64));
    let rhs = rhs_col[slot];
    if !g.rhs_syms.contains(&rhs) {
        g.rhs_syms.push(rhs);
    }
}

/// Fold a later chunk's partial group map into `groups`. The cached
/// entry hashes are reused, so the fold never re-hashes a key.
fn merge_groups(groups: &mut SymGroups, partial: SymGroups) {
    for (hash, key, part) in partial.into_entries() {
        match groups.probe(hash, |k| *k == key) {
            None => {
                groups.insert_unique(hash, key, part);
            }
            Some(i) => {
                let g = groups.value_at_mut(i);
                g.members.extend(part.members);
                for rhs in part.rhs_syms {
                    if !g.rhs_syms.contains(&rhs) {
                        g.rhs_syms.push(rhs);
                    }
                }
            }
        }
    }
}

/// The groups with ≥ 2 distinct RHS values, in sorted-key order
/// (deterministic reports). Keys leave symbol space here: per violating
/// group — not per tuple, and filtered first so only violating groups
/// pay the key clone + sort — the key maps back to values for pattern
/// matching and the report.
fn violating_groups<'g>(
    groups: &'g SymGroups,
    pool: &ValuePool,
) -> Vec<(Vec<Value>, &'g VarGroup)> {
    let mut keyed: Vec<(Vec<Value>, &VarGroup)> = groups
        .iter()
        .filter(|(_, g)| g.rhs_syms.len() >= 2)
        .map(|(k, g)| (k.iter().map(|&s| pool.value(s).clone()).collect(), g))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed
}

/// Emit one member's variable violations: every violating group whose
/// key matches one of its variable rows, in key order.
fn emit_variable_violations(
    cfd_idx: usize,
    cfd: &Cfd,
    violating: &[(Vec<Value>, &VarGroup)],
    out: &mut Vec<Violation>,
) {
    let var_rows: Vec<_> =
        cfd.tableau.iter().enumerate().filter(|(_, tp)| !tp.is_constant_row()).collect();
    if var_rows.is_empty() {
        return;
    }
    for (key, group) in violating {
        for (row, tp) in &var_rows {
            if tp.lhs_matches(key) {
                out.push(Violation::CfdVariable {
                    cfd: cfd_idx,
                    row: *row,
                    key: key.clone(),
                    tuples: group.members.clone(),
                });
            }
        }
    }
}

/// Count the violating tuples of a suite — the headline number in
/// detection-quality experiments (E3).
pub fn count_violating_tuples(table: &Table, cfds: &[Cfd]) -> usize {
    NativeDetector::new(table).detect_all(cfds).violating_tuples().len()
}

/// Quick satisfaction check for a suite (used by repair as its oracle).
pub fn satisfies(table: &Table, cfds: &[Cfd]) -> bool {
    cfds.iter().all(|c| c.satisfied_by(table))
}

/// Render a violation in terms of attribute names (diagnostics, CLI).
pub fn describe_violation(
    v: &Violation,
    cfds: &[Cfd],
    schema: &revival_relation::Schema,
) -> String {
    match v {
        Violation::CfdConstant { cfd, row, tuple } => {
            let c = &cfds[*cfd];
            let tp = &c.tableau[*row];
            // display_row keeps the message one line even when the CFD
            // carries a multi-row (merged) tableau, and names exactly
            // the violated row.
            format!(
                "tuple {tuple} matches pattern {tp} of {} but {} fails the RHS pattern {}",
                c.display_row(schema, *row),
                schema.attr_name(c.rhs),
                tp.rhs
            )
        }
        Violation::CfdVariable { cfd, row, key, tuples } => {
            let c = &cfds[*cfd];
            let keys: Vec<String> = c
                .lhs
                .iter()
                .zip(key)
                .map(|(&a, v)| format!("{}={}", schema.attr_name(a), v))
                .collect();
            format!(
                "{} tuples agree on ({}) but disagree on {} ({})",
                tuples.len(),
                keys.join(", "),
                schema.attr_name(c.rhs),
                c.display_row(schema, *row),
            )
        }
        Violation::CindMissingWitness { cind, tuple } => {
            format!("tuple {tuple} has no witness for cind#{cind}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::parse_cfds;
    use revival_relation::{Schema, Type, Value};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("ac", Type::Str)
            .attr("phn", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .attr("zip", Type::Str)
            .build()
    }

    fn table(rows: &[[&str; 6]]) -> Table {
        let mut t = Table::new(schema());
        for r in rows {
            t.push(r.iter().map(|s| Value::from(*s)).collect()).unwrap();
        }
        t
    }

    #[test]
    fn detects_variable_violation() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let t = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["44", "131", "222", "Mayfield", "edi", "EH8"],
            ["01", "908", "333", "MtnAve", "mh", "07974"],
        ]);
        let report = NativeDetector::new(&t).detect(&cfds[0], 0);
        assert_eq!(report.len(), 1);
        assert!(
            matches!(&report.violations[0], Violation::CfdVariable { key, tuples, .. }
                if key.len() == 2 && tuples.len() == 2),
            "expected a 2-tuple variable violation, got {:?}",
            report.violations[0]
        );
    }

    #[test]
    fn detects_constant_violation() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='01', ac='908'] -> [city='mh'])", &s).unwrap();
        let t = table(&[
            ["01", "908", "111", "MtnAve", "nyc", "07974"], // violates: city must be mh
            ["01", "908", "222", "MtnAve", "mh", "07974"],  // fine
            ["44", "908", "333", "X", "nyc", "EH8"],        // pattern doesn't apply
        ]);
        let report = NativeDetector::new(&t).detect(&cfds[0], 0);
        assert_eq!(report.len(), 1);
        assert_eq!(report.violating_tuples().len(), 1);
    }

    #[test]
    fn cfd_catches_more_than_fd() {
        // The tutorial's core §3 claim: with the same embedded FD, the
        // CFD's constant rows catch single-tuple errors the FD cannot.
        let s = schema();
        let fd_suite = parse_cfds("customer([zip] -> [city])", &s).unwrap();
        let cfd_suite = parse_cfds(
            "customer([zip] -> [city])\n\
             customer([zip='07974'] -> [city='mh'])",
            &s,
        )
        .unwrap();
        // Single tuple with the wrong city: consistent as far as the FD
        // can see (no conflicting pair), but the CFD flags it.
        let t = table(&[["01", "908", "111", "MtnAve", "nyc", "07974"]]);
        assert_eq!(count_violating_tuples(&t, &fd_suite), 0);
        assert_eq!(count_violating_tuples(&t, &cfd_suite), 1);
    }

    #[test]
    fn satisfies_oracle() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let good = table(&[["44", "131", "111", "Crichton", "edi", "EH8"]]);
        assert!(satisfies(&good, &cfds));
        let bad = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["44", "131", "222", "Mayfield", "edi", "EH8"],
        ]);
        assert!(!satisfies(&bad, &cfds));
    }

    #[test]
    fn group_with_same_rhs_is_fine() {
        let s = schema();
        let cfds = parse_cfds("customer([zip] -> [street])", &s).unwrap();
        let t = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["01", "908", "222", "Crichton", "edi", "EH8"],
        ]);
        assert!(NativeDetector::new(&t).detect(&cfds[0], 0).is_empty());
    }

    #[test]
    fn describe_violation_is_readable() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let t = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["44", "131", "222", "Mayfield", "edi", "EH8"],
        ]);
        let report = NativeDetector::new(&t).detect(&cfds[0], 0);
        let text = describe_violation(&report.violations[0], &cfds, &s);
        assert!(text.contains("street"));
        assert!(text.contains("2 tuples"));
    }

    #[test]
    fn suites_span_catalog_relations() {
        use revival_relation::Catalog;
        let s1 = schema();
        let s2 = Schema::builder("orders").attr("oid", Type::Str).attr("status", Type::Str).build();
        let t1 = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["44", "131", "222", "Mayfield", "edi", "EH8"],
        ]);
        let mut t2 = Table::new(s2.clone());
        t2.push(vec!["o1".into(), "weird".into()]).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(t1);
        catalog.register(t2);
        let mut cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s1).unwrap();
        cfds.extend(parse_cfds("orders([oid] -> [status in ('ok','weird')])", &s2).unwrap());
        let report = scan_suite(&DetectJob::on_catalog(&catalog, &cfds), 1, None).unwrap();
        assert_eq!(report.len(), 1, "customer violation only; orders row satisfies");
        // Unknown relation errors cleanly.
        let bad = parse_cfds("customer([cc] -> [street])", &s1).unwrap();
        let empty = Catalog::new();
        assert!(scan_suite(&DetectJob::on_catalog(&empty, &bad), 1, None).is_err());
    }

    #[test]
    fn multi_row_tableau_counts_per_row() {
        let s = schema();
        // Two variable rows with different cc constants; a group matching
        // only one row yields one violation.
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip] -> [street])",
            &s,
        )
        .unwrap();
        let merged = revival_constraints::cfd::merge_by_embedded_fd(&cfds);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].tableau.len(), 2);
        let t = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["44", "131", "222", "Mayfield", "edi", "EH8"],
        ]);
        let report = NativeDetector::new(&t).detect(&merged[0], 0);
        assert_eq!(report.len(), 1);
    }
}
