//! Native hash-based CFD detection — the one scan kernel.
//!
//! A suite is planned into *scan units*: the CFDs sharing one embedded
//! FD `(relation, lhs, rhs)`, in first-seen order. Each unit reads its
//! relation once (`scan_unit`), whatever the number of members:
//!
//! * **constant rows** — a hash join of the tuples against the tableau,
//!   as the paper detects (its SQL encoding stores the tableau as a
//!   relation and joins the data to it on the LHS, so cost follows the
//!   data). The members' constant rows compile once per unit into a
//!   `ConstIndex`: one bucket per *wildcard mask* (the LHS positions
//!   holding a constant), keyed by the constants at those positions. A
//!   tuple hashes its cells at each mask's attributes in place (no key
//!   is built), probes, and tests the RHS predicate of the rows under
//!   its key only — `O(n · #masks)` probes where a sweep compares
//!   `O(n · Σ|Tp|)` rows. The index owns no borrow: a bucket keeps the
//!   attribute ids of its mask and reads the table's columns at probe
//!   time, so the same compile-and-probe serves one pass here and the
//!   life of a table in [`crate::incremental`], which keeps this
//!   scan's state warm. Rows with an eCFD LHS
//!   pattern (`≠ c`, `∈ {…}`) name no single key and stay on a short
//!   residual list swept per tuple; rows naming a constant the table
//!   never interned match no tuple and are dropped when compiling. The
//!   lowest violated tableau index *per member* is kept, which is the
//!   first violating row in tableau order — what a sweep reports;
//! * **variable rows** — a single grouping of the tuples by the LHS
//!   projection, shared by all members; a group violates a member's row
//!   iff the group key matches the row's LHS patterns and the group
//!   holds ≥ 2 distinct RHS values.
//!
//! Both run per contiguous chunk of live slots
//! (`revival_relation::map_chunks`: inline at one shard, one scoped
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
use crate::report::{Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::{Cind, SymPred};
use revival_relation::groupby::hash_syms;
use revival_relation::{
    map_chunks, AttrId, ColProj, GroupBy, Result, Sym, Table, TupleId, Value, ValuePool,
};
use std::collections::HashMap;

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
    let plan_start = std::time::Instant::now();
    // Malformed patterns must error here, not panic in a worker.
    job.validate()?;
    let units = plan_units(job.cfds);
    if let Some(p) = profile.as_deref_mut() {
        p.entry("plan (validate, group by embedded FD)", "plan").wall_us +=
            plan_start.elapsed().as_micros() as u64;
    }
    // Each relation's live slots enumerate once for the whole suite.
    let mut live: Vec<(&str, Vec<usize>)> = Vec::new();
    let mut found: Vec<Vec<Violation>> = vec![Vec::new(); job.cfds.len()];
    for (k, ids) in units.iter().enumerate() {
        let unit: Vec<(usize, &Cfd)> = ids.iter().map(|&i| (i, &job.cfds[i])).collect();
        let (_, first) = unit[0];
        let table = job.table(&first.relation)?;
        // Timed from here to the end of the body: a relation's first
        // pass pays for enumerating it, every pass for handing its
        // findings over and (profiled) for naming its own row.
        let start = std::time::Instant::now();
        let cached = live.iter().position(|(r, _)| *r == first.relation).unwrap_or_else(|| {
            live.push((&first.relation, table.live_slots().collect()));
            live.len() - 1
        });
        let slots = &live[cached].1;
        let scan = scan_unit(table, slots, &unit, jobs);
        for (&(i, _), buf) in unit.iter().zip(scan.found) {
            found[i] = buf;
        }
        if let Some(p) = profile.as_deref_mut() {
            let fd = first.embedded_fd();
            let members = index_runs(ids);
            let name = format!("pass#{k} {} cfds=[{members}]", fd.display(table.schema()));
            p.meta_add("pattern_rows_checked", scan.pattern_rows_checked);
            let row = p.entry(&name, "pass");
            row.groups_probed += scan.groups as u64;
            row.shard_us.extend(scan.shard_us);
            let us = start.elapsed().as_micros() as u64;
            row.wall_us += us;
            revival_obs::trace::record_at(&name, start, us);
        }
    }
    let mut report = ViolationReport { violations: found.into_iter().flatten().collect() };
    crate::cind::detect_cinds(job, jobs, profile, &mut report.violations)?;
    Ok(report)
}

/// Plan a suite into units: the suite indices of the CFDs sharing one
/// embedded FD `(relation, lhs, rhs)`, units and members in first-seen
/// order (pass numbering and the report depend on it), each unit found
/// by hashing its embedded FD.
pub(crate) fn plan_units(cfds: &[Cfd]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut unit_of: HashMap<(&str, &[AttrId], AttrId), usize> = HashMap::new();
    for (i, cfd) in cfds.iter().enumerate() {
        let at = *unit_of.entry((&cfd.relation, &cfd.lhs, cfd.rhs)).or_insert_with(|| {
            units.push(Vec::new());
            units.len() - 1
        });
        units[at].push(i);
    }
    units
}

/// Suite indices as a pass name lists them: runs of three or more
/// consecutive indices fold to `a-b`, shorter ones stay spelled out —
/// a mined suite puts hundreds of consecutive CFDs in one pass.
fn index_runs(ids: &[usize]) -> String {
    let parts: Vec<String> = ids
        .chunk_by(|a, b| *b == a + 1)
        .flat_map(|run| match run {
            [a, _, .., b] => vec![format!("{a}-{b}")],
            _ => run.iter().map(usize::to_string).collect(),
        })
        .collect();
    parts.join(",")
}

/// What one pass over an embedded FD produced.
pub(crate) struct UnitScan {
    /// Per-member violations, aligned with the unit's member list.
    pub found: Vec<Vec<Violation>>,
    /// LHS groups the variable pass built (0 without variable rows).
    pub groups: usize,
    /// Work the constant join did: bucket probes + RHS predicates
    /// evaluated + residual rows tested, over all chunks — a count of
    /// the tuples and the index only, so identical at any `jobs`.
    pub pattern_rows_checked: u64,
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
    // The constant rows compile to one join index per unit, shared
    // read-only across workers; the probe touches only the unit's columns.
    let index = ConstIndex::compile(members.iter().map(|(_, cfd)| *cfd), table.pool());
    let fd_attrs = (fd.lhs.as_slice(), fd.rhs);
    let any_var = members.iter().any(|(_, cfd)| cfd.variable_rows().next().is_some());

    let mut chunks = map_chunks(slots, jobs, |chunk| {
        let mut found: Vec<Vec<Violation>> = vec![Vec::new(); members.len()];
        let mut checked = 0u64;
        if !index.is_empty() {
            // Per tuple: the lowest violated tableau row of each member
            // (`NONE` = none yet) and the members that have one.
            let mut first = vec![NONE; members.len()];
            let mut touched: Vec<usize> = Vec::new();
            for &slot in chunk {
                checked += index.probe(table, fd_attrs, slot, &mut first, &mut touched);
                while let Some(m) = touched.pop() {
                    let (cfd, row, tuple) = (members[m].0, first[m], TupleId(slot as u64));
                    found[m].push(Violation::CfdConstant { cfd, row, tuple });
                    first[m] = NONE;
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
        (found, groups, checked)
    })
    .into_iter();

    // Folding in chunk order keeps each group's member list in global
    // row order and its distinct-RHS list in first-seen order — the
    // state a sequential scan builds. One chunk has nothing to fold.
    let ((mut found, mut groups, mut pattern_rows_checked), us) =
        chunks.next().expect("map_chunks yields a chunk");
    let mut shard_us = vec![us];
    for ((more, partial, checked), us) in chunks {
        shard_us.push(us);
        pattern_rows_checked += checked;
        for (buf, vs) in found.iter_mut().zip(more) {
            buf.extend(vs);
        }
        merge_groups(&mut groups, partial);
    }
    if revival_obs::enabled() {
        let reg = revival_obs::global();
        reg.counter("detect_pattern_rows_checked_total").add(pattern_rows_checked);
        if any_var {
            reg.counter("detect_groups_probed_total").add(groups.len() as u64);
        }
    }
    if any_var {
        // A group violates with ≥ 2 distinct RHS values.
        let violating =
            in_key_order(groups.iter().filter(|(_, g)| g.rhs_syms.len() >= 2), table.pool());
        for ((idx, cfd), buf) in members.iter().zip(&mut found) {
            emit_variable_violations(*idx, cfd, &violating, buf);
        }
    }
    UnitScan { found, groups: groups.len(), pattern_rows_checked, shard_us }
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

/// "No violated row yet" in the per-tuple scratch of [`ConstIndex::probe`].
pub(crate) const NONE: usize = usize::MAX;

/// One constant tableau row as the join finds it: whose row it is and
/// the RHS predicate a tuple matching its LHS must pass (see
/// [`revival_constraints::PatternValue::resolve`]).
struct Hit {
    member: usize,
    tp_idx: usize,
    rhs: SymPred,
}

/// The constant rows sharing one wildcard mask.
struct MaskBucket {
    /// The attributes at the LHS positions holding a constant — a
    /// tuple's key, hashed and compared in place off the table's
    /// columns at probe time; none for the all-`_` mask, whose one key
    /// is empty.
    attrs: Vec<AttrId>,
    /// Per distinct key of constants, the rows carrying it.
    rows: GroupBy<Box<[Sym]>, Vec<Hit>>,
}

/// The build side of a unit's constant join: every member's constant
/// rows, compiled against one table's pool (columns are read at probe
/// time, so it borrows nothing).
#[derive(Default)]
pub(crate) struct ConstIndex {
    buckets: Vec<MaskBucket>,
    /// Rows with an eCFD LHS predicate (`Ne`, `In`), which no single
    /// key stands for: their compiled LHS, tested per tuple.
    residual: Vec<(Vec<SymPred>, Hit)>,
}

impl ConstIndex {
    /// Compile the constant rows of one unit's `members` against `pool`.
    pub(crate) fn compile<'c>(
        members: impl IntoIterator<Item = &'c Cfd>,
        pool: &ValuePool,
    ) -> ConstIndex {
        let mut index = ConstIndex::default();
        for (member, cfd) in members.into_iter().enumerate() {
            for (tp_idx, tp) in
                cfd.tableau.iter().enumerate().filter(|(_, tp)| tp.is_constant_row())
            {
                let lhs: Vec<SymPred> = tp.lhs.iter().map(|p| p.resolve(pool)).collect();
                // A constant the pool never interned matches no tuple.
                if lhs.contains(&SymPred::Never) {
                    continue;
                }
                let hit = Hit { member, tp_idx, rhs: tp.rhs.resolve(pool) };
                let attrs: Vec<AttrId> =
                    (0..lhs.len()).filter(|&i| !lhs[i].is_always()).map(|i| cfd.lhs[i]).collect();
                let key: Box<[Sym]> = lhs
                    .iter()
                    .filter_map(|p| if let SymPred::Eq(s) = p { Some(*s) } else { None })
                    .collect();
                if key.len() < attrs.len() {
                    index.residual.push((lhs, hit));
                    continue;
                }
                let at = index.buckets.iter().position(|b| b.attrs == attrs).unwrap_or_else(|| {
                    index.buckets.push(MaskBucket { attrs, rows: GroupBy::new() });
                    index.buckets.len() - 1
                });
                let rows = &mut index.buckets[at].rows;
                let hash = hash_syms(key.iter().copied());
                let entry = rows
                    .probe(hash, |k| *k == key)
                    .unwrap_or_else(|| rows.insert_unique(hash, key, Vec::new()));
                rows.value_at_mut(entry).push(hit);
            }
        }
        index
    }

    /// No constant row survived compilation: nothing to probe.
    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.residual.is_empty()
    }

    /// Join the tuple at `slot` of `table` against the index (`lhs` and
    /// `rhs` are the unit's embedded FD): every row it violates (LHS
    /// matches, its RHS cell fails the row's RHS predicate) lowers
    /// `first[member]` to its tableau index, and a member's first
    /// violation enters it in `touched` — so `first` ends at each
    /// member's first violating row in tableau order, what a sweep of
    /// the tableau reports. Returns the pattern rows checked: one per
    /// bucket probed, per RHS predicate evaluated under a found key, and
    /// per residual row tested.
    #[inline]
    pub(crate) fn probe(
        &self,
        table: &Table,
        (lhs, rhs): (&[AttrId], AttrId),
        slot: usize,
        first: &mut [usize],
        touched: &mut Vec<usize>,
    ) -> u64 {
        let mut violated = |hit: &Hit| {
            if !hit.rhs.matches(table.col(rhs)[slot]) {
                if first[hit.member] == NONE {
                    touched.push(hit.member);
                }
                first[hit.member] = first[hit.member].min(hit.tp_idx);
            }
        };
        let mut checked = (self.buckets.len() + self.residual.len()) as u64;
        for MaskBucket { attrs, rows } in &self.buckets {
            let found =
                rows.get(hash_at(table, attrs, slot), |k| matches_at(table, attrs, slot, k));
            if let Some(hits) = found {
                checked += hits.len() as u64;
                hits.iter().for_each(&mut violated);
            }
        }
        for (preds, hit) in &self.residual {
            if preds.iter().zip(lhs).all(|(p, &a)| p.matches(table.col(a)[slot])) {
                violated(hit);
            }
        }
        checked
    }
}

/// The hash of the tuple at `slot` projected onto `attrs`, read off the
/// table's columns in place — [`ColProj::hash_at`] without the borrow.
#[inline]
pub(crate) fn hash_at(table: &Table, attrs: &[AttrId], slot: usize) -> u64 {
    hash_syms(attrs.iter().map(|&a| table.col(a)[slot]))
}

/// Does a stored key equal the tuple at `slot` projected onto `attrs`?
#[inline]
pub(crate) fn matches_at(table: &Table, attrs: &[AttrId], slot: usize, key: &[Sym]) -> bool {
    key.len() == attrs.len() && attrs.iter().zip(key).all(|(&a, k)| table.col(a)[slot] == *k)
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

/// `groups` (the violating ones of a unit) in sorted-key order
/// (deterministic reports). Keys leave symbol space here: per violating
/// group — not per tuple, and filtered first so only violating groups
/// pay the key clone + sort — the key maps back to values for pattern
/// matching and the report.
pub(crate) fn in_key_order<'g, G>(
    groups: impl Iterator<Item = (&'g Box<[Sym]>, &'g G)>,
    pool: &ValuePool,
) -> Vec<(Vec<Value>, &'g G)> {
    let mut keyed: Vec<(Vec<Value>, &G)> =
        groups.map(|(k, g)| (k.iter().map(|&s| pool.value(s).clone()).collect(), g)).collect();
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

/// Human-readable listing of a report against its suite, capped at `max`
/// violation lines: each CFD violation described against the schema in
/// `schemas` its relation names, each CIND violation by its two
/// relations.
pub fn describe_report(
    report: &ViolationReport,
    cfds: &[Cfd],
    cinds: &[Cind],
    schemas: &[&revival_relation::Schema],
    max: usize,
) -> String {
    let mut out = format!(
        "{} violation(s); {} tuple(s) involved\n",
        report.len(),
        report.violating_tuples().len()
    );
    for v in report.violations.iter().take(max) {
        let line = match v {
            Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } => {
                match schemas.iter().find(|s| s.name() == cfds[*cfd].relation) {
                    Some(schema) => describe_violation(v, cfds, schema),
                    None => format!("{v:?}"),
                }
            }
            Violation::CindMissingWitness { cind, tuple } => {
                let c = &cinds[*cind];
                format!(
                    "tuple {tuple} of {} has no witness in {} (cind#{cind})",
                    c.from_relation, c.to_relation
                )
            }
        };
        out.push_str("  ");
        out.push_str(&line);
        out.push('\n');
    }
    if report.len() > max {
        out.push_str(&format!("  … and {} more\n", report.len() - max));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Detector, NativeEngine};
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

    fn detect(t: &Table, cfds: &[Cfd]) -> ViolationReport {
        NativeEngine.run(&DetectJob::on_table(t, cfds)).unwrap()
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
        let report = detect(&t, &cfds);
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
        let report = detect(&t, &cfds);
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
        assert_eq!(detect(&t, &fd_suite).violating_tuples().len(), 0);
        assert_eq!(detect(&t, &cfd_suite).violating_tuples().len(), 1);
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
        assert!(detect(&t, &cfds).is_empty());
    }

    #[test]
    fn describe_violation_is_readable() {
        let s = schema();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        let t = table(&[
            ["44", "131", "111", "Crichton", "edi", "EH8"],
            ["44", "131", "222", "Mayfield", "edi", "EH8"],
        ]);
        let report = detect(&t, &cfds);
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
    fn pass_names_fold_runs_of_three_or_more() {
        assert_eq!(index_runs(&[]), "");
        assert_eq!(index_runs(&[0]), "0");
        assert_eq!(index_runs(&[6, 7]), "6,7");
        assert_eq!(index_runs(&[2, 3, 4]), "2-4");
        assert_eq!(index_runs(&[0, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15]), "0,2,3,5-8,10,11,13-15");
        assert_eq!(index_runs(&(826..=1267).collect::<Vec<_>>()), "826-1267");
        // Planned order is suite order, but nothing here assumes it.
        assert_eq!(index_runs(&[3, 2, 1, 5, 6, 7]), "3,2,1,5-7");
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
        let report = detect(&t, &merged);
        assert_eq!(report.len(), 1);
    }
}
