//! Native CFD detection — the one scan kernel.
//!
//! A suite is planned into *scan units*: the CFDs sharing one embedded
//! FD `(relation, lhs, rhs)`, in first-seen order. Each unit reads its
//! relation once (`scan_unit`), whatever the number of members.
//!
//! **Grouping** is done once per **attribute set**, not once per unit,
//! and hashes no row. Every set a unit names — its LHS, or the `= c`
//! positions (the *wildcard mask*) of a constant row — is a
//! [`revival_relation::partition::Partition`] of the relation's live
//! tuples: its classes, each a slice of ascending slots, in first-seen
//! order. A relation's [`ItemIndex`] numbers each named attribute's
//! values (its items) and lists the slots carrying each, so a
//! single-attribute set's partition *is* its item lists, and a larger
//! set's is one TANE product from its longest planned prefix already
//! built (else from its first attribute's item lists): each class of the
//! prefix is split by the item its members carry under the next
//! attribute. `scan_suite` builds a set's partition the first time a
//! unit needs it and drops it after the last unit naming it
//! (`Partitions::plan`); an attribute's items go with the last set
//! holding it. So a mined suite of 95 embedded FDs over 24 attribute
//! sets groups its relation 24 times, and never hashes a tuple.
//!
//! A pass then walks **classes**, not rows:
//!
//! * **constant rows** — a join of the tuples against the tableau, as
//!   the paper detects (its SQL encoding stores the tableau as a
//!   relation and joins the data to it on the LHS, so cost follows the
//!   data's LHS groups). The members' constant rows compile once per
//!   unit into a `ConstIndex`: one bucket per wildcard mask, keyed by the
//!   constants at those positions, flat — its distinct keys back to back
//!   in one arena, its rows in one array ordered by key id (a counting
//!   sort) — so compiling allocates a handful per mask. Each distinct key
//!   maps to its class of the mask's partition by item id: its constants
//!   name one item per attribute, a single item *is* a class, and a
//!   larger key descends the product steps that built the partition —
//!   per attribute, a search among one class's sub-classes by item
//!   ([`Partition::class_of_items`]). A key no live tuple holds, or
//!   naming a constant the table never interned, matches no class and
//!   drops out. The walk then reads each matched class once: if its RHS
//!   is one symbol (its `g3` error under the RHS, [`class_error`] keyed
//!   by symbol, is 0), each row under its key is tested once, and a
//!   class every row accepts is skipped whole; a class holding several
//!   RHS symbols tests its members one by one. Rows with an eCFD LHS
//!   pattern (`≠ c`, `∈ {…}`) name no single key and stay on a short
//!   residual list swept per tuple. Each member keeps, per tuple, its
//!   lowest violated tableau row — the first violating row in tableau
//!   order, what a sweep reports — and reports in row order. The same
//!   compiled index serves the life of a table in [`crate::incremental`],
//!   which probes it one tuple at a time (`ConstIndex::probe`);
//! * **variable rows** — a class of the LHS partition violates a
//!   member's row iff its key matches the row's LHS patterns and it
//!   holds two or more RHS values (error > 0); its members are the
//!   class's own slice, already in row order.
//!
//! With `jobs` shards, a pass's class walks (and its residual sweep)
//! split into `jobs` contiguous shares on scoped threads
//! (`revival_relation::map_chunks`) and merge in share order; the
//! findings are sorted per member by tuple, so the report is the same at
//! any shard count. Every member then reports on its own — constants in
//! row order, variables in key order — and `scan_suite` concatenates the
//! members in suite order: cost follows the number of embedded FDs and
//! attribute sets, and the report does not depend on how the suite splits
//! its pattern rows.
//!
//! Tuples are read as interned symbols, and nothing is cloned per tuple.
//! Values reappear only at emission, where the keys of violating classes
//! map back through the table's [`revival_relation::ValuePool`] for
//! pattern matching and reporting. A profiled scan times its phases —
//! `plan`, `group`, `compile`, `join`, `scan`, `emit` — for `--explain`.

use crate::engine::DetectJob;
use crate::report::{Listing, Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::parser::write_cfd_row;
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::{Cind, SymPred};
use revival_relation::groupby::{hash_at, hash_syms, matches_at};
use revival_relation::partition::{class_error, ItemIndex, ItemScratch, Partition};
use revival_relation::{map_chunks, AttrId, GroupBy, Result, Sym, Table, TupleId, ValuePool};
use std::collections::HashMap;
use std::fmt::Write;
use std::time::Instant;

/// A scan's phases, in the order a profile lists them: validating and
/// planning the suite, grouping (item indexes and partitions), compiling
/// constant rows, mapping their keys to classes, walking classes, and
/// building the report.
const PHASES: [&str; 6] = ["plan", "group", "compile", "join", "scan", "emit"];
const PLAN: usize = 0;
const GROUP: usize = 1;
const COMPILE: usize = 2;
const JOIN: usize = 3;
const SCAN: usize = 4;
const EMIT: usize = 5;

/// A lap timer over [`PHASES`], in nanoseconds.
struct Laps {
    at: Instant,
    ns: [u64; PHASES.len()],
}

impl Laps {
    fn start() -> Self {
        Laps { at: Instant::now(), ns: [0; PHASES.len()] }
    }

    /// Charge the time since the last lap to `phase`.
    fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        self.ns[phase] += (now - self.at).as_nanos() as u64;
        self.at = now;
    }
}

/// The kernel's entry point: every CFD and CIND of `job`, one pass per
/// embedded FD over `jobs` shards, violations reported per original
/// constraint in suite order (CFDs, then CINDs). With a profile, each
/// pass's wall time, group count and shard times land on one `pass`
/// row (and a trace span when tracing is on), and the scan's phase
/// times on the profile's `phases`.
pub(crate) fn scan_suite(
    job: &DetectJob<'_>,
    jobs: usize,
    mut profile: Option<&mut revival_obs::JobProfile>,
) -> Result<ViolationReport> {
    let mut laps = Laps::start();
    // Malformed patterns must error here, not panic in a worker.
    job.validate()?;
    let units = plan_units(job.cfds);
    let mut parts = Partitions::plan(job.cfds, &units);
    laps.lap(PLAN);
    let mut phase_ns = laps.ns;
    if let Some(p) = profile.as_deref_mut() {
        p.entry("plan (validate, group by embedded FD)", "plan").wall_us += phase_ns[PLAN] / 1000;
    }
    let mut found: Vec<Vec<Violation>> = vec![Vec::new(); job.cfds.len()];
    for (k, ids) in units.iter().enumerate() {
        let unit: Vec<(usize, &Cfd)> = ids.iter().map(|&i| (i, &job.cfds[i])).collect();
        let (_, first) = unit[0];
        let table = job.table(&first.relation)?;
        // Timed from here to the end of the body: a relation's first
        // pass pays for enumerating it, a set's first pass for grouping
        // it, every pass for handing its findings over and (profiled)
        // for naming its own row.
        let start = Instant::now();
        let scan = scan_unit(table, &unit, jobs, &mut parts);
        parts.release(k);
        for (&(i, _), buf) in unit.iter().zip(scan.found) {
            found[i] = buf;
        }
        for (sum, ns) in phase_ns.iter_mut().zip(scan.phase_ns) {
            *sum += ns;
        }
        if let Some(p) = profile.as_deref_mut() {
            let fd = first.embedded_fd();
            let members = index_runs(ids);
            let name = format!("pass#{k} {} cfds=[{members}]", fd.display(table.schema()));
            p.meta_add("pattern_rows_checked", scan.pattern_rows_checked);
            p.meta_add("partitions", scan.partitions);
            p.meta_add("rows_grouped", scan.rows_grouped);
            p.meta_add("rows_hashed", scan.rows_hashed);
            let row = p.entry(&name, "pass");
            row.groups_probed += scan.groups as u64;
            row.shard_us.extend(scan.shard_us);
            let us = start.elapsed().as_micros() as u64;
            row.wall_us += us;
            revival_obs::trace::record_at(&name, start, us);
        }
    }
    let emit = Instant::now();
    // One allocation for the report: grown by doubling instead, it
    // cannot reuse the holes freed partitions leave between the members'
    // buffers and extends the heap, which stays resident.
    let mut violations = Vec::with_capacity(found.iter().map(Vec::len).sum());
    found.into_iter().for_each(|buf| violations.extend(buf));
    let mut report = ViolationReport { violations };
    phase_ns[EMIT] += emit.elapsed().as_nanos() as u64;
    if let Some(p) = profile.as_deref_mut() {
        for (phase, ns) in PHASES.into_iter().zip(phase_ns) {
            p.phase_add(phase, ns / 1000);
        }
    }
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

/// `attrs` as a set: sorted, each attribute once — what a partition is
/// keyed by, so `[a, b]` and `[b, a]` share one.
fn attr_set(attrs: impl IntoIterator<Item = AttrId>) -> Vec<AttrId> {
    let mut set: Vec<AttrId> = attrs.into_iter().collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// A planned set's partition while it is built.
enum Built {
    /// A single attribute's: its item index's own `π_A`.
    Attr,
    /// The empty set's, or a product's.
    Owned(Partition),
}

/// `start` (the partition of some prefix of a sorted attribute set)
/// times each of `attrs`, the rest of the set: one TANE product per
/// attribute, at `start`'s floor (1 here: every class kept).
fn extend_partition(
    index: &ItemIndex<'_>,
    start: &Partition,
    attrs: &[AttrId],
    scratch: &mut ItemScratch,
) -> Partition {
    let mut part: Option<Partition> = None;
    for &a in attrs {
        let from = part.as_ref().unwrap_or(start);
        part = Some(from.refine(index, a, scratch));
    }
    part.expect("a product extends the prefix by one attribute or more")
}

/// The partitions of one suite's scan, each planned from the suite's
/// syntax: built by the first unit that needs it, dropped after the
/// last unit that names its attribute set; and the item indexes they
/// read, an attribute's items dropped after the last unit reading them.
pub(crate) struct Partitions<'s, 't> {
    /// Per `(relation, attribute set)`: the last unit naming it, and the
    /// partition while one is built.
    sets: Vec<(&'s str, Vec<AttrId>, usize, Option<Built>)>,
    /// Per `(relation, attribute)` a planned set holds: the last unit
    /// reading its items.
    attrs: Vec<(&'s str, AttrId, usize)>,
    /// Per relation with items still to read: its item index.
    indexes: Vec<(&'s str, ItemIndex<'t>)>,
    /// The products' per-item counters.
    scratch: ItemScratch,
}

impl<'s, 't> Partitions<'s, 't> {
    /// The attribute sets each unit names ([`keyed_positions`]), and the
    /// attributes they read.
    pub(crate) fn plan(cfds: &'s [Cfd], units: &[Vec<usize>]) -> Self {
        let mut parts = Partitions {
            sets: Vec::new(),
            attrs: Vec::new(),
            indexes: Vec::new(),
            scratch: ItemScratch::default(),
        };
        let (mut scratch, mut named) = (Vec::new(), Vec::<Vec<AttrId>>::new());
        for (k, ids) in units.iter().enumerate() {
            let fd = &cfds[ids[0]];
            named.clear();
            for tp in ids.iter().flat_map(|&i| &cfds[i].tableau) {
                let Some(keyed) = keyed_positions(tp) else { continue };
                scratch.clear();
                scratch.extend(keyed.zip(&fd.lhs).filter(|&(keyed, _)| keyed).map(|(_, &a)| a));
                scratch.sort_unstable();
                scratch.dedup();
                if !named.contains(&scratch) {
                    named.push(scratch.clone());
                }
            }
            for &attr in named.iter().flatten() {
                match parts.attrs.iter_mut().find(|a| a.0 == fd.relation && a.1 == attr) {
                    Some(planned) => planned.2 = k,
                    None => parts.attrs.push((&fd.relation, attr, k)),
                }
            }
            for set in named.drain(..) {
                match parts.sets.iter_mut().find(|s| s.0 == fd.relation && s.1 == set) {
                    Some(planned) => planned.2 = k,
                    None => parts.sets.push((&fd.relation, set, k, None)),
                }
            }
        }
        parts
    }

    /// Where `relation`'s item index sits, made (its live slots
    /// enumerated, no attribute indexed) on first use.
    fn index_at(&mut self, relation: &'s str, table: &'t Table) -> usize {
        self.indexes.iter().position(|(r, _)| *r == relation).unwrap_or_else(|| {
            self.indexes.push((relation, ItemIndex::new(table)));
            self.indexes.len() - 1
        })
    }

    /// `relation`'s item index.
    fn index(&self, relation: &str) -> &ItemIndex<'t> {
        let found = self.indexes.iter().find(|(r, _)| *r == relation);
        &found.expect("the relation is indexed").1
    }

    /// Build the partition of `relation` (`table`) by `set`, a planned
    /// set, unless it is built; whether it built one.
    fn ensure(&mut self, (table, relation): (&'t Table, &'s str), set: &[AttrId]) -> bool {
        let planned = self.sets.iter().position(|s| s.0 == relation && s.1 == set);
        let planned = planned.expect("a unit's attribute sets are planned");
        if self.sets[planned].3.is_some() {
            return false;
        }
        let indexed = self.index_at(relation, table);
        let Partitions { sets, indexes, scratch, .. } = self;
        for &a in set {
            indexes[indexed].1.index_attr(a);
        }
        let index = &indexes[indexed].1;
        let built = match set {
            [] => Built::Owned(Partition::whole(index.live())),
            [_] => Built::Attr,
            _ => {
                // The longest planned prefix already built, else the
                // first attribute's item lists.
                let prefix = (2..set.len()).rev().find_map(|len| {
                    sets.iter().find_map(|s| match &s.3 {
                        Some(Built::Owned(p)) if s.0 == relation && s.1 == set[..len] => {
                            Some((p, len))
                        }
                        _ => None,
                    })
                });
                let (start, len) = prefix.unwrap_or((index.partition(set[0]), 1));
                Built::Owned(extend_partition(index, start, &set[len..], scratch))
            }
        };
        sets[planned].3 = Some(built);
        true
    }

    /// The built partition of `relation` by `set`.
    fn get(&self, relation: &str, set: &[AttrId]) -> &Partition {
        let planned = self.sets.iter().find(|s| s.0 == relation && s.1 == set);
        match planned.and_then(|s| s.3.as_ref()).expect("an ensured partition") {
            Built::Attr => self.index(relation).partition(set[0]),
            Built::Owned(part) => part,
        }
    }

    /// Drop the partitions unit `k` was the last to name, and the items
    /// it was the last to read.
    pub(crate) fn release(&mut self, k: usize) {
        for set in self.sets.iter_mut().filter(|s| s.2 == k) {
            set.3 = None;
        }
        for &(relation, attr, _) in self.attrs.iter().filter(|a| a.2 == k) {
            if let Some((_, index)) = self.indexes.iter_mut().find(|(r, _)| *r == relation) {
                index.release_attr(attr);
            }
        }
        let attrs = &self.attrs;
        self.indexes.retain(|(relation, _)| attrs.iter().any(|a| a.0 == *relation && a.2 > k));
    }
}

/// The LHS positions whose attributes a partition for `tp` groups by:
/// all of them for a variable row, the `= c` ones for a constant row —
/// the wildcard mask it compiles to (`≠ c` compiles to `_` or sends the
/// row to the residual list). `None` when an `∈ {…}` pattern sends a
/// constant row to the residual list.
fn keyed_positions(tp: &PatternRow) -> Option<impl Iterator<Item = bool> + '_> {
    let constant = tp.is_constant_row();
    let residual = constant && tp.lhs.iter().any(|p| matches!(p, PatternValue::OneOf(_)));
    (!residual)
        .then(|| tp.lhs.iter().map(move |p| !constant || matches!(p, PatternValue::Const(_))))
}

/// What one pass over an embedded FD produced.
pub(crate) struct UnitScan {
    /// Per-member violations, aligned with the unit's member list.
    pub found: Vec<Vec<Violation>>,
    /// LHS classes the variable pass read (0 without variable rows).
    pub groups: usize,
    /// The size of the constant join: per live tuple, one lookup per
    /// mask and per residual row, plus the rows under its key — a count
    /// of the tuples and the index only, so identical at any `jobs`. The
    /// class walk reaches the same rows per class (`|class| × |rows
    /// under its key|`) and tests a class whose RHS is one value once
    /// per row, not once per member.
    pub pattern_rows_checked: u64,
    /// Partitions this pass built (the rest it read were built before).
    pub partitions: u64,
    /// Live tuples those partitions grouped: one per tuple per partition.
    pub rows_grouped: u64,
    /// Live tuples whose projection the pass hashed to group them: none,
    /// partitions are read off item ids.
    pub rows_hashed: u64,
    /// Worker wall-µs per share of the class walks, in share order.
    pub shard_us: Vec<u64>,
    /// Nanoseconds per [`PHASES`] entry (`plan` is the suite's).
    phase_ns: [u64; PHASES.len()],
}

/// One constant finding of a class walk: `(member, slot, tableau row)`.
type Finding = (u32, u32, u32);

/// Scan one unit — `members` are `(suite index, CFD)` pairs sharing one
/// embedded FD over `table` — reading (and first building) the
/// partitions it needs from `parts`, its class walks split across
/// `jobs` shares. Shares merge in order, and per-member constant
/// findings are sorted by tuple.
pub(crate) fn scan_unit<'s, 't>(
    table: &'t Table,
    members: &[(usize, &'s Cfd)],
    jobs: usize,
    parts: &mut Partitions<'s, 't>,
) -> UnitScan {
    let mut laps = Laps::start();
    let (_, fd) = members[0];
    let rhs_col = table.col(fd.rhs);
    // The constant rows compile to one join index per unit, shared
    // read-only across workers.
    let index = ConstIndex::compile(members.iter().map(|(_, cfd)| *cfd), table.pool());
    let any_var = members.iter().any(|(_, cfd)| cfd.variable_rows().next().is_some());
    let masks: Vec<Vec<AttrId>> =
        index.buckets.iter().map(|b| attr_set(b.attrs.iter().copied())).collect();
    let lhs_set = any_var.then(|| attr_set(fd.lhs.iter().copied()));
    laps.lap(COMPILE);

    let at = (table, fd.relation.as_str());
    // Shorter sets first: a longer one may start from a prefix this
    // pass builds.
    let mut sets: Vec<&[AttrId]> = masks.iter().chain(&lhs_set).map(Vec::as_slice).collect();
    sets.sort_by_key(|set| set.len());
    let mut partitions = 0;
    for set in sets {
        partitions += u64::from(parts.ensure(at, set));
    }
    let indexed = parts.index_at(at.1, table);
    let live_n = parts.indexes[indexed].1.live().len() as u64;
    let rows_grouped = partitions * live_n;
    laps.lap(GROUP);

    let parts = &*parts;
    let items = parts.index(at.1);
    let mask_parts: Vec<&Partition> = masks.iter().map(|set| parts.get(at.1, set)).collect();
    let mut pattern_rows_checked = live_n * (index.buckets.len() + index.residual.len()) as u64;
    // Per key under a live tuple: its bucket, key and class.
    let mut joined: Vec<(u32, u32, u32)> = Vec::new();
    let mut key_items: Vec<u32> = Vec::new();
    for (b, ((bucket, set), part)) in index.buckets.iter().zip(&masks).zip(&mask_parts).enumerate()
    {
        for k in 0..bucket.ids.len() {
            if let Some(c) = bucket.class_of_key(k, items, set, part, &mut key_items) {
                pattern_rows_checked += (part.class(c).len() * bucket.hits(k).len()) as u64;
                joined.push((b as u32, k as u32, c as u32));
            }
        }
    }
    let lhs = lhs_set.map(|set| parts.get(at.1, &set));
    laps.lap(JOIN);

    let shares: Vec<usize> = (0..jobs.max(1)).collect();
    let share = |len: usize, s: usize| len * s / shares.len()..len * (s + 1) / shares.len();
    let walked = map_chunks(&shares, jobs, |mine| {
        // A class's error under the RHS, keyed by symbol.
        let mut scratch = ItemScratch::for_keys(table.pool().len());
        let rhs_key = |slot: u32| rhs_col[slot as usize].raw();
        let (mut found, mut split): (Vec<Finding>, Vec<u32>) = (Vec::new(), Vec::new());
        let mut violated = |hit: &Hit, slot: u32| {
            found.push((hit.member as u32, slot, hit.tp_idx as u32));
        };
        for &s in mine {
            for &(b, k, c) in &joined[share(joined.len(), s)] {
                let class = mask_parts[b as usize].class(c as usize);
                let hits = index.buckets[b as usize].hits(k as usize);
                if class_error(class, rhs_key, &mut scratch) == 0 {
                    // One RHS value: each row is tested once for the class.
                    let rhs = rhs_col[class[0] as usize];
                    for hit in hits.iter().filter(|hit| !hit.rhs.matches(rhs)) {
                        class.iter().for_each(|&slot| violated(hit, slot));
                    }
                } else {
                    for &slot in class {
                        let rhs = rhs_col[slot as usize];
                        hits.iter().filter(|hit| !hit.rhs.matches(rhs)).for_each(|hit| {
                            violated(hit, slot);
                        });
                    }
                }
            }
            for &slot in &items.live()[share(items.live().len(), s)] {
                for (preds, hit) in &index.residual {
                    let cell = |a: AttrId| table.col(a)[slot as usize];
                    if preds.iter().zip(&fd.lhs).all(|(p, &a)| p.matches(cell(a)))
                        && !hit.rhs.matches(rhs_col[slot as usize])
                    {
                        violated(hit, slot);
                    }
                }
            }
            if let Some(part) = lhs {
                for c in share(part.len(), s) {
                    if class_error(part.class(c), rhs_key, &mut scratch) > 0 {
                        split.push(c as u32);
                    }
                }
            }
        }
        (found, split)
    });
    let mut shard_us = Vec::with_capacity(walked.len());
    let (mut constant, mut split): (Vec<Finding>, Vec<u32>) = (Vec::new(), Vec::new());
    for ((found, classes), us) in walked {
        constant.extend(found);
        split.extend(classes);
        shard_us.push(us);
    }
    laps.lap(SCAN);

    // Per member, by tuple, the lowest violated row first.
    constant.sort_unstable();
    constant.dedup_by_key(|&mut (member, slot, _)| (member, slot));
    let mut found: Vec<Vec<Violation>> = vec![Vec::new(); members.len()];
    for run in constant.chunk_by(|a, b| a.0 == b.0) {
        let m = run[0].0 as usize;
        found[m] = (run.iter())
            .map(|&(_, slot, row)| Violation::CfdConstant {
                cfd: members[m].0,
                row: row as usize,
                tuple: TupleId(u64::from(slot)),
            })
            .collect();
    }
    let groups = lhs.map_or(0, Partition::len);
    if revival_obs::enabled() {
        let reg = revival_obs::global();
        reg.counter("detect_pattern_rows_checked_total").add(pattern_rows_checked);
        reg.counter("detect_rows_grouped_total").add(rows_grouped);
        if any_var {
            reg.counter("detect_groups_probed_total").add(groups as u64);
        }
    }
    if let Some(part) = lhs {
        // A class violates with ≥ 2 distinct RHS values; its members
        // are its own slice, in row order.
        let violating = split.iter().map(|&c| {
            let slots = part.class(c as usize);
            let first = slots[0] as usize;
            (fd.lhs.iter().map(move |&a| table.col(a)[first]), slots)
        });
        let violating = in_key_order(violating, table.pool());
        for ((idx, cfd), buf) in members.iter().zip(&mut found) {
            emit_variable_violations(*idx, cfd, &violating, table.pool(), buf, usize::MAX);
        }
    }
    laps.lap(EMIT);
    UnitScan {
        found,
        groups,
        pattern_rows_checked,
        partitions,
        rows_grouped,
        rows_hashed: 0,
        shard_us,
        phase_ns: laps.ns,
    }
}

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

/// The constant rows sharing one wildcard mask, flat: key `k` is the
/// `attrs.len()` symbols at `keys[k * attrs.len()..]`, and the rows
/// carrying it are `hits[starts[k]..starts[k + 1]]`, in member then
/// tableau order.
struct MaskBucket {
    /// The attributes at the LHS positions holding a constant, in LHS
    /// order — a tuple's key, read off the table's columns in place;
    /// none for the all-`_` mask, whose one key is empty.
    attrs: Vec<AttrId>,
    /// Every distinct key, back to back, in first-seen order.
    keys: Vec<Sym>,
    /// Key → its id, for the one-tuple probe: hashed as
    /// [`hash_syms`] over the key, compared against `keys`.
    ids: GroupBy<u32, ()>,
    starts: Vec<u32>,
    hits: Vec<Hit>,
}

impl MaskBucket {
    fn key(&self, k: usize) -> &[Sym] {
        let width = self.attrs.len();
        &self.keys[k * width..(k + 1) * width]
    }

    fn hits(&self, k: usize) -> &[Hit] {
        &self.hits[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// The rows under the key of the tuple at `slot` of `table`.
    #[inline]
    fn lookup(&self, table: &Table, slot: usize) -> &[Hit] {
        let same = |&k: &u32| matches_at(table, &self.attrs, slot, self.key(k as usize));
        match self.ids.probe(hash_at(table, &self.attrs, slot), same) {
            Some(k) => self.hits(k),
            None => &[],
        }
    }

    /// The class of `part` — the partition by `set`, this bucket's
    /// attributes as a set — whose tuples carry key `k`, found by item
    /// id: the key names one item per attribute of `set` (every position
    /// of an attribute the mask names twice must hold one symbol), and
    /// the partition finds its class from them
    /// ([`Partition::class_of_items`]). `None` when no live tuple carries
    /// the key.
    fn class_of_key(
        &self,
        k: usize,
        index: &ItemIndex<'_>,
        set: &[AttrId],
        part: &Partition,
        items: &mut Vec<u32>,
    ) -> Option<usize> {
        let key = self.key(k);
        items.clear();
        for &a in set {
            let mut syms = self.attrs.iter().zip(key).filter(|&(&b, _)| b == a).map(|(_, &s)| s);
            let sym = syms.next().expect("a set attribute is a mask attribute");
            if syms.any(|other| other != sym) {
                return None;
            }
            items.push(index.local_item(a, sym)?);
        }
        part.class_of_items(items)
    }
}

/// The build side of a unit's constant join: every member's constant
/// rows, compiled against one table's pool (columns are read when
/// joined, so it borrows nothing).
///
/// Layout: one `MaskBucket` per wildcard mask, each a key arena and
/// a hit array — a bucket's allocations are a fixed handful however
/// many keys and rows it holds. Compiling resolves every row once into
/// a staging list (its bucket, key symbols and hit), numbers each
/// bucket's distinct keys in first-seen order, and places the hits by a
/// counting sort on key id; every buffer is sized before it is filled.
#[derive(Default)]
pub struct ConstIndex {
    buckets: Vec<MaskBucket>,
    /// Rows with an eCFD LHS predicate (`Ne`, `In`), which no single
    /// key stands for: their compiled LHS, tested per tuple.
    residual: Vec<(Vec<SymPred>, Hit)>,
}

impl ConstIndex {
    /// Compile the constant rows of one unit's `members` (the CFDs
    /// sharing one embedded FD) against `pool`.
    pub fn compile<'c, I>(members: I, pool: &ValuePool) -> ConstIndex
    where
        I: IntoIterator<Item = &'c Cfd>,
        I::IntoIter: Clone,
    {
        let members = members.into_iter();
        let (mut rows, mut cells) = (0, 0);
        for cfd in members.clone() {
            let constant = cfd.constant_rows().count();
            rows += constant;
            cells += constant * cfd.lhs.len();
        }
        let mut index = ConstIndex::default();
        // Per keyed row: its bucket, its key id (numbered below) and its
        // hit, its key's symbols — its bucket's width of them — in
        // `keys`; per mask, its attributes and rows.
        let mut staged: Vec<(usize, u32, Hit)> = Vec::with_capacity(rows);
        let mut keys: Vec<Sym> = Vec::with_capacity(cells);
        let mut masks: Vec<(Vec<AttrId>, usize)> = Vec::new();
        let mut attrs = Vec::new();
        for (member, cfd) in members.enumerate() {
            'rows: for (tp_idx, tp) in
                cfd.tableau.iter().enumerate().filter(|(_, tp)| tp.is_constant_row())
            {
                let (key_at, mut keyed) = (keys.len(), true);
                attrs.clear();
                for (p, &a) in tp.lhs.iter().zip(&cfd.lhs) {
                    match p.resolve(pool) {
                        SymPred::Always => continue,
                        // A constant the pool never interned matches no tuple.
                        SymPred::Never => {
                            keys.truncate(key_at);
                            continue 'rows;
                        }
                        SymPred::Eq(s) => keys.push(s),
                        _ => keyed = false,
                    }
                    attrs.push(a);
                }
                let hit = Hit { member, tp_idx, rhs: tp.rhs.resolve(pool) };
                if !keyed {
                    keys.truncate(key_at);
                    let lhs = tp.lhs.iter().map(|p| p.resolve(pool)).collect();
                    index.residual.push((lhs, hit));
                    continue;
                }
                let b = masks.iter().position(|(mask, _)| *mask == attrs).unwrap_or_else(|| {
                    masks.push((attrs.clone(), 0));
                    masks.len() - 1
                });
                masks[b].1 += 1;
                staged.push((b, 0, hit));
            }
        }
        if staged.is_empty() {
            return index;
        }
        index.buckets = (masks.into_iter())
            .map(|(attrs, rows)| MaskBucket {
                keys: Vec::with_capacity(rows * attrs.len()),
                ids: GroupBy::with_capacity(rows),
                starts: Vec::new(),
                // Placeholders, each overwritten by the sort below.
                hits: (0..rows)
                    .map(|_| Hit { member: 0, tp_idx: 0, rhs: SymPred::Always })
                    .collect(),
                attrs,
            })
            .collect();
        // Number each bucket's distinct keys in first-seen order.
        let mut key_at = 0;
        for (b, id, _) in &mut staged {
            let bucket = &mut index.buckets[*b];
            let key = &keys[key_at..key_at + bucket.attrs.len()];
            key_at += key.len();
            let hash = hash_syms(key.iter().copied());
            let (known, width) = (&bucket.keys, key.len());
            let same = |&k: &u32| known[k as usize * width..(k as usize + 1) * width] == *key;
            *id = match bucket.ids.probe(hash, same) {
                Some(k) => k as u32,
                None => {
                    bucket.keys.extend_from_slice(key);
                    let next = bucket.ids.len() as u32;
                    bucket.ids.insert_unique(hash, next, ()) as u32
                }
            };
        }
        // Counting sort by key id: count, take prefix sums as write
        // cursors, place, and the advanced cursors shifted by one are
        // the starts.
        for bucket in &mut index.buckets {
            bucket.starts = vec![0; bucket.ids.len() + 1];
        }
        for &(b, k, _) in &staged {
            index.buckets[b].starts[k as usize + 1] += 1;
        }
        for bucket in &mut index.buckets {
            for k in 1..bucket.starts.len() {
                bucket.starts[k] += bucket.starts[k - 1];
            }
        }
        for (b, k, hit) in staged {
            let bucket = &mut index.buckets[b];
            let cursor = &mut bucket.starts[k as usize];
            bucket.hits[*cursor as usize] = hit;
            *cursor += 1;
        }
        for bucket in &mut index.buckets {
            bucket.starts.rotate_right(1);
            bucket.starts[0] = 0;
        }
        index
    }

    /// Wildcard masks the constant rows were bucketed by.
    pub fn masks(&self) -> usize {
        self.buckets.len()
    }

    /// Constant rows left to the per-tuple sweep (an eCFD LHS pattern).
    pub fn residual_rows(&self) -> usize {
        self.residual.len()
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
        for bucket in &self.buckets {
            let hits = bucket.lookup(table, slot);
            checked += hits.len() as u64;
            hits.iter().for_each(&mut violated);
        }
        for (preds, hit) in &self.residual {
            if preds.iter().zip(lhs).all(|(p, &a)| p.matches(table.col(a)[slot])) {
                violated(hit);
            }
        }
        checked
    }
}

/// A unit's violating LHS classes — each its key's symbols, in LHS
/// order, and its slots, ascending — in sorted-key order, keys compared
/// through the pool. Batch and maintained detection both report through
/// this and [`emit_variable_violations`].
pub(crate) fn in_key_order<'g, K: Clone + IntoIterator<Item = Sym>>(
    classes: impl Iterator<Item = (K, &'g [u32])>,
    pool: &ValuePool,
) -> Vec<(K, &'g [u32])> {
    let mut keyed: Vec<(K, &[u32])> = classes.collect();
    let values = |key: &K| key.clone().into_iter().map(|s| pool.value(s));
    keyed.sort_by(|a, b| values(&a.0).cmp(values(&b.0)));
    keyed
}

/// Push one member's variable violations onto `out` while it holds
/// fewer than `max`: every violating class whose key matches one of its
/// variable rows, in key order. A key maps back to values only in the
/// violations pushed.
pub(crate) fn emit_variable_violations<K: Clone + IntoIterator<Item = Sym>>(
    cfd_idx: usize,
    cfd: &Cfd,
    violating: &[(K, &[u32])],
    pool: &ValuePool,
    out: &mut Vec<Violation>,
    max: usize,
) {
    let var_rows: Vec<_> =
        cfd.tableau.iter().enumerate().filter(|(_, tp)| !tp.is_constant_row()).collect();
    if var_rows.is_empty() {
        return;
    }
    for (key, slots) in violating {
        for (row, tp) in &var_rows {
            if out.len() == max {
                return;
            }
            if tp.lhs.iter().zip(key.clone()).all(|(p, s)| p.matches(pool.value(s))) {
                out.push(Violation::CfdVariable {
                    cfd: cfd_idx,
                    row: *row,
                    key: key.clone().into_iter().map(|s| pool.value(s).clone()).collect(),
                    tuples: slots.iter().map(|&s| TupleId(u64::from(s))).collect(),
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
    let mut out = String::new();
    write_violation(&mut out, v, cfds, schema);
    out
}

/// [`describe_violation`]'s text, appended to `out`.
fn write_violation(
    out: &mut String,
    v: &Violation,
    cfds: &[Cfd],
    schema: &revival_relation::Schema,
) {
    let _ = match v {
        Violation::CfdConstant { cfd, row, tuple } => {
            let c = &cfds[*cfd];
            let tp = &c.tableau[*row];
            // One tableau row keeps the message one line even when the
            // CFD carries a multi-row (merged) tableau, and names
            // exactly the violated row.
            let _ = write!(out, "tuple {tuple} matches pattern {tp} of ");
            write_cfd_row(out, c, schema, *row);
            write!(out, " but {} fails the RHS pattern {}", schema.attr_name(c.rhs), tp.rhs)
        }
        Violation::CfdVariable { cfd, row, key, tuples } => {
            let c = &cfds[*cfd];
            let _ = write!(out, "{} tuples agree on (", tuples.len());
            for (i, (&a, v)) in c.lhs.iter().zip(key).enumerate() {
                let _ = write!(out, "{}{}={v}", if i > 0 { ", " } else { "" }, schema.attr_name(a));
            }
            let _ = write!(out, ") but disagree on {} (", schema.attr_name(c.rhs));
            write_cfd_row(out, c, schema, *row);
            out.write_char(')')
        }
        Violation::CindMissingWitness { cind, tuple } => {
            write!(out, "tuple {tuple} has no witness for cind#{cind}")
        }
    };
}

/// The one listing renderer: a header line counting the violations and
/// the (relation, tuple) pairs they implicate, a line per shown
/// violation — a CFD's described against the schema in `schemas` its
/// relation names, a CIND's by its two relations, each after its
/// `[relation]` when `tagged` (a catalog job's listing) — and how many
/// more there are. Every line is written straight into the one string.
pub fn describe_listing(
    listing: &Listing,
    cfds: &[Cfd],
    cinds: &[Cind],
    schemas: &[&revival_relation::Schema],
    tagged: bool,
) -> String {
    let mut out = format!("{} violation(s); {} tuple(s) involved\n", listing.total, listing.tuples);
    for v in &listing.shown {
        let relation = v.relation(cfds, cinds);
        out.push_str("  ");
        if tagged {
            let _ = write!(out, "[{relation}] ");
        }
        match v {
            Violation::CfdConstant { .. } | Violation::CfdVariable { .. } => {
                match schemas.iter().find(|s| s.name() == relation) {
                    Some(schema) => write_violation(&mut out, v, cfds, schema),
                    None => {
                        let _ = write!(out, "{v:?}");
                    }
                }
            }
            Violation::CindMissingWitness { cind, tuple } => {
                let _ = write!(out, "tuple {tuple}");
                if !tagged {
                    let _ = write!(out, " of {relation}");
                }
                let to = &cinds[*cind].to_relation;
                let _ = write!(out, " has no witness in {to} (cind#{cind})");
            }
        }
        out.push('\n');
    }
    if listing.total > listing.shown.len() {
        let _ = writeln!(out, "  … and {} more", listing.total - listing.shown.len());
    }
    out
}

/// The kernel this module replaced — per unit one `GroupBy` over the LHS
/// and one probe of a keyed constant index per tuple — kept as the
/// oracle the partitioned scan and the flat [`ConstIndex`] are held to
/// (`tests::partitioned_scan_agrees_with_the_per_unit_grouping`).
#[cfg(test)]
mod oracle {
    use super::*;
    use revival_relation::ColProj;

    /// The partition the scan built before item ids — a class id per
    /// live tuple, by hashing each tuple's projection — kept as the
    /// oracle of `tests::partitions_agree_with_the_hashed_build`.
    pub(super) struct Partition {
        /// Class id per live tuple, aligned with the scan's live slots.
        pub(super) class_of: Vec<u32>,
        /// Key → class: entry `c` is class `c`, keyed by its first slot
        /// (its key is read off the columns there), in first-seen order.
        classes: GroupBy<u32, ()>,
    }

    impl Partition {
        /// Group `slots` of `table` by `attrs` (a sorted set) across
        /// `jobs` chunks. Each chunk numbers its classes locally; the
        /// later chunks then fold into the first's ids in chunk order, so
        /// the classes and their order are those of one sequential scan.
        pub(super) fn build(table: &Table, attrs: &[AttrId], slots: &[usize], jobs: usize) -> Self {
            let cols = table.proj(attrs);
            let same = |a: usize, b: usize| {
                (0..cols.width()).all(|i| cols.sym_at(i, a) == cols.sym_at(i, b))
            };
            let chunks = map_chunks(slots, jobs, |chunk| {
                let mut classes: GroupBy<u32, ()> = GroupBy::new();
                let local: Vec<u32> = chunk
                    .iter()
                    .map(|&slot| {
                        let hash = cols.hash_at(slot);
                        let class = match classes.probe(hash, |&at| same(at as usize, slot)) {
                            Some(c) => c,
                            None => classes.insert_unique(hash, slot as u32, ()),
                        };
                        class as u32
                    })
                    .collect();
                (classes, local)
            });
            let mut chunks = chunks.into_iter().map(|(out, _)| out);
            let (classes, class_of) = chunks.next().expect("map_chunks yields a chunk");
            let mut part = Partition { class_of, classes };
            for (classes, local) in chunks {
                let global: Vec<u32> = classes
                    .into_entries()
                    .map(|(hash, at, ())| {
                        let found = part.classes.probe(hash, |&g| same(g as usize, at as usize));
                        found.unwrap_or_else(|| part.classes.insert_unique(hash, at, ())) as u32
                    })
                    .collect();
                part.class_of.extend(local.iter().map(|&c| global[c as usize]));
            }
            part
        }

        /// Number of classes.
        pub(super) fn len(&self) -> usize {
            self.classes.len()
        }
    }

    /// Per distinct key of constants (a boxed symbol list), its rows.
    type KeyedRows = GroupBy<Box<[Sym]>, Vec<Hit>>;

    /// The constant index as it stood before the flat layout: per mask,
    /// its attributes and its keyed rows.
    #[derive(Default)]
    pub(super) struct KeyedIndex {
        buckets: Vec<(Vec<AttrId>, KeyedRows)>,
        residual: Vec<(Vec<SymPred>, Hit)>,
    }

    impl KeyedIndex {
        pub(super) fn compile<'c>(
            members: impl IntoIterator<Item = &'c Cfd>,
            pool: &ValuePool,
        ) -> Self {
            let mut index = KeyedIndex::default();
            let (mut lhs, mut attrs, mut key) = (Vec::new(), Vec::new(), Vec::new());
            for (member, cfd) in members.into_iter().enumerate() {
                for (tp_idx, tp) in
                    cfd.tableau.iter().enumerate().filter(|(_, tp)| tp.is_constant_row())
                {
                    lhs.clear();
                    lhs.extend(tp.lhs.iter().map(|p| p.resolve(pool)));
                    if lhs.contains(&SymPred::Never) {
                        continue;
                    }
                    let hit = Hit { member, tp_idx, rhs: tp.rhs.resolve(pool) };
                    attrs.clear();
                    key.clear();
                    for (p, &a) in lhs.iter().zip(&cfd.lhs) {
                        if !p.is_always() {
                            attrs.push(a);
                        }
                        if let SymPred::Eq(s) = p {
                            key.push(*s);
                        }
                    }
                    if key.len() < attrs.len() {
                        index.residual.push((std::mem::take(&mut lhs), hit));
                        continue;
                    }
                    let at = index.buckets.iter().position(|b| b.0 == attrs).unwrap_or_else(|| {
                        index.buckets.push((attrs.clone(), GroupBy::new()));
                        index.buckets.len() - 1
                    });
                    let rows = &mut index.buckets[at].1;
                    let hash = hash_syms(key.iter().copied());
                    let make = || (key.as_slice().into(), Vec::new());
                    rows.entry_mut(hash, |k| k[..] == key[..], make).push(hit);
                }
            }
            index
        }

        fn is_empty(&self) -> bool {
            self.buckets.is_empty() && self.residual.is_empty()
        }

        pub(super) fn probe(
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
            for (attrs, rows) in &self.buckets {
                let found =
                    rows.get(hash_at(table, attrs, slot), |k| matches_at(table, attrs, slot, k));
                let hits = found.map_or(&[][..], Vec::as_slice);
                checked += hits.len() as u64;
                hits.iter().for_each(&mut violated);
            }
            for (preds, hit) in &self.residual {
                if preds.iter().zip(lhs).all(|(p, &a)| p.matches(table.col(a)[slot])) {
                    violated(hit);
                }
            }
            checked
        }
    }

    /// One LHS group: its live members (in row order) and the distinct
    /// RHS symbols seen (first-seen order).
    struct OracleGroup {
        members: Vec<TupleId>,
        rhs_syms: Vec<Sym>,
    }

    type SymGroups = GroupBy<Box<[Sym]>, OracleGroup>;

    /// What the replaced `scan_unit` returned: per-member violations, the
    /// LHS groups built and the pattern rows checked.
    pub(super) fn scan_unit(
        table: &Table,
        slots: &[usize],
        members: &[(usize, &Cfd)],
        jobs: usize,
    ) -> (Vec<Vec<Violation>>, usize, u64) {
        let (_, fd) = members[0];
        let lhs_cols = table.proj(&fd.lhs);
        let rhs_col = table.col(fd.rhs);
        let index = KeyedIndex::compile(members.iter().map(|(_, cfd)| *cfd), table.pool());
        let fd_attrs = (fd.lhs.as_slice(), fd.rhs);
        let any_var = members.iter().any(|(_, cfd)| cfd.variable_rows().next().is_some());
        let mut chunks = map_chunks(slots, jobs, |chunk| {
            let mut found: Vec<Vec<Violation>> = vec![Vec::new(); members.len()];
            let mut checked = 0u64;
            if !index.is_empty() {
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
            let mut groups: SymGroups = GroupBy::new();
            if any_var {
                for &slot in chunk {
                    add_slot_to_group(&mut groups, &lhs_cols, rhs_col, slot);
                }
            }
            (found, groups, checked)
        })
        .into_iter()
        .map(|(out, _)| out);
        let (mut found, mut groups, mut pattern_rows_checked) =
            chunks.next().expect("map_chunks yields a chunk");
        for (more, partial, checked) in chunks {
            pattern_rows_checked += checked;
            for (buf, vs) in found.iter_mut().zip(more) {
                buf.extend(vs);
            }
            merge_groups(&mut groups, partial);
        }
        let groups_built = groups.len();
        if any_var {
            let violating: Vec<(Box<[Sym]>, Vec<u32>)> = (groups.into_entries())
                .filter(|(.., g)| g.rhs_syms.len() >= 2)
                .map(|(_, k, g)| (k, g.members.iter().map(|t| t.0 as u32).collect()))
                .collect();
            let violating = violating.iter().map(|(k, slots)| (k.iter().copied(), &slots[..]));
            let violating = in_key_order(violating, table.pool());
            for ((idx, cfd), buf) in members.iter().zip(&mut found) {
                emit_variable_violations(*idx, cfd, &violating, table.pool(), buf, usize::MAX);
            }
        }
        (found, groups_built, pattern_rows_checked)
    }

    fn add_slot_to_group(
        groups: &mut SymGroups,
        lhs_cols: &ColProj<'_>,
        rhs_col: &[Sym],
        slot: usize,
    ) {
        let g = groups.entry_mut(
            lhs_cols.hash_at(slot),
            |k| lhs_cols.matches_at(slot, k),
            || (lhs_cols.key_at(slot), OracleGroup { members: Vec::new(), rhs_syms: Vec::new() }),
        );
        g.members.push(TupleId(slot as u64));
        let rhs = rhs_col[slot];
        if !g.rhs_syms.contains(&rhs) {
            g.rhs_syms.push(rhs);
        }
    }

    fn merge_groups(groups: &mut SymGroups, partial: SymGroups) {
        for (hash, key, part) in partial.into_entries() {
            let empty = OracleGroup { members: Vec::new(), rhs_syms: Vec::new() };
            let g = groups.entry_mut(hash, |k| *k == key, || (key.clone(), empty));
            g.members.extend(part.members);
            for rhs in part.rhs_syms {
                if !g.rhs_syms.contains(&rhs) {
                    g.rhs_syms.push(rhs);
                }
            }
        }
    }
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

    /// A random table for the oracle property: 3–5 `Str` / `Int`
    /// columns over 2–4-value alphabets, `Null`s, repeated rows and
    /// about one slot in six tombstoned. Returns the table and, per
    /// column, its alphabet followed by one constant no cell holds.
    fn random_table(rng: &mut rand::rngs::StdRng) -> (Table, Vec<Vec<Value>>) {
        use rand::prelude::*;
        let width = rng.gen_range(3..=5usize);
        let mut builder = Schema::builder("r");
        let mut constants: Vec<Vec<Value>> = Vec::new();
        for a in 0..width {
            let int = rng.gen_bool(0.4);
            builder = builder.attr(format!("a{a}"), if int { Type::Int } else { Type::Str });
            let value = |i: i64| if int { Value::Int(i) } else { Value::from(format!("v{i}")) };
            let mut column: Vec<Value> = (0..rng.gen_range(2..=4i64)).map(value).collect();
            column.push(value(99));
            constants.push(column);
        }
        let mut t = Table::new(builder.build());
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for _ in 0..rng.gen_range(0..60usize) {
            let row: Vec<Value> = match rows.choose(rng) {
                Some(seen) if rng.gen_bool(0.2) => seen.clone(),
                _ => (constants.iter())
                    .map(|column| match rng.gen_bool(0.08) {
                        true => Value::Null,
                        false => column[rng.gen_range(0..column.len() - 1)].clone(),
                    })
                    .collect(),
            };
            t.push(row.clone()).unwrap();
            rows.push(row);
        }
        for slot in 0..t.slots() {
            if rng.gen_bool(1.0 / 6.0) {
                t.delete(TupleId(slot as u64)).unwrap();
            }
        }
        (t, constants)
    }

    /// A random suite over `t`: 1–2 LHS attribute lists, each with 1–3
    /// RHS attributes (so several passes share one LHS set, sometimes
    /// listed in another order or naming an attribute twice); every CFD 1–4 rows mixing `_`, `= c`,
    /// `≠ c` and `∈ {…}` on both sides, absent constants included, and
    /// constant rows mostly on masks that are proper subsets of the LHS.
    fn random_suite(rng: &mut rand::rngs::StdRng, t: &Table, constants: &[Vec<Value>]) -> Vec<Cfd> {
        use rand::prelude::*;
        use revival_constraints::pattern::PatternRow;
        let s = t.schema();
        let width = constants.len();
        let pattern = |rng: &mut StdRng, a: usize, wildcard: f64| {
            if rng.gen_bool(wildcard) {
                return PatternValue::Wildcard;
            }
            let c = constants[a].choose(rng).unwrap().clone();
            match rng.gen_range(0..10u32) {
                0..=6 => PatternValue::Const(c),
                7 => PatternValue::NotConst(c),
                _ => PatternValue::one_of([c, constants[a].choose(rng).unwrap().clone()]),
            }
        };
        let mut suite = Vec::new();
        for _ in 0..rng.gen_range(1..=2usize) {
            let mut lhs: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.5)).collect();
            if lhs.is_empty() || lhs.len() == width {
                lhs = vec![rng.gen_range(0..width)];
            }
            for _ in 0..rng.gen_range(1..=3usize) {
                let rest: Vec<usize> = (0..width).filter(|a| !lhs.contains(a)).collect();
                let rhs = *rest.choose(rng).unwrap();
                let mut order = lhs.clone();
                if rng.gen_bool(0.3) {
                    order.reverse();
                }
                if rng.gen_bool(0.1) {
                    order.push(order[0]);
                }
                let names: Vec<&str> = order.iter().map(|&a| s.attr_name(a)).collect();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let rows = (0..rng.gen_range(1..=4usize))
                        .map(|_| {
                            let row = order.iter().map(|&a| pattern(rng, a, 0.45)).collect();
                            let rhs = match rng.gen_bool(0.4) {
                                true => PatternValue::Wildcard,
                                false => pattern(rng, rhs, 0.0),
                            };
                            PatternRow::new(row, rhs)
                        })
                        .collect();
                    let cfd = Cfd::new(s, &names, s.attr_name(rhs), rows).unwrap();
                    suite.insert(rng.gen_range(0..=suite.len()), cfd);
                }
            }
        }
        suite
    }

    /// What the keyed constant rows of one unit meet on `t`, by value:
    /// per distinct `(mask, key)` some live tuple carries, whether the
    /// tuples under it hold one RHS value every row under the key accepts
    /// (`[0]`), one value some row rejects (`[1]`) or several values
    /// (`[2]`); and keys carrying rows of two or more members (`[3]`).
    fn join_cases(t: &Table, members: &[(usize, &Cfd)], cases: &mut [usize; 4]) {
        type Key = (Vec<usize>, Vec<Value>);
        let mut keys: Vec<(Key, Vec<(usize, &PatternValue)>)> = Vec::new();
        for (m, (_, cfd)) in members.iter().enumerate() {
            for tp in cfd.constant_rows() {
                let keyed = |p: &PatternValue| matches!(p, PatternValue::Const(_));
                if !tp.lhs.iter().all(|p| p.is_wildcard() || keyed(p)) {
                    continue;
                }
                let key: Key = (tp.lhs.iter())
                    .enumerate()
                    .filter_map(|(i, p)| match p {
                        PatternValue::Const(v) => Some((i, v.clone())),
                        _ => None,
                    })
                    .unzip();
                match keys.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, rows)) => rows.push((m, &tp.rhs)),
                    None => keys.push((key, vec![(m, &tp.rhs)])),
                }
            }
        }
        let lhs = &members[0].1.lhs;
        let rhs = members[0].1.rhs;
        for ((positions, values), rows) in keys {
            let mut seen: Vec<Value> = Vec::new();
            for (_, row) in t.rows() {
                if positions.iter().zip(&values).all(|(&i, v)| row[lhs[i]] == *v)
                    && !seen.contains(&row[rhs])
                {
                    seen.push(row[rhs].clone());
                }
            }
            match seen.as_slice() {
                [] => continue,
                [one] if rows.iter().all(|(_, p)| p.matches(one)) => cases[0] += 1,
                [_] => cases[1] += 1,
                _ => cases[2] += 1,
            }
            if rows.iter().any(|&(m, _)| m != rows[0].0) {
                cases[3] += 1;
            }
        }
    }

    /// The partitioned scan against the replaced per-unit grouping and
    /// per-tuple probe (`oracle`), pass by pass at jobs 1 to 6: the same
    /// findings, group counts and join work. Every partition and every
    /// attribute's items are dropped by the end of the suite. The seeds
    /// reach every shape of class the walk tells apart: keys over
    /// classes with one RHS value all rows accept, one some row rejects,
    /// several values, and keys carrying several members' rows.
    #[test]
    fn partitioned_scan_agrees_with_the_per_unit_grouping() {
        use rand::prelude::*;
        let mut cases = [0usize; 4];
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, constants) = random_table(&mut rng);
            let suite = random_suite(&mut rng, &t, &constants);
            let units = plan_units(&suite);
            let slots: Vec<usize> = t.live_slots().collect();
            for ids in &units {
                let members: Vec<(usize, &Cfd)> = ids.iter().map(|&i| (i, &suite[i])).collect();
                join_cases(&t, &members, &mut cases);
            }
            for jobs in 1..=6 {
                let mut parts = Partitions::plan(&suite, &units);
                for (k, ids) in units.iter().enumerate() {
                    let members: Vec<(usize, &Cfd)> = ids.iter().map(|&i| (i, &suite[i])).collect();
                    let got = scan_unit(&t, &members, jobs, &mut parts);
                    parts.release(k);
                    let (found, groups, checked) = oracle::scan_unit(&t, &slots, &members, jobs);
                    let at = format!("seed {seed}, jobs {jobs}, pass {k}");
                    assert_eq!(format!("{:?}", got.found), format!("{found:?}"), "{at}");
                    assert_eq!(got.groups, groups, "{at}");
                    assert_eq!(got.pattern_rows_checked, checked, "{at}");
                    assert_eq!(got.rows_hashed, 0, "{at}");
                }
                assert!(
                    parts.sets.iter().all(|s| s.3.is_none()),
                    "seed {seed}: a partition outlived its last unit"
                );
                assert!(parts.indexes.is_empty(), "seed {seed}: items outlived their last unit");
            }
        }
        let [quiet, uniform_violating, split, shared] = cases;
        assert!(
            quiet > 0 && uniform_violating > 0 && split > 0 && shared > 0,
            "keys over uniform satisfying classes {quiet}, uniform violating {uniform_violating}, \
             split {split}; keys shared by members {shared}"
        );
    }

    /// Detection's partitions against the hashed build they replaced
    /// (`oracle::Partition`): the same class per live tuple and the same
    /// class count, for sets of 1–4 attributes (one list naming an
    /// attribute twice), built from the first attribute's item lists and
    /// from every prefix, on tables with tombstones, `Null`s and repeated
    /// rows. Built at floors 2–4, a partition is the floor-1 one's
    /// classes of that many tuples or more, in order.
    #[test]
    fn partitions_agree_with_the_hashed_build() {
        use rand::prelude::*;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, _) = random_table(&mut rng);
            let width = t.schema().arity();
            let slots: Vec<usize> = t.live_slots().collect();
            let mut index = ItemIndex::new(&t);
            let mut scratch = ItemScratch::default();
            for size in 1..=4usize {
                let mut attrs: Vec<AttrId> = Vec::new();
                while attrs.len() < size.min(width) {
                    let a = rng.gen_range(0..width);
                    if !attrs.contains(&a) {
                        attrs.push(a);
                    }
                }
                if size == 4 {
                    attrs.push(attrs[0]);
                }
                let set = attr_set(attrs.iter().copied());
                for &a in &set {
                    index.index_attr(a);
                }
                let want = oracle::Partition::build(&t, &attrs, &slots, rng.gen_range(1..=4));
                let first = index.partition(set[0]);
                let mut built = vec![match set.len() {
                    1 => first.clone(),
                    _ => extend_partition(&index, first, &set[1..], &mut scratch),
                }];
                for len in 2..set.len() {
                    let prefix = extend_partition(&index, first, &set[1..len], &mut scratch);
                    built.push(extend_partition(&index, &prefix, &set[len..], &mut scratch));
                }
                for part in &built {
                    let mut class_of = vec![u32::MAX; t.slots()];
                    for (c, class) in part.classes().enumerate() {
                        class.iter().for_each(|&slot| class_of[slot as usize] = c as u32);
                    }
                    let got: Vec<u32> = slots.iter().map(|&slot| class_of[slot]).collect();
                    assert_eq!(got, want.class_of, "seed {seed}: {attrs:?}");
                    assert_eq!(part.len(), want.len(), "seed {seed}: {attrs:?}");
                }
                let mut sizes = vec![0usize; want.len()];
                want.class_of.iter().for_each(|&c| sizes[c as usize] += 1);
                for floor in 2..=4 {
                    let start = first.stripped(floor);
                    let part = match set.len() {
                        1 => start,
                        _ => extend_partition(&index, &start, &set[1..], &mut scratch),
                    };
                    assert_eq!(part, built[0].stripped(floor), "seed {seed}: {attrs:?} at {floor}");
                    let kept = sizes.iter().filter(|&&n| n >= floor).count();
                    assert_eq!(part.len(), kept, "seed {seed}: {attrs:?} at {floor}");
                }
            }
        }
    }

    /// The flat index's one-tuple probe (what the maintained detector
    /// runs per event) against the keyed index it replaced: per live
    /// tuple of every unit, the same lowest violated row per member,
    /// found in the same order, for the same work.
    #[test]
    fn flat_index_probes_as_the_keyed_one() {
        use rand::prelude::*;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, constants) = random_table(&mut rng);
            let suite = random_suite(&mut rng, &t, &constants);
            for ids in plan_units(&suite) {
                let members = || ids.iter().map(|&i| &suite[i]);
                let (flat, keyed) = (
                    ConstIndex::compile(members(), t.pool()),
                    oracle::KeyedIndex::compile(members(), t.pool()),
                );
                let fd = (suite[ids[0]].lhs.as_slice(), suite[ids[0]].rhs);
                let mut got = (vec![NONE; ids.len()], Vec::new());
                let mut want = (vec![NONE; ids.len()], Vec::new());
                for slot in t.live_slots() {
                    let checked = flat.probe(&t, fd, slot, &mut got.0, &mut got.1);
                    let expected = keyed.probe(&t, fd, slot, &mut want.0, &mut want.1);
                    assert_eq!((&got, checked), (&want, expected), "seed {seed}, slot {slot}");
                    for (first, touched) in [&mut got, &mut want] {
                        touched.drain(..).for_each(|m| first[m] = NONE);
                    }
                }
            }
        }
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
