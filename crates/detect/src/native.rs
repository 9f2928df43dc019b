//! Native hash-based CFD detection — the one scan kernel.
//!
//! A suite is planned into *scan units*: the CFDs sharing one embedded
//! FD `(relation, lhs, rhs)`, in first-seen order. Each unit reads its
//! relation once (`scan_unit`), whatever the number of members.
//!
//! Grouping is done once per **attribute set**, not once per unit: a
//! `Partition` gives every live tuple of a relation a dense class id
//! (classes in first-seen order) for one set of attributes, and every
//! unit that names that set — as its LHS or as a wildcard mask of its
//! constant rows — reads the class ids instead of hashing the tuple
//! again. `scan_suite` builds a partition the first time a unit needs
//! it and drops it after the last unit whose syntax names its set
//! (`Partitions::plan`), so a mined suite of 129 embedded FDs over 28
//! attribute sets groups its relation 28 times, not once per LHS and
//! per mask. A partition stores no key: a class's key is read off the
//! columns at its first slot.
//!
//! * **constant rows** — a hash join of the tuples against the tableau,
//!   as the paper detects (its SQL encoding stores the tableau as a
//!   relation and joins the data to it on the LHS, so cost follows the
//!   data). The members' constant rows compile once per unit into a
//!   `ConstIndex`: one bucket per *wildcard mask* (the LHS positions
//!   holding a constant), keyed by the constants at those positions.
//!   A bucket is flat — its distinct keys back to back in one arena,
//!   its rows in one array ordered by key id (a counting sort), a key's
//!   rows one run of it — so compiling allocates a handful per mask,
//!   not a boxed key and a row list per distinct key.
//!   The batch scan looks each distinct key up once in its mask's
//!   partition, which turns the bucket into a list of rows per class;
//!   a tuple then reads its class id per mask and tests the RHS
//!   predicate of the rows under its key only — `O(n · #masks)` array
//!   reads where a sweep compares `O(n · Σ|Tp|)` rows. The index owns
//!   no borrow: a bucket keeps the attribute ids of its mask and reads
//!   the table's columns when used, so the same compiled form serves
//!   one pass here and the life of a table in [`crate::incremental`],
//!   which probes it one tuple at a time (`ConstIndex::probe`). Rows
//!   with an eCFD LHS pattern (`≠ c`, `∈ {…}`) name no single key and
//!   stay on a short residual list swept per tuple; rows naming a
//!   constant the table never interned, and keys no live tuple holds,
//!   match no tuple and drop out. The lowest violated tableau index
//!   *per member* is kept, which is the first violating row in tableau
//!   order — what a sweep reports;
//! * **variable rows** — one pass over the LHS partition's class ids
//!   keeps each class's first RHS symbol and whether a second one
//!   appeared; a class violates a member's row iff its key matches the
//!   row's LHS patterns and it holds ≥ 2 distinct RHS values. Only the
//!   members of those classes are gathered, in row order.
//!
//! Partitions and the per-tuple loops run per contiguous chunk of live
//! slots (`revival_relation::map_chunks`: inline at one shard, one
//! scoped thread per chunk otherwise); a partition's chunk-local classes
//! fold into global ids in chunk order and the loops' outputs merge in
//! chunk order, so the merged state is what one sequential scan builds
//! at any shard count. Every member then reports on its own — constants
//! in row order, variables in key order — and `scan_suite` concatenates
//! the members in suite order: cost follows the number of embedded FDs
//! and attribute sets, the report does not depend on how the suite
//! splits its pattern rows.
//!
//! Tuples are read as interned symbols: keys hash as `u32` words off the
//! table's columns in place ([`revival_relation::ColProj`]), and nothing is cloned per
//! tuple. Values reappear only at emission, where the keys of violating
//! classes map back through the table's [`revival_relation::ValuePool`]
//! for pattern matching and reporting.

use crate::engine::DetectJob;
use crate::report::{Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::{Cind, SymPred};
use revival_relation::groupby::hash_syms;
use revival_relation::{
    map_chunks, AttrId, GroupBy, Result, Sym, Table, TupleId, Value, ValuePool,
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
    let mut parts = Partitions::plan(job.cfds, &units);
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
        // pass pays for enumerating it, a set's first pass for grouping
        // it, every pass for handing its findings over and (profiled)
        // for naming its own row.
        let start = std::time::Instant::now();
        let cached = live.iter().position(|(r, _)| *r == first.relation).unwrap_or_else(|| {
            live.push((&first.relation, table.live_slots().collect()));
            live.len() - 1
        });
        let slots = &live[cached].1;
        let scan = scan_unit(table, slots, &unit, jobs, &mut parts);
        parts.release(k);
        for (&(i, _), buf) in unit.iter().zip(scan.found) {
            found[i] = buf;
        }
        if let Some(p) = profile.as_deref_mut() {
            let fd = first.embedded_fd();
            let members = index_runs(ids);
            let name = format!("pass#{k} {} cfds=[{members}]", fd.display(table.schema()));
            p.meta_add("pattern_rows_checked", scan.pattern_rows_checked);
            p.meta_add("partitions", scan.partitions);
            p.meta_add("rows_grouped", scan.rows_grouped);
            let row = p.entry(&name, "pass");
            row.groups_probed += scan.groups as u64;
            row.shard_us.extend(scan.shard_us);
            let us = start.elapsed().as_micros() as u64;
            row.wall_us += us;
            revival_obs::trace::record_at(&name, start, us);
        }
    }
    // One allocation for the report: grown by doubling instead, it
    // cannot reuse the holes freed partitions leave between the members'
    // buffers and extends the heap, which stays resident.
    let mut violations = Vec::with_capacity(found.iter().map(Vec::len).sum());
    found.into_iter().for_each(|buf| violations.extend(buf));
    let mut report = ViolationReport { violations };
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

/// An empty entry of the variable pass's per-class state: no RHS symbol
/// seen yet, or (once the split classes are numbered) not a split class.
const NO_CLASS: u32 = u32::MAX;
/// A class that met two RHS symbols (see `scan_unit`'s variable pass).
const SPLIT: u32 = u32::MAX - 1;

/// One relation's live tuples grouped by one attribute set.
struct Partition {
    /// Class id per live tuple, aligned with the scan's live slots.
    class_of: Vec<u32>,
    /// Key → class: entry `c` is class `c`, keyed by its first slot (its
    /// key is read off the columns there), in first-seen order.
    classes: GroupBy<u32, ()>,
}

impl Partition {
    /// Group `slots` of `table` by `attrs` (a sorted set) across `jobs`
    /// chunks. Each chunk numbers its classes locally; the later chunks
    /// then fold into the first's ids in chunk order, so the classes and
    /// their order are those of one sequential scan.
    fn build(table: &Table, attrs: &[AttrId], slots: &[usize], jobs: usize) -> Self {
        let cols = table.proj(attrs);
        let same =
            |a: usize, b: usize| (0..cols.width()).all(|i| cols.sym_at(i, a) == cols.sym_at(i, b));
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
    fn len(&self) -> usize {
        self.classes.len()
    }

    /// The first slot of class `c`, where its key is read.
    fn first_slot(&self, c: usize) -> usize {
        *self.classes.entry_at(c).0 as usize
    }
}

/// The partitions of one suite's scan, each planned from the suite's
/// syntax: built by the first unit that needs it, dropped after the
/// last unit that names its attribute set.
pub(crate) struct Partitions<'s> {
    /// Per `(relation, attribute set)`: the last unit naming it, and the
    /// partition while one is built.
    sets: Vec<(&'s str, Vec<AttrId>, usize, Option<Partition>)>,
}

impl<'s> Partitions<'s> {
    /// The attribute sets each unit names ([`keyed_positions`]).
    pub(crate) fn plan(cfds: &'s [Cfd], units: &[Vec<usize>]) -> Self {
        let mut sets: Vec<(&'s str, Vec<AttrId>, usize, Option<Partition>)> = Vec::new();
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
            for set in named.drain(..) {
                match sets.iter_mut().find(|s| s.0 == fd.relation && s.1 == set) {
                    Some(planned) => planned.2 = k,
                    None => sets.push((&fd.relation, set, k, None)),
                }
            }
        }
        Partitions { sets }
    }

    /// Build the partition of `relation` (`table`) by `attrs`, a planned
    /// set, unless it is built; whether it built one.
    fn ensure(
        &mut self,
        (table, relation): (&Table, &str),
        attrs: &[AttrId],
        slots: &[usize],
        jobs: usize,
    ) -> bool {
        let planned = self.sets.iter_mut().find(|s| s.0 == relation && s.1 == attrs);
        let part = &mut planned.expect("a unit's attribute sets are planned").3;
        let build = part.is_none();
        if build {
            *part = Some(Partition::build(table, attrs, slots, jobs));
        }
        build
    }

    /// The built partition of `relation` by `attrs`.
    fn get(&self, relation: &str, attrs: &[AttrId]) -> &Partition {
        let set = self.sets.iter().find(|s| s.0 == relation && s.1 == attrs);
        set.and_then(|s| s.3.as_ref()).expect("an ensured partition")
    }

    /// Drop the partitions unit `k` was the last to name.
    pub(crate) fn release(&mut self, k: usize) {
        for set in self.sets.iter_mut().filter(|s| s.2 == k) {
            set.3 = None;
        }
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
    /// Work the constant join did: mask lookups + RHS predicates
    /// evaluated + residual rows tested, over all chunks — a count of
    /// the tuples and the index only, so identical at any `jobs`.
    pub pattern_rows_checked: u64,
    /// Partitions this pass built (the rest it read were built before).
    pub partitions: u64,
    /// Live tuples those partitions grouped: one per tuple per partition.
    pub rows_grouped: u64,
    /// Worker wall-µs per chunk, in chunk order.
    pub shard_us: Vec<u64>,
}

/// Scan one unit — `members` are `(suite index, CFD)` pairs sharing one
/// embedded FD over `table` — across `jobs` contiguous chunks of
/// `slots`, reading (and first building) the partitions it needs from
/// `parts`. Chunks merge in order: per-member constant findings
/// concatenate (row order), per-class variable states fold.
pub(crate) fn scan_unit(
    table: &Table,
    slots: &[usize],
    members: &[(usize, &Cfd)],
    jobs: usize,
    parts: &mut Partitions<'_>,
) -> UnitScan {
    let (_, fd) = members[0];
    let rhs_col = table.col(fd.rhs);
    // The constant rows compile to one join index per unit, shared
    // read-only across workers; the join touches only the unit's columns.
    let index = ConstIndex::compile(members.iter().map(|(_, cfd)| *cfd), table.pool());
    let fd_attrs = (fd.lhs.as_slice(), fd.rhs);
    let any_var = members.iter().any(|(_, cfd)| cfd.variable_rows().next().is_some());
    let masks: Vec<Vec<AttrId>> =
        index.buckets.iter().map(|b| attr_set(b.attrs.iter().copied())).collect();
    let lhs_set = any_var.then(|| attr_set(fd.lhs.iter().copied()));

    let relation = fd.relation.as_str();
    let mut partitions = 0;
    for set in masks.iter().chain(&lhs_set) {
        partitions += u64::from(parts.ensure((table, relation), set, slots, jobs));
    }
    let rows_grouped = partitions * slots.len() as u64;
    let joins: Vec<Joined> = (index.buckets.iter().zip(&masks))
        .map(|(bucket, set)| bucket.join(table, parts.get(relation, set)))
        .collect();
    let lhs = lhs_set.map(|set| parts.get(relation, &set));

    let mut chunks = map_chunks(slots, jobs, |chunk| {
        // Where the chunk's tuples sit in the partitions' class ids.
        let at = offset_in(slots, chunk);
        let mut found: Vec<Vec<Violation>> = vec![Vec::new(); members.len()];
        let mut checked = 0u64;
        if !index.is_empty() {
            // Per tuple: the lowest violated tableau row of each member
            // (`NONE` = none yet) and the members that have one.
            let mut first = vec![NONE; members.len()];
            let mut touched: Vec<usize> = Vec::new();
            for (pos, &slot) in (at..).zip(chunk) {
                let hits = |b: usize| joins[b].hits[joins[b].class_of[pos] as usize];
                checked += index.check(table, fd_attrs, slot, hits, &mut first, &mut touched);
                while let Some(m) = touched.pop() {
                    let (cfd, row, tuple) = (members[m].0, first[m], TupleId(slot as u64));
                    found[m].push(Violation::CfdConstant { cfd, row, tuple });
                    first[m] = NONE;
                }
            }
        }
        // Per LHS class: its first RHS symbol, or `SPLIT` once a second
        // one shows.
        let mut state: Vec<u32> = Vec::new();
        if let Some(part) = lhs {
            state = vec![NO_CLASS; part.len()];
            for (&slot, &c) in chunk.iter().zip(&part.class_of[at..]) {
                let (s, rhs) = (&mut state[c as usize], rhs_col[slot].raw());
                if *s == NO_CLASS {
                    *s = rhs;
                } else if *s != rhs {
                    *s = SPLIT;
                }
            }
        }
        (found, state, checked)
    })
    .into_iter();

    // Folding in chunk order keeps each member's constant findings in
    // row order and each class's first RHS symbol the globally first.
    let ((mut found, mut state, mut pattern_rows_checked), us) =
        chunks.next().expect("map_chunks yields a chunk");
    let mut shard_us = vec![us];
    for ((more, partial, checked), us) in chunks {
        shard_us.push(us);
        pattern_rows_checked += checked;
        for (buf, vs) in found.iter_mut().zip(more) {
            buf.extend(vs);
        }
        for (s, t) in state.iter_mut().zip(partial) {
            *s = match (*s, t) {
                (NO_CLASS, t) => t,
                (s, t) if t == NO_CLASS || t == s => s,
                _ => SPLIT,
            };
        }
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
        // A class violates with ≥ 2 distinct RHS values: number the split
        // classes, then gather their members in row order.
        let mut split: Vec<(Box<[Sym]>, VarGroup)> = Vec::new();
        for (c, s) in state.iter_mut().enumerate() {
            if *s == SPLIT {
                let at = part.first_slot(c);
                let key = fd.lhs.iter().map(|&a| table.col(a)[at]).collect();
                split.push((key, VarGroup { members: Vec::new() }));
                *s = (split.len() - 1) as u32;
            } else {
                *s = NO_CLASS;
            }
        }
        if !split.is_empty() {
            for (&slot, &c) in slots.iter().zip(&part.class_of) {
                let g = state[c as usize];
                if g != NO_CLASS {
                    split[g as usize].1.members.push(TupleId(slot as u64));
                }
            }
        }
        let violating = in_key_order(split.iter().map(|(k, g)| (k, g)), table.pool());
        for ((idx, cfd), buf) in members.iter().zip(&mut found) {
            emit_variable_violations(*idx, cfd, &violating, buf);
        }
    }
    UnitScan { found, groups, pattern_rows_checked, partitions, rows_grouped, shard_us }
}

/// Where `chunk`, a run of `slots` as `map_chunks` hands it out, starts
/// in `slots` (ascending): the position of its first tuple's class id.
fn offset_in(slots: &[usize], chunk: &[usize]) -> usize {
    chunk.first().map_or(0, |&first| slots.partition_point(|&s| s < first))
}

/// One violating LHS class of a unit: its live members, in row order.
struct VarGroup {
    members: Vec<TupleId>,
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

/// A bucket joined to the partition by its mask's attribute set, for
/// one batch scan: per class, the rows under the class's key.
struct Joined<'p> {
    class_of: &'p [u32],
    hits: Vec<&'p [Hit]>,
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

    /// Look each distinct key up once in `part`. A key no live tuple
    /// holds matches nothing and drops out, as an uninterned constant
    /// does when compiling.
    fn join<'p>(&'p self, table: &Table, part: &'p Partition) -> Joined<'p> {
        // The mask's positions in the partition's (sorted) attribute
        // order, each attribute once: a key hashed in that order finds
        // its class, compared at the class's first slot as the mask
        // reads it.
        let mut at: Vec<usize> = (0..self.attrs.len()).collect();
        at.sort_by_key(|&i| self.attrs[i]);
        at.dedup_by_key(|i| self.attrs[*i]);
        let mut hits: Vec<&[Hit]> = vec![&[]; part.len()];
        for k in 0..self.ids.len() {
            let key = self.key(k);
            let hash = hash_syms(at.iter().map(|&i| key[i]));
            let first = |&s: &u32| matches_at(table, &self.attrs, s as usize, key);
            if let Some(c) = part.classes.probe(hash, first) {
                hits[c] = self.hits(k);
            }
        }
        Joined { class_of: &part.class_of, hits }
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
        fd: (&[AttrId], AttrId),
        slot: usize,
        first: &mut [usize],
        touched: &mut Vec<usize>,
    ) -> u64 {
        let hits = |b: usize| self.buckets[b].lookup(table, slot);
        self.check(table, fd, slot, hits, first, touched)
    }

    /// [`ConstIndex::probe`] with the rows under the tuple's key in
    /// bucket `b` supplied by `hits` — a hash probe for one tuple, a
    /// class id read in a batch scan.
    #[inline]
    fn check<'h>(
        &'h self,
        table: &Table,
        (lhs, rhs): (&[AttrId], AttrId),
        slot: usize,
        hits: impl Fn(usize) -> &'h [Hit],
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
        for b in 0..self.buckets.len() {
            let hits = hits(b);
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

/// The hash of the tuple at `slot` projected onto `attrs`, read off the
/// table's columns in place — [`revival_relation::ColProj::hash_at`]
/// without the borrow.
#[inline]
pub(crate) fn hash_at(table: &Table, attrs: &[AttrId], slot: usize) -> u64 {
    hash_syms(attrs.iter().map(|&a| table.col(a)[slot]))
}

/// Does a stored key equal the tuple at `slot` projected onto `attrs`?
#[inline]
pub(crate) fn matches_at(table: &Table, attrs: &[AttrId], slot: usize, key: &[Sym]) -> bool {
    key.len() == attrs.len() && attrs.iter().zip(key).all(|(&a, k)| table.col(a)[slot] == *k)
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

/// The kernel this module replaced — per unit one `GroupBy` over the LHS
/// and one probe of a keyed constant index per tuple — kept as the
/// oracle the partitioned scan and the flat [`ConstIndex`] are held to
/// (`tests::partitioned_scan_agrees_with_the_per_unit_grouping`).
#[cfg(test)]
mod oracle {
    use super::*;
    use revival_relation::ColProj;

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
                    let entry = rows.probe(hash, |k| k[..] == key[..]).unwrap_or_else(|| {
                        rows.insert_unique(hash, key.as_slice().into(), Vec::new())
                    });
                    rows.value_at_mut(entry).push(hit);
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
        if any_var {
            let violating: Vec<(&Box<[Sym]>, VarGroup)> = (groups.iter())
                .filter(|(_, g)| g.rhs_syms.len() >= 2)
                .map(|(k, g)| (k, VarGroup { members: g.members.clone() }))
                .collect();
            let violating = in_key_order(violating.iter().map(|(k, g)| (*k, g)), table.pool());
            for ((idx, cfd), buf) in members.iter().zip(&mut found) {
                emit_variable_violations(*idx, cfd, &violating, buf);
            }
        }
        (found, groups.len(), pattern_rows_checked)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Detector, NativeEngine};
    use revival_constraints::parser::parse_cfds;
    use revival_relation::{Schema, Type};

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

    /// The partitioned scan against the replaced per-unit grouping and
    /// per-tuple probe (`oracle`), pass by pass at jobs 1 to 6: the same
    /// findings, group counts and join work. Every partition is dropped
    /// by the end of the suite.
    #[test]
    fn partitioned_scan_agrees_with_the_per_unit_grouping() {
        use rand::prelude::*;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, constants) = random_table(&mut rng);
            let suite = random_suite(&mut rng, &t, &constants);
            let units = plan_units(&suite);
            let slots: Vec<usize> = t.live_slots().collect();
            for jobs in 1..=6 {
                let mut parts = Partitions::plan(&suite, &units);
                for (k, ids) in units.iter().enumerate() {
                    let members: Vec<(usize, &Cfd)> = ids.iter().map(|&i| (i, &suite[i])).collect();
                    let got = scan_unit(&t, &slots, &members, jobs, &mut parts);
                    parts.release(k);
                    let (found, groups, checked) = oracle::scan_unit(&t, &slots, &members, jobs);
                    let at = format!("seed {seed}, jobs {jobs}, pass {k}");
                    assert_eq!(format!("{:?}", got.found), format!("{found:?}"), "{at}");
                    assert_eq!(got.groups, groups, "{at}");
                    assert_eq!(got.pattern_rows_checked, checked, "{at}");
                }
                assert!(
                    parts.sets.iter().all(|s| s.3.is_none()),
                    "seed {seed}: a partition outlived its last unit"
                );
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
