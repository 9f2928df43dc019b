//! Union-find over the slots of one attribute, with per-class value
//! resolution.
//!
//! Variable-CFD violations assert "these RHS cells must hold the same
//! value". Rather than picking pairwise winners, Cong et al. merge such
//! cells into equivalence classes and later assign each class one
//! *target value* minimising the weighted cost of changing all member
//! cells — preserving the plurality value in the common case.
//!
//! **One attribute, dense slots.** A union or a pin stays within one
//! CFD's RHS column, so a class never spans two attributes, and a pass
//! keeps one [`EquivClasses`] per RHS attribute. Within it a cell *is*
//! its tuple's slot: parent, size and pin index are `u32`s per slot of
//! the table, sized once, and the pinned constants sit in a side list
//! the root points into. Nothing is allocated per cell and nothing is
//! hashed.
//!
//! **Classes in CSR form.** [`EquivClasses::groups`] hands the classes
//! over as one slot arena with bounds ([`Classes`], the shape of
//! `relation::partition::Partition`), built in one walk of the slots:
//! each class ascending, the classes by their smallest slot — the order
//! sorting cell lists gave, since the cells share one attribute.
//! [`Resolvers::resolve`] reads each class's symbols off the column and
//! answers each target as a pool symbol, so the pass writes symbols,
//! not values.
//!
//! A class resolves over its **distinct values**, not its member
//! cells. The cost of moving a class of k cells to candidate `x` is
//! `Σ_cells w·d(v, x)`; cells holding the same value share `d(v, x)`,
//! so the sum factorises as `Σ_values (Σ w)·d(v, x)` — and the table's
//! interned columns hand over the distinct values as [`Sym`]s for
//! free.
//!
//! Nor does it price every pair of those values. The class's heaviest
//! value p is priced first, against the c − 1 others; its total `T_p`
//! bounds the answer, and any value i with `w_p · d(i, p) > T_p` — one
//! term of i's own total already above p's whole total — can neither
//! win nor tie. The all-pairs loop then skips every pair of two such
//! dead values. Every live value's total is the same float, summed in
//! the same order, as an all-pairs pass gives it (which survives under
//! `#[cfg(test)]` as the oracle), so the target is too. A class of c
//! distinct values with a dead set D costs c(c−1)/2 − |D|(|D|−1)/2
//! distance evaluations however many cells it has (each unordered pair
//! at most once, `d(v, v)` never), where a per-cell sum would cost
//! k·c; in a typical class a dominant true value kills every typo of
//! it, and the count falls towards its floor of c − 1.
//! [`ResolveStats`] counts that work. The bound needs non-negative
//! weights, which [`CostModel`] enforces.

use crate::cost::{CostModel, DistanceScratch};
use revival_relation::{map_chunks, Sym, Table, TupleId, Value};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Mutex;

/// A cell identified by `(tuple, attribute)`.
pub type Cell = (TupleId, usize);

/// The parent of a slot no union or pin has named.
const UNNAMED: u32 = u32::MAX;

/// Union-find over the slots of one RHS attribute, with path halving
/// and union by size.
///
/// A tuple id *is* a slot index, and every cell a class holds is on the
/// one attribute, so a slot is a node: three `u32`s per slot of the
/// table, sized once, no per-cell allocation and no hashing.
pub struct EquivClasses {
    /// Per slot: its parent slot (itself at a root), or [`UNNAMED`].
    parent: Vec<u32>,
    /// Per root: the slots its class holds.
    size: Vec<u32>,
    /// Per root: its pin's 1-based position in `pins`, 0 if unpinned.
    pin: Vec<u32>,
    /// A class may be pinned to a constant (by a constant-CFD
    /// resolution); pins win over plurality resolution. One entry per
    /// class a pin reached first.
    pins: Vec<Value>,
    /// Slots some union or pin named.
    named: u32,
}

impl EquivClasses {
    /// No classes over the slots of a table of `slots` slots (its
    /// [`Table::slots`]).
    pub fn new(slots: usize) -> Self {
        assert!(slots < UNNAMED as usize, "under 2^32 - 1 slots in classes");
        EquivClasses {
            parent: vec![UNNAMED; slots],
            size: vec![0; slots],
            pin: vec![0; slots],
            pins: Vec::new(),
            named: 0,
        }
    }

    /// The tuple's node, and whether this call named it.
    fn node(&mut self, t: TupleId) -> (u32, bool) {
        let slot = usize::try_from(t.0).expect("a tuple id of the table is a slot");
        let fresh = self.parent[slot] == UNNAMED;
        if fresh {
            // Below `parent.len()`, so below `UNNAMED`.
            self.parent[slot] = slot as u32;
            self.size[slot] = 1;
            self.named += 1;
        }
        (slot as u32, fresh)
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let grand = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = grand;
            i = grand;
        }
        i
    }

    /// A root's pin.
    fn pin_of(&self, root: u32) -> Option<&Value> {
        let at = self.pin[root as usize].checked_sub(1)?;
        Some(&self.pins[at as usize])
    }

    /// Merge two classes given by their roots: the merged class's root,
    /// or `None` if they are pinned to different constants.
    fn link(&mut self, ra: u32, rb: u32) -> Option<u32> {
        if ra == rb {
            return Some(ra);
        }
        if let (Some(x), Some(y)) = (self.pin_of(ra), self.pin_of(rb)) {
            if x != y {
                return None;
            }
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra as usize, rb as usize)
        } else {
            (rb as usize, ra as usize)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        if self.pin[big] == 0 {
            self.pin[big] = self.pin[small];
        }
        Some(big as u32)
    }

    /// Merge the classes of two tuples' cells. Returns `false` if both
    /// classes were pinned to *different* constants (a genuine conflict
    /// the caller must resolve another way).
    pub fn union(&mut self, a: TupleId, b: TupleId) -> bool {
        let (ia, ib) = (self.node(a).0, self.node(b).0);
        let (ra, rb) = (self.find(ia), self.find(ib));
        self.link(ra, rb).is_some()
    }

    /// [`EquivClasses::union`] of `first` with each tuple of `rest` in
    /// turn — one violation group — following `first`'s root through
    /// the merges instead of finding it again per member. `conflict`
    /// gets each tuple a union refused.
    ///
    /// A member slot never named before is an unpinned singleton, never
    /// larger than the running class, so `link` would hang it straight
    /// under the running root: it goes there without a `find` or a
    /// `link`.
    pub fn union_all(
        &mut self,
        first: TupleId,
        rest: impl IntoIterator<Item = TupleId>,
        mut conflict: impl FnMut(TupleId),
    ) {
        let first = self.node(first).0;
        let mut root = self.find(first);
        for t in rest {
            let (i, fresh) = self.node(t);
            if fresh {
                self.parent[i as usize] = root;
                self.size[root as usize] += 1;
                continue;
            }
            let r = self.find(i);
            match self.link(root, r) {
                Some(merged) => root = merged,
                None => conflict(t),
            }
        }
    }

    /// Pin a tuple's class to a constant. Returns `false` on conflict
    /// with an existing different pin.
    pub fn pin(&mut self, t: TupleId, v: Value) -> bool {
        let i = self.node(t).0;
        let r = self.find(i);
        match self.pin_of(r) {
            Some(existing) => *existing == v,
            None => {
                self.pins.push(v);
                self.pin[r as usize] = self.pins.len() as u32;
                true
            }
        }
    }

    /// The classes, in one walk of the slots: each class's slots
    /// ascending, the classes by their smallest slot. That is the order
    /// of sorting the classes as cell lists, since every cell is on the
    /// one attribute and no two classes share one.
    pub fn groups(&mut self) -> Classes {
        // Per root: 1 + the arena position its next slot goes to.
        let mut next = vec![0u32; self.parent.len()];
        let mut classes =
            Classes { slots: vec![0; self.named as usize], bounds: vec![0], pins: Vec::new() };
        for slot in 0..self.parent.len() as u32 {
            if self.parent[slot as usize] == UNNAMED {
                continue;
            }
            let r = self.find(slot) as usize;
            if next[r] == 0 {
                let start = *classes.bounds.last().expect("bounds start at 0");
                classes.bounds.push(start + self.size[r]);
                classes.pins.push(self.pin_of(r as u32).cloned());
                next[r] = start + 1;
            }
            classes.slots[next[r] as usize - 1] = slot;
            next[r] += 1;
        }
        classes
    }
}

/// One attribute's classes back to back, like
/// [`revival_relation::partition::Partition`]'s: class `c` is a run of
/// ascending slots, with its pin.
#[derive(Debug, PartialEq)]
pub struct Classes {
    /// Every class's slots back to back.
    slots: Vec<u32>,
    /// Class `c` is `slots[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<u32>,
    /// Class `c`'s pin.
    pins: Vec<Option<Value>>,
}

impl Classes {
    /// Number of classes.
    pub fn len(&self) -> usize {
        self.pins.len()
    }

    /// No class.
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty()
    }

    /// Class `c`'s slots, ascending.
    pub fn class(&self, c: usize) -> &[u32] {
        &self.slots[self.bounds[c] as usize..self.bounds[c + 1] as usize]
    }

    /// Class `c`'s pin.
    pub fn pin(&self, c: usize) -> Option<&Value> {
        self.pins[c].as_ref()
    }

    /// The classes in order, each with its pin.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u32], Option<&Value>)> + '_ {
        (0..self.len()).map(|c| (self.class(c), self.pin(c)))
    }
}

/// The resolve buffers of one repair, one set per shard: allocated once
/// and reused by every attribute of every pass.
pub struct Resolvers {
    shards: Vec<Mutex<ResolveScratch>>,
}

impl Resolvers {
    /// Buffers for `jobs` shards (at least one).
    pub fn new(jobs: usize) -> Self {
        Resolvers { shards: (0..jobs.max(1)).map(|_| Mutex::default()).collect() }
    }

    /// Resolve the target of every class of `attr`, sharding the classes
    /// across the shards' scoped threads.
    ///
    /// Each class resolves independently (a worker only reads the table
    /// and cost model), so the classes split into contiguous chunks,
    /// one worker per chunk, and the per-chunk results concatenate in
    /// chunk order — the targets are positionally aligned with
    /// `classes` and *identical* to what a sequential loop computes, at
    /// any shard count, and so are the work counts. This is the repair
    /// counterpart of the detection sharding in
    /// `revival_detect::parallel`, on the same
    /// [`revival_relation::map_chunks`].
    pub fn resolve(
        &self,
        classes: &Classes,
        attr: usize,
        table: &Table,
        cost: &CostModel,
    ) -> Resolved {
        let size = classes.len().div_ceil(self.shards.len()).max(1);
        let chunks: Vec<(Range<usize>, &Mutex<ResolveScratch>)> = (0..classes.len())
            .step_by(size)
            .map(|start| start..classes.len().min(start + size))
            .zip(&self.shards)
            .collect();
        let results = map_chunks(&chunks, chunks.len(), |chunk| {
            let mut stats = ResolveStats::default();
            let mut targets = Vec::new();
            for (range, scratch) in chunk {
                let mut scratch = scratch.lock().expect("a resolve shard panicked");
                let mut resolver = Resolver { table, cost, attr, s: &mut scratch, stats };
                targets.extend(
                    range.clone().map(|c| resolver.resolve(classes.class(c), classes.pin(c))),
                );
                stats = resolver.stats;
            }
            (targets, stats)
        });
        let mut out = Resolved::default();
        for ((targets, stats), us) in results {
            out.targets.extend(targets);
            out.stats.add(&stats);
            out.shard_us.push(us);
        }
        out
    }
}

/// What [`Resolvers::resolve`] did for a batch of classes —
/// the repair twin of detection's rows-scanned / groups-probed counts.
/// Deterministic: the same classes give the same counts at any `jobs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Classes resolved, pinned ones included.
    pub classes: u64,
    /// Member cells over those classes (Σ k).
    pub class_cells: u64,
    /// Distinct member values over the classes resolved by cost (Σ c);
    /// a pinned class takes its pin without reading its members.
    pub distinct_values: u64,
    /// Distance evaluations made over the same classes: per class, its
    /// c(c−1)/2 value pairs less the pairs of two values its heaviest
    /// value priced out (between c − 1 and c(c−1)/2).
    pub distances_computed: u64,
}

impl ResolveStats {
    /// Fold another batch's counts in.
    pub fn add(&mut self, other: &ResolveStats) {
        self.classes += other.classes;
        self.class_cells += other.class_cells;
        self.distinct_values += other.distinct_values;
        self.distances_computed += other.distances_computed;
    }
}

/// [`Resolvers::resolve`]' output.
#[derive(Debug, Default)]
pub struct Resolved {
    /// One target per class, aligned with the classes: its symbol in the
    /// table's pool, or `None` for a pin the pool has not met (and for a
    /// class with no live cell).
    pub targets: Vec<Option<Sym>>,
    /// The work those classes took.
    pub stats: ResolveStats,
    /// Worker wall-µs per chunk, in chunk order.
    pub shard_us: Vec<u64>,
}

/// One shard's resolve buffers: the class histogram and distance
/// buffers, reused across classes, attributes and passes.
#[derive(Default)]
struct ResolveScratch {
    /// Per symbol of the table's pool: the class that last saw it (its
    /// stamp) and its position in `hist` then — a stale stamp is an
    /// unseen symbol, so nothing is cleared between classes. Grows with
    /// the pool.
    seen: Vec<(u32, u32)>,
    /// The current class's stamp.
    stamp: u32,
    /// The current class's distinct values with their summed weights.
    hist: Vec<(Sym, f64)>,
    /// Each value of `hist`'s distance to the class's heaviest value.
    to_heaviest: Vec<f64>,
    /// Which values of `hist` the heaviest value's total prices out.
    dead: Vec<bool>,
    /// Total change cost of moving the class to each value of `hist`
    /// (exact for the live values only).
    totals: Vec<f64>,
    distance: DistanceScratch,
}

/// One shard's resolver over one attribute's classes, and its counts.
struct Resolver<'a> {
    table: &'a Table,
    cost: &'a CostModel,
    attr: usize,
    s: &'a mut ResolveScratch,
    stats: ResolveStats,
}

impl Resolver<'_> {
    /// The target of one class, as a symbol of the table's pool: the
    /// pinned constant if any, otherwise the member value minimising
    /// total weighted change cost (weighted plurality under the
    /// distance metric), the smallest such value on a tie.
    ///
    /// The summation order is part of the definition, since float sums
    /// do not commute: a value's weight is the sum of its cells'
    /// weights in cell order, and a candidate's total adds
    /// `weight · distance` over the other values in `Value` order.
    ///
    /// The heaviest value p (the first on a tie) is priced first, in
    /// that order. A value i with `w_p · d(i, p) > T_p` is dead: that
    /// product is one non-negative term of its own total, and rounding
    /// is monotone, so a left-to-right sum of non-negative terms is at
    /// least each of them — i's total exceeds p's, and i can neither
    /// win nor tie. The all-pairs loop then skips the pairs of two dead
    /// values and the pick reads only live ones; every live total is
    /// summed exactly as before. A heaviest weight that is not finite —
    /// only a class weight sum that overflows gets one — kills nothing:
    /// `∞ · 0` makes NaN totals, and the pick over NaNs depends on every
    /// value it reads.
    fn resolve(&mut self, slots: &[u32], pin: Option<&Value>) -> Option<Sym> {
        let Resolver { table, cost, attr, s, stats } = self;
        stats.classes += 1;
        stats.class_cells += slots.len() as u64;
        let pool = table.pool();
        if let Some(v) = pin {
            return pool.lookup(v);
        }
        if s.stamp == u32::MAX {
            s.seen.fill((0, 0));
            s.stamp = 0;
        }
        s.stamp += 1;
        if s.seen.len() < pool.len() {
            s.seen.resize(pool.len(), (0, 0));
        }
        s.hist.clear();
        for &slot in slots {
            let t = TupleId(u64::from(slot));
            let Ok(sym) = table.sym_at(t, *attr) else { continue };
            let w = cost.weight(t, *attr);
            let seen = &mut s.seen[sym.index()];
            if seen.0 == s.stamp {
                s.hist[seen.1 as usize].1 += w;
            } else {
                *seen = (s.stamp, s.hist.len() as u32);
                s.hist.push((sym, w));
            }
        }
        s.hist.sort_by(|x, y| pool.value(x.0).cmp(pool.value(y.0)));
        let c = s.hist.len();
        stats.distinct_values += c as u64;
        if c == 0 {
            return None;
        }
        let p = (1..c).fold(0, |p, i| if s.hist[i].1 > s.hist[p].1 { i } else { p });
        let (vp, wp) = (pool.value(s.hist[p].0), s.hist[p].1);
        s.to_heaviest.clear();
        let mut total_p = 0.0;
        for (i, &(sym, w)) in s.hist.iter().enumerate() {
            // Operands in `hist` order, as the pair loop below takes them.
            let d = match i.cmp(&p) {
                Ordering::Less => s.distance.value_distance(pool.value(sym), vp),
                Ordering::Equal => 0.0,
                Ordering::Greater => s.distance.value_distance(vp, pool.value(sym)),
            };
            if i != p {
                total_p += w * d;
            }
            s.to_heaviest.push(d);
        }
        stats.distances_computed += c as u64 - 1;
        s.dead.clear();
        s.dead.extend(s.to_heaviest.iter().map(|&d| wp.is_finite() && wp * d > total_p));
        s.totals.clear();
        s.totals.resize(c, 0.0);
        for i in 0..c {
            let (vi, wi) = (pool.value(s.hist[i].0), s.hist[i].1);
            for j in i + 1..c {
                if s.dead[i] && s.dead[j] {
                    continue;
                }
                let wj = s.hist[j].1;
                let d = if i == p {
                    s.to_heaviest[j]
                } else if j == p {
                    s.to_heaviest[i]
                } else {
                    stats.distances_computed += 1;
                    s.distance.value_distance(vi, pool.value(s.hist[j].0))
                };
                s.totals[i] += wj * d;
                s.totals[j] += wi * d;
            }
        }
        let mut best: Option<usize> = None;
        for (i, total) in s.totals.iter().enumerate() {
            match best {
                _ if s.dead[i] => {}
                Some(b) if s.totals[b] <= *total => {}
                _ => best = Some(i),
            }
        }
        best.map(|i| s.hist[i].0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::value_distance;
    use revival_relation::{Schema, Type};

    fn cell(t: u64, a: usize) -> Cell {
        (TupleId(t), a)
    }

    /// Are two tuples' cells in the same class? (Names both.)
    fn same(eq: &mut EquivClasses, a: u64, b: u64) -> bool {
        let (ia, ib) = (eq.node(TupleId(a)).0, eq.node(TupleId(b)).0);
        eq.find(ia) == eq.find(ib)
    }

    /// The pin of a tuple's class. (Names it.)
    fn pinned_value(eq: &mut EquivClasses, t: u64) -> Option<Value> {
        let i = eq.node(TupleId(t)).0;
        let r = eq.find(i);
        eq.pin_of(r).cloned()
    }

    /// The classes as cell lists on `attr`, the form the cell-keyed
    /// structure grouped them in.
    fn as_cells(classes: &Classes, attr: usize) -> Vec<(Vec<Cell>, Option<Value>)> {
        let cells = |slots: &[u32]| slots.iter().map(|&s| cell(u64::from(s), attr)).collect();
        classes.iter().map(|(slots, pin)| (cells(slots), pin.cloned())).collect()
    }

    #[test]
    fn union_find_basic() {
        let mut eq = EquivClasses::new(3);
        assert!(!same(&mut eq, 0, 1));
        eq.union(TupleId(0), TupleId(1));
        assert!(same(&mut eq, 0, 1));
        eq.union(TupleId(1), TupleId(2));
        assert!(same(&mut eq, 0, 2));
        assert_eq!(eq.groups().len(), 1);
    }

    #[test]
    fn pin_conflicts_detected() {
        let mut eq = EquivClasses::new(4);
        assert!(eq.pin(TupleId(0), "x".into()));
        assert!(eq.pin(TupleId(0), "x".into()));
        assert!(!eq.pin(TupleId(0), "y".into()));
        // Union with a differently-pinned class fails.
        assert!(eq.pin(TupleId(1), "y".into()));
        assert!(!eq.union(TupleId(0), TupleId(1)));
        // Union propagates pins.
        eq.union(TupleId(2), TupleId(3));
        assert!(eq.pin(TupleId(2), "z".into()));
        assert_eq!(pinned_value(&mut eq, 3), Some("z".into()));
    }

    #[test]
    fn groups_partition_cells() {
        let mut eq = EquivClasses::new(5);
        eq.union(TupleId(3), TupleId(1));
        eq.pin(TupleId(2), "c".into());
        let groups = eq.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups.iter().collect::<Vec<_>>(),
            [(&[1, 3][..], None), (&[2][..], Some(&"c".into()))]
        );
    }

    /// One class of one attribute, as its repair would have it.
    fn class_of(cells: &[Cell], pinned: Option<Value>) -> (Classes, usize) {
        let attr = cells.first().map_or(0, |c| c.1);
        assert!(cells.iter().all(|c| c.1 == attr), "one attribute per class");
        let slots: Vec<u32> = cells.iter().map(|c| c.0 .0 as u32).collect();
        let bounds = vec![0, slots.len() as u32];
        (Classes { slots, bounds, pins: vec![pinned] }, attr)
    }

    /// One class through the public entry point: the value its cells
    /// take — the target's, or the pin's where the pool lacks it.
    fn resolve_one(
        cells: &[Cell],
        pinned: Option<Value>,
        table: &Table,
        cost: &CostModel,
    ) -> (Value, ResolveStats) {
        let (classes, attr) = class_of(cells, pinned.clone());
        let resolved = Resolvers::new(1).resolve(&classes, attr, table, cost);
        let value = match resolved.targets[0] {
            Some(sym) => table.pool().value(sym).clone(),
            None => pinned.unwrap_or(Value::Null),
        };
        (value, resolved.stats)
    }

    /// The per-cell formulation the histogram resolver replaced, kept
    /// as its oracle: each candidate (distinct member value, in `Value`
    /// order) with Σ weight · distance over the member *cells*, in cell
    /// order — k·c distance calls.
    fn reference_totals(cells: &[Cell], table: &Table, cost: &CostModel) -> Vec<(Value, f64)> {
        let mut candidates: Vec<Value> = Vec::new();
        let mut current: Vec<(Cell, Value)> = Vec::new();
        for &c in cells {
            if let Ok(v) = table.value_at(c.0, c.1) {
                if !candidates.contains(v) {
                    candidates.push(v.clone());
                }
                current.push((c, v.clone()));
            }
        }
        candidates.sort();
        candidates
            .into_iter()
            .map(|cand| {
                let total: f64 = current
                    .iter()
                    .map(|((t, a), v)| cost.weight(*t, *a) * value_distance(v, &cand))
                    .sum();
                (cand, total)
            })
            .collect()
    }

    /// The oracle's pick: the first minimum in `Value` order.
    fn reference_value(totals: &[(Value, f64)]) -> Value {
        let mut best: Option<&(Value, f64)> = None;
        for entry in totals {
            match best {
                Some(b) if b.1 <= entry.1 => {}
                _ => best = Some(entry),
            }
        }
        best.map_or(Value::Null, |b| b.0.clone())
    }

    /// What the all-pairs resolver made of one unpinned class.
    pub(crate) struct AllPairs {
        /// The first value of least total, in `Value` order.
        pub(crate) target: Option<Value>,
        /// That value's total.
        pub(crate) total: f64,
        /// The heaviest value (the first on a tie).
        pub(crate) heaviest: Option<Value>,
        /// Distinct member values: c.
        pub(crate) values: u64,
        /// Values the heaviest one prices out: |D|.
        pub(crate) dead: u64,
        /// Values the heaviest one prices out *or* meets exactly — what
        /// a `>=` bound would kill — that are the target.
        pub(crate) boundary_target: bool,
    }

    /// The resolver before the bound, over a histogram of its own: a
    /// value's weight summed in cell order, every one of the c(c−1)/2
    /// pairs priced, `totals[j]` accumulated over the others in `Value`
    /// order, the first minimum picked — the bounded resolver's oracle.
    /// It also names the dead set D the bound should find: the values
    /// i ≠ p with `w_p · d(i, p) > T_p`.
    pub(crate) fn all_pairs(cells: &[Cell], table: &Table, cost: &CostModel) -> AllPairs {
        use std::collections::btree_map::{BTreeMap, Entry};
        let mut hist: BTreeMap<Value, f64> = BTreeMap::new();
        for &(t, a) in cells {
            if let Ok(v) = table.value_at(t, a) {
                let w = cost.weight(t, a);
                match hist.entry(v.clone()) {
                    Entry::Vacant(e) => drop(e.insert(w)),
                    Entry::Occupied(mut e) => *e.get_mut() += w,
                }
            }
        }
        let hist: Vec<(Value, f64)> = hist.into_iter().collect();
        let c = hist.len();
        let mut totals = vec![0.0; c];
        for i in 0..c {
            for j in i + 1..c {
                let d = value_distance(&hist[i].0, &hist[j].0);
                totals[i] += hist[j].1 * d;
                totals[j] += hist[i].1 * d;
            }
        }
        let mut best: Option<usize> = None;
        for (i, total) in totals.iter().enumerate() {
            match best {
                Some(b) if totals[b] <= *total => {}
                _ => best = Some(i),
            }
        }
        let mut heaviest: Option<usize> = None;
        for (i, (_, w)) in hist.iter().enumerate() {
            if heaviest.is_none_or(|p| *w > hist[p].1) {
                heaviest = Some(i);
            }
        }
        let (mut dead, mut boundary_target) = (0, false);
        if let Some(p) = heaviest {
            let wp = hist[p].1;
            for i in (0..c).filter(|&i| i != p) {
                let term = wp * value_distance(&hist[i].0, &hist[p].0);
                if wp.is_finite() && term > totals[p] {
                    dead += 1;
                }
                boundary_target |= Some(i) == best && term >= totals[p];
            }
        }
        AllPairs {
            target: best.map(|b| hist[b].0.clone()),
            total: best.map_or(0.0, |b| totals[b]),
            heaviest: heaviest.map(|p| hist[p].0.clone()),
            values: c as u64,
            dead,
            boundary_target,
        }
    }

    /// 2 000+ random classes — a dominant value and its typos, a heavy
    /// outlier against a tight cluster, ints that collapse to one
    /// float (distance 0 between distinct values), zero and per-cell
    /// weights, pins, non-ASCII — through one reused resolver per
    /// table: the bounded resolver picks the all-pairs oracle's target
    /// at the same total, to the bit, and makes exactly the distance
    /// evaluations the dead set leaves, c(c−1)/2 − |D|(|D|−1)/2.
    #[test]
    fn bounded_resolver_equals_all_pairs() {
        let mut x = 0x9d2c5680u64 ^ 0xefc6_0000_0000;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let words = [
            "main street",
            "maim street",
            "main stret",
            "mian street",
            "main streets",
            "oak avenue",
            "oak avnue",
            "elm",
            "",
            "élan vital",
            "elan vital",
            "éaln vital",
            "zürich",
            "zurich",
        ];
        const TWO_53: i64 = 1 << 53;
        let ints = [100, 107, 93, TWO_53, TWO_53 + 1, TWO_53 + 2, -5, 1_000_000];
        let weights = [0.0, 0.1, 0.25, 0.5, 1.0, 1.0, 1.3, 2.0, 3.7, 5.0];
        let s = Schema::builder("r").attr("s", Type::Str).attr("n", Type::Int).build();
        #[derive(Debug, Default)]
        struct Seen {
            classes: u64,
            pinned: u64,
            heaviest_lost: u64,
            ties: u64,
            boundary: u64,
            pruned: u64,
            cell_weights: u64,
            non_ascii: u64,
        }
        let mut seen = Seen::default();
        for round in 0..700 {
            let mut t = Table::new(s.clone());
            let mut cost = CostModel::uniform(2);
            cost.set_attr_weight(0, weights[next(weights.len())]);
            cost.set_attr_weight(1, weights[next(weights.len())]);
            let mut classes = Vec::new();
            for _ in 0..1 + next(5) {
                let attr = next(2);
                let vocabulary = 1 + next(if attr == 0 { words.len() } else { ints.len() });
                let offset = next(words.len());
                let dominant = next(3) != 0;
                // Distinct ints one float apart: every pair at distance 0.
                let collapsed = attr == 1 && next(4) == 0;
                let mut per_cell = false;
                let cells: Vec<Cell> = (0..1 + next(30))
                    .map(|_| {
                        // Skewed towards the first pick when a value dominates.
                        let pick = if dominant {
                            next(vocabulary).min(next(vocabulary))
                        } else {
                            next(vocabulary)
                        };
                        let word = words[(offset + pick) % words.len()];
                        let id = t
                            .push(vec![
                                Value::from(word),
                                Value::Int(if collapsed {
                                    TWO_53 + (pick % 2) as i64
                                } else {
                                    ints[pick % ints.len()]
                                }),
                            ])
                            .unwrap();
                        if next(6) == 0 {
                            cost.set_cell_weight(id, attr, weights[next(weights.len())] * 4.0);
                            per_cell = true;
                        }
                        (id, attr)
                    })
                    .collect();
                let pinned = (next(12) == 0).then(|| Value::from("pinned"));
                classes.push((cells, pinned, per_cell));
            }
            let mut scratch = ResolveScratch::default();
            let mut stats = ResolveStats::default();
            for (cells, pinned, per_cell) in &classes {
                let (class, attr) = class_of(cells, pinned.clone());
                let mut resolver =
                    Resolver { table: &t, cost: &cost, attr, s: &mut scratch, stats };
                let got = resolver.resolve(class.class(0), class.pin(0));
                let before = std::mem::replace(&mut stats, resolver.stats);
                let spent = stats.distances_computed - before.distances_computed;
                seen.classes += 1;
                let pool = t.pool();
                if let Some(pin) = pinned {
                    assert_eq!(got, pool.lookup(pin), "round {round}");
                    assert_eq!(spent, 0, "round {round}");
                    seen.pinned += 1;
                    continue;
                }
                let oracle = all_pairs(cells, &t, &cost);
                let got = got.map(|sym| pool.value(sym).clone());
                assert_eq!(got, oracle.target, "round {round}: {cells:?}");
                let got = got.unwrap();
                let at = scratch.hist.iter().position(|(sym, _)| *pool.value(*sym) == got).unwrap();
                assert_eq!(
                    scratch.totals[at].to_bits(),
                    oracle.total.to_bits(),
                    "round {round}: {got:?} priced {} against {}",
                    scratch.totals[at],
                    oracle.total
                );
                let (c, d) = (oracle.values, oracle.dead);
                assert_eq!(stats.distinct_values - before.distinct_values, c, "round {round}");
                assert_eq!(spent, c * (c - 1) / 2 - d * d.saturating_sub(1) / 2, "round {round}");
                let minima = scratch
                    .hist
                    .iter()
                    .zip(&scratch.totals)
                    .zip(&scratch.dead)
                    .filter(|((_, total), dead)| {
                        !**dead && total.to_bits() == oracle.total.to_bits()
                    })
                    .count();
                seen.heaviest_lost += u64::from(oracle.heaviest != oracle.target);
                seen.ties += u64::from(minima > 1);
                seen.boundary += u64::from(oracle.boundary_target);
                seen.pruned += u64::from(d > 1);
                seen.cell_weights += u64::from(*per_cell);
                seen.non_ascii += u64::from(
                    cells.iter().any(|&(id, a)| !t.value_at(id, a).unwrap().to_string().is_ascii()),
                );
            }
        }
        let Seen {
            classes,
            pinned,
            heaviest_lost,
            ties,
            boundary,
            pruned,
            cell_weights,
            non_ascii,
        } = seen;
        assert!(classes >= 2_000, "{seen:?}");
        for (what, n) in [
            ("pinned", pinned),
            ("heaviest lost", heaviest_lost),
            ("tie", ties),
            ("target on the bound", boundary),
            ("two or more dead", pruned),
            ("per-cell weight", cell_weights),
            ("non-ASCII", non_ascii),
        ] {
            assert!(n >= 20, "{n} class(es) with a {what}: {seen:?}");
        }
    }

    /// Two cells of the largest finite weight sum to an infinite class
    /// weight, and `∞ · 0` to a NaN total: the bound must then kill
    /// nothing, or the pick would skip a value the all-pairs scan picks.
    #[test]
    fn an_overflowing_class_weight_kills_nothing() {
        const TWO_53: i64 = 1 << 53;
        let s = Schema::builder("r").attr("n", Type::Int).build();
        let mut t = Table::new(s);
        let mut cost = CostModel::uniform(1);
        let mut cells = Vec::new();
        for n in [TWO_53, TWO_53, TWO_53 + 1, 2 * TWO_53] {
            let id = t.push(vec![Value::Int(n)]).unwrap();
            if n == TWO_53 {
                cost.set_cell_weight(id, 0, f64::MAX);
            }
            cells.push((id, 0));
        }
        let oracle = all_pairs(&cells, &t, &cost);
        assert_eq!(oracle.dead, 0);
        let (got, stats) = resolve_one(&cells, None, &t, &cost);
        assert_eq!(Some(got), oracle.target);
        assert_eq!(stats.distances_computed, 3);
    }

    #[test]
    fn resolve_prefers_plurality() {
        let s = Schema::builder("r").attr("a", Type::Str).build();
        let mut t = Table::new(s);
        let i0 = t.push(vec!["main st".into()]).unwrap();
        let i1 = t.push(vec!["main st".into()]).unwrap();
        let i2 = t.push(vec!["maim st".into()]).unwrap();
        let cost = CostModel::uniform(1);
        let cells = vec![(i0, 0), (i1, 0), (i2, 0)];
        let (v, _) = resolve_one(&cells, None, &t, &cost);
        assert_eq!(v, Value::from("main st"));
    }

    #[test]
    fn resolve_respects_pin_and_weights() {
        let s = Schema::builder("r").attr("a", Type::Str).build();
        let mut t = Table::new(s);
        let i0 = t.push(vec!["aaa".into()]).unwrap();
        let i1 = t.push(vec!["bbb".into()]).unwrap();
        let cells = vec![(i0, 0), (i1, 0)];
        let mut cost = CostModel::uniform(1);
        // An exact tie goes to the smallest value.
        let (v, _) = resolve_one(&cells, None, &t, &cost);
        assert_eq!(v, Value::from("aaa"));
        // Pin wins outright, without a single distance evaluation.
        let (v, stats) = resolve_one(&cells, Some("ccc".into()), &t, &cost);
        assert_eq!(v, Value::from("ccc"));
        assert_eq!(
            stats,
            ResolveStats { classes: 1, class_cells: 2, distinct_values: 0, distances_computed: 0 }
        );
        // Heavier cell drags the class to its value.
        cost.set_cell_weight(i1, 0, 10.0);
        let (v, _) = resolve_one(&cells, None, &t, &cost);
        assert_eq!(v, Value::from("bbb"));
    }

    /// The work-count guard (repair's `scans_once_per_embedded_fd`): a
    /// class pays for its distinct values, not its cells.
    #[test]
    fn thousand_cells_over_ten_values_take_45_distances() {
        let s = Schema::builder("r").attr("a", Type::Str).build();
        let mut t = Table::new(s);
        let cells: Vec<Cell> = (0..1000)
            .map(|i| (t.push(vec![Value::str(format!("value {}", i % 10))]).unwrap(), 0))
            .collect();
        let (_, stats) = resolve_one(&cells, None, &t, &CostModel::uniform(1));
        assert_eq!(
            stats,
            ResolveStats {
                classes: 1,
                class_cells: 1000,
                distinct_values: 10,
                distances_computed: 45
            }
        );
    }

    /// Random classes — strings a typo apart, unrelated strings,
    /// non-ASCII, numbers — under random attribute weights, per-cell
    /// overrides and pins: the histogram resolver returns the per-cell
    /// oracle's value, or one the oracle prices within float rounding
    /// of its minimum (the two sum in different orders).
    #[test]
    fn histogram_resolver_matches_per_cell_oracle() {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let words = [
            "main street",
            "maim street",
            "main stret",
            "mian street",
            "oak avenue",
            "oak avnue",
            "elm",
            "",
            "élan vital",
            "elan vital",
            "éaln vital",
            "zürich",
            "zurich",
        ];
        let weights = [0.1, 0.25, 0.5, 1.0, 1.3, 2.0, 3.7, 5.0];
        let s = Schema::builder("r").attr("s", Type::Str).attr("n", Type::Int).build();
        for round in 0..400 {
            let mut t = Table::new(s.clone());
            let mut cost = CostModel::uniform(2);
            cost.set_attr_weight(0, weights[next(weights.len())]);
            cost.set_attr_weight(1, weights[next(weights.len())]);
            let attr = next(2);
            let vocabulary = 1 + next(8);
            let cells: Vec<Cell> = (0..1 + next(40))
                .map(|_| {
                    let pick = next(vocabulary);
                    let id = t
                        .push(vec![Value::from(words[pick]), Value::Int(100 + 7 * pick as i64)])
                        .unwrap();
                    if next(10) == 0 {
                        cost.set_cell_weight(id, attr, weights[next(weights.len())]);
                    }
                    (id, attr)
                })
                .collect();
            let pinned = (next(10) == 0).then(|| Value::from("pinned"));
            let totals = reference_totals(&cells, &t, &cost);
            let want = pinned.clone().unwrap_or_else(|| reference_value(&totals));
            let (got, stats) = resolve_one(&cells, pinned.clone(), &t, &cost);
            if got != want {
                let priced =
                    |v: &Value| totals.iter().find(|(c, _)| c == v).map(|(_, total)| *total);
                let (got_total, want_total) = (priced(&got), priced(&want));
                assert!(
                    matches!((got_total, want_total), (Some(g), Some(w)) if (g - w).abs() <= 1e-9),
                    "round {round}: got {got:?} ({got_total:?}), oracle {want:?} ({want_total:?})"
                );
            }
            let (c, d) = match pinned {
                Some(_) => (0, 0),
                None => {
                    let oracle = all_pairs(&cells, &t, &cost);
                    (oracle.values, oracle.dead)
                }
            };
            assert_eq!(stats.distinct_values, c, "round {round}");
            assert_eq!(
                stats.distances_computed,
                c * c.saturating_sub(1) / 2 - d * d.saturating_sub(1) / 2,
                "round {round}"
            );
        }
    }

    #[test]
    fn sharded_resolution_matches_sequential() {
        let s = Schema::builder("r").attr("a", Type::Str).build();
        let mut t = Table::new(s);
        let mut ids = Vec::new();
        for i in 0..60 {
            ids.push(t.push(vec![Value::str(format!("v{}", i % 7))]).unwrap());
        }
        // 20 classes of 3 cells each: one pinned to a value the pool
        // lacks, one to a value it holds.
        let mut eq = EquivClasses::new(t.slots());
        for (g, c) in ids.chunks(3).enumerate() {
            eq.union_all(c[0], c[1..].iter().copied(), |t| panic!("{t} refused"));
            match g {
                4 => assert!(eq.pin(c[0], "pinned".into())),
                9 => assert!(eq.pin(c[2], "v3".into())),
                _ => {}
            }
        }
        let classes = eq.groups();
        let cost = CostModel::uniform(1);
        let sequential = Resolvers::new(1).resolve(&classes, 0, &t, &cost);
        for jobs in [2, 3, 4, 7, 32] {
            let sharded = Resolvers::new(jobs).resolve(&classes, 0, &t, &cost);
            assert_eq!(sharded.targets, sequential.targets, "jobs={jobs}");
            assert_eq!(sharded.stats, sequential.stats, "jobs={jobs}");
            assert_eq!(sharded.shard_us.len(), jobs.min(20), "jobs={jobs}");
        }
        assert_eq!(sequential.targets[4], None);
        assert_eq!(sequential.targets[9], t.pool().lookup(&"v3".into()));
        assert!(sequential.targets.iter().enumerate().all(|(g, s)| g == 4 || s.is_some()));
        assert_eq!(sequential.stats.classes, 20);
    }

    #[test]
    fn pins_and_unions_commute() {
        let chain = [(0, 1), (1, 2), (3, 4), (2, 3), (7, 8)];
        let t = |slot| TupleId(slot);
        let mut pin_first = EquivClasses::new(9);
        assert!(pin_first.pin(t(4), "p".into()));
        assert!(pin_first.pin(t(8), "q".into()));
        let mut union_first = EquivClasses::new(9);
        for (a, b) in chain {
            assert!(pin_first.union(t(a), t(b)));
            assert!(union_first.union(t(b), t(a)));
        }
        assert!(union_first.pin(t(0), "p".into()));
        assert!(union_first.pin(t(7), "q".into()));
        let groups = pin_first.groups();
        assert_eq!(groups, union_first.groups());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.pin(0), Some(&"p".into()));
        // Either way the two classes now refuse each other.
        assert!(!pin_first.union(t(0), t(8)));
        assert!(!union_first.union(t(0), t(8)));
    }

    /// `union_all` is `union(first, t)` per member: same classes, and
    /// `conflict` sees exactly the members `union` would have refused.
    #[test]
    fn union_all_is_a_union_per_member() {
        let build = || {
            let mut eq = EquivClasses::new(14);
            eq.union(TupleId(5), TupleId(6));
            assert!(eq.pin(TupleId(6), "x".into()));
            assert!(eq.pin(TupleId(3), "y".into()));
            assert!(eq.pin(TupleId(9), "x".into()));
            eq
        };
        // Fresh slots (10–13) between pinned and seen ones, one twice.
        let members = [10, 1, 5, 11, 3, 12, 2, 9, 13, 1, 11].map(TupleId);
        let mut one_by_one = build();
        let refused: Vec<TupleId> =
            members.iter().copied().filter(|&t| !one_by_one.union(TupleId(0), t)).collect();
        let mut at_once = build();
        let mut conflicts = Vec::new();
        at_once.union_all(TupleId(0), members, |t| conflicts.push(t));
        assert_eq!(conflicts, refused);
        assert_eq!(conflicts, [TupleId(3)]);
        assert_eq!(at_once.groups(), one_by_one.groups());
        // Node for node the same forest: a fresh slot hangs where `link`
        // would have hung it.
        assert_eq!(at_once.parent, one_by_one.parent);
        assert_eq!(at_once.size, one_by_one.size);
        assert_eq!(at_once.pin, one_by_one.pin);
        assert_eq!(at_once.pins, one_by_one.pins);
    }

    /// The structure this one replaced: a node per cell, found through a
    /// per-attribute slot index, with the cells, parents, sizes and pins
    /// each in a vector of their own, and `groups()` a list per class,
    /// sorted.
    mod oracle {
        use super::Cell;
        use revival_relation::Value;

        #[derive(Default)]
        pub struct CellClasses {
            /// Per attribute, per slot: the cell's node + 1, or 0 while unseen.
            index: Vec<Vec<u32>>,
            /// Each node's cell, in first-seen order.
            cells: Vec<Cell>,
            parent: Vec<usize>,
            size: Vec<usize>,
            /// A class may be pinned to a constant (by a constant-CFD
            /// resolution); pins win over plurality resolution.
            pinned: Vec<Option<Value>>,
        }

        impl CellClasses {
            /// Empty structure.
            pub fn new() -> Self {
                Self::default()
            }

            fn intern(&mut self, c: Cell) -> usize {
                self.node(c).0
            }

            /// The cell's node, and whether this call created it.
            fn node(&mut self, c: Cell) -> (usize, bool) {
                let (slot, attr) = (c.0 .0 as usize, c.1);
                if self.index.len() <= attr {
                    self.index.resize_with(attr + 1, Vec::new);
                }
                let column = &mut self.index[attr];
                if column.len() <= slot {
                    column.resize(slot + 1, 0);
                }
                let fresh = column[slot] == 0;
                if fresh {
                    self.cells.push(c);
                    column[slot] =
                        u32::try_from(self.cells.len()).expect("under 2^32 cells in classes");
                    self.parent.push(self.cells.len() - 1);
                    self.size.push(1);
                    self.pinned.push(None);
                }
                (column[slot] as usize - 1, fresh)
            }

            fn find(&mut self, mut i: usize) -> usize {
                while self.parent[i] != i {
                    self.parent[i] = self.parent[self.parent[i]];
                    i = self.parent[i];
                }
                i
            }

            /// Merge two classes given by their roots: the merged class's root,
            /// or `None` if they are pinned to different constants.
            fn link(&mut self, ra: usize, rb: usize) -> Option<usize> {
                if ra == rb {
                    return Some(ra);
                }
                match (&self.pinned[ra], &self.pinned[rb]) {
                    (Some(x), Some(y)) if x != y => return None,
                    _ => {}
                }
                let (big, small) = if self.size[ra] >= self.size[rb] { (ra, rb) } else { (rb, ra) };
                self.parent[small] = big;
                self.size[big] += self.size[small];
                if self.pinned[big].is_none() {
                    self.pinned[big] = self.pinned[small].take();
                }
                Some(big)
            }

            /// Merge the classes of two cells. Returns `false` if both classes
            /// were pinned to *different* constants (a genuine conflict the
            /// caller must resolve another way).
            pub fn union(&mut self, a: Cell, b: Cell) -> bool {
                let (ia, ib) = (self.intern(a), self.intern(b));
                let (ra, rb) = (self.find(ia), self.find(ib));
                self.link(ra, rb).is_some()
            }

            /// `CellClasses::union` of `first` with each cell of `rest` in
            /// turn — one violation group — following `first`'s root through
            /// the merges instead of finding it again per member. `conflict`
            /// gets each cell a union refused.
            ///
            /// A member cell never seen before is an unpinned singleton, never
            /// larger than the running class, so `link` would hang it straight
            /// under the running root: it goes there without a `find` or a
            /// `link`.
            pub fn union_all(
                &mut self,
                first: Cell,
                rest: impl IntoIterator<Item = Cell>,
                mut conflict: impl FnMut(Cell),
            ) {
                let first = self.intern(first);
                let mut root = self.find(first);
                for c in rest {
                    let (i, fresh) = self.node(c);
                    if fresh {
                        self.parent[i] = root;
                        self.size[root] += 1;
                        continue;
                    }
                    let r = self.find(i);
                    match self.link(root, r) {
                        Some(merged) => root = merged,
                        None => conflict(c),
                    }
                }
            }

            /// Pin a cell's class to a constant. Returns `false` on conflict
            /// with an existing different pin.
            pub fn pin(&mut self, c: Cell, v: Value) -> bool {
                let i = self.intern(c);
                let r = self.find(i);
                match &self.pinned[r] {
                    Some(existing) if *existing != v => false,
                    _ => {
                        self.pinned[r] = Some(v);
                        true
                    }
                }
            }

            /// Group all interned cells by class root: each class's cells
            /// sorted, the classes sorted — an order independent of the order
            /// the cells arrived in.
            pub fn groups(&mut self) -> Vec<(Vec<Cell>, Option<Value>)> {
                const UNSEEN: usize = usize::MAX;
                let mut group_of_root = vec![UNSEEN; self.cells.len()];
                let mut out: Vec<(Vec<Cell>, Option<Value>)> = Vec::new();
                for i in 0..self.cells.len() {
                    let r = self.find(i);
                    if group_of_root[r] == UNSEEN {
                        group_of_root[r] = out.len();
                        out.push((Vec::new(), self.pinned[r].clone()));
                    }
                    out[group_of_root[r]].0.push(self.cells[i]);
                }
                for (cells, _) in &mut out {
                    cells.sort_unstable();
                }
                out.sort();
                out
            }
        }
    }
    use oracle::CellClasses;

    /// Seeded streams of `union_all`, `union` and `pin` over random
    /// slots of one attribute, through the slot structure and the
    /// cell-keyed one it replaced: every `union` and `pin` answers the
    /// same, every `union_all` refuses the same members in the same
    /// order, and `groups()` — members, order and pins — agrees after
    /// each stream and midway through it. The streams reach refused
    /// unions, refused pins and merges that carry a pin.
    #[test]
    fn slot_classes_agree_with_the_cell_keyed_oracle() {
        const ATTR: usize = 3;
        let mut x = 0x51f1_5eedu64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let values = ["p", "q", "r"];
        let (mut refused_unions, mut refused_pins, mut carried, mut multi) = (0, 0, 0, 0);
        for seed in 0..600 {
            let slots = 1 + next(48);
            let mut eq = EquivClasses::new(slots);
            let mut oracle = CellClasses::new();
            for op in 0..1 + next(64) {
                match next(8) {
                    0..=3 => {
                        let first = TupleId(next(slots) as u64);
                        let members: Vec<TupleId> =
                            (0..next(6)).map(|_| TupleId(next(slots) as u64)).collect();
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        eq.union_all(first, members.iter().copied(), |t| got.push(t));
                        oracle.union_all((first, ATTR), members.iter().map(|&t| (t, ATTR)), |c| {
                            want.push(c.0)
                        });
                        assert_eq!(got, want, "seed {seed} op {op}: union_all refusals");
                        refused_unions += got.len();
                    }
                    4 | 5 => {
                        let (a, b) = (TupleId(next(slots) as u64), TupleId(next(slots) as u64));
                        let got = eq.union(a, b);
                        assert_eq!(got, oracle.union((a, ATTR), (b, ATTR)), "seed {seed} op {op}");
                        refused_unions += usize::from(!got);
                    }
                    _ => {
                        let (t, v) =
                            (TupleId(next(slots) as u64), Value::from(values[next(values.len())]));
                        let got = eq.pin(t, v.clone());
                        assert_eq!(got, oracle.pin((t, ATTR), v), "seed {seed} op {op}: pin");
                        refused_pins += usize::from(!got);
                    }
                }
                if op == 16 {
                    assert_eq!(as_cells(&eq.groups(), ATTR), oracle.groups(), "seed {seed} midway");
                }
            }
            let groups = eq.groups();
            assert_eq!(as_cells(&groups, ATTR), oracle.groups(), "seed {seed}");
            // A pinned class of two or more slots holds a slot the pin
            // did not name (or merged under a pinned one).
            carried += groups.iter().filter(|(s, pin)| pin.is_some() && s.len() > 1).count();
            multi += usize::from(groups.len() > 1);
        }
        for (what, n) in [
            ("refused union", refused_unions),
            ("refused pin", refused_pins),
            ("pinned class of two or more", carried),
            ("stream with two or more classes", multi),
        ] {
            assert!(n >= 200, "only {n} {what}(s)");
        }
    }

    /// The hospital report's classes — unions and pins over three RHS
    /// attributes, one structure each — group exactly as they did under
    /// the hashed cell index two structures before this one: the count,
    /// the member cells and the FNV-1a of the `Debug` text of every
    /// attribute's classes as cell lists, sorted together, were
    /// recorded on that parent.
    #[test]
    fn hospital_groups_are_what_the_hashed_index_gave() {
        use revival_constraints::cfd::merge_by_embedded_fd;
        use revival_constraints::pattern::PatternValue;
        use revival_detect::{DetectJob, Detector, NativeEngine, Violation};
        use revival_dirty::hospital::{attrs as h, generate, standard_cfds, HospitalConfig};
        use revival_dirty::noise::{inject, NoiseConfig};
        use std::collections::BTreeMap;

        let data = generate(&HospitalConfig { rows: 12_000, seed: 11, ..Default::default() });
        let noise = NoiseConfig::new(0.05, vec![h::STATE, h::MEASURE_NAME, h::HNAME], 11 ^ 0x405b);
        let dirty = inject(&data.table, &noise).dirty;
        let cfds = merge_by_embedded_fd(&standard_cfds(&data.schema));
        let report = NativeEngine.run(&DetectJob::on_table(&dirty, &cfds)).unwrap();
        let mut by_attr: BTreeMap<usize, EquivClasses> = BTreeMap::new();
        let slots = dirty.slots();
        let (mut unions, mut pins) = (0, 0);
        for v in &report.violations {
            match v {
                Violation::CfdVariable { cfd, tuples, .. } => {
                    let attr = cfds[*cfd].rhs;
                    let eq = by_attr.entry(attr).or_insert_with(|| EquivClasses::new(slots));
                    for &t in &tuples[1..] {
                        assert!(eq.union(tuples[0], t));
                        unions += 1;
                    }
                }
                Violation::CfdConstant { cfd, row, tuple } => {
                    let cfd = &cfds[*cfd];
                    if let PatternValue::Const(c) = &cfd.tableau[*row].rhs {
                        let eq = by_attr.entry(cfd.rhs).or_insert_with(|| EquivClasses::new(slots));
                        eq.pin(*tuple, c.clone());
                        pins += 1;
                    }
                }
                Violation::CindMissingWitness { .. } => {}
            }
        }
        let mut groups: Vec<(Vec<Cell>, Option<Value>)> =
            by_attr.iter_mut().flat_map(|(&attr, eq)| as_cells(&eq.groups(), attr)).collect();
        groups.sort();
        let cells: usize = groups.iter().map(|(cells, _)| cells.len()).sum();
        let text = format!("{groups:?}");
        let fnv = text
            .bytes()
            .fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
        assert_eq!((unions, pins, groups.len(), cells), (47_123, 155, 222, 35_655));
        assert_eq!(
            by_attr.keys().copied().collect::<Vec<_>>(),
            [h::HNAME, h::STATE, h::MEASURE_NAME]
        );
        assert_eq!(fnv, 0xee03_fd25_4ec3_848b, "groups() moved");
    }
}
