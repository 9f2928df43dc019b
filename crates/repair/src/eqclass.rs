//! Union-find over cells, with per-class value resolution.
//!
//! Variable-CFD violations assert "these RHS cells must hold the same
//! value". Rather than picking pairwise winners, Cong et al. merge such
//! cells into equivalence classes and later assign each class one
//! *target value* minimising the weighted cost of changing all member
//! cells — preserving the plurality value in the common case.
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

/// A cell identified by `(tuple, attribute)`.
pub type Cell = (TupleId, usize);

/// Union-find over cells with path compression and union by size.
///
/// A tuple id *is* a slot index and an attribute a column position, so
/// a cell finds its node by `[attribute][slot]` in a dense index — no
/// hashing, four bytes per slot up to the highest one seen, and only
/// for the attributes some cell named.
#[derive(Default)]
pub struct EquivClasses {
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

impl EquivClasses {
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
            column[slot] = u32::try_from(self.cells.len()).expect("under 2^32 cells in classes");
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

    /// [`EquivClasses::union`] of `first` with each cell of `rest` in
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

    /// The pinned value of a cell's class, if any.
    pub fn pinned_value(&mut self, c: Cell) -> Option<Value> {
        let i = self.intern(c);
        let r = self.find(i);
        self.pinned[r].clone()
    }

    /// Are two cells in the same class?
    pub fn same(&mut self, a: Cell, b: Cell) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.find(ia) == self.find(ib)
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

    /// Resolve the target value of every class in `groups`, sharding the
    /// classes across `jobs` scoped threads.
    ///
    /// Each class resolves independently (a worker only reads the table
    /// and cost model), so the group list is split into contiguous
    /// chunks, one worker per chunk, and the per-chunk results
    /// concatenate in chunk order — the targets are positionally
    /// aligned with `groups` and *identical* to what a sequential loop
    /// computes, at any shard count, and so are the work counts. This
    /// is the repair counterpart of the detection sharding in
    /// `revival_detect::parallel`, on the same
    /// [`revival_relation::map_chunks`].
    pub fn resolve_targets(
        groups: &[(Vec<Cell>, Option<Value>)],
        table: &Table,
        cost: &CostModel,
        jobs: usize,
    ) -> Resolved {
        let chunks = map_chunks(groups, jobs, |chunk| {
            let mut resolver = Resolver::new(table, cost);
            let targets: Vec<Value> =
                chunk.iter().map(|(cells, pinned)| resolver.resolve(cells, pinned)).collect();
            (targets, resolver.stats)
        });
        let mut out = Resolved::default();
        for ((targets, stats), us) in chunks {
            out.targets.extend(targets);
            out.stats.add(&stats);
            out.shard_us.push(us);
        }
        out
    }
}

/// What [`EquivClasses::resolve_targets`] did for a batch of classes —
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

/// [`EquivClasses::resolve_targets`]' output.
#[derive(Debug, Default)]
pub struct Resolved {
    /// One target value per class, aligned with the input groups.
    pub targets: Vec<Value>,
    /// The work those classes took.
    pub stats: ResolveStats,
    /// Worker wall-µs per chunk, in chunk order.
    pub shard_us: Vec<u64>,
}

/// One worker's resolve state: the class histogram and distance
/// buffers, reused across the classes of its chunk, and its counts.
struct Resolver<'a> {
    table: &'a Table,
    cost: &'a CostModel,
    /// Per symbol of the table's pool: the class that last saw it (its
    /// 1-based number in this worker's run) and its position in `hist`
    /// then — a stale stamp is an unseen symbol, so nothing is cleared
    /// between classes.
    seen: Vec<(u64, usize)>,
    /// The current class's distinct values with their summed weights.
    hist: Vec<(Sym, f64)>,
    /// Each value of `hist`'s distance to the class's heaviest value.
    to_heaviest: Vec<f64>,
    /// Which values of `hist` the heaviest value's total prices out.
    dead: Vec<bool>,
    /// Total change cost of moving the class to each value of `hist`
    /// (exact for the live values only).
    totals: Vec<f64>,
    scratch: DistanceScratch,
    stats: ResolveStats,
}

impl<'a> Resolver<'a> {
    fn new(table: &'a Table, cost: &'a CostModel) -> Self {
        Resolver {
            table,
            cost,
            seen: vec![(0, 0); table.pool().len()],
            hist: Vec::new(),
            to_heaviest: Vec::new(),
            dead: Vec::new(),
            totals: Vec::new(),
            scratch: DistanceScratch::default(),
            stats: ResolveStats::default(),
        }
    }

    /// The target value of one class: the pinned constant if any,
    /// otherwise the member value minimising total weighted change cost
    /// (weighted plurality under the distance metric), the smallest
    /// such value on a tie.
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
    fn resolve(&mut self, cells: &[Cell], pinned: &Option<Value>) -> Value {
        self.stats.classes += 1;
        self.stats.class_cells += cells.len() as u64;
        if let Some(v) = pinned {
            return v.clone();
        }
        let class = self.stats.classes;
        self.hist.clear();
        for &(t, a) in cells {
            let Ok(sym) = self.table.sym_at(t, a) else { continue };
            let w = self.cost.weight(t, a);
            let seen = &mut self.seen[sym.index()];
            if seen.0 == class {
                self.hist[seen.1].1 += w;
            } else {
                *seen = (class, self.hist.len());
                self.hist.push((sym, w));
            }
        }
        let pool = self.table.pool();
        self.hist.sort_by(|x, y| pool.value(x.0).cmp(pool.value(y.0)));
        let c = self.hist.len();
        self.stats.distinct_values += c as u64;
        if c == 0 {
            return Value::Null;
        }
        let p = (1..c).fold(0, |p, i| if self.hist[i].1 > self.hist[p].1 { i } else { p });
        let (vp, wp) = (pool.value(self.hist[p].0), self.hist[p].1);
        self.to_heaviest.clear();
        let mut total_p = 0.0;
        for (i, &(sym, w)) in self.hist.iter().enumerate() {
            // Operands in `hist` order, as the pair loop below takes them.
            let d = match i.cmp(&p) {
                Ordering::Less => self.scratch.value_distance(pool.value(sym), vp),
                Ordering::Equal => 0.0,
                Ordering::Greater => self.scratch.value_distance(vp, pool.value(sym)),
            };
            if i != p {
                total_p += w * d;
            }
            self.to_heaviest.push(d);
        }
        self.stats.distances_computed += c as u64 - 1;
        self.dead.clear();
        self.dead.extend(self.to_heaviest.iter().map(|&d| wp.is_finite() && wp * d > total_p));
        self.totals.clear();
        self.totals.resize(c, 0.0);
        for i in 0..c {
            let (vi, wi) = (pool.value(self.hist[i].0), self.hist[i].1);
            for j in i + 1..c {
                if self.dead[i] && self.dead[j] {
                    continue;
                }
                let wj = self.hist[j].1;
                let d = if i == p {
                    self.to_heaviest[j]
                } else if j == p {
                    self.to_heaviest[i]
                } else {
                    self.stats.distances_computed += 1;
                    self.scratch.value_distance(vi, pool.value(self.hist[j].0))
                };
                self.totals[i] += wj * d;
                self.totals[j] += wi * d;
            }
        }
        let mut best: Option<usize> = None;
        for (i, total) in self.totals.iter().enumerate() {
            match best {
                _ if self.dead[i] => {}
                Some(b) if self.totals[b] <= *total => {}
                _ => best = Some(i),
            }
        }
        best.map_or(Value::Null, |i| pool.value(self.hist[i].0).clone())
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

    #[test]
    fn union_find_basic() {
        let mut eq = EquivClasses::new();
        assert!(!eq.same(cell(0, 0), cell(1, 0)));
        eq.union(cell(0, 0), cell(1, 0));
        assert!(eq.same(cell(0, 0), cell(1, 0)));
        eq.union(cell(1, 0), cell(2, 0));
        assert!(eq.same(cell(0, 0), cell(2, 0)));
        assert!(!eq.same(cell(0, 0), cell(0, 1)));
    }

    #[test]
    fn pin_conflicts_detected() {
        let mut eq = EquivClasses::new();
        assert!(eq.pin(cell(0, 0), "x".into()));
        assert!(eq.pin(cell(0, 0), "x".into()));
        assert!(!eq.pin(cell(0, 0), "y".into()));
        // Union with a differently-pinned class fails.
        assert!(eq.pin(cell(1, 0), "y".into()));
        assert!(!eq.union(cell(0, 0), cell(1, 0)));
        // Union propagates pins.
        eq.union(cell(2, 0), cell(3, 0));
        assert!(eq.pin(cell(2, 0), "z".into()));
        assert_eq!(eq.pinned_value(cell(3, 0)), Some("z".into()));
    }

    #[test]
    fn groups_partition_cells() {
        let mut eq = EquivClasses::new();
        eq.union(cell(0, 0), cell(1, 0));
        eq.pin(cell(2, 1), "c".into());
        let groups = eq.groups();
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|(c, _)| c.len()).collect();
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
    }

    /// One class through the public entry point.
    fn resolve_one(
        cells: &[Cell],
        pinned: Option<Value>,
        table: &Table,
        cost: &CostModel,
    ) -> (Value, ResolveStats) {
        let groups = [(cells.to_vec(), pinned)];
        let mut resolved = EquivClasses::resolve_targets(&groups, table, cost, 1);
        (resolved.targets.remove(0), resolved.stats)
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
            let mut resolver = Resolver::new(&t, &cost);
            for (cells, pinned, per_cell) in &classes {
                let before = resolver.stats;
                let got = resolver.resolve(cells, pinned);
                let spent = resolver.stats.distances_computed - before.distances_computed;
                seen.classes += 1;
                if let Some(pin) = pinned {
                    assert_eq!(&got, pin, "round {round}");
                    assert_eq!(spent, 0, "round {round}");
                    seen.pinned += 1;
                    continue;
                }
                let oracle = all_pairs(cells, &t, &cost);
                assert_eq!(Some(&got), oracle.target.as_ref(), "round {round}: {cells:?}");
                let pool = t.pool();
                let at =
                    resolver.hist.iter().position(|(sym, _)| *pool.value(*sym) == got).unwrap();
                assert_eq!(
                    resolver.totals[at].to_bits(),
                    oracle.total.to_bits(),
                    "round {round}: {got:?} priced {} against {}",
                    resolver.totals[at],
                    oracle.total
                );
                let (c, d) = (oracle.values, oracle.dead);
                assert_eq!(
                    resolver.stats.distinct_values - before.distinct_values,
                    c,
                    "round {round}"
                );
                assert_eq!(spent, c * (c - 1) / 2 - d * d.saturating_sub(1) / 2, "round {round}");
                let minima = resolver
                    .hist
                    .iter()
                    .zip(&resolver.totals)
                    .zip(&resolver.dead)
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
        // 20 classes of 3 cells each, one pinned.
        let groups: Vec<(Vec<Cell>, Option<Value>)> = ids
            .chunks(3)
            .enumerate()
            .map(|(g, c)| {
                let pinned = if g == 4 { Some(Value::from("pinned")) } else { None };
                (c.iter().map(|&id| (id, 0)).collect(), pinned)
            })
            .collect();
        let cost = CostModel::uniform(1);
        let sequential = EquivClasses::resolve_targets(&groups, &t, &cost, 1);
        for jobs in [2, 3, 4, 7, 32] {
            let sharded = EquivClasses::resolve_targets(&groups, &t, &cost, jobs);
            assert_eq!(sharded.targets, sequential.targets, "jobs={jobs}");
            assert_eq!(sharded.stats, sequential.stats, "jobs={jobs}");
        }
        assert_eq!(sequential.targets[4], Value::from("pinned"));
        assert_eq!(sequential.stats.classes, 20);
    }

    #[test]
    fn two_attributes_share_one_structure() {
        let mut eq = EquivClasses::new();
        // The same slots under two attributes are different cells.
        eq.union(cell(0, 2), cell(1, 2));
        eq.union(cell(1, 5), cell(2, 5));
        assert!(eq.same(cell(0, 2), cell(1, 2)));
        assert!(eq.same(cell(1, 5), cell(2, 5)));
        assert!(!eq.same(cell(1, 2), cell(1, 5)));
        assert!(!eq.same(cell(0, 2), cell(2, 2)));
        assert!(eq.pin(cell(2, 5), "x".into()));
        assert_eq!(eq.pinned_value(cell(1, 5)), Some("x".into()));
        assert_eq!(eq.pinned_value(cell(1, 2)), None);
        assert_eq!(
            eq.groups(),
            [
                (vec![cell(0, 2), cell(1, 2)], None),
                (vec![cell(1, 5), cell(2, 5)], Some("x".into())),
                (vec![cell(2, 2)], None),
            ]
        );
    }

    /// Tuple ids far apart: the index grows to the highest slot seen,
    /// for the one attribute used, and to nothing for the others.
    #[test]
    fn index_grows_to_the_highest_slot_of_the_attributes_used() {
        let mut eq = EquivClasses::new();
        assert!(eq.union(cell(1_000_000, 3), cell(0, 3)));
        assert!(eq.union(cell(0, 3), cell(500_000, 3)));
        assert!(eq.same(cell(500_000, 3), cell(1_000_000, 3)));
        assert!(!eq.same(cell(999_999, 3), cell(1_000_000, 3)));
        let lens: Vec<usize> = eq.index.iter().map(Vec::len).collect();
        assert_eq!(lens, [0, 0, 0, 1_000_001]);
        assert_eq!(eq.cells.len(), 4, "a node per cell named, not per slot");
        let groups = eq.groups();
        assert_eq!(groups[0].0, [cell(0, 3), cell(500_000, 3), cell(1_000_000, 3)]);
        assert_eq!(groups[1].0, [cell(999_999, 3)]);
    }

    #[test]
    fn pins_and_unions_commute() {
        let chain = [(0, 1), (1, 2), (3, 4), (2, 3), (7, 8)];
        let mut pin_first = EquivClasses::new();
        assert!(pin_first.pin(cell(4, 0), "p".into()));
        assert!(pin_first.pin(cell(8, 0), "q".into()));
        let mut union_first = EquivClasses::new();
        for (a, b) in chain {
            assert!(pin_first.union(cell(a, 0), cell(b, 0)));
            assert!(union_first.union(cell(b, 0), cell(a, 0)));
        }
        assert!(union_first.pin(cell(0, 0), "p".into()));
        assert!(union_first.pin(cell(7, 0), "q".into()));
        let groups = pin_first.groups();
        assert_eq!(groups, union_first.groups());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, Some("p".into()));
        // Either way the two classes now refuse each other.
        assert!(!pin_first.union(cell(0, 0), cell(8, 0)));
        assert!(!union_first.union(cell(0, 0), cell(8, 0)));
    }

    /// `union_all` is `union(first, c)` per member: same classes, and
    /// `conflict` sees exactly the members `union` would have refused.
    #[test]
    fn union_all_is_a_union_per_member() {
        let build = || {
            let mut eq = EquivClasses::new();
            eq.union(cell(5, 0), cell(6, 0));
            assert!(eq.pin(cell(6, 0), "x".into()));
            assert!(eq.pin(cell(3, 0), "y".into()));
            assert!(eq.pin(cell(9, 0), "x".into()));
            eq
        };
        // Fresh cells (10–13) between pinned and seen ones, one twice.
        let members = [10, 1, 5, 11, 3, 12, 2, 9, 13, 1, 11];
        let mut one_by_one = build();
        let refused: Vec<Cell> = members
            .iter()
            .map(|&t| cell(t, 0))
            .filter(|&c| !one_by_one.union(cell(0, 0), c))
            .collect();
        let mut at_once = build();
        let mut conflicts = Vec::new();
        at_once.union_all(cell(0, 0), members.iter().map(|&t| cell(t, 0)), |c| conflicts.push(c));
        assert_eq!(conflicts, refused);
        assert_eq!(conflicts, [cell(3, 0)]);
        assert_eq!(at_once.groups(), one_by_one.groups());
        // Node for node the same forest: a fresh cell hangs where `link`
        // would have hung it.
        assert_eq!(at_once.cells, one_by_one.cells);
        assert_eq!(at_once.parent, one_by_one.parent);
        assert_eq!(at_once.size, one_by_one.size);
        assert_eq!(at_once.pinned, one_by_one.pinned);
    }

    /// The hospital report's classes — unions and pins over three RHS
    /// attributes in one structure — group exactly as they did under the
    /// hashed cell index this structure had before the slot index: the
    /// count, the member cells and the FNV-1a of the `Debug` text were
    /// recorded on that parent.
    #[test]
    fn hospital_groups_are_what_the_hashed_index_gave() {
        use revival_constraints::cfd::merge_by_embedded_fd;
        use revival_constraints::pattern::PatternValue;
        use revival_detect::{DetectJob, Detector, NativeEngine, Violation};
        use revival_dirty::hospital::{attrs as h, generate, standard_cfds, HospitalConfig};
        use revival_dirty::noise::{inject, NoiseConfig};

        let data = generate(&HospitalConfig { rows: 12_000, seed: 11, ..Default::default() });
        let noise = NoiseConfig::new(0.05, vec![h::STATE, h::MEASURE_NAME, h::HNAME], 11 ^ 0x405b);
        let dirty = inject(&data.table, &noise).dirty;
        let cfds = merge_by_embedded_fd(&standard_cfds(&data.schema));
        let report = NativeEngine.run(&DetectJob::on_table(&dirty, &cfds)).unwrap();
        let mut eq = EquivClasses::new();
        let (mut unions, mut pins) = (0, 0);
        for v in &report.violations {
            match v {
                Violation::CfdVariable { cfd, tuples, .. } => {
                    let rhs = cfds[*cfd].rhs;
                    for &t in &tuples[1..] {
                        assert!(eq.union((tuples[0], rhs), (t, rhs)));
                        unions += 1;
                    }
                }
                Violation::CfdConstant { cfd, row, tuple } => {
                    let cfd = &cfds[*cfd];
                    if let PatternValue::Const(c) = &cfd.tableau[*row].rhs {
                        eq.pin((*tuple, cfd.rhs), c.clone());
                        pins += 1;
                    }
                }
                Violation::CindMissingWitness { .. } => {}
            }
        }
        let groups = eq.groups();
        let cells: usize = groups.iter().map(|(cells, _)| cells.len()).sum();
        let attrs: std::collections::BTreeSet<usize> =
            groups.iter().flat_map(|(cells, _)| cells.iter().map(|c| c.1)).collect();
        let text = format!("{groups:?}");
        let fnv = text
            .bytes()
            .fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
        assert_eq!((unions, pins, groups.len(), cells), (47_123, 155, 222, 35_655));
        assert_eq!(attrs.into_iter().collect::<Vec<_>>(), [h::HNAME, h::STATE, h::MEASURE_NAME]);
        assert_eq!(fnv, 0xee03_fd25_4ec3_848b, "groups() moved");
    }
}
