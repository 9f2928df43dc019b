//! Stripped partitions (TANE's core data structure).
//!
//! The partition `π_X` of a relation groups its live rows by their
//! projection on attribute set `X`. A *stripped* partition drops
//! singleton classes — an FD `X → A` holds iff no class of `π_X` splits
//! in `π_{X∪{A}}`. A partition is one flat list of live slots, class
//! after class: the shape and the ids of the item index's row lists.
//! `π_A` of one attribute *is* that attribute's row lists of ≥ 2 rows
//! (`Partition::of_attr`); `π_{X∪{A}}` is TANE's linear product
//! (`Partition::product`), which walks each class of `π_X` once and
//! yields the class's `g3` error on the way — the sum of those errors
//! is the FD's, and the conditional probe sums them per condition value.

use crate::items::ItemIndex;

/// A stripped partition: the classes of ≥ 2 live slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Every class's slots back to back, ascending within a class;
    /// classes ascend by first slot.
    slots: Vec<u32>,
    /// Class `i` is `slots[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
}

/// [`Partition::product`]'s answer for `π_X · π_A`.
pub(crate) struct Product {
    /// `π_{X∪{A}}`, when asked for.
    pub(crate) refined: Option<Partition>,
    /// Per class `c` of `π_X`, in class order, TANE's `g3` error of
    /// `X → A` on `c`: `|c|` minus its largest sub-class in
    /// `π_{X∪{A}}`, a stripped sub-class counting 1.
    pub(crate) class_errors: Vec<u32>,
}

/// Per-item counters, all zero between uses: the product counts
/// sub-classes in them and the conditional probe sums class errors in
/// them. One per worker, sized to the item index.
pub(crate) struct ItemScratch {
    pub(crate) counts: Vec<u32>,
    /// The items a class met, with the first slot carrying each.
    touched: Vec<(u32, u32)>,
}

impl ItemScratch {
    pub(crate) fn new(index: &ItemIndex<'_>) -> Self {
        ItemScratch { counts: vec![0; index.len()], touched: Vec::new() }
    }
}

/// A sub-class of one row: it counts toward the largest, but is stripped.
const STRIPPED: u32 = u32::MAX;

impl Partition {
    /// `π_{attr}`: the item index's row lists of `attr` that hold ≥ 2
    /// rows. Items are numbered in first-seen row order, so the classes
    /// already ascend by first slot.
    pub(crate) fn of_attr(index: &ItemIndex<'_>, attr: usize) -> Partition {
        let mut part = Partition { slots: Vec::new(), bounds: vec![0] };
        for item in index.items_of(attr) {
            let rows = index.rows(item);
            if rows.len() >= 2 {
                part.slots.extend_from_slice(rows);
                part.bounds.push(part.slots.len() as u32);
            }
        }
        part
    }

    /// The stripped classes, in order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.bounds.windows(2).map(|w| &self.slots[w[0] as usize..w[1] as usize])
    }

    /// Number of stripped classes.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True if every class is a singleton (all stripped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// TANE's linear product `π_X · π_A`: every class's `g3` error,
    /// and `π_{X∪{A}}` itself if `refine`. The item index is the probe —
    /// a slot's item under `attr` names its class of `π_A` — so each
    /// class of `π_X` is walked once to count its sub-classes, and once
    /// more to place their slots only when it splits and `refine` asks
    /// for them.
    pub(crate) fn product(
        &self,
        index: &ItemIndex<'_>,
        attr: usize,
        scratch: &mut ItemScratch,
        refine: bool,
    ) -> Product {
        let ItemScratch { counts, touched } = scratch;
        let mut slots: Vec<u32> = Vec::new();
        // (first slot, start, end) per emitted class, in emission order.
        let mut emitted: Vec<(u32, u32, u32)> = Vec::new();
        let mut class_errors = Vec::with_capacity(self.len());
        for class in self.classes() {
            for &slot in class {
                let item = index.id_at(attr, slot);
                let count = &mut counts[item as usize];
                if *count == 0 {
                    touched.push((item, slot));
                }
                *count += 1;
            }
            let largest = touched.iter().map(|&(item, _)| counts[item as usize]).max();
            class_errors.push(class.len() as u32 - largest.unwrap_or(0));
            if refine {
                let start = slots.len() as u32;
                if touched.len() == 1 {
                    // The class agrees on `attr`: it is its own sub-class.
                    slots.extend_from_slice(class);
                    emitted.push((class[0], start, slots.len() as u32));
                } else {
                    // Counts become write cursors; sub-classes are laid
                    // out in first-seen order, so a class's own ascend
                    // by first slot.
                    let mut end = start;
                    for &(item, first) in touched.iter() {
                        let count = &mut counts[item as usize];
                        if *count >= 2 {
                            emitted.push((first, end, end + *count));
                            (*count, end) = (end, end + *count);
                        } else {
                            *count = STRIPPED;
                        }
                    }
                    slots.resize(end as usize, 0);
                    for &slot in class {
                        let cursor = &mut counts[index.id_at(attr, slot) as usize];
                        if *cursor != STRIPPED {
                            slots[*cursor as usize] = slot;
                            *cursor += 1;
                        }
                    }
                }
            }
            for &(item, _) in touched.iter() {
                counts[item as usize] = 0;
            }
            touched.clear();
        }
        let refined = refine.then(|| Partition::ordered(slots, emitted));
        Product { refined, class_errors }
    }

    /// The partition of `emitted` classes (`(first slot, start, end)`
    /// into `slots`), put in first-slot order — already so unless some
    /// class of the operand split.
    fn ordered(slots: Vec<u32>, mut emitted: Vec<(u32, u32, u32)>) -> Partition {
        let mut bounds = Vec::with_capacity(emitted.len() + 1);
        bounds.push(0);
        if emitted.windows(2).all(|w| w[0].0 < w[1].0) {
            bounds.extend(emitted.iter().map(|&(.., end)| end));
            return Partition { slots, bounds };
        }
        emitted.sort_unstable_by_key(|&(first, ..)| first);
        let mut part = Partition { slots: Vec::with_capacity(slots.len()), bounds };
        for (_, start, end) in emitted {
            part.slots.extend_from_slice(&slots[start as usize..end as usize]);
            part.bounds.push(part.slots.len() as u32);
        }
        part
    }
}

/// The partition code this module replaced, kept as the oracle its
/// property tests compare against: classes as `Vec<Vec<usize>>` built
/// by hashing each row's projection, the product through a row → class
/// vector and a map per class. Verbatim except that rows are slots (the
/// replaced code numbered live positions) and `n_rows` bounds them.
#[cfg(test)]
pub(crate) mod oracle {
    use revival_relation::{GroupBy, Sym, Table};
    use std::collections::HashMap;

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct Partition {
        pub(crate) n_rows: usize,
        pub(crate) groups: Vec<Vec<usize>>,
    }

    impl Partition {
        pub(crate) fn build(table: &Table, attrs: &[usize]) -> Partition {
            let proj = table.proj(attrs);
            let mut map: GroupBy<Box<[Sym]>, Vec<usize>> = GroupBy::new();
            for slot in table.live_slots() {
                map.entry_mut(
                    proj.hash_at(slot),
                    |k| proj.matches_at(slot, k),
                    || (proj.key_at(slot), Vec::new()),
                )
                .push(slot);
            }
            let mut groups: Vec<Vec<usize>> =
                map.into_entries().map(|(.., g)| g).filter(|g| g.len() >= 2).collect();
            groups.sort();
            Partition { n_rows: table.slots(), groups }
        }

        pub(crate) fn refine(&self, other: &Partition) -> Partition {
            let mut group_of = vec![usize::MAX; self.n_rows];
            for (gi, g) in other.groups.iter().enumerate() {
                for &r in g {
                    group_of[r] = gi;
                }
            }
            let mut out: Vec<Vec<usize>> = Vec::new();
            let mut sub: HashMap<usize, Vec<usize>> = HashMap::new();
            for g in &self.groups {
                sub.clear();
                for &r in g {
                    let og = group_of[r];
                    if og != usize::MAX {
                        sub.entry(og).or_default().push(r);
                    }
                }
                for (_, rows) in sub.drain() {
                    if rows.len() >= 2 {
                        let mut rows = rows;
                        rows.sort();
                        out.push(rows);
                    }
                }
            }
            out.sort();
            Partition { n_rows: self.n_rows, groups: out }
        }

        pub(crate) fn g3_error(&self, refined: &Partition) -> usize {
            let mut group_of = vec![usize::MAX; self.n_rows];
            for (gi, g) in refined.groups.iter().enumerate() {
                for &r in g {
                    group_of[r] = gi;
                }
            }
            let mut counts: HashMap<usize, usize> = HashMap::new();
            let mut err = 0usize;
            for g in &self.groups {
                counts.clear();
                let mut singles = 0usize;
                for &r in g {
                    match group_of[r] {
                        usize::MAX => singles += 1,
                        gi => *counts.entry(gi).or_insert(0) += 1,
                    }
                }
                let keep =
                    counts.values().copied().max().unwrap_or(0).max(usize::from(singles > 0));
                err += g.len() - keep;
            }
            err
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use revival_relation::{Schema, Table, Type, Value};

    /// A seeded table of 2–6 columns over 3–5-value alphabets with
    /// `Null`s, duplicate rows and tombstoned rows (SplitMix64, so a
    /// failing case reproduces from its seed alone).
    pub(crate) fn random_table(seed: u64) -> Table {
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let arity = 2 + next(5) as usize;
        let alphabets: Vec<u64> = (0..arity).map(|_| 3 + next(3)).collect();
        let mut schema = Schema::builder("r");
        for a in 0..arity {
            schema = schema.attr(format!("a{a}"), Type::Str);
        }
        let mut t = Table::new(schema.build());
        let mut ids = Vec::new();
        let mut previous: Vec<Value> = Vec::new();
        for _ in 0..next(40) {
            let row: Vec<Value> = if !previous.is_empty() && next(5) == 0 {
                previous.clone()
            } else {
                alphabets
                    .iter()
                    .map(|&k| match next(k + 1) {
                        0 => Value::Null,
                        v => Value::str(format!("v{v}")),
                    })
                    .collect()
            };
            ids.push(t.push(row.clone()).unwrap());
            previous = row;
        }
        for id in ids {
            if next(4) == 0 {
                t.delete(id).unwrap();
            }
        }
        t
    }

    /// Every `X` of 1–3 attributes, ascending.
    pub(crate) fn lhs_sets(arity: usize) -> Vec<Vec<usize>> {
        let mut sets: Vec<Vec<usize>> = (0..arity).map(|a| vec![a]).collect();
        let mut frontier = sets.clone();
        for _ in 1..3 {
            frontier = frontier
                .iter()
                .flat_map(|x| (x[x.len() - 1] + 1..arity).map(move |a| [&x[..], &[a]].concat()))
                .collect();
            sets.extend(frontier.iter().cloned());
        }
        sets
    }

    /// `π_X` through products from the single attributes.
    pub(crate) fn partition_of(index: &ItemIndex<'_>, x: &[usize]) -> Partition {
        let mut scratch = ItemScratch::new(index);
        let mut part = Partition::of_attr(index, x[0]);
        for &a in &x[1..] {
            part = part.product(index, a, &mut scratch, true).refined.unwrap();
        }
        part
    }

    pub(crate) fn as_groups(part: &Partition, n_rows: usize) -> oracle::Partition {
        let groups = part.classes().map(|c| c.iter().map(|&s| s as usize).collect()).collect();
        oracle::Partition { n_rows, groups }
    }

    fn table() -> Table {
        let s = Schema::builder("r")
            .attr("a", Type::Str)
            .attr("b", Type::Str)
            .attr("c", Type::Str)
            .build();
        let mut t = Table::new(s);
        for (a, b, c) in
            [("x", "1", "p"), ("x", "1", "p"), ("y", "2", "q"), ("y", "3", "q"), ("z", "4", "r")]
        {
            t.push(vec![a.into(), b.into(), c.into()]).unwrap();
        }
        t
    }

    fn classes(part: &Partition) -> Vec<Vec<u32>> {
        part.classes().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn build_strips_singletons() {
        let t = table();
        let index = ItemIndex::build(&t);
        // a-classes: {0,1}, {2,3}, {4}(stripped).
        let pa = Partition::of_attr(&index, 0);
        assert_eq!(classes(&pa), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(pa.len(), 2);
        // b: only {0,1} repeats.
        assert_eq!(classes(&Partition::of_attr(&index, 1)), vec![vec![0, 1]]);
    }

    #[test]
    fn refinement_matches_direct_build() {
        let t = table();
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::new(&index);
        let pab = Partition::of_attr(&index, 0).product(&index, 1, &mut scratch, true).refined;
        let pab = pab.unwrap();
        assert_eq!(as_groups(&pab, t.slots()), oracle::Partition::build(&t, &[0, 1]));
        let pba = Partition::of_attr(&index, 1).product(&index, 0, &mut scratch, true).refined;
        assert_eq!(Some(pab), pba);
    }

    #[test]
    fn fd_check_via_error() {
        let t = table();
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::new(&index);
        let pa = Partition::of_attr(&index, 0);
        // a → c holds: no class splits.
        let ac = pa.product(&index, 2, &mut scratch, true);
        assert_eq!(ac.refined, Some(pa.clone()));
        assert!(ac.class_errors.iter().all(|&e| e == 0));
        // a → b fails (y maps to 2 and 3).
        let ab = pa.product(&index, 1, &mut scratch, false);
        assert!(ab.class_errors.iter().any(|&e| e > 0));
        assert!(ab.refined.is_none(), "not asked for");
    }

    #[test]
    fn g3_error_counts_minimal_removals() {
        let t = table();
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::new(&index);
        let pa = Partition::of_attr(&index, 0);
        // a → b fails on the y-class ({2,3} splits into singletons):
        // removing one of its two rows fixes it; the x-class agrees.
        let ab = pa.product(&index, 1, &mut scratch, true);
        assert_eq!(classes(&ab.refined.unwrap()), vec![vec![0, 1]]);
        assert_eq!(ab.class_errors, vec![0, 1]);
        // b → a: {0,1} agrees on a; the singleton classes of b are
        // stripped, so they carry no error.
        let ba = Partition::of_attr(&index, 1).product(&index, 0, &mut scratch, false);
        assert_eq!(ba.class_errors, vec![0]);
        assert!(scratch.counts.iter().all(|&c| c == 0), "the scratch is left zeroed");
    }

    #[test]
    fn product_keeps_classes_in_first_slot_order() {
        // π_a = {0,1,4,5} ∪ {2,3}; b splits the first class into {0,1}
        // and {4,5}, which must come after {2,3}.
        let s = Schema::builder("r").attr("a", Type::Str).attr("b", Type::Str).build();
        let mut t = Table::new(s);
        for (a, b) in [("x", "1"), ("x", "1"), ("y", "3"), ("y", "3"), ("x", "2"), ("x", "2")] {
            t.push(vec![a.into(), b.into()]).unwrap();
        }
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::new(&index);
        let ab = Partition::of_attr(&index, 0).product(&index, 1, &mut scratch, true);
        assert_eq!(classes(&ab.refined.unwrap()), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(ab.class_errors, vec![2, 0]);
    }

    #[test]
    fn product_agrees_with_the_replaced_refine_and_g3_error() {
        for seed in 0..400u64 {
            let t = random_table(seed);
            let index = ItemIndex::build(&t);
            let mut scratch = ItemScratch::new(&index);
            let arity = t.schema().arity();
            for x in lhs_sets(arity) {
                let px = partition_of(&index, &x);
                let old_px = oracle::Partition::build(&t, &x);
                assert_eq!(as_groups(&px, t.slots()), old_px, "seed {seed}: π_{x:?}");
                for a in (0..arity).filter(|a| !x.contains(a)) {
                    let product = px.product(&index, a, &mut scratch, true);
                    let old_pxa = old_px.refine(&oracle::Partition::build(&t, &[a]));
                    let ctx = format!("seed {seed}: {x:?} → {a}");
                    let refined = product.refined.as_ref().expect("asked for");
                    assert_eq!(as_groups(refined, t.slots()), old_pxa, "{ctx}");
                    let unrefined = px.product(&index, a, &mut scratch, false);
                    assert_eq!(unrefined.class_errors, product.class_errors, "{ctx}");
                    let per_class: Vec<u32> = old_px
                        .groups
                        .iter()
                        .map(|g| {
                            let one =
                                oracle::Partition { n_rows: t.slots(), groups: vec![g.clone()] };
                            one.g3_error(&old_pxa) as u32
                        })
                        .collect();
                    assert_eq!(product.class_errors, per_class, "{ctx}");
                    let g3: u32 = product.class_errors.iter().sum();
                    assert_eq!(g3 as usize, old_px.g3_error(&old_pxa), "{ctx}");
                }
            }
            assert!(scratch.counts.iter().all(|&c| c == 0), "seed {seed}: scratch left dirty");
        }
    }
}
