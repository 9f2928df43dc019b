//! Item-indexed partitions — the one partition type detection and
//! discovery share.
//!
//! An *item* is one `(attribute, Sym)` pair occurring in a live row.
//! [`ItemIndex`] numbers a table's items attribute by attribute, each
//! attribute's in first-seen row order, and keeps per item its ascending
//! live slots — Eclat's tid-lists, as `u32`. Attributes are indexed on
//! demand ([`ItemIndex::index_attr`]) and released one by one
//! ([`ItemIndex::release_attr`]): a detection pass indexes only the
//! attributes its suite names, and frees each after the last pass that
//! reads it (an index is one pool-sized remap array per attribute, so a
//! large pool is paid for per attribute named, not per attribute held);
//! discovery indexes every attribute ([`ItemIndex::build`]).
//!
//! A [`Partition`] of an attribute set `X` groups live slots by their
//! projection on `X`. It is a CSR layout: every class's slots back to
//! back, ascending within a class, with class bounds; classes are
//! numbered in first-seen order, so they ascend by first slot. A
//! partition has a *floor*, the fewest slots a class it keeps holds:
//! detection keeps every class (floor 1: every tuple is in some class,
//! so a constant pattern row finds its tuples however few there are);
//! TANE strips singletons (floor 2: `X → A` holds iff no class of `π_X`
//! of two or more rows splits in `π_{X∪{A}}`); CFDMiner keeps only
//! frequent itemsets (floor `min_support`: a class of `π_X` is one
//! itemset over `X`, its slots the itemset's support).
//!
//! `π_A` of one attribute *is* that attribute's item rows
//! ([`ItemIndex::partition`]); `π_{X∪{A}}` is TANE's linear product
//! ([`Partition::product`]; Huhtala, Kärkkäinen, Porkka and Toivonen,
//! *TANE: An efficient algorithm for discovering functional and
//! approximate dependencies*, The Computer Journal 42(2), 1999), which
//! walks each class of `π_X` once and counts its members per item of
//! `A` — no row is hashed anywhere. Building a set from a prefix that is
//! already built follows the factorised representations of Olteanu and
//! Závodný (*Factorised representations of query results*, arXiv
//! 1203.2672) over the variable order of sorted attribute ids: a common
//! prefix is grouped once and shared by every set extending it, and an
//! extension's cost is paid per class of the prefix, not per row of the
//! relation. A partition of floor 1 also keeps its product steps —
//! per class of the prefix, its sub-classes by item — which
//! makes it that representation's trie: the class of a key is found
//! from the key's items alone, one small search per attribute
//! ([`Partition::class_of_items`]), no slot read.
//!
//! [`class_error`] is TANE's `g3` error of one class under an attribute:
//! its size minus its largest sub-class. Discovery sums it into a rule's
//! confidence ([`Partition::product`] yields it per class), and
//! detection reads a class of error 0 as one whose right-hand side is a
//! single value (keyed by symbol: a right-hand side it groups no set by
//! is never indexed).
//!
//! [`MaintainedPartition`] keeps such classes under single-slot moves,
//! for a table that changes a tuple at a time: a class is found by its
//! key, holds its slots ascending (the first is its eldest) and counts
//! them per right-hand-side symbol, off which its [`class_error`] is
//! read. A class that empties keeps its number.

use crate::groupby::{hash_at, matches_at};
use crate::{GroupBy, Sym, Table};
use std::ops::Range;
use std::sync::Arc;

/// A dense item number, unique across a table's indexed attributes.
pub type ItemId = u32;

/// A per-symbol or per-slot entry that names no item or class.
const ABSENT: u32 = u32::MAX;

/// One indexed attribute.
struct AttrItems {
    /// `Sym::index()` → the attribute's own (0-based) number for the
    /// item, [`ABSENT`] if the column never carries the symbol.
    local: Vec<u32>,
    /// The [`ItemId`] of the attribute's local item 0.
    first: ItemId,
    /// `π_attr` at floor 1: class `i` is local item `i`'s slots.
    part: Partition,
}

/// One attribute's items as the hot loops read them: a slot's item is
/// two array reads.
#[derive(Clone, Copy)]
struct AttrView<'i> {
    col: &'i [Sym],
    local: &'i [u32],
    items: usize,
}

impl AttrView<'_> {
    /// The local item of live slot `slot`.
    #[inline]
    fn local(&self, slot: u32) -> u32 {
        self.local[self.col[slot as usize].index()]
    }
}

/// Per-`(attribute, Sym)` row lists of one table's live rows, indexed
/// per attribute on demand.
pub struct ItemIndex<'a> {
    table: &'a Table,
    /// The live slots, ascending.
    live: Vec<u32>,
    /// Item → its `(attribute, Sym)`, for every item numbered so far; an
    /// attribute's items are contiguous, in first-seen row order.
    items: Vec<(usize, Sym)>,
    /// Attribute → its items while indexed.
    attrs: Vec<Option<AttrItems>>,
}

impl<'a> ItemIndex<'a> {
    /// An index of `table` with no attribute indexed yet: the live slots
    /// are enumerated once, here.
    pub fn new(table: &'a Table) -> Self {
        let live = table
            .live_slots()
            .map(|slot| {
                u32::try_from(slot).expect("Sym columns of 2^32 slots do not fit in memory")
            })
            .collect();
        let attrs = (0..table.schema().arity()).map(|_| None).collect();
        ItemIndex { table, live, items: Vec::new(), attrs }
    }

    /// An index of every attribute of `table`, numbered in attribute
    /// order — what discovery counts support over.
    pub fn build(table: &'a Table) -> Self {
        let mut index = ItemIndex::new(table);
        for attr in 0..table.schema().arity() {
            index.index_attr(attr);
        }
        index
    }

    /// Index `attr` unless it is indexed: one sweep of the live slots to
    /// number and count its items, one to place each slot in its item's
    /// list. Whether it indexed it.
    pub fn index_attr(&mut self, attr: usize) -> bool {
        if self.attrs[attr].is_some() {
            return false;
        }
        let col = self.table.col(attr);
        let first = self.items.len() as ItemId;
        let mut local = vec![ABSENT; self.table.pool().len()];
        let mut cursors: Vec<u32> = Vec::new();
        for &slot in &self.live {
            let sym = col[slot as usize];
            let id = &mut local[sym.index()];
            if *id == ABSENT {
                *id = cursors.len() as u32;
                self.items.push((attr, sym));
                cursors.push(0);
            }
            cursors[*id as usize] += 1;
        }
        // Each item's rows start where its predecessor's end: counts
        // become write cursors, and the bounds are their prefix sums.
        let mut bounds = Vec::with_capacity(cursors.len() + 1);
        bounds.push(0);
        let mut end = 0;
        for cursor in &mut cursors {
            (*cursor, end) = (end, end + *cursor);
            bounds.push(end);
        }
        let mut slots = vec![0; self.live.len()];
        for &slot in &self.live {
            let cursor = &mut cursors[local[col[slot as usize].index()] as usize];
            slots[*cursor as usize] = slot;
            *cursor += 1;
        }
        let part = Partition { slots, bounds, floor: 1, steps: Vec::new() };
        self.attrs[attr] = Some(AttrItems { local, first, part });
        true
    }

    /// Free `attr`'s items. Its item ids stay numbered (and are never
    /// reused); indexing it again numbers its items afresh.
    pub fn release_attr(&mut self, attr: usize) {
        self.attrs[attr] = None;
    }

    fn attr(&self, attr: usize) -> &AttrItems {
        self.attrs[attr].as_ref().expect("the attribute is indexed")
    }

    #[inline]
    fn view(&self, attr: usize) -> AttrView<'_> {
        let items = self.attr(attr);
        AttrView { col: self.table.col(attr), local: &items.local, items: items.part.len() }
    }

    /// The indexed table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The table's live slots, ascending.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// Items numbered so far, across all attributes indexed.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// No item numbered yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items of one indexed attribute.
    pub fn items_of(&self, attr: usize) -> Range<ItemId> {
        let items = self.attr(attr);
        items.first..items.first + items.part.len() as ItemId
    }

    /// Item `id`'s `(attribute, Sym)`.
    pub fn item(&self, id: ItemId) -> (usize, Sym) {
        self.items[id as usize]
    }

    /// `sym`'s class of [`ItemIndex::partition`]`(attr)` — its local
    /// item number — if a live row carries it under the indexed `attr`.
    pub fn local_item(&self, attr: usize, sym: Sym) -> Option<u32> {
        let local = *self.attr(attr).local.get(sym.index())?;
        (local != ABSENT).then_some(local)
    }

    /// The ascending live slots carrying item `id` (its attribute
    /// indexed) — its support is the length.
    pub fn rows(&self, id: ItemId) -> &[u32] {
        let items = self.attr(self.items[id as usize].0);
        items.part.class((id - items.first) as usize)
    }

    /// The symbol of live slot `slot` under `attr`.
    #[inline]
    pub fn sym_at(&self, attr: usize, slot: u32) -> Sym {
        self.table.col(attr)[slot as usize]
    }

    /// The local item live slot `slot` carries under an indexed `attr`:
    /// its class of [`ItemIndex::partition`]`(attr)`.
    #[inline]
    pub fn local_at(&self, attr: usize, slot: u32) -> u32 {
        self.view(attr).local(slot)
    }

    /// The item live slot `slot` carries under an indexed `attr`.
    #[inline]
    pub fn id_at(&self, attr: usize, slot: u32) -> ItemId {
        let items = self.attr(attr);
        items.first + items.local[self.sym_at(attr, slot).index()]
    }

    /// `π_attr` of an indexed attribute at floor 1: class `i` is the
    /// attribute's `i`-th item, in first-seen order.
    pub fn partition(&self, attr: usize) -> &Partition {
        &self.attr(attr).part
    }
}

/// A partition of a table's live slots: the classes of one attribute
/// set, each a run of ascending slots, in first-slot order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Every class's slots back to back.
    slots: Vec<u32>,
    /// Class `c` is `slots[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<u32>,
    /// The fewest slots a kept class holds (at least 1): smaller classes
    /// are dropped.
    floor: u32,
    /// At floor 1, the product steps from the first attribute's item
    /// lists to this partition, shared with the partitions they passed
    /// through (see [`Partition::class_of_items`]).
    steps: Vec<Arc<Step>>,
}

/// One product step `π_X · π_A` of a partition of floor 1:
/// per class of `π_X`, its sub-classes in `π_{X∪{A}}` by item of `A` —
/// one level of the trie the factorised representation of `X ∪ {A}`
/// is, over the set's attribute order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Step {
    /// Class `c` of `π_X` has its sub-classes at `subs[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// `(local item of A, class of π_{X∪{A}})`, by item within a class.
    subs: Vec<(u32, u32)>,
}

/// [`Partition::product`]'s answer for `π_X · π_A`.
pub struct Product {
    /// `π_{X∪{A}}`, when asked for, at `π_X`'s floor.
    pub refined: Option<Partition>,
    /// Per class `c` of `π_X`, in class order, its [`class_error`]
    /// under `A`.
    pub class_errors: Vec<u32>,
}

/// Per-key counters, all zero between uses: the product and
/// [`class_error`] count a class's members per key in them (an
/// attribute's local item numbers, or a column's `Sym` indexes), and
/// discovery's conditional probe sums class errors in them (by
/// [`ItemId`]).
#[derive(Default)]
pub struct ItemScratch {
    pub counts: Vec<u32>,
    /// The items a class met, with the first slot carrying each.
    touched: Vec<(u32, u32)>,
}

impl ItemScratch {
    /// A scratch sized to every item `index` has numbered.
    pub fn new(index: &ItemIndex<'_>) -> Self {
        ItemScratch::for_keys(index.len())
    }

    /// A scratch for keys below `keys`.
    pub fn for_keys(keys: usize) -> Self {
        ItemScratch { counts: vec![0; keys], touched: Vec::new() }
    }

    fn fit(&mut self, items: usize) {
        if self.counts.len() < items {
            self.counts.resize(items, 0);
        }
    }

    /// Count `class`'s members per `key` (listing each key met, with
    /// its first slot, in `touched`); the largest count.
    #[inline]
    fn tally(&mut self, class: &[u32], key: impl Fn(u32) -> u32) -> u32 {
        for &slot in class {
            let item = key(slot);
            let count = &mut self.counts[item as usize];
            if *count == 0 {
                self.touched.push((item, slot));
            }
            *count += 1;
        }
        self.touched.iter().map(|&(item, _)| self.counts[item as usize]).max().unwrap_or(0)
    }

    /// Zero what the last tally counted.
    fn clear(&mut self) {
        for &(item, _) in &self.touched {
            self.counts[item as usize] = 0;
        }
        self.touched.clear();
    }
}

/// TANE's `g3` error of `X → A` on one class of `π_X`: the class's
/// size minus its largest sub-class under `A` — the fewest members to
/// remove for the class to agree on `A`; zero iff it holds one `A`
/// value. `key` numbers a slot's `A` value densely — its local item
/// ([`ItemIndex::local_at`]), or its `Sym` index for an attribute no
/// index holds — and `scratch` counts below every number it yields.
#[inline]
pub fn class_error(class: &[u32], key: impl Fn(u32) -> u32, scratch: &mut ItemScratch) -> u32 {
    if class.len() < 2 {
        return 0;
    }
    let largest = scratch.tally(class, key);
    scratch.clear();
    class.len() as u32 - largest
}

/// A sub-class below a product's floor: it counts toward the largest,
/// but is dropped.
const STRIPPED: u32 = u32::MAX;

impl Partition {
    /// The partition of the empty attribute set: one class holding every
    /// slot of `live` (none when `live` is empty).
    pub fn whole(live: &[u32]) -> Partition {
        let bounds = if live.is_empty() { vec![0] } else { vec![0, live.len() as u32] };
        Partition { slots: live.to_vec(), bounds, floor: 1, steps: Vec::new() }
    }

    /// This partition at floor `floor` (or its own, if higher): its
    /// classes of at least that many slots, in order. Products of the
    /// result drop every sub-class below the floor too. Only at floor 1
    /// does the result keep this partition's product steps, and its own
    /// products record theirs.
    pub fn stripped(&self, floor: usize) -> Partition {
        let floor = u32::try_from(floor).unwrap_or(u32::MAX).max(self.floor);
        let steps = if floor == 1 { self.steps.clone() } else { Vec::new() };
        let mut part = Partition { slots: Vec::new(), bounds: vec![0], floor, steps };
        for class in self.classes().filter(|class| class.len() as u32 >= floor) {
            part.slots.extend_from_slice(class);
            part.bounds.push(part.slots.len() as u32);
        }
        part
    }

    /// The classes, in order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.bounds.windows(2).map(|w| &self.slots[w[0] as usize..w[1] as usize])
    }

    /// Class `c`'s slots, ascending.
    pub fn class(&self, c: usize) -> &[u32] {
        &self.slots[self.bounds[c] as usize..self.bounds[c + 1] as usize]
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// No class.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The class whose tuples carry `items` — per attribute of the
    /// partition's set, in set order, its local item
    /// ([`ItemIndex::local_item`]) — if a live tuple does: a descent of
    /// the product steps, one search among a class's sub-classes per
    /// attribute, no slot read. Only for a partition of floor 1, built
    /// from its first attribute's item lists by [`Partition::product`]
    /// (or that `π_A` itself, or [`Partition::whole`] for no items).
    pub fn class_of_items(&self, items: &[u32]) -> Option<usize> {
        let Some((&first, rest)) = items.split_first() else {
            return (!self.is_empty()).then_some(0);
        };
        debug_assert!(self.floor == 1 && rest.len() == self.steps.len(), "items per product step");
        let mut class = first;
        for (step, &item) in self.steps.iter().zip(rest) {
            let (start, end) = (step.starts[class as usize], step.starts[class as usize + 1]);
            let subs = &step.subs[start as usize..end as usize];
            class = subs[subs.binary_search_by_key(&item, |&(item, _)| item).ok()?].1;
        }
        Some(class as usize)
    }

    /// TANE's linear product `π_X · π_A` (`self` is `π_X`, `attr` an
    /// indexed `A`): every class's [`class_error`], and `π_{X∪{A}}`
    /// itself if `refine`. The item index is the probe — a slot's item
    /// under `attr` names its class of `π_A` — so each class of `π_X` is
    /// walked once to count its sub-classes, and once more to place
    /// their slots only when it splits and `refine` asks for them; a
    /// sub-class below the floor counts toward its class's error but is
    /// dropped. At floor 1 the refined partition also records the step:
    /// each class's sub-classes by item, for [`Partition::class_of_items`].
    pub fn product(
        &self,
        index: &ItemIndex<'_>,
        attr: usize,
        scratch: &mut ItemScratch,
        refine: bool,
    ) -> Product {
        let mut class_errors = Vec::with_capacity(self.len());
        let refined = self.multiply(index, attr, scratch, refine, |error| class_errors.push(error));
        Product { refined, class_errors }
    }

    /// `π_{X∪{A}}` alone: [`Partition::product`] for a caller that reads
    /// only the refined partition, so no class error is kept.
    pub fn refine(
        &self,
        index: &ItemIndex<'_>,
        attr: usize,
        scratch: &mut ItemScratch,
    ) -> Partition {
        self.multiply(index, attr, scratch, true, |_| {}).expect("a refined partition")
    }

    /// [`Partition::product`]'s walk, handing each class's error to
    /// `class_error` in class order.
    fn multiply(
        &self,
        index: &ItemIndex<'_>,
        attr: usize,
        scratch: &mut ItemScratch,
        refine: bool,
        mut class_error: impl FnMut(u32),
    ) -> Option<Partition> {
        let view = index.view(attr);
        scratch.fit(view.items);
        let record = refine && self.floor == 1;
        let mut slots: Vec<u32> =
            if record { Vec::with_capacity(self.slots.len()) } else { Vec::new() };
        // (first slot, start, end) per emitted class, in emission order.
        let mut emitted: Vec<(u32, u32, u32)> = Vec::new();
        // The step, its sub-classes named by emission order until the
        // refined classes are numbered.
        let mut step = Step { starts: Vec::new(), subs: Vec::new() };
        if record {
            step.starts.reserve(self.len() + 1);
            step.subs.reserve(self.len());
        }
        for class in self.classes() {
            if record {
                step.starts.push(step.subs.len() as u32);
            }
            if let [slot] = class {
                // A singleton (floor 1) is its own sub-class.
                class_error(0);
                if record {
                    step.subs.push((view.local(*slot), emitted.len() as u32));
                    slots.push(*slot);
                    emitted.push((*slot, slots.len() as u32 - 1, slots.len() as u32));
                }
                continue;
            }
            let largest = scratch.tally(class, |slot| view.local(slot));
            class_error(class.len() as u32 - largest);
            if refine {
                let start = slots.len() as u32;
                let ItemScratch { counts, touched } = &mut *scratch;
                if touched.len() == 1 {
                    // The class agrees on `attr`: it is its own sub-class.
                    if record {
                        step.subs.push((touched[0].0, emitted.len() as u32));
                    }
                    slots.extend_from_slice(class);
                    emitted.push((class[0], start, slots.len() as u32));
                } else {
                    // Counts become write cursors; sub-classes are laid
                    // out in first-seen order, so a class's own ascend
                    // by first slot.
                    let (mut end, subs) = (start, step.subs.len());
                    for &(item, first) in touched.iter() {
                        let count = &mut counts[item as usize];
                        if *count >= self.floor {
                            if record {
                                step.subs.push((item, emitted.len() as u32));
                            }
                            emitted.push((first, end, end + *count));
                            (*count, end) = (end, end + *count);
                        } else {
                            *count = STRIPPED;
                        }
                    }
                    // The step finds a sub-class by item.
                    step.subs[subs..].sort_unstable();
                    slots.resize(end as usize, 0);
                    for &slot in class {
                        let cursor = &mut counts[view.local(slot) as usize];
                        if *cursor != STRIPPED {
                            slots[*cursor as usize] = slot;
                            *cursor += 1;
                        }
                    }
                }
            }
            scratch.clear();
        }
        refine.then(|| {
            let (mut part, class_of_emitted) = self.ordered(index, slots, emitted);
            if record {
                step.starts.push(step.subs.len() as u32);
                if let Some(class_of) = class_of_emitted {
                    step.subs.iter_mut().for_each(|(_, e)| *e = class_of[*e as usize]);
                }
                part.steps = self.steps.iter().cloned().chain([Arc::new(step)]).collect();
            }
            part
        })
    }

    /// The refined partition of `emitted` classes (`(first slot, start,
    /// end)` into `slots`), put in first-slot order — already so unless
    /// some class of `self` split — and, when they moved, each emitted
    /// class's number. At floor 1 the classes cover every live slot, so
    /// a walk of the live slots orders them in linear time; above it,
    /// they are sorted.
    fn ordered(
        &self,
        index: &ItemIndex<'_>,
        slots: Vec<u32>,
        emitted: Vec<(u32, u32, u32)>,
    ) -> (Partition, Option<Vec<u32>>) {
        let floor = self.floor;
        let mut bounds = Vec::with_capacity(emitted.len() + 1);
        bounds.push(0);
        if emitted.windows(2).all(|w| w[0].0 < w[1].0) {
            bounds.extend(emitted.iter().map(|&(.., end)| end));
            return (Partition { slots, bounds, floor, steps: Vec::new() }, None);
        }
        let mut order: Vec<u32> = Vec::with_capacity(emitted.len());
        if floor == 1 {
            let mut heads = vec![ABSENT; index.table().slots()];
            for (e, &(first, ..)) in emitted.iter().enumerate() {
                heads[first as usize] = e as u32;
            }
            order.extend(
                index.live().iter().map(|&slot| heads[slot as usize]).filter(|&e| e != ABSENT),
            );
        } else {
            order.extend(0..emitted.len() as u32);
            order.sort_unstable_by_key(|&e| emitted[e as usize].0);
        }
        let mut part = Partition { slots: vec![0; slots.len()], bounds, floor, steps: Vec::new() };
        let mut class_of = vec![0; emitted.len()];
        let mut end = 0;
        for (c, &e) in order.iter().enumerate() {
            let (_, from, to) = emitted[e as usize];
            let (from, to) = (from as usize, to as usize);
            part.slots[end..end + to - from].copy_from_slice(&slots[from..to]);
            end += to - from;
            part.bounds.push(end as u32);
            class_of[e as usize] = c as u32;
        }
        (part, Some(class_of))
    }
}

/// The partition of a table's live slots by an attribute list, kept under
/// single-slot moves (see the module doc). Classes are numbered in
/// first-seen order, their keys back to back in one arena.
pub struct MaintainedPartition {
    attrs: Vec<usize>,
    rhs: usize,
    /// Key → class number, hashed as [`hash_at`] over the key.
    ids: GroupBy<u32, ()>,
    /// Class `c`'s key is `keys[c * attrs.len()..][..attrs.len()]`.
    keys: Vec<Sym>,
    classes: Vec<LiveClass>,
}

/// One class: its live slots, ascending, and per distinct
/// right-hand-side symbol among them, its count.
type LiveClass = (Vec<u32>, Vec<(Sym, u32)>);

impl MaintainedPartition {
    /// No class yet: the partition by `attrs` (a list, in key order),
    /// counting right-hand sides under `rhs`.
    pub fn new(attrs: &[usize], rhs: usize) -> Self {
        let (ids, keys, classes) = (GroupBy::new(), Vec::new(), Vec::new());
        MaintainedPartition { attrs: attrs.to_vec(), rhs, ids, keys, classes }
    }

    /// The class of the key the tuple at `slot` of `table` carries, if any.
    pub fn find(&self, table: &Table, slot: usize) -> Option<usize> {
        let same = |&c: &u32| matches_at(table, &self.attrs, slot, self.key(c as usize));
        self.ids.probe(hash_at(table, &self.attrs, slot), same)
    }

    /// Put live slot `slot` of `table` in its key's class (made, and
    /// numbered next, if new) after its lower slots — an append without
    /// a search. Its class, and whether the class just stopped agreeing
    /// on the right-hand side (the slot brought its second value).
    pub fn add(&mut self, table: &Table, slot: usize) -> (usize, bool) {
        let hash = hash_at(table, &self.attrs, slot);
        let same = |&c: &u32| matches_at(table, &self.attrs, slot, self.key(c as usize));
        let c = self.ids.probe(hash, same).unwrap_or_else(|| {
            self.keys.extend(self.attrs.iter().map(|&a| table.col(a)[slot]));
            self.classes.push(Default::default());
            self.ids.insert_unique(hash, self.classes.len() as u32 - 1, ())
        });
        let (slots, counts) = &mut self.classes[c];
        let rhs = table.col(self.rhs)[slot];
        let slot = u32::try_from(slot).expect("Sym columns of 2^32 slots do not fit in memory");
        let newest = slots.last() < Some(&slot);
        let at = if newest { slots.len() } else { slots.partition_point(|&s| s < slot) };
        slots.insert(at, slot);
        match counts.iter_mut().find(|(s, _)| *s == rhs) {
            Some((_, n)) => *n += 1,
            None => counts.push((rhs, 1)),
        }
        (c, counts.len() == 2 && counts[1] == (rhs, 1))
    }

    /// Take slot `slot` of `table` out of its class, reading its cells as
    /// they stand (a tombstoned slot keeps its symbols). Its class, and
    /// whether the class agrees on the right-hand side again (the slot
    /// took its second-last value); `None` if the slot was in no class.
    pub fn remove(&mut self, table: &Table, slot: usize) -> Option<(usize, bool)> {
        let c = self.find(table, slot)?;
        let (slots, counts) = &mut self.classes[c];
        slots.remove(slots.binary_search(&u32::try_from(slot).ok()?).ok()?);
        let rhs = table.col(self.rhs)[slot];
        let i = counts.iter().position(|&(s, _)| s == rhs)?;
        counts[i].1 -= 1;
        let gone = counts[i].1 == 0;
        if gone {
            counts.swap_remove(i);
        }
        Some((c, gone && counts.len() == 1))
    }

    /// Class `c`'s live slots, ascending: the first is its eldest.
    pub fn class(&self, c: usize) -> &[u32] {
        &self.classes[c].0
    }

    /// Class `c`'s key: the attribute list's symbols, in list order.
    pub fn key(&self, c: usize) -> &[Sym] {
        &self.keys[c * self.attrs.len()..][..self.attrs.len()]
    }

    /// Class `c`'s [`class_error`] under the right-hand side, off its counts.
    pub fn error(&self, c: usize) -> u32 {
        let (slots, counts) = &self.classes[c];
        slots.len() as u32 - counts.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }
}

/// The partition code this module replaced, kept as the oracle its
/// property tests compare against: classes as `Vec<Vec<usize>>` built
/// by hashing each row's projection, the product through a row → class
/// vector and a map per class. Verbatim except that rows are slots (the
/// replaced code numbered live positions) and `n_rows` bounds them.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::{GroupBy, Sym, Table};
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
mod tests {
    use super::*;
    use crate::{Schema, TupleId, Type, Value};

    /// A seeded table of 2–6 columns over 3–5-value alphabets with
    /// `Null`s, duplicate rows and tombstoned rows (SplitMix64, so a
    /// failing case reproduces from its seed alone).
    fn random_table(seed: u64) -> Table {
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
    fn lhs_sets(arity: usize) -> Vec<Vec<usize>> {
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

    /// `π_X` at `floor` through products from the first attribute's.
    fn partition_of(index: &ItemIndex<'_>, x: &[usize], floor: usize) -> Partition {
        let mut scratch = ItemScratch::default();
        let mut part = index.partition(x[0]).stripped(floor);
        for &a in &x[1..] {
            part = part.product(index, a, &mut scratch, true).refined.unwrap();
        }
        part
    }

    fn as_groups(part: &Partition, n_rows: usize) -> oracle::Partition {
        let groups = part
            .classes()
            .filter(|c| c.len() >= 2)
            .map(|c| c.iter().map(|&s| s as usize).collect())
            .collect();
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
    fn lists_cover_live_rows_once_per_attribute_in_slot_order() {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Str).build();
        let mut t = Table::new(s);
        let mut ids = Vec::new();
        for (a, b) in [(1, "x"), (2, "x"), (1, "y"), (3, "x"), (1, "x")] {
            ids.push(t.push(vec![Value::Int(a), b.into()]).unwrap());
        }
        t.delete(ids[1]).unwrap(); // (2, x): a tombstoned slot is never indexed
        let index = ItemIndex::build(&t);
        assert_eq!(index.len(), 4, "a ∈ {{1, 3}}, b ∈ {{x, y}}");
        for attr in 0..2 {
            let mut seen: Vec<u32> = Vec::new();
            for id in index.items_of(attr) {
                let (a, sym) = index.item(id);
                assert_eq!(a, attr);
                assert_eq!(index.local_item(attr, sym), Some(id - index.items_of(attr).start));
                let rows = index.rows(id);
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending: {rows:?}");
                for &slot in rows {
                    assert!(t.is_live(slot as usize));
                    assert_eq!(index.sym_at(attr, slot), sym);
                    assert_eq!(index.id_at(attr, slot), id);
                }
                seen.extend_from_slice(rows);
            }
            seen.sort_unstable();
            assert_eq!(seen, t.live_slots().map(|s| s as u32).collect::<Vec<_>>());
        }
        let one = t.pool().lookup(&Value::Int(1)).unwrap();
        let a1 = index.items_of(0).find(|&id| index.item(id).1 == one).unwrap();
        assert_eq!(index.rows(a1), &[0, 2, 4]);
        let two = t.pool().lookup(&Value::Int(2)).unwrap();
        assert_eq!(index.local_item(0, two), None, "only a dead row carries a=2");
    }

    #[test]
    fn empty_table_indexes_nothing() {
        let t = Table::new(Schema::builder("r").attr("a", Type::Int).build());
        let index = ItemIndex::build(&t);
        assert_eq!(index.len(), 0);
        assert!(index.items_of(0).is_empty());
        assert!(Partition::whole(index.live()).is_empty());
    }

    #[test]
    fn attributes_index_on_demand_and_release_alone() {
        let t = table();
        let mut index = ItemIndex::new(&t);
        assert!(index.is_empty());
        assert!(index.index_attr(1));
        assert!(!index.index_attr(1), "indexed once");
        assert_eq!(index.items_of(1), 0..4, "b's items are numbered first");
        assert!(index.index_attr(0));
        assert_eq!(index.items_of(0), 4..7);
        index.release_attr(1);
        assert!(index.index_attr(1), "released, then indexed afresh");
        assert_eq!(index.items_of(1), 7..11, "item ids are never reused");
        assert_eq!(classes(index.partition(0)), vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn build_strips_singletons() {
        let t = table();
        let index = ItemIndex::build(&t);
        // a-classes: {0,1}, {2,3}, {4}(stripped).
        let pa = index.partition(0).stripped(2);
        assert_eq!(classes(&pa), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(pa.len(), 2);
        // b: only {0,1} repeats.
        assert_eq!(classes(&index.partition(1).stripped(2)), vec![vec![0, 1]]);
    }

    #[test]
    fn refinement_matches_direct_build() {
        let t = table();
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::new(&index);
        let pa = index.partition(0).stripped(2);
        let pab = pa.product(&index, 1, &mut scratch, true).refined.unwrap();
        assert_eq!(as_groups(&pab, t.slots()), oracle::Partition::build(&t, &[0, 1]));
        let pb = index.partition(1).stripped(2);
        let pba = pb.product(&index, 0, &mut scratch, true).refined;
        assert_eq!(Some(pab), pba);
    }

    #[test]
    fn fd_check_via_error() {
        let t = table();
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::new(&index);
        let pa = index.partition(0).stripped(2);
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
        let pa = index.partition(0).stripped(2);
        // a → b fails on the y-class ({2,3} splits into singletons):
        // removing one of its two rows fixes it; the x-class agrees.
        let ab = pa.product(&index, 1, &mut scratch, true);
        assert_eq!(classes(&ab.refined.unwrap()), vec![vec![0, 1]]);
        assert_eq!(ab.class_errors, vec![0, 1]);
        for (class, &err) in pa.classes().zip(&ab.class_errors) {
            assert_eq!(class_error(class, |slot| index.local_at(1, slot), &mut scratch), err);
        }
        // b → a: {0,1} agrees on a; the singleton classes of b are
        // stripped, so they carry no error.
        let ba = index.partition(1).stripped(2).product(&index, 0, &mut scratch, false);
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
        let ab = index.partition(0).stripped(2).product(&index, 1, &mut scratch, true);
        assert_eq!(classes(&ab.refined.unwrap()), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(ab.class_errors, vec![2, 0]);
        // At floor 1: the same order, by the linear walk.
        let ab = index.partition(0).product(&index, 1, &mut scratch, true);
        assert_eq!(classes(&ab.refined.unwrap()), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn classes_are_found_by_their_items() {
        let t = table();
        let index = ItemIndex::build(&t);
        let mut scratch = ItemScratch::default();
        let pa = index.partition(0);
        let pab = pa.product(&index, 1, &mut scratch, true).refined.unwrap();
        assert_eq!(classes(&pab), vec![vec![0, 1], vec![2], vec![3], vec![4]]);
        let mut class_of = vec![u32::MAX; t.slots()];
        for (c, class) in pab.classes().enumerate() {
            class.iter().for_each(|&slot| class_of[slot as usize] = c as u32);
        }
        assert_eq!(class_of, vec![0, 0, 1, 2, 3]);
        let local = |attr, v: &str| index.local_item(attr, t.pool().lookup(&v.into()).unwrap());
        let (y, three) = (local(0, "y").unwrap(), local(1, "3").unwrap());
        assert_eq!(pab.class_of_items(&[y, three]), Some(2));
        assert_eq!(pa.class_of_items(&[y]), Some(1));
        let (x, two) = (local(0, "x").unwrap(), local(1, "2").unwrap());
        assert_eq!(pab.class_of_items(&[x, two]), None, "no row is (x, 2)");
        assert_eq!(Partition::whole(index.live()).class_of_items(&[]), Some(0));
        let pabc = pab.product(&index, 2, &mut scratch, true).refined.unwrap();
        let r = local(2, "r").unwrap();
        assert_eq!(
            pabc.class_of_items(&[local(0, "z").unwrap(), local(1, "4").unwrap(), r]),
            Some(3)
        );
    }

    #[test]
    fn product_agrees_with_the_replaced_refine_and_g3_error() {
        for seed in 0..400u64 {
            let t = random_table(seed);
            let index = ItemIndex::build(&t);
            let mut scratch = ItemScratch::new(&index);
            let arity = t.schema().arity();
            for x in lhs_sets(arity) {
                let px = partition_of(&index, &x, 2);
                let old_px = oracle::Partition::build(&t, &x);
                assert_eq!(as_groups(&px, t.slots()), old_px, "seed {seed}: π_{x:?}");
                let full = partition_of(&index, &x, 1);
                assert_eq!(full.stripped(2), px, "seed {seed}: π_{x:?} at floor 1");
                for (c, class) in full.classes().enumerate() {
                    let items: Vec<u32> = (x.iter())
                        .map(|&a| index.local_item(a, index.sym_at(a, class[0])).unwrap())
                        .collect();
                    assert_eq!(full.class_of_items(&items), Some(c), "seed {seed}: π_{x:?}");
                }
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
                    let kept = full.product(&index, a, &mut scratch, true);
                    let whole = kept.refined.as_ref().expect("asked for");
                    assert_eq!(&whole.stripped(2), refined, "{ctx}: at floor 1");
                    let by_item = |slot| index.local_at(a, slot);
                    let errors: Vec<u32> =
                        full.classes().map(|c| class_error(c, by_item, &mut scratch)).collect();
                    assert_eq!(kept.class_errors, errors, "{ctx}: at floor 1");
                    // At floor k: the floor-1 classes of at least k slots,
                    // in order, and their errors.
                    for floor in 1..=4 {
                        let ctx = format!("{ctx}: at floor {floor}");
                        let pxk = partition_of(&index, &x, floor);
                        assert_eq!(pxk, full.stripped(floor), "{ctx}");
                        let at = pxk.product(&index, a, &mut scratch, true);
                        assert_eq!(at.refined, Some(whole.stripped(floor)), "{ctx}");
                        let errors: Vec<u32> = (full.classes().zip(&kept.class_errors))
                            .filter(|(class, _)| class.len() >= floor)
                            .map(|(_, &e)| e)
                            .collect();
                        assert_eq!(at.class_errors, errors, "{ctx}");
                    }
                    let mut by_sym = ItemScratch::for_keys(t.pool().len());
                    let sym = |slot| index.sym_at(a, slot).raw();
                    let errors: Vec<u32> =
                        full.classes().map(|c| class_error(c, sym, &mut by_sym)).collect();
                    assert_eq!(kept.class_errors, errors, "{ctx}: keyed by symbol");
                }
            }
            assert!(scratch.counts.iter().all(|&c| c == 0), "seed {seed}: scratch left dirty");
        }
    }

    /// The maintained partition of each `X` (as a list, last attribute
    /// first) counting the attribute after `X`'s last, driven through a
    /// random stream of pushes, deletes and cell writes: its non-empty
    /// classes are the floor-1 partition products build of the live rows,
    /// each ascending, each keyed by its members' projection, and each
    /// with the error [`class_error`] computes over its slots.
    #[test]
    fn maintained_partition_equals_the_built_one_after_any_stream() {
        use rand::prelude::*;
        for seed in 0..400u64 {
            let mut t = random_table(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let arity = t.schema().arity();
            let mut kept: Vec<(Vec<usize>, usize, MaintainedPartition)> = (lhs_sets(arity))
                .into_iter()
                .map(|x| {
                    let (attrs, rhs) =
                        (x.iter().rev().copied().collect::<Vec<_>>(), (x[0] + 1) % arity);
                    let mut part = MaintainedPartition::new(&attrs, rhs);
                    t.live_slots().for_each(|slot| _ = part.add(&t, slot));
                    (x, rhs, part)
                })
                .collect();
            let value = |rng: &mut StdRng| match rng.gen_range(0..5) {
                0 => Value::Null,
                v => Value::str(format!("v{v}")),
            };
            for _ in 0..rng.gen_range(0..40) {
                let live: Vec<usize> = t.live_slots().collect();
                match rng.gen_range(0..3) {
                    0 if !live.is_empty() => {
                        let id = TupleId(*live.choose(&mut rng).unwrap() as u64);
                        t.delete(id).unwrap();
                        kept.iter_mut().for_each(|(.., part)| _ = part.remove(&t, id.0 as usize));
                    }
                    1 if !live.is_empty() => {
                        let (slot, attr) =
                            (*live.choose(&mut rng).unwrap(), rng.gen_range(0..arity));
                        let reading = |x: &[usize], rhs: usize| rhs == attr || x.contains(&attr);
                        for (x, rhs, part) in kept.iter_mut().filter(|(x, rhs, _)| reading(x, *rhs))
                        {
                            assert!(part.remove(&t, slot).is_some(), "seed {seed}: {x:?} → {rhs}");
                        }
                        t.set_cell(TupleId(slot as u64), attr, value(&mut rng)).unwrap();
                        for (_, _, part) in kept.iter_mut().filter(|(x, rhs, _)| reading(x, *rhs)) {
                            part.add(&t, slot);
                        }
                    }
                    _ => {
                        let slot = t.push((0..arity).map(|_| value(&mut rng)).collect()).unwrap();
                        kept.iter_mut().for_each(|(.., part)| _ = part.add(&t, slot.0 as usize));
                    }
                }
            }
            let index = ItemIndex::build(&t);
            let mut by_sym = ItemScratch::for_keys(t.pool().len());
            for (x, rhs, part) in &kept {
                let ctx = format!("seed {seed}: {x:?} → {rhs}");
                let mut want = classes(&partition_of(&index, x, 1));
                want.sort();
                let mut got: Vec<Vec<u32>> = Vec::new();
                for c in (0..part.classes.len()).filter(|&c| !part.class(c).is_empty()) {
                    let class = part.class(c);
                    assert!(class.windows(2).all(|w| w[0] < w[1]), "{ctx}: {class:?}");
                    for &slot in class {
                        let key: Vec<Sym> =
                            part.attrs.iter().map(|&a| t.col(a)[slot as usize]).collect();
                        assert_eq!(part.key(c), key, "{ctx}: slot {slot}");
                    }
                    let sym = |slot: u32| t.col(*rhs)[slot as usize].raw();
                    assert_eq!(
                        part.error(c),
                        class_error(class, sym, &mut by_sym),
                        "{ctx}: {class:?}"
                    );
                    got.push(class.to_vec());
                }
                got.sort();
                assert_eq!(got, want, "{ctx}");
            }
        }
    }
}
