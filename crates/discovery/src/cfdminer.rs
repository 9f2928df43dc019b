//! CFDMiner — discovery of *constant* CFDs via free-itemset mining.
//!
//! A constant CFD `([X = tp] → [A = a])` with support `k` corresponds to
//! a **free itemset** `X=tp` (no proper subset has the same support)
//! whose *closure* (items present in every supporting tuple) contains
//! `(A, a)`. Only **left-reduced** rules are kept, as in Fan, Geerts, Li
//! and Xiong, *Discovering Conditional Functional Dependencies* (ICDE
//! 2009): `(A, a)` is in the closure of no proper non-empty subset of
//! `X=tp` — else that subset already fixes `A`, and the rule says
//! nothing the shorter one does not. (A single item's only proper subset
//! is ∅, and an empty LHS is no CFD the suite syntax writes: level 1
//! keeps its whole closure.) A superset's rows are a subset of its
//! subsets' rows, so closure is monotone and checking the `k − 1`
//! parents of a `k`-itemset covers every proper subset: each level
//! keeps one closure bitset per itemset, free or not, and a child
//! inherits its parents' before reading any column.
//!
//! Itemsets are mined level-wise over the partitions all of discovery
//! shares ([`Partition`], at floor `min_support`): the classes of `π_X`
//! are the frequent itemsets over attribute set `X`, each class's slots
//! its support. Level 1 is each attribute's item lists ([`ItemIndex`]);
//! level k + 1 is TANE's product `π_X · π_b` for each attribute `b`
//! after `X`'s last — Σ parent supports per later attribute, never the
//! table. The returned [`DiscoveryStats`] report every support/size cut
//! the search applied, the closure attributes left-reduction dropped
//! ([`DiscoveryStats::constants_not_minimal`]) and the rows the
//! counting touched.
//!
//! A level's itemsets keep their items, supports and closures in flat
//! arrays, and a rule is item numbers pointing into one LHS arena
//! (`MinedRules`), so mining allocates per attribute set, never per
//! itemset or per rule. `MinedRules::order` puts the rules in their
//! final order: each item used is ranked once, every rule's ranks sit
//! in one contiguous key matrix, and a stable radix pass per key
//! position sorts a level — no key is built per rule and no `Value` is
//! cloned or hashed. `Value`s appear only when a caller converts a rule:
//! [`mine_constant_cfds`] into [`ConstantRule`]s, the discovery engine
//! straight into mined CFDs.

use crate::engine::DiscoveryStats;
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::Cfd;
use revival_obs::JobProfile;
use revival_relation::groupby::hash_words;
use revival_relation::partition::{ItemId, ItemIndex, ItemScratch, Partition};
use revival_relation::{GroupBy, Table, Value};
use std::fmt::Write;
use std::time::Instant;

/// An item is `(attribute, value)`.
pub type Item = (usize, Value);

/// Options for [`mine_constant_cfds`].
#[derive(Clone, Debug)]
pub struct MinerOptions {
    /// Minimum number of supporting tuples.
    pub min_support: usize,
    /// Maximum itemset (LHS) size.
    pub max_size: usize,
}

impl Default for MinerOptions {
    fn default() -> Self {
        MinerOptions { min_support: 3, max_size: 3 }
    }
}

/// A mined constant rule `lhs ⇒ (attr = value)` with its support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstantRule {
    pub lhs: Vec<Item>,
    pub rhs: Item,
    pub support: usize,
}

impl ConstantRule {
    /// Convert to a normal-form [`Cfd`] over `schema`.
    pub fn to_cfd(&self, schema: &revival_relation::Schema) -> Cfd {
        let lhs_attrs: Vec<usize> = self.lhs.iter().map(|(a, _)| *a).collect();
        let lhs_pats: Vec<PatternValue> =
            self.lhs.iter().map(|(_, v)| PatternValue::Const(v.clone())).collect();
        Cfd {
            relation: schema.name().to_string(),
            lhs: lhs_attrs,
            rhs: self.rhs.0,
            tableau: vec![PatternRow::new(lhs_pats, PatternValue::Const(self.rhs.1.clone()))],
        }
    }
}

/// A mined rule, still in item numbers: its LHS is the `lhs_len` items
/// at `lhs_at` of its [`MinedRules`]' arena.
#[derive(Clone, Copy)]
pub(crate) struct ItemRule {
    lhs_at: u32,
    lhs_len: u32,
    pub(crate) rhs: ItemId,
    pub(crate) support: usize,
}

/// The constant miner's rules, in item numbers: the rules of one
/// itemset share its run of the LHS arena.
pub(crate) struct MinedRules {
    lhs: Vec<ItemId>,
    pub(crate) rules: Vec<ItemRule>,
}

impl MinedRules {
    /// The items of `rule`'s LHS, ascending by attribute.
    pub(crate) fn lhs(&self, rule: &ItemRule) -> &[ItemId] {
        &self.lhs[rule.lhs_at as usize..(rule.lhs_at + rule.lhs_len) as usize]
    }

    /// Put the rules in their final order.
    ///
    /// The order is inherited, not designed: rules used to be sorted by
    /// LHS size and then by their `Debug` rendering, `--emit` files list
    /// tableau rows in that order, and so it survives exactly — attribute
    /// `10` before `2`, `Int(10)` before `Int(9)`. An item's `Debug`
    /// fragment is prefix-free, so comparing two renderings is comparing
    /// their items' fragments in sequence: rank each used item once by
    /// its fragment (equal fragments — NaN payloads — share a rank, as
    /// they tied before), write each rule's ranks (LHS, then RHS) as one
    /// row of a key matrix per level, and sort the level with one stable
    /// counting pass per key position, last position first. Ties keep
    /// mining order, as the `(key, index)` sort this replaced did: by
    /// the itemset's attribute set (lexicographic), then by its first
    /// supporting slot, then by RHS attribute. `(lhs, rhs)` is unique
    /// per rule, so `support` never decides.
    pub(crate) fn order(&mut self, index: &ItemIndex<'_>) {
        let (rank, ranks) = rank_items(self, index);
        let mut counts = vec![0u32; ranks + 1];
        let MinedRules { lhs, rules } = self;
        // Mining appends the rules level by level.
        for level in rules.chunk_by_mut(|a, b| a.lhs_len == b.lhs_len) {
            let width = level[0].lhs_len as usize + 1;
            let mut keys: Vec<u32> = Vec::with_capacity(level.len() * width);
            for rule in level.iter() {
                let items = &lhs[rule.lhs_at as usize..][..rule.lhs_len as usize];
                keys.extend(items.iter().chain([&rule.rhs]).map(|&id| rank[id as usize]));
            }
            let mut order: Vec<u32> = (0..level.len() as u32).collect();
            let mut placed = vec![0u32; level.len()];
            for pos in (0..width).rev() {
                let key = |r: u32| keys[r as usize * width + pos] as usize;
                counts.fill(0);
                order.iter().for_each(|&r| counts[key(r) + 1] += 1);
                for k in 1..counts.len() {
                    counts[k] += counts[k - 1];
                }
                for &r in &order {
                    placed[counts[key(r)] as usize] = r;
                    counts[key(r)] += 1;
                }
                std::mem::swap(&mut order, &mut placed);
            }
            let sorted: Vec<ItemRule> = order.iter().map(|&r| level[r as usize]).collect();
            level.copy_from_slice(&sorted);
        }
    }
}

/// Every item the rules use, ranked by its `Debug` fragment: the rank
/// per item id (0 for unused ones) and the number of distinct ranks.
/// The fragments are written once into one string.
fn rank_items(mined: &MinedRules, index: &ItemIndex<'_>) -> (Vec<u32>, usize) {
    let pool = index.table().pool();
    let mut used: Vec<ItemId> = mined.lhs.to_vec();
    used.extend(mined.rules.iter().map(|r| r.rhs));
    used.sort_unstable();
    used.dedup();
    let (mut text, mut ends) = (String::new(), Vec::with_capacity(used.len()));
    for &id in &used {
        let (attr, sym) = index.item(id);
        write!(text, "{:?}", (attr, pool.value(sym))).expect("writing to a String cannot fail");
        ends.push(text.len());
    }
    let fragment = |i: usize| &text[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
    let mut by_text: Vec<usize> = (0..used.len()).collect();
    by_text.sort_unstable_by(|&a, &b| fragment(a).cmp(fragment(b)));
    let mut rank = vec![0u32; index.len()];
    let mut ranks = 0;
    for (n, &i) in by_text.iter().enumerate() {
        if n > 0 && fragment(by_text[n - 1]) != fragment(i) {
            ranks += 1;
        }
        rank[used[i] as usize] = ranks as u32;
    }
    (rank, ranks + usize::from(!used.is_empty()))
}

/// Mine left-reduced constant CFDs with the given support threshold,
/// reporting the items and itemsets the thresholds dropped, whether
/// `max_size` stopped the lattice early, and the rows support counting
/// read. An itemset no row supports yields no rule, so a `min_support`
/// of 0 mines as 1.
pub fn mine_constant_cfds(
    table: &Table,
    options: &MinerOptions,
) -> (Vec<ConstantRule>, DiscoveryStats) {
    let index = ItemIndex::build(table);
    let (mut mined, stats) = mine_indexed(&index, options, None);
    mined.order(&index);
    let item = |id: ItemId| {
        let (attr, sym) = index.item(id);
        (attr, table.pool().value(sym).clone())
    };
    let rules = (mined.rules.iter())
        .map(|r| ConstantRule {
            lhs: mined.lhs(r).iter().map(|&id| item(id)).collect(),
            rhs: item(r.rhs),
            support: r.support,
        })
        .collect();
    (rules, stats)
}

/// The profile row (kind `itemsets`) of one itemset level.
pub(crate) fn level_row(table: &Table, size: usize) -> String {
    format!("{} itemsets k={size}", table.schema().name())
}

/// The profile row (kind `rules`) carrying one relation's constant-rule
/// ordering and conversion to CFDs.
pub(crate) fn rules_row(table: &Table) -> String {
    format!("{} constant rules", table.schema().name())
}

/// [`mine_constant_cfds`] over an index the caller already built (the
/// lattice's conditional probe reads the same one), with optional
/// attribution into `profile`: one `itemsets` row per level
/// (`<relation> itemsets k=<K>`: candidates checked/pruned, support rows
/// touched, wall). The rules come out in mining order — by level, then
/// by itemset (attribute set, then first supporting slot) — for
/// [`MinedRules::order`] to sort. The mined output is identical either
/// way.
pub(crate) fn mine_indexed(
    index: &ItemIndex<'_>,
    options: &MinerOptions,
    mut profile: Option<&mut JobProfile>,
) -> (MinedRules, DiscoveryStats) {
    let table = index.table();
    let arity = table.schema().arity();
    let min_support = options.min_support.max(1);

    // A level is `π_X` at floor `min_support` per attribute set `X` of
    // its size (ascending, lexicographic): each class is one frequent
    // itemset over `X`. Level 1 is each attribute's item lists — an
    // infrequent item is pruned, never a candidate.
    let mut level: Vec<(Vec<usize>, Partition)> = (0..arity)
        .map(|a| (vec![a], index.partition(a).stripped(min_support)))
        .filter(|(_, part)| !part.is_empty())
        .collect();
    let mut candidates: usize = level.iter().map(|(_, part)| part.len()).sum();
    let mut stats = DiscoveryStats {
        candidates_pruned: index.len() - candidates,
        support_rows_touched: arity * table.len(),
        ..DiscoveryStats::default()
    };
    let (mut pruned, mut touched) = (stats.candidates_pruned, stats.support_rows_touched);
    // Frequent items over attributes after a: an itemset ending on
    // attribute a has exactly that many candidate extensions, so the
    // candidate counts need no candidate to be materialised.
    let items_after: Vec<usize> = (0..arity)
        .map(|a| level.iter().filter(|(b, _)| b[0] > a).map(|(_, part)| part.len()).sum())
        .collect();

    // Per set of a level, in class order: its items (`size` each), its
    // support and its closure — the attributes its rows agree on, built
    // for every set, free or not: a child's rule on `A` is left-reduced
    // only if no parent's closure holds `A`. The previous level's stay
    // for the freeness check, with its sets by their items (a frequent
    // set's subsets are all frequent). Level 1's only subset is ∅.
    let words = arity.div_ceil(64);
    let (mut items, mut parent_items): (Vec<ItemId>, Vec<ItemId>) = (Vec::new(), Vec::new());
    let (mut supports, mut parent_supports): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    let (mut closures, mut parent_closures): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let mut parents: GroupBy<u32, ()> = GroupBy::new();
    let bit = |attr: usize| (attr / 64, 1u64 << (attr % 64));
    let mut mined = MinedRules { lhs: Vec::new(), rules: Vec::new() };
    let mut scratch = ItemScratch::default();
    let mut subset: Vec<ItemId> = Vec::new();
    let hash = |items: &[ItemId]| hash_words(items.iter().map(|&id| u64::from(id)));
    for size in 1..=options.max_size {
        if candidates == 0 {
            break;
        }
        let level_start = Instant::now();
        if size > 1 {
            // This level's supports: `π_X · b` for every later attribute
            // `b`, reading each class of `π_X` once per `b`.
            touched = 0;
            let mut next = Vec::new();
            for (attrs, part) in &level {
                let last = attrs[attrs.len() - 1];
                touched += part.classes().map(<[u32]>::len).sum::<usize>() * (arity - last - 1);
                for b in last + 1..arity {
                    let refined = part.product(index, b, &mut scratch, true).refined;
                    let refined = refined.filter(|part| !part.is_empty());
                    next.extend(refined.map(|part| ([&attrs[..], &[b]].concat(), part)));
                }
            }
            level = next;
            std::mem::swap(&mut items, &mut parent_items);
            std::mem::swap(&mut supports, &mut parent_supports);
            std::mem::swap(&mut closures, &mut parent_closures);
            parents = GroupBy::with_capacity(parent_supports.len());
            for (set, items) in parent_items.chunks(size - 1).enumerate() {
                parents.insert_unique(hash(items), set as u32, ());
            }
            pruned = candidates - level.iter().map(|(_, part)| part.len()).sum::<usize>();
            stats.candidates_pruned += pruned;
            stats.support_rows_touched += touched;
        }
        stats.levels = size;
        stats.candidates_checked += candidates;
        items.clear();
        supports.clear();
        closures.clear();
        for (attrs, part) in &level {
            for rows in part.classes() {
                let set = supports.len();
                let at = items.len();
                items.extend(attrs.iter().map(|&a| index.id_at(a, rows[0])));
                supports.push(rows.len());
                closures.resize((set + 1) * words, 0);
                let (items, closure) = (&items[at..], &mut closures[set * words..]);
                // Freeness: every proper subset has strictly larger
                // support. A parent of equal support has the same rows,
                // so the same closure; the others' closures are
                // attributes the set's rows agree on without reading a
                // column.
                let mut free = table.len() > rows.len();
                if size > 1 {
                    free = true;
                    for skip in 0..size {
                        subset.clear();
                        subset.extend_from_slice(&items[..skip]);
                        subset.extend_from_slice(&items[skip + 1..]);
                        let parent =
                            |p: &u32| &parent_items[*p as usize * (size - 1)..][..size - 1];
                        let found = parents.probe(hash(&subset), |p| parent(p) == subset);
                        let p = found.expect("a frequent set's subsets are frequent");
                        let held = &parent_closures[p * words..(p + 1) * words];
                        if parent_supports[p] == rows.len() {
                            closure.copy_from_slice(held);
                            free = false;
                            break;
                        }
                        closure.iter_mut().zip(held).for_each(|(c, h)| *c |= h);
                    }
                    if !free {
                        continue;
                    }
                }
                for &id in items {
                    let (word, mask) = bit(index.item(id).0);
                    closure[word] |= mask;
                }
                if free {
                    // What the parents held outside the set: rules whose
                    // LHS a proper subset already fixes.
                    let known: u32 = closure.iter().map(|w| w.count_ones()).sum();
                    stats.constants_not_minimal += known as usize - size;
                }
                // The rest of the closure: one left-reduced rule per
                // other attribute the rows agree on; the set's rules
                // share one run of the LHS arena.
                let lhs_at = mined.lhs.len() as u32;
                for attr in 0..arity {
                    let (word, mask) = bit(attr);
                    let first = index.sym_at(attr, rows[0]);
                    if closure[word] & mask != 0
                        || !rows.iter().all(|&r| index.sym_at(attr, r) == first)
                    {
                        continue;
                    }
                    closure[word] |= mask;
                    if !free {
                        continue;
                    }
                    if mined.lhs.len() as u32 == lhs_at {
                        mined.lhs.extend_from_slice(items);
                    }
                    mined.rules.push(ItemRule {
                        lhs_at,
                        lhs_len: size as u32,
                        rhs: index.id_at(attr, rows[0]),
                        support: rows.len(),
                    });
                }
            }
        }
        if let Some(p) = profile.as_deref_mut() {
            let row = p.entry(&level_row(table, size), "itemsets");
            row.candidates_checked += candidates as u64;
            row.candidates_pruned += pruned as u64;
            row.rows_scanned += touched as u64;
            row.wall_us += level_start.elapsed().as_micros() as u64;
        }
        // The next level's candidates are counted, not built: past
        // `max_size` only their number (truncation) is ever needed.
        candidates = level
            .iter()
            .map(|(attrs, part)| part.len() * items_after[attrs[attrs.len() - 1]])
            .sum();
    }
    // Candidates past `max_size` were never examined — say so.
    stats.lattice_truncated = candidates > 0;
    (mined, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use revival_relation::{Schema, Type};

    /// The miner as it stood before row lists: `support_rows` re-reads
    /// the whole table for every candidate itemset, the freeness check
    /// falls back to a scan, candidates past `max_size` are built to set
    /// `lattice_truncated`, and the closing sort formats two `Debug`
    /// strings per comparison. Kept verbatim as the oracle the row-list
    /// miner must agree with, rule for rule and stat for stat — with a
    /// brute-force left-reduction filter after its mining, which the
    /// miner's parent closures must reproduce.
    mod oracle {
        use super::super::{ConstantRule, Item, MinerOptions};
        use crate::engine::DiscoveryStats;
        use crate::tane::map_items;
        use revival_relation::{Sym, Table};
        use std::collections::HashMap;

        type SymItem = (usize, Sym);

        /// A columnar view of a table's live rows: borrowed symbol columns plus
        /// the live-slot list, addressed by *row position* (0..len, tombstones
        /// skipped) as the lattice algorithms expect.
        struct ColView<'a> {
            cols: Vec<&'a [Sym]>,
            slots: Vec<usize>,
        }

        impl<'a> ColView<'a> {
            fn new(table: &'a Table) -> Self {
                let arity = table.schema().arity();
                ColView {
                    cols: (0..arity).map(|a| table.col(a)).collect(),
                    slots: table.live_slots().collect(),
                }
            }

            fn len(&self) -> usize {
                self.slots.len()
            }

            #[inline]
            fn sym(&self, pos: usize, attr: usize) -> Sym {
                self.cols[attr][self.slots[pos]]
            }
        }

        /// The row positions supporting an itemset (symbol comparisons only,
        /// touching only the itemset's columns).
        fn support_rows(view: &ColView<'_>, items: &[SymItem]) -> Vec<usize> {
            (0..view.len())
                .filter(|&pos| items.iter().all(|(a, s)| view.sym(pos, *a) == *s))
                .collect()
        }

        /// Closure of an itemset: all `(attr, sym)` constant across its
        /// supporting rows (attributes outside the itemset only).
        fn closure(
            view: &ColView<'_>,
            arity: usize,
            items: &[SymItem],
            supp: &[usize],
        ) -> Vec<SymItem> {
            let mut out = Vec::new();
            let Some(&first) = supp.first() else { return out };
            for a in 0..arity {
                if items.iter().any(|(ia, _)| *ia == a) {
                    continue;
                }
                let s = view.sym(first, a);
                if supp.iter().all(|&r| view.sym(r, a) == s) {
                    out.push((a, s));
                }
            }
            out
        }

        pub fn mine_constant_cfds_sharded(
            table: &Table,
            options: &MinerOptions,
            jobs: usize,
        ) -> (Vec<ConstantRule>, DiscoveryStats) {
            let mut stats = DiscoveryStats::default();
            let arity = table.schema().arity();
            let pool = table.pool();
            let view = ColView::new(table);

            // Level 1: frequent single items — one column scan per attribute.
            let mut counts: HashMap<SymItem, usize> = HashMap::new();
            for (a, col) in view.cols.iter().enumerate() {
                for &slot in &view.slots {
                    *counts.entry((a, col[slot])).or_insert(0) += 1;
                }
            }
            let distinct_items = counts.len();
            let frequent_items: Vec<SymItem> = {
                let mut items: Vec<SymItem> = counts
                    .into_iter()
                    .filter(|(_, c)| *c >= options.min_support)
                    .map(|(i, _)| i)
                    .collect();
                // Sort by (attr, value) — symbol ids are interning-order, so
                // order by the values they stand for.
                items.sort_by(|a, b| {
                    a.0.cmp(&b.0).then_with(|| pool.value(a.1).cmp(pool.value(b.1)))
                });
                items
            };
            stats.candidates_pruned += distinct_items - frequent_items.len();

            let mut rules: Vec<ConstantRule> = Vec::new();
            // Support cache for freeness checks: itemset → support count.
            let mut support_of: HashMap<Vec<SymItem>, usize> = HashMap::new();
            support_of.insert(Vec::new(), view.len());

            let mut level: Vec<Vec<SymItem>> = frequent_items.iter().map(|i| vec![*i]).collect();
            for size in 1..=options.max_size {
                if level.is_empty() {
                    break;
                }
                stats.levels = stats.levels.max(size);
                // The per-itemset support scans dominate the level and are
                // independent — shard them; everything downstream reads the
                // in-order results, so the rule list stays byte-identical.
                let supports: Vec<Vec<usize>> =
                    map_items(&level, jobs, || (), |_, itemset| support_rows(&view, itemset));
                let mut next: Vec<Vec<SymItem>> = Vec::new();
                for (itemset, supp) in level.iter().zip(&supports) {
                    stats.candidates_checked += 1;
                    if supp.len() < options.min_support {
                        stats.candidates_pruned += 1;
                        continue;
                    }
                    support_of.insert(itemset.clone(), supp.len());
                    // Freeness: every proper subset has strictly larger support.
                    let free = (0..itemset.len()).all(|skip| {
                        let sub: Vec<SymItem> = itemset
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != skip)
                            .map(|(_, x)| *x)
                            .collect();
                        let sub_support = *support_of
                            .entry(sub.clone())
                            .or_insert_with(|| support_rows(&view, &sub).len());
                        sub_support > supp.len()
                    });
                    if free {
                        for (a, s) in closure(&view, arity, itemset, supp) {
                            rules.push(ConstantRule {
                                lhs: itemset
                                    .iter()
                                    .map(|(ia, is)| (*ia, pool.value(*is).clone()))
                                    .collect(),
                                rhs: (a, pool.value(s).clone()),
                                support: supp.len(),
                            });
                        }
                    }
                    // Extend for the next level (keep items sorted, unique attrs).
                    let last = itemset.last().copied();
                    for item in &frequent_items {
                        if let Some(l) = &last {
                            let after = item.0 > l.0
                                || (item.0 == l.0 && pool.value(item.1) > pool.value(l.1));
                            if !after {
                                continue;
                            }
                        }
                        if itemset.iter().any(|(a, _)| *a == item.0) {
                            continue;
                        }
                        let mut bigger = itemset.clone();
                        bigger.push(*item);
                        next.push(bigger);
                    }
                }
                level = next;
            }
            // Candidates past `max_size` were never examined — say so.
            stats.lattice_truncated = !level.is_empty();
            rules.sort_by(|a, b| {
                a.lhs.len().cmp(&b.lhs.len()).then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
            });
            // Left-reduction, by brute force over `support_rows`: a rule
            // stays only if every proper non-empty subset of its LHS is
            // matched by some row carrying another RHS value.
            let sym = |(a, v): &Item| (*a, pool.lookup(v).expect("a mined value is interned"));
            let mined = rules.len();
            rules.retain(|r| {
                let lhs: Vec<SymItem> = r.lhs.iter().map(sym).collect();
                let (attr, value) = sym(&r.rhs);
                (1..(1usize << lhs.len()) - 1).all(|mask| {
                    let sub: Vec<SymItem> =
                        (0..lhs.len()).filter(|i| mask >> i & 1 == 1).map(|i| lhs[i]).collect();
                    support_rows(&view, &sub).iter().any(|&pos| view.sym(pos, attr) != value)
                })
            });
            stats.constants_not_minimal = mined - rules.len();
            (rules, stats)
        }
    }

    fn table() -> Table {
        // Planted rule: cc='01' ∧ ac='908' ⇒ city='mh' (and ac='908' alone
        // already determines city='mh' here).
        let s = Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("ac", Type::Str)
            .attr("city", Type::Str)
            .build();
        let mut t = Table::new(s);
        for (cc, ac, city) in [
            ("01", "908", "mh"),
            ("01", "908", "mh"),
            ("01", "908", "mh"),
            ("01", "212", "nyc"),
            ("01", "212", "nyc"),
            ("01", "212", "nyc"),
            ("44", "131", "edi"),
            ("44", "131", "edi"),
            ("44", "131", "edi"),
        ] {
            t.push(vec![cc.into(), ac.into(), city.into()]).unwrap();
        }
        t
    }

    #[test]
    fn finds_planted_constant_rule() {
        let t = table();
        let (rules, _) = mine_constant_cfds(&t, &MinerOptions { min_support: 3, max_size: 2 });
        let found = rules.iter().any(|r| {
            r.lhs == vec![(1usize, Value::from("908"))] && r.rhs == (2usize, Value::from("mh"))
        });
        assert!(found, "ac=908 ⇒ city=mh missing from {rules:?}");
    }

    #[test]
    fn freeness_suppresses_redundant_lhs() {
        let t = table();
        let (rules, _) = mine_constant_cfds(&t, &MinerOptions { min_support: 3, max_size: 2 });
        // (cc=01, ac=908) has the same support as (ac=908) alone → not
        // free → no rule with that 2-item LHS.
        let redundant = rules.iter().any(|r| {
            r.lhs.contains(&(0usize, Value::from("01")))
                && r.lhs.contains(&(1usize, Value::from("908")))
        });
        assert!(!redundant);
    }

    #[test]
    fn support_threshold_respected_and_reported() {
        let t = table();
        let (rules, stats) = mine_constant_cfds(&t, &MinerOptions { min_support: 4, max_size: 2 });
        for r in &rules {
            assert!(r.support >= 4);
        }
        // ac=908 group has support 3 → excluded at threshold 4, and the
        // drop shows up in the accounting.
        assert!(!rules.iter().any(|r| r.lhs == vec![(1usize, Value::from("908"))]));
        assert!(stats.candidates_pruned > 0, "{stats:?}");
    }

    #[test]
    fn truncation_reported_when_max_size_cuts() {
        let t = table();
        let (_, cut) = mine_constant_cfds(&t, &MinerOptions { min_support: 3, max_size: 1 });
        assert!(cut.lattice_truncated, "{cut:?}");
        assert_eq!(cut.levels, 1);
        let (_, full) = mine_constant_cfds(&t, &MinerOptions { min_support: 3, max_size: 3 });
        assert!(!full.lattice_truncated, "{full:?}");
    }

    #[test]
    fn mined_rules_hold_on_the_data() {
        let t = table();
        let (rules, _) = mine_constant_cfds(&t, &MinerOptions::default());
        for r in &rules {
            let cfd = r.to_cfd(t.schema());
            assert!(cfd.satisfied_by(&t), "mined rule violated: {r:?}");
        }
        assert!(!rules.is_empty());
    }
    /// Up to 11 attributes × 40 rows over small domains, so itemsets
    /// repeat: even attributes are `Int` over 8..=12 (`Int(10)` sorts
    /// before `Int(9)` in the inherited order, attribute `10` before
    /// `2`), odd ones `Str`; cell code 0 is `Null`; `deleted[r] == 0`
    /// tombstones row `r` after the load.
    fn random_table(arity: usize, rows: usize, cells: &[u8], deleted: &[u8]) -> Table {
        let mut schema = Schema::builder("r");
        for a in 0..arity {
            schema = schema.attr(format!("a{a}"), if a % 2 == 0 { Type::Int } else { Type::Str });
        }
        let mut t = Table::new(schema.build());
        let mut ids = Vec::new();
        for r in 0..rows {
            let row = (0..arity).map(|a| match (cells[r * 11 + a] % (2 + a as u8 % 4), a % 2) {
                (0, _) => Value::Null,
                (c, 0) => Value::Int(7 + c as i64),
                (c, _) => Value::str(format!("v{c}")),
            });
            ids.push(t.push(row.collect()).unwrap());
        }
        for (id, _) in ids.iter().zip(deleted).filter(|(_, d)| **d == 0) {
            t.delete(*id).unwrap();
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn row_list_miner_agrees_with_the_table_scan_oracle(
            shape in (2usize..=11, 0usize..=40, 1usize..=4, 1usize..=3),
            cells in prop::collection::vec(0u8..=255, 11 * 40..=11 * 40),
            deleted in prop::collection::vec(0u8..6, 40..=40),
        ) {
            let (arity, rows, min_support, max_size) = shape;
            let t = random_table(arity, rows, &cells, &deleted);
            let options = MinerOptions { min_support, max_size };
            let (rules, stats) = mine_constant_cfds(&t, &options);
            let (want, want_stats) = oracle::mine_constant_cfds_sharded(&t, &options, 1);
            prop_assert_eq!(&rules, &want, "arity {} rows {} {:?}", arity, rows, options);
            // The oracle predates the work count; every other field must agree.
            let stats = DiscoveryStats { support_rows_touched: 0, ..stats };
            prop_assert_eq!(stats, want_stats, "arity {} rows {} {:?}", arity, rows, options);
        }
    }

    /// A seeded table of 2–6 columns over 2–4 values each and 5–40 rows,
    /// with mining options (`min_support` 1–3, `max_size` 1–3) —
    /// SplitMix64, so a failing case reproduces from its seed alone.
    fn seeded_case(seed: u64) -> (Table, MinerOptions) {
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let arity = 2 + next(5) as usize;
        let values: Vec<u64> = (0..arity).map(|_| 2 + next(3)).collect();
        let mut schema = Schema::builder("r");
        for a in 0..arity {
            schema = schema.attr(format!("a{a}"), Type::Str);
        }
        let mut t = Table::new(schema.build());
        for _ in 0..5 + next(36) {
            t.push(values.iter().map(|&k| Value::str(format!("v{}", next(k)))).collect()).unwrap();
        }
        let options =
            MinerOptions { min_support: 1 + next(3) as usize, max_size: 1 + next(3) as usize };
        (t, options)
    }

    #[test]
    fn every_mined_rule_holds_has_a_free_lhs_and_is_left_reduced() {
        for seed in 0..600u64 {
            let (t, options) = seeded_case(seed);
            let rows: Vec<Vec<Value>> = t.rows().map(|(_, row)| row).collect();
            let matching = |items: &[&Item]| -> Vec<&Vec<Value>> {
                rows.iter().filter(|row| items.iter().all(|(a, v)| row[*a] == *v)).collect()
            };
            let (rules, _) = mine_constant_cfds(&t, &options);
            for r in &rules {
                let case = format!("seed {seed} {options:?}: {r:?}");
                let lhs: Vec<&Item> = r.lhs.iter().collect();
                let (attr, value) = &r.rhs;
                let support = matching(&lhs).len();
                assert!(support >= options.min_support && support == r.support, "{case}");
                assert!(matching(&lhs).iter().all(|row| row[*attr] == *value), "violated: {case}");
                // Every proper subset, ∅ included, by its bitmask.
                let subset = |mask: usize| -> Vec<&Item> {
                    (0..lhs.len()).filter(|i| mask >> i & 1 == 1).map(|i| lhs[i]).collect()
                };
                for mask in 0..(1usize << lhs.len()) - 1 {
                    let sub = subset(mask);
                    assert!(matching(&sub).len() > support, "not free ({sub:?}): {case}");
                    if mask > 0 {
                        let other = matching(&sub).iter().any(|row| row[*attr] != *value);
                        assert!(other, "not left-reduced ({sub:?} fixes the RHS): {case}");
                    }
                }
            }
        }
    }
}
