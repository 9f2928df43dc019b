//! CFDMiner — discovery of *constant* CFDs via free-itemset mining.
//!
//! A constant CFD `([X = tp] → [A = a])` with support `k` corresponds to
//! a **free itemset** `X=tp` (no proper subset has the same support)
//! whose *closure* (items present in every supporting tuple) contains
//! `(A, a)`. This module mines frequent itemsets level-wise over row
//! lists (Eclat's tid-lists): level 1 is the table's [`ItemIndex`], and
//! every frequent itemset derives all its frequent children at once by
//! bucketing its own rows on each later attribute's column — a level's
//! support counting reads Σ parent supports, never the table. Support,
//! freeness and closure all read the child's row list; rules stay item
//! numbers until one final ordering and materialisation; and the
//! returned [`DiscoveryStats`] report every support/size cut the search
//! applied plus the rows the counting touched.

use crate::engine::DiscoveryStats;
use crate::items::{ItemId, ItemIndex};
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::Cfd;
use revival_obs::JobProfile;
use revival_relation::{Table, Value, ValuePool};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
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

/// A frequent itemset: its items (ascending attribute) and where its
/// supporting rows sit in its level's row arena.
struct Itemset {
    items: Box<[ItemId]>,
    rows: Range<usize>,
}

/// A mined rule, still in item numbers.
struct ItemRule {
    lhs: Box<[ItemId]>,
    rhs: ItemId,
    support: usize,
}

/// Mine constant CFDs with the given support threshold, reporting the
/// items and itemsets the thresholds dropped, whether `max_size`
/// stopped the lattice early, and the rows support counting read. An
/// itemset no row supports yields no rule, so a `min_support` of 0
/// mines as 1.
pub fn mine_constant_cfds(
    table: &Table,
    options: &MinerOptions,
) -> (Vec<ConstantRule>, DiscoveryStats) {
    mine_indexed(&ItemIndex::build(table), options, None)
}

/// The profile row (kind `itemsets`) of one itemset level.
pub(crate) fn level_row(table: &Table, size: usize) -> String {
    format!("{} itemsets k={size}", table.schema().name())
}

/// The profile row (kind `rules`) carrying one relation's constant-rule
/// ordering, materialisation and conversion to CFDs.
pub(crate) fn rules_row(table: &Table) -> String {
    format!("{} constant rules", table.schema().name())
}

/// [`mine_constant_cfds`] over an index the caller already built (the
/// lattice's conditional probe reads the same one), with optional
/// attribution into `profile`: one `itemsets` row per level
/// (`<relation> itemsets k=<K>`: candidates checked/pruned, support rows
/// touched, wall) and the closing order + materialisation on the
/// relation's `rules` row. The mined output is identical either way.
pub(crate) fn mine_indexed(
    index: &ItemIndex<'_>,
    options: &MinerOptions,
    mut profile: Option<&mut JobProfile>,
) -> (Vec<ConstantRule>, DiscoveryStats) {
    let table = index.table();
    let arity = table.schema().arity();
    let min_support = options.min_support.max(1);

    // Level 1 is the index itself: every frequent item with its rows
    // (an infrequent item is pruned, never a candidate).
    let mut level: Vec<Itemset> = (0..index.len() as ItemId)
        .map(|id| Itemset { items: Box::new([id]), rows: index.row_range(id) })
        .filter(|set| set.rows.len() >= min_support)
        .collect();
    let mut arena: Cow<'_, [u32]> = Cow::Borrowed(index.all_rows());
    let mut stats = DiscoveryStats {
        candidates_pruned: index.len() - level.len(),
        support_rows_touched: arity * table.len(),
        ..DiscoveryStats::default()
    };
    let mut candidates = level.len();
    let (mut pruned, mut touched) = (stats.candidates_pruned, stats.support_rows_touched);
    let last_attr = |set: &Itemset| index.item(set.items[set.items.len() - 1]).0;
    // Frequent items over attributes ≥ a: an itemset ending on
    // attribute a−1 has exactly that many candidate extensions, so the
    // candidate counts need no candidate to be materialised.
    let mut items_from = vec![0usize; arity + 1];
    for set in &level {
        items_from[last_attr(set)] += 1;
    }
    for a in (0..arity).rev() {
        items_from[a] += items_from[a + 1];
    }

    // The previous level's supports, for the freeness check.
    let mut supports: HashMap<Box<[ItemId]>, usize> =
        HashMap::from([(Box::default(), table.len())]);
    let mut rules: Vec<ItemRule> = Vec::new();
    let mut cursors = vec![0usize; index.len()];
    let mut subset: Vec<ItemId> = Vec::new();
    for size in 1..=options.max_size {
        if candidates == 0 {
            break;
        }
        let level_start = Instant::now();
        if size > 1 {
            // This level's supports: bucket the previous level's rows.
            supports = level.iter().map(|set| (set.items.clone(), set.rows.len())).collect();
            let (next, next_arena, read) = extend(index, &level, &arena, min_support, &mut cursors);
            (level, arena, touched) = (next, Cow::Owned(next_arena), read);
            pruned = candidates - level.len();
            stats.candidates_pruned += pruned;
            stats.support_rows_touched += touched;
        }
        stats.levels = size;
        stats.candidates_checked += candidates;
        for set in &level {
            let rows = &arena[set.rows.clone()];
            // Freeness: every proper subset has strictly larger support
            // (each is frequent, so the previous level counted it).
            let free = (0..set.items.len()).all(|skip| {
                subset.clear();
                subset.extend_from_slice(&set.items[..skip]);
                subset.extend_from_slice(&set.items[skip + 1..]);
                supports[subset.as_slice()] > rows.len()
            });
            if !free {
                continue;
            }
            // Closure: one rule per outside attribute the rows agree on.
            for attr in 0..arity {
                let first = index.sym_at(attr, rows[0]);
                if set.items.iter().all(|&i| index.item(i).0 != attr)
                    && rows.iter().all(|&r| index.sym_at(attr, r) == first)
                {
                    rules.push(ItemRule {
                        lhs: set.items.clone(),
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
        candidates = level.iter().map(|set| items_from[last_attr(set) + 1]).sum();
    }
    // Candidates past `max_size` were never examined — say so.
    stats.lattice_truncated = candidates > 0;
    drop((level, arena));
    let order_start = Instant::now();
    let rules = materialise(rules, index, table.pool());
    if let Some(p) = profile {
        p.entry(&rules_row(table), "rules").wall_us += order_start.elapsed().as_micros() as u64;
    }
    (rules, stats)
}

/// Every frequent one-item extension of `level`'s itemsets: each
/// parent's rows are bucketed on each later attribute's column (count,
/// then place — rows stay ascending), and a bucket of at least
/// `min_support` rows is a frequent child. Returns the children, their
/// row arena, and the rows read. `cursors` is all-zero scratch, one
/// entry per item, and is returned all-zero.
fn extend(
    index: &ItemIndex<'_>,
    level: &[Itemset],
    arena: &[u32],
    min_support: usize,
    cursors: &mut [usize],
) -> (Vec<Itemset>, Vec<u32>, usize) {
    const INFREQUENT: usize = usize::MAX;
    let arity = index.table().schema().arity();
    let (mut next, mut next_arena, mut touched) = (Vec::new(), Vec::new(), 0);
    let mut seen: Vec<ItemId> = Vec::new();
    for set in level {
        let rows = &arena[set.rows.clone()];
        let last = index.item(set.items[set.items.len() - 1]).0;
        for attr in last + 1..arity {
            touched += rows.len();
            for &slot in rows {
                let id = index.id_at(attr, slot);
                if cursors[id as usize] == 0 {
                    seen.push(id);
                }
                cursors[id as usize] += 1;
            }
            // A frequent bucket's count becomes its write cursor.
            for &id in &seen {
                let count = std::mem::replace(&mut cursors[id as usize], INFREQUENT);
                if count >= min_support {
                    let start = next_arena.len();
                    cursors[id as usize] = start;
                    next_arena.resize(start + count, 0);
                    let items = set.items.iter().copied().chain([id]).collect();
                    next.push(Itemset { items, rows: start..start + count });
                }
            }
            for &slot in rows {
                let cursor = &mut cursors[index.id_at(attr, slot) as usize];
                if *cursor != INFREQUENT {
                    next_arena[*cursor] = slot;
                    *cursor += 1;
                }
            }
            for id in seen.drain(..) {
                cursors[id as usize] = 0;
            }
        }
    }
    (next, next_arena, touched)
}

/// Order the mined rules and turn their items back into `Value`s.
///
/// The order is inherited, not designed: rules used to be sorted by
/// LHS size and then by their `Debug` rendering, `--emit` files list
/// tableau rows in that order, and so it survives exactly — attribute
/// `10` before `2`, `Int(10)` before `Int(9)`. An item's `Debug`
/// fragment is prefix-free, so comparing two renderings is comparing
/// their items' fragments in sequence: rank each used item once by its
/// fragment and sort by (LHS size, LHS ranks, RHS rank). `(lhs, rhs)`
/// is unique per rule, so `support` never decides.
fn materialise(
    mut rules: Vec<ItemRule>,
    index: &ItemIndex<'_>,
    pool: &ValuePool,
) -> Vec<ConstantRule> {
    let item = |id: ItemId| {
        let (attr, sym) = index.item(id);
        (attr, pool.value(sym).clone())
    };
    let mut used: Vec<ItemId> =
        rules.iter().flat_map(|r| r.lhs.iter().copied().chain([r.rhs])).collect();
    used.sort_unstable();
    used.dedup();
    // Equal fragments (NaN payloads) share a rank, as they tied before.
    let mut fragments: BTreeMap<String, Vec<ItemId>> = BTreeMap::new();
    for id in used {
        fragments.entry(format!("{:?}", item(id))).or_default().push(id);
    }
    let mut rank = vec![0usize; index.len()];
    for (at, ids) in fragments.values().enumerate() {
        ids.iter().for_each(|&id| rank[id as usize] = at);
    }
    rules.sort_by_cached_key(|r| {
        let ranks = r.lhs.iter().chain([&r.rhs]).map(|&id| rank[id as usize]);
        (r.lhs.len(), ranks.collect::<Vec<_>>())
    });
    rules
        .into_iter()
        .map(|r| ConstantRule {
            lhs: r.lhs.iter().map(|&id| item(id)).collect(),
            rhs: item(r.rhs),
            support: r.support,
        })
        .collect()
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
    /// miner must agree with, rule for rule and stat for stat.
    mod oracle {
        use super::super::{ConstantRule, MinerOptions};
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
}
