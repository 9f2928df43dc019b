//! The item index — what every support count in this crate reads.
//!
//! An *item* is one `(attribute, Sym)` pair occurring in a live row.
//! [`ItemIndex::build`] numbers a table's items densely (grouped by
//! attribute) and stores, per item, the ascending live slots carrying
//! it — Eclat's tid-lists, as `u32`. The support of an itemset is then
//! a filter of a *parent's* row list on one more column, never a scan
//! of the table: CFDMiner buckets a frequent itemset's rows on each
//! later attribute ([`crate::cfdminer`]). The lattice shares the ids: a
//! single attribute's stripped partition is its row lists of ≥ 2 rows,
//! [`ItemIndex::id_at`] is the probe of the partition product, and the
//! conditional probe buckets class errors by item
//! ([`crate::partition`], [`crate::ctane::condition_errors`]).

use revival_relation::{Sym, Table};
use std::ops::Range;

/// A dense item number, unique across the table's attributes.
pub(crate) type ItemId = u32;

/// [`ItemIndex::id_of`] entry of a symbol the column never carries.
const ABSENT: ItemId = ItemId::MAX;

/// Per-`(attribute, Sym)` row lists of one table's live rows.
pub(crate) struct ItemIndex<'a> {
    table: &'a Table,
    /// Item → its `(attribute, Sym)`; an attribute's items are
    /// contiguous, in first-seen row order.
    items: Vec<(usize, Sym)>,
    /// Attribute → its items' id range.
    attr_items: Vec<Range<ItemId>>,
    /// Attribute → `Sym::index()` → item ([`ABSENT`] if not in the column).
    id_of: Vec<Vec<ItemId>>,
    /// Item → start of its rows in `rows` (one trailing end entry).
    starts: Vec<usize>,
    /// Live slots grouped by item, ascending within each.
    rows: Vec<u32>,
}

impl<'a> ItemIndex<'a> {
    /// Index `table`'s live rows: per column, one sweep to number and
    /// count its items and one to place each slot in its item's list.
    pub(crate) fn build(table: &'a Table) -> Self {
        let arity = table.schema().arity();
        let live: Vec<u32> = table
            .live_slots()
            .map(|slot| {
                u32::try_from(slot).expect("Sym columns of 2^32 slots do not fit in memory")
            })
            .collect();
        let mut index = ItemIndex {
            table,
            items: Vec::new(),
            attr_items: Vec::with_capacity(arity),
            id_of: Vec::with_capacity(arity),
            starts: vec![0],
            rows: vec![0; arity * live.len()],
        };
        for attr in 0..arity {
            let col = table.col(attr);
            let first = index.items.len();
            let mut id_of = vec![ABSENT; table.pool().len()];
            let mut counts: Vec<usize> = Vec::new();
            for &slot in &live {
                let id = &mut id_of[col[slot as usize].index()];
                if *id == ABSENT {
                    *id = index.items.len() as ItemId;
                    index.items.push((attr, col[slot as usize]));
                    counts.push(0);
                }
                counts[*id as usize - first] += 1;
            }
            // Each item's rows start where its predecessor's end.
            let mut cursors: Vec<usize> = Vec::with_capacity(counts.len());
            for count in counts {
                let start = index.starts[index.starts.len() - 1];
                cursors.push(start);
                index.starts.push(start + count);
            }
            for &slot in &live {
                let cursor = &mut cursors[id_of[col[slot as usize].index()] as usize - first];
                index.rows[*cursor] = slot;
                *cursor += 1;
            }
            index.attr_items.push(first as ItemId..index.items.len() as ItemId);
            index.id_of.push(id_of);
        }
        index
    }

    /// The indexed table.
    pub(crate) fn table(&self) -> &'a Table {
        self.table
    }

    /// Distinct items across all attributes.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Every item's rows back to back — level 1 of the itemset lattice.
    pub(crate) fn all_rows(&self) -> &[u32] {
        &self.rows
    }

    /// The items of one attribute.
    pub(crate) fn items_of(&self, attr: usize) -> Range<ItemId> {
        self.attr_items[attr].clone()
    }

    pub(crate) fn item(&self, id: ItemId) -> (usize, Sym) {
        self.items[id as usize]
    }

    /// Where `id`'s rows sit in [`ItemIndex::all_rows`].
    pub(crate) fn row_range(&self, id: ItemId) -> Range<usize> {
        self.starts[id as usize]..self.starts[id as usize + 1]
    }

    /// The ascending live slots carrying `id` — its support is the length.
    pub(crate) fn rows(&self, id: ItemId) -> &[u32] {
        &self.rows[self.row_range(id)]
    }

    /// The symbol of live slot `slot` under `attr`.
    #[inline]
    pub(crate) fn sym_at(&self, attr: usize, slot: u32) -> Sym {
        self.table.col(attr)[slot as usize]
    }

    /// The item live slot `slot` carries under `attr`.
    #[inline]
    pub(crate) fn id_at(&self, attr: usize, slot: u32) -> ItemId {
        self.id_of[attr][self.sym_at(attr, slot).index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::{Schema, Type, Value};

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
    }

    #[test]
    fn empty_table_indexes_nothing() {
        let t = Table::new(Schema::builder("r").attr("a", Type::Int).build());
        let index = ItemIndex::build(&t);
        assert_eq!(index.len(), 0);
        assert!(index.items_of(0).is_empty());
    }
}
