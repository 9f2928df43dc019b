//! Secondary hash indexes over attribute sets, keyed by the table's own
//! symbols.
//!
//! An index maps each distinct projection of a fixed attribute list to
//! the live tuples carrying it, optionally only those that also carry
//! fixed symbols at some attributes (a resolved CIND target pattern). It
//! is what every inclusion check reads — CIND witness probes and IND
//! discovery walk its distinct [`Index::keys`] and translate each into
//! the other relation's pool once — and how the SQL detection oracle
//! joins result keys back to tuples ([`Index::lookup`], which resolves
//! values through the table's own pool: a value the table never
//! interned matches nothing). Built on the [`GroupBy`] kernel over the
//! symbol columns, it boxes each distinct key once and allocates
//! nothing else per key or per row.

use crate::groupby::{hash_syms, GroupBy};
use crate::pool::Sym;
use crate::table::{Table, TupleId};
use crate::value::Value;

/// A hash index on a fixed list of attribute positions of one table.
#[derive(Clone, Debug)]
pub struct Index<'t> {
    table: &'t Table,
    /// Distinct keys in first-occurrence order; a key's entry index is
    /// its group number.
    map: GroupBy<Box<[Sym]>, ()>,
    /// `ids[starts[g]..starts[g + 1]]` are group `g`'s tuples, ascending.
    starts: Vec<usize>,
    ids: Vec<TupleId>,
}

impl<'t> Index<'t> {
    /// Index every live tuple of `table` on `attrs`.
    pub fn build(table: &'t Table, attrs: &[usize]) -> Self {
        Self::build_where(table, attrs, &[])
    }

    /// Index on `attrs` the live tuples of `table` carrying symbol `s` at
    /// attribute `a` for every `(a, s)` in `filter`.
    pub fn build_where(table: &'t Table, attrs: &[usize], filter: &[(usize, Sym)]) -> Self {
        let proj = table.proj(attrs);
        let mut map: GroupBy<Box<[Sym]>, ()> = GroupBy::new();
        let mut tagged = Vec::with_capacity(table.len());
        for slot in table.live_slots() {
            if filter.iter().all(|&(a, s)| table.col(a)[slot] == s) {
                let hash = proj.hash_at(slot);
                let group = match map.probe(hash, |k| proj.matches_at(slot, k)) {
                    Some(g) => g,
                    None => map.insert_unique(hash, proj.key_at(slot), ()),
                };
                tagged.push((group, TupleId(slot as u64)));
            }
        }
        // Stable: each group's tuples stay in slot order.
        tagged.sort_by_key(|&(group, _)| group);
        let starts = (0..=map.len()).map(|g| tagged.partition_point(|t| t.0 < g)).collect();
        Index { table, map, starts, ids: tagged.into_iter().map(|(_, t)| t).collect() }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no tuple is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The distinct keys, in the table's symbols and first-occurrence
    /// order.
    pub fn keys(&self) -> impl Iterator<Item = &[Sym]> + '_ {
        self.map.iter().map(|(k, ())| &**k)
    }

    /// Tuples whose projection equals `key`, given in the table's own
    /// symbols.
    pub fn get(&self, key: &[Sym]) -> &[TupleId] {
        match self.map.probe(hash_syms(key.iter().copied()), |k| **k == *key) {
            Some(g) => &self.ids[self.starts[g]..self.starts[g + 1]],
            None => &[],
        }
    }

    /// Tuples whose projection equals `key` (one value per indexed
    /// attribute, in index order).
    pub fn lookup(&self, key: &[Value]) -> &[TupleId] {
        let pool = self.table.pool();
        match key.iter().map(|v| pool.lookup(v)).collect::<Option<Vec<Sym>>>() {
            Some(syms) => self.get(&syms),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Schema, Type};

    fn table() -> Table {
        let s = Schema::builder("r").attr("a", Type::Str).attr("b", Type::Int).build();
        let mut t = Table::new(s);
        t.push(vec!["x".into(), Value::Int(1)]).unwrap();
        t.push(vec!["x".into(), Value::Int(2)]).unwrap();
        t.push(vec!["y".into(), Value::Int(3)]).unwrap();
        t
    }

    #[test]
    fn build_and_lookup() {
        let t = table();
        let ix = Index::build(&t, &[0]);
        assert_eq!(ix.lookup(&["x".into()]), [TupleId(0), TupleId(1)]);
        assert_eq!(ix.lookup(&["y".into()]), [TupleId(2)]);
        assert_eq!(ix.lookup(&["z".into()]).len(), 0);
    }

    #[test]
    fn composite_key() {
        let t = table();
        let ix = Index::build(&t, &[0, 1]);
        assert_eq!(ix.lookup(&["x".into(), Value::Int(1)]), [TupleId(0)]);
        assert!(ix.lookup(&["y".into(), Value::Int(1)]).is_empty());
        // Wrong-arity probes are empty, not panics.
        assert!(ix.lookup(&["x".into()]).is_empty());
        // A value the table holds, but not under this key, misses too.
        assert!(ix.lookup(&[Value::Int(1), Value::Int(1)]).is_empty());
    }

    #[test]
    fn filter_keeps_only_tuples_carrying_the_fixed_symbols() {
        let mut t = table();
        t.push(vec!["x".into(), Value::Int(1)]).unwrap();
        t.delete(TupleId(0)).unwrap();
        let x = t.pool().lookup(&"x".into()).unwrap();
        let ix = Index::build_where(&t, &[1], &[(0, x)]);
        // Tuple 0 is dead and tuple 2 carries `y`: keys 2 and 1 remain,
        // in slot order, each in the table's own symbols.
        let sym = |i: i64| t.pool().lookup(&Value::Int(i)).unwrap();
        assert_eq!(ix.keys().collect::<Vec<_>>(), [[sym(2)], [sym(1)]]);
        assert_eq!(ix.get(&[sym(1)]), [TupleId(3)]);
        assert!(ix.get(&[sym(3)]).is_empty());
        assert_eq!(ix.len(), 2);
    }
}
