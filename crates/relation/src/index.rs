//! Secondary hash indexes over attribute sets.
//!
//! An index maps a projected key (values of a fixed attribute list) to
//! the tuple ids carrying that key. It has two callers, both probing
//! with values from outside the table: the SQL detection oracle
//! (`revival-detect`'s `sqlgen`) joins query result keys back to tuple
//! ids with [`Index::lookup`], and CIND witness probes project a source
//! tuple onto the target's attributes with [`Index::lookup_mapped`].
//!
//! Built on the interned [`GroupBy`] kernel: the index owns a
//! [`ValuePool`] and stores keys as symbol tuples. A probe value
//! resolves through [`ValuePool::lookup`]: a value the index never saw
//! cannot match any key, so the probe returns empty without hashing a
//! single string twice.

use crate::groupby::{hash_syms, GroupBy};
use crate::pool::{Sym, ValuePool};
use crate::table::{Table, TupleId};
use crate::value::Value;

/// A hash index on a fixed list of attribute positions of one table.
#[derive(Clone, Debug)]
pub struct Index {
    /// Number of indexed attributes: the length of every key.
    arity: usize,
    pool: ValuePool,
    map: GroupBy<Box<[Sym]>, Vec<TupleId>>,
}

impl Index {
    /// Build an index over `attrs` of `table` by scanning its symbol
    /// columns directly: each *distinct* table symbol resolves to an
    /// index symbol exactly once (one memo slot per pool entry), so no
    /// row is materialised and no string is hashed per occurrence.
    pub fn build(table: &Table, attrs: &[usize]) -> Self {
        let mut ix = Index { arity: attrs.len(), pool: ValuePool::new(), map: GroupBy::new() };
        let proj = table.proj(attrs);
        let mut memo: Vec<Option<Sym>> = vec![None; table.pool().len()];
        for slot in table.live_slots() {
            let syms: Vec<Sym> = (0..attrs.len())
                .map(|i| {
                    let ts = proj.sym_at(i, slot);
                    match memo[ts.index()] {
                        Some(s) => s,
                        None => {
                            let s = ix.pool.intern(table.pool().value(ts));
                            memo[ts.index()] = Some(s);
                            s
                        }
                    }
                })
                .collect();
            let hash = hash_syms(syms.iter().copied());
            let idx = match ix.map.probe(hash, |k| k.as_ref() == syms) {
                Some(i) => i,
                None => ix.map.insert_unique(hash, syms.into_boxed_slice(), Vec::new()),
            };
            ix.map.value_at_mut(idx).push(TupleId(slot as u64));
        }
        ix
    }

    /// Tuples whose projection equals `vals`, one value per indexed
    /// attribute in index order; empty on a wrong-arity probe.
    fn probe<'v>(&self, vals: impl ExactSizeIterator<Item = &'v Value>) -> &[TupleId] {
        if vals.len() != self.arity {
            return &[];
        }
        let Some(syms) = vals.map(|v| self.pool.lookup(v)).collect::<Option<Vec<Sym>>>() else {
            return &[];
        };
        let hash = hash_syms(syms.iter().copied());
        self.map.get(hash, |k| k.as_ref() == syms).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Tuples whose projection equals `key` (one value per indexed
    /// attribute, in index order).
    pub fn lookup(&self, key: &[Value]) -> &[TupleId] {
        self.probe(key.iter())
    }

    /// Look up projecting `row` through a caller-supplied attribute
    /// list positionally aligned with the *indexed* attributes — the
    /// cross-relation probe CIND detection uses (`row[attrs[i]]` must
    /// match indexed attribute `i`).
    pub fn lookup_mapped(&self, row: &[Value], attrs: &[usize]) -> &[TupleId] {
        self.probe(attrs.iter().map(|&a| &row[a]))
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
    }

    #[test]
    fn lookup_mapped_probes_foreign_rows() {
        let t = table();
        let ix = Index::build(&t, &[0]);
        // A foreign row whose attribute 2 plays the role of indexed
        // attribute 0.
        let foreign = vec![Value::Int(0), Value::Int(0), Value::from("x")];
        assert_eq!(ix.lookup_mapped(&foreign, &[2]).len(), 2);
        assert!(ix.lookup_mapped(&foreign, &[0]).is_empty());
        assert!(ix.lookup_mapped(&foreign, &[0, 2]).is_empty());
    }
}
