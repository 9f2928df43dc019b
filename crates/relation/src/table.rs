//! Columnar tables with stable tuple identities.
//!
//! Stability of [`TupleId`]s matters downstream: violation reports, repair
//! logs and incremental detection all refer to tuples by id across
//! insertions and deletions. A tuple id is its *slot* — a position that
//! is never reused — and deletion clears a bit in a tombstone bitmap
//! rather than moving data, so deleting never renumbers survivors.
//!
//! Storage is **columnar-primary**: one dense `Vec<Sym>` per attribute,
//! interned against the table's [`ValuePool`] at push/set time. There is
//! no row-major store at all — `Value`s are materialised lazily from the
//! pool on demand (an `Arc` bump for strings, a copy for scalars). The
//! grouping kernels downstream (detection, repair, discovery, indexes)
//! scan column slices directly via [`Table::col`] / [`Table::proj`],
//! hashing and comparing `u32`s with no per-row fetch at all — the
//! storage half of the interned group-by kernel ([`crate::groupby`]).

use crate::error::{Error, Result};
use crate::groupby::ColProj;
use crate::pool::{Sym, ValuePool};
use crate::schema::Schema;
use crate::value::Value;

/// Stable identifier of a tuple within one [`Table`]: its slot index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u64);

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An in-memory relation instance, stored column-major.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    /// One dense symbol vector per attribute; all have length
    /// [`Table::slots`]. Dead slots keep their last symbol (never
    /// dereferenced — every read is guarded by the live bitmap).
    cols: Vec<Vec<Sym>>,
    /// Live bitmap, one bit per slot (1 = live, 0 = tombstone).
    live: Vec<u64>,
    /// Total slots ever allocated (live + tombstoned).
    slots: usize,
    /// Number of set bits in `live`.
    live_count: usize,
    pool: ValuePool,
}

impl Table {
    /// Empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        let cols = vec![Vec::new(); schema.arity()];
        Table { schema, cols, live: Vec::new(), slots: 0, live_count: 0, pool: ValuePool::new() }
    }

    /// Empty table with row capacity preallocated.
    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let cols = vec![Vec::with_capacity(cap); schema.arity()];
        Table {
            schema,
            cols,
            live: Vec::with_capacity(cap.div_ceil(64)),
            slots: 0,
            live_count: 0,
            pool: ValuePool::new(),
        }
    }

    /// Rebuild a table from its raw columnar parts — the snapshot
    /// loader's entry point. `cols` must all have length `slots`, every
    /// live slot's symbols must index `pool`, and `live` must hold
    /// `slots.div_ceil(64)` words with no bits set at or past `slots`.
    pub(crate) fn from_parts(
        schema: Schema,
        cols: Vec<Vec<Sym>>,
        live: Vec<u64>,
        slots: usize,
        pool: ValuePool,
    ) -> Self {
        let live_count = live.iter().map(|w| w.count_ones() as usize).sum();
        Table { schema, cols, live, slots, live_count, pool }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True if no live tuples.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Total slots ever allocated — the exclusive upper bound on live
    /// slot indices (and on `TupleId` values). Column slices returned by
    /// [`Table::col`] have exactly this length.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Is slot `slot` live?
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.slots && (self.live[slot >> 6] >> (slot & 63)) & 1 == 1
    }

    /// One attribute's dense symbol column (length [`Table::slots`]).
    /// Dead slots hold stale symbols; mask with [`Table::is_live`] or
    /// iterate [`Table::live_slots`].
    #[inline]
    pub fn col(&self, attr: usize) -> &[Sym] {
        &self.cols[attr]
    }

    /// The live bitmap: word `w` holds slots `64w..64w + 64`, bit set =
    /// live, no bit set at or past [`Table::slots`] — the snapshot
    /// writer's word-at-a-time view.
    pub(crate) fn live_words(&self) -> &[u64] {
        &self.live
    }

    /// Live slot indices in ascending order — the scan driver for every
    /// columnar kernel. Word-at-a-time over the bitmap.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((wi << 6) | b)
            })
        })
    }

    /// A borrowed column projection onto `attrs` — the columnar probe
    /// the grouping kernels key on (see [`ColProj`]).
    pub fn proj<'a>(&'a self, attrs: &[usize]) -> ColProj<'a> {
        ColProj::new(attrs.iter().map(|&a| self.cols[a].as_slice()).collect())
    }

    /// Insert a row, validating arity and types. Returns its stable id.
    /// Cells are interned into the table's [`ValuePool`] here — this is
    /// the "pay once at append time" half of the interned kernel.
    pub fn push(&mut self, row: Vec<Value>) -> Result<TupleId> {
        self.schema.check_row(&row)?;
        Ok(self.push_unchecked(row))
    }

    /// Insert without validation. For bulk loads from trusted generators.
    ///
    /// Invariants still required: `row.len() == schema.arity()`; callers
    /// that cannot guarantee types should use [`Table::push`].
    pub fn push_unchecked(&mut self, row: Vec<Value>) -> TupleId {
        debug_assert_eq!(row.len(), self.schema.arity());
        for (col, v) in self.cols.iter_mut().zip(&row) {
            let sym = self.pool.intern(v);
            col.push(sym);
        }
        self.mark_pushed()
    }

    /// Insert a row of symbols already interned through
    /// [`Table::pool_mut`] — the CSV loader's push, which never builds a
    /// `Value` per cell. `row.len()` must be the schema's arity.
    pub(crate) fn push_syms(&mut self, row: &[Sym]) -> TupleId {
        debug_assert_eq!(row.len(), self.schema.arity());
        for (col, &sym) in self.cols.iter_mut().zip(row) {
            col.push(sym);
        }
        self.mark_pushed()
    }

    /// Give the columns' spare capacity back.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.cols.iter_mut().for_each(Vec::shrink_to_fit);
        self.live.shrink_to_fit();
    }

    /// The pool, to intern the cells of a row bound for [`Table::push_syms`].
    pub(crate) fn pool_mut(&mut self) -> &mut ValuePool {
        &mut self.pool
    }

    /// Account for the slot the columns just grew by: live, and the
    /// newest tuple id.
    fn mark_pushed(&mut self) -> TupleId {
        let slot = self.slots;
        if slot >> 6 >= self.live.len() {
            self.live.push(0);
        }
        self.live[slot >> 6] |= 1u64 << (slot & 63);
        self.slots += 1;
        self.live_count += 1;
        TupleId(slot as u64)
    }

    /// Delete a tuple, returning its former row. Idempotent errors:
    /// deleting twice fails. The slot's symbols stay in the columns
    /// (stale, bitmap-masked, still readable through [`Table::col`] —
    /// the maintained detector finds a deleted tuple's groups by them);
    /// only the live bit clears.
    pub fn delete(&mut self, id: TupleId) -> Result<Vec<Value>> {
        let slot = id.0 as usize;
        if !self.is_live(slot) {
            return Err(Error::NoSuchTuple(id.0));
        }
        let row = self.materialize(slot);
        self.live[slot >> 6] &= !(1u64 << (slot & 63));
        self.live_count -= 1;
        Ok(row)
    }

    /// Materialise a live row from the pool.
    pub fn get(&self, id: TupleId) -> Result<Vec<Value>> {
        let slot = id.0 as usize;
        if !self.is_live(slot) {
            return Err(Error::NoSuchTuple(id.0));
        }
        Ok(self.materialize(slot))
    }

    /// One cell of a live row, borrowed from the pool (no clone).
    pub fn value_at(&self, id: TupleId, attr: usize) -> Result<&Value> {
        let slot = id.0 as usize;
        if !self.is_live(slot) {
            return Err(Error::NoSuchTuple(id.0));
        }
        Ok(self.pool.value(self.cols[attr][slot]))
    }

    /// One cell's interned symbol (live rows only).
    pub fn sym_at(&self, id: TupleId, attr: usize) -> Result<Sym> {
        let slot = id.0 as usize;
        if !self.is_live(slot) {
            return Err(Error::NoSuchTuple(id.0));
        }
        Ok(self.cols[attr][slot])
    }

    /// The table's value pool — column symbols index it.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Is `id` a live tuple?
    pub fn contains(&self, id: TupleId) -> bool {
        self.is_live(id.0 as usize)
    }

    /// Overwrite a single cell of a live tuple.
    pub fn set_cell(&mut self, id: TupleId, attr: usize, v: Value) -> Result<()> {
        self.check_write(id, attr, &v)?;
        let sym = self.pool.intern(&v);
        self.cols[attr][id.0 as usize] = sym;
        Ok(())
    }

    /// Overwrite a single cell of a live tuple with a symbol of this
    /// table's pool: [`Table::set_cell`] without interning the value
    /// again, and refused where `set_cell` would refuse the value the
    /// symbol stands for. `sym` must come from [`Table::pool`] (one
    /// past its end panics, as [`ValuePool::value`] does).
    pub fn set_sym(&mut self, id: TupleId, attr: usize, sym: Sym) -> Result<()> {
        self.check_write(id, attr, self.pool.value(sym))?;
        self.cols[attr][id.0 as usize] = sym;
        Ok(())
    }

    /// May `v` go into cell `(id, attr)`: a known attribute whose type
    /// admits it, on a live tuple?
    fn check_write(&self, id: TupleId, attr: usize, v: &Value) -> Result<()> {
        if attr >= self.schema.arity() {
            return Err(Error::UnknownAttribute {
                relation: self.schema.name().into(),
                attribute: format!("#{attr}"),
            });
        }
        if !self.schema.attribute(attr).ty.admits(v) {
            return Err(Error::TypeMismatch {
                attribute: self.schema.attr_name(attr).into(),
                expected: self.schema.attribute(attr).ty.to_string(),
                got: v.to_string(),
            });
        }
        if !self.is_live(id.0 as usize) {
            return Err(Error::NoSuchTuple(id.0));
        }
        Ok(())
    }

    fn materialize(&self, slot: usize) -> Vec<Value> {
        self.cols.iter().map(|c| self.pool.value(c[slot]).clone()).collect()
    }

    /// Iterate over live `(id, row)` pairs in id order, materialising
    /// each row from the pool. Columnar kernels should prefer
    /// [`Table::col`]/[`Table::proj`]; this is the convenience path for
    /// value-level consumers.
    pub fn rows(&self) -> impl Iterator<Item = (TupleId, Vec<Value>)> + '_ {
        self.live_slots().map(|slot| (TupleId(slot as u64), self.materialize(slot)))
    }

    /// All live tuple ids in order.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.live_slots().map(|slot| TupleId(slot as u64))
    }

    /// Project a live row onto a list of attribute positions.
    pub fn project(&self, id: TupleId, attrs: &[usize]) -> Result<Vec<Value>> {
        let slot = id.0 as usize;
        if !self.is_live(slot) {
            return Err(Error::NoSuchTuple(id.0));
        }
        Ok(attrs.iter().map(|&a| self.pool.value(self.cols[a][slot]).clone()).collect())
    }

    /// Deep-copy the live rows into a fresh table (compacting ids and
    /// the pool — only symbols live rows reference survive).
    pub fn compacted(&self) -> Table {
        let mut t = Table::with_capacity(self.schema.clone(), self.live_count);
        for (_, row) in self.rows() {
            t.push_unchecked(row);
        }
        t
    }

    /// Count of cells that differ between `self` and `other`, matched by
    /// tuple id. Tuples present in one but not the other count all their
    /// cells as differing. This is the "repair distance" of Cong et al.
    /// with unit weights. Cells compare through each table's own pool —
    /// symbols are never compared across pools.
    pub fn diff_cells(&self, other: &Table) -> usize {
        let arity = self.schema.arity();
        let n = self.slots.max(other.slots);
        let mut diff = 0;
        for slot in 0..n {
            match (self.is_live(slot), other.is_live(slot)) {
                (true, true) => {
                    for a in 0..arity {
                        if self.pool.value(self.cols[a][slot])
                            != other.pool.value(other.cols[a][slot])
                        {
                            diff += 1;
                        }
                    }
                }
                (true, false) | (false, true) => diff += arity,
                (false, false) => {}
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Type;

    fn tbl() -> Table {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Str).build();
        Table::new(s)
    }

    #[test]
    fn push_get_len() {
        let mut t = tbl();
        let id = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn push_rejects_bad_rows() {
        let mut t = tbl();
        assert!(t.push(vec![Value::Int(1)]).is_err());
        assert!(t.push(vec!["x".into(), "y".into()]).is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn delete_is_stable() {
        let mut t = tbl();
        let a = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        let b = t.push(vec![Value::Int(2), "y".into()]).unwrap();
        let gone = t.delete(a).unwrap();
        assert_eq!(gone, vec![Value::Int(1), "x".into()]);
        assert_eq!(t.len(), 1);
        // b's id survives a's deletion.
        assert_eq!(t.get(b).unwrap()[0], Value::Int(2));
        assert!(t.get(a).is_err());
        assert!(t.delete(a).is_err());
    }

    #[test]
    fn delete_keeps_the_slots_symbols_readable() {
        let mut t = tbl();
        let a = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        t.push(vec![Value::Int(2), "y".into()]).unwrap();
        let syms = vec![t.sym_at(a, 0).unwrap(), t.sym_at(a, 1).unwrap()];
        t.delete(a).unwrap();
        // Later pushes and writes go elsewhere: the slot is never reused.
        let c = t.push(vec![Value::Int(3), "z".into()]).unwrap();
        t.set_cell(c, 1, "w".into()).unwrap();
        assert_eq!(vec![t.col(0)[a.0 as usize], t.col(1)[a.0 as usize]], syms);
        assert_eq!(t.pool().value(syms[1]), &Value::from("x"));
    }

    #[test]
    fn rows_skips_tombstones() {
        let mut t = tbl();
        let a = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        t.push(vec![Value::Int(2), "y".into()]).unwrap();
        t.delete(a).unwrap();
        let ids: Vec<_> = t.rows().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TupleId(1)]);
        assert_eq!(t.live_slots().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn set_cell_checks_types() {
        let mut t = tbl();
        let id = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        t.set_cell(id, 1, "z".into()).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::from("z"));
        assert!(t.set_cell(id, 0, "not an int".into()).is_err());
        assert!(t.set_cell(id, 9, Value::Int(0)).is_err());
    }

    /// A symbol write refuses what the value write refuses, and neither
    /// grows the pool.
    #[test]
    fn set_sym_checks_what_set_cell_checks() {
        let mut t = tbl();
        let id = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        let other = t.push(vec![Value::Int(2), "y".into()]).unwrap();
        let (y, two) = (t.sym_at(other, 1).unwrap(), t.sym_at(other, 0).unwrap());
        let pool = t.pool().len();
        t.set_sym(id, 1, y).unwrap();
        assert_eq!(t.get(id).unwrap(), [Value::Int(1), Value::from("y")]);
        assert!(matches!(t.set_sym(id, 0, y), Err(Error::TypeMismatch { .. })));
        assert!(matches!(t.set_sym(id, 9, two), Err(Error::UnknownAttribute { .. })));
        t.delete(other).unwrap();
        assert_eq!(t.set_sym(other, 0, two), Err(Error::NoSuchTuple(other.0)));
        assert_eq!(t.get(id).unwrap(), [Value::Int(1), Value::from("y")]);
        assert_eq!(t.pool().len(), pool);
    }

    #[test]
    fn project() {
        let mut t = tbl();
        let id = t.push(vec![Value::Int(5), "q".into()]).unwrap();
        assert_eq!(t.project(id, &[1]).unwrap(), vec![Value::from("q")]);
    }

    #[test]
    fn diff_cells_counts_changes_and_missing() {
        let mut a = tbl();
        let mut b = tbl();
        let i1 = a.push(vec![Value::Int(1), "x".into()]).unwrap();
        a.push(vec![Value::Int(2), "y".into()]).unwrap();
        b.push(vec![Value::Int(1), "x".into()]).unwrap();
        b.push(vec![Value::Int(2), "z".into()]).unwrap();
        assert_eq!(a.diff_cells(&b), 1);
        // Deleting a tuple counts all its cells.
        a.delete(i1).unwrap();
        assert_eq!(a.diff_cells(&b), 1 + 2);
    }

    #[test]
    fn columns_track_cells() {
        let mut t = tbl();
        let a = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        let b = t.push(vec![Value::Int(1), "y".into()]).unwrap();
        // Equal cells share a symbol; distinct cells differ.
        assert_eq!(t.sym_at(a, 0).unwrap(), t.sym_at(b, 0).unwrap());
        assert_ne!(t.sym_at(a, 1).unwrap(), t.sym_at(b, 1).unwrap());
        // Columns are dense: col(0)[slot] is the cell's symbol.
        assert_eq!(t.col(0)[a.0 as usize], t.sym_at(a, 0).unwrap());
        assert_eq!(t.col(1).len(), t.slots());
        // set_cell re-interns in place.
        t.set_cell(b, 1, "x".into()).unwrap();
        assert_eq!(t.sym_at(a, 1).unwrap(), t.sym_at(b, 1).unwrap());
        assert_eq!(t.pool().value(t.sym_at(b, 1).unwrap()), &Value::from("x"));
        assert_eq!(t.value_at(b, 1).unwrap(), &Value::from("x"));
        // Foreign-value lookups resolve only interned values.
        assert!(t.pool().lookup(&"x".into()).is_some());
        assert!(t.pool().lookup(&"never-seen".into()).is_none());
        // Deleting keeps ids and columns of survivors intact.
        t.delete(a).unwrap();
        assert!(t.sym_at(a, 0).is_err());
        assert!(!t.is_live(a.0 as usize));
        assert!(t.sym_at(b, 1).is_ok());
    }

    #[test]
    fn proj_groups_like_keyproj() {
        let mut t = tbl();
        t.push(vec![Value::Int(1), "x".into()]).unwrap();
        t.push(vec![Value::Int(1), "y".into()]).unwrap();
        t.push(vec![Value::Int(2), "x".into()]).unwrap();
        let attrs = [0usize];
        let p = t.proj(&attrs);
        assert_eq!(p.hash_at(0), p.hash_at(1));
        assert_ne!(p.hash_at(0), p.hash_at(2));
        let k = p.key_at(0);
        assert!(p.matches_at(1, &k));
        assert!(!p.matches_at(2, &k));
    }

    #[test]
    fn compacted_renumbers() {
        let mut t = tbl();
        let a = t.push(vec![Value::Int(1), "x".into()]).unwrap();
        t.push(vec![Value::Int(2), "y".into()]).unwrap();
        t.delete(a).unwrap();
        let c = t.compacted();
        assert_eq!(c.len(), 1);
        assert_eq!(c.slots(), 1);
        assert_eq!(c.get(TupleId(0)).unwrap()[0], Value::Int(2));
        // The compacted pool drops symbols only dead rows referenced.
        assert!(c.pool().lookup(&Value::Int(1)).is_none());
    }
}
