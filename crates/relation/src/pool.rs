//! Value interning: dense `u32` symbols for whole-value equality.
//!
//! Every hot path in the stack — detection grouping, repair equivalence
//! classes, TANE partitions, secondary indexes, SQL group-by — compares
//! and hashes *projections* of rows. Hashing a [`Value`] means walking a
//! string; cloning one bumps an `Arc`. A [`ValuePool`] pays that cost
//! once, at load/append time: each distinct value is assigned a dense
//! [`Sym`], and two cells hold equal values iff they hold equal symbols
//! (the pool's key equality is `Value` equality, so NULL == NULL and the
//! NaN-normalising float order are preserved exactly).
//!
//! The pool is its own hash table: an open-addressing array of symbol
//! indices over the value list, probed by a *borrowed* `Key` (`&str` /
//! `i64` / `f64` / null), so interning a cell allocates only the first
//! time its value is seen and no value is stored twice. Symbols are
//! issued in first-seen order, which is all any consumer observes — the
//! per-pool hash seed decides only where a symbol sits in the table.
//!
//! Symbols are only comparable within the pool that issued them — each
//! [`crate::Table`] owns one. Cross-table probes (CIND witnesses, IND
//! discovery) translate each distinct foreign symbol once by *looking
//! up* its value, never by assuming two pools agree. Symbol numeric order is an interning accident and
//! means nothing; consumers that need value order map back through
//! [`ValuePool::value`].

use crate::value::Value;
use std::hash::{BuildHasher, Hasher};

/// A dense symbol for one interned [`Value`]. `Sym` equality ⇔ value
/// equality (within one [`ValuePool`]); the numeric order is meaningless.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The symbol's index into its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` (for hashing).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from its raw index — snapshot decoding only;
    /// the caller owns the "indexes a real pool entry" invariant.
    pub(crate) fn from_raw(raw: u32) -> Sym {
        Sym(raw)
    }
}

/// A borrowed view of a [`Value`] — what the pool is probed with, so a
/// CSV field is interned without first becoming an owned `Value`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Key<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

/// Multipliers for [`fold`] (odd, high-entropy; the first is the golden
/// ratio, the others are from the wyhash family).
pub(crate) const K_WORD: u64 = 0x9E37_79B9_7F4A_7C15;
const K_LEN: u64 = 0xA076_1D64_78BD_642F;
pub(crate) const K_FINISH: u64 = 0xE703_7ED1_A0B4_28DB;

/// Folded 64×64→128 multiply: every input bit reaches every output bit.
#[inline]
pub(crate) fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Fold a byte string into `h` eight bytes at a time, its length mixed
/// in first so zero padding cannot alias — the string step of
/// [`Key::hash`] and of [`crate::groupby::FoldHasher`].
#[inline]
pub(crate) fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h ^ (bytes.len() as u64).wrapping_mul(K_LEN);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        h = fold(h ^ w, K_WORD);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = fold(h ^ u64::from_le_bytes(last), K_WORD);
    }
    h
}

impl<'a> Key<'a> {
    /// The borrowed view of an owned value.
    pub(crate) fn of(v: &'a Value) -> Self {
        match v {
            Value::Null => Key::Null,
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(i) => Key::Int(*i),
            Value::Float(f) => Key::Float(*f),
            Value::Str(s) => Key::Str(s),
        }
    }

    /// The owned value — the one allocation a first-seen string costs.
    pub(crate) fn to_value(self) -> Value {
        match self {
            Key::Null => Value::Null,
            Key::Bool(b) => Value::Bool(b),
            Key::Int(i) => Value::Int(i),
            Key::Float(f) => Value::Float(f),
            Key::Str(s) => Value::str(s),
        }
    }

    /// `Value` equality against a stored value (floats by total-order
    /// key, variants never equal across tags).
    fn matches(self, v: &Value) -> bool {
        match (self, v) {
            (Key::Null, Value::Null) => true,
            (Key::Bool(a), Value::Bool(b)) => a == *b,
            (Key::Int(a), Value::Int(b)) => a == *b,
            (Key::Float(a), Value::Float(b)) => Value::float_key(a) == Value::float_key(*b),
            (Key::Str(a), Value::Str(b)) => a == &**b,
            _ => false,
        }
    }

    /// Seeded hash, equal for equal values: the variant tag and the
    /// payload go through folded multiplies (strings eight bytes at a
    /// time, length mixed in first so zero padding cannot alias), then
    /// one more as the finish. Without the seed an input cannot be
    /// built to collide, and sequential integers or strings that differ
    /// only in their last bytes still scatter over the whole table.
    fn hash(self, seed: u64) -> u64 {
        let word = |tag: u64, w: u64| fold(seed ^ w, K_WORD) ^ tag;
        let h = match self {
            Key::Null => word(0, 0),
            Key::Bool(b) => word(1, u64::from(b)),
            Key::Int(i) => word(2, i as u64),
            Key::Float(f) => word(3, Value::float_key(f)),
            Key::Str(s) => fold_bytes(seed, s.as_bytes()) ^ 4,
        };
        fold(h, K_FINISH)
    }
}

/// Sentinel for an empty table slot (never a valid symbol index).
const EMPTY: u32 = u32::MAX;
/// Smallest non-empty table.
const MIN_SLOTS: usize = 16;

/// An append-only intern table of [`Value`]s.
#[derive(Clone, Debug)]
pub struct ValuePool {
    /// Open-addressing hash table (linear probing, power-of-two length,
    /// at most half full) of indices into `vals`; [`EMPTY`] marks a free
    /// slot. Empty until the first value is interned.
    slots: Vec<u32>,
    vals: Vec<Value>,
    /// Per-pool hash seed (see [`Key::hash`]).
    seed: u64,
}

impl Default for ValuePool {
    fn default() -> Self {
        Self::new()
    }
}

impl ValuePool {
    /// Empty pool.
    pub fn new() -> Self {
        let seed = std::collections::hash_map::RandomState::new().build_hasher().finish();
        ValuePool { slots: Vec::new(), vals: Vec::new(), seed }
    }

    /// Walk `key`'s probe sequence: `Ok(sym)` if it is interned, else
    /// `Err(slot)` with the free slot that ends the sequence. The table
    /// must be non-empty.
    #[inline]
    fn probe(&self, key: Key<'_>) -> Result<Sym, usize> {
        #[cfg(test)]
        PROBED.with(|p| p.set((p.get().0 + 1, p.get().1)));
        let mask = self.slots.len() - 1;
        let mut at = key.hash(self.seed) as usize & mask;
        loop {
            #[cfg(test)]
            PROBED.with(|p| p.set((p.get().0, p.get().1 + 1)));
            match self.slots[at] {
                EMPTY => return Err(at),
                s if key.matches(&self.vals[s as usize]) => return Ok(Sym(s)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Intern `key`, building the owned value with `make` only on first
    /// occurrence — the one probe-or-insert path behind every entry point.
    #[inline]
    fn intern_with(&mut self, key: Key<'_>, make: impl FnOnce() -> Value) -> Sym {
        if (self.vals.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(key) {
            Ok(sym) => sym,
            Err(at) => {
                let s = u32::try_from(self.vals.len())
                    .ok()
                    .filter(|&s| s != EMPTY)
                    .expect("a pool holds fewer than u32::MAX distinct values");
                self.slots[at] = s;
                self.vals.push(make());
                Sym(s)
            }
        }
    }

    /// Double the table (or create it).
    fn grow(&mut self) {
        let distinct = self.rebuild((self.slots.len() * 2).max(MIN_SLOTS));
        debug_assert!(distinct, "interned values are distinct");
    }

    /// Replace the table with one of `len` slots and seat every symbol;
    /// `false` if two values are equal.
    fn rebuild(&mut self, len: usize) -> bool {
        self.slots = vec![EMPTY; len];
        for s in 0..self.vals.len() {
            match self.probe(Key::of(&self.vals[s])) {
                Ok(_) => return false,
                Err(at) => self.slots[at] = s as u32,
            }
        }
        true
    }

    /// Intern a value, cloning it only on first occurrence.
    pub fn intern(&mut self, v: &Value) -> Sym {
        self.intern_with(Key::of(v), || v.clone())
    }

    /// Intern a borrowed key, allocating only on first occurrence — the
    /// CSV loader's entry point.
    #[inline]
    pub(crate) fn intern_key(&mut self, key: Key<'_>) -> Sym {
        self.intern_with(key, || key.to_value())
    }

    /// The symbol of an already-interned value, if any. The probe side
    /// of cross-pool lookups: a foreign value absent from the pool
    /// cannot equal any interned cell.
    pub fn lookup(&self, v: &Value) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(Key::of(v)).ok()
    }

    /// The value behind a symbol.
    pub fn value(&self, s: Sym) -> &Value {
        &self.vals[s.index()]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// All interned values in symbol order (`values()[s.index()]` is
    /// `value(s)`) — what the snapshot writer serialises.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Rebuild a pool from a value list in symbol order — the snapshot
    /// loader's entry point. Returns `None` if the list holds duplicate
    /// values (which would break symbol-equality ⇔ value-equality).
    pub(crate) fn from_values(vals: Vec<Value>) -> Option<ValuePool> {
        if vals.len() >= EMPTY as usize {
            return None;
        }
        let len = (vals.len() * 2).next_power_of_two().max(MIN_SLOTS);
        let mut pool = ValuePool { vals, ..ValuePool::new() };
        pool.rebuild(len).then_some(pool)
    }
}

#[cfg(test)]
thread_local! {
    /// This thread's `(probe sequences walked, table slots inspected)` —
    /// the clustering guard's work count.
    static PROBED: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut p = ValuePool::new();
        let a = p.intern(&Value::from("x"));
        let b = p.intern(&Value::from("x"));
        let c = p.intern(&Value::Int(3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.len(), 2);
        assert_eq!(p.value(a), &Value::from("x"));
        assert_eq!(p.value(c), &Value::Int(3));
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut p = ValuePool::new();
        assert!(p.lookup(&Value::Null).is_none());
        let s = p.intern(&Value::Null);
        assert_eq!(p.lookup(&Value::Null), Some(s));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn value_equality_semantics_carry_over() {
        // NaN is self-equal under Value's total order, so it interns to
        // one symbol; Int(2) and Float(2.0) are distinct variants.
        let mut p = ValuePool::new();
        let n1 = p.intern(&Value::Float(f64::NAN));
        let n2 = p.intern(&Value::Float(f64::NAN));
        assert_eq!(n1, n2);
        assert_ne!(p.intern(&Value::Int(2)), p.intern(&Value::Float(2.0)));
    }

    #[test]
    fn borrowed_keys_and_values_share_one_table() {
        let mut p = ValuePool::new();
        let s = p.intern_key(Key::Str("x"));
        assert_eq!(p.intern(&Value::from("x")), s);
        assert_eq!(p.intern_key(Key::Int(7)), p.intern(&Value::Int(7)));
        assert_eq!(p.intern_key(Key::Float(-0.0)), p.intern(&Value::Float(-0.0)));
        assert_ne!(p.intern_key(Key::Float(0.0)), p.intern_key(Key::Float(-0.0)));
        assert_eq!(p.intern_key(Key::Null), p.intern(&Value::Null));
        assert_eq!(p.intern_key(Key::Bool(true)), p.intern(&Value::Bool(true)));
        // "" is a string, not NULL; the empty-field → NULL rule is the CSV layer's.
        assert_ne!(p.intern_key(Key::Str("")), p.intern_key(Key::Null));
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn symbols_are_first_seen_order_whatever_the_seed() {
        let vals: Vec<Value> = (0..5_000)
            .map(|i| if i % 3 == 0 { Value::Int(i) } else { Value::str(format!("v{i}")) })
            .collect();
        let (mut a, mut b) = (ValuePool::new(), ValuePool::new());
        for v in &vals {
            assert_eq!(a.intern(v).index(), b.intern(v).index());
        }
        assert_eq!(a.values(), vals.as_slice());
        assert_eq!(b.values(), vals.as_slice());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(a.lookup(v).map(Sym::index), Some(i));
        }
    }

    #[test]
    fn from_values_seats_every_symbol_and_rejects_duplicates() {
        let vals: Vec<Value> =
            (0..1_000).map(Value::Int).chain([Value::Null, "x".into()]).collect();
        let mut p = ValuePool::from_values(vals.clone()).expect("distinct values");
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(p.lookup(v).map(Sym::index), Some(i));
        }
        assert_eq!(p.intern(&"y".into()).index(), vals.len());
        assert!(ValuePool::from_values(Vec::new()).expect("empty").is_empty());
        assert!(ValuePool::from_values(vec![Value::Int(1), Value::Int(1)]).is_none());
        assert!(ValuePool::from_values(vec!["a".into(), Value::Null, "a".into()]).is_none());
        let nan = Value::Float(f64::NAN);
        assert!(ValuePool::from_values(vec![nan.clone(), nan]).is_none());
    }

    /// Slots inspected per probe sequence while interning `keys` (all
    /// new, so the table grows through every size) and then looking
    /// each one up again.
    fn mean_probes(keys: &[Value]) -> f64 {
        let mut p = ValuePool::new();
        PROBED.with(|c| c.set((0, 0)));
        for k in keys {
            p.intern(k);
        }
        for k in keys {
            assert!(p.lookup(k).is_some());
        }
        assert_eq!(p.len(), keys.len());
        let (walks, slots) = PROBED.with(|c| c.get());
        assert!(walks >= 2 * keys.len() as u64);
        slots as f64 / walks as f64
    }

    #[test]
    fn sequential_ints_do_not_cluster() {
        let keys: Vec<Value> = (0..100_000).map(Value::Int).collect();
        let mean = mean_probes(&keys);
        assert!(mean <= 2.0, "mean probe length {mean:.2} over sequential ints");
    }

    #[test]
    fn strings_differing_in_their_last_bytes_do_not_cluster() {
        // One long shared prefix; only the trailing bytes vary — the
        // last byte alone for the first 64, the last three overall.
        const ALPHABET: &[u8; 64] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let keys: Vec<Value> = (0..100_000usize)
            .map(|i| {
                let tail: String =
                    [i >> 12, i >> 6, i].iter().map(|d| ALPHABET[d & 63] as char).collect();
                Value::str(format!("a-long-common-prefix-shared-by-every-key/{tail}"))
            })
            .collect();
        let mean = mean_probes(&keys);
        assert!(mean <= 2.0, "mean probe length {mean:.2} over common-prefix strings");
    }
}
