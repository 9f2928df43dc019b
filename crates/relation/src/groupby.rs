//! The shared group-by kernel: a raw-entry-style hash table that probes
//! with *borrowed* key projections and materialises an owned key only on
//! first insert.
//!
//! `HashMap<Vec<Value>, _>` — the shape every grouping pass in this
//! workspace used to build — clones the full key projection per probed
//! row and re-hashes the values (string walks) every time. [`GroupBy`]
//! splits the entry API the way hashbrown's raw-entry does: the caller
//! supplies the hash and an equality closure against *stored* keys, so
//! the probe allocates nothing; only a miss pays for an owned key.
//! [`ColProj`] is the standard probe: a slot's projection onto an
//! attribute list as interned [`Sym`]s, read off the columns — hashed
//! by FNV over `u32`s, compared word-wise.
//!
//! Entries keep **insertion order** (the table is append-only), which is
//! what lets the parallel detection engine fold per-shard maps in chunk
//! order and stay byte-identical to the sequential scan. There is no
//! tombstone machinery; consumers that need logical removal (the
//! incremental detector's group states) empty the entry's payload and
//! skip it on read.
//!
//! Maps keyed by *owned values* rather than symbols — the constraint
//! layer's merge, subsumption, satisfiability and parse tables — are
//! std `HashMap`s over [`FoldState`]: the pool's folded multiply
//! ([`crate::pool`]) behind the `Hasher` trait, one multiply per word
//! and per eight string bytes where std's SipHash runs rounds. Each map
//! draws its own random seed, as each `ValuePool` does, so a suite
//! cannot be crafted to collide, and no map's iteration order may
//! reach an output. The pool itself keeps its direct `Key::hash`: it
//! interns every cell of a load, and a trait-dispatched `Value` hash
//! (tag byte, then payload, then a terminator per string) would spend
//! more multiplies per cell than the one pass it makes now.

use crate::pool::{fold, fold_bytes, Sym, K_FINISH, K_WORD};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Sentinel for an empty slot.
const EMPTY: u32 = u32::MAX;
/// Fibonacci multiplier spreading entropy into the high bits the slot
/// index is taken from.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// FNV-1a basis/prime (64-bit).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a raw word stream — the kernel's hash for any key that
/// reduces to machine words (interned symbols, cell coordinates, class
/// roots).
#[inline]
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_BASIS;
    for w in words {
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A seeded [`BuildHasher`] for value-keyed std maps and sets: each map
/// built with `HashMap::default()` draws a fresh seed.
#[derive(Clone, Debug)]
pub struct FoldState {
    seed: u64,
}

impl FoldState {
    /// A state with a random seed, drawn as `ValuePool::new` draws the
    /// pool's.
    pub fn new() -> Self {
        FoldState { seed: RandomState::new().build_hasher().finish() }
    }
}

impl Default for FoldState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.seed)
    }
}

/// The [`Hasher`] of a [`FoldState`]: a word (a `Value`'s tag, an
/// integer, a length or a discriminant) is one folded multiply into the
/// state, a byte string one per eight bytes (length first), and
/// `finish` one more.
#[derive(Clone, Debug)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_bytes(self.0, bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = fold(self.0 ^ n, K_WORD);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.0, K_FINISH)
    }
}

/// [`hash_words`] over interned symbols — the hash for projection keys.
#[inline]
pub fn hash_syms(syms: impl IntoIterator<Item = Sym>) -> u64 {
    hash_words(syms.into_iter().map(|s| u64::from(s.raw())))
}

/// Deterministic hash of a borrowed [`crate::Value`] projection — the
/// probe hash for un-interned keys (computed expression keys in the SQL
/// executor). Uses the std `SipHasher13` with fixed keys, so it agrees
/// across threads and processes.
#[inline]
pub fn hash_values<'a>(vals: impl IntoIterator<Item = &'a crate::value::Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// A borrowed **column** projection: the table's symbol columns
/// restricted to an attribute list, probed by slot. It holds one slice
/// per projected attribute and reads the same slot from each, so a
/// grouping scan touches only the projected columns and never fetches
/// a row. Its hash is [`hash_syms`] over the projected symbols in
/// attribute order, so a key hashed from stored symbols probes alike.
#[derive(Clone)]
pub struct ColProj<'a> {
    cols: Vec<&'a [Sym]>,
}

impl<'a> ColProj<'a> {
    /// Projection over `cols`, one slice per projected attribute, in
    /// attribute order. All slices must share a length (the table's
    /// slot count). Usually built via `Table::proj`.
    pub fn new(cols: Vec<&'a [Sym]>) -> Self {
        ColProj { cols }
    }

    /// Number of projected attributes.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The projection's hash at `slot` (FNV over symbols, in attribute
    /// order — [`hash_syms`] of the same cells).
    #[inline]
    pub fn hash_at(&self, slot: usize) -> u64 {
        hash_syms(self.cols.iter().map(|c| c[slot]))
    }

    /// Does a stored owned key equal this projection at `slot`?
    #[inline]
    pub fn matches_at(&self, slot: usize, key: &[Sym]) -> bool {
        key.len() == self.cols.len() && self.cols.iter().zip(key).all(|(c, k)| c[slot] == *k)
    }

    /// Materialise the owned key at `slot` — once per distinct group.
    pub fn key_at(&self, slot: usize) -> Box<[Sym]> {
        self.cols.iter().map(|c| c[slot]).collect()
    }

    /// The symbol of projected attribute `i` at `slot`.
    #[inline]
    pub fn sym_at(&self, i: usize, slot: usize) -> Sym {
        self.cols[i][slot]
    }
}

#[derive(Clone, Debug)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    val: V,
}

/// An insertion-ordered hash table with a raw-entry probe API.
#[derive(Clone, Debug)]
pub struct GroupBy<K, V> {
    entries: Vec<Entry<K, V>>,
    /// Open-addressed slot table of entry indices; length is a power of
    /// two, slot = `(hash * FIB) >> shift`, linear probing.
    slots: Vec<u32>,
    shift: u32,
}

impl<K, V> Default for GroupBy<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> GroupBy<K, V> {
    /// Empty table.
    pub fn new() -> Self {
        GroupBy { entries: Vec::new(), slots: vec![EMPTY; 8], shift: 64 - 3 }
    }

    /// Empty table that holds `n` groups without growing.
    pub fn with_capacity(n: usize) -> Self {
        let bits = (n * 8).div_ceil(7).next_power_of_two().trailing_zeros().max(3);
        GroupBy { entries: Vec::with_capacity(n), slots: vec![EMPTY; 1 << bits], shift: 64 - bits }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no group exists.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        (hash.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Find the entry index of the group matching `(hash, eq)`, probing
    /// without allocating.
    #[inline]
    pub fn probe(&self, hash: u64, mut eq: impl FnMut(&K) -> bool) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.slot_of(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                i => {
                    let e = &self.entries[i as usize];
                    if e.hash == hash && eq(&e.key) {
                        return Some(i as usize);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Insert a group known to be absent (callers pair this with a
    /// failed [`GroupBy::probe`] — the raw-entry split). Returns the new
    /// entry index.
    pub fn insert_unique(&mut self, hash: u64, key: K, val: V) -> usize {
        if (self.entries.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let idx = self.entries.len();
        // Slot entries are u32 with EMPTY as the sentinel; fail loudly
        // rather than silently corrupting probes past that ceiling.
        assert!(idx < EMPTY as usize, "GroupBy is full ({EMPTY} groups)");
        self.entries.push(Entry { hash, key, val });
        let mask = self.slots.len() - 1;
        let mut slot = self.slot_of(hash);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = idx as u32;
        idx
    }

    /// Probe-or-insert: the payload of the group matching `(hash, eq)`,
    /// creating it from `make` (owned key + initial payload) on miss.
    #[inline]
    pub fn entry_mut(
        &mut self,
        hash: u64,
        eq: impl FnMut(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> &mut V {
        let idx = match self.probe(hash, eq) {
            Some(i) => i,
            None => {
                let (key, val) = make();
                self.insert_unique(hash, key, val)
            }
        };
        &mut self.entries[idx].val
    }

    /// The payload of the group matching `(hash, eq)`, if present.
    pub fn get(&self, hash: u64, eq: impl FnMut(&K) -> bool) -> Option<&V> {
        self.probe(hash, eq).map(|i| &self.entries[i].val)
    }

    /// Mutable payload by entry index.
    pub fn value_at_mut(&mut self, idx: usize) -> &mut V {
        &mut self.entries[idx].val
    }

    /// Groups in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|e| (&e.key, &e.val))
    }

    /// Consume into `(hash, key, payload)` triples in insertion order —
    /// what the parallel engine folds when merging per-shard maps (the
    /// hash is reused, not recomputed).
    pub fn into_entries(self) -> impl Iterator<Item = (u64, K, V)> {
        self.entries.into_iter().map(|e| (e.hash, e.key, e.val))
    }

    fn grow(&mut self) {
        let bits = (64 - self.shift) + 1;
        self.shift = 64 - bits;
        self.slots = vec![EMPTY; 1 << bits];
        let mask = self.slots.len() - 1;
        for (idx, e) in self.entries.iter().enumerate() {
            let mut slot = (e.hash.wrapping_mul(FIB) >> self.shift) as usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = idx as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ValuePool;
    use crate::value::Value;

    #[test]
    fn probe_insert_roundtrip_under_growth() {
        let mut g: GroupBy<u64, usize> = GroupBy::new();
        for i in 0..1000u64 {
            let h = hash_syms([]) ^ i; // spread arbitrary hashes
            assert!(g.probe(h, |k| *k == i).is_none());
            g.insert_unique(h, i, i as usize * 2);
        }
        assert_eq!(g.len(), 1000);
        for i in 0..1000u64 {
            let h = hash_syms([]) ^ i;
            assert_eq!(g.get(h, |k| *k == i), Some(&(i as usize * 2)));
        }
        // Insertion order is preserved.
        let keys: Vec<u64> = g.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn with_capacity_holds_its_groups_without_growing() {
        for n in [0usize, 1, 7, 8, 56, 57, 1000] {
            let mut g: GroupBy<usize, ()> = GroupBy::with_capacity(n);
            let slots = g.slots.len();
            for i in 0..n {
                g.insert_unique(hash_syms([]) ^ i as u64, i, ());
            }
            assert_eq!(g.slots.len(), slots, "{n} groups");
            assert!((0..n).all(|i| g.probe(hash_syms([]) ^ i as u64, |k| *k == i) == Some(i)));
        }
    }

    #[test]
    fn entry_mut_creates_once() {
        let mut g: GroupBy<Box<[Sym]>, Vec<u32>> = GroupBy::new();
        let mut pool = ValuePool::new();
        let cols: Vec<Vec<Sym>> =
            ["a", "b", "a"].iter().map(|s| vec![pool.intern(&Value::from(*s))]).collect();
        let cp = ColProj::new(vec![&cols[0], &cols[2]]);
        g.entry_mut(cp.hash_at(0), |k| cp.matches_at(0, k), || (cp.key_at(0), Vec::new())).push(1);
        g.entry_mut(cp.hash_at(0), |k| cp.matches_at(0, k), || (cp.key_at(0), Vec::new())).push(2);
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().next().unwrap().1, &vec![1, 2]);
    }

    #[test]
    fn colproj_matches_projection_only() {
        let mut pool = ValuePool::new();
        let cols: Vec<Vec<Sym>> = [["x", "q"], ["y", "y"], ["z", "r"]]
            .iter()
            .map(|c| c.iter().map(|s| pool.intern(&Value::from(*s))).collect())
            .collect();
        let cp = ColProj::new(vec![&cols[1]]);
        assert!(cp.matches_at(0, &[cols[1][0]]));
        assert!(!cp.matches_at(0, &[cols[0][0]]));
        assert!(!cp.matches_at(0, &[cols[1][0], cols[1][0]]));
        assert_eq!(cp.key_at(0).as_ref(), &[cols[1][0]]);
        // Equal projections hash equal, whatever the other columns hold.
        assert_eq!(cp.hash_at(1), cp.hash_at(0));
    }

    #[test]
    fn colproj_agrees_with_keyproj() {
        let mut pool = ValuePool::new();
        let rows: Vec<Vec<Sym>> = [["x", "y", "z"], ["q", "y", "r"]]
            .iter()
            .map(|r| r.iter().map(|s| pool.intern(&Value::from(*s))).collect())
            .collect();
        // Transpose into columns.
        let cols: Vec<Vec<Sym>> = (0..3).map(|a| rows.iter().map(|r| r[a]).collect()).collect();
        let attrs = [1usize, 2];
        let cp = ColProj::new(vec![&cols[1], &cols[2]]);
        for (slot, row) in rows.iter().enumerate() {
            // The row's own symbols on `attrs`, hashed as a stored key is.
            let key: Box<[Sym]> = attrs.iter().map(|&a| row[a]).collect();
            assert_eq!(cp.hash_at(slot), hash_syms(key.iter().copied()));
            assert_eq!(cp.key_at(slot), key);
            assert!(cp.matches_at(slot, &key));
        }
        assert!(!cp.matches_at(0, &cp.key_at(1)));
        assert_eq!(cp.width(), 2);
        assert_eq!(cp.sym_at(0, 0), rows[0][1]);
    }

    #[test]
    fn fold_state_hashes_equal_values_equal_and_seeds_per_map() {
        use std::collections::HashSet;
        let state = FoldState::new();
        let hash = |v: &Value| state.hash_one(v);
        let long = "a-long-common-prefix-shared-by-both/x";
        assert_eq!(hash(&Value::from(long)), hash(&Value::str(String::from(long))));
        assert_eq!(hash(&Value::Float(f64::NAN)), hash(&Value::Float(f64::NAN)));
        // The tag is hashed: equal payload bits across variants differ.
        assert_ne!(hash(&Value::Int(1)), hash(&Value::Bool(true)));
        assert_ne!(hash(&Value::Null), hash(&Value::from("")));
        // Length goes in before the bytes, so zero padding cannot alias.
        assert_ne!(state.hash_one("ab"), state.hash_one("ab\0"));
        assert_ne!(state.hash_one(("a", "bc")), state.hash_one(("ab", "c")));
        // Each state draws its own seed.
        let seeds: HashSet<u64> = (0..8).map(|_| FoldState::new().hash_one(7u64)).collect();
        assert_eq!(seeds.len(), 8);
        // A std map over it behaves like any other.
        let mut m: std::collections::HashMap<Value, usize, FoldState> = Default::default();
        for i in 0..10_000 {
            *m.entry(Value::str(format!("v{}", i % 1_000))).or_default() += 1;
        }
        assert_eq!(m.len(), 1_000);
        assert!(m.values().all(|&n| n == 10));
    }

    #[test]
    fn hash_values_is_order_sensitive_and_deterministic() {
        let a = Value::from("a");
        let b = Value::from("b");
        assert_eq!(hash_values([&a, &b]), hash_values([&a, &b]));
        assert_ne!(hash_values([&a, &b]), hash_values([&b, &a]));
    }
}
