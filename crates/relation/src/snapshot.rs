//! The `.sdq` on-disk snapshot format: open a table in milliseconds
//! instead of re-ingesting CSV.
//!
//! Layout (all integers little-endian, strings and lists
//! length-prefixed, no external dependencies):
//!
//! ```text
//! magic     8 bytes   "SDQSNAP2"
//! checksum  u64       over every payload byte below (see below)
//! payload:
//!   schema            name, arity, per attribute: name, type tag,
//!                     optional finite domain (count + values)
//!   pool              count + values, in symbol order (compacted)
//!   columns           slot count, then per attribute: slots × u32 syms
//!   tombstones        word count + u64 bitmap words (1 = live)
//! ```
//!
//! The checksum is FNV-1a run as four lanes over little-endian `u64`
//! words: lane `l` takes words `l, l + 4, …` from the offset basis XOR
//! `l`. The four lanes and the payload length fold into one FNV-1a
//! state, which then takes the < 32-byte tail a byte at a time. Each
//! step is a bijection of its state while the other inputs stay fixed,
//! so a change confined to one lane's words — any single flipped byte —
//! always changes the sum. `SDQSNAP1` files, whose checksum was
//! bytewise FNV-1a over the same payload layout, are refused with a
//! typed error at offset 0 naming that format; re-save them from CSV.
//!
//! The writer **compacts the pool**: symbols no live row references are
//! dropped and the columns remapped, so a long-lived table's append-only
//! [`ValuePool`] sheds dead values at snapshot time. Dead slots are
//! written as symbol 0 — they are never dereferenced (every read is
//! bitmap-guarded), so the placeholder is safe even when the pool is
//! empty. Slot structure round-trips exactly: tuple ids, tombstones and
//! iteration order are identical after `save ∘ open`. The image is
//! encoded into one exactly-sized buffer, header first with the
//! checksum patched in last; the columns are read a bitmap word at a
//! time, so a full word's 64 slots copy without a liveness test.
//!
//! [`Table::open_snapshot`] is one read of the file and one decode
//! pass over it. Corrupt or truncated input returns [`Error::Snapshot`]
//! with the failing byte offset — never a panic. Encoding and decoding
//! are timed into the `snapshot_encode_us` / `snapshot_decode_us`
//! histograms.

use crate::error::{Error, Result};
use crate::pool::{Sym, ValuePool};
use crate::schema::{Attribute, Schema, Type};
use crate::table::Table;
use crate::value::Value;
use std::path::Path;

const MAGIC: &[u8; 8] = b"SDQSNAP2";

/// The magic of the format before the word-lane checksum.
const MAGIC_V1: &[u8; 8] = b"SDQSNAP1";

/// FNV-1a's 64-bit offset basis.
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step, taking `v` whole.
fn fnv_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The payload checksum: four word lanes, folded with the length, then
/// the tail (see the module docs).
fn checksum(payload: &[u8]) -> u64 {
    let mut lanes = [BASIS, BASIS ^ 1, BASIS ^ 2, BASIS ^ 3];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fnv_step(*lane, u64::from_le_bytes(word.try_into().expect("an 8-byte word")));
        }
    }
    let folded = lanes.into_iter().chain([payload.len() as u64]).fold(BASIS, fnv_step);
    blocks.remainder().iter().fold(folded, |h, &b| fnv_step(h, u64::from(b)))
}

// ---------------------------------------------------------------- writer

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

/// The bytes [`put_value`] writes for `v`.
fn value_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
    }
}

/// Hand `f(bit, sym)` every live cell of one 64-slot chunk of a column
/// whose bitmap word is `word`: a full word walks the chunk without
/// testing a bit, any other word its set bits.
#[inline]
fn each_live(word: u64, syms: &[Sym], mut f: impl FnMut(usize, Sym)) {
    if word == u64::MAX {
        syms.iter().enumerate().for_each(|(bit, &sym)| f(bit, sym));
        return;
    }
    let mut w = word;
    while w != 0 {
        let bit = w.trailing_zeros() as usize;
        w &= w - 1;
        f(bit, syms[bit]);
    }
}

fn type_tag(ty: Type) -> u8 {
    match ty {
        Type::Bool => 0,
        Type::Int => 1,
        Type::Float => 2,
        Type::Str => 3,
    }
}

// ---------------------------------------------------------------- reader

/// A decoding cursor: every failure carries the byte offset (within the
/// payload region, i.e. relative to byte 16 of the file).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::Snapshot { offset: 16 + self.pos, message: message.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(self
                .err(format!("truncated: wanted {n} bytes, {} left", self.buf.len() - self.pos)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed count, bounds-checked against the bytes that
    /// remain so a corrupt length cannot trigger a huge allocation.
    fn count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.buf.len() - self.pos {
            return Err(self.err(format!("{what} count {n} exceeds remaining bytes")));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str> {
        let n = self.count(1, "string length")?;
        std::str::from_utf8(self.take(n)?).map_err(|_| self.err("string is not valid UTF-8"))
    }

    fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))),
            3 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            )))),
            4 => Ok(Value::str(self.str()?)),
            t => Err(self.err(format!("unknown value tag {t}"))),
        }
    }

    fn ty(&mut self) -> Result<Type> {
        match self.u8()? {
            0 => Ok(Type::Bool),
            1 => Ok(Type::Int),
            2 => Ok(Type::Float),
            3 => Ok(Type::Str),
            t => Err(self.err(format!("unknown type tag {t}"))),
        }
    }
}

impl Table {
    /// Serialise the table to `path` in the `.sdq` format, compacting
    /// the value pool: only symbols some live row references are
    /// written, and columns are remapped onto the compacted numbering.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<()> {
        // Durable by construction: temp + fsync + rename + dir fsync,
        // so a crash mid-save can never leave a torn `.sdq` behind.
        crate::durable::write_atomic(path.as_ref(), &self.snapshot_bytes())
    }

    /// The serialised `.sdq` image (see [`Table::save_snapshot`]).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let _span = revival_obs::Span::start(revival_obs::global().histogram("snapshot_encode_us"));
        let arity = self.schema().arity();
        let slots = self.slots();
        let words = self.live_words();
        let cols: Vec<&[Sym]> = (0..arity).map(|a| self.col(a)).collect();

        // Pool compaction: mark the symbols live rows reference, then
        // renumber them densely in ascending old-symbol order.
        let mut used = vec![false; self.pool().len()];
        for col in &cols {
            for (&word, syms) in words.iter().zip(col.chunks(64)) {
                each_live(word, syms, |_, sym| used[sym.index()] = true);
            }
        }
        let mut remap = vec![0u32; self.pool().len()];
        let mut compacted: Vec<&Value> = Vec::new();
        let mut pool_bytes = 0;
        for (old, keep) in used.iter().enumerate() {
            if *keep {
                remap[old] = compacted.len() as u32;
                let v = &self.pool().values()[old];
                pool_bytes += value_len(v);
                compacted.push(v);
            }
        }

        // Header, its checksum patched in once the payload is written.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 8]);
        // Schema block.
        put_str(&mut out, self.schema().name());
        put_u32(&mut out, arity as u32);
        for attr in self.schema().attributes() {
            put_str(&mut out, &attr.name);
            out.push(type_tag(attr.ty));
            match &attr.finite_domain {
                None => out.push(0),
                Some(domain) => {
                    out.push(1);
                    put_u32(&mut out, domain.len() as u32);
                    for v in domain {
                        put_value(&mut out, v);
                    }
                }
            }
        }
        // Everything after the schema has a known size.
        let end = out.len() + 4 + pool_bytes + 8 + arity * slots * 4 + 8 + words.len() * 8;
        out.reserve_exact(end - out.len());
        // Pool dictionary.
        put_u32(&mut out, compacted.len() as u32);
        for v in &compacted {
            put_value(&mut out, v);
        }
        // Column blocks, zeroed first: dead slots write symbol 0
        // (bitmap-masked, never dereferenced).
        put_u64(&mut out, slots as u64);
        for col in &cols {
            let start = out.len();
            out.resize(start + slots * 4, 0);
            let block = out[start..].chunks_mut(64 * 4);
            for ((&word, syms), dst) in words.iter().zip(col.chunks(64)).zip(block) {
                each_live(word, syms, |bit, sym| {
                    dst[4 * bit..4 * bit + 4].copy_from_slice(&remap[sym.index()].to_le_bytes());
                });
            }
        }
        // Tombstone bitmap: the live words themselves.
        put_u64(&mut out, words.len() as u64);
        for &word in words {
            put_u64(&mut out, word);
        }
        debug_assert_eq!(out.len(), end);

        let sum = checksum(&out[16..]);
        out[8..16].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Open a `.sdq` snapshot: one read, one decode pass. Malformed
    /// input returns [`Error::Snapshot`] with the failing byte offset.
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Table> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        Table::decode_snapshot(&bytes)
    }

    /// Decode a full `.sdq` image.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Table> {
        let _span = revival_obs::Span::start(revival_obs::global().histogram("snapshot_decode_us"));
        if bytes.starts_with(MAGIC_V1) {
            return Err(Error::Snapshot {
                offset: 0,
                message: "an SDQSNAP1 snapshot, a format this build no longer reads \
                          (re-save it from CSV)"
                    .into(),
            });
        }
        if bytes.len() < 16 || &bytes[..8] != MAGIC {
            return Err(Error::Snapshot {
                offset: 0,
                message: "not a .sdq snapshot (bad magic)".into(),
            });
        }
        let stored = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload = &bytes[16..];
        if checksum(payload) != stored {
            return Err(Error::Snapshot {
                offset: 8,
                message: "checksum mismatch (corrupt or truncated file)".into(),
            });
        }
        let mut c = Cursor { buf: payload, pos: 0 };

        // Schema block.
        let name = c.str()?.to_string();
        let arity = c.count(3, "attribute")?;
        let mut attrs = Vec::with_capacity(arity);
        let mut seen = std::collections::HashSet::with_capacity(arity);
        for _ in 0..arity {
            let offset = 16 + c.pos;
            let attr_name = c.str()?;
            // `Schema::new` asserts on duplicates; a file must not reach it.
            if !seen.insert(attr_name) {
                let message = format!("duplicate attribute `{attr_name}`");
                return Err(Error::Snapshot { offset, message });
            }
            let attr_name = attr_name.to_string();
            let ty = c.ty()?;
            let attr = match c.u8()? {
                0 => Attribute::new(attr_name, ty),
                1 => {
                    let n = c.count(1, "domain value")?;
                    let mut domain = Vec::with_capacity(n);
                    for _ in 0..n {
                        domain.push(c.value()?);
                    }
                    Attribute::with_domain(attr_name, ty, domain)
                }
                t => return Err(c.err(format!("bad finite-domain flag {t}"))),
            };
            attrs.push(attr);
        }
        let schema = Schema::new(name, attrs);

        // Pool dictionary.
        let n_vals = c.count(1, "pool value")?;
        let mut vals = Vec::with_capacity(n_vals);
        for _ in 0..n_vals {
            vals.push(c.value()?);
        }
        let pool =
            ValuePool::from_values(vals).ok_or_else(|| c.err("pool holds duplicate values"))?;

        // Column blocks.
        let slots = c.u64()? as usize;
        if slots.saturating_mul(arity).saturating_mul(4) > payload.len() {
            return Err(c.err(format!("slot count {slots} exceeds remaining bytes")));
        }
        let mut cols = Vec::with_capacity(arity);
        for _ in 0..arity {
            let raw = c.take(slots * 4)?;
            let col: Vec<Sym> = raw
                .chunks_exact(4)
                .map(|b| Sym::from_raw(u32::from_le_bytes(b.try_into().unwrap())))
                .collect();
            cols.push(col);
        }

        // Tombstone bitmap.
        let nwords = c.u64()? as usize;
        if nwords != slots.div_ceil(64) {
            return Err(c.err(format!(
                "bitmap holds {nwords} words, {} slots need {}",
                slots,
                slots.div_ceil(64)
            )));
        }
        let mut live = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            live.push(c.u64()?);
        }
        if c.pos != payload.len() {
            return Err(c.err(format!("{} trailing bytes", payload.len() - c.pos)));
        }
        // Bits at or past `slots` would fabricate tuples out of thin air.
        if !slots.is_multiple_of(64) {
            if let Some(&last) = live.last() {
                if last >> (slots % 64) != 0 {
                    return Err(c.err("bitmap sets bits past the slot count"));
                }
            }
        }
        // Every live cell's symbol must index the pool.
        for (wi, &word) in live.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let slot = (wi << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                for col in &cols {
                    if col[slot].index() >= pool.len() {
                        return Err(c.err(format!(
                            "slot {slot} references symbol {} outside the pool ({} values)",
                            col[slot].index(),
                            pool.len()
                        )));
                    }
                }
            }
        }
        Ok(Table::from_parts(schema, cols, live, slots, pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Type;
    use crate::table::TupleId;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sdq-test-{}-{name}.sdq", std::process::id()))
    }

    fn sample() -> Table {
        let s = Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("n", Type::Int)
            .attr_in("flag", Type::Bool, vec![Value::Bool(true), Value::Bool(false)])
            .build();
        let mut t = Table::new(s);
        t.push(vec!["44".into(), Value::Int(1), Value::Bool(true)]).unwrap();
        t.push(vec!["01".into(), Value::Int(2), Value::Bool(false)]).unwrap();
        t.push(vec!["44".into(), Value::Null, Value::Bool(true)]).unwrap();
        t
    }

    /// Re-checksum an image whose payload a test has edited.
    fn reseal(bytes: &mut [u8]) {
        let sum = checksum(&bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }

    fn assert_same(a: &Table, b: &Table) {
        assert_eq!(a.schema().name(), b.schema().name());
        assert_eq!(a.schema().attributes(), b.schema().attributes());
        assert_eq!(a.slots(), b.slots());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.diff_cells(b), 0);
        let ia: Vec<_> = a.tuple_ids().collect();
        let ib: Vec<_> = b.tuple_ids().collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn roundtrip_plain() {
        let t = sample();
        let path = temp("plain");
        t.save_snapshot(&path).unwrap();
        let back = Table::open_snapshot(&path).unwrap();
        assert_same(&t, &back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_tombstones_and_compacts_pool() {
        let mut t = sample();
        t.delete(TupleId(1)).unwrap();
        let path = temp("tombstones");
        t.save_snapshot(&path).unwrap();
        let back = Table::open_snapshot(&path).unwrap();
        assert_same(&t, &back);
        assert!(!back.contains(TupleId(1)));
        // Values only the deleted row held are gone from the pool…
        assert!(back.pool().lookup(&"01".into()).is_none());
        assert!(back.pool().lookup(&Value::Int(2)).is_none());
        // …shared values survive.
        assert!(back.pool().lookup(&"44".into()).is_some());
        // Appending after reopen keeps allocating fresh slots.
        let mut back = back;
        let id = back.push(vec!["99".into(), Value::Int(9), Value::Bool(false)]).unwrap();
        assert_eq!(id, TupleId(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_all_deleted_and_empty() {
        let mut t = sample();
        for id in t.tuple_ids().collect::<Vec<_>>() {
            t.delete(id).unwrap();
        }
        let path = temp("alldead");
        t.save_snapshot(&path).unwrap();
        let back = Table::open_snapshot(&path).unwrap();
        assert_same(&t, &back);
        assert_eq!(back.pool().len(), 0, "nothing live, nothing written");
        std::fs::remove_file(&path).ok();

        let empty = Table::new(sample().schema().clone());
        let path = temp("empty");
        empty.save_snapshot(&path).unwrap();
        assert_same(&empty, &Table::open_snapshot(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_and_truncated_files_error_without_panic() {
        let bytes = sample().snapshot_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(Table::decode_snapshot(&bad), Err(Error::Snapshot { offset: 0, .. })));
        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(Table::decode_snapshot(&bad), Err(Error::Snapshot { offset: 8, .. })));
        // Every truncation either fails the checksum or reports a typed
        // decode error — never a panic or a silent partial table.
        for cut in 0..bytes.len() {
            let err = Table::decode_snapshot(&bytes[..cut]);
            assert!(matches!(err, Err(Error::Snapshot { .. })), "cut at {cut}: {err:?}");
        }
        // Trailing garbage (checksummed in, so it decodes past the end).
        let mut long = sample().snapshot_bytes();
        long.push(0xAB);
        reseal(&mut long);
        match Table::decode_snapshot(&long) {
            Err(Error::Snapshot { message, .. }) => {
                assert!(message.contains("trailing"), "{message}")
            }
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
        // A non-file path errors as Io, not Snapshot.
        assert!(matches!(Table::open_snapshot("/no/such/dir/x.sdq"), Err(Error::Io(_))));
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A payload claiming 4 billion pool values must be rejected by
        // the bounds check, not attempted.
        let mut payload = Vec::new();
        put_str(&mut payload, "r");
        put_u32(&mut payload, 0); // arity 0
        put_u32(&mut payload, u32::MAX); // pool count lie
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(Table::decode_snapshot(&bytes), Err(Error::Snapshot { .. })));
    }

    #[test]
    fn floats_and_nan_roundtrip_bitwise() {
        let s = Schema::builder("f").attr("x", Type::Float).build();
        let mut t = Table::new(s);
        for v in [0.0f64, -0.0, f64::NAN, f64::INFINITY, -3.25] {
            t.push(vec![Value::Float(v)]).unwrap();
        }
        let path = temp("floats");
        t.save_snapshot(&path).unwrap();
        let back = Table::open_snapshot(&path).unwrap();
        assert_eq!(t.diff_cells(&back), 0);
        // -0.0 and NaN keep their exact bit patterns.
        let vals: Vec<Value> = back.rows().map(|(_, r)| r[0].clone()).collect();
        assert!(matches!(vals[1], Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(vals[2], Value::Float(f) if f.is_nan()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encode_and_decode_are_timed() {
        let calls = |name| revival_obs::global().histogram(name).snapshot().count;
        let (encodes, decodes) = (calls("snapshot_encode_us"), calls("snapshot_decode_us"));
        Table::decode_snapshot(&sample().snapshot_bytes()).unwrap();
        // Other tests snapshot concurrently, so these are lower bounds.
        assert!(calls("snapshot_encode_us") > encodes);
        assert!(calls("snapshot_decode_us") > decodes);
    }

    /// A well-checksummed image whose schema names one attribute twice is
    /// a typed error at the second name — `Schema::new` asserts on
    /// duplicates, and no file may reach an assert.
    #[test]
    fn duplicate_attribute_names_are_a_typed_error() {
        let schema = Schema::builder("r").attr("ab", Type::Str).attr("cd", Type::Str).build();
        let mut table = Table::new(schema);
        table.push(vec!["x".into(), "y".into()]).unwrap();
        let mut bytes = table.snapshot_bytes();
        let second = bytes.windows(2).position(|w| w == b"cd").unwrap();
        bytes[second..second + 2].copy_from_slice(b"ab");
        reseal(&mut bytes);
        match Table::decode_snapshot(&bytes) {
            Err(Error::Snapshot { offset, message }) => {
                assert_eq!(offset, second - 4, "the second name's length prefix");
                assert!(message.contains("duplicate attribute `ab`"), "{message}");
            }
            other => panic!("expected Error::Snapshot, got {other:?}"),
        }
    }

    #[test]
    fn v1_images_are_refused_at_offset_0() {
        let mut bytes = sample().snapshot_bytes();
        assert_eq!(&bytes[..8], b"SDQSNAP2");
        bytes[..8].copy_from_slice(MAGIC_V1);
        // Sealed or not, an old image is named, not read.
        for sealed in [false, true] {
            if sealed {
                let sum = v1_checksum(&bytes[16..]);
                bytes[8..16].copy_from_slice(&sum.to_le_bytes());
            }
            match Table::decode_snapshot(&bytes) {
                Err(Error::Snapshot { offset: 0, message }) => {
                    assert!(message.contains("SDQSNAP1"), "{message}")
                }
                other => panic!("expected a typed v1 refusal, got {other:?}"),
            }
        }
    }

    /// The version-1 checksum: FNV-1a a byte at a time.
    fn v1_checksum(payload: &[u8]) -> u64 {
        payload.iter().fold(BASIS, |h, &b| fnv_step(h, u64::from(b)))
    }

    /// The table behind the churned golden: 300 slots, slots 128 and up
    /// thinned by every 7th, so the bitmap holds full words and partial
    /// ones.
    fn churned() -> Table {
        let s = Schema::builder("churned")
            .attr("a", Type::Str)
            .attr("n", Type::Int)
            .attr("x", Type::Float)
            .build();
        let mut t = Table::new(s);
        for i in 0..300i64 {
            let n = if i % 11 == 0 { Value::Null } else { Value::Int(i % 37) };
            let a = format!("s{}", (i * 7919) % 101);
            t.push(vec![a.into(), n, Value::Float((i % 13) as f64 / 4.0)]).unwrap();
        }
        for i in (128..300u64).filter(|i| i % 7 == 0) {
            t.delete(TupleId(i)).unwrap();
        }
        t
    }

    /// The payload layout did not change with the checksum: these are the
    /// bytes (and, for the larger table, the length and bytewise FNV-1a)
    /// the version-1 writer produced.
    #[test]
    fn payload_bytes_match_the_v1_writer() {
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let plain = [
            "08000000637573746f6d6572030000000200000063630300010000006e010004",
            "000000666c616700010200000001010100070000000402000000343402010000",
            "0000000000010104020000003031020200000000000000010000030000000000",
            "0000000000000300000000000000010000000400000006000000020000000500",
            "00000200000001000000000000000700000000000000",
        ];
        assert_eq!(hex(&sample().snapshot_bytes()[16..]), plain.concat());
        let mut t = sample();
        t.delete(TupleId(1)).unwrap();
        let deleted = [
            "08000000637573746f6d6572030000000200000063630300010000006e010004",
            "000000666c616700010200000001010100040000000402000000343402010000",
            "0000000000010100030000000000000000000000000000000000000001000000",
            "0000000003000000020000000000000002000000010000000000000005000000",
            "00000000",
        ];
        assert_eq!(hex(&t.snapshot_bytes()[16..]), deleted.concat());
        let bytes = churned().snapshot_bytes();
        assert_eq!((bytes.len() - 16, v1_checksum(&bytes[16..])), (4946, 0x108a62d9d6bc9dfd));
    }

    /// Every single-bit flip anywhere in the payload — in each of the
    /// four lanes and in the bytewise tail — fails the checksum.
    #[test]
    fn every_payload_bit_flip_fails_the_checksum() {
        for table in [sample(), churned()] {
            let bytes = table.snapshot_bytes();
            let stored = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            assert_eq!(checksum(&bytes[16..]), stored);
            let mut bad = bytes.clone();
            for at in 16..bytes.len() {
                for bit in 0..8 {
                    bad[at] ^= 1 << bit;
                    let err = Table::decode_snapshot(&bad);
                    assert!(
                        matches!(err, Err(Error::Snapshot { offset: 8, .. })),
                        "flip of bit {bit} at byte {at}: {err:?}"
                    );
                    bad[at] ^= 1 << bit;
                }
            }
        }
    }
}
