//! Conditional inclusion dependencies (CINDs).
//!
//! A CIND `ψ = (R1[X; Xp] ⊆ R2[Y; Yp], tp)` (Bravo, Fan, Ma — VLDB 2007)
//! extends an IND with patterns: it applies only to `R1`-tuples matching
//! the source pattern `Xp = tp[Xp]`, and requires the matching `R2`-tuple
//! to both agree on the correspondence `X ↦ Y` *and* carry the constants
//! `tp[Yp]`. The paper's example:
//!
//! ```text
//! (CD(album, price; genre='a-book') ⊆ book(title, price; format='audio'))
//! ```
//!
//! if a CD's genre is `a-book`, a book tuple must exist whose
//! title/price equal the CD's album/price, with format `audio`.
//!
//! Every check runs in symbol space ([`Cind::witnesses`]): each distinct
//! key of the `Yp`-carrying target tuples is translated into the
//! source's symbols once, when the target scan first meets it, then a
//! source tuple costs one hash probe. Detection shards that probe;
//! [`Cind::satisfied_by`] and [`crate::Ind::satisfied_by`] (no
//! conditions) read it whole.

use crate::ind::Ind;
use revival_relation::groupby::hash_syms;
use revival_relation::{AttrId, ColProj, GroupBy, Result, Schema, Sym, Table, TupleId, Value};
use std::fmt;
use std::ops::Range;

/// A source- or target-side pattern constraint `attr = const`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternCond {
    pub attr: AttrId,
    pub value: Value,
}

/// A conditional inclusion dependency in normal form (one pattern row;
/// suites with several rows use several `Cind`s).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cind {
    pub from_relation: String,
    /// Correspondence attributes on the source side.
    pub from_attrs: Vec<AttrId>,
    /// Source-side pattern conditions (`Xp`).
    pub from_conds: Vec<PatternCond>,
    pub to_relation: String,
    /// Correspondence attributes on the target side (same length as
    /// `from_attrs`).
    pub to_attrs: Vec<AttrId>,
    /// Target-side pattern conditions (`Yp`) the witness tuple must carry.
    pub to_conds: Vec<PatternCond>,
}

/// A pattern's conditions as `(attr, symbol)` pairs of `table`'s pool;
/// `None` if a constant is absent from it (no tuple can carry it).
fn resolve(conds: &[PatternCond], table: &Table) -> Option<Vec<(usize, Sym)>> {
    conds.iter().map(|c| Some((c.attr, table.pool().lookup(&c.value)?))).collect()
}

impl Cind {
    /// Build from names; `from_conds`/`to_conds` are `(attr, value)` pairs.
    pub fn new(
        from: &Schema,
        from_attrs: &[&str],
        from_conds: &[(&str, Value)],
        to: &Schema,
        to_attrs: &[&str],
        to_conds: &[(&str, Value)],
    ) -> Result<Cind> {
        assert_eq!(
            from_attrs.len(),
            to_attrs.len(),
            "CIND correspondence lists must have equal length"
        );
        let conds = |schema: &Schema, pairs: &[(&str, Value)]| -> Result<Vec<PatternCond>> {
            pairs
                .iter()
                .map(|(n, v)| Ok(PatternCond { attr: schema.attr_id(n)?, value: v.clone() }))
                .collect()
        };
        Ok(Cind {
            from_relation: from.name().to_string(),
            from_attrs: from.attr_ids(from_attrs)?,
            from_conds: conds(from, from_conds)?,
            to_relation: to.name().to_string(),
            to_attrs: to.attr_ids(to_attrs)?,
            to_conds: conds(to, to_conds)?,
        })
    }

    /// The witness probe of this CIND from `from` into `to`: the
    /// distinct witness keys, built once in `from`'s symbols, shared
    /// read-only by every probe (and every shard).
    pub fn witnesses<'s>(&self, from: &'s Table, to: &Table) -> Witnesses<'s> {
        let arity = self.to_attrs.len();
        let (mut keys, mut set) = (Vec::new(), GroupBy::new());
        // A `Yp` constant the target never interned: no witness at all.
        if let Some(yp) = resolve(&self.to_conds, to).filter(|_| arity == self.from_attrs.len()) {
            let target = to.proj(&self.to_attrs);
            let same =
                |a: usize, b: usize| (0..arity).all(|i| target.sym_at(i, a) == target.sym_at(i, b));
            // Each distinct target key met so far, by the first slot carrying it.
            let mut seen: GroupBy<u32, ()> = GroupBy::new();
            for slot in
                to.live_slots().filter(|&slot| yp.iter().all(|&(a, s)| to.col(a)[slot] == s))
            {
                let hash = target.hash_at(slot);
                if seen.probe(hash, |&first| same(first as usize, slot)).is_some() {
                    continue;
                }
                seen.insert_unique(hash, slot as u32, ());
                let at = keys.len();
                let translated = |i| from.pool().lookup(to.pool().value(target.sym_at(i, slot)));
                keys.extend((0..arity).map_while(translated));
                if keys.len() < at + arity {
                    keys.truncate(at); // a value the source never interned
                } else {
                    // Distinct target keys translate to distinct source keys.
                    set.insert_unique(hash_syms(keys[at..].iter().copied()), at as u32, ());
                }
            }
        }
        let applies = resolve(&self.from_conds, from);
        Witnesses { from, applies, proj: from.proj(&self.from_attrs), keys, set }
    }

    /// Full satisfaction check: every live source tuple under `Xp` has a
    /// witness.
    pub fn satisfied_by(&self, from: &Table, to: &Table) -> bool {
        self.witnesses(from, to).missing(0..from.slots()).next().is_none()
    }
}

/// The witness keys of one CIND, in the source's symbols, with the
/// source pattern they are probed under (see [`Cind::witnesses`]).
pub struct Witnesses<'s> {
    from: &'s Table,
    /// `Xp` in the source pool; `None` when a constant is absent from it.
    applies: Option<Vec<(usize, Sym)>>,
    /// The source's correspondence columns `X`.
    proj: ColProj<'s>,
    /// Witness keys, `|X|` symbols each, back to back.
    keys: Vec<Sym>,
    /// Each witness key's offset into `keys`.
    set: GroupBy<u32, ()>,
}

impl Witnesses<'_> {
    /// Does the live source tuple at `slot` fall under `Xp`?
    fn applies(&self, slot: usize) -> bool {
        self.applies.as_ref().is_some_and(|xp| xp.iter().all(|&(a, s)| self.from.col(a)[slot] == s))
    }

    /// Is there a witness for the source tuple at `slot` (pattern aside)?
    pub fn covers(&self, slot: usize) -> bool {
        let key = |&o: &u32| &self.keys[o as usize..o as usize + self.proj.width()];
        self.set.probe(self.proj.hash_at(slot), |o| self.proj.matches_at(slot, key(o))).is_some()
    }

    /// The live source tuples in `slots` that fall under `Xp` and have
    /// no witness, in slot order.
    pub fn missing(&self, slots: Range<usize>) -> impl Iterator<Item = TupleId> + '_ {
        slots
            .filter(|&slot| self.from.is_live(slot) && self.applies(slot) && !self.covers(slot))
            .map(|slot| TupleId(slot as u64))
    }
}

impl From<Ind> for Cind {
    /// An IND is the CIND with no conditions on either side.
    fn from(ind: Ind) -> Cind {
        Cind {
            from_relation: ind.from_relation,
            from_attrs: ind.from_attrs,
            from_conds: Vec::new(),
            to_relation: ind.to_relation,
            to_attrs: ind.to_attrs,
            to_conds: Vec::new(),
        }
    }
}

impl fmt::Display for Cind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{:?}; {:?}] SUBSETEQ {}[{:?}; {:?}]",
            self.from_relation,
            self.from_attrs,
            self.from_conds.iter().map(|c| (c.attr, c.value.to_string())).collect::<Vec<_>>(),
            self.to_relation,
            self.to_attrs,
            self.to_conds.iter().map(|c| (c.attr, c.value.to_string())).collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::Type;

    fn schemas() -> (Schema, Schema) {
        let cd = Schema::builder("cd")
            .attr("album", Type::Str)
            .attr("price", Type::Int)
            .attr("genre", Type::Str)
            .build();
        let book = Schema::builder("book")
            .attr("title", Type::Str)
            .attr("price", Type::Int)
            .attr("format", Type::Str)
            .build();
        (cd, book)
    }

    fn paper_cind() -> (Cind, Schema, Schema) {
        let (cd, book) = schemas();
        let cind = Cind::new(
            &cd,
            &["album", "price"],
            &[("genre", "a-book".into())],
            &book,
            &["title", "price"],
            &[("format", "audio".into())],
        )
        .unwrap();
        (cind, cd, book)
    }

    #[test]
    fn satisfied_when_witness_exists() {
        let (cind, cd_s, book_s) = paper_cind();
        let mut cd = Table::new(cd_s);
        cd.push(vec!["Dune".into(), Value::Int(20), "a-book".into()]).unwrap();
        cd.push(vec!["Thriller".into(), Value::Int(10), "pop".into()]).unwrap(); // not applicable
        let mut book = Table::new(book_s);
        book.push(vec!["Dune".into(), Value::Int(20), "audio".into()]).unwrap();
        assert!(cind.satisfied_by(&cd, &book));
    }

    #[test]
    fn violated_without_witness() {
        let (cind, cd_s, book_s) = paper_cind();
        let mut cd = Table::new(cd_s);
        cd.push(vec!["Dune".into(), Value::Int(20), "a-book".into()]).unwrap();
        let mut book = Table::new(book_s);
        // Title/price match but format is wrong → no witness.
        book.push(vec!["Dune".into(), Value::Int(20), "hardcover".into()]).unwrap();
        assert!(!cind.satisfied_by(&cd, &book));
    }

    #[test]
    fn violated_on_price_mismatch() {
        let (cind, cd_s, book_s) = paper_cind();
        let mut cd = Table::new(cd_s);
        cd.push(vec!["Dune".into(), Value::Int(25), "a-book".into()]).unwrap();
        let mut book = Table::new(book_s);
        book.push(vec!["Dune".into(), Value::Int(20), "audio".into()]).unwrap();
        assert!(!cind.satisfied_by(&cd, &book));
    }

    #[test]
    fn non_applicable_rows_ignored() {
        let (cind, cd_s, book_s) = paper_cind();
        let mut cd = Table::new(cd_s);
        cd.push(vec!["X".into(), Value::Int(5), "rock".into()]).unwrap();
        let book = Table::new(book_s);
        assert!(cind.satisfied_by(&cd, &book));
    }
}
