//! Seeded inputs the lattice's property tests share.

use revival_relation::partition::{ItemIndex, ItemScratch, Partition};
use revival_relation::{Schema, Table, Type, Value};

/// A seeded table of 2–6 columns over 3–5-value alphabets with `Null`s,
/// duplicate rows and tombstoned rows (SplitMix64, so a failing case
/// reproduces from its seed alone).
pub(crate) fn random_table(seed: u64) -> Table {
    let mut state = seed;
    let mut next = |bound: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let arity = 2 + next(5) as usize;
    let alphabets: Vec<u64> = (0..arity).map(|_| 3 + next(3)).collect();
    let mut schema = Schema::builder("r");
    for a in 0..arity {
        schema = schema.attr(format!("a{a}"), Type::Str);
    }
    let mut t = Table::new(schema.build());
    let mut ids = Vec::new();
    let mut previous: Vec<Value> = Vec::new();
    for _ in 0..next(40) {
        let row: Vec<Value> = if !previous.is_empty() && next(5) == 0 {
            previous.clone()
        } else {
            alphabets
                .iter()
                .map(|&k| match next(k + 1) {
                    0 => Value::Null,
                    v => Value::str(format!("v{v}")),
                })
                .collect()
        };
        ids.push(t.push(row.clone()).unwrap());
        previous = row;
    }
    for id in ids {
        if next(4) == 0 {
            t.delete(id).unwrap();
        }
    }
    t
}

/// Every `X` of 1–3 attributes, ascending.
pub(crate) fn lhs_sets(arity: usize) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = (0..arity).map(|a| vec![a]).collect();
    let mut frontier = sets.clone();
    for _ in 1..3 {
        frontier = frontier
            .iter()
            .flat_map(|x| (x[x.len() - 1] + 1..arity).map(move |a| [&x[..], &[a]].concat()))
            .collect();
        sets.extend(frontier.iter().cloned());
    }
    sets
}

/// The stripped `π_X` the lattice holds, through products from the
/// single attributes.
pub(crate) fn partition_of(index: &ItemIndex<'_>, x: &[usize]) -> Partition {
    let mut scratch = ItemScratch::new(index);
    let mut part = index.partition(x[0]).stripped(2);
    for &a in &x[1..] {
        part = part.refine(index, a, &mut scratch);
    }
    part
}
