//! Work-count guard for the CIND witness probe: heap allocations, not
//! milliseconds.
//!
//! A CIND read builds the witness keys — the distinct target keys that
//! carry the target pattern, indexed in the target's symbols and
//! translated into the source's once each — and then probes every source
//! tuple on its symbol columns, allocating nothing per tuple. So a
//! session's `violation_count` with one CIND allocates about once per
//! distinct witness key plus a constant, however large the source is. A
//! counting global allocator pins that, machine-independently. (One
//! `#[test]` only: the counter is process-wide, and the harness runs
//! tests on threads.)

use revival::dirty::orders::{generate, standard_cind, OrdersConfig};
use revival::relation::{Table, Value};
use revival::stream::DeltaSession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a relaxed counter bump, which neither allocates nor
// touches the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) it performed.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn witness_probe_allocates_per_distinct_witness_key_not_per_tuple() {
    const CDS: usize = 20_000;
    let data = generate(&OrdersConfig { cds: CDS, extra_books: CDS / 2, ..Default::default() });
    let cind = standard_cind(&data.cd_schema, &data.book_schema);
    // The witness keys: (title, price) of every `format = 'audio'` book.
    let witness_keys: HashSet<Vec<Value>> = data
        .book
        .rows()
        .filter(|(_, r)| r[2] == Value::from("audio"))
        .map(|(_, r)| r[..2].to_vec())
        .collect();
    let keys = witness_keys.len();
    let tuples = CDS + data.book.len();
    assert!(keys * 4 < tuples, "{keys} keys: the bound below must be far from one per tuple");

    let cds: Vec<Vec<Value>> = data.cd.rows().map(|(_, r)| r).collect();
    let counted = [CDS / 4, CDS].map(|n| {
        let mut cd = Table::with_capacity(data.cd_schema.clone(), n);
        for row in &cds[..n] {
            cd.push_unchecked(row.clone());
        }
        let mut session = DeltaSession::new(1);
        session.register(cd, Vec::new()).unwrap();
        session.register(data.book.clone(), Vec::new()).unwrap();
        session.add_cinds(vec![cind.clone()]).unwrap();
        let (count, allocations) = counting(|| session.violation_count().unwrap());
        assert!(count > 0, "the planted missing witnesses must show");
        (count, allocations)
    });
    assert_eq!(counted[1].0, data.planted_violations);
    // 5 748 keys here: the index boxes each witness key once and the
    // rest is a constant — 5 792 and 5 795 allocations. The
    // `Value`-space probe this replaced copied the filtered target into
    // a new table, re-interned it and materialised a row per source
    // tuple: 34 107 and 53 394, growing with the source.
    for (n, (_, allocations)) in [CDS / 4, CDS].into_iter().zip(counted) {
        assert!(
            allocations <= keys + 64,
            "{allocations} allocations counting {n} CDs against {keys} witness keys"
        );
    }
}
