//! Work-count guard for the maintained detector: heap allocations, not
//! milliseconds.
//!
//! The session's violation state is keyed by the table's own symbols and
//! probed in place, so a steady-state append — values and LHS groups the
//! session has seen — allocates nothing of its own (what is left is the
//! amortised growth of the columns and member lists it lands in),
//! registering a table allocates per distinct LHS group, never per row,
//! and the `repair` verb — which reads the same groups instead of
//! indexing the base again — allocates the same handful whatever the
//! base holds.
//! A counting global allocator pins all three, machine-independently. (One
//! `#[test]` only: the counter is process-wide, and the harness runs
//! tests on threads.)

use revival::dirty::customer::{attrs, generate, scaled_suite, standard_cfds, CustomerConfig};
use revival::dirty::noise::{inject, NoiseConfig};
use revival::stream::DeltaSession;
use revival_relation::{Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
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
fn appends_allocate_nothing_per_row_and_register_per_group() {
    const ROWS: usize = 20_000;
    const PENDING: usize = 200;
    let data = generate(&CustomerConfig { rows: ROWS, ..Default::default() });
    // 43 CFDs over 2 embedded FDs, 40 of them constant rows.
    let cfds = scaled_suite(&data, 40);
    assert_eq!(cfds.len(), 43);
    let mut base = Table::with_capacity(data.schema.clone(), ROWS);
    let rows: Vec<Vec<Value>> = data.table.rows().map(|(_, row)| row).collect();
    for row in &rows {
        base.push_unchecked(row.clone());
    }
    // The LHS groups of the two embedded FDs: (cc, zip) and (cc, ac).
    let distinct = |attrs: [usize; 2]| {
        let keys: std::collections::HashSet<_> =
            rows.iter().map(|r| (r[attrs[0]].clone(), r[attrs[1]].clone())).collect();
        keys.len()
    };
    let (lhs0, lhs1) = (&cfds[0].lhs, &cfds[2].lhs);
    let groups = distinct([lhs0[0], lhs0[1]]) + distinct([lhs1[0], lhs1[1]]);
    assert!(groups * 4 < ROWS, "{groups} groups: the bound below must be far from one per row");

    let mut session = DeltaSession::new(1);
    let ((), registering) = counting(|| session.register(base, cfds.clone()).unwrap());
    // Per group: its boxed key, its member list as it grows, its RHS
    // counts and matched rows — 2 595 here for 240 groups. The parent
    // commit's per-CFD, value-keyed state made 44 389 (two per row).
    assert!(
        registering < 8 * groups + 2_000,
        "{registering} allocations registering {ROWS} rows in {groups} groups"
    );

    // Rows the session has seen: every value interned, every group there.
    let again: Vec<Vec<Value>> = rows[..1_000].to_vec();
    let ((), appending) = counting(|| {
        for row in again {
            session.insert("customer", row).unwrap();
        }
    });
    // 35 here: columns and member lists doubling (47 while a pending-id
    // list doubled beside them; 3 059 when every append paid a
    // `Vec<Value>`, a key vector and a `String`).
    assert!(appending < 288, "{appending} allocations for 1 000 steady-state appends");
    assert_eq!(session.table("customer").unwrap().len(), ROWS + 1_000);

    // `repair` over 200 noisy pending tuples (base rows again, 10 % of
    // their cells off): the verb reads the groups the session keeps, so
    // what it allocates — the distance kernel's buffers, 3 here — does
    // not depend on the base. (Indexing the base by value made 21 921
    // allocations at 5 000 rows and 81 921 at 20 000.)
    let mut delta = Table::new(data.schema.clone());
    for row in &rows[..PENDING] {
        delta.push_unchecked(row.clone());
    }
    let noise = NoiseConfig::new(0.10, vec![attrs::STREET, attrs::CITY, attrs::ZIP], 6);
    let noisy: Vec<Vec<Value>> = inject(&delta, &noise).dirty.rows().map(|(_, r)| r).collect();
    let repairing = [5_000, ROWS].map(|base_rows| {
        let mut base = Table::with_capacity(data.schema.clone(), base_rows + PENDING);
        for row in &rows[..base_rows] {
            base.push_unchecked(row.clone());
        }
        let mut session = DeltaSession::new(1);
        session.register(base, cfds.clone()).unwrap();
        for row in &noisy {
            session.insert("customer", row.clone()).unwrap();
        }
        assert!(session.violation_count().unwrap() > 0);
        let (stats, allocations) = counting(|| session.repair("customer").unwrap());
        assert!(stats.cells_changed > 20, "{stats:?}: the noise must bite");
        allocations
    });
    assert_eq!(repairing[0], repairing[1], "allocations at a 5 000- and a 20 000-row base");
    assert!(repairing[1] < 64, "{repairing:?} allocations repairing {PENDING} pending tuples");

    // A capped `report` pays for the lines it prints: over the standard
    // suite on 5 %-noisy customer rows it builds its 20 violations and a
    // bit per slot, whatever the rows, and writes each line straight
    // into the reply: 64 allocations at 2 000 rows, 67 at 20 000.
    // (Building every violation and a set node per implicated tuple
    // made 912 and 3 546; a `String` per line and per key attribute
    // joined after, 284 and 287.)
    let reporting = [2_000, ROWS].map(|rows| {
        let data = generate(&CustomerConfig { rows, seed: 7, ..Default::default() });
        let noise = NoiseConfig::new(0.05, vec![attrs::STREET, attrs::CITY, attrs::ZIP], 7);
        let mut session = DeltaSession::new(1);
        session.register(inject(&data.table, &noise).dirty, standard_cfds(&data.schema)).unwrap();
        let ((total, text), allocations) = counting(|| session.describe(20).unwrap());
        assert!(total > 20 && text.lines().count() == 22, "{text}");
        allocations
    });
    assert!(reporting[1] * 48 <= 3_546, "{reporting:?} allocations listing 20 violations");
    assert!(reporting[1] * 4 <= reporting[0] * 5, "{reporting:?}: a listing grows with the rows");
}
