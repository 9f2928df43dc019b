//! Work-count guard for vetting a mined suite: heap allocations, not
//! milliseconds.
//!
//! Discovery's cheap cover — [`merge_by_embedded_fd`], then
//! [`Cfd::prune_subsumed_rows`] per merged CFD — runs over every mined
//! tableau row, so its allocations must follow what it keeps, not what
//! it compares: the merge clones each kept row once and grows a few
//! tables per block (merged CFD), and pruning indexes a block's rows by
//! LHS in a fixed handful of allocations, not one per distinct LHS. A
//! counting global allocator (the one `constraint_text_allocs.rs` uses)
//! pins both on a mined hospital suite, machine-independently. (One
//! `#[test]` only: the counter is process-wide, and the harness runs
//! tests on threads.)

use revival::constraints::cfd::merge_by_embedded_fd;
use revival::constraints::Cfd;
use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine, SequentialDiscovery};
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
fn the_cheap_cover_allocates_per_kept_row_and_per_block() {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows: 2_500, ..Default::default() });
    let noise = NoiseConfig::new(0.02, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
    let table = inject(&data.table, &noise).dirty;
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let found = SequentialDiscovery.run(&DiscoverJob::on_table(&table, opts)).unwrap();
    assert!(found.stats.cover_implication_skipped, "the cheap cover is what this pins");
    let mined: Vec<Cfd> = found.rules.into_iter().map(|m| m.cfd).collect();
    let rows: usize = mined.iter().map(|c| c.tableau.len()).sum();

    // Merge: one clone per kept row (a mined row's cells are constants
    // and wildcards, so its LHS vector is its only block), and per
    // block its relation, LHS and the doublings of its tableau, row
    // set and the block map.
    let (mut merged, allocations) = counting(|| merge_by_embedded_fd(&mined));
    let blocks = merged.len();
    assert!(rows >= 5_000 && blocks >= 50, "{rows} row(s) in {blocks} block(s): too small to tell");
    let bound = rows + 24 * blocks;
    assert!(allocations <= bound, "merge: {allocations} allocations, bound {bound}");

    // Prune: the LHS chains, the general list, the verdicts and the
    // kept tableau — a constant per block, whatever its distinct LHSs.
    let ((), allocations) = counting(|| merged.iter_mut().for_each(Cfd::prune_subsumed_rows));
    let bound = 8 * blocks;
    assert!(allocations <= bound, "prune: {allocations} allocations, bound {bound}");
    assert_eq!(merged, found.vetted, "merge + prune is the cheap cover discovery vets with");
}
