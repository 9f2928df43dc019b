//! Work-count guard for compiling a unit's constant rows into the
//! detect join's index: heap allocations, not milliseconds.
//!
//! `ConstIndex` keeps one key arena and one hit array per wildcard
//! mask, filled by a counting sort on key id from buffers sized before
//! they are filled, so compiling allocates a fixed handful per mask
//! bucket plus one predicate list per residual (eCFD) row — never one
//! per distinct key, which a map from boxed keys to row lists pays. A
//! counting global allocator (the one `vetting_allocs.rs` uses) pins it
//! on a mined hospital suite, whose every unit holds hundreds of keys,
//! machine-independently. (One `#[test]` only: the counter is
//! process-wide, and the harness runs tests on threads.)

use revival::detect::native::ConstIndex;
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

#[test]
fn compiling_a_mined_suite_allocates_per_mask_not_per_key() {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows: 2_500, ..Default::default() });
    let noise = NoiseConfig::new(0.02, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
    let table = inject(&data.table, &noise).dirty;
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let found = SequentialDiscovery.run(&DiscoverJob::on_table(&table, opts)).unwrap();
    // The vetted suite holds one CFD per embedded FD: one unit each.
    let rows: usize = found.vetted.iter().map(|c| c.constant_rows().count()).sum();

    let (mut allocations, mut masks, mut residual) = (0, 0, 0);
    for cfd in &found.vetted {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let index = ConstIndex::compile([cfd], table.pool());
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        (masks, residual) = (masks + index.masks(), residual + index.residual_rows());
    }
    assert!(rows >= 5_000 && masks >= 50, "{rows} constant row(s) in {masks} mask(s): too small");
    let bound = 12 * (masks + residual);
    assert!(
        allocations <= bound,
        "{allocations} allocations compiling {rows} constant rows into {masks} mask bucket(s) \
         and {residual} residual row(s), bound {bound}"
    );
}
