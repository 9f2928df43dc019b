//! Work-count guard for a whole discovery run: heap allocations, not
//! milliseconds.
//!
//! A mined constant rule is built once: the miner keeps its rules as
//! item numbers in flat arrays, orders them without a key per rule, and
//! the engine turns each straight into its mined CFD — a relation name,
//! an LHS list, a tableau and that tableau's one row, four allocations
//! — while vetting clones the row once into its block, which the miner
//! handed over already assigned. Everything else is per level, per
//! block or per table. So the run allocates at most six times per rule
//! mined plus a constant per vetted block; building a key, a CFD or a
//! hash set entry per rule again breaks the bound. A counting global
//! allocator (the one `vetting_allocs.rs` uses) pins it on the mined
//! hospital suite `vetting_allocs.rs` vets, machine-independently. (One
//! `#[test]` only: the counter is process-wide, and the harness runs
//! tests on threads.)

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
fn a_discovery_run_allocates_per_rule_and_per_block() {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows: 2_500, ..Default::default() });
    let noise = NoiseConfig::new(0.02, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
    let table = inject(&data.table, &noise).dirty;
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let job = DiscoverJob::on_table(&table, opts);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let found = SequentialDiscovery.run(&job).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let (rules, blocks) = (found.rules.len(), found.vetted.len());
    assert!(
        rules >= 5_000 && blocks >= 50,
        "{rules} rule(s) in {blocks} block(s): too small to tell"
    );
    let bound = 6 * rules + 32 * blocks;
    assert!(
        allocations <= bound,
        "{allocations} allocations for {rules} rules in {blocks} blocks ({:.2} per rule), bound {bound}",
        allocations as f64 / rules as f64
    );
}
