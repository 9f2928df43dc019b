//! Work-count guard for the constraint syntax: heap allocations, not
//! milliseconds.
//!
//! The parser scans borrowed pieces of each line, resolves a block's
//! attribute names at its head and interns string constants per call,
//! so what parsing a suite allocates is what the suite itself holds —
//! one `Arc<str>` per *distinct* string constant (plus the interner's
//! growth), a cell vector per row, a few vectors per CFD — and the
//! renderer appends to its caller's buffer, so what rendering allocates
//! is that buffer's growth. A counting global allocator (the one `ingest_allocs.rs` in
//! `revival_relation` uses) pins both on a mined suite, machine-
//! independently. (One `#[test]` only: the counter is process-wide, and
//! the harness runs tests on threads.)

use revival::constraints::parser::{parse_cfds, suite_to_text};
use revival::constraints::pattern::PatternValue;
use revival::constraints::Cfd;
use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine, SequentialDiscovery};
use revival::relation::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Every string constant cell of a suite, in order — the cells that
/// own heap memory.
fn string_cells(suite: &[Cfd]) -> impl Iterator<Item = &Arc<str>> {
    fn values(p: &PatternValue) -> &[Value] {
        match p {
            PatternValue::Wildcard => &[],
            PatternValue::Const(v) | PatternValue::NotConst(v) => std::slice::from_ref(v),
            PatternValue::OneOf(vs) => vs,
        }
    }
    let cells = suite.iter().flat_map(|c| &c.tableau).flat_map(|r| r.lhs.iter().chain([&r.rhs]));
    cells.flat_map(values).filter_map(|v| match v {
        Value::Str(s) => Some(s),
        _ => None,
    })
}

#[test]
fn the_mined_suite_parses_and_renders_in_bounded_allocations() {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows: 2_500, ..Default::default() });
    let noise = NoiseConfig::new(0.02, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
    let table = inject(&data.table, &noise).dirty;
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let mut suite = SequentialDiscovery.run(&DiscoverJob::on_table(&table, opts)).unwrap().vetted;
    // A constant that needs un-escaping: the only kind of cell that
    // costs a second block.
    suite[0].tableau[0].rhs = PatternValue::constant("o'brien");
    let (cfds, rows) = (suite.len(), suite.iter().map(|c| c.tableau.len()).sum::<usize>());
    assert!(cfds >= 50 && rows >= 5_000, "{cfds} CFD(s), {rows} row(s): too small to tell");

    // One buffer, whatever the suite's size: its doublings and nothing
    // else (a `String` per row, or per constant, would be thousands).
    let schema = table.schema();
    let (text, allocations) = counting(|| suite_to_text(&suite, schema));
    assert!(text.len() > 200_000, "{} bytes", text.len());
    assert!(allocations <= 64, "{allocations} allocations to render {} bytes", text.len());

    // One block per distinct string constant and the interner's
    // doublings, the cell vector and the tableau's amortised growth per
    // row, the head's vectors per CFD.
    let (parsed, allocations) = counting(|| parse_cfds(&text, schema));
    let parsed = parsed.unwrap();
    assert_eq!(parsed, suite);
    // Equal constants share the first `Arc` their text was parsed into.
    let mut first: HashMap<&str, &Arc<str>> = HashMap::new();
    let mut cells = 0;
    for s in string_cells(&parsed) {
        let shared = first.entry(s).or_insert(s);
        assert!(Arc::ptr_eq(shared, s), "`{s}` parsed into two allocations");
        cells += 1;
    }
    let distinct = first.len();
    assert!(cells >= 10 * distinct, "{cells} string cell(s), {distinct} distinct: too few repeats");
    let growth = distinct.next_power_of_two().trailing_zeros() as usize + 1;
    let bound = distinct + growth + 1 + 2 * rows + 8 * cfds + 16;
    assert!(allocations <= bound, "{allocations} allocations, bound {bound}");
}
