//! Work-count guard for CSV ingest and snapshot open: heap allocations,
//! not milliseconds.
//!
//! Ingest scans borrowed fields and interns them straight into the
//! columns, and a snapshot open reads the pool and the symbol columns
//! back, so what either allocates is a function of the *distinct* values
//! and the column count — never of the cell count. A counting global
//! allocator pins that, machine-independently. (One `#[test]` only: the
//! counter is process-wide, and the harness runs tests on threads.)

use revival_relation::{csv, Schema, Table, Type, Value};
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
fn ingest_allocates_per_distinct_value_not_per_cell() {
    // 20 000 rows × 7 columns (ints, floats, strings, quoted strings
    // with and without `""` escapes, NULLs) over < 1 000 distinct values.
    const ROWS: usize = 20_000;
    let mut text = String::from("id,grp,score,name,city,note,quoted\n");
    for i in 0..ROWS {
        let note = if i % 5 == 0 { String::new() } else { format!("note {}", i % 97) };
        text.push_str(&format!(
            "{},{},{}.5,name{},\"city, {}\",{note},\"say \"\"{}\"\"\"\n",
            i % 200,
            i % 7,
            i % 50,
            i % 300,
            i % 40,
            i % 60,
        ));
    }

    let (table, allocations) = counting(|| csv::read_table_infer("t", &text));
    let table = table.expect("well-formed CSV");
    assert_eq!(table.len(), ROWS);
    assert_eq!(table.schema().attribute(0).ty, Type::Int);
    assert_eq!(table.schema().attribute(2).ty, Type::Float);
    assert_eq!(table.value_at(table.tuple_ids().nth(7).unwrap(), 6).unwrap(), &"say \"7\"".into());
    let distinct = table.pool().len();
    assert!(distinct <= 1_000, "{distinct} distinct values");
    // The parent commit's loader made > 400 000 here (three per cell).
    assert!(allocations < 5_000, "{allocations} allocations for {distinct} distinct values");

    // Opening the `.sdq` of the same table stays under the same bound:
    // the pool's values and one vector per column, nothing per cell —
    // which is why a snapshot opens faster than its CSV re-ingests.
    let path =
        std::env::temp_dir().join(format!("revival_ingest_allocs_{}.sdq", std::process::id()));
    table.save_snapshot(&path).expect("snapshot saves");
    let (opened, allocations) = counting(|| Table::open_snapshot(&path));
    let opened = opened.expect("snapshot opens");
    std::fs::remove_file(&path).expect("snapshot file removed");
    assert_eq!((opened.len(), opened.pool().len()), (ROWS, distinct));
    assert_eq!(opened.diff_cells(&table), 0);
    assert!(allocations < 5_000, "{allocations} allocations to open {distinct} distinct values");

    // One appended line: the row vector and one `Arc<str>` per string
    // cell — nothing for the scan itself.
    let schema = Schema::builder("r")
        .attr("name", Type::Str)
        .attr("age", Type::Int)
        .attr("city", Type::Str)
        .attr("gone", Type::Str)
        .build();
    let (row, allocations) = counting(|| csv::parse_line(&schema, "alice,30,edinburgh,", 1));
    assert_eq!(
        row.expect("well-formed line"),
        vec!["alice".into(), Value::Int(30), "edinburgh".into(), Value::Null]
    );
    assert_eq!(allocations, 3, "row vector + two strings");
}
