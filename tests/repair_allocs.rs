//! Heap guard for a batch repair: bytes and allocations, not
//! milliseconds.
//!
//! A repair's classes live on the slots of their one RHS attribute:
//! three `u32`s per slot for each attribute a pass repairs, and the
//! classes handed to resolution are one slot arena with bounds. So at
//! its peak a repair holds its working copy of the table (which it
//! returns), one detection's working set and report, and four words per
//! slot per RHS attribute; and outside its detections it allocates per
//! pass and per attribute, never per class or class cell. The structure
//! this replaced kept a node of 40 bytes and an index entry per class
//! cell and built a `Vec` per class, and it breaks both bounds. A
//! counting global allocator tracks live bytes and their peak and pins
//! it on the ledger's `clean_hospital` input, machine-independently.
//! (One `#[test]` only: the counters are process-wide, and the harness
//! runs tests on threads.)

use revival::detect::{DetectJob, Detector, ParallelEngine};
use revival::dirty::hospital::{attrs as h, generate, standard_cfds, HospitalConfig};
use revival::dirty::noise::{inject, NoiseConfig};
use revival::relation::Table;
use revival::repair::{BatchRepair, CostModel, RepairStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// additions are relaxed counter updates, which neither allocate nor
// touch the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`: its value, the allocations it made, and its peak live bytes
/// above what was live before it.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (live, allocations) = (LIVE.load(Ordering::Relaxed), ALLOCATIONS.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - live;
    (out, ALLOCATIONS.load(Ordering::Relaxed) - allocations, peak)
}

/// What one repair took from the heap, beside what its parts take alone.
#[derive(Debug)]
struct Footprint {
    slots: usize,
    /// Distinct RHS attributes of the suite.
    rhs_attrs: usize,
    /// Bytes a copy of the input holds: the least the repair keeps.
    copy: usize,
    /// Peak bytes of the repair's first detection, run alone.
    detect_peak: usize,
    /// Peak bytes during the repair, above what was live before it.
    peak: usize,
    /// Allocations of the repair less those of the detections it ran.
    own_allocations: usize,
    stats: RepairStats,
}

/// `BatchRepair::repair` on the input the ledger's `clean_hospital`
/// builds (`gen::hospital`: 5 % noise on state, measure_name and hname,
/// noise seed `seed ^ 0x405b`) at seed 11, `rows` rows.
fn footprint(rows: usize) -> Footprint {
    let data = generate(&HospitalConfig { rows, seed: 11, ..Default::default() });
    let noise = NoiseConfig::new(0.05, vec![h::STATE, h::MEASURE_NAME, h::HNAME], 11 ^ 0x405b);
    let dirty = inject(&data.table, &noise).dirty;
    let cost = CostModel::uniform(data.schema.arity());
    let repairer = BatchRepair::new(&standard_cfds(&data.schema), cost);
    // The engine and suite the repair's own detections run.
    let detect = |t: &Table| ParallelEngine::new(1).run(&DetectJob::on_table(t, repairer.cfds()));

    let (_, first_scan, detect_peak) = measured(|| detect(&dirty).unwrap());
    let (_, _, copy) = measured(|| drop(dirty.clone()));
    let ((fixed, stats), allocations, peak) = measured(|| repairer.repair(&dirty).unwrap());
    assert_eq!(stats.passes, 1, "{stats:?}: one pass, then the fixpoint check");
    let (clean, last_scan, _) = measured(|| detect(&fixed).unwrap());
    assert!(clean.is_empty());
    Footprint {
        slots: dirty.slots(),
        rhs_attrs: repairer.cfds().iter().map(|c| c.rhs).collect::<BTreeSet<_>>().len(),
        copy,
        detect_peak,
        peak,
        own_allocations: allocations - first_scan - last_scan,
        stats,
    }
}

#[test]
fn a_repair_holds_its_copy_a_detection_and_words_per_slot() {
    let small = footprint(6_000);
    let large = footprint(12_000);
    let s = &large.stats;
    assert!(
        s.residual_violations == 0 && s.resolve.class_cells > 30_000,
        "{s:?}: not the large-class case"
    );
    assert!(
        s.resolve.class_cells > small.stats.resolve.class_cells * 3 / 2,
        "{large:?} vs {small:?}: the class cells should about double"
    );
    let bound = large.copy + large.detect_peak + 16 * large.slots * large.rhs_attrs;
    assert!(
        large.peak <= bound,
        "{large:?}: peak {} B above the input, bound {bound} B ({:.1} B per slot past the copy \
         and the detection)",
        large.peak,
        large.peak.saturating_sub(large.copy + large.detect_peak) as f64 / large.slots as f64
    );
    // Twice the class cells: the repair's own allocations stay where
    // they were, and under one per class.
    for f in [&small, &large] {
        assert!(
            f.own_allocations < f.stats.resolve.classes as usize,
            "{f:?}: more allocations than classes"
        );
    }
    assert!(
        large.own_allocations <= small.own_allocations + 16,
        "{} allocations of its own at 6 000 rows ({} class cells), {} at 12 000 ({})",
        small.own_allocations,
        small.stats.resolve.class_cells,
        large.own_allocations,
        large.stats.resolve.class_cells
    );
}
