//! The one sharding primitive detect, repair and discovery share:
//! contiguous chunks on `std::thread::scope` workers, merged in chunk
//! order. Not a work-stealing pool: the build environment is offline (no
//! rayon), shards are coarse and uniform, and scoped threads let workers
//! borrow the table directly.

/// The shard count a `jobs` setting stands for: `0` means one shard per
/// available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Run `f` over `items` split into up to `jobs` contiguous chunks,
/// returning each chunk's output and worker wall-µs in chunk order
/// (the two clock reads per chunk are noise next to the chunk scans).
/// A single chunk — one shard, or too few items to split — runs inline:
/// no thread, and always exactly one output, even for no items.
pub fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<(R, u64)> {
    let timed = |chunk: &[T]| {
        let start = std::time::Instant::now();
        let out = f(chunk);
        (out, start.elapsed().as_micros() as u64)
    };
    let chunk_size = items.len().div_ceil(jobs.max(1)).max(1);
    if items.len() <= chunk_size {
        return vec![timed(items)];
    }
    std::thread::scope(|scope| {
        let timed = &timed;
        let handles: Vec<_> =
            items.chunks(chunk_size).map(|chunk| scope.spawn(move || timed(chunk))).collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    })
}
