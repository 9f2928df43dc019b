//! Sharded scans: how the kernels split work across threads.
//!
//! Both detection kernels shard the same way (`map_chunks`): the live
//! tuples split into contiguous chunks, one worker per chunk, and the
//! per-chunk outputs come back in chunk order. Because chunks are
//! contiguous row ranges merged in order — constant findings
//! concatenate, partial group maps fold associatively (see
//! [`crate::native`]), CIND findings concatenate — the merged state is
//! *identical* to what one sequential scan builds. One shard runs
//! inline on the caller's thread, so [`ParallelEngine`] and
//! [`crate::NativeEngine`] are the same scan at different shard counts
//! and their reports are byte-for-byte equal at any count. Tests assert
//! this; the CLI exposes the shard count as `--jobs N`.
//!
//! Workers are `std::thread::scope` threads, not a work-stealing pool:
//! the build environment is offline (no rayon), shards are coarse and
//! uniform, and scoped threads let workers borrow the table directly.

use crate::engine::{DetectJob, Detector};
use crate::report::ViolationReport;
use revival_relation::Result;

/// How many shards to use for `jobs = 0` (auto).
fn auto_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f` over `items` split into up to `jobs` contiguous chunks,
/// returning each chunk's output and worker wall-µs in chunk order
/// (the two clock reads per chunk are noise next to the chunk scans).
/// A single chunk — one shard, or too few items to split — runs inline:
/// no thread, and always exactly one output, even for no items.
/// Public because repair shards its class resolution the same way.
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

/// The native scan sharded across `jobs` threads. Reports are
/// byte-identical to [`crate::NativeEngine`]'s.
#[derive(Clone, Copy, Debug)]
pub struct ParallelEngine {
    jobs: usize,
}

impl ParallelEngine {
    /// `jobs = 0` means one shard per available core.
    pub fn new(jobs: usize) -> Self {
        ParallelEngine { jobs: if jobs == 0 { auto_jobs() } else { jobs } }
    }

    /// The shard count in use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

impl Default for ParallelEngine {
    fn default() -> Self {
        ParallelEngine::new(0)
    }
}

impl Detector for ParallelEngine {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn shards(&self) -> usize {
        self.jobs
    }

    fn scan(
        &self,
        job: &DetectJob<'_>,
        profile: Option<&mut revival_obs::JobProfile>,
    ) -> Result<ViolationReport> {
        crate::native::scan_suite(job, self.jobs, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NativeEngine;
    use crate::native::NativeDetector;
    use revival_constraints::parser::parse_cfds;
    use revival_constraints::Cfd;
    use revival_relation::{Schema, Table, Type};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .build()
    }

    fn suite() -> Vec<Cfd> {
        parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            &schema(),
        )
        .unwrap()
    }

    /// A deterministic pseudo-random table big enough that every shard
    /// count exercises chunk boundaries.
    fn big_table(rows: usize) -> Table {
        let mut t = Table::new(schema());
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        for _ in 0..rows {
            let cc = ["44", "01", "86"][next(3)];
            let zip = format!("Z{}", next(40));
            let street = format!("S{}", next(8));
            let city = format!("C{}", next(5));
            t.push(vec![cc.into(), zip.into(), street.into(), city.into()]).unwrap();
        }
        t
    }

    fn sharded(t: &Table, cfds: &[Cfd], jobs: usize) -> ViolationReport {
        ParallelEngine::new(jobs).run(&DetectJob::on_table(t, cfds)).unwrap()
    }

    #[test]
    fn byte_identical_to_sequential_at_any_shard_count() {
        let t = big_table(1_000);
        let cfds = suite();
        let sequential = NativeDetector::new(&t).detect_all(&cfds);
        assert!(!sequential.is_empty());
        for jobs in [1, 2, 3, 4, 7, 16] {
            let parallel = sharded(&t, &cfds, jobs);
            assert_eq!(
                format!("{sequential}"),
                format!("{parallel}"),
                "jobs={jobs} must render identically"
            );
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn engine_matches_native_engine_byte_for_byte() {
        let t = big_table(500);
        let cfds = suite();
        let job = DetectJob::on_table(&t, &cfds);
        let native = NativeEngine.run(&job).unwrap();
        for jobs in [2, 4] {
            let parallel = ParallelEngine::new(jobs).run(&job).unwrap();
            assert_eq!(native, parallel);
            assert_eq!(format!("{native}"), format!("{parallel}"));
        }
    }

    #[test]
    fn empty_and_tiny_tables() {
        let t = Table::new(schema());
        let cfds = suite();
        assert!(sharded(&t, &cfds, 4).is_empty());
        let mut one = Table::new(schema());
        one.push(vec!["01".into(), "07974".into(), "Mtn".into(), "nyc".into()]).unwrap();
        // More shards than rows: still one constant violation.
        let report = sharded(&one, &cfds, 8);
        assert_eq!(report.violating_tuples().len(), 1);
    }

    #[test]
    fn auto_jobs_resolves() {
        assert!(ParallelEngine::new(0).jobs() >= 1);
        assert_eq!(ParallelEngine::default().jobs(), ParallelEngine::new(0).jobs());
    }
}
