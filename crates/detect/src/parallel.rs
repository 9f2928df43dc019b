//! Sharded scans: how the kernels split work across threads.
//!
//! Both detection kernels shard the same way
//! ([`revival_relation::map_chunks`]): the live tuples split into
//! contiguous chunks, one worker per chunk, and the per-chunk outputs
//! come back in chunk order. Because chunks are
//! contiguous row ranges merged in order — constant findings
//! concatenate, partial group maps fold associatively (see
//! [`crate::native`]), CIND findings concatenate — the merged state is
//! *identical* to what one sequential scan builds. One shard runs
//! inline on the caller's thread, so [`ParallelEngine`] and
//! [`crate::NativeEngine`] are the same scan at different shard counts
//! and their reports are byte-for-byte equal at any count. Tests assert
//! this; the CLI exposes the shard count as `--jobs N`.

use crate::engine::{DetectJob, Detector};
use crate::report::ViolationReport;
use revival_relation::{resolve_jobs, Result};

/// The native scan sharded across `jobs` threads. Reports are
/// byte-identical to [`crate::NativeEngine`]'s.
#[derive(Clone, Copy, Debug)]
pub struct ParallelEngine {
    jobs: usize,
}

impl ParallelEngine {
    /// `jobs = 0` means one shard per available core.
    pub fn new(jobs: usize) -> Self {
        ParallelEngine { jobs: resolve_jobs(jobs) }
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
        let sequential = NativeEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
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
    fn zero_jobs_resolves_to_available_cores() {
        assert!(ParallelEngine::new(0).jobs() >= 1);
        assert_eq!(ParallelEngine::default().jobs(), ParallelEngine::new(0).jobs());
    }
}
