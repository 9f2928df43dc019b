//! Cross-engine parity: on generated dirty-customer data, every
//! detection engine behind the [`Detector`] trait must report the same
//! violations for the same CFD suite — and the parallel engine must
//! match the sequential reference *byte for byte*, at any shard count.

use proptest::prelude::*;
use revival::detect::Detector;
use revival::detect::{
    engine_by_name, DetectJob, NativeDetector, NativeEngine, ParallelEngine, ViolationReport,
};
use revival::dirty::customer::{attrs, generate, scaled_suite, standard_cfds, CustomerConfig};
use revival::dirty::hospital;
use revival::dirty::noise::{inject, NoiseConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Native, SQL-gen, incremental and parallel detectors report
    /// identical violation sets on arbitrary dirty-customer workloads.
    fn engines_report_identical_violation_sets(
        rows in 40usize..320,
        noise_pct in 0usize..12,
        seed in 0u64..1_000,
        jobs in 2usize..6,
    ) {
        let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
        let ds = inject(
            &data.table,
            &NoiseConfig::new(
                noise_pct as f64 / 100.0,
                vec![attrs::STREET, attrs::CITY, attrs::ZIP],
                seed ^ 0xbead,
            ),
        );
        let cfds = standard_cfds(&data.schema);
        let job = DetectJob::on_table(&ds.dirty, &cfds);

        let reference = NativeEngine.run(&job).unwrap();
        for name in ["sql", "incremental", "parallel"] {
            let mut got = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
            got.normalize();
            let mut want = reference.clone();
            want.normalize();
            prop_assert_eq!(
                got.violating_tuples(),
                want.violating_tuples(),
                "engine {} implicates different tuples", name
            );
            prop_assert_eq!(got, want, "engine {} reports different violations", name);
        }

        // Stronger property for the sharded engine: the merged report is
        // byte-identical to the sequential one without normalisation.
        let parallel = ParallelEngine::new(jobs).run(&job).unwrap();
        prop_assert_eq!(format!("{}", &parallel), format!("{}", &reference));
        prop_assert_eq!(parallel, reference);
    }

    /// Suites whose CFDs share embedded FDs — the random tail repeats a
    /// CFD verbatim and re-derives one as a plain FD, so one scan pass
    /// serves several CFDs — report identically on every engine and
    /// shard count, and in an order no pass-sharing can disturb.
    fn engines_agree_on_suites_sharing_embedded_fds(
        rows in 40usize..240,
        noise_pct in 0usize..12,
        seed in 0u64..1_000,
        dup in 0usize..5,
    ) {
        let data = generate(&CustomerConfig { rows, seed, ..Default::default() });
        let ds = inject(
            &data.table,
            &NoiseConfig::new(
                noise_pct as f64 / 100.0,
                vec![attrs::STREET, attrs::CITY, attrs::ZIP],
                seed ^ 0xfeed,
            ),
        );
        let mut cfds = standard_cfds(&data.schema);
        // Force real sharing: repeat a suite member verbatim and add an
        // overlapping embedded FD with a different tableau row.
        let base = cfds.len();
        cfds.push(cfds[dup % base].clone());
        cfds.push(revival::constraints::Cfd::from_fd(&data.schema, &["zip"], "city").unwrap());
        let job = DetectJob::on_table(&ds.dirty, &cfds);

        let native = NativeEngine.run(&job).unwrap();
        let mut want = native.clone();
        want.normalize();
        for name in ["sql", "incremental", "parallel"] {
            for jobs in [1usize, 4] {
                let mut got = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
                got.normalize();
                prop_assert_eq!(&got, &want, "engine {} at jobs={} diverges", name, jobs);
            }
        }

        // Order, pinned independently of any other engine: the suite's
        // report is the per-CFD reports concatenated in suite order (a
        // single-member pass *is* the per-CFD scan), at any shard count.
        let detector = NativeDetector::new(&ds.dirty);
        let per_cfd = ViolationReport {
            violations: cfds
                .iter()
                .enumerate()
                .flat_map(|(i, cfd)| detector.detect(cfd, i).violations)
                .collect(),
        };
        prop_assert_eq!(format!("{}", &native), format!("{}", &per_cfd));
        for jobs in [3usize, 7] {
            let sharded = ParallelEngine::new(jobs).run(&job).unwrap();
            prop_assert_eq!(format!("{}", &sharded), format!("{}", &per_cfd), "jobs={}", jobs);
        }
    }
}

/// The regression guard for "someone reintroduced a per-CFD scan": the
/// explain profile counts exactly one `pass` row per embedded FD and
/// one `cfd` row per constraint, at any shard count.
#[test]
fn scans_once_per_embedded_fd() {
    let data = generate(&CustomerConfig { rows: 20_000, ..Default::default() });
    let customer = scaled_suite(&data, 40);
    assert_eq!(customer.len(), 43, "the audit_customer suite shape");
    let hosp = hospital::generate(&hospital::HospitalConfig { rows: 2_000, ..Default::default() });
    let hospital = hospital::standard_cfds(&hosp.schema);
    for (table, cfds, passes) in [(&data.table, &customer, 2), (&hosp.table, &hospital, 7)] {
        for jobs in [1usize, 4] {
            let job = DetectJob::on_table(table, cfds);
            let (_, profile) = ParallelEngine::new(jobs).run_profiled(&job).unwrap();
            let rows_of = |kind| profile.constraints.iter().filter(|c| c.kind == kind).count();
            assert_eq!(rows_of("pass"), passes, "{} at jobs={jobs}", cfds[0].relation);
            assert_eq!(rows_of("cfd"), cfds.len(), "{} at jobs={jobs}", cfds[0].relation);
        }
    }
}
