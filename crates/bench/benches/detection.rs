//! Criterion benches for detection: scaling (E1), tableau size (E2),
//! incremental maintenance (E11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revival_bench::customer_workload;
use revival_detect::{
    engine_by_name, DetectJob, Detector, IncrementalDetector, NativeDetector, NativeEngine,
};
use revival_dirty::customer::{attrs, generate, scaled_suite, CustomerConfig};
use revival_dirty::noise::{inject, NoiseConfig};
use revival_relation::TupleId;

/// All engines dispatch through the shared `Detector` trait, exactly as
/// the CLI does — so these numbers measure the production code path.
fn detect_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_scaling");
    group.sample_size(10);
    for &n in &[2_000usize, 8_000, 32_000] {
        let (_, ds, cfds) = customer_workload(n, 0.05, 1);
        let job = DetectJob::on_table(&ds.dirty, &cfds);
        for name in ["native", "sql", "parallel"] {
            let engine = engine_by_name(name, 4).unwrap();
            let id = if name == "parallel" { "parallel4" } else { name };
            group.bench_with_input(BenchmarkId::new(id, n), &n, |b, _| {
                b.iter(|| engine.run(&job).unwrap())
            });
        }
    }
    group.finish();
}

fn detect_tableau(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_tableau");
    group.sample_size(10);
    let data = generate(&CustomerConfig { rows: 8_000, ..Default::default() });
    let ds = inject(&data.table, &NoiseConfig::new(0.05, vec![attrs::STREET, attrs::CITY], 2));
    for &k in &[2usize, 8, 32] {
        let suite = scaled_suite(&data, k);
        let job = DetectJob::on_table(&ds.dirty, &suite);
        group.bench_with_input(BenchmarkId::new("per_cfd", k), &k, |b, _| {
            b.iter(|| NativeEngine.run(&job).unwrap())
        });
    }
    group.finish();
}

fn incr_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("incr_detect");
    group.sample_size(10);
    let (_, ds, cfds) = customer_workload(16_000, 0.05, 3);
    let delta: Vec<Vec<revival_relation::Value>> =
        ds.dirty.rows().take(200).map(|(_, r)| r).collect();
    group.bench_function("insert_200_delta", |b| {
        b.iter_with_setup(
            || {
                let mut d = IncrementalDetector::new(cfds.clone());
                d.load(&ds.dirty);
                d
            },
            |mut d| {
                for (i, row) in delta.iter().enumerate() {
                    d.insert(TupleId(1_000_000 + i as u64), row);
                }
                d.violation_count()
            },
        )
    });
    group.bench_function("full_redetect", |b| {
        b.iter(|| NativeDetector::new(&ds.dirty).detect_all(&cfds))
    });
    group.finish();
}

criterion_group!(benches, detect_scaling, detect_tableau, incr_detect);
criterion_main!(benches);
