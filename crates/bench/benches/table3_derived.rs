//! Table 3: the derived instruction set (Bell preparation/measurement,
//! Extend-Split, Merge-Contract, Move, extension, contraction) at d = 2.

use criterion::{criterion_group, criterion_main, Criterion};
use tiscc_estimator::tables::table3_rows;
use tiscc_hw::HardwareSpec;

fn bench(c: &mut Criterion) {
    let spec = HardwareSpec::default();
    let mut group = c.benchmark_group("table3_derived");
    group.sample_size(10);
    group.bench_function("all_derived_d2", |b| b.iter(|| table3_rows(&spec, 2, 1).unwrap()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
