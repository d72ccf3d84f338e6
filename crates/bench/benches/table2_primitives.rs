//! Table 2: the primitive surface-code operations (transversal ops, idle,
//! merge, split) compiled at d = 3.

use criterion::{criterion_group, criterion_main, Criterion};
use tiscc_estimator::tables::table2_rows;
use tiscc_hw::HardwareSpec;

fn bench(c: &mut Criterion) {
    let spec = HardwareSpec::default();
    let mut group = c.benchmark_group("table2_primitives");
    group.sample_size(10);
    group.bench_function("all_primitives_d3", |b| b.iter(|| table2_rows(&spec, 3, 2).unwrap()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
