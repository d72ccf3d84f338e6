//! Sec. 3.4: the resource-estimation sweep over code distance for the
//! representative instruction set (regenerates the scaling data).

use criterion::{criterion_group, criterion_main, Criterion};
use tiscc_estimator::sweep::{run_sweep, CompileCache, SweepSpec};
use tiscc_estimator::tables::RESOURCE_SWEEP_OPS;

fn bench(c: &mut Criterion) {
    let spec = SweepSpec::square(RESOURCE_SWEEP_OPS.to_vec(), &[2, 3, 5]);
    let mut group = c.benchmark_group("resource_sweep");
    group.sample_size(10);
    group.bench_function("d_2_3_5", |b| b.iter(|| run_sweep(&spec, &CompileCache::new()).unwrap()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
