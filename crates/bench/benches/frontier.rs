//! Frontier-engine throughput: the Pareto sweep on large point sets, a
//! fully warm `run_frontier` (every compile served by the in-process
//! memo — what a `tiscc serve` loop or a cached re-run pays per
//! request), and the bit-exact CSV round trip. The warm path is the one
//! interactive consumers sit on, so a regression here is directly a
//! latency regression for `tiscc serve`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tiscc_estimator::compiler::Compiler;
use tiscc_frontier::{matrix_from_csv, matrix_to_csv, pareto_flags, run_frontier, FrontierSpec};
use tiscc_hw::HardwareSpec;
use tiscc_program::{examples, LayoutSpec};
use tiscc_workloads::{generate, Family, GenSpec};

/// Deterministic pseudo-random points (xorshift) — the bench must not
/// depend on an RNG crate and must measure the same set every run.
fn synthetic_points(n: usize) -> Vec<(usize, f64)> {
    let mut state = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 48) as usize, (state & 0xffff) as f64 / 16.0)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier");
    group.sample_size(10);

    let points = synthetic_points(4096);
    group.bench_function("pareto/4096", |b| b.iter(|| pareto_flags(&points)));

    let program = examples::ripple_adder();
    let spec = FrontierSpec::new(
        vec![LayoutSpec::row_major(), LayoutSpec::checkerboard()],
        vec![HardwareSpec::h1(), HardwareSpec::projected()],
    )
    .with_distances(3, 9);
    let compiler = Compiler::new();
    // Warm the memo once; the measured runs then price the whole matrix
    // without a single physical compile.
    let report = run_frontier(&program, &spec, &compiler, None).expect("runs");
    assert_eq!(compiler.cache().len(), report.stats.jobs);
    group.bench_function("warm_run/adder", |b| {
        b.iter(|| run_frontier(&program, &spec, &compiler, None).expect("runs"))
    });

    let csv = matrix_to_csv(&report);
    group.bench_function("csv_round_trip/adder", |b| {
        b.iter(|| matrix_from_csv(&csv).expect("parses"))
    });

    // Warm frontier runs over generated workloads at N ∈ {64, 1k, 10k,
    // 100k} instructions: a deliberately small design space (lane layout,
    // one profile, two odd distances) so the measurement tracks how the
    // per-cell place + schedule + price pipeline scales with program
    // length, not with matrix width.
    for n in [64usize, 1024, 10_240, 102_400] {
        let workload = GenSpec::new(Family::RandomCliffordT).with_n(n).with_seed(7);
        let program = generate(&workload).expect("valid spec");
        let spec = FrontierSpec::new(vec![LayoutSpec::single_lane()], vec![HardwareSpec::h1()])
            .with_distances(3, 5);
        run_frontier(&program, &spec, &compiler, None).expect("warms");
        group.bench_with_input(
            BenchmarkId::new("workload_warm_run/random-clifford-t", n),
            &program,
            |b, program| b.iter(|| run_frontier(program, &spec, &compiler, None).expect("runs")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
