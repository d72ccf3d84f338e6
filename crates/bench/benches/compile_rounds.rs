//! Round-templated compilation throughput — the `d ≥ 19` hot path.
//!
//! The estimator compiles `dt` syndrome-extraction rounds per logical
//! time-step; the round-template path compiles two representative rounds and
//! replicates the rest analytically. These benches pin three things:
//! the templated front door itself (`templated/*`), the fully materialized
//! reference it replaced (`materialized/*` — expect roughly a `dt/2` ratio
//! between the two at equal parameters), and the streaming resource-report
//! composition over a periodic circuit (`stream_report`). A regression in
//! `templated/*` is a regression of `tiscc estimate`'s dominant cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tiscc_core::instruction::Instruction;
use tiscc_estimator::compiler::{CompileRequest, Compiler};
use tiscc_estimator::program::{estimate_program, ProgramEstimateSpec};
use tiscc_estimator::verify::{Fiducial, SingleTile};
use tiscc_hw::{HardwareSpec, ResourceReport};
use tiscc_workloads::{generate, Family, GenSpec};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_rounds");
    group.sample_size(10);

    // The templated hot path at a mid-size distance (dt = d rounds).
    let compiler = Compiler::new();
    for d in [5usize, 9] {
        for instr in [Instruction::Idle, Instruction::MeasureXX] {
            let request = CompileRequest::new(instr, d, d, d);
            group.bench_function(format!("templated/{}/d{d}", instr.id()), |b| {
                b.iter(|| compiler.compile(&request).unwrap())
            });
        }
    }

    // The batched and contended paths through the same front door: SIMD
    // width 4 on h1 (the batching pass does real merging) and the
    // slow_junction recovery window (windowed junction scheduling with
    // stalls). Both still template — a regression here is the realism
    // knobs' overhead growing, not the default path's.
    let mut wide = HardwareSpec::h1();
    wide.simd_width = 4;
    for (name, spec) in
        [("batched/idle/d5", wide), ("contended/idle/d5", HardwareSpec::slow_junction())]
    {
        let request = CompileRequest::new(Instruction::Idle, 5, 5, 5).with_spec(spec);
        group.bench_function(name, |b| b.iter(|| compiler.compile(&request).unwrap()));
    }

    // The materialized reference: the same rounds compiled one by one
    // through the patch API with templating off (the pre-template path).
    group.bench_function("materialized/idle/d5", |b| {
        b.iter(|| {
            let mut fixture = SingleTile::new(5, 5, 5).unwrap();
            Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.patch).unwrap();
            fixture.patch.idle(&mut fixture.hw).unwrap()
        })
    });

    // Streaming report composition over an already compiled periodic
    // circuit: prologue + repeats × template + epilogue with running
    // accumulators, no materialization.
    let artifact = compiler.compile(&CompileRequest::new(Instruction::Idle, 9, 9, 9)).unwrap();
    let layout = tiscc_grid::Layout::new(
        tiscc_core::plaquette::tile_rows(9) + 2,
        tiscc_core::plaquette::tile_cols(9) + 2,
    );
    let spec = tiscc_hw::HardwareSpec::h1();
    group.bench_function("stream_report/idle/d9", |b| {
        b.iter(|| ResourceReport::from_stream_with_spec(&artifact.rounds, &layout, &spec))
    });

    // Whole-pipeline estimates on generated workloads at
    // N ∈ {64, 1k, 10k, 100k} instructions: place + schedule + budget +
    // pricing with a warm compiler (the first estimate below pays the
    // compiles; the measured iterations are what a cached re-run costs).
    for n in [64usize, 1024, 10_240, 102_400] {
        let workload = GenSpec::new(Family::RandomCliffordT).with_n(n).with_seed(7);
        let program = generate(&workload).expect("valid spec");
        let est = ProgramEstimateSpec::new(1e-6);
        estimate_program(&program, &est, &compiler).expect("estimates");
        group.bench_with_input(
            BenchmarkId::new("workload_estimate/random-clifford-t", n),
            &program,
            |b, program| b.iter(|| estimate_program(program, &est, &compiler).expect("estimates")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
