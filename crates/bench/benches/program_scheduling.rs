//! Program-scheduling throughput: instructions/second of the full
//! front-end pipeline (allocation + ASAP list scheduling) as the program
//! grows. Scheduling is the per-instruction-cheap part of `tiscc
//! estimate` — it must stay linear-ish in program size so million-gate
//! programs remain schedulable; a regression here shows up as superlinear
//! growth between the parameter points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tiscc_program::{examples, schedule, LayoutSpec, LogicalProgram, Placement};
use tiscc_workloads::{generate, Family, GenSpec};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("program_scheduling");
    group.sample_size(10);
    for width in [4usize, 16, 64, 256] {
        let program = examples::adder_t_layer(width);
        group.bench_with_input(
            BenchmarkId::new("adder_t_layer", program.len()),
            &program,
            |b, program| {
                b.iter(|| {
                    let placement = Placement::allocate(program);
                    schedule(program, &placement)
                })
            },
        );
    }
    // The congestion-aware 2D path: BFS corridor routing per merge.
    for width in [4usize, 16, 64] {
        let program = examples::adder_t_layer(width);
        let side = 2 * ((2 * width) as f64).sqrt().ceil() as usize;
        let spec = LayoutSpec::checkerboard().with_grid(side, side);
        group.bench_with_input(
            BenchmarkId::new("adder_t_layer_checkerboard", program.len()),
            &program,
            |b, program| {
                b.iter(|| {
                    let placement = Placement::allocate_with(program, &spec).expect("fits");
                    schedule(program, &placement).expect("routes")
                })
            },
        );
    }
    // A serial worst case: one long dependency chain (no packing possible).
    let mut serial = LogicalProgram::new("serial-chain");
    let q = serial.add_qubit("q").expect("fresh");
    serial.prepare_z(q).expect("valid");
    for _ in 0..1024 {
        serial.idle(q).expect("valid");
    }
    group.bench_function("serial_chain/1025", |b| {
        b.iter(|| {
            let placement = Placement::allocate(&serial);
            schedule(&serial, &placement)
        })
    });
    // The parser's share of the front end.
    let text = examples::adder_t_layer(64).to_tql();
    group.bench_function("parse_tql/adder64", |b| {
        b.iter(|| LogicalProgram::parse("adder", &text).expect("parses"))
    });
    // The `.tql` texts the `estimate-frontend` benchmark re-parses per
    // request: random Clifford+T at 100 000 instructions (seed 1) and the
    // 9 309-bit adder (102 398 instructions, 27 927 declared qubits).
    for (spec, param) in [
        (GenSpec::new(Family::RandomCliffordT).with_n(100_000).with_seed(1), 100_000),
        (GenSpec::new(Family::RippleCarryAdder).with_n(9309), 9309),
    ] {
        let text = generate(&spec).expect("valid spec").to_tql();
        group.bench_with_input(
            BenchmarkId::new(format!("parse_tql/{}", spec.family), param),
            &text,
            |b, text| b.iter(|| LogicalProgram::parse("w", text).expect("parses")),
        );
    }
    // Generated workloads at N ≈ {64, 1k, 10k, 100k} instructions: the
    // scaling curves PERFORMANCE.md records. The adder widths are chosen
    // so 11w − 1 lands near each target; random-clifford-t hits it
    // exactly. Each size benches the parser and the allocate + schedule
    // pipeline separately, so a superlinear regression is attributable.
    let workloads = [
        GenSpec::new(Family::RippleCarryAdder).with_n(6),
        GenSpec::new(Family::RippleCarryAdder).with_n(93),
        GenSpec::new(Family::RippleCarryAdder).with_n(931),
        GenSpec::new(Family::RippleCarryAdder).with_n(9309),
        GenSpec::new(Family::RandomCliffordT).with_n(64).with_seed(7),
        GenSpec::new(Family::RandomCliffordT).with_n(1024).with_seed(7),
        GenSpec::new(Family::RandomCliffordT).with_n(10240).with_seed(7),
        GenSpec::new(Family::RandomCliffordT).with_n(102_400).with_seed(7),
    ];
    for spec in workloads {
        let program = generate(&spec).expect("valid spec");
        let text = program.to_tql();
        group.bench_with_input(
            BenchmarkId::new(format!("gen_parse/{}", spec.family), program.len()),
            &text,
            |b, text| b.iter(|| LogicalProgram::parse("w", text).expect("parses")),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("gen_schedule/{}", spec.family), program.len()),
            &program,
            |b, program| {
                b.iter(|| {
                    let placement = Placement::allocate(program);
                    schedule(program, &placement).expect("routes")
                })
            },
        );
    }
    // The 2D path at program scale: random Clifford+T on the auto-sized
    // checkerboard, where merges route through corridors and stall on
    // reserved tiles.
    for n in [1024usize, 10240] {
        let program =
            generate(&GenSpec::new(Family::RandomCliffordT).with_n(n).with_seed(7)).expect("valid");
        let spec = LayoutSpec::checkerboard();
        group.bench_with_input(
            BenchmarkId::new("gen_schedule_checkerboard/random-clifford-t", program.len()),
            &program,
            |b, program| {
                b.iter(|| {
                    let placement = Placement::allocate_with(program, &spec).expect("fits");
                    schedule(program, &placement).expect("routes")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
