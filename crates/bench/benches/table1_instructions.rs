//! Table 1: compilation of every member of the local lattice-surgery
//! instruction set at d = 2 and d = 3 (wall-clock cost of the compiler and
//! regeneration of the logical time-step accounting).

use criterion::{criterion_group, criterion_main, Criterion};
use tiscc_core::instruction::Instruction;
use tiscc_estimator::tables::compile_instruction_row;
use tiscc_hw::HardwareSpec;

fn bench(c: &mut Criterion) {
    let spec = HardwareSpec::default();
    let mut group = c.benchmark_group("table1_instructions");
    group.sample_size(10);
    for &instr in Instruction::all() {
        group.bench_function(instr.name(), |b| {
            b.iter(|| compile_instruction_row(&spec, instr, 3, 3, 2).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
