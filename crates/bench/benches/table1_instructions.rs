//! Table 1: compilation of every member of the local lattice-surgery
//! instruction set at d = 2 and d = 3 (wall-clock cost of the compiler and
//! regeneration of the logical time-step accounting).

use criterion::{criterion_group, criterion_main, Criterion};
use tiscc_core::instruction::Instruction;
use tiscc_estimator::compiler::{CompileRequest, Compiler};

fn bench(c: &mut Criterion) {
    let compiler = Compiler::new();
    let mut group = c.benchmark_group("table1_instructions");
    group.sample_size(10);
    for &instr in Instruction::all() {
        group.bench_function(instr.name(), |b| {
            b.iter(|| compiler.compile(&CompileRequest::new(instr, 3, 3, 2)).unwrap().row())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
