//! Heap-allocation budget of the program front end.
//!
//! A counting global allocator sees every allocation of the process, so this
//! file holds a single test: nothing else may run beside it. The `.tql`
//! reader matches mnemonics in place and keeps each instruction's operands
//! inline, so parsing allocates per declared qubit, not per instruction. The
//! lane scheduler records a routed merge's corridor as a column range, so a
//! warm estimate allocates per parallel step, not per instruction or
//! corridor tile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tiscc::estimator::{estimate_program, Compiler, ProgramEstimateSpec};
use tiscc::program::LogicalProgram;
use tiscc::workloads::{generate, Family, GenSpec};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// At most this many heap allocations per declared qubit, plus
/// [`PARSE_FIXED`], to parse a program.
const PARSE_PER_QUBIT: usize = 4;
const PARSE_FIXED: usize = 256;

/// At most this many heap allocations per parallel step, plus
/// [`ESTIMATE_FIXED`], for a warm single-lane estimate.
const ESTIMATE_PER_STEP: usize = 2;
const ESTIMATE_FIXED: usize = 1024;

#[test]
fn front_end_allocations_scale_with_qubits_and_steps() {
    let gen = GenSpec::new(Family::RandomCliffordT).with_n(100_000).with_seed(1);
    let text = generate(&gen).unwrap().to_tql();

    let (parse, program) = counted(|| LogicalProgram::parse("rct", &text).unwrap());
    let (qubits, instructions) = (program.qubit_count(), program.len());
    eprintln!(
        "parse: {parse} allocations for {instructions} instructions over {qubits} qubits \
         ({:.3} per instruction)",
        parse as f64 / instructions as f64
    );
    assert!(
        parse <= PARSE_PER_QUBIT * qubits + PARSE_FIXED,
        "parsing {instructions} instructions over {qubits} qubits made {parse} heap \
         allocations (budget {PARSE_PER_QUBIT} per qubit + {PARSE_FIXED})"
    );

    // A loose budget keeps the distance, and the warm-up compile, small.
    let spec = ProgramEstimateSpec::new(1e-3);
    let compiler = Compiler::new();
    estimate_program(&program, &spec, &compiler).unwrap();
    let (estimate, est) = counted(|| estimate_program(&program, &spec, &compiler).unwrap());
    eprintln!(
        "warm lane estimate: {estimate} allocations for {} steps ({:.3} per instruction)",
        est.depth,
        estimate as f64 / instructions as f64
    );
    assert!(
        estimate <= ESTIMATE_PER_STEP * est.depth + ESTIMATE_FIXED,
        "a warm estimate of {instructions} instructions in {} steps made {estimate} heap \
         allocations (budget {ESTIMATE_PER_STEP} per step + {ESTIMATE_FIXED})",
        est.depth
    );
}
