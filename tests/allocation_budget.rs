//! Heap-allocation budget of a cold compile.
//!
//! A counting global allocator sees every allocation of the process, so this
//! file holds a single test: nothing else may run beside it. Each native op
//! holds its one or two operands inline (`tiscc::hw::Operands`), and the
//! resource report counts zones in a dense bitset, so a compile job makes
//! far fewer heap allocations than it keeps ops. The budget is checked
//! against the ops the compiled artifact keeps, which are fewer than the ops
//! emitted (fixture preparation and merged SIMD members are not kept), so
//! the bound is conservative.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tiscc::core::instruction::Instruction;
use tiscc::estimator::{CompileRequest, Compiler};
use tiscc::hw::HardwareSpec;

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

/// At most this many heap allocations per op the compile keeps.
const BUDGET_PER_OP: f64 = 0.5;

#[test]
fn cold_compiles_stay_within_the_allocation_budget() {
    let contended = HardwareSpec { simd_width: 2, ..HardwareSpec::slow_junction() };
    let requests = [
        CompileRequest::new(Instruction::Idle, 9, 9, 9),
        CompileRequest::new(Instruction::MeasureZZ, 7, 7, 7).with_spec(contended),
    ];
    for request in requests {
        let compiler = Compiler::new();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let artifact = compiler.compile(&request).expect("compiles");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let rounds = &artifact.rounds;
        let kept = rounds.prologue.len() + rounds.template.len() + rounds.epilogue.len();
        let per_op = allocations as f64 / kept as f64;
        eprintln!(
            "{:?} d={} {}: {allocations} allocations, {kept} ops kept, {per_op:.3} per op",
            request.instruction, request.dx, request.spec.name
        );
        assert!(
            per_op <= BUDGET_PER_OP,
            "{:?} d={} under {} made {allocations} heap allocations for {kept} ops \
             ({per_op:.2} per op, budget {BUDGET_PER_OP})",
            request.instruction,
            request.dx,
            request.spec.name
        );
    }
}
