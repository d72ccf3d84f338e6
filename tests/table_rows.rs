//! Golden-row regression tests for the paper's Tables 1–3.
//!
//! The paper's accounting — logical time-steps and tile counts per
//! instruction — is the contract every future refactor must preserve. These
//! tests pin the full accounting for **every** Table 1 instruction at
//! d = 3 and d = 5 (compiled end-to-end, not just read off the enum), plus
//! the Table 2/3 step counts, so a silent change to the compiler's
//! accounting fails loudly here.

use tiscc::core::instruction::Instruction;
use tiscc::estimator::compiler::{CompileRequest, Compiler};
use tiscc::estimator::tables::{table2_rows, table3_rows};
use tiscc::hw::HardwareSpec;

/// Paper Table 1: `(id, logical_time_steps, tiles)` for every instruction.
/// The accounting is distance-independent; compilation below checks it at
/// d = 3 and d = 5.
const TABLE1_GOLDEN: [(&str, usize, usize); 13] = [
    ("prepare_x", 1, 1),
    ("prepare_z", 1, 1),
    ("inject_y", 0, 1),
    ("inject_t", 0, 1),
    ("measure_x", 0, 1),
    ("measure_z", 0, 1),
    ("pauli_x", 0, 1),
    ("pauli_y", 0, 1),
    ("pauli_z", 0, 1),
    ("hadamard", 0, 1),
    ("idle", 1, 1),
    ("measure_xx", 1, 2),
    ("measure_zz", 1, 2),
];

fn golden_for(id: &str) -> (usize, usize) {
    TABLE1_GOLDEN
        .iter()
        .find(|(g, _, _)| *g == id)
        .map(|&(_, steps, tiles)| (steps, tiles))
        .unwrap_or_else(|| panic!("instruction {id} missing from golden table"))
}

#[test]
fn golden_table_covers_exactly_the_instruction_set() {
    assert_eq!(TABLE1_GOLDEN.len(), Instruction::all().len());
    for &instr in Instruction::all() {
        golden_for(instr.id());
    }
}

fn check_table1_at(d: usize) {
    let compiler = Compiler::new();
    for &instr in Instruction::all() {
        let row = compiler
            .compile(&CompileRequest::new(instr, d, d, d))
            .unwrap_or_else(|e| panic!("{} failed to compile at d={d}: {e}", instr.name()))
            .row();
        let (steps, tiles) = golden_for(instr.id());
        assert_eq!(
            row.logical_time_steps,
            steps,
            "{} at d={d}: logical time-steps changed from the paper's accounting",
            instr.name()
        );
        assert_eq!(
            row.tiles,
            tiles,
            "{} at d={d}: tile count changed from the paper's accounting",
            instr.name()
        );
        assert_eq!(row.dx, d);
        assert_eq!(row.dz, d);
        // Sanity on the measured resources: every compiled instruction
        // touches hardware, and zero-step instructions still take real time.
        assert!(row.resources.execution_time_s > 0.0, "{} at d={d}", instr.name());
        assert!(row.resources.total_ops > 0, "{} at d={d}", instr.name());
        assert!(row.resources.trapping_zones > 0, "{} at d={d}", instr.name());
    }
}

#[test]
fn table1_accounting_is_stable_at_d3() {
    check_table1_at(3);
}

#[test]
fn table1_accounting_is_stable_at_d5() {
    check_table1_at(5);
}

/// Paper Table 2: `(name, logical_time_steps, tiles)` for every primitive,
/// in the order `table2_rows` emits them.
const TABLE2_GOLDEN: [(&str, usize, usize); 9] = [
    ("Prepare Z (transversal)", 0, 1),
    ("Measure Z (transversal)", 0, 1),
    ("Hadamard (transversal)", 0, 1),
    ("Inject Y", 0, 1),
    ("Inject T", 0, 1),
    ("Pauli X", 0, 1),
    ("Idle", 1, 1),
    ("Merge", 1, 2),
    ("Split", 0, 2),
];

#[test]
fn table2_accounting_is_stable_at_d3() {
    let rows = table2_rows(&HardwareSpec::default(), 3, 2).expect("table 2 compiles at d=3");
    let got: Vec<(&str, usize, usize)> =
        rows.iter().map(|r| (r.name.as_str(), r.logical_time_steps, r.tiles)).collect();
    assert_eq!(got, TABLE2_GOLDEN.to_vec());
}

/// Paper Table 3: `(name, logical_time_steps, tiles)` for every derived
/// instruction, in the order `table3_rows` emits them.
const TABLE3_GOLDEN: [(&str, usize, usize); 7] = [
    ("Bell State Preparation", 1, 2),
    ("Bell Basis Measurement", 1, 2),
    ("Extend-Split", 1, 2),
    ("Merge-Contract", 1, 2),
    ("Move", 1, 2),
    ("Patch Contraction", 0, 2),
    ("Patch Extension", 1, 2),
];

#[test]
fn table3_accounting_is_stable_at_d3() {
    let rows = table3_rows(&HardwareSpec::default(), 3, 2).expect("table 3 compiles at d=3");
    let got: Vec<(&str, usize, usize)> =
        rows.iter().map(|r| (r.name.as_str(), r.logical_time_steps, r.tiles)).collect();
    assert_eq!(got, TABLE3_GOLDEN.to_vec());
}
