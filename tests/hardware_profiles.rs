//! Hardware-profile contract tests.
//!
//! * Golden: `HardwareSpec::h1()` reproduces the exact Table 5 durations —
//!   the parameterisation the whole paper's resource accounting rests on —
//!   and the default-profile rows equal the legacy (pre-`Compiler`) rows.
//! * Property: uniformly scaling every duration by `k` scales every
//!   compiled instruction's `execution_time_s` by exactly `k` (ASAP
//!   scheduling is duration-homogeneous).
//! * Distinctness: the built-in profiles produce self-consistent but
//!   different physics for the same workload.

use proptest::prelude::*;

use tiscc::core::Instruction;
use tiscc::estimator::compiler::{CompileRequest, Compiler};
use tiscc::estimator::sweep::{run_sweep, CompileCache, SweepSpec};
use tiscc::hw::{HardwareSpec, NativeOp};

/// Paper Table 5: `(mnemonic, duration_us)` for every native operation.
const TABLE5_GOLDEN: [(&str, f64); 16] = [
    ("Prepare_Z", 10.0),
    ("Measure_Z", 120.0),
    ("X_pi/2", 10.0),
    ("X_pi/4", 10.0),
    ("X_-pi/4", 10.0),
    ("Y_pi/2", 10.0),
    ("Y_pi/4", 10.0),
    ("Y_-pi/4", 10.0),
    ("Z_pi/2", 3.0),
    ("Z_pi/4", 3.0),
    ("Z_-pi/4", 3.0),
    ("Z_pi/8", 3.0),
    ("Z_-pi/8", 3.0),
    ("ZZ", 2000.0),
    ("Move", 5.25),
    ("Junction", 210.0),
];

#[test]
fn h1_reproduces_table5_durations_exactly() {
    let spec = HardwareSpec::h1();
    assert_eq!(NativeOp::all().len(), TABLE5_GOLDEN.len());
    for &op in NativeOp::all() {
        let golden = TABLE5_GOLDEN
            .iter()
            .find(|(m, _)| *m == op.mnemonic())
            .unwrap_or_else(|| panic!("{} missing from golden table", op.mnemonic()))
            .1;
        // Bit-for-bit, not approximately: the h1 schedule must be the
        // paper schedule.
        assert_eq!(spec.duration_us(op), golden, "{}", op.mnemonic());
        assert_eq!(op.duration_us(&spec), golden, "{}", op.mnemonic());
    }
}

#[test]
fn default_profile_rows_match_the_legacy_pipeline() {
    // The Compiler front door with the default spec must reproduce what the
    // seed's ad-hoc pipeline produced (tables 1-3 golden accounting is
    // separately pinned by tests/table_rows.rs).
    let compiler = Compiler::new();
    for &instr in &[Instruction::PrepareZ, Instruction::Idle, Instruction::MeasureXX] {
        let artifact = compiler.compile(&CompileRequest::new(instr, 2, 2, 1)).unwrap();
        let legacy = tiscc::estimator::tables::compile_instruction_row(
            &HardwareSpec::default(),
            instr,
            2,
            2,
            1,
        )
        .unwrap();
        assert_eq!(artifact.row(), legacy, "{}", instr.name());
        assert_eq!(artifact.row().profile, "h1");
    }
}

#[test]
fn built_in_profiles_yield_distinct_self_consistent_tables() {
    let cache = CompileCache::new();
    let spec = SweepSpec::square(vec![Instruction::PrepareZ, Instruction::Idle], &[2])
        .with_profiles(HardwareSpec::presets());
    let result = run_sweep(&spec, &cache).unwrap();
    assert_eq!(result.rows.len(), 6);
    for chunk in result.rows.chunks(2) {
        // Self-consistent: within one profile, Idle (a full dt-round cycle)
        // costs at least as much time as it does under the fastest profile.
        assert!(chunk.iter().all(|r| r.resources.execution_time_s > 0.0));
        assert!(chunk.iter().all(|r| r.profile == chunk[0].profile));
    }
    // Distinct: the same instruction's makespan differs across profiles.
    let idle_times: Vec<f64> = result
        .rows
        .iter()
        .filter(|r| r.name == "Idle")
        .map(|r| r.resources.execution_time_s)
        .collect();
    assert_eq!(idle_times.len(), 3);
    for i in 0..idle_times.len() {
        for j in (i + 1)..idle_times.len() {
            assert_ne!(idle_times[i], idle_times[j], "profiles {i} and {j} are identical");
        }
    }
    // Op counts are profile-independent: only the schedule changes.
    let idle_ops: Vec<usize> =
        result.rows.iter().filter(|r| r.name == "Idle").map(|r| r.resources.total_ops).collect();
    assert!(idle_ops.windows(2).all(|w| w[0] == w[1]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scaling all durations by k scales `execution_time_s` by exactly k
    /// (up to float rounding): ASAP schedules are homogeneous in durations.
    #[test]
    fn uniform_duration_scaling_scales_execution_time(
        k in prop_oneof![Just(0.5), Just(2.0), Just(3.0), Just(10.0)],
        instr_idx in 0usize..13,
    ) {
        let instruction = Instruction::all()[instr_idx];
        let compiler = Compiler::new();
        let base = compiler
            .compile(&CompileRequest::new(instruction, 2, 2, 1))
            .unwrap();
        let scaled = compiler
            .compile(
                &CompileRequest::new(instruction, 2, 2, 1)
                    .with_spec(HardwareSpec::h1().scale_durations(k)),
            )
            .unwrap();
        let expected = k * base.resources.execution_time_s;
        let got = scaled.resources.execution_time_s;
        prop_assert!(
            (got - expected).abs() <= 1e-9 * expected.abs(),
            "{}: {} != {} * {}",
            instruction.name(),
            got,
            k,
            base.resources.execution_time_s
        );
        // The native-op stream itself is profile-independent.
        prop_assert_eq!(scaled.resources.total_ops, base.resources.total_ops);
    }
}
