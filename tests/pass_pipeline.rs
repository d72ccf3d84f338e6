//! Test harness for the schedule → batch → template pass pipeline
//! (`tiscc::hw::passes`):
//!
//! * **Junction validity** — for random `(family, N, seed, layout, d,
//!   profile)` tuples from the workload-generator zoo, the post-hoc
//!   validity checker `check_stream_with_capacity`, which replays a stream
//!   without consulting the scheduler, accepts every compiled stream at the
//!   profile's junction capacity — in particular it never reports a
//!   `JunctionTimeConflict`, even with junction recovery windows
//!   stretching the schedule. The streams themselves are pinned bit for
//!   bit by the op-stream digests of `tests/default_outputs.rs`.
//! * **SIMD batching semantics** — pulse count is `ceil(k / simd_width)`
//!   per co-scheduled group, measurement records and labels survive
//!   batching untouched, and `simd_width = 1` is a strict no-op.
//! * **Golden stall counts** — the adder workload stalls on junction
//!   recovery under `slow_junction` and never under `h1`.

use proptest::prelude::*;

use tiscc::core::instruction::{apply_instruction, apply_two_tile_instruction, Instruction};
use tiscc::estimator::program::{estimate_program, ProgramEstimateSpec};
use tiscc::estimator::verify::{Fiducial, SingleTile, TwoTiles};
use tiscc::estimator::{CompileRequest, Compiler};
use tiscc::grid::{QSite, QubitId};
use tiscc::hw::validity::check_stream_with_capacity;
use tiscc::hw::{batch_ops, HardwareModel, HardwareSpec, NativeOp, TimedOp};
use tiscc::program::LayoutSpec;
use tiscc::workloads::{generate, Family, GenSpec};

/// Compiles `instruction` end-to-end at dx = dz = dt = `d` on a fresh
/// round-templated fixture (input preparation included) and returns the
/// hardware model with the initial ion placement.
fn compile(
    instruction: Instruction,
    d: usize,
    spec: &HardwareSpec,
) -> (HardwareModel, Vec<(QubitId, QSite)>) {
    if instruction.tiles() == 2 {
        let mut fixture = match instruction {
            Instruction::MeasureZZ => {
                TwoTiles::new_horizontal_with_spec(d, d, d, spec.clone()).unwrap()
            }
            _ => TwoTiles::with_spec(d, d, d, spec.clone()).unwrap(),
        };
        fixture.hw.set_round_templating(true);
        let snapshot = fixture.hw.grid().snapshot();
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper).unwrap();
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.lower).unwrap();
        apply_two_tile_instruction(
            &mut fixture.hw,
            instruction,
            &mut fixture.upper,
            &mut fixture.lower,
        )
        .unwrap();
        (fixture.hw, snapshot)
    } else {
        let mut fixture = SingleTile::with_spec(d, d, d, spec.clone()).unwrap();
        fixture.hw.set_round_templating(true);
        let snapshot = fixture.hw.grid().snapshot();
        let needs_input = !matches!(
            instruction,
            Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT
        );
        if needs_input {
            Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.patch).unwrap();
        }
        apply_instruction(&mut fixture.hw, instruction, &mut fixture.patch).unwrap();
        (fixture.hw, snapshot)
    }
}

/// The distinct Table 1 instructions a generated workload program uses, in
/// first-occurrence order, capped to keep one proptest case bounded.
fn distinct_instructions(family: Family, n: usize, seed: u64, cap: usize) -> Vec<Instruction> {
    let program = generate(&GenSpec::new(family).with_n(n).with_seed(seed)).unwrap();
    let mut seen = Vec::new();
    for pi in program.instructions() {
        if !seen.contains(&pi.instruction) {
            seen.push(pi.instruction);
        }
        if seen.len() == cap {
            break;
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Validity over the workload zoo: the independent post-hoc checker,
    /// which verifies junction exclusivity without the scheduler's help,
    /// accepts every stream the pipeline emits under every profile.
    #[test]
    fn compiled_streams_never_trip_the_junction_oracle(
        family_idx in 0usize..Family::all().len(),
        n in 2usize..6,
        seed in 0u64..1024,
        layout_idx in 0usize..3,
        d in 2usize..4,
        profile_idx in 0usize..3,
    ) {
        let family = Family::all()[family_idx];
        let spec = &HardwareSpec::presets()[profile_idx];
        // The layout axis: the floorplan must place the generated program
        // (the instruction fixtures below are layout-independent).
        let layout = ["lane", "row", "checkerboard"][layout_idx];
        let program = generate(&GenSpec::new(family).with_n(n).with_seed(seed)).unwrap();
        tiscc::program::Placement::allocate_with(&program, &LayoutSpec::by_name(layout).unwrap())
            .unwrap();

        for instruction in distinct_instructions(family, n, seed, 3) {
            let (hw, snapshot) = compile(instruction, d, spec);
            let layout = hw.grid().layout().clone();
            check_stream_with_capacity(&layout, &snapshot, hw.circuit(), spec.junction_capacity)
                .unwrap_or_else(|e| {
                    panic!("stream invalid ({instruction:?} d={d} profile={}): {e}", spec.name)
                });
        }
    }
}

/// One co-scheduled group of `k` identical pulses batches to exactly
/// `ceil(k / simd_width)` pulses, for every width.
#[test]
fn batched_pulse_count_is_ceil_k_over_width() {
    let gate = |i: u32| TimedOp {
        op: NativeOp::XPi2,
        sites: vec![QSite::new(0, 1 + i)].into(),
        qubits: vec![QubitId(i)].into(),
        start_us: 40.0,
        duration_us: 10.0,
        junction: None,
        measurement: None,
    };
    for k in 1usize..=9 {
        let ops: Vec<TimedOp> = (0..k as u32).map(gate).collect();
        for width in 1usize..=5 {
            let mut spec = HardwareSpec::h1();
            spec.simd_width = width;
            let (out, remap, _) = batch_ops(&ops, &spec);
            assert_eq!(out.len(), k.div_ceil(width), "k={k} width={width}");
            // Every input op lands in some output pulse, in order.
            assert_eq!(remap.len(), k);
            let members: usize = out.iter().map(|p| p.sites.len()).sum();
            assert_eq!(members, k, "k={k} width={width}");
        }
    }
}

/// Measurement records and labels survive batching bit-for-bit: a width-4
/// compile keeps every record of the width-1 compile (same count, qubits,
/// sites, times and rendered labels — only stream indices may shift as
/// merged gate pulses shrink the op count).
#[test]
fn measurement_records_survive_batching() {
    let base = CompileRequest::new(Instruction::MeasureZZ, 3, 3, 3);
    let mut wide_spec = HardwareSpec::h1();
    wide_spec.simd_width = 4;
    let compiler = Compiler::new();
    let narrow = compiler.compile(&base).unwrap();
    let wide = compiler.compile(&base.clone().with_spec(wide_spec)).unwrap();

    assert!(wide.stats.batched_pulses > 0, "width 4 must actually merge pulses");
    assert!(wide.rounds.total_ops() < narrow.rounds.total_ops(), "batching shrinks the stream");

    let narrow_recs = narrow.circuit();
    let wide_recs = wide.circuit();
    assert_eq!(wide_recs.measurements().len(), narrow_recs.measurements().len());
    for (a, b) in wide_recs.measurements().iter().zip(narrow_recs.measurements()) {
        assert_eq!(a.qubit, b.qubit);
        assert_eq!(a.site, b.site);
        assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
        assert_eq!(a.label.render(), b.label.render());
    }
}

/// `simd_width = 1` is a strict no-op: the compiled stream is bit-identical
/// to the default profile's, and the batching stats are zero.
#[test]
fn simd_width_one_is_a_strict_no_op() {
    let mut explicit = HardwareSpec::h1();
    explicit.simd_width = 1;
    let compiler = Compiler::new();
    for instruction in [Instruction::Idle, Instruction::MeasureZZ] {
        let default = compiler.compile(&CompileRequest::new(instruction, 3, 3, 3)).unwrap();
        let width_one = compiler
            .compile(&CompileRequest::new(instruction, 3, 3, 3).with_spec(explicit.clone()))
            .unwrap();
        assert_eq!(width_one.stats.batched_pulses, 0);
        assert_eq!(width_one.circuit().ops(), default.circuit().ops(), "{instruction:?}");
        assert_eq!(width_one.resources, default.resources, "{instruction:?}");
    }
}

/// Golden stall counts on the adder workload: `slow_junction`'s recovery
/// window stalls junction-adjacent ops (`junction_stalls > 0`), `h1` never
/// stalls (`== 0`) — the profile's name finally means something.
#[test]
fn adder_workload_stalls_under_slow_junction_and_not_under_h1() {
    let program = generate(&GenSpec::new(Family::RippleCarryAdder).with_n(2)).unwrap();
    let spec = ProgramEstimateSpec::new(1e-2)
        .with_profiles(vec![HardwareSpec::h1(), HardwareSpec::slow_junction()]);
    let estimate = estimate_program(&program, &spec, &Compiler::new()).unwrap();
    assert_eq!(estimate.rows.len(), 2);
    let row = |name: &str| estimate.rows.iter().find(|r| r.profile == name).unwrap();
    assert_eq!(row("h1").junction_stalls, 0, "h1 has no recovery window");
    assert!(
        row("slow_junction").junction_stalls > 0,
        "slow_junction must stall on its 100 us recool window"
    );
    // Neither profile batches at the default width.
    assert_eq!(row("h1").batched_pulses, 0);
    assert_eq!(row("slow_junction").batched_pulses, 0);
}
