//! Equivalence and scale tests for round-templated compilation.
//!
//! The template path (compile two representative syndrome-extraction rounds,
//! replicate the rest analytically) must be *observationally identical* to
//! the materialized path: same ops, same bit-exact schedule, same
//! measurement records and labels, same resource reports, same validity
//! verdicts. These tests pin that equivalence over randomized fixtures and
//! every hardware profile (including `projected`, whose non-dyadic `Move`
//! duration would expose any period-arithmetic shortcut), plus a d = 19
//! single-instruction smoke test bounding the hot path's wall-clock cost.

use std::time::Instant;

use proptest::prelude::*;

use tiscc::core::instruction::{apply_instruction, apply_two_tile_instruction, Instruction};
use tiscc::estimator::program::{estimate_program, ProgramEstimateSpec};
use tiscc::estimator::tables::ResourceRow;
use tiscc::estimator::verify::{Fiducial, SingleTile, TwoTiles};
use tiscc::estimator::{CompileRequest, Compiler};
use tiscc::hw::validity::check_stream_with_capacity;
use tiscc::hw::{
    batch_rounds, CompiledRounds, HardwareModel, HardwareSpec, Label, ResourceReport, RoundLabel,
    TimedOp,
};
use tiscc::program::{LayoutSpec, LogicalProgram};

/// Compiles `instruction` end-to-end on a fresh fixture (input preparation
/// included, mirroring the estimator front door) and returns the hardware
/// model, the initial ion placement, and the op index where the
/// instruction's own circuit begins.
fn compile_fixture(
    instruction: Instruction,
    d: usize,
    dt: usize,
    spec: &HardwareSpec,
    templated: bool,
) -> (HardwareModel, Vec<(tiscc::grid::QubitId, tiscc::grid::QSite)>, usize) {
    if instruction.tiles() == 2 {
        let mut fixture = match instruction {
            Instruction::MeasureZZ => {
                TwoTiles::new_horizontal_with_spec(d, d, dt, spec.clone()).unwrap()
            }
            _ => TwoTiles::with_spec(d, d, dt, spec.clone()).unwrap(),
        };
        fixture.hw.set_round_templating(templated);
        let snapshot = fixture.hw.grid().snapshot();
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper).unwrap();
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.lower).unwrap();
        let before = fixture.hw.circuit().len();
        apply_two_tile_instruction(
            &mut fixture.hw,
            instruction,
            &mut fixture.upper,
            &mut fixture.lower,
        )
        .unwrap();
        (fixture.hw, snapshot, before)
    } else {
        let mut fixture = SingleTile::with_spec(d, d, dt, spec.clone()).unwrap();
        fixture.hw.set_round_templating(templated);
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
        let before = fixture.hw.circuit().len();
        apply_instruction(&mut fixture.hw, instruction, &mut fixture.patch).unwrap();
        (fixture.hw, snapshot, before)
    }
}

/// Asserts full observational equivalence between the templated and the
/// materialized compilation of one configuration.
fn assert_equivalent(instruction: Instruction, d: usize, dt: usize, spec: &HardwareSpec) {
    let (reference, ref_snapshot, ref_before) = compile_fixture(instruction, d, dt, spec, false);
    let (templated, snapshot, before) = compile_fixture(instruction, d, dt, spec, true);
    assert_eq!(ref_before, before, "prologue length must not depend on templating");

    // The periodic circuit flattens to the exact reference circuit:
    // identical ops, bit-identical schedule, identical measurement wiring.
    let flat = templated.circuit().materialize();
    assert_eq!(flat.ops(), reference.circuit().ops(), "{instruction:?} d={d} dt={dt}");

    // Measurement records: same count, indices, bit-identical times and
    // identical rendered labels.
    let ref_recs = reference.circuit().measurements();
    let recs = templated.circuit().measurements();
    assert_eq!(recs.len(), ref_recs.len());
    for (a, b) in recs.iter().zip(ref_recs) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.qubit, b.qubit);
        assert_eq!(a.site, b.site);
        assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
        assert_eq!(a.label.render(), b.label.render());
    }

    // Streaming resource reports agree exactly (f64 equality, not approx)
    // on the instruction sub-range, records carried through extraction.
    let rounds = CompiledRounds::extract(templated.circuit(), before);
    let ref_rounds = CompiledRounds::extract(reference.circuit(), ref_before);
    assert_eq!(ref_rounds.repeats, 0, "reference range must be fully materialized");
    let layout = templated.grid().layout().clone();
    let report = ResourceReport::from_stream_with_spec(&rounds, &layout, spec);
    let ref_report = ResourceReport::from_stream_with_spec(&ref_rounds, &layout, spec);
    assert_eq!(report, ref_report, "{instruction:?} d={d} dt={dt} profile={}", spec.name);
    assert_eq!(rounds.total_ops(), ref_rounds.total_ops());
    assert_eq!(rounds.measurements.len(), ref_rounds.measurements.len());

    // The periodic sub-range flattens to the reference sub-range.
    assert_eq!(rounds.materialize().ops(), ref_rounds.materialize().ops());

    // The batch pass keeps the template replayable to the same barriers:
    // the per-round report of the batched rounds equals the report of
    // their materialization, at the profile's SIMD width.
    let (batched, _) = batch_rounds(&rounds, spec);
    assert_eq!(
        ResourceReport::from_stream_with_spec(&batched, &layout, spec),
        ResourceReport::from_stream_with_spec(&batched.materialize(), &layout, spec),
        "batched {instruction:?} d={d} dt={dt} profile={} width={}",
        spec.name,
        spec.simd_width
    );

    // Validity: the checker accepts the periodic circuit, streamed and
    // flattened, exactly as it accepts the materialized reference.
    let capacity = spec.junction_capacity;
    check_stream_with_capacity(&layout, &ref_snapshot, reference.circuit(), capacity)
        .expect("reference is valid");
    check_stream_with_capacity(&layout, &snapshot, templated.circuit(), capacity)
        .expect("periodic stream is valid");
    check_stream_with_capacity(&layout, &snapshot, &flat, capacity)
        .expect("flattened circuit is valid");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized fixtures: streaming/templated results are identical to
    /// the materialized path for every instruction kind, distance, round
    /// count and hardware profile.
    #[test]
    fn templated_compilation_is_observationally_identical(
        instr_idx in 0usize..Instruction::all().len(),
        d in 2usize..4,
        dt in 1usize..6,
        profile_idx in 0usize..3,
    ) {
        let instruction = Instruction::all()[instr_idx];
        let spec = &HardwareSpec::presets()[profile_idx];
        assert_equivalent(instruction, d, dt, spec);
    }
}

/// Deterministic coverage of the three replicated-round sequences (idle,
/// merge, extension) at a round count that guarantees replication, under
/// the non-dyadic `projected` profile, the contended `slow_junction`
/// profile (junction recovery windows, stalls inside the re-emitted and
/// replicated rounds) and SIMD width 2 (batched templates).
#[test]
fn replicated_sequences_match_materialized_per_kind() {
    let projected = HardwareSpec::projected();
    assert_equivalent(Instruction::Idle, 3, 5, &projected);
    assert_equivalent(Instruction::MeasureXX, 2, 4, &projected);
    assert_equivalent(Instruction::MeasureZZ, 2, 4, &projected);
    assert_equivalent(Instruction::PrepareZ, 3, 4, &HardwareSpec::h1());
    let slow = HardwareSpec::slow_junction();
    assert_equivalent(Instruction::Idle, 3, 5, &slow);
    assert_equivalent(Instruction::MeasureZZ, 3, 4, &slow);
    for base in [HardwareSpec::h1(), slow] {
        let mut simd2 = base;
        simd2.simd_width = 2;
        assert_equivalent(Instruction::Idle, 3, 5, &simd2);
        assert_equivalent(Instruction::MeasureXX, 3, 4, &simd2);
        assert_equivalent(Instruction::PrepareX, 3, 4, &simd2);
    }
}

/// An instruction compiled after its inputs were prepared unrecorded (the
/// compile path) is the instruction compiled after a recorded preparation:
/// the same ops with bit-identical times, the same measurement records
/// (the preparation's included, so indices agree), the same stall flags
/// and replicated spans, moved down by the preparation's op count, which is
/// the model's unstored-op count.
#[test]
fn unstored_preparation_matches_recorded_preparation() {
    let mut contended = HardwareSpec::slow_junction();
    contended.simd_width = 2;
    let mut stalled = 0usize;
    for spec in [HardwareSpec::h1(), HardwareSpec::projected(), contended] {
        for &instruction in Instruction::all() {
            for d in [3usize, 5] {
                let ctx = format!("{instruction:?} d={d} {}", spec.name);
                let (recorded, _, before) = compile_fixture(instruction, d, d, &spec, true);
                let unstored = compile_unrecorded(instruction, d, d, &spec);
                assert_eq!(unstored.unstored_ops(), before, "unstored-op count: {ctx}");
                assert_eq!(recorded.unstored_ops(), 0, "{ctx}");

                let ops = &recorded.circuit().ops()[before..];
                assert_eq!(unstored.circuit().ops(), ops, "ops: {ctx}");
                for (a, b) in unstored.circuit().ops().iter().zip(ops) {
                    assert_eq!(a.start_us.to_bits(), b.start_us.to_bits(), "start: {ctx}");
                }
                assert_eq!(
                    unstored.circuit().measurements(),
                    recorded.circuit().measurements(),
                    "records: {ctx}"
                );
                let flags = &recorded.stall_flags()[before..];
                assert_eq!(unstored.stall_flags(), flags, "stall flags: {ctx}");
                stalled += flags.iter().filter(|&&f| f).count();
                let shifted: Vec<_> = unstored
                    .circuit()
                    .spans()
                    .iter()
                    .map(|s| (s.op_start + before, s.op_end + before, s.last_base_us.to_bits()))
                    .collect();
                let spans: Vec<_> = recorded
                    .circuit()
                    .spans()
                    .iter()
                    .filter(|s| s.op_start >= before)
                    .map(|s| (s.op_start, s.op_end, s.last_base_us.to_bits()))
                    .collect();
                assert_eq!(shifted, spans, "spans: {ctx}");
                assert_eq!(unstored.now_us().to_bits(), recorded.now_us().to_bits(), "{ctx}");
            }
        }
    }
    assert!(stalled > 0, "the contended profile must stall inside some instruction");
}

/// [`compile_fixture`] with the input preparation inside
/// [`HardwareModel::unrecorded`], as [`Compiler::compile`] prepares it.
fn compile_unrecorded(
    instruction: Instruction,
    d: usize,
    dt: usize,
    spec: &HardwareSpec,
) -> HardwareModel {
    if instruction.tiles() == 2 {
        let mut fixture = match instruction {
            Instruction::MeasureZZ => {
                TwoTiles::new_horizontal_with_spec(d, d, dt, spec.clone()).unwrap()
            }
            _ => TwoTiles::with_spec(d, d, dt, spec.clone()).unwrap(),
        };
        fixture.hw.set_round_templating(true);
        fixture.hw.unrecorded(|hw| {
            Fiducial::Zero.prepare(hw, &mut fixture.upper).unwrap();
            Fiducial::Zero.prepare(hw, &mut fixture.lower).unwrap();
        });
        assert!(fixture.hw.circuit().is_empty(), "nothing stored before the instruction");
        apply_two_tile_instruction(
            &mut fixture.hw,
            instruction,
            &mut fixture.upper,
            &mut fixture.lower,
        )
        .unwrap();
        fixture.hw
    } else {
        let mut fixture = SingleTile::with_spec(d, d, dt, spec.clone()).unwrap();
        fixture.hw.set_round_templating(true);
        if !matches!(
            instruction,
            Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT
        ) {
            fixture.hw.unrecorded(|hw| Fiducial::Zero.prepare(hw, &mut fixture.patch).unwrap());
        }
        assert!(fixture.hw.circuit().is_empty(), "nothing stored before the instruction");
        apply_instruction(&mut fixture.hw, instruction, &mut fixture.patch).unwrap();
        fixture.hw
    }
}

/// Patch extension replicates its rounds too (the Table 3 path).
#[test]
fn extension_rounds_replicate_equivalently() {
    let build = |templated: bool| {
        let mut fixture = TwoTiles::new(2, 2, 4).unwrap();
        fixture.hw.set_round_templating(templated);
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper).unwrap();
        let (extended, rounds) = tiscc::core::surgery::extend_down(
            &mut fixture.hw,
            &mut fixture.upper,
            &mut fixture.lower,
        )
        .unwrap();
        assert!(extended.is_initialized());
        (fixture.hw, rounds)
    };
    let (reference, ref_rounds) = build(false);
    let (templated, rounds) = build(true);
    assert!(templated.circuit().is_periodic(), "dt=4 extension must replicate");
    assert_eq!(templated.circuit().materialize().ops(), reference.circuit().ops());
    assert_eq!(rounds.len(), ref_rounds.len());
    for (a, b) in rounds.iter().zip(&ref_rounds) {
        assert_eq!(a.measurements, b.measurements, "round records must agree");
    }
}

/// The measured round count is affine in `dt` on every profile: each
/// extra round of error correction adds the same ops and measurement
/// records, while the accounting and footprint do not depend on `dt` at
/// all. Compiled rows served from the memo are the rows a fresh compile
/// produces.
#[test]
fn rows_scale_affinely_in_dt_on_every_profile() {
    let compiler = Compiler::new();
    for spec in HardwareSpec::presets() {
        for instruction in [Instruction::Idle, Instruction::PrepareZ, Instruction::MeasureZZ] {
            for d in [2usize, 3] {
                let rows: Vec<_> = [1usize, 2, 3, 5]
                    .iter()
                    .map(|&dt| {
                        let request =
                            CompileRequest::new(instruction, d, d, dt).with_spec(spec.clone());
                        let row = compiler.compile_row(&request).unwrap();
                        assert_eq!(row, compiler.compile(&request).unwrap().row());
                        row
                    })
                    .collect();
                let ctx = format!("{instruction:?} d={d} profile={}", spec.name);
                for row in &rows[1..] {
                    assert_eq!(row.logical_time_steps, rows[0].logical_time_steps, "{ctx}");
                    assert_eq!(row.tiles, rows[0].tiles, "{ctx}");
                    assert_eq!(row.resources.trapping_zones, rows[0].resources.trapping_zones);
                    assert_eq!(
                        row.resources.area_m2.to_bits(),
                        rows[0].resources.area_m2.to_bits()
                    );
                }
                let [_, r2, r3, r5] = &rows[..] else { unreachable!() };
                let ops = |r: &ResourceRow| r.resources.total_ops;
                let meas = |r: &ResourceRow| r.resources.measurements;
                assert_eq!(ops(r5) - ops(r3), 2 * (ops(r3) - ops(r2)), "{ctx}");
                assert_eq!(meas(r5) - meas(r3), 2 * (meas(r3) - meas(r2)), "{ctx}");
                assert!(r2.resources.execution_time_s <= r5.resources.execution_time_s, "{ctx}");
            }
        }
    }
    assert_eq!(compiler.cache().misses(), 3 * 3 * 2 * 4, "every configuration compiled once");
}

/// With the scheduling-realism knobs on (junction recovery windows, SIMD
/// batching, and both together) the memoized row and its scheduling
/// statistics are exactly those of a fresh compile, at every `dt`.
#[test]
fn batched_and_contended_rows_keep_their_stats() {
    let instructions = [Instruction::Idle, Instruction::PrepareZ, Instruction::MeasureZZ];
    for (base, simd_width) in [
        (HardwareSpec::slow_junction(), 1),
        (HardwareSpec::h1(), 2),
        (HardwareSpec::slow_junction(), 2),
    ] {
        let compiler = Compiler::new();
        let mut spec = base.clone();
        spec.simd_width = simd_width;
        let mut batched = 0usize;
        for instruction in instructions {
            for dt in [1usize, 2, 3, 5] {
                let request = CompileRequest::new(instruction, 3, 3, dt).with_spec(spec.clone());
                let ctx = format!("{instruction:?} dt={dt} {} width={simd_width}", base.name);
                let row = compiler.compile_row(&request).unwrap();
                let fresh = compiler.compile(&request).unwrap();
                assert_eq!(row, fresh.row(), "{ctx}");
                assert_eq!(row.stats, fresh.stats, "{ctx}");
                // A memo hit returns the row its compile stored, stats too.
                assert_eq!(compiler.compile_row(&request).unwrap().stats, fresh.stats, "{ctx}");
                batched += fresh.stats.batched_pulses;
            }
        }
        assert_eq!(batched > 0, simd_width > 1, "{} width={simd_width}", base.name);
    }
}

/// Asserts two periodic circuits are the same bit for bit: ops (times and
/// durations compared as bits), template predecessors and timing, repeat
/// count, rebase time and every measurement record.
fn assert_same_rounds(a: &CompiledRounds, b: &CompiledRounds, ctx: &str) {
    let same_ops = |x: &[TimedOp], y: &[TimedOp], part: &str| {
        assert_eq!(x, y, "{part}: {ctx}");
        for (p, q) in x.iter().zip(y) {
            assert_eq!(p.start_us.to_bits(), q.start_us.to_bits(), "{part}: {ctx}");
            assert_eq!(p.duration_us.to_bits(), q.duration_us.to_bits(), "{part}: {ctx}");
        }
    };
    same_ops(a.prologue.ops(), b.prologue.ops(), "prologue");
    same_ops(&a.template.ops, &b.template.ops, "template");
    same_ops(a.epilogue.ops(), b.epilogue.ops(), "epilogue");
    assert_eq!(a.template.preds, b.template.preds, "preds: {ctx}");
    assert_eq!(a.template.base_us.to_bits(), b.template.base_us.to_bits(), "{ctx}");
    assert_eq!(a.template.last_base_us.to_bits(), b.template.last_base_us.to_bits(), "{ctx}");
    assert_eq!(a.template.recovery_us.to_bits(), b.template.recovery_us.to_bits(), "{ctx}");
    assert_eq!(a.template.meas_per_round, b.template.meas_per_round, "{ctx}");
    assert_eq!(a.repeats, b.repeats, "repeats: {ctx}");
    assert_eq!(a.rebase_us.to_bits(), b.rebase_us.to_bits(), "rebase: {ctx}");
    assert_eq!(a.measurements, b.measurements, "measurements: {ctx}");
    for (p, q) in a.measurements.iter().zip(&b.measurements) {
        assert_eq!(p.start_us.to_bits(), q.start_us.to_bits(), "measurements: {ctx}");
    }
}

/// The compiler moves an instruction's ops out of its consumed fixture
/// model ([`CompiledRounds::from_circuit`]) instead of cloning them: the
/// owning extraction must equal the borrowing [`CompiledRounds::extract`]
/// bit for bit, on the fixture itself and through [`Compiler::compile`]
/// (whose batch pass then runs on the moved rounds), for every instruction,
/// including the multi-span fallback.
#[test]
fn owned_extraction_matches_borrowed_extraction() {
    let mut contended = HardwareSpec::slow_junction();
    contended.simd_width = 2;
    let mut periodic = 0usize;
    for spec in [HardwareSpec::h1(), HardwareSpec::projected(), contended] {
        for &instruction in Instruction::all() {
            for d in [3usize, 5] {
                let ctx = format!("{instruction:?} d={d} {} width={}", spec.name, spec.simd_width);
                let (hw, _, before) = compile_fixture(instruction, d, d, &spec, true);
                let borrowed = CompiledRounds::extract(hw.circuit(), before);
                let owned = CompiledRounds::from_circuit(hw.into_circuit(), before);
                assert_same_rounds(&owned, &borrowed, &ctx);
                periodic += usize::from(borrowed.repeats > 1);

                let request = CompileRequest::new(instruction, d, d, d).with_spec(spec.clone());
                let artifact = Compiler::new().compile(&request).unwrap();
                let expected =
                    if spec.simd_width > 1 { batch_rounds(&borrowed, &spec).0 } else { borrowed };
                assert_same_rounds(&artifact.rounds, &expected, &format!("compile {ctx}"));
            }
        }
    }

    assert!(periodic > 0, "some ranges must carry a replicated round template");

    // Multi-span fallback: three replicated one-ion rounds, the first one
    // before the extracted range, so both paths flatten and shift.
    let mut hw = HardwareModel::new(1, 1);
    let q = hw.place_qubit(tiscc::grid::QSite::new(0, 1)).unwrap();
    let round = |hw: &mut HardwareModel, r: u32, replicate: bool| {
        if replicate {
            hw.begin_round_capture();
        }
        hw.prepare_z(q).unwrap();
        let label = Label::Syndrome { round: RoundLabel::Idle(r), x_type: false, row: 0, col: 0 };
        hw.measure_z(q, label).unwrap();
        hw.barrier();
        if replicate {
            hw.replicate_captured_round(2).expect("one-ion rounds replicate");
        }
    };
    round(&mut hw, 0, false);
    round(&mut hw, 1, true);
    let before = hw.circuit().len();
    round(&mut hw, 4, true);
    round(&mut hw, 7, false);
    round(&mut hw, 8, true);
    assert_eq!(hw.circuit().spans().len(), 3);
    // Five rounds of two ops; three of them replicate twice.
    assert_eq!(hw.circuit().logical_len(), 22);
    for (start, logical_ops) in [(0, 22), (before, 14)] {
        let borrowed = CompiledRounds::extract(hw.circuit(), start);
        let owned = CompiledRounds::from_circuit(hw.circuit().clone(), start);
        assert_same_rounds(&owned, &borrowed, &format!("multi-span from op {start}"));
        assert_eq!(borrowed.repeats, 0, "a multi-span range is flattened");
        assert_eq!(borrowed.total_ops(), logical_ops);
    }
}

/// Whole-program estimates of the teleport circuit on both floorplans: the
/// selected distance, error and footprint are profile-independent, the
/// faster profile finishes sooner, and a warm re-estimate is bit-identical
/// without compiling anything.
#[test]
fn teleport_estimates_are_consistent_across_layouts() {
    let text = std::fs::read_to_string("examples/programs/teleport.tql").unwrap();
    let program = LogicalProgram::parse("teleport", &text).unwrap();
    let compiler = Compiler::new();
    for layout in ["lane", "checkerboard"] {
        let spec = ProgramEstimateSpec {
            layout: LayoutSpec::by_name(layout).unwrap(),
            ..ProgramEstimateSpec::new(1e-3)
                .with_profiles(vec![HardwareSpec::h1(), HardwareSpec::projected()])
        };
        let estimate = estimate_program(&program, &spec, &compiler).unwrap();
        let [h1, projected] = &estimate.rows[..] else { panic!("expected two rows") };
        let ctx = format!("layout={layout}");
        assert_eq!((h1.profile.as_str(), projected.profile.as_str()), ("h1", "projected"));
        assert_eq!(h1.distance, projected.distance, "{ctx}");
        assert_eq!(h1.distance % 2, 1, "{ctx}");
        assert!(h1.achieved_error <= spec.budget, "{ctx}");
        assert_eq!(h1.achieved_error.to_bits(), projected.achieved_error.to_bits(), "{ctx}");
        assert_eq!(h1.trapping_zones, projected.trapping_zones, "{ctx}");
        assert_eq!(h1.qubit_rounds, projected.qubit_rounds, "{ctx}");
        assert_eq!(h1.area_m2.to_bits(), projected.area_m2.to_bits(), "{ctx}");
        assert!(projected.duration_s < h1.duration_s, "{ctx}");

        let misses = compiler.cache().misses();
        let warm = estimate_program(&program, &spec, &compiler).unwrap();
        assert_eq!(warm, estimate, "{ctx}");
        assert_eq!(compiler.cache().misses(), misses, "warm estimate compiles nothing: {ctx}");
    }
}

/// Budget monotonicity: tightening the budget never shrinks the selected
/// (odd) distance, and every estimate meets the budget it was asked for.
#[test]
fn estimates_respect_budget_monotonicity() {
    let program =
        LogicalProgram::parse("bell", "qubit a b\nprep_x a\nprep_z b\nmerge_zz a b\n").unwrap();
    let compiler = Compiler::new();
    let mut last_distance = 0usize;
    for budget in [1e-2, 1e-3, 1e-4] {
        let estimate =
            estimate_program(&program, &ProgramEstimateSpec::new(budget), &compiler).unwrap();
        let row = &estimate.rows[0];
        assert_eq!(row.distance % 2, 1, "selected distances are odd");
        assert!(row.achieved_error <= budget, "budget {budget:e} missed");
        assert!(row.distance >= last_distance, "tighter budget shrank the distance");
        last_distance = row.distance;
    }
}

/// d = 19 single-instruction smoke test: the template path stays under a
/// generous wall-clock budget even in debug builds, and materializes only
/// a small fraction of the logical operations.
#[test]
fn d19_compile_stays_within_budget() {
    let started = Instant::now();
    let mut fixture = SingleTile::new(19, 19, 19).unwrap();
    fixture.hw.set_round_templating(true);
    Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.patch).unwrap();
    let before = fixture.hw.circuit().len();
    apply_instruction(&mut fixture.hw, Instruction::Idle, &mut fixture.patch).unwrap();
    let elapsed = started.elapsed();

    let rounds = CompiledRounds::extract(fixture.hw.circuit(), before);
    // Round 0 (not barrier-aligned) is the prologue; rounds 1..19 are the
    // template's 18 occurrences.
    assert_eq!(rounds.repeats, 18, "rounds 1..19 are template occurrences");
    let materialized_ops = rounds.prologue.len() + rounds.template.len() + rounds.epilogue.len();
    assert!(
        materialized_ops * 4 <= rounds.total_ops(),
        "at dt=19 the template path materializes a small fraction of the ops \
         ({materialized_ops} of {})",
        rounds.total_ops()
    );
    assert_eq!(rounds.measurements.len(), 19 * (19 * 19 - 1), "one record per cell per round");
    // Generous budget: the materialized path takes minutes in debug builds,
    // the template path a few seconds.
    assert!(
        elapsed.as_secs() < 90,
        "d=19 idle compile took {elapsed:?}; the round-template path has regressed"
    );
}
