//! Integration tests for the algorithm-level program estimator: the
//! bundled `.tql` programs stay in sync with their canonical builders, the
//! scheduler packs independent instructions into shared parallel steps,
//! error-budget distance selection is monotone in the budget, pricing
//! logical counts matches a walk over every instruction, and parse errors
//! quote only a short prefix of their input.

use std::path::PathBuf;

use proptest::prelude::*;

use tiscc::core::instruction::Instruction;
use tiscc::estimator::compiler::CompileStats;
use tiscc::estimator::sweep::{run_sweep, SweepSpec};
use tiscc::estimator::tables::ResourceRow;
use tiscc::estimator::{
    estimate_program, CompileRequest, Compiler, LogicalCounts, ProgramEstimateSpec,
};
use tiscc::frontier::{handle_line, ServeState};
use tiscc::hw::HardwareSpec;
use tiscc::program::{
    examples, schedule, ErrorModel, LayoutSpec, LogicalProgram, Placement, Schedule,
};
use tiscc::telemetry::{json_string, Telemetry};
use tiscc::workloads::{generate, Family, GenSpec};

fn bundled(stem: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/programs")
        .join(format!("{stem}.tql"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every bundled `.tql` file parses to exactly the canonical program of
/// the same name (same qubits, same instruction stream).
#[test]
fn bundled_tql_files_match_canonical_programs() {
    for (stem, canonical) in examples::all() {
        let parsed = LogicalProgram::parse(stem, &bundled(stem)).unwrap();
        assert_eq!(parsed.qubit_count(), canonical.qubit_count(), "{stem}");
        assert_eq!(parsed.len(), canonical.len(), "{stem}");
        for (i, (a, b)) in parsed.instructions().iter().zip(canonical.instructions()).enumerate() {
            assert_eq!(a.instruction, b.instruction, "{stem} instruction {i}");
            assert_eq!(a.qubits, b.qubits, "{stem} instruction {i}");
        }
    }
}

/// Provably independent instructions (disjoint tiles, disjoint lanes)
/// land in the same logical time step.
#[test]
fn scheduler_packs_independent_instructions_into_one_step() {
    let program = examples::adder_t_layer(4);
    let placement = Placement::allocate(&program);
    let sched = schedule(&program, &placement).unwrap();
    // 4 preparations + 4 magic-state injections on 8 disjoint tiles: one
    // step. 4 direct ZZ merges on disjoint adjacent pairs: one step.
    assert_eq!(sched.steps[0].instructions.len(), 8);
    assert_eq!(sched.steps[1].instructions.len(), 4);
    assert_eq!(sched.depth(), 3);
    // A serial chain on a single qubit cannot pack at all.
    let mut serial = LogicalProgram::new("serial");
    let q = serial.add_qubit("q").unwrap();
    serial.prepare_z(q).unwrap();
    for _ in 0..5 {
        serial.idle(q).unwrap();
    }
    let sp = Placement::allocate(&serial);
    assert_eq!(schedule(&serial, &sp).unwrap().depth(), 6);
}

/// The default single-lane floorplan reproduces the original allocator's
/// schedule exactly, so the d = 19 teleport acceptance estimate is
/// unchanged: same tile grid, same patch-steps, same selected distance.
#[test]
fn default_layout_keeps_the_teleport_budget_estimate_pinned() {
    let program = LogicalProgram::parse("teleport", &bundled("teleport")).unwrap();
    let placement = Placement::allocate(&program);
    assert_eq!((placement.tile_rows(), placement.tile_cols()), (2, 3));
    assert_eq!(placement.total_tiles(), 6);
    let sched = schedule(&program, &placement).unwrap();
    assert_eq!(sched.depth(), 4);
    assert_eq!(sched.logical_time_steps, 3);
    assert_eq!(sched.max_parallelism(), 3);
    assert_eq!(sched.routing_stalls, 0);
    assert_eq!(sched.patch_steps(placement.total_tiles()), 18);
    // The 1e-9 budget still selects d = 19 over those 18 patch-steps
    // (pinning the full acceptance command without compiling at d = 19).
    let d = ErrorModel::default().select_distance(18, 1e-9, 49).unwrap();
    assert_eq!(d, 19);
}

/// An end-to-end estimate over the bundled teleportation program under
/// two profiles (the CLI acceptance path, at a loose budget so the
/// selected distance stays small).
#[test]
fn teleport_estimate_reports_two_profiles() {
    let program = LogicalProgram::parse("teleport", &bundled("teleport")).unwrap();
    let spec = ProgramEstimateSpec::new(1e-3)
        .with_profiles(vec![HardwareSpec::h1(), HardwareSpec::projected()]);
    let estimate = estimate_program(&program, &spec, &Compiler::new()).unwrap();
    assert_eq!(estimate.rows.len(), 2);
    assert!(estimate.rows.iter().all(|r| r.achieved_error <= 1e-3));
    assert!(estimate.rows[1].duration_s < estimate.rows[0].duration_s);
    let report = estimate.render();
    for needle in ["teleport", "h1", "projected", "qubit-rounds"] {
        assert!(report.contains(needle), "report missing {needle}:\n{report}");
    }
}

/// The per-instruction walk `LogicalCounts::price` replaced: every step
/// looks up the row of each member instruction and costs the longest, and
/// the stats add up one row per instruction.
fn walk_price<'a>(
    program: &LogicalProgram,
    sched: &Schedule,
    row_of: impl Fn(Instruction) -> &'a ResourceRow,
) -> (f64, CompileStats) {
    let duration_s = sched
        .steps
        .iter()
        .map(|step| {
            step.instructions
                .iter()
                .map(|&i| row_of(program.instructions()[i].instruction).resources.execution_time_s)
                .fold(0.0, f64::max)
        })
        .sum();
    let stats = program.instructions().iter().fold(CompileStats::default(), |sum, inst| {
        let stats = row_of(inst.instruction).stats;
        CompileStats {
            junction_stalls: sum.junction_stalls + stats.junction_stalls,
            batched_pulses: sum.batched_pulses + stats.batched_pulses,
        }
    });
    (duration_s, stats)
}

/// Pricing logical counts is bit-identical to the per-instruction walk
/// over the workload zoo × {lane, row, checkerboard} × every profile at
/// SIMD width 1 and 2.
#[test]
fn pricing_counts_matches_the_per_instruction_walk() {
    let compiler = Compiler::new();
    let mut stalled = false;
    for &family in Family::all() {
        let program = generate(&GenSpec::new(family).with_n(3).with_seed(5)).unwrap();
        for layout in ["lane", "row", "checkerboard"] {
            let layout = LayoutSpec::by_name(layout).unwrap();
            let placement = Placement::allocate_with(&program, &layout).unwrap();
            let span = Telemetry::off().root("counts");
            let counts = LogicalCounts::new(&program, placement, &span).unwrap();
            let sched = schedule(&program, &counts.placement).unwrap();
            assert_eq!(counts.schedule, sched);
            for base in HardwareSpec::presets() {
                for simd_width in [1, 2] {
                    let profile = HardwareSpec { simd_width, ..base.clone() };
                    let rows: Vec<ResourceRow> = counts
                        .kinds
                        .iter()
                        .map(|&kind| {
                            let request =
                                CompileRequest::new(kind, 3, 3, 3).with_spec(profile.clone());
                            compiler.compile_row(&request).unwrap()
                        })
                        .collect();
                    let row_of =
                        |kind| &rows[counts.kinds.iter().position(|&k| k == kind).unwrap()];
                    let (duration_s, stats) = counts.price(&rows);
                    let (walked_s, walked) = walk_price(&program, &sched, row_of);
                    let ctx =
                        format!("{} {layout:?} {} width {simd_width}", family.name(), profile.name);
                    assert_eq!(duration_s.to_bits(), walked_s.to_bits(), "{ctx}");
                    assert_eq!(stats, walked, "{ctx}");
                    stalled |= stats.junction_stalls > 0;
                }
            }
        }
    }
    assert!(stalled, "some zoo program stalls under slow_junction");
}

/// A compiler whose memo a sweep warmed reports the same estimate rows as
/// a fresh one, scheduling stats included: the rows carry their stats.
#[test]
fn sweep_warmed_and_fresh_compilers_give_equal_estimates() {
    let program = examples::ripple_adder();
    let spec = ProgramEstimateSpec::new(1e-3).with_profiles(vec![HardwareSpec::slow_junction()]);
    let fresh = estimate_program(&program, &spec, &Compiler::new()).unwrap();
    let d = fresh.rows[0].distance;
    assert_eq!(d, 7);
    assert_eq!(fresh.rows[0].junction_stalls, 3864);

    let warmed = Compiler::new();
    let sweep = SweepSpec::square(Instruction::all().to_vec(), &[d])
        .with_profiles(vec![HardwareSpec::slow_junction()]);
    run_sweep(&sweep, warmed.cache()).unwrap();
    let misses = warmed.cache().misses();
    let estimate = estimate_program(&program, &spec, &warmed).unwrap();
    assert_eq!(warmed.cache().misses(), misses, "every row came from the sweep");
    assert_eq!(estimate.rows, fresh.rows);
    assert_eq!(estimate.render(), fresh.render());
}

/// A parse error quotes at most a short, escaped prefix of the offending
/// token, so reading a host file as a program does not echo the file; the
/// serve protocol forwards the same short message.
#[test]
fn parse_errors_quote_a_short_escaped_prefix_of_the_token() {
    let token = format!("SECRET=\u{1b}[0m{}", "x".repeat(4096));
    let text = format!("{token} more\n");
    let err = LogicalProgram::parse("leak", &text).unwrap_err().to_string();
    assert!(err.len() < 200, "{err}");
    assert!(err.starts_with("line 1: unknown instruction 'SECRET=\\u{1b}[0mxxx"), "{err}");
    assert!(!err.contains(&"x".repeat(64)), "{err}");
    assert!(!err.contains('\u{1b}'), "control characters are escaped: {err}");

    let dir = std::env::temp_dir().join(format!("tiscc-parse-echo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("leak.tql");
    std::fs::write(&path, &text).unwrap();
    let request =
        format!("{{\"op\":\"estimate\",\"program\":{}}}", json_string(path.to_str().unwrap()));
    let reply = handle_line(&request, &ServeState::new(None));
    assert!(reply.contains("\"kind\":\"bad_request\""), "{reply}");
    assert!(reply.len() < 400 + path.to_str().unwrap().len(), "{reply}");
    assert!(!reply.contains(&"x".repeat(64)), "{reply}");
    std::fs::remove_dir_all(&dir).unwrap();

    // Short tokens are quoted whole, as before.
    let err = LogicalProgram::parse("p", "qubit a\nprep_z b\n").unwrap_err();
    assert_eq!(err.message, "unknown qubit 'b' (declare it with 'qubit b')");
    let err = LogicalProgram::parse("p", "qubit a a\n").unwrap_err();
    assert_eq!(err.message, "qubit 'a' declared twice");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Distance selection is monotone in the budget: tightening the budget
    /// can only keep or grow the selected distance, and the selected
    /// distance always meets the budget it was selected for.
    #[test]
    fn distance_selection_is_monotone_in_the_budget(
        exp_loose in 1u32..10,
        exp_delta in 0u32..8,
        patch_steps in 1u64..1_000_000,
    ) {
        let model = ErrorModel::default();
        let loose = 10f64.powi(-(exp_loose as i32));
        let tight = 10f64.powi(-((exp_loose + exp_delta) as i32));
        let d_loose = model.select_distance(patch_steps, loose, 99).unwrap();
        let d_tight = model.select_distance(patch_steps, tight, 99).unwrap();
        prop_assert!(d_tight >= d_loose, "tighter budget selected a smaller distance");
        prop_assert!(model.program_error(d_loose, patch_steps) <= loose);
        prop_assert!(model.program_error(d_tight, patch_steps) <= tight);
        prop_assert_eq!(d_loose % 2, 1, "selection only returns odd distances");
        prop_assert_eq!(d_tight % 2, 1, "selection only returns odd distances");
        // Minimality: the next odd distance down misses the budget (d=3 is
        // the floor; even distances are not modeled by the ansatz).
        if d_loose > 3 {
            prop_assert!(model.program_error(d_loose - 2, patch_steps) > loose);
        }
    }

    /// More patch-steps can never shrink the selected distance.
    #[test]
    fn distance_selection_is_monotone_in_patch_steps(
        small in 1u64..10_000,
        factor in 1u64..10_000,
    ) {
        let model = ErrorModel::default();
        let d_small = model.select_distance(small, 1e-9, 99).unwrap();
        let d_large = model.select_distance(small.saturating_mul(factor), 1e-9, 99).unwrap();
        prop_assert!(d_large >= d_small);
    }
}
