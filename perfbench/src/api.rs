//! Every call the benchmark makes into the TISCC-rs crates.
//!
//! Only plain entry points are used: `LogicalProgram::parse`,
//! `Placement::{allocate_with, layout}`, `schedule`,
//! `ErrorModel::select_distance`, `Compiler::{new, compile, compile_row,
//! cache}`, `estimate_program`, `run_sweep`, `run_frontier`, `DiskCache`,
//! `ServeState` and `handle_line`, plus the workload generators and the
//! checkers the verification step needs. Keeping them in one module means
//! an API change touches one file of the benchmark.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use rayon::prelude::*;

pub use tiscc_core::instruction::Instruction;
use tiscc_core::instruction::{apply_instruction, apply_two_tile_instruction};
use tiscc_estimator::compiler::CompileStats;
pub use tiscc_estimator::program::{ProfileEstimate, ProgramEstimate, ProgramEstimateSpec};
pub use tiscc_estimator::sweep::SweepResult;
use tiscc_estimator::sweep::SweepSpec;
use tiscc_estimator::verify::{Fiducial, SingleTile, TwoTiles};
pub use tiscc_estimator::{CompileRequest, Compiler};
pub use tiscc_frontier::{DiskCache, FrontierReport, FrontierSpec, ServeState};
pub use tiscc_hw::HardwareSpec;
use tiscc_hw::{validity, CompiledRounds};
pub use tiscc_program::{ErrorModel, LayoutSpec, LogicalProgram, Placement, Schedule};
pub use tiscc_workloads::{Family, GenSpec};

/// Generates a workload program.
pub fn generate(spec: &GenSpec) -> LogicalProgram {
    tiscc_workloads::generate(spec).expect("benchmark generator specs are valid")
}

/// The closed-form instruction count of a generator spec.
pub fn instruction_count(spec: &GenSpec) -> usize {
    tiscc_workloads::instruction_count(spec).expect("benchmark generator specs are valid")
}

/// Renders a program as `.tql` text.
pub fn to_tql(program: &LogicalProgram) -> String {
    program.to_tql()
}

/// The canonical teleportation program.
pub fn teleportation() -> LogicalProgram {
    tiscc_program::examples::teleportation()
}

/// The canonical two-bit ripple-carry adder program.
pub fn ripple_adder() -> LogicalProgram {
    tiscc_program::examples::ripple_adder()
}

/// A program's distinct instruction kinds in first-appearance order: the
/// compile jobs an estimate needs per profile and distance.
pub fn distinct_kinds(program: &LogicalProgram) -> Vec<Instruction> {
    let mut kinds: Vec<Instruction> = Vec::new();
    for pi in program.instructions() {
        if !kinds.contains(&pi.instruction) {
            kinds.push(pi.instruction);
        }
    }
    kinds
}

/// Parses `.tql` text.
pub fn parse(name: &str, text: &str) -> Result<LogicalProgram, String> {
    LogicalProgram::parse(name, text).map_err(|e| e.to_string())
}

/// The library's one-call program estimate.
pub fn estimate(
    program: &LogicalProgram,
    spec: &ProgramEstimateSpec,
    compiler: &Compiler,
) -> Result<ProgramEstimate, String> {
    tiscc_estimator::program::estimate_program(program, spec, compiler).map_err(|e| e.to_string())
}

/// Places a program's qubits on a tile grid.
pub fn place(program: &LogicalProgram, layout: &LayoutSpec) -> Result<Placement, String> {
    Placement::allocate_with(program, layout).map_err(|e| e.to_string())
}

/// Schedules a placed program into parallel steps.
pub fn schedule(program: &LogicalProgram, placement: &Placement) -> Result<Schedule, String> {
    tiscc_program::schedule(program, placement).map_err(|e| e.to_string())
}

/// Selects the code distance for a budget; returns `(d, achieved error)`.
pub fn select_distance(
    model: &ErrorModel,
    patch_steps: u64,
    budget: f64,
    d_max: usize,
) -> Result<(usize, f64), String> {
    let d = model.select_distance(patch_steps, budget, d_max).map_err(|e| e.to_string())?;
    Ok((d, model.program_error(d, patch_steps)))
}

/// Trapping zones and area (m²) of the machine hosting a placement at
/// distance `d`.
pub fn footprint(placement: &Placement, d: usize) -> (usize, f64) {
    let machine = placement.layout(d);
    (machine.trapping_zone_count(), machine.area_m2())
}

/// Runs a frontier search with no persistent cache.
pub fn frontier(
    program: &LogicalProgram,
    spec: &FrontierSpec,
    compiler: &Compiler,
) -> Result<FrontierReport, String> {
    tiscc_frontier::run_frontier(program, spec, compiler, None).map_err(|e| e.to_string())
}

/// The frontier's full matrix as CSV (the report digest input).
pub fn frontier_csv(report: &FrontierReport) -> String {
    tiscc_frontier::matrix_to_csv(report)
}

/// Pareto flags of `(qubits, duration)` points, and the brute-force
/// oracle's flags for the same points.
pub fn pareto(points: &[(usize, f64)]) -> Vec<bool> {
    tiscc_frontier::pareto_flags(points)
}

/// The brute-force Pareto oracle.
pub fn pareto_oracle(points: &[(usize, f64)]) -> Vec<bool> {
    tiscc_frontier::pareto_flags_bruteforce(points)
}

/// The paper's Table 1 sweep at every square distance `2..=dmax`.
pub fn sweep_paper(dmax: usize, compiler: &Compiler) -> Result<SweepResult, String> {
    tiscc_estimator::run_sweep(&SweepSpec::paper(dmax), compiler.cache()).map_err(|e| e.to_string())
}

/// Opens (creating) a persistent row cache under `dir`.
pub fn open_disk(dir: &Path) -> DiskCache {
    DiskCache::open(dir).expect("the benchmark's scratch directory is writable")
}

/// Answers one serve request line.
pub fn handle_line(line: &str, state: &ServeState) -> String {
    tiscc_frontier::handle_line(line, state)
}

/// Parses a serve request line the way the server does; returns the field
/// count.
pub fn parse_request(line: &str) -> Result<usize, String> {
    tiscc_frontier::serve::parse_flat_json(line).map(|fields| fields.len())
}

/// One compile job of the decomposed estimate pipeline.
pub struct Job {
    /// Execution time of the instruction under its profile (s).
    pub time_s: f64,
    /// Scheduling-pass observables of the instruction.
    pub stats: CompileStats,
    /// Native ops compiled, when this job compiled (a memo miss).
    pub compiled_ops: Option<usize>,
    /// Wall time of the job (ms).
    pub ms: f64,
}

/// A compiler plus the scheduling-pass observables of every row it
/// compiled, so memo hits can report them too.
#[derive(Default)]
pub struct Memo {
    /// The memoizing compiler.
    pub compiler: Compiler,
    stats: Mutex<HashMap<CompileRequestKey, CompileStats>>,
}

type CompileRequestKey = tiscc_estimator::sweep::SweepKey;

impl Memo {
    /// Resolves every request through the memo, fanning misses out over
    /// the worker threads.
    pub fn resolve(&self, requests: Vec<CompileRequest>) -> Result<Vec<Job>, String> {
        requests.into_par_iter().map(|request| self.job(&request)).collect()
    }

    fn job(&self, request: &CompileRequest) -> Result<Job, String> {
        let started = std::time::Instant::now();
        let key = request.key();
        let cache = self.compiler.cache();
        let (time_s, stats, compiled_ops) = match cache.get(&key) {
            Some(row) => {
                let known = self.stats.lock().expect("stats map poisoned").get(&key).copied();
                let stats = match known {
                    Some(stats) => stats,
                    // A row the one-call estimate compiled: recompile once
                    // for its scheduling-pass observables.
                    None => {
                        let stats =
                            self.compiler.compile(request).map_err(|e| e.to_string())?.stats;
                        self.stats.lock().expect("stats map poisoned").insert(key, stats);
                        stats
                    }
                };
                (row.resources.execution_time_s, stats, None)
            }
            None => {
                let artifact = self.compiler.compile(request).map_err(|e| e.to_string())?;
                self.stats.lock().expect("stats map poisoned").insert(key, artifact.stats);
                let ops = artifact.resources.total_ops;
                cache.insert(key, artifact.row());
                (artifact.resources.execution_time_s, artifact.stats, Some(ops))
            }
        };
        Ok(Job { time_s, stats, compiled_ops, ms: started.elapsed().as_secs_f64() * 1e3 })
    }
}

/// Native ops of a row the compiler holds for `request`, if any.
pub fn memo_ops(compiler: &Compiler, request: &CompileRequest) -> Option<usize> {
    compiler.cache().peek(&request.key()).map(|row| row.resources.total_ops)
}

/// Recompiles `request` on a fresh fixture, exactly as the compiler does,
/// and replays the whole (unbatched) op stream through the independent
/// validity checker at the profile's junction capacity. Returns the
/// native-op count of the instruction's own sub-range after the SIMD batch
/// pass, which must equal the compiled row's.
pub fn replay_clean(request: &CompileRequest) -> Result<usize, String> {
    let CompileRequest { instruction, dx, dz, dt, ref spec } = *request;
    let fail = |e: tiscc_core::CoreError| e.to_string();
    let (hw, snapshot, before) = if instruction.tiles() == 2 {
        let mut fixture = match instruction {
            Instruction::MeasureZZ => TwoTiles::new_horizontal_with_spec(dx, dz, dt, spec.clone()),
            _ => TwoTiles::with_spec(dx, dz, dt, spec.clone()),
        }
        .map_err(fail)?;
        fixture.hw.set_round_templating(true);
        let snapshot = fixture.hw.grid().snapshot();
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper).map_err(fail)?;
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.lower).map_err(fail)?;
        let before = fixture.hw.circuit().len();
        apply_two_tile_instruction(
            &mut fixture.hw,
            instruction,
            &mut fixture.upper,
            &mut fixture.lower,
        )
        .map_err(fail)?;
        (fixture.hw, snapshot, before)
    } else {
        let mut fixture = SingleTile::with_spec(dx, dz, dt, spec.clone()).map_err(fail)?;
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
            Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.patch).map_err(fail)?;
        }
        let before = fixture.hw.circuit().len();
        apply_instruction(&mut fixture.hw, instruction, &mut fixture.patch).map_err(fail)?;
        (fixture.hw, snapshot, before)
    };
    let layout = hw.grid().layout().clone();
    validity::check_stream_with_capacity(&layout, &snapshot, hw.circuit(), spec.junction_capacity)
        .map_err(|e| e.to_string())?;
    let rounds = CompiledRounds::extract(hw.circuit(), before);
    Ok(tiscc_hw::batch_rounds(&rounds, spec).0.total_ops())
}
