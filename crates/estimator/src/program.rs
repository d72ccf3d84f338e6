//! The algorithm-level program estimator.
//!
//! [`estimate_program`] joins the `tiscc_program` layers (2D patch
//! placement, congestion-aware routing, dependency scheduling,
//! error-budget distance selection) to the per-instruction [`Compiler`]
//! front door:
//!
//! 1. the program is validated, its qubits are placed on a tile grid by
//!    the [`Placement`] allocator under the spec's [`LayoutSpec`]
//!    strategy, and the instruction stream is packed into parallel
//!    logical time steps by the congestion-aware ASAP scheduler (merge
//!    corridors are routed per step; conflicting corridors serialise and
//!    are reported as `routing_stalls`), which [`LogicalCounts`] reduces
//!    to kinds, instance counts and per-step kind masks;
//! 2. the configurable [`ErrorModel`] selects the smallest code distance
//!    whose total program error (patch-steps × per-step logical error)
//!    meets the requested budget;
//! 3. every distinct instruction kind of the program — routed merges
//!    included — is compiled at the selected distance under every
//!    requested hardware profile through
//!    [`CompileCache::resolve`](crate::sweep::CompileCache::resolve) on the
//!    compiler's cache, so repeated estimates (and overlapping programs)
//!    share compilations;
//! 4. per-profile space–time totals are assembled: [`LogicalCounts::price`]
//!    costs each parallel step at the longest of its member instructions
//!    and totals the compile stats per instance, the machine footprint
//!    comes from [`Placement::layout`], and qubit-rounds multiply the
//!    trapping zones by the program's error-correction rounds.
//!
//! The `tiscc estimate <program.tql>` subcommand (with `--layout`,
//! `--grid` and `--show-layout`) and the `program_estimate` example are
//! thin wrappers around this module.

use tiscc_core::instruction::Instruction;
use tiscc_core::CoreError;
use tiscc_hw::HardwareSpec;
use tiscc_program::budget::BudgetError;
use tiscc_program::ir::ProgramError;
use tiscc_program::{
    schedule_with, ErrorModel, LayoutSpec, LogicalProgram, Placement, PlacementError, RoutingError,
    Schedule,
};
use tiscc_telemetry::{Span, Telemetry};

use crate::compiler::{CompileRequest, CompileStats, Compiler};
use crate::tables::ResourceRow;

/// What to estimate: the error budget, the per-step error model, the
/// floorplan, the hardware profiles to compare, and the distance-search
/// ceiling.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramEstimateSpec {
    /// Target total logical error budget for the whole program.
    pub budget: f64,
    /// The per-patch-step logical error model.
    pub model: ErrorModel,
    /// Hardware profiles to estimate under (one report row each).
    pub profiles: Vec<HardwareSpec>,
    /// Largest code distance the selection searches.
    pub d_max: usize,
    /// The floorplan: placement strategy and optional tile-grid size.
    pub layout: LayoutSpec,
}

impl ProgramEstimateSpec {
    /// A spec with the default error model, the default profile, the
    /// default single-lane floorplan and a `d_max` of 49.
    pub fn new(budget: f64) -> Self {
        ProgramEstimateSpec {
            budget,
            model: ErrorModel::default(),
            profiles: vec![HardwareSpec::default()],
            d_max: 49,
            layout: LayoutSpec::default(),
        }
    }

    /// Replaces the hardware-profile axis.
    pub fn with_profiles(mut self, profiles: Vec<HardwareSpec>) -> Self {
        self.profiles = profiles;
        self
    }

    /// Replaces the floorplan.
    pub fn with_layout(mut self, layout: LayoutSpec) -> Self {
        self.layout = layout;
        self
    }
}

impl Default for ProgramEstimateSpec {
    /// One-in-a-billion total program error under the default model.
    fn default() -> Self {
        ProgramEstimateSpec::new(1e-9)
    }
}

/// One per-profile row of a [`ProgramEstimate`].
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEstimate {
    /// Hardware profile name.
    pub profile: String,
    /// Selected code distance (`dx = dz = dt = d`).
    pub distance: usize,
    /// Achieved total program error at the selected distance.
    pub achieved_error: f64,
    /// Wall-clock program duration in seconds: the sum over parallel
    /// steps of the longest member instruction.
    pub duration_s: f64,
    /// Trapping zones of the machine hosting the placement.
    pub trapping_zones: usize,
    /// Physical area of the machine in square metres.
    pub area_m2: f64,
    /// Zone-rounds: trapping zones × error-correction rounds
    /// (logical time steps × `dt = d`).
    pub qubit_rounds: u64,
    /// Ops across the program whose start the contention-aware scheduler
    /// stalled on a junction (summed per instruction instance; zero under
    /// every clean profile's default knobs).
    pub junction_stalls: usize,
    /// Multi-op SIMD pulses across the program (summed per instruction
    /// instance; zero at `simd_width = 1`).
    pub batched_pulses: usize,
}

/// A program-level space–time resource estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramEstimate {
    /// The program's name.
    pub program: String,
    /// Declared logical qubits.
    pub logical_qubits: usize,
    /// Instructions in the program.
    pub instructions: usize,
    /// Tiles of the floorplan's grid (data and ancilla alike).
    pub tiles: usize,
    /// The floorplan this estimate was produced under.
    pub layout: LayoutSpec,
    /// Tile-grid dimensions `(rows, cols)` of the floorplan.
    pub grid: (usize, usize),
    /// Parallel steps after scheduling.
    pub depth: usize,
    /// Total logical time steps (Table 1 accounting, summed over steps).
    pub logical_time_steps: usize,
    /// Widest parallel step (instructions packed together).
    pub max_parallelism: usize,
    /// Joint measurements that needed a routing corridor or lane segment.
    pub routed_merges: usize,
    /// Joint measurements that shared a step with another joint
    /// measurement — the merge parallelism the floorplan delivered.
    pub parallel_merges: usize,
    /// Steps merges waited for a free corridor beyond their operand-ready
    /// step — the congestion cost of the floorplan.
    pub routing_stalls: usize,
    /// Patch-steps the error budget was spent over.
    pub patch_steps: u64,
    /// The requested error budget.
    pub budget: f64,
    /// One row per requested hardware profile.
    pub rows: Vec<ProfileEstimate>,
}

impl ProgramEstimate {
    /// Renders the estimate as an aligned multi-line report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Program '{}': {} logical qubit(s), {} instruction(s)\n",
            self.program, self.logical_qubits, self.instructions
        );
        out.push_str(&format!(
            "  schedule: {} parallel step(s), {} logical time step(s), \
             max {} instruction(s)/step\n",
            self.depth, self.logical_time_steps, self.max_parallelism
        ));
        out.push_str(&format!(
            "  placement: {} layout on a {}x{} tile grid ({} tile(s)), {} patch-step(s), \
             budget {:.1e}\n",
            self.layout.strategy.name(),
            self.grid.0,
            self.grid.1,
            self.tiles,
            self.patch_steps,
            self.budget
        ));
        out.push_str(&format!(
            "  routing: {} routed merge(s), parallel_merges {}, routing_stalls {}\n\n",
            self.routed_merges, self.parallel_merges, self.routing_stalls
        ));
        // The scheduling-stat columns appear only when some row carries a
        // non-default value, so default-knob reports are byte-identical to
        // releases that predate these columns.
        let show_stats = self.rows.iter().any(|r| r.junction_stalls > 0 || r.batched_pulses > 0);
        out.push_str(&format!(
            "  {:<14} {:>4} {:>12} {:>12} {:>8} {:>12} {:>14}",
            "profile", "d", "error", "duration", "zones", "area", "qubit-rounds"
        ));
        if show_stats {
            out.push_str(&format!(" {:>15} {:>14}", "junction_stalls", "batched_pulses"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<14} {:>4} {:>12.3e} {:>11.4}s {:>8} {:>9.3e}m^2 {:>14}",
                row.profile,
                row.distance,
                row.achieved_error,
                row.duration_s,
                row.trapping_zones,
                row.area_m2,
                row.qubit_rounds
            ));
            if show_stats {
                out.push_str(&format!(" {:>15} {:>14}", row.junction_stalls, row.batched_pulses));
            }
            out.push('\n');
        }
        out
    }
}

/// Errors raised by [`estimate_program`].
#[derive(Clone, Debug, PartialEq)]
pub enum EstimateError {
    /// The program failed validation.
    Program(ProgramError),
    /// The program does not fit the requested floorplan.
    Placement(PlacementError),
    /// A merge could not be routed under the floorplan.
    Routing(RoutingError),
    /// Distance selection failed (bad model or unsatisfiable budget).
    Budget(BudgetError),
    /// A per-instruction compilation failed.
    Compile(String),
    /// The spec is malformed (e.g. no profiles).
    Spec(String),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::Program(e) => write!(f, "invalid program: {e}"),
            EstimateError::Placement(e) => write!(f, "{e}"),
            EstimateError::Routing(e) => write!(f, "{e}"),
            EstimateError::Budget(e) => write!(f, "{e}"),
            EstimateError::Compile(e) => write!(f, "compilation failed: {e}"),
            EstimateError::Spec(e) => write!(f, "invalid estimate spec: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<ProgramError> for EstimateError {
    fn from(e: ProgramError) -> Self {
        EstimateError::Program(e)
    }
}

impl From<PlacementError> for EstimateError {
    fn from(e: PlacementError) -> Self {
        EstimateError::Placement(e)
    }
}

impl From<RoutingError> for EstimateError {
    fn from(e: RoutingError) -> Self {
        EstimateError::Routing(e)
    }
}

impl From<BudgetError> for EstimateError {
    fn from(e: BudgetError) -> Self {
        EstimateError::Budget(e)
    }
}

impl From<CoreError> for EstimateError {
    fn from(e: CoreError) -> Self {
        EstimateError::Compile(e.to_string())
    }
}

/// The logical counts of a program on one floorplan: its placement and
/// parallel-step schedule, reduced to what pricing needs — the distinct
/// instruction kinds, how often each occurs, and which kinds run in each
/// step. Counts depend on the program and the floorplan only; pricing them
/// at a distance and under a profile is [`LogicalCounts::price`], so one
/// count serves every cell of an estimate or a frontier.
#[derive(Clone, Debug)]
pub struct LogicalCounts {
    /// Where the program's qubits sit on the tile grid.
    pub placement: Placement,
    /// The congestion-aware parallel-step schedule.
    pub schedule: Schedule,
    /// Patch-steps the error budget is spent over.
    pub patch_steps: u64,
    /// The program's distinct instruction kinds, in first-appearance order.
    pub kinds: Vec<Instruction>,
    /// Instances of each kind in the program, parallel to `kinds`.
    instances: Vec<usize>,
    /// One mask per parallel step: bit `k` is set iff an instance of
    /// `kinds[k]` executes in the step.
    step_kinds: Vec<u16>,
}

impl LogicalCounts {
    /// Schedules `program` on `placement` (a `schedule` span under
    /// `parent`) and counts its kinds.
    pub fn new(
        program: &LogicalProgram,
        placement: Placement,
        parent: &Span,
    ) -> Result<LogicalCounts, RoutingError> {
        assert!(Instruction::all().len() <= 16, "every instruction kind needs a bit of a u16 mask");
        let schedule = schedule_with(program, &placement, parent)?;
        let patch_steps = schedule.patch_steps(placement.total_tiles());
        let (mut kinds, mut instances) = (Vec::new(), Vec::new());
        // The kind index of each instruction, by enum discriminant.
        let mut slot = [0usize; 16];
        for pi in program.instructions() {
            let at = &mut slot[pi.instruction as usize];
            if *at == 0 {
                kinds.push(pi.instruction);
                instances.push(0);
                *at = kinds.len();
            }
            instances[*at - 1] += 1;
        }
        let step_kinds = schedule
            .steps
            .iter()
            .map(|step| {
                step.instructions.iter().fold(0u16, |mask, &i| {
                    mask | 1 << (slot[program.instructions()[i].instruction as usize] - 1)
                })
            })
            .collect();
        Ok(LogicalCounts { placement, schedule, patch_steps, kinds, instances, step_kinds })
    }

    /// Prices the counts with one compiled row per kind (`rows[k]` for
    /// `kinds[k]`), in O(depth + kinds). The duration sums the steps in
    /// order, each costing its longest member; the stats total each kind's
    /// row stats times its instances.
    pub fn price(&self, rows: &[ResourceRow]) -> (f64, CompileStats) {
        assert_eq!(rows.len(), self.kinds.len(), "one row per kind");
        let mut times = [0.0; 16];
        for (time, row) in times.iter_mut().zip(rows) {
            *time = row.resources.execution_time_s;
        }
        let duration_s = self
            .step_kinds
            .iter()
            .map(|&mask| set_bits(mask).map(|k| times[k]).fold(0.0, f64::max))
            .sum();
        let stats =
            rows.iter().zip(&self.instances).fold(CompileStats::default(), |sum, (row, &n)| {
                CompileStats {
                    junction_stalls: sum.junction_stalls + n * row.stats.junction_stalls,
                    batched_pulses: sum.batched_pulses + n * row.stats.batched_pulses,
                }
            });
        (duration_s, stats)
    }
}

/// The indices of the set bits of `mask`, lowest first.
fn set_bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            k
        })
    })
}

/// Estimates `program` under `spec`, compiling through (and memoizing in)
/// `compiler`.
pub fn estimate_program(
    program: &LogicalProgram,
    spec: &ProgramEstimateSpec,
    compiler: &Compiler,
) -> Result<ProgramEstimate, EstimateError> {
    estimate_program_with(program, spec, compiler, &Telemetry::off().root("estimate"))
}

/// [`estimate_program`] with telemetry: each pipeline phase (`validate`,
/// `place`, `schedule`, `select_distance`, `compile`, `assemble`) opens a
/// child span under `parent`, and the compile phase records its own
/// `compile.cache_hits` / `compile.cache_misses` (rows served from the
/// cache and rows compiled by this estimate).
/// Passing a span from [`Telemetry::off`] makes this identical to
/// [`estimate_program`].
pub fn estimate_program_with(
    program: &LogicalProgram,
    spec: &ProgramEstimateSpec,
    compiler: &Compiler,
    parent: &Span,
) -> Result<ProgramEstimate, EstimateError> {
    {
        let _validate = parent.child("validate");
        program.validate()?;
        if spec.profiles.is_empty() {
            return Err(EstimateError::Spec("at least one hardware profile is required".into()));
        }
    }

    let placement = {
        let _place = parent.child("place");
        Placement::allocate_with(program, &spec.layout)?
    };
    let counts = LogicalCounts::new(program, placement, parent)?;
    let (d, achieved_error) = {
        let _select = parent.child("select_distance");
        let d = spec.model.select_distance(counts.patch_steps, spec.budget, spec.d_max)?;
        (d, spec.model.program_error(d, counts.patch_steps))
    };

    // Each distinct kind is compiled once per profile at the selected
    // distance (the compiler cache makes repeated estimates free).
    let compile_span = parent.child("compile");
    let requests: Vec<CompileRequest> = spec
        .profiles
        .iter()
        .flat_map(|profile| {
            counts
                .kinds
                .iter()
                .map(move |&kind| CompileRequest::new(kind, d, d, d).with_spec(profile.clone()))
        })
        .collect();
    let compiled = compiler.cache().resolve(&requests)?;
    compile_span.add("compile.cache_hits", compiled.hits as u64);
    compile_span.add("compile.cache_misses", compiled.computed as u64);
    compile_span.finish();

    // The machine footprint depends only on the placement and the selected
    // distance, never on the profile.
    let assemble_span = parent.child("assemble");
    let layout = counts.placement.layout(d);
    let zones = layout.trapping_zone_count();
    let area_m2 = layout.area_m2();
    let k = counts.kinds.len();
    let rows: Vec<ProfileEstimate> = spec
        .profiles
        .iter()
        .enumerate()
        .map(|(pi, profile)| {
            let (duration_s, stats) = counts.price(&compiled.rows[pi * k..(pi + 1) * k]);
            ProfileEstimate {
                profile: profile.name.clone(),
                distance: d,
                achieved_error,
                duration_s,
                trapping_zones: zones,
                area_m2,
                qubit_rounds: zones as u64 * counts.schedule.logical_time_steps as u64 * d as u64,
                junction_stalls: stats.junction_stalls,
                batched_pulses: stats.batched_pulses,
            }
        })
        .collect();
    parent.add("compile.junction_stalls", rows.iter().map(|r| r.junction_stalls as u64).sum());
    parent.add("compile.batched_pulses", rows.iter().map(|r| r.batched_pulses as u64).sum());
    drop(assemble_span);

    let sched = &counts.schedule;
    Ok(ProgramEstimate {
        program: program.name().to_string(),
        logical_qubits: program.qubit_count(),
        instructions: program.len(),
        tiles: counts.placement.total_tiles(),
        layout: spec.layout,
        grid: (counts.placement.tile_rows(), counts.placement.tile_cols()),
        depth: sched.depth(),
        logical_time_steps: sched.logical_time_steps,
        max_parallelism: sched.max_parallelism(),
        routed_merges: sched.routed_merges(),
        parallel_merges: sched.parallel_merges,
        routing_stalls: sched.routing_stalls,
        patch_steps: counts.patch_steps,
        budget: spec.budget,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiscc_program::examples;

    /// A loose budget keeps selected distances (and compile times) small.
    fn fast_spec() -> ProgramEstimateSpec {
        ProgramEstimateSpec::new(1e-3)
    }

    #[test]
    fn teleportation_estimate_has_consistent_totals() {
        let program = examples::teleportation();
        let compiler = Compiler::new();
        let est = estimate_program(&program, &fast_spec(), &compiler).unwrap();
        assert_eq!(est.logical_qubits, 3);
        assert_eq!(est.instructions, 9);
        assert_eq!(est.tiles, 6);
        assert_eq!(est.grid, (2, 3));
        assert!(est.depth >= 3 && est.depth <= est.instructions);
        assert!(est.rows[0].achieved_error <= 1e-3);
        let row = &est.rows[0];
        assert_eq!(row.profile, "h1");
        assert!(row.duration_s > 0.0);
        assert!(row.trapping_zones > 0);
        assert_eq!(
            row.qubit_rounds,
            row.trapping_zones as u64 * est.logical_time_steps as u64 * row.distance as u64
        );
        let report = est.render();
        assert!(report.contains("teleport"));
        assert!(report.contains("h1"));
        assert!(report.contains("lane layout"));
        assert!(report.contains("routing_stalls 0"));
    }

    #[test]
    fn profiles_share_distance_but_differ_in_duration() {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        let spec = fast_spec().with_profiles(vec![HardwareSpec::h1(), HardwareSpec::projected()]);
        let est = estimate_program(&program, &spec, &compiler).unwrap();
        assert_eq!(est.rows.len(), 2);
        assert_eq!(est.rows[0].distance, est.rows[1].distance);
        assert!(
            est.rows[1].duration_s < est.rows[0].duration_s,
            "projected hardware runs the same program faster"
        );
        assert_eq!(est.rows[0].trapping_zones, est.rows[1].trapping_zones);
    }

    #[test]
    fn estimates_are_memoized_across_calls() {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        estimate_program(&program, &fast_spec(), &compiler).unwrap();
        let misses = compiler.cache().misses();
        assert!(misses > 0);
        let again = estimate_program(&program, &fast_spec(), &compiler).unwrap();
        assert_eq!(compiler.cache().misses(), misses, "second estimate is all cache hits");
        assert!(again.rows[0].duration_s > 0.0);
    }

    #[test]
    fn layouts_change_congestion_but_not_the_physics() {
        let program = examples::ripple_adder();
        let compiler = Compiler::new();
        let row = fast_spec().with_layout(LayoutSpec::row_major().with_grid(8, 8));
        let board = fast_spec().with_layout(LayoutSpec::checkerboard().with_grid(8, 8));
        let row_est = estimate_program(&program, &row, &compiler).unwrap();
        let board_est = estimate_program(&program, &board, &compiler).unwrap();
        assert_eq!(row_est.tiles, 64);
        assert_eq!(board_est.tiles, 64);
        assert!(board_est.parallel_merges > 0);
        assert!(
            row_est.routing_stalls > board_est.routing_stalls,
            "row {} vs checkerboard {}",
            row_est.routing_stalls,
            board_est.routing_stalls
        );
        assert!(board_est.logical_time_steps < row_est.logical_time_steps);
        let report = board_est.render();
        assert!(report.contains("checkerboard layout"));
    }

    #[test]
    fn invalid_programs_and_specs_are_rejected() {
        let mut bad = LogicalProgram::new("bad");
        let q = bad.add_qubit("q").unwrap();
        bad.hadamard(q).unwrap();
        let compiler = Compiler::new();
        assert!(matches!(
            estimate_program(&bad, &fast_spec(), &compiler),
            Err(EstimateError::Program(_))
        ));

        let program = examples::bell_pair();
        let no_profiles = ProgramEstimateSpec { profiles: vec![], ..fast_spec() };
        assert!(matches!(
            estimate_program(&program, &no_profiles, &compiler),
            Err(EstimateError::Spec(_))
        ));

        let impossible = ProgramEstimateSpec { budget: 1e-300, d_max: 3, ..fast_spec() };
        assert!(matches!(
            estimate_program(&program, &impossible, &compiler),
            Err(EstimateError::Budget(BudgetError::Unsatisfiable { .. }))
        ));

        // A grid too small for the program is a typed placement error…
        let tiny = fast_spec().with_layout(LayoutSpec::checkerboard().with_grid(1, 2));
        assert!(matches!(
            estimate_program(&program, &tiny, &compiler),
            Err(EstimateError::Placement(PlacementError::GridTooSmall { .. }))
        ));
        // …and a grid with no ancilla fabric is a typed routing error.
        let unroutable = fast_spec().with_layout(LayoutSpec::row_major().with_grid(1, 2));
        assert!(matches!(
            estimate_program(&program, &unroutable, &compiler),
            Err(EstimateError::Routing(_))
        ));
    }
}
