//! The unified compilation front door.
//!
//! Every consumer of the stack — the CLI subcommands, the sweep engine, the
//! table generators, the examples — used to hand-build its own
//! `HardwareModel` pipeline. [`Compiler`] replaces that glue with a single
//! API: a [`CompileRequest`] names *what* to compile (a Table 1 instruction
//! at spatial distances `dx × dz` with `dt` rounds per logical time-step)
//! and *under which hardware profile* ([`HardwareSpec`]); the returned
//! [`CompileArtifact`] carries the instruction's own time-resolved circuit,
//! the compiler-side [`InstructionReport`], and the measured
//! [`ResourceReport`]. "Same workload, N hardware profiles" is then just N
//! requests differing only in their spec.

use tiscc_core::instruction::{
    apply_instruction, apply_two_tile_instruction, Instruction, InstructionReport,
};
use tiscc_core::CoreError;
use tiscc_grid::Layout;
use tiscc_hw::{
    batch_rounds, Circuit, CompiledRounds, HardwareModel, HardwareSpec, ResourceReport,
    RoundBatchStats, UnknownProfile,
};

use crate::sweep::{CompileCache, SweepKey};
use crate::tables::ResourceRow;
use crate::verify::{Fiducial, SingleTile, TwoTiles};

/// Scheduling-pass observables of one compiled instruction: how often the
/// contention-aware scheduler stalled an op on a saturated junction, and how
/// many SIMD pulses carry two or more merged ops (totals across every round
/// occurrence). Both are zero under the default knobs
/// (`junction_capacity = 1` never over-admits on the preset specs'
/// schedules, `simd_width = 1` never batches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Ops whose start a saturated junction pushed past what ions, zones
    /// and the barrier alone would have allowed.
    pub junction_stalls: usize,
    /// Multi-op SIMD pulses in the final op stream.
    pub batched_pulses: usize,
}

/// A fully specified compilation request: one Table 1 instruction, the code
/// distances, and the hardware profile to compile under.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileRequest {
    /// The instruction to compile.
    pub instruction: Instruction,
    /// X code distance.
    pub dx: usize,
    /// Z code distance.
    pub dz: usize,
    /// Rounds of error correction per logical time-step.
    pub dt: usize,
    /// The hardware profile to compile under.
    pub spec: HardwareSpec,
}

impl CompileRequest {
    /// A request under the paper-faithful default profile
    /// ([`HardwareSpec::h1`]).
    pub fn new(instruction: Instruction, dx: usize, dz: usize, dt: usize) -> Self {
        CompileRequest { instruction, dx, dz, dt, spec: HardwareSpec::default() }
    }

    /// Replaces the hardware profile.
    pub fn with_spec(mut self, spec: HardwareSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the hardware profile by preset name (case-insensitive).
    pub fn with_profile(self, name: &str) -> Result<Self, UnknownProfile> {
        Ok(self.with_spec(HardwareSpec::by_name(name)?))
    }

    /// The memoization key of this request: the configuration plus the
    /// spec's parameter fingerprint, so caches never conflate profiles.
    pub fn key(&self) -> SweepKey {
        SweepKey {
            instruction: self.instruction,
            dx: self.dx,
            dz: self.dz,
            dt: self.dt,
            spec: self.spec.fingerprint(),
        }
    }
}

/// The result of compiling one [`CompileRequest`].
#[derive(Clone, Debug)]
pub struct CompileArtifact {
    /// The request this artifact answers.
    pub request: CompileRequest,
    /// The instruction's own time-resolved circuit in periodic
    /// (round-templated) form, re-based to start at `t = 0` (input-state
    /// preparation is excluded). Syndrome-extraction rounds beyond the
    /// representative one are held analytically — the artifact costs the
    /// memory of roughly one round, not `dt`.
    pub rounds: CompiledRounds,
    /// The compiler-side accounting (logical time-steps, tiles, outcome).
    pub report: InstructionReport,
    /// Measured space-time resources of [`CompileArtifact::rounds`] under
    /// the request's profile.
    pub resources: ResourceReport,
    /// Scheduling-pass observables (junction stalls, SIMD batches) of the
    /// instruction's own ops, totalled across every round occurrence.
    pub stats: CompileStats,
}

impl CompileArtifact {
    /// Materializes the instruction's flat time-resolved circuit (every
    /// round occurrence expanded). Prefer streaming over
    /// [`CompileArtifact::rounds`] unless a consumer genuinely needs a
    /// `Vec`-backed circuit.
    pub fn circuit(&self) -> Circuit {
        self.rounds.materialize()
    }

    /// Renders the artifact as a resource-table row.
    pub fn row(&self) -> ResourceRow {
        ResourceRow {
            name: self.request.instruction.name().to_string(),
            dx: self.request.dx,
            dz: self.request.dz,
            logical_time_steps: self.report.logical_time_steps,
            tiles: self.report.tiles,
            profile: self.request.spec.name.clone(),
            resources: self.resources.clone(),
            stats: self.stats,
        }
    }
}

/// The front-door compiler: turns [`CompileRequest`]s into
/// [`CompileArtifact`]s, memoizing finished resource rows in a shared
/// [`CompileCache`] keyed on configuration × spec fingerprint.
#[derive(Default)]
pub struct Compiler {
    cache: CompileCache,
}

impl Compiler {
    /// A compiler with a fresh cache.
    pub fn new() -> Self {
        Compiler::default()
    }

    /// The compile cache (shared across every [`Compiler::compile_row`]
    /// call on this compiler).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Compiles a request end-to-end, returning the full artifact. The
    /// instruction is compiled in a realistic context: input tiles are
    /// first prepared (and idled) as required, then only the instruction's
    /// own circuit is accounted. Artifacts carry the full circuit and are
    /// not cached; use [`Compiler::compile_row`] for memoized row
    /// generation.
    pub fn compile(&self, request: &CompileRequest) -> Result<CompileArtifact, CoreError> {
        compile_uncached(request)
    }

    /// Compiles a request to a resource-table row, memoized through
    /// [`CompileCache::resolve`]: a request whose key (configuration × spec
    /// fingerprint) was already compiled is served from the cache without
    /// touching the compiler. The row carries its compile's
    /// [`CompileStats`], so a cached row reports them too.
    pub fn compile_row(&self, request: &CompileRequest) -> Result<ResourceRow, CoreError> {
        Ok(self.cache.resolve(std::slice::from_ref(request))?.rows.remove(0))
    }
}

/// The stateless compile pipeline behind [`Compiler::compile`] and the
/// misses of [`CompileCache::resolve`]. Input tiles are prepared inside
/// [`HardwareModel::unrecorded`]: the preparation is scheduled (the
/// instruction's ops start after it and its measurement records keep their
/// indices) but not stored, so the instruction's ops are the whole circuit.
pub(crate) fn compile_uncached(request: &CompileRequest) -> Result<CompileArtifact, CoreError> {
    let CompileRequest { instruction, dx, dz, dt, ref spec } = *request;
    let (hw, report) = if instruction.tiles() == 2 {
        let mut fixture = match instruction {
            Instruction::MeasureZZ => TwoTiles::new_horizontal_with_spec(dx, dz, dt, spec.clone())?,
            _ => TwoTiles::with_spec(dx, dz, dt, spec.clone())?,
        };
        fixture.hw.set_round_templating(true);
        fixture.hw.unrecorded(|hw| {
            Fiducial::Zero.prepare(hw, &mut fixture.upper)?;
            Fiducial::Zero.prepare(hw, &mut fixture.lower)
        })?;
        let report = apply_two_tile_instruction(
            &mut fixture.hw,
            instruction,
            &mut fixture.upper,
            &mut fixture.lower,
        )?;
        (fixture.hw, report)
    } else {
        let mut fixture = SingleTile::with_spec(dx, dz, dt, spec.clone())?;
        fixture.hw.set_round_templating(true);
        // Instructions acting on an initialized tile need one.
        let needs_input = !matches!(
            instruction,
            Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT
        );
        if needs_input {
            fixture.hw.unrecorded(|hw| Fiducial::Zero.prepare(hw, &mut fixture.patch))?;
        }
        let report = apply_instruction(&mut fixture.hw, instruction, &mut fixture.patch)?;
        (fixture.hw, report)
    };
    // Total the stalls while the model still holds its per-op flags, then
    // consume it: the instruction's ops move into the rounds uncloned.
    let junction_stalls = junction_stalls_of(&hw, 0);
    let layout = hw.grid().layout().clone();
    let rounds = CompiledRounds::from_circuit(hw.into_circuit(), 0);
    let (rounds, resources, batched_pulses) = batch_and_account(rounds, &layout, spec);
    let stats = CompileStats { junction_stalls, batched_pulses };
    Ok(CompileArtifact { request: request.clone(), rounds, report, resources, stats })
}

/// Extracts the sub-range of `hw` starting at operation index `start_op` as
/// a periodic [`CompiledRounds`] (re-based so the instruction starts at
/// `t = 0`, measurement records carried over), together with its resource
/// report under the model's profile — composed by streaming prologue,
/// `repeats × template` and epilogue with running accumulators, so no round
/// is ever re-materialized — and its scheduling-pass statistics. Used so
/// reports reflect an instruction alone, not its input preparation.
pub(crate) fn instruction_rounds(
    hw: &HardwareModel,
    start_op: usize,
) -> (CompiledRounds, ResourceReport, CompileStats) {
    let junction_stalls = junction_stalls_of(hw, start_op);
    let rounds = CompiledRounds::extract(hw.circuit(), start_op);
    let (rounds, resources, batched_pulses) =
        batch_and_account(rounds, hw.grid().layout(), hw.spec());
    (rounds, resources, CompileStats { junction_stalls, batched_pulses })
}

/// Runs the SIMD batching pass over extracted rounds when the profile asks
/// for it (`simd_width > 1`; the default width skips the pass entirely and
/// the stream is byte-identical to the unbatched one), then accounts the
/// resources. Returns the final rounds, their report and the multi-op
/// pulses across every round occurrence.
fn batch_and_account(
    rounds: CompiledRounds,
    layout: &Layout,
    spec: &HardwareSpec,
) -> (CompiledRounds, ResourceReport, usize) {
    let (rounds, batch) = if spec.simd_width > 1 {
        batch_rounds(&rounds, spec)
    } else {
        (rounds, RoundBatchStats::default())
    };
    let resources = ResourceReport::from_stream_with_spec(&rounds, layout, spec);
    let batched_pulses = batch.total_batched_pulses(rounds.repeats);
    (rounds, resources, batched_pulses)
}

/// Total junction stalls of the instruction starting at `start_op`,
/// counting each templated round occurrence: the flags cover the distinct
/// (materialized) ops; each replicated span replays its round `extra` more
/// times with the identical schedule, stalls included.
fn junction_stalls_of(hw: &HardwareModel, start_op: usize) -> usize {
    let flags = hw.stall_flags();
    let count = |r: std::ops::Range<usize>| flags[r].iter().filter(|&&stalled| stalled).count();
    let mut total = count(start_op..flags.len());
    for span in hw.circuit().spans().iter().filter(|s| s.op_end > start_op) {
        total += span.extra * count(span.op_start..span.op_end);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_request_reproduces_the_legacy_row() {
        let compiler = Compiler::new();
        let request = CompileRequest::new(Instruction::PrepareZ, 2, 2, 1);
        let artifact = compiler.compile(&request).unwrap();
        assert_eq!(artifact.row(), compiler.compile_row(&request).unwrap());
        assert!(artifact.rounds.total_ops() > 0);
        assert!(!artifact.circuit().is_empty());
        assert_eq!(artifact.report.tiles, 1);
    }

    #[test]
    fn profiles_change_the_schedule_but_not_the_accounting() {
        let compiler = Compiler::new();
        let base = CompileRequest::new(Instruction::Idle, 2, 2, 1);
        let h1 = compiler.compile(&base).unwrap();
        let fast = compiler.compile(&base.clone().with_spec(HardwareSpec::projected())).unwrap();
        assert!(fast.resources.execution_time_s < h1.resources.execution_time_s);
        assert_eq!(fast.report.logical_time_steps, h1.report.logical_time_steps);
        assert_eq!(fast.resources.total_ops, h1.resources.total_ops);
        assert_ne!(base.key(), base.clone().with_spec(HardwareSpec::projected()).key());
    }

    #[test]
    fn compile_row_is_memoized_per_profile() {
        let compiler = Compiler::new();
        let req = CompileRequest::new(Instruction::MeasureZ, 2, 2, 1);
        let a = compiler.compile_row(&req).unwrap();
        let b = compiler.compile_row(&req).unwrap();
        assert_eq!(a, b);
        assert_eq!(compiler.cache().misses(), 1);
        assert_eq!(compiler.cache().hits(), 1);
        // A different profile is a different cache entry.
        let slow = req.with_profile("slow_junction").unwrap();
        compiler.compile_row(&slow).unwrap();
        assert_eq!(compiler.cache().len(), 2);
    }

    #[test]
    fn with_profile_rejects_unknown_names() {
        let err =
            CompileRequest::new(Instruction::Idle, 2, 2, 1).with_profile("warp9").unwrap_err();
        assert!(err.to_string().contains("h1"));
    }

    #[test]
    fn default_knobs_report_zero_stats() {
        let compiler = Compiler::new();
        let req = CompileRequest::new(Instruction::Idle, 3, 3, 3);
        assert_eq!(compiler.compile_row(&req).unwrap().stats, CompileStats::default());
        let artifact = compiler.compile(&req).unwrap();
        assert_eq!(artifact.stats, CompileStats::default());
    }

    #[test]
    fn simd_batching_reports_batched_pulses_and_shrinks_the_stream() {
        let mut spec = HardwareSpec::h1();
        spec.simd_width = 4;
        let compiler = Compiler::new();
        let req = CompileRequest::new(Instruction::Idle, 3, 3, 3).with_spec(spec);
        let batched = compiler.compile(&req).unwrap();
        let plain = compiler.compile(&CompileRequest::new(Instruction::Idle, 3, 3, 3)).unwrap();
        assert!(batched.stats.batched_pulses > 0, "d=3 rounds have co-scheduled 1q gates");
        assert!(batched.rounds.total_ops() < plain.rounds.total_ops());
        // With zero discount, batching merges pulses but moves no start:
        // the makespan is unchanged.
        assert_eq!(
            batched.resources.execution_time_s.to_bits(),
            plain.resources.execution_time_s.to_bits()
        );
    }
}
