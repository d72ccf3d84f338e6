//! Dependency- and congestion-aware ASAP list scheduling of logical
//! programs.
//!
//! Instructions are placed into *parallel logical time steps*: walking the
//! program in order, each instruction starts at the earliest step at which
//! every resource it needs is free. Two instructions whose resources are
//! disjoint can share a step; instructions touching the same data tile are
//! serialised. Because a qubit's data tile is part of every footprint that
//! names it, program order between instructions on the same qubit is
//! preserved automatically.
//!
//! What "resources" means depends on the placement strategy:
//!
//! * **Single-lane** floorplans use a static footprint — operand data
//!   tiles plus, for routed merges, the shared-lane tiles spanning the
//!   operand columns ([`Placement::lane_span`]). This is the original
//!   scheduler, preserved bit-for-bit; its state is one array of next-free
//!   steps per tile row, indexed by column, and it records each routed
//!   merge's corridor as its column range ([`Corridor::Lane`]).
//! * **2D** floorplans ([`RowMajor`]/[`Checkerboard`]) route each merge
//!   through an ancilla corridor found by [`crate::route`]: at the merge's
//!   ready step the scheduler searches for a corridor avoiding tiles
//!   already reserved in that step ([`Reservations`]); if none is free the
//!   merge *stalls* to the next step (counted in
//!   [`Schedule::routing_stalls`]), and if no corridor exists even on an
//!   idle grid the program is unroutable ([`RoutingError`]). One search
//!   with dense, epoch-stamped scratch serves every probe of a schedule,
//!   and each merge keeps its corridor's tiles ([`Corridor::Path`]).
//!
//! A step's duration in *logical time steps* is the maximum over its
//! members (paper Table 1 accounting): a step holding only zero-step
//! instructions (Pauli frame updates, destructive measurements,
//! injections) contributes no error-correction rounds, while any step
//! holding a preparation, idle or merge costs one round of `dt` cycles.
//!
//! [`RowMajor`]: crate::layout2d::LayoutStrategy::RowMajor
//! [`Checkerboard`]: crate::layout2d::LayoutStrategy::Checkerboard

use std::ops::Range;

use tiscc_telemetry::Span;

use crate::ir::{LogicalProgram, ProgramInstruction};
use crate::layout2d::{LayoutStrategy, Placement, Tile, LANE_ROW};
use crate::route::{Reservations, RoutingError};

/// The ancilla tiles one routed joint measurement occupied during its
/// step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corridor {
    /// A single-lane merge: the lane row [`LANE_ROW`] under the columns
    /// `cols` ([`Placement::lane_span`]).
    Lane {
        /// The lane columns, left to right.
        cols: Range<usize>,
    },
    /// A 2D merge: the BFS corridor's tiles, from the tile touching the
    /// first operand to the tile touching the second.
    Path(Vec<Tile>),
}

impl Corridor {
    /// Number of tiles in the corridor.
    pub fn len(&self) -> usize {
        match self {
            Corridor::Lane { cols } => cols.len(),
            Corridor::Path(tiles) => tiles.len(),
        }
    }

    /// Whether the corridor has no tiles (never the case for a corridor a
    /// schedule records).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The corridor's tiles in order, without allocating.
    pub fn tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        let (cols, path) = match self {
            Corridor::Lane { cols } => (cols.clone(), &[][..]),
            Corridor::Path(tiles) => (0..0, tiles.as_slice()),
        };
        cols.map(|c| (LANE_ROW, c)).chain(path.iter().copied())
    }
}

/// One parallel step of a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Indices into [`LogicalProgram::instructions`] executing in this step.
    pub instructions: Vec<usize>,
    /// Logical time steps this step costs: the maximum over its members.
    pub logical_time_steps: usize,
}

/// The result of scheduling a program against a placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// The parallel steps, in execution order.
    pub steps: Vec<ScheduleStep>,
    /// Total logical time steps: the sum over steps.
    pub logical_time_steps: usize,
    /// Steps merges spent waiting for a free corridor (or lane segment)
    /// beyond their operand-ready step — the congestion cost of the
    /// floorplan.
    pub routing_stalls: usize,
    /// Joint measurements that executed in a step shared with at least one
    /// other joint measurement — the parallelism the floorplan delivered.
    pub parallel_merges: usize,
    /// Per-instruction routing: the ancilla corridor (or single-lane
    /// segment) each joint measurement occupied during its step; `None`
    /// for single-qubit instructions and direct boundary merges.
    pub corridors: Vec<Option<Corridor>>,
}

impl Schedule {
    /// Number of parallel steps.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// Total instruction slots across all steps.
    pub fn instruction_count(&self) -> usize {
        self.steps.iter().map(|s| s.instructions.len()).sum()
    }

    /// Patch-steps accrued by a machine of `total_tiles` tiles: every
    /// allocated tile undergoes error correction for every logical time
    /// step of the program (idle patches decohere too). This is the unit
    /// the error budget is spent in.
    pub fn patch_steps(&self, total_tiles: usize) -> u64 {
        total_tiles as u64 * self.logical_time_steps as u64
    }

    /// The widest step (most instructions packed in parallel).
    pub fn max_parallelism(&self) -> usize {
        self.steps.iter().map(|s| s.instructions.len()).max().unwrap_or(0)
    }

    /// Joint measurements that needed a routing corridor or lane segment.
    pub fn routed_merges(&self) -> usize {
        self.corridors.iter().filter(|c| c.is_some()).count()
    }
}

/// Schedules `program` against `placement` with ASAP list scheduling,
/// per-tile conflict detection and — on 2D floorplans — congestion-aware
/// corridor routing. Fails with a [`RoutingError`] when a merge cannot be
/// routed under the floorplan at all.
pub fn schedule(program: &LogicalProgram, placement: &Placement) -> Result<Schedule, RoutingError> {
    let mut sched = match placement.strategy() {
        LayoutStrategy::SingleLane => schedule_single_lane(program, placement),
        LayoutStrategy::RowMajor | LayoutStrategy::Checkerboard => {
            schedule_routed(program, placement)?
        }
    };
    sched.logical_time_steps = sched.steps.iter().map(|s| s.logical_time_steps).sum();
    sched.parallel_merges = parallel_merges(program, &sched.steps);
    Ok(sched)
}

/// [`schedule`] wrapped in a telemetry span: opens a `schedule` child
/// under `parent`, and on success promotes the schedule's ad-hoc
/// congestion fields into counters — `schedule.routing_stalls`,
/// `schedule.parallel_merges`, `schedule.routed_merges` and
/// `schedule.corridor_tiles` (total tiles across all merge corridors).
pub fn schedule_with(
    program: &LogicalProgram,
    placement: &Placement,
    parent: &Span,
) -> Result<Schedule, RoutingError> {
    let span = parent.child("schedule");
    let sched = schedule(program, placement)?;
    span.add("schedule.routing_stalls", sched.routing_stalls as u64);
    span.add("schedule.parallel_merges", sched.parallel_merges as u64);
    span.add("schedule.routed_merges", sched.routed_merges() as u64);
    let corridor_tiles: usize = sched.corridors.iter().flatten().map(Corridor::len).sum();
    span.add("schedule.corridor_tiles", corridor_tiles as u64);
    Ok(sched)
}

/// Joint measurements sharing a step with at least one other joint
/// measurement, summed over steps.
fn parallel_merges(program: &LogicalProgram, steps: &[ScheduleStep]) -> usize {
    steps
        .iter()
        .map(|step| {
            let merges = step
                .instructions
                .iter()
                .filter(|&&i| program.instructions()[i].qubits.len() == 2)
                .count();
            if merges >= 2 {
                merges
            } else {
                0
            }
        })
        .sum()
}

/// The original single-lane scheduler, preserved bit-for-bit: an
/// instruction starts at the earliest step at which its operands' data
/// tiles and, for a routed merge, the lane tiles under every column it
/// spans are free.
///
/// The state is two arrays of next-free steps indexed by column, one for
/// the data row and one for the lane row: a merge's start is a maximum
/// over its lane span, which it then fills with `start + 1`. A routed
/// merge's corridor is recorded as its column range.
fn schedule_single_lane(program: &LogicalProgram, placement: &Placement) -> Schedule {
    let mut data_free = vec![0usize; placement.tile_cols()];
    let mut lane_free = vec![0usize; placement.tile_cols()];
    let mut steps: Vec<ScheduleStep> = Vec::new();
    let mut corridors: Vec<Option<Corridor>> = Vec::with_capacity(program.len());
    let mut routing_stalls = 0usize;
    for (idx, pi) in program.instructions().iter().enumerate() {
        let ready = pi.qubits.iter().map(|&q| data_free[placement.column(q)]).max().unwrap_or(0);
        let cols = placement.lane_span(pi);
        let start = lane_free[cols.clone()].iter().copied().fold(ready, usize::max);
        // The congestion metric: how much later the lane let the merge run
        // than its operands alone would have.
        routing_stalls += start - ready;
        push_to_step(&mut steps, start, idx, pi);
        for &q in &pi.qubits {
            data_free[placement.column(q)] = start + 1;
        }
        lane_free[cols.clone()].fill(start + 1);
        corridors.push((!cols.is_empty()).then_some(Corridor::Lane { cols }));
    }
    Schedule { steps, logical_time_steps: 0, routing_stalls, parallel_merges: 0, corridors }
}

/// The congestion-aware scheduler for 2D floorplans: merges claim a BFS
/// corridor of ancilla tiles for the duration of their step, reserved in
/// a per-step [`Reservations`] table so disjoint corridors share a step
/// and conflicting ones serialise. The table's one search serves every
/// probe, and each qubit's next-free step sits in an array.
fn schedule_routed(
    program: &LogicalProgram,
    placement: &Placement,
) -> Result<Schedule, RoutingError> {
    let mut qubit_free = vec![0usize; placement.data_tiles()];
    let mut reserved = Reservations::new(placement);
    let mut steps: Vec<ScheduleStep> = Vec::new();
    let mut corridors: Vec<Option<Corridor>> = Vec::with_capacity(program.len());
    let mut routing_stalls = 0usize;
    for (idx, pi) in program.instructions().iter().enumerate() {
        let ready = pi.qubits.iter().map(|q| qubit_free[q.0]).max().unwrap_or(0);
        let (start, corridor) = if pi.qubits.len() == 2 {
            let (a, b) = (pi.qubits[0], pi.qubits[1]);
            let mut s = ready;
            loop {
                match reserved.corridor(a, b, s) {
                    Some(path) => break (s, Some(path)),
                    // A step with no reservations is an idle grid: failing
                    // there means no corridor exists under this floorplan.
                    None if reserved.reserved_at(s) == 0 => {
                        return Err(RoutingError {
                            instruction: Some(pi.instruction),
                            a: program.qubit_name(a).to_string(),
                            a_tile: placement.data_tile(a),
                            b: program.qubit_name(b).to_string(),
                            b_tile: placement.data_tile(b),
                            line: pi.line,
                        });
                    }
                    None => {
                        routing_stalls += 1;
                        s += 1;
                    }
                }
            }
        } else {
            (ready, None)
        };
        push_to_step(&mut steps, start, idx, pi);
        // Only corridor tiles need reserving: operand data tiles host
        // patches, which corridor passability already excludes, and the
        // unroutability check above relies on steps without merges
        // staying empty.
        if let Some(corridor) = &corridor {
            reserved.reserve(start, corridor);
        }
        for &q in &pi.qubits {
            qubit_free[q.0] = start + 1;
        }
        corridors.push(corridor.map(Corridor::Path));
    }
    Ok(Schedule { steps, logical_time_steps: 0, routing_stalls, parallel_merges: 0, corridors })
}

/// Adds instruction `idx` to step `start`, opening it if it is the next
/// step; its cost is the maximum over its members.
fn push_to_step(steps: &mut Vec<ScheduleStep>, start: usize, idx: usize, pi: &ProgramInstruction) {
    if start == steps.len() {
        steps.push(ScheduleStep { instructions: Vec::new(), logical_time_steps: 0 });
    }
    let step = &mut steps[start];
    step.instructions.push(idx);
    step.logical_time_steps = step.logical_time_steps.max(pi.instruction.logical_time_steps());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::layout2d::LayoutSpec;
    use tiscc_core::instruction::Instruction;

    fn scheduled(program: &LogicalProgram) -> (Placement, Schedule) {
        let placement = Placement::allocate(program);
        let sched = schedule(program, &placement).expect("single-lane programs always route");
        (placement, sched)
    }

    /// Provably independent instructions (disjoint footprints) share one
    /// parallel step — the core scheduler guarantee.
    #[test]
    fn independent_instructions_pack_into_one_step() {
        let mut p = LogicalProgram::new("parallel-preps");
        let qs: Vec<_> = (0..4).map(|i| p.add_qubit(format!("q{i}")).unwrap()).collect();
        for &q in &qs {
            p.prepare_z(q).unwrap();
        }
        let (_, sched) = scheduled(&p);
        assert_eq!(sched.depth(), 1, "4 preps on 4 disjoint tiles are one step");
        assert_eq!(sched.steps[0].instructions, vec![0, 1, 2, 3]);
        assert_eq!(sched.logical_time_steps, 1);
        assert_eq!(sched.max_parallelism(), 4);
        assert_eq!(sched.routing_stalls, 0);
    }

    /// Instructions on the same qubit keep program order (the data tile is
    /// a shared resource).
    #[test]
    fn same_qubit_instructions_are_serialised() {
        let mut p = LogicalProgram::new("serial");
        let q = p.add_qubit("q").unwrap();
        p.prepare_z(q).unwrap();
        p.hadamard(q).unwrap();
        p.idle(q).unwrap();
        p.measure_x(q).unwrap();
        let (_, sched) = scheduled(&p);
        assert_eq!(sched.depth(), 4);
        // prep(1) + hadamard(0) + idle(1) + measure(0) logical steps.
        assert_eq!(sched.logical_time_steps, 2);
    }

    /// Two merges with overlapping routing-lane spans conflict; disjoint
    /// spans run in parallel.
    #[test]
    fn lane_conflicts_serialise_overlapping_merges() {
        let mut p = LogicalProgram::new("lanes");
        let qs: Vec<_> = (0..4).map(|i| p.add_qubit(format!("q{i}")).unwrap()).collect();
        for &q in &qs {
            p.prepare_z(q).unwrap();
        }
        // Spans 0..=1 and 2..=3: disjoint lanes → parallel.
        p.measure_xx(qs[0], qs[1]).unwrap();
        p.measure_xx(qs[2], qs[3]).unwrap();
        // Span 1..=2 overlaps both earlier spans → next step.
        p.measure_xx(qs[1], qs[2]).unwrap();
        let (_, sched) = scheduled(&p);
        assert_eq!(sched.depth(), 3);
        assert_eq!(sched.steps[1].instructions, vec![4, 5]);
        assert_eq!(sched.steps[2].instructions, vec![6]);
        assert_eq!(sched.parallel_merges, 2, "the two disjoint-span merges share a step");
        // The overlapping merge was delayed by its *operands* (both busy in
        // step 1), not by the lane — so no routing stall is charged.
        assert_eq!(sched.routing_stalls, 0);
        assert_eq!(sched.routed_merges(), 3);
        let corridor = sched.corridors[4].as_ref().expect("a routed merge");
        assert_eq!(*corridor, Corridor::Lane { cols: 0..2 });
        assert_eq!(corridor.len(), 2);
        assert_eq!(corridor.tiles().collect::<Vec<_>>(), vec![(1, 0), (1, 1)]);
    }

    /// A merge whose operands are ready but whose lane segment is claimed
    /// by another merge is charged a routing stall on the single lane too.
    #[test]
    fn single_lane_charges_stalls_for_lane_contention() {
        let mut p = LogicalProgram::new("nested-lane");
        let qs: Vec<_> = (0..4).map(|i| p.add_qubit(format!("q{i}")).unwrap()).collect();
        for &q in &qs {
            p.prepare_z(q).unwrap();
        }
        // The outer q0–q3 merge claims lane columns 0..=3; the inner
        // q1–q2 merge's operands are free but its lane span is not.
        p.measure_xx(qs[0], qs[3]).unwrap();
        p.measure_xx(qs[1], qs[2]).unwrap();
        let (_, sched) = scheduled(&p);
        assert_eq!(sched.depth(), 3);
        assert_eq!(sched.routing_stalls, 1, "the inner merge waited one step on the lane");
        assert_eq!(sched.parallel_merges, 0);
    }

    /// Direct horizontal ZZ merges on disjoint column pairs all pack into
    /// the same step (the adder T-layer shape).
    #[test]
    fn adder_t_layer_runs_teleportations_in_parallel() {
        let p = examples::adder_t_layer(4);
        let (_, sched) = scheduled(&p);
        // preps | injections (share step? no: injections are on their own
        // tiles, disjoint from the data preps → same step) …
        // Step 0: 4 preps + 4 injections (8 disjoint tiles).
        assert_eq!(sched.steps[0].instructions.len(), 8);
        // Step 1: 4 direct ZZ merges on disjoint adjacent pairs.
        let merges = &sched.steps[1];
        assert_eq!(merges.instructions.len(), 4);
        for &i in &merges.instructions {
            assert_eq!(p.instructions()[i].instruction, Instruction::MeasureZZ);
        }
        // Step 2: 4 ancilla read-outs + 4 frame corrections.
        assert_eq!(sched.depth(), 3);
        // prep/inject step (1) + merge step (1) + read-out/correction step (0).
        assert_eq!(sched.logical_time_steps, 2);
        // Direct merges use no corridor, but still count as parallel.
        assert_eq!(sched.parallel_merges, 4);
        assert_eq!(sched.routed_merges(), 0);
    }

    #[test]
    fn empty_program_schedules_to_nothing() {
        let p = LogicalProgram::new("empty");
        let (placement, sched) = scheduled(&p);
        assert_eq!(sched.depth(), 0);
        assert_eq!(sched.logical_time_steps, 0);
        assert_eq!(sched.patch_steps(placement.total_tiles()), 0);
    }

    #[test]
    fn schedule_covers_every_instruction_exactly_once() {
        for (_, p) in examples::all() {
            for spec in [
                LayoutSpec::single_lane(),
                LayoutSpec::row_major().with_grid(8, 8),
                LayoutSpec::checkerboard().with_grid(8, 8),
            ] {
                let placement = Placement::allocate_with(&p, &spec).unwrap();
                let sched = schedule(&p, &placement).unwrap();
                let mut seen: Vec<usize> =
                    sched.steps.iter().flat_map(|s| s.instructions.clone()).collect();
                seen.sort_unstable();
                let expect: Vec<usize> = (0..p.len()).collect();
                assert_eq!(seen, expect, "{} under {spec:?}", p.name());
                assert_eq!(sched.corridors.len(), p.len());
            }
        }
    }

    /// Nested merges (a long-range one over an inner pair) serialise on a
    /// dense data row — the long corridor claims the inner operands' only
    /// lane access — while the checkerboard routes them disjointly.
    #[test]
    fn checkerboard_parallelises_what_the_row_layout_serialises() {
        let mut p = LogicalProgram::new("nested");
        let qs: Vec<_> = (0..4).map(|i| p.add_qubit(format!("q{i}")).unwrap()).collect();
        for &q in &qs {
            p.prepare_z(q).unwrap();
        }
        // Nested merges: the outer q0–q3 first, then the inner q1–q2.
        p.measure_zz(qs[0], qs[3]).unwrap();
        p.measure_zz(qs[1], qs[2]).unwrap();

        let row = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(8, 8)).unwrap();
        let row_sched = schedule(&p, &row).unwrap();
        // On the dense data row q1's only free neighbour is the lane tile
        // under it, which the q0–q3 corridor claims → one stall.
        assert_eq!(row_sched.routing_stalls, 1, "{:?}", row_sched.corridors);
        assert_eq!(row_sched.parallel_merges, 0);

        let board =
            Placement::allocate_with(&p, &LayoutSpec::checkerboard().with_grid(8, 8)).unwrap();
        let board_sched = schedule(&p, &board).unwrap();
        assert_eq!(board_sched.routing_stalls, 0, "{:?}", board_sched.corridors);
        assert_eq!(board_sched.parallel_merges, 2);
        assert!(board_sched.logical_time_steps < row_sched.logical_time_steps);
    }

    /// An unroutable merge is a typed error, not a hang or a panic.
    #[test]
    fn unroutable_merges_surface_routing_errors() {
        let mut p = LogicalProgram::new("tight");
        let a = p.add_qubit("a").unwrap();
        let b = p.add_qubit("b").unwrap();
        p.prepare_z(a).unwrap();
        p.prepare_z(b).unwrap();
        p.measure_zz(a, b).unwrap();
        // A 1×2 row grid leaves no ancilla tiles at all.
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(1, 2)).unwrap();
        let err = schedule(&p, &place).unwrap_err();
        assert_eq!(err.a, "a");
        assert_eq!(err.b, "b");
        assert!(err.to_string().contains("unroutable"));
    }
}
