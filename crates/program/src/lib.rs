//! Algorithm-level logical programs for the TISCC stack.
//!
//! The paper's per-instruction compiler answers "what does one
//! lattice-surgery instruction cost?"; this crate answers the question the
//! compiler exists to feed: *what does a whole logical program cost?* It
//! provides the four layers between a named algorithm and a space–time
//! resource estimate:
//!
//! * [`ir`] — the logical-program intermediate representation: named
//!   logical qubits plus a sequence of Table 1 lattice-surgery
//!   instructions, with a builder API and liveness validation,
//! * [`parse`] — the `.tql` (TISCC quantum logic) text format: a
//!   line-oriented surface syntax for the IR with stable mnemonics
//!   (`prep_x q0`, `merge_zz q0 q1`, `inject_t q2`, …),
//! * [`examples`] — canonical programs (Bell-pair preparation, logical
//!   state teleportation, the T-layer of a small ripple-carry adder) used
//!   by the documentation, the CLI smoke tests and the benchmarks,
//! * [`layout2d`] — 2D patch placement: assigns every logical qubit a
//!   tile on an H×W tile grid under a [`LayoutSpec`] strategy (the legacy
//!   single-lane row, row-major data rows over ancilla lanes, or an
//!   interleaved data/ancilla checkerboard), and maps the resulting tile
//!   grid onto the [`tiscc_grid::Layout`] substrate,
//! * [`route`] — congestion-aware corridor routing: BFS over the ancilla
//!   fabric finds the merge corridor of each joint measurement, with
//!   per-timestep [`Reservations`] so disjoint corridors execute in
//!   parallel and conflicting ones serialise,
//! * [`schedule`](mod@schedule) — the dependency- and congestion-aware
//!   ASAP list scheduler: packs instructions that touch disjoint tiles
//!   (and disjoint corridors) into the same parallel logical time step,
//!   reporting `routing_stalls` and `parallel_merges` per schedule,
//! * [`budget`] — the configurable per-step logical error model and
//!   error-budget distance selection.
//!
//! The driver that joins these layers to the per-instruction compiler
//! lives in `tiscc_estimator::program`; the `tiscc estimate` subcommand
//! exposes it on the command line (`--layout`, `--grid`, `--show-layout`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod budget;
pub mod examples;
pub mod ir;
pub mod layout2d;
pub mod parse;
pub mod route;
pub mod schedule;

pub use budget::{BudgetError, ErrorModel};
pub use ir::{LogicalProgram, ProgramError, ProgramInstruction, QubitPair, QubitRef};
pub use layout2d::{LayoutSpec, LayoutStrategy, Placement, PlacementError, Tile, MAX_GRID_TILES};
pub use parse::ParseError;
pub use route::{find_corridor, Reservations, RoutingError};
pub use schedule::{schedule, schedule_with, Corridor, Schedule, ScheduleStep};
