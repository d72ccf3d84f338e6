//! Resource-estimation sweeps, verification campaigns and table generation.
//!
//! This crate drives the compiler (`tiscc-core`) and the quasi-Clifford
//! simulator (`tiscc-orqcs`) to regenerate every table and figure of the
//! TISCC paper:
//!
//! * [`compiler`] — the unified front door: [`compiler::Compiler`] turns
//!   [`compiler::CompileRequest`]s (instruction × distances × hardware
//!   profile) into [`compiler::CompileArtifact`]s,
//! * [`tables`] — Tables 1–3 (instruction sets with logical time-step
//!   accounting), Table 5 (native gate set and durations) and the Sec. 3.4
//!   resource-estimation sweep,
//! * [`sweep`] — the batched sweep engine: [`sweep::SweepSpec`] grids
//!   resolved through the compile cache ([`sweep::CompileCache::resolve`],
//!   the one path from compile requests to rows, compiling misses over
//!   rayon) with CSV/JSON emission; hardware profiles are a first-class
//!   sweep axis,
//! * [`program`] — the algorithm-level estimator: a whole
//!   `tiscc_program::LogicalProgram` placed, scheduled, distance-selected
//!   against an error budget, and costed per hardware profile,
//! * [`verify`] — the Sec. 4 verification harness: logical state and process
//!   tomography of compiled circuits, with Pauli-frame corrections,
//! * [`experiments`] — the figure-level reports (arrangements, operator
//!   movement, translation, syndrome-extraction patterns).
//!
//! Parameter sweeps are embarrassingly parallel and use `rayon`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
pub mod experiments;
pub mod program;
pub mod sweep;
pub mod tables;
pub mod verify;

pub use compiler::{CompileArtifact, CompileRequest, Compiler};
pub use program::{
    estimate_program, estimate_program_with, LogicalCounts, ProgramEstimate, ProgramEstimateSpec,
};
pub use sweep::{run_sweep, run_sweep_with, CompileCache, SweepResult, SweepSpec};
