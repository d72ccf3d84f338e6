//! # TISCC-rs — Trapped-Ion Surface Code Compiler and Resource Estimator
//!
//! A from-scratch Rust reproduction of *TISCC: A Surface Code Compiler and
//! Resource Estimator for Trapped-Ion Processors* (SC-W 2023). This umbrella
//! crate re-exports the whole stack:
//!
//! * [`grid`] — the trapped-ion QCCD grid substrate (trapping zones,
//!   junctions, ion occupancy and routing),
//! * [`hw`] — the native gate set, time-resolved circuits, ASAP scheduling
//!   and space-time resource accounting,
//! * [`math`] — GF(2) and Pauli algebra,
//! * [`telemetry`] — hand-rolled pipeline observability: span trees with
//!   monotonic timing, counter/gauge registries, and the tree and JSON
//!   renderings behind the CLI's `--trace` flag,
//! * [`core`] — the surface-code compiler (patches, syndrome extraction,
//!   lattice surgery, the Table 1/3 instruction sets),
//! * [`orqcs`] — the quasi-Clifford simulator used for verification,
//! * [`program`] — algorithm-level logical programs: the `.tql` IR and
//!   parser, 2D patch placement (single-lane, row-major and checkerboard
//!   floorplans), congestion-aware merge-corridor routing, the
//!   dependency-aware ASAP scheduler and the error-budget distance
//!   selection,
//! * [`estimator`] — the unified [`estimator::Compiler`] front door,
//!   table/figure regeneration, the program-level estimator
//!   ([`estimator::program`]) and the verification harness,
//! * [`frontier`] — Pareto-frontier search over the (layout × distance ×
//!   profile) design space, a persistent on-disk compile cache, and the
//!   `tiscc serve` stdin-JSON protocol,
//! * [`workloads`] — parametric program generators (adders, QFT, Ising
//!   Trotter layers, GHZ/teleport chains, seeded random Clifford+T) behind
//!   the `tiscc gen` subcommand; see `docs/WORKLOADS.md`.
//!
//! ## Quickstart
//!
//! The front door: a [`estimator::CompileRequest`] names an instruction,
//! code distances, and a hardware profile; the [`estimator::Compiler`]
//! returns the compiled circuit with its resource accounting.
//!
//! ```
//! use tiscc::core::Instruction;
//! use tiscc::estimator::{CompileRequest, Compiler};
//! use tiscc::hw::HardwareSpec;
//!
//! let compiler = Compiler::new();
//! // Prepare Z on a distance-3 patch, dt = 3 rounds, paper-faithful profile.
//! let request = CompileRequest::new(Instruction::PrepareZ, 3, 3, 3);
//! let artifact = compiler.compile(&request).unwrap();
//! assert!(artifact.resources.execution_time_s > 0.0);
//! assert!(artifact.resources.trapping_zones > 9);
//!
//! // Same workload, different hardware profile: one line.
//! let projected = compiler
//!     .compile(&request.with_spec(HardwareSpec::projected()))
//!     .unwrap();
//! assert!(projected.resources.execution_time_s < artifact.resources.execution_time_s);
//! ```
//!
//! A whole logical program — parsed from `.tql` text or built through the
//! [`program::LogicalProgram`] API — is estimated end-to-end by
//! [`estimator::estimate_program`]: the allocator places the qubits, the
//! scheduler packs independent instructions into parallel steps, and the
//! error budget selects the code distance:
//!
//! ```
//! use tiscc::estimator::{estimate_program, Compiler, ProgramEstimateSpec};
//! use tiscc::program::LogicalProgram;
//!
//! let program = LogicalProgram::parse(
//!     "bell",
//!     "qubit a b\nprep_x a\nprep_z b\nmerge_zz a b\n",
//! )
//! .unwrap();
//! let spec = ProgramEstimateSpec::new(1e-3); // loose budget -> small distance
//! let estimate = estimate_program(&program, &spec, &Compiler::new()).unwrap();
//! assert_eq!(estimate.logical_qubits, 2);
//! assert!(estimate.rows[0].duration_s > 0.0);
//! ```
//!
//! The lower-level patch API remains available for custom workloads:
//!
//! ```
//! use tiscc::core::{Instruction, LogicalQubit};
//! use tiscc::core::instruction::apply_instruction;
//! use tiscc::hw::{HardwareModel, HardwareSpec};
//!
//! // A grid of 6 x 6 repeating units, one distance-3 patch, dt = 3 rounds.
//! let mut hw = HardwareModel::with_spec(6, 6, HardwareSpec::h1());
//! let mut patch = LogicalQubit::new(&mut hw, 3, 3, 3, (0, 0)).unwrap();
//! apply_instruction(&mut hw, Instruction::PrepareZ, &mut patch).unwrap();
//! let report = hw.resource_report();
//! assert!(report.execution_time_s > 0.0);
//! ```

pub use tiscc_core as core;
pub use tiscc_estimator as estimator;
pub use tiscc_frontier as frontier;
pub use tiscc_grid as grid;
pub use tiscc_hw as hw;
pub use tiscc_math as math;
pub use tiscc_orqcs as orqcs;
pub use tiscc_program as program;
pub use tiscc_telemetry as telemetry;
pub use tiscc_workloads as workloads;
