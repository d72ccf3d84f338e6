//! Trapped-ion hardware model: native gate set, literature-derived timings,
//! time-resolved circuits, ASAP scheduling and resource accounting.
//!
//! This crate is the bottom layer of the TISCC stack (paper Secs. 3.2–3.4).
//! It exposes:
//!
//! * [`HardwareSpec`] — a pluggable hardware parameterisation (per-operation
//!   durations, transport speeds, zone pitch and capacity) with the
//!   paper-faithful [`HardwareSpec::h1`] default plus named variants,
//! * [`NativeOp`] — the native trapped-ion gate set of paper Table 5/Fig. 5
//!   (specialised Pauli rotations, `ZZ`, state preparation, measurement and
//!   the `Move`/`Junction` transport primitives); durations resolve against
//!   a [`HardwareSpec`],
//! * [`Circuit`] — a time-resolved hardware circuit: every emitted operation
//!   carries the qsites it acts on, the ions involved and its start time;
//!   the operand lists are [`Operands`], inline up to two entries, so an
//!   ordinary op owns no heap memory,
//! * [`HardwareModel`] — the builder that appends native operations with
//!   ASAP (as-soon-as-possible) scheduling, accounts for parallelism,
//!   resolves junction conflicts by serialising the conflicting hops, and
//!   compiles composite gates (Hadamard, CNOT) into natives following the
//!   Quantinuum H1 constructions,
//! * [`ResourceReport`] — the space-time resource counters of paper Sec. 3.4,
//!   computed with running accumulators over any [`OpStream`],
//! * [`passes`] — the explicit pass pipeline (schedule → batch → template)
//!   behind the model: contention-aware junction scheduling with an
//!   explicit capacity and stall accounting, plus SIMD gate batching
//!   (see `docs/SCHEDULING.md`),
//! * [`validity`] — an independent replay checker for compiled circuits,
//! * [`rounds`] — periodic (round-templated) circuit representations:
//!   captured syndrome-extraction rounds are replicated analytically with a
//!   bit-exact schedule replay instead of being re-materialized, which is
//!   what makes large-distance (`d ≥ 19`) compilation fast,
//! * [`Label`] — interned, allocation-free measurement labels.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod circuit;
pub mod label;
pub mod model;
pub mod operands;
pub mod ops;
pub mod passes;
pub mod resources;
pub mod rounds;
pub mod spec;
pub mod validity;

pub use circuit::{Circuit, MeasurementRecord, OpStream, OpView, TimedOp};
pub use label::{Label, RoundLabel};
pub use model::{HardwareModel, HwError, RoundReplication};
pub use operands::Operands;
pub use ops::NativeOp;
pub use passes::{
    batch_ops, batch_rounds, BatchStats, RoundBatchStats, SchedulePolicy, Scheduler, Slot,
};
pub use resources::{RecordError, RecordFields, ResourceReport};
pub use rounds::{CompiledRounds, ReplicatedSpan, RoundTemplate};
pub use spec::{HardwareSpec, SpecFingerprint, UnknownProfile};
